"""The developer tools under ``tools/`` stay in step with the package."""

import importlib.util
import inspect
from pathlib import Path

from netquant import cli, coding, params, quantizers, refnet

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stage_rss_stages_name_defined_functions():
    """``stage_rss`` skips absent names silently, so a stale one would drop
    its stage line without notice."""
    modules = {"params": params, "refnet": refnet, "quantizers": quantizers,
               "coding": coding, "cli": cli}  # fmt: skip
    stale = [
        f"{layer}.{attr}"
        for layer, attr in _load_tool("stage_rss").STAGES
        if not inspect.isfunction(getattr(modules[layer], attr, None))
    ]
    assert stale == []
