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


def test_stage_rss_names_each_cli_stage_in_pipeline_order():
    """Every stage function of ``quantize``, ``sweep`` and ``report`` has
    its own line, in the order a fine-tuned ``quantize`` calls them."""
    pipeline = [
        "cli._open_with_dataset", "cli._compact", "cli._curvature", "cli._quantize_values",
        "cli._build_code", "cli._evaluate", "cli._encode", "cli._fine_tune",
        "coding.decode_assignments",
    ]  # fmt: skip
    names = [f"{layer}.{attr}" for layer, attr in _load_tool("stage_rss").STAGES]
    assert [name for name in names if name in pipeline] == pipeline
