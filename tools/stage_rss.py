"""Peak RSS after each pipeline stage of one netquant CLI command.

Usage: ``python3 tools/stage_rss.py COMMAND [ARGS...]`` with the package
importable, for example::

    PYTHONPATH=src python3 tools/stage_rss.py quantize --model-dir pruned \\
        --dataset synth --quantizer uniform --k 16 --out-dir q

Like the benchmark's tracer, it wraps the stage functions from outside the
program: each listed function that the imported package defines is
replaced, in every module that binds it, by a wrapper that records the
process's ``ru_maxrss`` when the call returns. After the command it prints
one ``stage  MB`` line per completed call to stderr, between an ``import``
line for the baseline before the command ran and an ``end`` line for the
whole command. Stages nest (``load_model`` runs inside ``_prepare_inputs``),
so a line reads as "the peak so far when this call returned". The exit
code is the command's.

``ru_maxrss`` is a high-water mark: freed numpy buffers stay in the heap,
so a stage's line also carries every earlier stage's transients.
"""

from __future__ import annotations

import functools
import inspect
import resource
import sys

# (module, function) pairs in pipeline order; absent names are skipped, so
# the tool runs unchanged against older or newer trees.
STAGES = (
    ("params", "load_model"),
    ("refnet", "prune_magnitude"),
    ("params", "save_model"),
    ("cli", "_masked_values"),
    ("cli", "_resolve_curvature"),
    ("params", "compact_unpruned"),
    ("cli", "_compact_inputs"),
    ("cli", "_prepare_inputs"),
    ("quantizers", "uniform_quantize"),
    ("quantizers", "kmeans_sweep"),
    ("quantizers", "ecsq_iterate"),
    ("quantizers", "solve_lambda"),
    ("coding", "build_huffman"),
    ("coding", "encode_assignments"),
    ("refnet", "fine_tune_centers"),
    ("refnet", "eval_accuracy"),
    ("coding", "decode_assignments"),
)


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def install(rows: list) -> None:
    """Wrap each stage function so that its return appends a row."""
    import netquant
    from netquant import cli, coding, params, quantizers, refnet

    modules = {"params": params, "refnet": refnet, "quantizers": quantizers,
               "coding": coding, "cli": cli}  # fmt: skip
    wrapped = {}
    for layer, attr in STAGES:
        fn = getattr(modules[layer], attr, None)
        if not inspect.isfunction(fn):
            continue

        def stage(*args, _fn=fn, _name=f"{layer}.{attr}", **kwargs):
            result = _fn(*args, **kwargs)
            rows.append((_name, peak_mb()))
            return result

        wrapped[fn] = functools.wraps(fn)(stage)
    for module in (netquant, *modules.values()):
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(module, attr, wrapped[value])


def main() -> int:
    rows: list = []
    install(rows)
    from netquant import cli

    rows.append(("import", peak_mb()))
    try:
        return cli.main(sys.argv[1:])
    finally:
        rows.append(("end", peak_mb()))
        for name, mb in rows:
            print(f"{name:32s} {mb:7.1f}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
