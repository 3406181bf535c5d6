"""Peak RSS after each pipeline stage of one netquant CLI command.

Usage: ``python3 tools/stage_rss.py COMMAND [ARGS...]`` with the package
importable, for example::

    PYTHONPATH=src python3 tools/stage_rss.py quantize --model-dir pruned \\
        --dataset synth --quantizer uniform --k 16 --out-dir q

Like the benchmark's tracer, it wraps the stage functions from outside the
program: each listed function that the imported package defines is
replaced, in every module that binds it, by a wrapper that records the
process's ``ru_maxrss`` and its current resident set (from
``/proc/self/statm``) when the call returns. After the command it prints
one ``stage  peak MB  now MB`` line per completed call to stderr, between an
``import`` line for the baseline before the command ran and an ``end``
line for the whole command. Stages nest (``_open_model_dir`` runs inside
``_prepare_inputs``, ``_curvature_pass`` inside either curvature backend,
``scatter_dequantize`` and ``eval_accuracy`` inside ``_evaluate``, and
``eval_accuracy`` inside ``train_adam`` too), so a line reads as "the peak
so far when this call returned". The exit code is the command's.

``cli._open_model_dir`` opens the model directory and reads only
``manifest.json`` and ``refnet.json``; each payload is read later, when the
command asks for it (``quantize`` inside ``_prepare_inputs``). The CLI does
not call ``params.load_model``, so that function is not a stage.

``ru_maxrss`` is a high-water mark, so a stage's peak also carries every
earlier stage's transients; the current figure falls when a stage frees
memory back to the system. Freed numpy buffers that sit inside the heap
stay resident, so it falls only for buffers that were mapped on their own
or at the top of the heap. The two columns come from different kernel
counters, so the current one can read a few hundred KB above the peak.
Where ``/proc`` is absent the current column reads ``nan``.
"""

from __future__ import annotations

import functools
import inspect
import os
import resource
import sys

# (module, function) pairs in pipeline order; absent names are skipped, so
# the tool runs unchanged against older or newer trees (tests/test_tools.py
# checks that the current package defines every one).
STAGES = (
    ("refnet", "train_adam"),
    ("refnet", "adam_curvature"),
    ("cli", "_open_model_dir"),
    ("refnet", "prune_magnitude"),
    ("params", "save_model"),
    ("quantizers", "gather_kept"),
    ("refnet", "_curvature_pass"),
    ("refnet", "hessian_diag_exact"),
    ("refnet", "hessian_diag_gn"),
    ("cli", "_prepare_inputs"),
    ("quantizers", "uniform_quantize"),
    ("quantizers", "kmeans_sweep"),
    ("quantizers", "ecsq_iterate"),
    ("quantizers", "solve_lambda"),
    ("cli", "_quantize_values"),
    ("coding", "build_huffman"),
    ("coding", "encode_assignments"),
    ("refnet", "fine_tune_centers"),
    ("quantizers", "scatter_dequantize"),
    ("refnet", "eval_accuracy"),
    ("cli", "_evaluate"),
    ("coding", "decode_assignments"),
)


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_mb() -> float:
    """The resident set now, in MB; ``nan`` without ``/proc/self/statm``."""
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
    except OSError:
        return float("nan")
    return pages * os.sysconf("SC_PAGE_SIZE") / (1 << 20)


def sample() -> tuple[float, float]:
    return peak_mb(), current_mb()


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
            rows.append((_name, *sample()))
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

    rows.append(("import", *sample()))
    try:
        return cli.main(sys.argv[1:])
    finally:
        rows.append(("end", *sample()))
        print(f"{'stage':32s} {'peak MB':>7s} {'now MB':>7s}", file=sys.stderr)
        for name, peak, now in rows:
            print(f"{name:32s} {peak:7.1f} {now:7.1f}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
