"""Span tracing of the netquant layers, applied from outside the program.

:class:`Tracer` wraps every public function of the package modules in a
recorder of (name, start, end, parent) spans plus a few exact counters per
call. The per-job arithmetic (self time, per-function sums) lives here as
plain functions so the tests can check it without running the program.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from pathlib import Path

import numpy as np

QUANTIZER_RESULTS = ("kmeans_lloyd", "hw_kmeans_lloyd", "uniform_quantize", "ecsq_iterate")
HOOK = "trace.hook"


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its direct children's.

    ``spans`` is a sequence of ``(name, start, end, parent)`` where
    ``parent`` is the index of the enclosing span or ``-1``. Spans of one
    process run on one thread, so siblings never overlap and the children's
    durations add up to the part of the parent they cover.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def job_layer_metrics(processes) -> dict[str, float]:
    """Per-job layer metrics from the traced processes of one job.

    Each process is a dict with ``spans``, ``counts`` and ``wall_s`` (the
    process wall time seen by its parent). Returns ``<span>.s``,
    ``<span>.self_s`` and ``<span>.calls`` per span name, the summed
    counters, ``quantizers.solve_lambda.rounds`` (``ecsq_iterate`` calls
    nested under ``solve_lambda``), ``cli.startup_s`` and ``trace.hook_s``.
    """
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    for proc in processes:
        spans = proc["spans"]
        selfs = self_times(spans)
        main_s = 0.0
        for (name, start, end, parent), self_s in zip(spans, selfs):
            if name == HOOK:
                add("trace.hook_s", end - start)
                continue
            add(f"{name}.s", end - start)
            add(f"{name}.self_s", self_s)
            add(f"{name}.calls", 1)
            if name == "cli.main":
                main_s += end - start
            if name == "quantizers.ecsq_iterate" and parent >= 0:
                if spans[parent][0] == "quantizers.solve_lambda":
                    add("quantizers.solve_lambda.rounds", 1)
        add("cli.startup_s", proc["wall_s"] - main_s)
        for key, value in proc["counts"].items():
            add(key, value)
    return out


def _dir_bytes(path) -> int:
    from netquant import params

    names = (params.MANIFEST_FILE, params.PARAMS_FILE, params.CURVATURE_FILE, params.MASK_FILE)
    return sum((Path(path) / n).stat().st_size for n in names if (Path(path) / n).is_file())


class Tracer:
    """Wraps the package's public functions and records spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._hw_distortion = None

    def install(self) -> None:
        """Import the package and replace each public function by a wrapper.

        Every module attribute bound to a wrapped function is replaced, so
        calls through ``from .x import f`` and same-module calls are traced.
        """
        import netquant
        from netquant import cli, coding, params, quantizers, refnet

        modules = {"params": params, "refnet": refnet, "quantizers": quantizers, "coding": coding}
        self._hw_distortion = quantizers.hw_distortion
        wrapped = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                ):
                    wrapped[fn] = self._wrap(f"{layer}.{attr}", fn)
        for attr, fn in vars(cli).items():
            if attr == "main" or (attr.startswith("cmd_") and inspect.isfunction(fn)):
                span = "cli.main" if attr == "main" else "cli." + attr[4:].replace("_", "-")
                wrapped[fn] = self._wrap(span, fn)
        for module in (netquant, cli, *modules.values()):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            record = [name, 0.0, 0.0, parent]
            self.spans.append(record)
            self._stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            self._count(name, parent, fn, args, kwargs, result)
            self.spans.append([HOOK, record[2], time.perf_counter(), parent])
            return result

        return traced

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _count(self, name, parent, fn, args, kwargs, result) -> None:
        """Exact counters of one call, computed after its span has closed."""
        short = name.split(".", 1)[1]
        if name == "params.load_model":
            self._add("params.load_model.bytes", _dir_bytes(_arg(fn, args, kwargs, "path")))
        elif name == "params.save_model":
            self._add("params.save_model.bytes", _dir_bytes(_arg(fn, args, kwargs, "path")))
        elif name == "coding.encode_assignments":
            self._add("coding.encode_assignments.bits", result.total_bits)
        elif name == "coding.decode_assignments":
            n = result.assignment.size + (0 if result.positions is None else result.positions.size)
            self._add("coding.decode_assignments.symbols", n)
        elif name == "refnet.hessian_diag_exact":
            self._add("refnet.hessian_diag_exact.params", result.n)
        if not name.startswith("quantizers.") or self._inside_quantizer(parent):
            return
        if short in ("kmeans_lloyd", "hw_kmeans_lloyd"):
            self._add(f"{name}.trace_len", len(result.trace))
        if short == "solve_lambda":
            result = result.result
        elif short not in QUANTIZER_RESULTS:
            return
        values = _arg(fn, args, kwargs, "values")
        curvature = None if short == "kmeans_lloyd" else _arg(fn, args, kwargs, "curvature")
        if curvature is None:
            curvature = np.ones(np.asarray(getattr(values, "values", values)).size)
        self._add(
            "quantizers.objective",
            self._hw_distortion(values, curvature, result.assignment, result.codebook),
        )

    def _inside_quantizer(self, parent: int) -> bool:
        while parent >= 0:
            if self.spans[parent][0].startswith("quantizers."):
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans, "counts": self.counts}))


def _arg(fn, args, kwargs, name: str):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]
