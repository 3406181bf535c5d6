"""The benchmark's workloads and the correctness gate on their outputs.

Each workload trains its reference nets with ``netquant train-ref`` during
set-up, then repeats one job: a fixed sequence of CLI commands on one of
the nets, each command in its own process. The gate checks what a job
wrote; a job that fails it counts as failed.

The reference nets are a fixed panel, trained from seeds 0 and 1. How long
clustering takes depends strongly on the net: over six nets of the
``sweep-k`` shape that differed only in their training seed, one sweep took
from 3.4 s to 24 s. Nets drawn from the benchmark's seed would make runs
with different seeds incomparable within any usable bound, so the
benchmark's seed goes to each job's ``--seed`` instead.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

NET_SEEDS = (0, 1)
SWEEP_KS = (4, 8, 16, 32)
SWEEP_QUANTIZERS = ("kmeans", "hw-kmeans")


class GateError(Exception):
    """A job's outputs are wrong."""


@dataclass(frozen=True)
class JobOutcome:
    """What the gate extracted from a passing job."""

    artifacts: dict  # file name -> sha256, compared across repeats on one net
    ratio_exact: float
    accuracy: float


@dataclass(frozen=True)
class Workload:
    name: str
    train_args: tuple  # train-ref arguments besides --out-dir and the seeds
    setup_rounds: int  # times set-up trains each net; every copy must be identical
    commands: Callable[[Path, Path, int], list]  # (net dir, job dir, seed) -> argv lists
    gate: Callable[[Path], JobOutcome]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise GateError(f"cannot read {path.name}: {exc}") from exc


def check_encoded(out_dir: Path, check: dict) -> dict:
    """Gate for a quantize output directory and ``report`` on its model.nq.

    ``check`` is the document ``report`` wrote for ``out_dir/model.nq``. It
    must reproduce report.json's ratio_exact, entropy_bits and bit
    breakdown, and the breakdown must account for every bit of the file.
    Returns report.json.
    """
    nq = out_dir / "model.nq"
    if not nq.is_file():
        raise GateError("model.nq missing")
    doc = _load_json(out_dir / "report.json")
    for key in ("ratio_exact", "entropy_bits", "bit_breakdown"):
        if doc.get(key) != check.get(key):
            raise GateError(f"report disagrees with report.json on {key}")
    breakdown = check["bit_breakdown"]
    if sum(breakdown.values()) != 8 * nq.stat().st_size:
        raise GateError("bit breakdown does not sum to the file size")
    return doc


def _gate_sweep(job_dir: Path) -> JobOutcome:
    path = job_dir / "sweep" / "sweep.csv"
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise GateError(f"cannot read sweep.csv: {exc}") from exc
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    expected = [(q, str(k)) for q in SWEEP_QUANTIZERS for k in SWEEP_KS]
    if [(r["quantizer"], r["knob"]) for r in rows] != expected:
        raise GateError("sweep rows do not match the requested points")
    bad = [r["index"] for r in rows if r["status"] != "ok"]
    if bad:
        raise GateError(f"sweep rows not ok: {bad}")
    ratios = [float(r["ratio_exact"]) for r in rows]
    accuracies = [float(r["accuracy_pre_ft"]) for r in rows]
    if any(int(r["k_effective"]) > int(r["knob"]) for r in rows):
        raise GateError("sweep row uses more clusters than requested")
    if not all(math.isfinite(x) and x > 1 for x in ratios):
        raise GateError("sweep ratio_exact out of range")
    if not all(0 <= a <= 1 for a in accuracies):
        raise GateError("sweep accuracy out of range")
    return JobOutcome(
        {"sweep.csv": sha256(path)}, sum(ratios) / len(ratios), sum(accuracies) / len(accuracies)
    )


def _encoded_outcome(job_dir: Path, accuracy_key: str, files: tuple) -> JobOutcome:
    out_dir = job_dir / "q"
    doc = check_encoded(out_dir, _load_json(job_dir / "check.json"))
    accuracy = doc.get(accuracy_key)
    if not isinstance(accuracy, float) or not 0 <= accuracy <= 1:
        raise GateError(f"{accuracy_key} missing or out of range")
    return JobOutcome({f: sha256(out_dir / f) for f in files}, doc["ratio_exact"], accuracy)


def _gate_rate_budget(job_dir: Path) -> JobOutcome:
    outcome = _encoded_outcome(
        job_dir, "accuracy_post_finetune", ("model.nq", "model_preft.nq", "report.json")
    )
    doc = _load_json(job_dir / "q" / "report.json")
    if doc["entropy_bits"] > doc["entropy_budget"] + 0.05:
        raise GateError("entropy budget not met")
    return outcome


def _gate_codec(job_dir: Path) -> JobOutcome:
    return _encoded_outcome(job_dir, "accuracy_pre_finetune", ("model.nq", "report.json"))


def _report(job_dir: Path) -> list:
    return ["report", "--model-nq", str(job_dir / "q" / "model.nq"), "--out", str(job_dir / "check.json")]


SMALL_NET = (
    "--dataset", "synth", "--synth-features", "20", "--synth-classes", "8",
    "--hidden", "96,48", "--steps", "1200",
)  # fmt: skip

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-k",
            SMALL_NET,
            3,
            lambda net, job, seed: [
                [
                    "sweep", "--model-dir", str(net), "--dataset", "synth",
                    "--quantizers", ",".join(SWEEP_QUANTIZERS),
                    "--k-list", ",".join(map(str, SWEEP_KS)),
                    "--curvature", "adam", "--coding", "huffman",
                    "--seed", str(seed), "--out-dir", str(job / "sweep"),
                ]
            ],  # fmt: skip
            _gate_sweep,
        ),
        Workload(
            "rate-budget",
            SMALL_NET,
            3,
            lambda net, job, seed: [
                [
                    "quantize", "--model-dir", str(net), "--dataset", "synth",
                    "--quantizer", "ecsq", "--target-ratio", "16",
                    "--curvature", "exact", "--hessian-samples", "64",
                    "--fine-tune", "true", "--seed", str(seed), "--out-dir", str(job / "q"),
                ],
                _report(job),
            ],  # fmt: skip
            _gate_rate_budget,
        ),
        Workload(
            "codec",
            (
                "--dataset", "synth", "--synth-features", "64", "--synth-classes", "10",
                "--hidden", "1024,768", "--steps", "300",
            ),  # fmt: skip
            1,
            lambda net, job, seed: [
                [
                    "prune", "--model-dir", str(net), "--prune-fraction", "0.5",
                    "--out-dir", str(job / "pruned"),
                ],
                [
                    "quantize", "--model-dir", str(job / "pruned"), "--dataset", "synth",
                    "--quantizer", "uniform", "--k", "16", "--coding", "huffman",
                    "--seed", str(seed), "--out-dir", str(job / "q"),
                ],
                _report(job),
            ],  # fmt: skip
            _gate_codec,
        ),
    )
}
