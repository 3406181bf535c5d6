"""Benchmark of the netquant CLI on reference nets trained during set-up.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-k --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Set-up trains the workload's reference nets with ``netquant train-ref``,
in one or more rounds, and checks that every round wrote identical nets.
Then, for ``--seconds`` and at least twice per net, one client runs the
workload's job, cycling over the nets: a closed loop, one CLI process at a
time. Every job's outputs go through the correctness gate, and must be
byte-identical to those of the first job on the same net. With ``--trace 1`` each job runs once untraced and once with every
layer traced, and the per-layer metrics are reported.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units come
from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median

from measure import run_process, tail
from spans import job_layer_metrics
from workloads import NET_SEEDS, WORKLOADS, GateError, Workload, sha256

HERE = Path(__file__).resolve().parent
JOB_CAP_S = 60.0  # per job; a job still running is killed and counted as failed
SETUP_CAP_S = 60.0
# One BLAS thread per child. The nets are small, so a second thread buys
# little, and its spinning competes with neighbours on a shared host: on a
# 2-CPU box the same rate-budget job spread over 5.1-7.5 s with two threads
# and over 4.6-6.0 s with one.
BLAS_THREADS = 1
EXACT_SUFFIXES = (".calls", ".bytes", ".trace_len", ".rounds", ".bits", ".symbols", ".params")


class SetupError(Exception):
    pass


def child_env(root: Path) -> dict:
    threads = str(BLAS_THREADS)
    path = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    return dict(
        os.environ,
        PYTHONPATH=path,
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )


def run_record(root: Path, env: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "git_commit": commit,
    }


class Runner:
    """One workload in one benchmark invocation."""

    def __init__(self, root: Path, workload: Workload, seed: int, seconds: float, trace: bool):
        self.root = root
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.env = child_env(root)
        self.work = root / ".bench_work" / f"{workload.name}-{seed}-{os.getpid()}"
        self.nets: list[Path] = []
        self.reference: dict[tuple, dict] = {}  # first artifacts and exact counters per net

    def setup(self) -> list[float]:
        """Train every net ``setup_rounds`` times; each copy must match the first."""
        times, digests = [], []
        for rnd in range(self.w.setup_rounds):
            for i, seed in enumerate(NET_SEEDS):
                out = self.work / f"net{seed}-{rnd}"
                argv = [sys.executable, "-m", "netquant.cli", "train-ref", *self.w.train_args,
                        "--seed", str(seed), "--synth-seed", str(seed), "--out-dir", str(out)]  # fmt: skip
                res = run_process(argv, self.env, self.root, SETUP_CAP_S, out.with_suffix(".log"))
                if res.returncode != 0:
                    raise SetupError(f"train-ref --seed {seed} exited {res.returncode}")
                times.append(res.wall_s)
                # config.txt names the output directory, so it differs by design.
                files = {p.name: sha256(p) for p in out.iterdir() if p.name != "config.txt"}
                if rnd == 0:
                    self.nets.append(out)
                    digests.append(files)
                elif files != digests[i]:
                    raise SetupError(f"train-ref --seed {seed} wrote a different net on a repeat")
                else:
                    shutil.rmtree(out)
        return times

    def job(self, index: int, traced: bool) -> dict:
        """Run one job; returns its timing, status and gate outcome."""
        net = index % len(self.nets)
        job_dir = self.work / f"job{index}{'t' if traced else ''}"
        job_dir.mkdir()
        procs, spans = [], []
        start = time.perf_counter()
        status = "ok"
        for n, argv in enumerate(self.w.commands(self.nets[net], job_dir, self.seed)):
            spans_path = job_dir / f"spans{n}.json"
            prefix = [str(HERE / "traced_cli.py"), str(spans_path)] if traced else ["-m", "netquant.cli"]
            cap = JOB_CAP_S - (time.perf_counter() - start)
            res = run_process([sys.executable, *prefix, *argv], self.env, self.root, cap,
                              job_dir / f"cmd{n}.log")  # fmt: skip
            procs.append(res)
            if res.timed_out:
                status = "timeout"
            elif res.returncode != 0:
                status = f"exit {res.returncode}"
            if status != "ok":
                break
            spans.append(spans_path)
        wall = time.perf_counter() - start
        record = {
            "index": index,
            "net": net,
            "traced": traced,
            "wall_s": wall,
            "peak_rss_mb": max(p.peak_rss_mb for p in procs),
            "status": status,
        }
        if status == "ok":
            try:
                outcome = self.w.gate(job_dir)
                record["ratio_exact"] = outcome.ratio_exact
                record["accuracy"] = outcome.accuracy
                self._same_as_before(("artifacts", net), outcome.artifacts)
                if traced:
                    processes = [
                        {**json.loads(path.read_text()), "wall_s": res.wall_s}
                        for path, res in zip(spans, procs)
                    ]
                    record["layers"] = job_layer_metrics(processes)
                    exact = {k: v for k, v in record["layers"].items() if k.endswith(EXACT_SUFFIXES)}
                    self._same_as_before(("counters", net), exact)
            except GateError as exc:
                record["status"] = f"gate: {exc}"
        shutil.rmtree(job_dir)
        return record

    def _same_as_before(self, key: tuple, value: dict) -> None:
        first = self.reference.setdefault(key, value)
        if first != value:
            diff = sorted(k for k in set(first) | set(value) if first.get(k) != value.get(k))
            raise GateError(f"{key[0]} differ from the first job's on this net: {diff}")

    def run(self) -> tuple[list[float], list[dict]]:
        self.work.mkdir(parents=True)
        try:
            setup_times = self.setup()
            jobs = []
            deadline = time.perf_counter() + self.seconds
            index = 0
            while True:
                jobs.append(self.job(index, traced=False))
                if self.trace:
                    jobs.append(self.job(index, traced=True))
                index += 1
                if time.perf_counter() >= deadline and index >= 2 * len(self.nets):
                    break
            return setup_times, jobs
        finally:
            shutil.rmtree(self.work, ignore_errors=True)


def summarize(spec: dict, setup_times: list, jobs: list, trace: bool) -> tuple[dict, dict]:
    """The result object (the last output line) and the run's extra figures."""
    plain = [j for j in jobs if not j["traced"]]
    ok = [j for j in jobs if j["status"] == "ok"]
    failed = sum(j["status"] != "ok" for j in jobs)
    job_times = [j["wall_s"] for j in plain]
    nets = sorted({j["net"] for j in plain})
    first_ok = {}  # ratio and accuracy repeat exactly on a net; the gate checks that
    for j in ok:
        first_ok.setdefault(j["net"], j)
    values = {
        "job_s": fmean(median(j["wall_s"] for j in plain if j["net"] == n) for n in nets),
        "setup_s": median(setup_times),
        "peak_rss_mb": median(j["peak_rss_mb"] for j in plain),
        "ratio_exact": fmean(j["ratio_exact"] for j in first_ok.values()) if ok else None,
        "accuracy": fmean(j["accuracy"] for j in first_ok.values()) if ok else None,
    }
    extra = {
        "failed_frac": failed / len(jobs),
        "job_s_tail": tail(job_times),
        "setup_samples_s": setup_times,
    }
    entries = spec["end_to_end"]
    if trace:
        traced = [j for j in jobs if j["traced"] and j["status"] == "ok"]
        layers = {}
        if traced:
            names = set().union(*(j["layers"] for j in traced))
            layers = {k: median(j["layers"].get(k, 0.0) for j in traced) for k in names}
            # Each traced job ran right after its untraced twin; pairing them
            # cancels most of the machine's drift.
            untraced = {j["index"]: j["wall_s"] for j in plain}
            layers["trace.overhead_s"] = median(j["wall_s"] - untraced[j["index"]] for j in traced)
            shares = {
                k[:-2]: median(j["layers"].get(k, 0.0) / j["wall_s"] for j in traced)
                for k in names
                if k.endswith(".s") and not k.startswith("trace.")
            }
            extra["span_share_of_traced_job_s"] = dict(sorted(shares.items(), key=lambda kv: -kv[1]))
        values = layers
        entries = spec["per_layer"]
    metrics = {
        e["name"]: {"value": values.get(e["name"], 0.0), "unit": e["unit"]} for e in entries
    }
    result = {"correct": failed == 0, "attempted": len(jobs), "failed": failed, "metrics": metrics}
    return result, extra


def print_summary(name: str, result: dict, extra: dict, spec: dict) -> None:
    units = {e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]}
    print(f"== {name}: {result['attempted']} jobs, {result['failed']} failed "
          f"(failed_frac {extra['failed_frac']:.3f})")  # fmt: skip
    for metric, entry in result["metrics"].items():
        print(f"  {metric:48s} {entry['value']!s:>24} {units[metric]}")
    t = extra["job_s_tail"]
    print(f"  job_s_tail: p{t['percentile']} = {t['value']} s over {t['samples']} jobs")
    for span, share in extra.get("span_share_of_traced_job_s", {}).items():
        print(f"  share of job_s  {span:40s} {share:8.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so running children are killed and reaped
    # and the work directory is removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "netquant" / "cli.py").is_file():
        print("error: run from the repository root; src/netquant is missing", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    env = child_env(root)
    record = {**run_record(root, env), "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "workloads": {}}  # fmt: skip
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        runner = Runner(root, WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        try:
            setup_times, jobs = runner.run()
        except SetupError as exc:
            print(f"error: {name} set-up failed: {exc}", file=sys.stderr)
            return 1
        result, extra = summarize(spec, setup_times, jobs, bool(args.trace))
        for j in jobs:
            j.pop("layers", None)
        record["workloads"][name] = {**extra, "jobs": jobs}
        print_summary(name, result, extra, spec)
        results[name] = result

    print(json.dumps({"record": record}))
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
