"""Run one workload over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload codec --seeds 1-10

The spread is the distance between the first and third quartile of the
per-run values as a share of their median, next to the bound BENCHMARK.json
gives the metric.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from statistics import median

from measure import quartile_spread


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    first, last = map(int, args.seeds.split("-"))
    runs = []
    for seed in range(first, last + 1):
        cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]  # fmt: skip
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} {values}", flush=True)
    bounds = {e["name"]: e["bound"] for e in spec["end_to_end"]}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        spread = quartile_spread(values) if len(values) > 1 else 0.0
        print(f"{name:32s} median {median(values):12.6g} spread {spread:7.3f} bound {bounds.get(name, '-')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
