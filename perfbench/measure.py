"""Child-process timing and the summary statistics the benchmark reports."""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class ProcResult:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    timed_out: bool


def run_process(argv, env, cwd, cap_s: float, log_path) -> ProcResult:
    """Run ``argv`` to completion or until ``cap_s``, whichever is first.

    The child is reaped with ``os.wait4`` so its own peak RSS comes back
    with its exit status. A child still running at the cap is killed and
    reported as timed out.
    """
    lock = threading.Lock()
    state = {"reaped": False, "timed_out": False}
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=log, stderr=subprocess.STDOUT)

        def kill() -> None:
            with lock:
                if not state["reaped"]:
                    state["timed_out"] = True
                    os.kill(proc.pid, 9)

        timer = threading.Timer(cap_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            with lock:
                state["reaped"] = True
        except BaseException:
            # Interrupted (for example by SIGTERM): leave no child behind.
            with lock:
                state["reaped"] = True
                os.kill(proc.pid, 9)
            os.waitpid(proc.pid, 0)
            proc.returncode = -9
            raise
        finally:
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcResult(proc.returncode, wall, usage.ru_maxrss / 1024.0, state["timed_out"])


def tail(values) -> dict:
    """The highest percentile with at least ten samples beyond it.

    With ``n`` samples sorted ascending, the value at rank ``r`` (1-based,
    nearest-rank percentile ``100 r / n``) has ``n - r`` samples above its
    position, so the highest qualifying rank is ``n - 10``. Fewer than 11
    samples give no such percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return {"percentile": None, "value": None, "samples": n}
    rank = n - 10
    return {"percentile": 100.0 * rank / n, "value": ordered[rank - 1], "samples": n}


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else math.inf
