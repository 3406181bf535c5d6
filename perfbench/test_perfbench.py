"""Tests of the benchmark's own arithmetic and correctness gate."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from measure import tail
from spans import job_layer_metrics, self_times
from workloads import GateError, check_encoded

HERE = Path(__file__).resolve().parent

# cli.main [0, 10] > solve_lambda [1, 9] > two ecsq_iterate rounds, with the
# tracer's own bookkeeping after each call recorded as trace.hook spans.
NESTED = [
    ["cli.main", 0.0, 10.0, -1],
    ["quantizers.solve_lambda", 1.0, 9.0, 0],
    ["quantizers.ecsq_iterate", 2.0, 4.0, 1],
    ["trace.hook", 4.0, 4.5, 1],
    ["quantizers.ecsq_iterate", 5.0, 8.0, 1],
    ["trace.hook", 8.0, 8.25, 1],
    ["trace.hook", 9.0, 9.5, 0],
]


def test_self_time_subtracts_direct_children_only():
    assert self_times(NESTED) == [1.5, 2.25, 2.0, 0.5, 3.0, 0.25, 0.5]


def test_job_layer_metrics_nested_spans():
    m = job_layer_metrics([{"spans": NESTED, "counts": {"coding.decode_assignments.symbols": 7}, "wall_s": 11.0}])
    assert m["quantizers.solve_lambda.s"] == 8.0
    assert m["quantizers.solve_lambda.self_s"] == 2.25
    assert m["quantizers.ecsq_iterate.s"] == 5.0
    assert m["quantizers.ecsq_iterate.calls"] == 2
    assert m["quantizers.solve_lambda.rounds"] == 2
    assert m["cli.main.self_s"] == 1.5
    assert m["cli.startup_s"] == 1.0
    assert m["trace.hook_s"] == 1.25
    assert m["coding.decode_assignments.symbols"] == 7
    assert "trace.hook.s" not in m


def test_job_layer_metrics_sums_processes():
    one = {"spans": NESTED[:1], "counts": {"params.load_model.bytes": 5}, "wall_s": 10.5}
    m = job_layer_metrics([one, one])
    assert m["cli.main.calls"] == 2
    assert m["cli.startup_s"] == 1.0
    assert m["params.load_model.bytes"] == 10


@pytest.mark.parametrize(
    "n, percentile, rank",
    [(1, None, None), (10, None, None), (11, 100 / 11, 1), (20, 50.0, 10), (1000, 99.0, 990)],
)
def test_tail_keeps_ten_samples_beyond(n, percentile, rank):
    values = list(range(n, 0, -1))  # unsorted on purpose
    t = tail(values)
    assert t["samples"] == n
    if percentile is None:
        assert t["percentile"] is None and t["value"] is None
    else:
        assert t["percentile"] == pytest.approx(percentile)
        assert t["value"] == rank
        assert sum(v > t["value"] for v in values) == 10


@pytest.fixture
def encoded(tmp_path):
    """A quantize-style output dir (model.nq, report.json) for a pruned model,
    with the assignment and code it holds."""
    from netquant import coding, quantizers

    rng = np.random.default_rng(0)
    values = rng.standard_t(4, size=3000) * 0.05
    positions = np.sort(rng.choice(6000, size=values.size, replace=False))
    res = quantizers.uniform_quantize(values, k=8)
    code = coding.build_huffman(res.codebook)
    em = coding.encode_assignments(res.assignment, res.codebook, code, positions, 6000)
    out = tmp_path / "q"
    out.mkdir()
    (out / "model.nq").write_bytes(em.data)
    doc = coding.build_report(em, res.codebook.counts, code).as_dict()
    (out / "report.json").write_text(json.dumps(doc))
    return out, res.assignment, code


@pytest.fixture
def encoded_job(encoded):
    return encoded[0]


def _report(out: Path) -> tuple[int, dict | None]:
    """Run ``netquant report`` on out/model.nq as a job does."""
    from netquant import cli

    check = out.parent / "check.json"
    check.unlink(missing_ok=True)
    code = cli.main(["report", "--model-nq", str(out / "model.nq"), "--out", str(check)])
    return code, json.loads(check.read_text()) if check.is_file() else None


def test_gate_accepts_intact_output(encoded_job):
    code, check = _report(encoded_job)
    assert code == 0
    check_encoded(encoded_job, check)


def _rejected(out: Path) -> str | None:
    """How the job-level gate rejects out/: a failed report, a mismatch, or None."""
    code, check = _report(out)
    if code != 0:
        return "exit"
    try:
        check_encoded(out, check)
    except GateError:
        return "mismatch"
    return None


def _flip(path: Path, bit: int) -> None:
    data = bytearray(path.read_bytes())
    data[bit // 8] ^= 0x80 >> (bit % 8)
    path.write_bytes(bytes(data))


def test_gate_rejects_flip_that_still_decodes(encoded):
    # Turn one payload codeword into its same-length sibling: the file still
    # decodes, with one symbol changed, so only the comparison can catch it.
    out, assignment, code = encoded
    b = json.loads((out / "report.json").read_text())["bit_breakdown"]
    start = b["header"] + b["centers"] + b["length_table"] + b["codeword_table"]
    words = list(code.codewords)
    symbol = next(s for s, w in enumerate(words) if w[:-1] + "10"[int(w[-1])] in words)
    first = int(np.flatnonzero(assignment == symbol)[0])
    lengths = np.asarray(code.lengths)[assignment[:first]]
    _flip(out / "model.nq", start + int(lengths.sum()) + len(words[symbol]) - 1)
    assert _rejected(out) == "mismatch"


def test_gate_rejects_bit_flipped_payload(encoded_job):
    b = json.loads((encoded_job / "report.json").read_text())["bit_breakdown"]
    start = b["header"] + b["centers"] + b["length_table"] + b["codeword_table"]
    nq = encoded_job / "model.nq"
    original = nq.read_bytes()
    for bit in range(start, start + b["payload"], 97):
        nq.write_bytes(original)
        _flip(nq, bit)
        assert _rejected(encoded_job), bit


def test_gate_rejects_mismatched_report_json(encoded_job):
    _, check = _report(encoded_job)
    path = encoded_job / "report.json"
    doc = json.loads(path.read_text())
    doc["ratio_exact"] *= 1.0001
    path.write_text(json.dumps(doc))
    with pytest.raises(GateError, match="ratio_exact"):
        check_encoded(encoded_job, check)


def test_gate_rejects_breakdown_not_matching_file_size(encoded_job):
    _, check = _report(encoded_job)
    check["bit_breakdown"]["padding"] += 8
    doc = json.loads((encoded_job / "report.json").read_text())
    doc["bit_breakdown"] = check["bit_breakdown"]
    (encoded_job / "report.json").write_text(json.dumps(doc))
    with pytest.raises(GateError, match="file size"):
        check_encoded(encoded_job, check)


def test_traced_cli_records_layers_and_counters(encoded_job, tmp_path):
    spans_path = tmp_path / "spans.json"
    src = Path(__import__("netquant").__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(HERE / "traced_cli.py"), str(spans_path),
         "report", "--model-nq", str(encoded_job / "model.nq")],
        env={"PYTHONPATH": str(src), "PATH": ""},
        capture_output=True,
        timeout=120,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans_path.read_text())
    m = job_layer_metrics([{**trace, "wall_s": 0.0}])
    assert m["cli.main.calls"] == 1
    assert m["cli.report.calls"] == 1
    assert m["coding.decode_assignments.calls"] == 1
    assert m["coding.decode_assignments.symbols"] == 6000  # payload plus index gaps
    assert m["cli.report.s"] >= m["coding.decode_assignments.s"]


def test_benchmark_json_format():
    import re

    from workloads import WORKLOADS

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    entries = spec["end_to_end"] + spec["per_layer"]
    assert len({e["name"] for e in entries}) == len(entries)
    for e in entries:
        assert name.fullmatch(e["name"]) and unit.fullmatch(e["unit"])
        assert e["better"] in ("lower", "higher")
    assert len(spec["per_layer"]) <= 128
    for e in spec["end_to_end"]:
        assert set(e) == {"name", "unit", "better", "bound"} and 0 < e["bound"] <= 0.25
    assert max(e["bound"] for e in spec["end_to_end"]) == next(
        e["bound"] for e in spec["end_to_end"] if e["name"] == "setup_s"
    )
