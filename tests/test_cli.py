"""End-to-end command-line pipeline: artifacts, determinism, exit codes."""

import argparse
import collections
import contextlib
import csv
import dataclasses
import hashlib
import inspect
import io
import json
import math
import pathlib
import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netquant import (
    cli,
    coding,
    decode_assignments,
    hessian_diag_exact,
    hessian_diag_gn,
    kmeans_sweep,
    load_model,
    params,
)

TRAIN_ARGS = [
    "--dataset", "synth",
    "--synth-samples", "600",
    "--synth-classes", "3",
    "--synth-features", "6",
    "--hidden", "16",
    "--steps", "250",
    "--seed", "1",
]


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("ref") / "model"
    assert cli.main(["train-ref", "--out-dir", str(path), *TRAIN_ARGS]) == 0
    return path


def run(args):
    return cli.main([str(a) for a in args])


def with_config(tmp_path, argv: list) -> list:
    """``argv`` with a trailing dict of keys moved into a ``--config`` file:
    the way to set a key that the command has no flag for."""
    if not (argv and isinstance(argv[-1], dict)):
        return argv
    path = tmp_path / "netquant.cfg"
    path.write_text("".join(f"{key}={value}\n" for key, value in argv[-1].items()))
    return [*argv[:-1], "--config", path]


class TestTrainRef:
    def test_model_dir_contents(self, model_dir):
        ps, cv, mask = load_model(model_dir)
        assert ps.n == 6 * 16 + 16 + 16 * 3 + 3
        assert cv is not None and cv.source.value == "adam_sqrt_moment"
        assert mask is None
        doc = json.loads((model_dir / "refnet.json").read_text())
        assert doc["layer_widths"] == [6, 16, 3]

    def test_default_hidden_width(self, tmp_path):
        out = tmp_path / "m"
        i = TRAIN_ARGS.index("--hidden")
        args = TRAIN_ARGS[:i] + TRAIN_ARGS[i + 2 :]
        assert run(["train-ref", "--out-dir", out, *args, "--steps", "5"]) == 0
        doc = json.loads((out / "refnet.json").read_text())
        assert doc["layer_widths"] == [6, 32, 3]
        assert load_model(out)[0].n == 6 * 32 + 32 + 32 * 3 + 3

    @pytest.mark.parametrize(
        "flags",
        [
            ["--hidden", "0"],
            ["--synth-samples", "2", "--synth-classes", "4"],
            ["--batch-size", "0"],
            ["--steps", "-3"],
            ["--lr=-0.01"],
            ["--lr", "0"],
            ["--lr", "nan"],
            ["--lr", "inf"],
            ["--eval-frac=-0.5"],
            ["--eval-frac", "0"],
            ["--eval-frac", "1"],
            ["--eval-frac", "1.5"],
            ["--seed", "-1"],
            ["--synth-noise", "nan"],
            ["--synth-scale", "inf"],
            ["--synth-scale=-inf"],
            ["--synth-spread", "nan"],
            ["--synth-spread", "inf"],
            ["--synth-spread", "1e308"],
            ["--synth-scale", "1e308"],
            ["--synth-noise", "1e308"],
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_bad_option_value_is_config_error(self, tmp_path, capfd, flags):
        out = tmp_path / "m"
        code = run(["train-ref", "--out-dir", out, *TRAIN_ARGS, *flags])
        assert code == cli.EXIT_CONFIG
        assert not (out / "refnet.json").exists()
        err = capfd.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    def test_diverging_training_prints_only_the_error(self, tmp_path, capfd):
        out = tmp_path / "m"
        code = run(["train-ref", "--out-dir", out, *TRAIN_ARGS, "--steps", "5", "--lr", "1e308"])
        assert code == cli.EXIT_NUMERIC
        assert capfd.readouterr().err == "error: training loss became non-finite at step 2\n"

    def test_zero_synthetic_noise_and_scale_are_accepted(self, tmp_path):
        out = tmp_path / "m"
        flags = ["--synth-noise", "0", "--synth-scale", "0", "--steps", "5"]
        assert run(["train-ref", "--out-dir", out, *TRAIN_ARGS, *flags]) == 0
        assert (out / "refnet.json").exists()

    @pytest.mark.parametrize(
        "text",
        ["1.5,0.2,0.3\n0,0.1,0.4\n", "1,abc,0.3\n0,0.1,0.4\n", "1\n0\n", "1,0.2\n0\n", ""],
        ids=["fractional-label", "non-numeric-feature", "one-column", "ragged", "empty"],
    )
    @pytest.mark.filterwarnings("error")
    def test_malformed_csv_is_config_error(self, tmp_path, capfd, text):
        """Only the error line reaches stderr, not numpy's warning about an
        empty file."""
        data = tmp_path / "bad.csv"
        data.write_text(text)
        out = tmp_path / "m"
        code = run(["train-ref", "--out-dir", out, "--dataset", data, "--steps", "5"])
        assert code == cli.EXIT_CONFIG
        assert not (out / "refnet.json").exists()
        err = capfd.readouterr().err
        assert err.startswith(f"error: bad dataset {data}: ") and err.count("\n") == 1

    def test_label_beyond_the_row_count_is_config_error(self, tmp_path, capfd):
        """One label of 100000 in 60 rows would build a net of 3.3M parameters."""
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, 60)
        labels[7] = 100000
        data = tmp_path / "bomb.csv"
        np.savetxt(data, np.column_stack([labels, rng.normal(size=(60, 2))]), delimiter=",")
        out = tmp_path / "m"
        code = run(["train-ref", "--out-dir", out, "--dataset", data, "--steps", "5"])
        assert code == cli.EXIT_CONFIG
        assert not out.exists()
        assert capfd.readouterr().err == (
            f"error: bad dataset {data}: label 100000 is not below the row count 60\n"
        )


class TestQuantize:
    def test_fixed_k8_avg_bits_exactly_three(self, model_dir, tmp_path):
        out = tmp_path / "q"
        assert run([
            "quantize", "--model-dir", model_dir, "--out-dir", out,
            "--quantizer", "kmeans", "--coding", "fixed", "--k", "8",
        ]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["avg_codeword_bits"] == 3.0
        assert report["k_effective"] == 8
        assert (out / "model.nq").is_file()
        assert (out / "config.txt").is_file()

    def test_ecsq_target_ratio_meets_budget(self, model_dir, tmp_path):
        out = tmp_path / "q"
        assert run([
            "quantize", "--model-dir", model_dir, "--out-dir", out,
            "--quantizer", "ecsq", "--coding", "huffman",
            "--target-ratio", "16", "--dataset", "synth",
            "--curvature", "gauss-newton",
        ]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["entropy_budget"] == pytest.approx(2.0)
        assert report["entropy_bits"] <= 2.05

    def test_one_cluster_reports_positive_zero_entropy(self, model_dir, tmp_path):
        """A ratio no code reaches leaves one cluster, whose entropy the
        report writes as ``0.0``, not ``-0.0``."""
        out = tmp_path / "q"
        assert run([
            "quantize", "--model-dir", model_dir, "--out-dir", out,
            "--quantizer", "ecsq", "--target-ratio", "1e300",
        ]) == 0
        text = (out / "report.json").read_text()
        assert '"entropy_bits": 0.0,' in text
        assert json.loads(text)["k_effective"] == 1

    def test_missing_dataset_no_partial_outputs(self, model_dir, tmp_path):
        out = tmp_path / "q"
        code = run([
            "quantize", "--model-dir", model_dir, "--out-dir", out,
            "--quantizer", "kmeans", "--k", "4",
            "--dataset", tmp_path / "nowhere.csv",
        ])
        assert code == cli.EXIT_CONFIG
        assert not out.exists()

    def test_ecsq_requires_exactly_one_knob(self, model_dir, tmp_path):
        base = [
            "quantize", "--model-dir", model_dir, "--out-dir", tmp_path / "q",
            "--quantizer", "ecsq",
        ]
        assert run(base + ["--k", "4", "--target-ratio", "16"]) == cli.EXIT_CONFIG
        assert run(base) == cli.EXIT_CONFIG

    @pytest.mark.parametrize(
        "flags",
        [
            ["--quantizer", "kmeans", "--k", "0"],
            ["--quantizer", "hw-kmeans", "--k", "-3"],
            ["--quantizer", "uniform", "--k", "0"],
            ["--quantizer", "ecsq", "--k", "0", "--lam", "0.1"],
            ["--quantizer", "kmeans", "--k", "4", "--prune-fraction", "1.5"],
            ["--quantizer", "kmeans", "--k", "4", "--prune-fraction", "-0.1"],
            ["--quantizer", "ecsq", "--target-ratio", "0"],
            ["--quantizer", "ecsq", "--target-ratio", "-4"],
            ["--quantizer", "ecsq", "--target-ratio", "1e-320"],
            ["--quantizer", "kmeans", "--k", "4", "--curvature", "gauss-newton",
             "--dataset", "synth", "--hessian-samples", "-5"],
            ["--quantizer", "ecsq", "--k", "8", "--lam", "-1"],
            ["--quantizer", "ecsq", "--k", "8", "--lam", "nan"],
            ["--quantizer", "ecsq", "--k", "8", "--lam", "inf"],
            ["--quantizer", "kmeans", "--k", "4", "--dataset", "synth",
             "--fine-tune", "true", "--ft-batch-size", "0"],
            ["--quantizer", "kmeans", "--k", "4", "--dataset", "synth",
             "--fine-tune", "true", "--ft-steps", "-5"],
            ["--quantizer", "kmeans", "--k", "4", "--dataset", "synth",
             "--fine-tune", "true", "--ft-lr=-1e-5"],
            ["--quantizer", "kmeans", "--k", "4", "--dataset", "synth",
             "--fine-tune", "true", "--ft-lr", "nan"],
            ["--quantizer", "uniform", "--k", "4", "--center-rule", "foo"],
            ["--quantizer", "ecsq", "--k", str(2**62), "--lam", "0.1"],
            ["--quantizer", "uniform", "--k", str(2**64)],
            ["--quantizer", "kmeans", "--k", "4", "--dataset", "synth",
             "--fine-tune", "true", "--seed", "-5"],
            ["--quantizer", "kmeans", "--k", "4", "--target-ratio", "-1"],
            ["--quantizer", "kmeans", "--k", "4", "--lam", "nan"],
            ["--quantizer", "kmeans", "--k", "4", "--center-rule", "foo"],
            # synthetic-dataset keys are checked without --dataset too
            ["--quantizer", "kmeans", "--k", "4", "--synth-seed=-1"],
            ["--quantizer", "kmeans", "--k", "4", {"synth_classes": 0}],
            ["--quantizer", "kmeans", "--k", "4", {"synth_samples": -3}],
            ["--quantizer", "kmeans", "--k", "4", {"synth_features": -2}],
            # rate options only ecsq reads, and ecsq reads --lam only with --k
            ["--quantizer", "kmeans", "--k", "8", "--target-ratio", "16"],
            ["--quantizer", "uniform", "--k", "8", "--lam", "0.5"],
            ["--quantizer", "ecsq", "--target-ratio", "16", "--lam", "0.5"],
            ["--quantizer", "hw-kmeans", "--k", "8", {"lam": 0.5}],
        ],
    )
    def test_bad_option_value_is_config_error(self, model_dir, tmp_path, flags):
        out = tmp_path / "q"
        flags = with_config(tmp_path, flags)
        code = run(["quantize", "--model-dir", model_dir, "--out-dir", out, *flags])
        assert code == cli.EXIT_CONFIG
        assert not (out / "model.nq").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["quantize", "--quantizer", "kmeans", "--k", "4"],
            ["quantize", "--quantizer", "kmeans", "--k", "4", "--curvature", "exact"],
            ["quantize", "--quantizer", "kmeans", "--k", "4", "--fine-tune", "true"],
            ["sweep", "--quantizers", "kmeans", "--k-list", "4"],
            ["quantize", "--quantizer", "kmeans", "--k", "4", "--curvature", "gauss-newton"],
        ],
        ids=["quantize", "exact-curvature", "fine-tune", "sweep", "gauss-newton-curvature"],
    )
    def test_labels_beyond_model_outputs_are_config_error(
        self, model_dir, tmp_path, args
    ):
        data = tmp_path / "wide.csv"  # labels 0..3 for a 3-class net
        rng = np.random.default_rng(0)
        np.savetxt(data, [[c, *rng.normal(size=6)] for c in range(4) for _ in range(5)],
                   delimiter=",")  # fmt: skip
        out = tmp_path / "out"
        code = run([*args, "--model-dir", model_dir, "--dataset", data, "--out-dir", out])
        assert code == cli.EXIT_CONFIG
        assert not out.exists()

    def test_csv_of_another_feature_width_is_config_error(self, model_dir, tmp_path):
        data = tmp_path / "narrow.csv"  # 5 features for a net with 6 inputs
        rng = np.random.default_rng(0)
        np.savetxt(data, [[c, *rng.normal(size=5)] for c in range(3) for _ in range(5)],
                   delimiter=",")  # fmt: skip
        out = tmp_path / "out"
        code = run([
            "quantize", "--quantizer", "kmeans", "--k", "4", "--model-dir", model_dir,
            "--dataset", data, "--out-dir", out,
        ])  # fmt: skip
        assert code == cli.EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("quantizer", ["uniform", "kmeans", "hw-kmeans"])
    def test_huge_k_allocates_per_value_not_per_cluster(
        self, model_dir, tmp_path, quantizer
    ):
        """A k far above the parameter count leaves every value its own
        cluster at most; nothing is sized by k itself."""
        out = tmp_path / "q"
        assert run([
            "quantize", "--model-dir", model_dir, "--out-dir", out,
            "--quantizer", quantizer, "--k", str(2**62),
        ]) == 0
        report = json.loads((out / "report.json").read_text())
        n = load_model(model_dir)[0].n
        assert 1 < report["k_effective"] <= n
        decoded = decode_assignments((out / "model.nq").read_bytes())
        assert decoded.codebook.k == report["k_effective"]

    def test_missing_model_dir_is_io_error(self, tmp_path):
        code = run([
            "quantize", "--model-dir", tmp_path / "missing", "--out-dir",
            tmp_path / "q", "--quantizer", "kmeans", "--k", "4",
        ])
        assert code == cli.EXIT_IO

    def test_artifacts_byte_identical_across_reruns(self, model_dir, tmp_path):
        args = [
            "quantize", "--model-dir", model_dir, "--quantizer", "hw-kmeans",
            "--coding", "huffman", "--k", "6", "--dataset", "synth",
            "--curvature", "gauss-newton", "--seed", "3",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out-dir", out1]) == 0
        assert run(args + ["--out-dir", out2]) == 0
        assert (out1 / "model.nq").read_bytes() == (out2 / "model.nq").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_report_numbers_recomputable_from_artifact(self, model_dir, tmp_path):
        out = tmp_path / "q"
        assert run([
            "quantize", "--model-dir", model_dir, "--out-dir", out,
            "--quantizer", "uniform", "--coding", "huffman", "--k", "12",
        ]) == 0
        report = json.loads((out / "report.json").read_text())
        decoded = decode_assignments((out / "model.nq").read_bytes())
        from netquant import build_huffman, compression_ratio_exact, entropy_bits

        counts = decoded.codebook.counts
        assert report["entropy_bits"] == pytest.approx(entropy_bits(counts))
        assert report["avg_codeword_bits"] == pytest.approx(
            decoded.code.avg_bits(counts)
        )
        assert report["ratio_exact"] == pytest.approx(
            compression_ratio_exact(counts, decoded.code)
        )


class TestPrunedPipeline:
    def test_prune_quantize_decode_roundtrip(self, model_dir, tmp_path):
        out = tmp_path / "q"
        assert run([
            "quantize", "--model-dir", model_dir, "--out-dir", out,
            "--quantizer", "uniform", "--coding", "huffman", "--k", "8",
            "--prune-fraction", "0.8",
        ]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pruned"] is True
        assert report["bit_breakdown"]["index_section"] > 0
        decoded = decode_assignments((out / "model.nq").read_bytes())
        ps, _, _ = load_model(model_dir)
        assert decoded.total_params == ps.n
        assert decoded.positions.size == report["n_params"]


class TestPrepareInputs:
    """A pruned model directory compacts to its survivors, in order."""

    @staticmethod
    def _inputs(tmp_path, values, kept):
        model = tmp_path / "pruned"
        curvature = params.CurvatureDiag(
            np.arange(1, len(values) + 1), params.CurvatureSource.ADAM_SQRT_MOMENT
        )
        ps = params.ParamSet.from_flat(values)
        params.save_model(ps, model, curvature, params.PruneMask(kept))
        args = cli._build_parser().parse_args([
            "quantize", "--model-dir", str(model), "--out-dir", str(tmp_path / "q"),
            "--curvature", "adam",
        ])
        return ps, cli._prepare_inputs(cli._resolve_config(args))

    def test_definition(self, tmp_path):
        _, (inputs, values, curvature) = self._inputs(
            tmp_path, [1.0, 2.0, 3.0], [True, False, True]
        )
        assert values.dtype == np.float64
        assert np.array_equal(values, [1.0, 3.0])
        assert np.array_equal(curvature.values, np.float32([1.0, 3.0]))
        assert np.array_equal(inputs.positions, [0, 2])
        assert inputs.total_params == 3

    def test_all_kept_is_identity(self, tmp_path):
        ps, (inputs, values, _) = self._inputs(tmp_path, [1.0, 2.0, 3.0], [True, True, True])
        assert np.array_equal(values, ps.values)
        assert np.array_equal(inputs.positions, [0, 1, 2])

    def test_popcount_and_monotone_positions(self, tmp_path):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 200))
            kept = rng.random(n) > 0.5
            kept[int(rng.integers(n))] = True
            ps, (inputs, values, curvature) = self._inputs(tmp_path, rng.normal(size=n), kept)
            assert values.size == int(np.count_nonzero(kept))
            assert curvature.n == values.size
            assert np.all(np.diff(inputs.positions.astype(np.int64)) > 0)
            assert np.array_equal(values, ps.values[kept])

    @pytest.mark.parametrize(
        "source, diag",
        [("exact", hessian_diag_exact), ("gauss-newton", hessian_diag_gn)],
        ids=["exact", "gauss-newton"],
    )
    def test_data_curvature_is_masked_full_vector_at_positions(
        self, model_dir, tmp_path, source, diag
    ):
        """On a pruned directory, a data curvature is the one of the pruned
        net, the full vector with pruned slots zeroed, read at the kept
        positions; on an unpruned one it is the full vector's, and there are
        no positions."""
        pruned = tmp_path / "pruned"
        assert run([
            "prune", "--model-dir", model_dir, "--out-dir", pruned,
            "--prune-fraction", "0.5",
        ]) == 0
        for directory in (pruned, model_dir):
            args = cli._build_parser().parse_args([
                "quantize", "--model-dir", str(directory), "--out-dir", str(tmp_path / "q"),
                "--curvature", source, "--dataset", "synth",
            ])
            inputs, _, curvature = cli._prepare_inputs(cli._resolve_config(args))
            ps, _, mask = load_model(directory)
            kept = np.ones(ps.n, dtype=bool) if mask is None else mask.kept
            full = diag(inputs.spec, ps.as_f64() * kept, *inputs.dataset.split("hessian"))
            assert curvature.source == full.source
            if mask is None:
                assert inputs.positions is None
                assert np.array_equal(curvature.values, full.values)
            else:
                assert np.array_equal(inputs.positions, np.flatnonzero(mask.kept))
                assert np.array_equal(curvature.values, full.values[inputs.positions])

    @pytest.mark.parametrize(
        "argv, reads",
        [
            (["quantize", "--quantizer", "uniform"], False),
            (["quantize", "--quantizer", "kmeans"], False),
            (["sweep", "--quantizers", "kmeans,uniform"], False),
            (["quantize", "--quantizer", "uniform", "--center-rule", "hessian_weighted_mean"], True),
            (["quantize", "--quantizer", "hw-kmeans"], True),
            (["quantize", "--quantizer", "ecsq"], True),
            (["sweep", "--quantizers", "kmeans,hw-kmeans"], True),
        ],
    )
    def test_identity_curvature_only_where_read(self, tmp_path, argv, reads):
        """Identity curvature is None for every quantizer, so no array is
        built; a quantizer that ``reads`` it weights by ones at the kept
        length."""
        model = tmp_path / "pruned"
        ps = params.ParamSet.from_flat([1.0, 2.0, 3.0, 4.0])
        params.save_model(ps, model, None, params.PruneMask([True, False, True, True]))
        args = cli._build_parser().parse_args(
            [*argv, "--model-dir", str(model), "--out-dir", str(tmp_path / "q")]
        )
        _, values, curvature = cli._prepare_inputs(cli._resolve_config(args))
        assert curvature is None
        if reads:
            unit = cli.quantizers._curvature64(curvature, values.size)
            assert np.array_equal(unit, np.ones(values.size))


class TestSweep:
    def test_row_count_and_determinism(self, model_dir, tmp_path):
        args = [
            "sweep", "--model-dir", model_dir,
            "--quantizers", "kmeans,hw-kmeans", "--k-list", "2,4,8,16",
            "--coding", "huffman",
        ]
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run(args + ["--out-dir", out1]) == 0
        assert run(args + ["--out-dir", out2]) == 0
        lines = (out1 / "sweep.csv").read_text().splitlines()
        assert lines[0] == "# netquant-sweep-csv v1"
        assert len(lines) == 2 + 8  # comment, header, 2 quantizers x 4 points
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_ecsq_avg_bits_non_increasing_in_lam(self, model_dir, tmp_path):
        out = tmp_path / "s"
        assert run([
            "sweep", "--model-dir", model_dir, "--out-dir", out,
            "--quantizers", "ecsq", "--k", "16",
            "--lambda-list", "0,1e-7,1e-5,1e-3,1e-1",
            "--coding", "huffman", "--curvature", "identity",
        ]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[2:]
        avg_bits = [float(r.split(",")[6]) for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(avg_bits[1:], avg_bits))

    def test_failed_point_recorded_and_sweep_continues(self, model_dir, tmp_path):
        out = tmp_path / "s"
        assert run([
            "sweep", "--model-dir", model_dir, "--out-dir", out,
            "--quantizers", "hw-kmeans", "--k-list", "0,4",
            "--coding", "fixed",
        ]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[2:]
        assert rows[0].split(",")[-1].startswith("error:")
        assert rows[1].split(",")[-1] == "ok"

    def test_empty_quantizer_item_is_dropped(self, model_dir, tmp_path):
        out = tmp_path / "s"
        assert run([
            "sweep", "--model-dir", model_dir, "--out-dir", out,
            "--quantizers", "kmeans,", "--k-list", "4",
        ]) == 0
        rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()[1:]))
        assert [(r["quantizer"], r["status"]) for r in rows] == [("kmeans", "ok")]

    def test_kmeans_rows_match_quantize(self, model_dir, tmp_path):
        ks = [8, 3, 500, 3, 1]  # unsorted, repeated, above the distinct count
        common = ["--model-dir", model_dir, "--curvature", "adam", "--coding", "huffman"]
        assert run([
            "sweep", *common, "--out-dir", tmp_path / "s",
            "--quantizers", "kmeans,hw-kmeans", "--k-list", ",".join(map(str, ks)),
        ]) == 0
        text = (tmp_path / "s" / "sweep.csv").read_text().splitlines()[1:]
        rows = list(csv.DictReader(text))
        assert [(r["quantizer"], int(r["knob"])) for r in rows] == [
            (q, k) for q in ("kmeans", "hw-kmeans") for k in ks
        ]
        for row in rows:
            out = tmp_path / f"q-{row['quantizer']}-{row['knob']}"
            assert run([
                "quantize", *common, "--out-dir", out,
                "--quantizer", row["quantizer"], "--k", row["knob"],
            ]) == 0
            report = json.loads((out / "report.json").read_text())
            assert row["status"] == "ok"
            assert int(row["k_effective"]) == report["k_effective"]
            for key in ("ratio_exact", "entropy_bits"):
                assert row[key] == cli._csv_number(report[key])

    def test_rows_match_quantize(self, model_dir, tmp_path):
        """Each row is the quantize run with that row's settings; ecsq rows
        take k=8 without --k and ignore a configured target_ratio."""
        common = [
            "--model-dir", model_dir, "--dataset", "synth", "--curvature", "adam",
            "--coding", "huffman",
        ]  # fmt: skip
        assert run(with_config(tmp_path, [
            "sweep", *common, "--out-dir", tmp_path / "s",
            "--quantizers", "kmeans,hw-kmeans,uniform,ecsq", "--k-list", "3,8",
            "--lambda-list", "0,1e-3", {"target_ratio": 4},
        ])) == 0  # fmt: skip
        text = (tmp_path / "s" / "sweep.csv").read_text().splitlines()[1:]
        rows = list(csv.DictReader(text))
        assert [r["quantizer"] for r in rows] == [
            q for q in ("kmeans", "hw-kmeans", "uniform", "ecsq") for _ in range(2)
        ]
        columns = {
            "entropy_bits": "entropy_bits",
            "avg_codeword_bits": "avg_codeword_bits",
            "ratio_exact": "ratio_exact",
            "accuracy_pre_ft": "accuracy_pre_finetune",
        }
        for row in rows:
            if row["quantizer"] == "ecsq":
                knob = ["--k", "8", "--lam", row["knob"]]
            else:
                knob = ["--k", row["knob"]]
            out = tmp_path / f"q-{row['index']}"
            assert run([
                "quantize", *common, "--out-dir", out, "--quantizer", row["quantizer"],
                *knob,
            ]) == 0
            report = json.loads((out / "report.json").read_text())
            assert row["status"] == "ok"
            for column, key in columns.items():
                assert row[column] == cli._csv_number(report[key]), (row["index"], column)

    def test_huge_k_rows_match_k_equal_to_n(self, model_dir, tmp_path):
        n = load_model(model_dir)[0].n
        rows = {}
        for k in (2**62, n):
            out = tmp_path / f"s{k}"
            assert run([
                "sweep", "--model-dir", model_dir, "--out-dir", out,
                "--quantizers", "kmeans,hw-kmeans,uniform", "--k-list", str(k),
            ]) == 0
            text = (out / "sweep.csv").read_text().splitlines()[1:]
            rows[k] = [
                {key: r[key] for key in ("quantizer", "status", "k_effective", "ratio_exact")}
                for r in csv.DictReader(text)
            ]
        assert [r["status"] for r in rows[2**62]] == ["ok"] * 3
        assert rows[2**62][:2] == rows[n][:2]  # k-means: each value its own cluster

    def test_solver_error_marks_every_row_of_its_quantizer(
        self, model_dir, tmp_path, monkeypatch
    ):
        calls = []

        def failing_for_hw(values, curvature, ks):
            calls.append(list(ks))
            if curvature is not None:
                raise ValueError("solver failed")
            return kmeans_sweep(values, curvature, ks)

        monkeypatch.setattr(cli.quantizers, "kmeans_sweep", failing_for_hw)
        out = tmp_path / "s"
        assert run([
            "sweep", "--model-dir", model_dir, "--out-dir", out,
            "--quantizers", "kmeans,hw-kmeans", "--k-list", "0,4,8",
            "--curvature", "adam",
        ]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[2:]
        assert [r.split(",")[-1] for r in rows] == [
            "error:ConfigError", "ok", "ok",
            "error:ConfigError", "error:ValueError", "error:ValueError",
        ]  # fmt: skip
        assert calls == [[4, 8], [4, 8]]  # one solve per quantizer

    @pytest.mark.parametrize(
        "flags",
        [
            ["--quantizers", "uniform", "--k-list", "4", "--center-rule", "foo"],
            ["--quantizers", "ecsq", "--lambda-list", "0,0.1", "--k", "0"],
            ["--quantizers", "kmeans", "--k-list", "4", "--fine-tune", "true"],
            ["--quantizers", "ecsq", "--lambda-list", "0,0.1", "--k", str(2**62)],
            ["--quantizers", "kmeans", "--k-list", "4", "--seed", "-5"],
            ["--quantizers", "kmeans", "--k-list", "4", {"target_ratio": -2}],
            # --quantizers is the one list of swept quantizers
            ["--k-list", "4"],
            ["--quantizers", ",", "--k-list", "4"],
        ],
    )
    def test_bad_option_value_is_config_error(self, model_dir, tmp_path, flags):
        out = tmp_path / "s"
        flags = with_config(tmp_path, flags)
        code = run(["sweep", "--model-dir", model_dir, "--out-dir", out, *flags])
        assert code == cli.EXIT_CONFIG
        assert not (out / "sweep.csv").exists()


class TestDatasetNeedsNet:
    """``--dataset`` is scored on the net of ``refnet.json``, so every
    command that reads a model directory refuses it without that file."""

    @pytest.fixture(scope="class")
    def bare(self, model_dir, tmp_path_factory):
        path = tmp_path_factory.mktemp("bare") / "model"
        shutil.copytree(model_dir, path)
        (path / "refnet.json").unlink()
        out = path.parent / "q"
        assert run([
            "quantize", "--model-dir", path, "--out-dir", out, "--quantizer", "kmeans",
            "--k", "4",
        ]) == 0  # fmt: skip
        return path, out / "model.nq"

    @pytest.mark.parametrize("command", ["quantize", "sweep", "report"])
    def test_dataset_without_refnet_json_is_config_error(self, bare, tmp_path, capfd, command):
        path, nq = bare
        out = tmp_path / "out"
        args = {
            "quantize": ["--quantizer", "kmeans", "--k", "4", "--out-dir", out],
            "sweep": ["--quantizers", "kmeans", "--k-list", "4", "--out-dir", out],
            "report": ["--model-nq", nq, "--out", out / "r.json"],
        }[command]
        code = run([command, *args, "--model-dir", path, "--dataset", "synth"])
        assert code == cli.EXIT_CONFIG
        assert capfd.readouterr().err == f"error: --dataset needs refnet.json in {path}\n"
        assert not out.exists()


class TestReport:
    def test_fixed_k4_n1000_hand_ratio(self, tmp_path):
        from netquant import Codebook, encode_assignments, fixed_length_code

        assignment = np.tile(np.arange(4), 250)
        cb = Codebook(np.arange(4.0), np.bincount(assignment))
        em = encode_assignments(assignment, cb, fixed_length_code(4))
        nq_path = tmp_path / "m.nq"
        nq_path.write_bytes(em.data)
        out = tmp_path / "r.json"
        assert run(["report", "--model-nq", nq_path, "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["ratio_exact"] == pytest.approx(32000 / 2136)
        assert doc["avg_codeword_bits"] == 2.0

    def test_decode_only_accuracy_absent(self, model_dir, tmp_path):
        out = tmp_path / "q"
        assert run([
            "quantize", "--model-dir", model_dir, "--out-dir", out,
            "--quantizer", "kmeans", "--coding", "fixed", "--k", "4",
        ]) == 0
        rpt = tmp_path / "r.json"
        assert run(["report", "--model-nq", out / "model.nq", "--out", rpt]) == 0
        doc = json.loads(rpt.read_text())
        assert doc["accuracy"] is None

    def test_accuracy_present_with_dataset(self, model_dir, tmp_path):
        """report scores model.nq with the function quantize scored it with,
        on the same float32 centers, so the accuracies are equal."""
        for name, flags, key in [
            ("plain", [], "accuracy_pre_finetune"),
            ("pruned-tuned", ["--prune-fraction", "0.5", "--fine-tune", "true",
                              "--ft-steps", "20"], "accuracy_post_finetune"),
        ]:  # fmt: skip
            out = tmp_path / name
            assert run([
                "quantize", "--model-dir", model_dir, "--out-dir", out,
                "--quantizer", "kmeans", "--coding", "fixed", "--k", "8",
                "--dataset", "synth", *flags,
            ]) == 0
            rpt = out / "r.json"
            assert run([
                "report", "--model-nq", out / "model.nq",
                "--model-dir", model_dir, "--dataset", "synth", "--out", rpt,
            ]) == 0
            doc = json.loads(rpt.read_text())
            report = json.loads((out / "report.json").read_text())
            assert report[key] is not None
            assert doc["accuracy"] == report[key]

    def test_model_dir_of_another_size_is_config_error(self, model_dir, tmp_path):
        out = tmp_path / "q"
        assert run([
            "quantize", "--model-dir", model_dir, "--out-dir", out,
            "--quantizer", "kmeans", "--k", "4",
        ]) == 0
        other = tmp_path / "other"
        i = TRAIN_ARGS.index("--hidden")
        args = TRAIN_ARGS[:i] + ["--hidden", "8"] + TRAIN_ARGS[i + 2 :]
        assert run(["train-ref", "--out-dir", other, *args, "--steps", "5"]) == 0
        rpt = tmp_path / "r.json"
        assert run([
            "report", "--model-nq", out / "model.nq",
            "--model-dir", other, "--dataset", "synth", "--out", rpt,
        ]) == cli.EXIT_CONFIG
        assert not rpt.exists()

    @pytest.mark.parametrize(
        "half",
        [["--dataset", "synth"], ["--model-dir", "MODEL"], ["--dataset", "/nonexistent.csv"]],
    )
    def test_half_an_accuracy_request_is_config_error(self, model_dir, tmp_path, half):
        out = tmp_path / "q"
        assert run([
            "quantize", "--model-dir", model_dir, "--out-dir", out,
            "--quantizer", "kmeans", "--k", "4",
        ]) == 0
        half = [model_dir if a == "MODEL" else a for a in half]
        rpt = tmp_path / "r.json"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = run(["report", "--model-nq", out / "model.nq", *half, "--out", rpt])
        assert code == cli.EXIT_CONFIG
        assert stdout.getvalue() == ""
        assert not rpt.exists()

    def test_out_into_a_new_directory(self, model_dir, tmp_path, capsys):
        out = tmp_path / "q"
        assert run([
            "quantize", "--model-dir", model_dir, "--out-dir", out,
            "--quantizer", "kmeans", "--k", "4",
        ]) == 0
        rpt = tmp_path / "new" / "deeper" / "check.json"
        capsys.readouterr()
        assert run(["report", "--model-nq", out / "model.nq", "--out", rpt]) == 0
        assert rpt.read_text() == capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--coding", "fixed"],
            ["--coding", "huffman"],
            ["--coding", "fixed", "--prune-fraction", "0.5"],
            ["--coding", "huffman", "--prune-fraction", "0.5"],
            ["--coding", "huffman", "--prune-fraction", "0.5", "--dataset", "synth",
             "--fine-tune", "true", "--ft-steps", "20"],
        ],
    )  # fmt: skip
    def test_document_matches_quantize_report(self, model_dir, tmp_path, flags):
        """Every key report derives from model.nq has the value quantize wrote."""
        out = tmp_path / "q"
        assert run([
            "quantize", "--model-dir", model_dir, "--out-dir", out,
            "--quantizer", "kmeans", "--k", "6", *flags,
        ]) == 0
        rpt = tmp_path / "r.json"
        assert run(["report", "--model-nq", out / "model.nq", "--out", rpt]) == 0
        doc = json.loads(rpt.read_text())
        written = json.loads((out / "report.json").read_text())
        assert doc.pop("accuracy") is None
        assert set(doc) == {f.name for f in dataclasses.fields(coding.CompressionReport)}
        assert doc == {key: written[key] for key in doc}
        assert written["pruned"] == (written["n_params"] < written["n_params_total"])
        assert not {"ratio_measured", "ratio_entropy_overhead", "ratio_entropy_approx"} & set(written)

    def test_undecodable_file_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.nq"
        bad.write_bytes(b"not a model")
        assert run(["report", "--model-nq", bad]) == cli.EXIT_IO


class TestAtomicOutputs:
    def test_failed_replace_keeps_old_file_and_leaves_no_temporary(
        self, tmp_path, monkeypatch
    ):
        out = tmp_path / "q"
        cli._write_outputs(out, {"model.nq": b"old model", "report.json": "old\n"})
        replaced = []

        def replace_then_fail(src, dst):
            if replaced:
                raise OSError("disk full")
            replaced.append(dst)
            return os_replace(src, dst)

        os_replace = params.os.replace
        monkeypatch.setattr(params.os, "replace", replace_then_fail)
        with pytest.raises(OSError, match="disk full"):
            cli._write_outputs(out, {"model.nq": b"new model", "report.json": "new\n"})
        assert (out / "model.nq").read_bytes() == b"new model"
        assert (out / "report.json").read_text() == "old\n"
        assert sorted(p.name for p in out.iterdir()) == ["model.nq", "report.json"]


class TestConfigFile:
    def test_config_file_with_flag_override(self, model_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("quantizer=kmeans\ncoding=fixed\nk=4\n# comment\n")
        out = tmp_path / "q"
        assert run([
            "quantize", "--config", cfg, "--model-dir", model_dir,
            "--out-dir", out, "--k", "8",
        ]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["k_effective"] == 8  # flag beats file
        assert "k=8" in (out / "config.txt").read_text()

    def test_unknown_key_rejected(self, model_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("quantizzzer=kmeans\n")
        assert run([
            "quantize", "--config", cfg, "--model-dir", model_dir,
            "--out-dir", tmp_path / "q", "--k", "4",
        ]) == cli.EXIT_CONFIG

    def test_config_file_not_utf8_is_config_error(self, model_dir, tmp_path, capfd):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"k=4\n\xff\n")
        out = tmp_path / "q"
        assert run([
            "quantize", "--config", cfg, "--model-dir", model_dir, "--out-dir", out,
        ]) == cli.EXIT_CONFIG
        err = capfd.readouterr().err
        assert err.startswith(f"error: cannot read config file {cfg}: ") and err.count("\n") == 1
        assert not out.exists()

    def test_removed_init_key_rejected(self, model_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("init=linspace\n")
        assert run([
            "quantize", "--config", cfg, "--model-dir", model_dir,
            "--out-dir", tmp_path / "q", "--quantizer", "kmeans", "--k", "4",
        ]) == cli.EXIT_CONFIG


class TestConfigRoundTrip:
    """A run's config.txt reproduces its primary artifacts byte for byte."""

    @pytest.mark.parametrize(
        "args, artifacts",
        [
            (["train-ref", *TRAIN_ARGS, "--steps", "20", "--lr", "0.02",
              "--activation", "tanh", "--synth-spread", "2.5"],
             ["params.f32le", "refnet.json"]),
            (["quantize", "--quantizer", "uniform", "--k", "6",
              "--center-rule", "hessian_weighted_mean", "--curvature", "gauss-newton",
              "--dataset", "synth", "--prune-fraction", "0.3", "--fine-tune", "true",
              "--ft-steps", "5", "--seed", "2"],
             ["model.nq", "report.json"]),
            (["sweep", "--quantizers", "kmeans,ecsq", "--k-list", "3,5",
              "--lambda-list", "0,1e-4", "--k", "6", "--coding", "fixed"],
             ["sweep.csv"]),
        ],
        ids=["train-ref", "quantize", "sweep"],
    )  # fmt: skip
    def test_rerun_from_config_txt(self, model_dir, tmp_path, args, artifacts):
        if args[0] != "train-ref":
            args = [*args, "--model-dir", model_dir]
        first, second = tmp_path / "a", tmp_path / "b"
        assert run([*args, "--out-dir", first]) == 0
        config = first / "config.txt"
        assert run([args[0], "--config", config, "--out-dir", second]) == 0
        for name in artifacts:
            assert (second / name).read_bytes() == (first / name).read_bytes(), name

    @pytest.mark.parametrize(
        "key", [k for k, (default, _) in cli.OPTION_TABLE.items() if default is not None]
    )
    def test_default_parses_back_from_config_text(self, key):
        default, _ = cli.OPTION_TABLE[key]
        line = cli._config_text({key: default}).splitlines()[1]
        assert line.startswith(f"{key}=")
        assert cli._option(key, line.partition("=")[2]) == default


# The flags each command took before it took only the keys it reads, and
# sweep's --quantizer, which --quantizers replaced.
_SHAPE_KEYS = ["synth_samples", "synth_classes", "synth_features",
               "synth_noise", "synth_spread", "synth_scale"]  # fmt: skip
REMOVED_FLAGS = [
    (command, key)
    for command, keys in {
        "train-ref": ["model_dir"],
        "prune": ["dataset", "seed", "eval_frac", *_SHAPE_KEYS, "synth_seed"],
        "quantize": _SHAPE_KEYS,
        "sweep": ["target_ratio", "lam", "quantizer", *_SHAPE_KEYS],
        "report": ["seed", "out_dir", *_SHAPE_KEYS],
    }.items()
    for key in keys
]


class TestCommands:
    def test_curvature_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["curvature", "--curvature", "exact"])
        assert exc.value.code == cli.EXIT_CONFIG
        assert "invalid choice: 'curvature'" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            run(["--help"])
        assert "{train-ref,prune,quantize,sweep,report}" in capsys.readouterr().out

    def test_flags_are_the_table_keys(self):
        """Each command takes a flag for each key it reads, and ``--config``."""
        flags = _parser_keys()
        assert flags == {name: list(keys) for name, (_, keys) in cli.COMMANDS.items()}
        counts = {name: len(keys) for name, keys in flags.items()}
        assert counts == {"train-ref": 18, "prune": 3, "quantize": 19, "sweep": 19, "report": 6}
        assert all(set(keys) <= cli.OPTION_TABLE.keys() for keys in flags.values())

    @pytest.fixture(scope="class")
    def encoded(self, model_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("commands-q")
        assert run(["quantize", "--model-dir", model_dir, "--out-dir", out, "--k", "4"]) == 0
        return out / "model.nq"

    @pytest.mark.parametrize(
        "command, key", REMOVED_FLAGS, ids=[f"{c}-{k}" for c, k in REMOVED_FLAGS]
    )
    def test_flag_the_command_does_not_read_is_refused(
        self, model_dir, encoded, tmp_path, capsys, command, key
    ):
        """With a value the key's domain takes, as a command that ignored
        the flag ran to the end."""
        out = tmp_path / "out"
        value = {
            "dataset": "synth", "out_dir": tmp_path / "zz", "model_dir": tmp_path / "nowhere",
            "target_ratio": 4, "lam": 0.5,
        }.get(key, cli.OPTION_TABLE[key][0])  # fmt: skip
        flag = f"--{key.replace('_', '-')}"
        base = TestOptionFuzz._base(command, model_dir, encoded, out)
        with pytest.raises(SystemExit) as exc:
            run([command, *base, flag, value])
        assert exc.value.code == cli.EXIT_CONFIG
        assert f"error: unrecognized arguments: {flag} {value}\n" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "zz").exists()

    def test_config_key_is_checked_where_no_flag_reads_it(self, model_dir, tmp_path, capfd):
        out = tmp_path / "pruned"
        argv = ["prune", "--model-dir", model_dir, "--out-dir", out, "--prune-fraction", "0.5"]
        assert run(with_config(tmp_path, [*argv, {"synth_samples": 0}])) == cli.EXIT_CONFIG
        assert capfd.readouterr().err.startswith("error: config key synth_samples: ")
        assert not out.exists()

    def test_stored_dataset_overrides_configured_shape(self, model_dir, tmp_path):
        """``--dataset synth`` rebuilds the dataset that refnet.json stores,
        so the config file's shape keys change no artifact."""
        shape = {"synth_samples": 100, "synth_classes": 2, "synth_features": 9,
                 "synth_noise": 5, "synth_spread": 1, "synth_scale": 2}  # fmt: skip
        argv = ["quantize", "--model-dir", model_dir, "--quantizer", "hw-kmeans", "--k", "4",
                "--dataset", "synth", "--curvature", "gauss-newton"]  # fmt: skip
        assert run([*argv, "--out-dir", tmp_path / "a"]) == 0
        assert run(with_config(tmp_path, [*argv, "--out-dir", tmp_path / "b", shape])) == 0
        for name in ("model.nq", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert "synth_features=9\n" in (tmp_path / "b" / "config.txt").read_text()

    def test_readme_names_each_commands_flags(self):
        """README has one line per command that lists its flags in table order."""
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        lines = re.findall(r"^- `netquant ([a-z-]+)`: (.*)$", readme, re.MULTILINE)
        listed = {name: re.findall(r"`--([a-z-]+)`", flags) for name, flags in lines}
        assert listed == {
            name: [key.replace("_", "-") for key in keys]
            for name, (_, keys) in cli.COMMANDS.items()
        }


class TestPruneCommand:
    def test_mask_written(self, model_dir, tmp_path):
        out = tmp_path / "pruned"
        assert run([
            "prune", "--model-dir", model_dir, "--out-dir", out,
            "--prune-fraction", "0.5",
        ]) == 0
        ps, _, mask = load_model(out)
        assert mask is not None
        assert mask.n_kept == ps.n - int(0.5 * ps.n)

    @pytest.mark.parametrize("fraction", ["0", "1", "-0.1", "nan"])
    def test_fraction_outside_open_unit_interval_is_config_error(
        self, model_dir, tmp_path, fraction
    ):
        out = tmp_path / "pruned"
        code = run([
            "prune", "--model-dir", model_dir, "--out-dir", out,
            f"--prune-fraction={fraction}",
        ])
        assert code == cli.EXIT_CONFIG
        assert not out.exists()


def _parser_keys() -> dict:
    """Command -> the keys of the flags its parser takes besides ``--config``."""
    sub = next(
        a for a in cli._build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )  # fmt: skip
    return {
        name: [a.dest for a in p._actions if a.dest not in ("help", "config")]
        for name, p in sub.choices.items()
    }


def _fuzz_keys() -> dict:
    """Command -> the option keys it takes, path keys left out: an empty path
    names the working directory."""
    paths = {"model_dir", "out_dir", "dataset", "model_nq", "out"}
    return {
        name: [key for key in keys if key in cli.OPTION_TABLE.keys() - paths]
        for name, keys in _parser_keys().items()
    }


FUZZ_KEYS = _fuzz_keys()
BOUNDARY = ["-1", "0", "nan", "inf", "-inf", "1e308", "", "abc"]
# Keys that size a loop or an allocation get no huge values.
SIZING_KEYS = {
    "steps", "ft_steps", "synth_samples", "synth_features", "synth_classes",
    "hidden", "batch_size", "ft_batch_size",
}  # fmt: skip
HUGE_KEYS = {
    "k", "seed", "synth_seed", "hessian_samples", "target_ratio", "lam",
    "prune_fraction", "lr", "ft_lr", "synth_noise", "synth_spread", "synth_scale",
    "eval_frac",
}  # fmt: skip


def _just_below(parse) -> str | None:
    """The value just below the lower bound of a parser that ``_int_from`` or
    ``_float_in`` built, or None for a parser without a lower bound."""
    if not inspect.isfunction(parse):
        return None
    bound = inspect.getclosurevars(parse).nonlocals
    low = bound.get("low")
    if low is None or low == -math.inf:
        return None
    if "closed_low" not in bound:  # an integer parser
        return str(low - 1)
    return repr(float(np.nextafter(low, -math.inf)) if bound["closed_low"] else low)


BELOW_BOUND = [
    (command, key, value)
    for command, keys in sorted(FUZZ_KEYS.items())
    for key in keys
    if (value := _just_below(cli.OPTION_TABLE[key][1])) is not None
]


def _boundary_values(key: str) -> list:
    values = [v for v in BOUNDARY if not (key in SIZING_KEYS and v == "1e308")]
    if key in HUGE_KEYS:
        values.append(str(2**63))
    return values


class TestOptionFuzz:
    """Boundary values for one or two keys of any command end in a documented
    exit code, and a failed command leaves its output directory empty."""

    @pytest.fixture(scope="class")
    def encoded(self, model_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("fuzz-q")
        assert run([
            "quantize", "--model-dir", model_dir, "--out-dir", out,
            "--quantizer", "kmeans", "--k", "4",
        ]) == 0
        return out / "model.nq"

    @staticmethod
    def _base(command, model_dir, encoded, out) -> list:
        tiny = ["--dataset", "synth", "--synth-samples", "60", "--synth-classes", "3",
                "--synth-features", "6", "--hidden", "4", "--steps", "5"]  # fmt: skip
        return {
            "train-ref": ["--out-dir", out, *tiny],
            "prune": ["--model-dir", model_dir, "--out-dir", out, "--prune-fraction", "0.5"],
            "quantize": ["--model-dir", model_dir, "--out-dir", out,
                         "--quantizer", "ecsq", "--k", "4", "--lam", "1e-4"],
            "sweep": ["--model-dir", model_dir, "--out-dir", out,
                      "--quantizers", "kmeans,uniform,ecsq", "--k-list", "4",
                      "--lambda-list", "1e-4", "--k", "4"],
            "report": ["--model-nq", encoded, "--out", out / "report.json"],
        }[command]  # fmt: skip

    @pytest.mark.parametrize(
        "command, key, value", BELOW_BOUND, ids=[f"{c}-{k}" for c, k, _ in BELOW_BOUND]
    )
    def test_value_below_lower_bound_is_config_error(
        self, model_dir, encoded, tmp_path, capfd, command, key, value
    ):
        """Whether or not the command uses the key."""
        flag = f"--{key.replace('_', '-')}"
        out = tmp_path / "out"
        base = self._base(command, model_dir, encoded, out)
        assert run([command, *base, f"{flag}={value}"]) == cli.EXIT_CONFIG
        assert capfd.readouterr().err.startswith(f"error: flag {flag}: ")
        assert not out.exists()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_exit_code_documented_and_no_partial_outputs(
        self, model_dir, encoded, tmp_path_factory, data
    ):
        command = data.draw(st.sampled_from(sorted(FUZZ_KEYS)))
        keys = data.draw(
            st.lists(st.sampled_from(FUZZ_KEYS[command]), min_size=1, max_size=2,
                     unique=True)
        )  # fmt: skip
        flags = [
            f"--{key.replace('_', '-')}={data.draw(st.sampled_from(_boundary_values(key)))}"
            for key in keys
        ]
        out = tmp_path_factory.mktemp("fuzz")
        code = run([command, *self._base(command, model_dir, encoded, out), *flags])
        assert code in (0, 2, 3, 4, 5)
        if code != 0:
            assert not [p for p in out.rglob("*") if p.is_file()]


def _json_paths(node, prefix=()):
    """The path of every value below the root of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield (*prefix, key)
        yield from _json_paths(child, (*prefix, key))


def _set_field(directory, name: str, path: tuple, value) -> None:
    """Store ``value`` at ``path`` in the JSON file ``name`` of ``directory``."""
    doc = json.loads((directory / name).read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    (directory / name).write_text(json.dumps(doc))


def _damage(model_dir, out, name: str, path: tuple, value):
    """A copy of ``model_dir`` whose file ``name`` holds ``value`` at ``path``."""
    damaged = out / "damaged"
    shutil.copytree(model_dir, damaged)
    _set_field(damaged, name, path, value)
    return damaged


# Values that replace one field of a stored JSON file: null, wrong types and
# out-of-range numbers.
DAMAGE_VALUES = [None, "x", [1, 2], {}, True, -1, 0, 0.5, 1e308, 2**63]

# Damaged fields of the 6-16-3 test net that must end in a FormatError (exit
# 3), with the commands that read the file: prune reads no dataset block.
_MANIFEST_READERS = ["quantize", "prune", "report"]
_REFNET_READERS = ["quantize", "report"]
DAMAGED_DIRS = {
    "span-gap": ("manifest.json", ("spans", 1, "offset"), 5, _MANIFEST_READERS),
    "duplicate-span": (
        "manifest.json", ("spans", 1, "name"), "layer0.weight", _MANIFEST_READERS
    ),
    "curvature-source": ("manifest.json", ("curvature_source",), "x", _MANIFEST_READERS),
    "bits-0": ("manifest.json", ("bits_per_param",), 0, _MANIFEST_READERS),
    "bits-16": ("manifest.json", ("bits_per_param",), 16, _MANIFEST_READERS),
    "samples-null": ("refnet.json", ("dataset", "synth_samples"), None, _REFNET_READERS),
    "dataset-list": ("refnet.json", ("dataset",), [1, 2], _REFNET_READERS),
    "noise-text": ("refnet.json", ("dataset", "synth_noise"), "x", _REFNET_READERS),
    "seed-negative": ("refnet.json", ("dataset", "synth_seed"), -1, _REFNET_READERS),
    "classes-0": ("refnet.json", ("dataset", "synth_classes"), 0, _REFNET_READERS),
    "fractional-width": (
        "refnet.json", ("layer_widths", 0), 6.5, [*_REFNET_READERS, "prune"]
    ),
    "hidden-width": ("refnet.json", ("layer_widths", 1), 17, ["quantize", "prune"]),
    # JSON numbers that are not integers, which int() would truncate or parse.
    "n-params-float": ("manifest.json", ("n_params",), 163.7, _MANIFEST_READERS),
    "n-params-text": ("manifest.json", ("n_params",), "163", _MANIFEST_READERS),
    "offset-float": ("manifest.json", ("spans", 1, "offset"), 96.2, _MANIFEST_READERS),
    "bits-float": ("manifest.json", ("bits_per_param",), 32.0, _MANIFEST_READERS),
    # Names must be JSON strings, not values that str() would turn into one.
    "model-name-null": ("manifest.json", ("model_name",), None, _MANIFEST_READERS),
    "span-name-null": ("manifest.json", ("spans", 0, "name"), None, _MANIFEST_READERS),
    # A stored dataset that does not fit the stored net.
    "dataset-features": ("refnet.json", ("dataset", "synth_features"), 7, _REFNET_READERS),
    "dataset-classes": ("refnet.json", ("dataset", "synth_classes"), 4, _REFNET_READERS),
}


def _nested(a: tuple, b: tuple) -> bool:
    """Whether one JSON path lies within the other (or they are the same)."""
    return a[: len(b)] == b or b[: len(a)] == a


class TestDamagedModelDir:
    """A model directory with one or two damaged fields in ``manifest.json``
    or ``refnet.json`` ends in a documented exit code, and a failure prints
    one ``error:`` line and leaves no output."""

    @pytest.fixture(scope="class")
    def encoded(self, model_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("damaged-q")
        assert run([
            "quantize", "--model-dir", model_dir, "--out-dir", out,
            "--quantizer", "kmeans", "--k", "4",
        ]) == 0
        return out / "model.nq"

    @staticmethod
    def _run(command, damaged, encoded, out) -> tuple[int, str]:
        args = {
            "quantize": ["--model-dir", damaged, "--out-dir", out / "q",
                         "--dataset", "synth", "--quantizer", "kmeans", "--k", "4",
                         "--curvature", "exact", "--fine-tune", "true", "--ft-steps", "2"],
            "prune": ["--model-dir", damaged, "--out-dir", out / "q",
                      "--prune-fraction", "0.5"],
            "report": ["--model-nq", encoded, "--model-dir", damaged,
                       "--dataset", "synth", "--out", out / "q" / "report.json"],
        }[command]  # fmt: skip
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run([command, *args])
        return code, err.getvalue()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_one_damaged_field(self, model_dir, encoded, tmp_path_factory, data):
        docs = {
            name: json.loads((model_dir / name).read_text())
            for name in ("manifest.json", "refnet.json")
        }
        fields = [(name, path) for name, doc in docs.items() for path in _json_paths(doc)]
        first = data.draw(st.sampled_from(fields))
        # A second field, if any, lies neither within the first nor around it.
        apart = [f for f in fields if f[0] != first[0] or not _nested(f[1], first[1])]
        damage = []
        for name, path in [first, *data.draw(st.lists(st.sampled_from(apart), max_size=1))]:
            old = docs[name]
            for key in path:
                old = old[key]
            values = [
                v for v in DAMAGE_VALUES
                if not (v == 2**63 and (path[-1] in SIZING_KEYS or path[0] == "layer_widths"))
            ]  # fmt: skip
            if type(old) is int:
                values += [old + 1, str(old)]
            damage.append((name, path, data.draw(st.sampled_from(values))))
        command = data.draw(st.sampled_from(["quantize", "prune", "report"]))

        out = tmp_path_factory.mktemp("damaged")
        damaged = _damage(model_dir, out, *damage[0])
        for field in damage[1:]:
            _set_field(damaged, *field)
        code, err = self._run(command, damaged, encoded, out)
        assert code in (0, 2, 3, 4, 5)
        if code != 0:
            assert err.startswith("error: ") and err.count("\n") == 1
            assert not [p for p in (out / "q").rglob("*") if p.is_file()]

    @pytest.mark.parametrize("probe", sorted(DAMAGED_DIRS))
    def test_known_damage_is_format_error(self, model_dir, encoded, tmp_path, probe):
        name, path, value, commands = DAMAGED_DIRS[probe]
        damaged = _damage(model_dir, tmp_path, name, path, value)
        for command in commands:
            code, err = self._run(command, damaged, encoded, tmp_path)
            assert code == cli.EXIT_IO, (command, err)
            assert err.startswith("error: ") and err.count("\n") == 1



class TestModelDirReads:
    """A command reads each file of a model directory at most once, and a
    payload only when its run uses it."""

    @pytest.fixture(scope="class")
    def pruned(self, model_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("reads") / "pruned"
        assert run([
            "prune", "--model-dir", model_dir, "--out-dir", out, "--prune-fraction", "0.5",
        ]) == 0
        return out

    @staticmethod
    def _reads(monkeypatch, args) -> collections.Counter:
        """File name -> the ``Path.read_bytes``/``read_text`` calls of one
        successful command."""
        reads = collections.Counter()
        for method in ("read_bytes", "read_text"):
            original = getattr(pathlib.Path, method)

            def counted(self, *args, _original=original, **kwargs):
                reads[self.name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(pathlib.Path, method, counted)
        assert run(args) == 0
        monkeypatch.undo()
        return reads

    @pytest.mark.parametrize("curvature", ["identity", "exact", "adam"])
    def test_quantize(self, pruned, tmp_path, monkeypatch, curvature):
        reads = self._reads(monkeypatch, [
            "quantize", "--model-dir", pruned, "--out-dir", tmp_path / "q",
            "--dataset", "synth", "--quantizer", "kmeans", "--k", "4",
            "--curvature", curvature,
        ])  # fmt: skip
        used = ["manifest.json", "refnet.json", "params.f32le", "mask.u8"]
        if curvature == "adam":
            used.append("curvature.f32le")
        assert reads == collections.Counter(used)

    def test_prune_reads_no_mask(self, pruned, tmp_path, monkeypatch):
        reads = self._reads(monkeypatch, [
            "prune", "--model-dir", pruned, "--out-dir", tmp_path / "p",
            "--prune-fraction", "0.25",
        ])  # fmt: skip
        assert reads == collections.Counter(
            ["manifest.json", "refnet.json", "params.f32le", "curvature.f32le"]
        )

    def test_report_reads_no_payload(self, pruned, tmp_path, monkeypatch):
        q = tmp_path / "q"
        assert run([
            "quantize", "--model-dir", pruned, "--out-dir", q, "--quantizer", "kmeans",
            "--k", "4",
        ]) == 0
        reads = self._reads(monkeypatch, [
            "report", "--model-nq", q / "model.nq", "--model-dir", pruned,
            "--dataset", "synth",
        ])  # fmt: skip
        assert reads == collections.Counter(["model.nq", "manifest.json", "refnet.json"])

    def test_corrupted_curvature_fails_only_runs_that_read_it(self, pruned, tmp_path):
        damaged = tmp_path / "damaged"
        shutil.copytree(pruned, damaged)
        payload = bytearray((damaged / "curvature.f32le").read_bytes())
        payload[5] ^= 0xFF
        (damaged / "curvature.f32le").write_bytes(bytes(payload))
        quantize = ["quantize", "--quantizer", "kmeans", "--k", "4"]
        assert run([*quantize, "--model-dir", pruned, "--out-dir", tmp_path / "a"]) == 0
        assert run([*quantize, "--model-dir", damaged, "--out-dir", tmp_path / "b"]) == 0
        model_nq = [(tmp_path / side / "model.nq").read_bytes() for side in "ab"]
        assert model_nq[0] == model_nq[1]
        assert run([
            *quantize, "--model-dir", damaged, "--out-dir", tmp_path / "c",
            "--curvature", "adam",
        ]) == cli.EXIT_IO
        assert run([
            "prune", "--model-dir", damaged, "--out-dir", tmp_path / "d",
            "--prune-fraction", "0.5",
        ]) == cli.EXIT_IO
        assert not (tmp_path / "c").exists() and not (tmp_path / "d").exists()

    def test_all_zero_mask_is_format_error(self, pruned, tmp_path, capfd):
        """A mask that prunes every parameter, under a checksum that matches."""
        damaged = tmp_path / "damaged"
        shutil.copytree(pruned, damaged)
        zeros = bytes((damaged / "mask.u8").stat().st_size)
        (damaged / "mask.u8").write_bytes(zeros)
        _set_field(
            damaged, "manifest.json", ("checksums", "mask.u8"), hashlib.sha256(zeros).hexdigest()
        )
        code = run([
            "quantize", "--model-dir", damaged, "--out-dir", tmp_path / "q",
            "--quantizer", "kmeans", "--k", "4",
        ])  # fmt: skip
        assert code == cli.EXIT_IO
        assert capfd.readouterr().err == "error: mask.u8: mask prunes every parameter\n"

    @pytest.mark.parametrize("name", ["manifest.json", "refnet.json"])
    def test_text_that_is_not_utf8_is_format_error(self, pruned, tmp_path, capfd, name):
        damaged = tmp_path / "damaged"
        shutil.copytree(pruned, damaged)
        (damaged / name).write_bytes(b"\xff\xfe\x00{")
        for command in (["prune", "--prune-fraction", "0.5"], ["quantize", "--k", "4"]):
            code = run([*command, "--model-dir", damaged, "--out-dir", tmp_path / "q"])
            assert code == cli.EXIT_IO
            assert capfd.readouterr().err.count("\n") == 1


class TestDamagedDataset:
    """A dataset with a NaN or infinite feature is a configuration error in
    every command, and finite features that overflow the net's arithmetic
    (1e200) are a numeric failure where a result would be non-finite. A
    failing command prints one ``error:`` line, no traceback or warning, and
    writes nothing; a passing one prints nothing to stderr."""

    FEATURES = {"nan": "nan", "inf": "inf", "huge": "1e200"}
    COMMANDS = {
        "train-ref": ["train-ref", "--hidden", "8", "--steps", "50"],
        "identity": ["quantize", "--quantizer", "kmeans", "--k", "4"],
        "exact": ["quantize", "--quantizer", "kmeans", "--k", "4", "--curvature", "exact"],
        "gauss-newton": [
            "quantize", "--quantizer", "kmeans", "--k", "4", "--curvature", "gauss-newton",
        ],
        "fine-tune": [
            "quantize", "--quantizer", "kmeans", "--k", "4", "--fine-tune", "true",
            "--ft-steps", "5",
        ],
        "report": ["report"],
    }  # fmt: skip
    # Every command refuses a non-finite feature; 1e200 overflows Adam's
    # second moments, both curvature passes and the fine-tuning loss.
    HUGE_EXIT = {
        "train-ref": cli.EXIT_NUMERIC,
        "identity": cli.EXIT_OK,
        "exact": cli.EXIT_NUMERIC,
        "gauss-newton": cli.EXIT_NUMERIC,
        "fine-tune": cli.EXIT_NUMERIC,
        "report": cli.EXIT_OK,
    }

    @staticmethod
    def _csv(path, feature=None):
        """60 rows of a label and two features; ``feature`` replaces row 5's second."""
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, 60)
        x = rng.normal(size=(60, 2)) + labels[:, None]
        rows = [f"{y},{a!r},{b!r}" for y, (a, b) in zip(labels.tolist(), x.tolist())]
        if feature is not None:
            rows[5] = rows[5].rsplit(",", 1)[0] + "," + feature
        path.write_text("\n".join(rows) + "\n")
        return path

    @pytest.fixture(scope="class")
    def net(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("clean")
        data, net = self._csv(root / "clean.csv"), root / "net"
        assert run([*self.COMMANDS["train-ref"], "--dataset", data, "--out-dir", net]) == 0
        assert run([*self.COMMANDS["identity"], "--model-dir", net, "--out-dir", root / "q"]) == 0
        return net, root / "q" / "model.nq"

    @staticmethod
    def _run(capfd, argv, out):
        code = run(argv)
        err = capfd.readouterr().err
        if code == cli.EXIT_OK:
            assert err == ""
        else:
            assert err.startswith("error: ") and err.count("\n") == 1
            assert not out.exists() or not any(out.iterdir())
        return code, err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize("feature", list(FEATURES))
    def test_exit_code_and_output(self, net, tmp_path, capfd, feature, command):
        model_dir, nq = net
        data = self._csv(tmp_path / f"{feature}.csv", self.FEATURES[feature])
        out = tmp_path / "out"
        argv = [*self.COMMANDS[command], "--dataset", data]
        if command == "report":
            argv += ["--model-nq", nq, "--model-dir", model_dir, "--out", out / "report.json"]
        elif command == "train-ref":
            argv += ["--out-dir", out]
        else:
            argv += ["--model-dir", model_dir, "--out-dir", out]
        code, err = self._run(capfd, argv, out)
        if feature == "huge":
            assert code == self.HUGE_EXIT[command]
        else:
            assert code == cli.EXIT_CONFIG
            assert err == f"error: bad dataset {data}: inputs and targets must be finite\n"

    @pytest.mark.filterwarnings("error")
    def test_fine_tuned_centers_beyond_float32_are_numeric_failure(self, net, tmp_path, capfd):
        """At 1e60 the loss stays finite while the centers outgrow float32."""
        data, out = self._csv(tmp_path / "large.csv", "1e60"), tmp_path / "out"
        argv = [*self.COMMANDS["fine-tune"], "--dataset", data, "--model-dir", net[0]]
        assert self._run(capfd, [*argv, "--out-dir", out], out) == (
            cli.EXIT_NUMERIC, "error: fine-tuned centers overflow float32\n"
        )

    @pytest.mark.filterwarnings("error")
    def test_rate_penalty_that_overflows_collapses_silently(self, net, tmp_path, capfd):
        """An infinite codeword-rate term is a valid score: ``lam = 1e308``
        merges every value into one cluster without a warning."""
        out = tmp_path / "out"
        argv = [
            "quantize", "--model-dir", net[0], "--out-dir", out,
            "--quantizer", "ecsq", "--k", "4", "--lam", "1e308",
        ]  # fmt: skip
        assert self._run(capfd, argv, out)[0] == cli.EXIT_OK
        assert json.loads((out / "report.json").read_text())["k_effective"] == 1
