"""The codec pipeline and training in a bounded working set.

The blocked stages (magnitude pruning, uniform binning, scattering,
packing, index-gap coding, decoding, the accuracy pass and Adam's update)
must give what their whole-array oracles give (the accuracy pass up to rows
whose logits tie within rounding, everything else bit for bit, also from
narrow index types), and ``prune``, ``quantize``, ``report``, training and
the Gauss-Newton curvature pass must stay within a traced peak that the
whole-array code exceeds.
"""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netquant import cli, quantizers, refnet
from netquant.coding import (
    build_huffman,
    decode_assignments,
    encode_assignments,
    fixed_length_code,
)
from netquant.params import DivergenceError, ParamSet
from netquant.quantizers import scatter_dequantize, uniform_quantize
from netquant.refnet import (
    FineTuneConfig,
    MlpSpec,
    TrainConfig,
    eval_accuracy,
    fine_tune_centers,
    make_blobs,
    train_adam,
)
from oracles import (
    accuracy_range_whole,
    encode_whole,
    eval_accuracy_whole,
    fine_tune_centers_whole,
    prune_magnitude_whole,
    rounded32,
    train_adam_whole,
)


@st.composite
def keep_masks(draw, n: int):
    """A keep-mask over ``n`` parameters, or ``None`` for an unpruned model."""
    kind = draw(st.sampled_from(["none", "any", "first", "one", "periodic"]), label="mask")
    if kind == "none":
        return None
    kept = np.zeros(n, dtype=bool)
    if kind == "one":
        kept[draw(st.integers(0, n - 1), label="survivor")] = True
    elif kind == "periodic":  # one gap value repeated
        step = draw(st.integers(1, 4), label="step")
        kept[draw(st.integers(0, min(step, n) - 1), label="start") :: step] = True
    else:
        kept[:] = draw(st.lists(st.booleans(), min_size=n, max_size=n), label="kept")
        kept[0] |= kind == "first" or not kept.any()
    return kept


class TestBlockedPipelineOracle:
    @settings(max_examples=150, deadline=None, database=None)
    @given(st.data())
    def test_bytes_and_accuracy_match_whole_array_oracles(self, draws):
        widths = tuple(
            draws.draw(st.lists(st.integers(1, 6), min_size=2, max_size=4), label="widths")
        )
        spec = MlpSpec(widths, draws.draw(st.sampled_from(refnet.ACTIVATIONS), label="act"))
        n = spec.param_count()
        rng = np.random.default_rng(draws.draw(st.integers(0, 2**32 - 1), label="seed"))
        kept = draws.draw(keep_masks(n))
        positions = None if kept is None else np.flatnonzero(kept)
        values = rng.normal(size=n)
        k = draws.draw(st.integers(1, 64), label="k")
        row_block = draws.draw(st.integers(2, 7), label="rows per block")
        rows = draws.draw(st.integers(0, 5), label="blocks") * row_block + draws.draw(
            st.integers(1, row_block - 1), label="remainder rows"
        )
        x = rng.normal(size=(rows, widths[0]))
        y = rng.integers(0, widths[-1], rows)
        # Narrow index types must give what the oracles' int64 path gives.
        a_type = draws.draw(st.sampled_from([np.uint8, np.uint16, np.int64]), label="a type")
        p_type = draws.draw(st.sampled_from([np.int32, np.uint32, np.int64]), label="p type")
        narrow_positions = None if positions is None else positions.astype(p_type)

        with mock.patch.object(quantizers, "_BLOCK_BYTES", 8 * draws.draw(
            st.integers(1, 5), label="quantizer block"
        )):  # fmt: skip
            kept_values = values if positions is None else values[positions]
            res = uniform_quantize(kept_values, k=k)
            assignment = res.assignment.astype(a_type)
            codebook = rounded32(res.codebook)
            w = scatter_dequantize(n, assignment, codebook, narrow_positions)
        assert res.assignment.dtype == np.uint8
        lo, hi = kept_values.min(), kept_values.max()
        bins = np.zeros(kept_values.size)
        if hi > lo and k > 1:
            bins = np.minimum((kept_values - lo) // ((hi - lo) / k), k - 1)
        assert np.array_equal(res.assignment, np.unique(bins, return_inverse=True)[1])
        whole_w = np.zeros(n)
        whole_w[np.arange(n) if positions is None else positions] = codebook.centers[
            res.assignment
        ]
        assert np.array_equal(w, whole_w)

        huffman = draws.draw(st.booleans(), label="huffman")
        code = build_huffman(codebook) if huffman else fixed_length_code(codebook.k)
        total = None if positions is None else n
        block = draws.draw(st.sampled_from([1, 2, 3, 7, 64]), label="pack block")
        with mock.patch.object(quantizers, "_BLOCK_BYTES", 8 * block):
            em = encode_assignments(assignment, codebook, code, narrow_positions, total)
            decoded = decode_assignments(em.data)
        data, breakdown = encode_whole(res.assignment, codebook, code, positions, total)
        assert em.data == data
        assert em.breakdown == breakdown
        assert np.array_equal(decoded.assignment, res.assignment.astype(np.int64))
        if positions is None:
            assert decoded.positions is None
        else:
            assert np.array_equal(decoded.positions, positions)
        assert np.array_equal(
            scatter_dequantize(n, decoded.assignment, decoded.codebook, decoded.positions),
            whole_w,
        )

        # Row blocks can round a row's logits differently from one whole
        # pass, which matters only where logits tie (k = 1 ties them all).
        with mock.patch.object(refnet, "_BLOCK_BYTES", row_block * 8 * max(widths)):
            accuracy = refnet.eval_accuracy(spec, w, x, y)
        lo, hi = accuracy_range_whole(spec, whole_w, x, y)
        assert lo <= accuracy <= hi
        if lo == hi:
            assert accuracy == eval_accuracy_whole(spec, whole_w, x, y)


class TestBlockedPrune:
    @settings(max_examples=200, deadline=None, database=None)
    @given(st.data())
    def test_mask_matches_whole_array_oracle(self, draws):
        """A few magnitudes with both signs (so 0.0 and -0.0) make ties,
        which small blocks split across block boundaries."""
        magnitudes = draws.draw(
            st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]), min_size=1, max_size=4),
            label="magnitudes",
        )
        signed = [sign * m for m in magnitudes for sign in (1.0, -1.0)]
        values = draws.draw(
            st.lists(st.sampled_from(signed), min_size=1, max_size=200), label="values"
        )
        fraction = draws.draw(
            st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)), label="fraction"
        )
        ps = ParamSet.from_flat(values)
        block = draws.draw(st.integers(1, 9), label="values per block")
        with mock.patch.object(refnet, "_BLOCK_BYTES", 8 * block):
            mask = refnet.prune_magnitude(ps, fraction)
        assert np.array_equal(mask.kept, prune_magnitude_whole(ps.values, fraction))


# Traced peak allowed per parameter of the unpruned net. A whole-array
# pipeline measured 25.4 B (prune) and 70.0 B (quantize) on this net. With
# blocked stages that still held int64 indices, payload copies and the
# quantizer's inputs to the end, the peaks were 18.5 B (prune), 30.2 B
# (quantize) and 24.5 B (report with accuracy); with narrow indices and
# each array dropped once used, 10.4 B, 18.8 B and 19.0 B.
PRUNE_BYTES_PER_PARAM = 12
QUANTIZE_BYTES_PER_PARAM = 21
REPORT_BYTES_PER_PARAM = 21


class TestWorkingSet:
    """``prune``, ``quantize --quantizer uniform --k 16`` and ``report`` on a
    net of 231,812 parameters, the codec workload's commands at desk scale
    (``report`` also measures accuracy, which adds the full-length
    dequantized vector)."""

    @pytest.fixture(scope="class")
    def net(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("codec") / "net"
        assert cli.main([
            "train-ref", "--dataset", "synth", "--synth-features", "64",
            "--hidden", "512,384", "--steps", "2", "--out-dir", str(path),
        ]) == 0  # fmt: skip
        return path, 64 * 512 + 512 + 512 * 384 + 384 + 384 * 4 + 4

    @staticmethod
    def traced_peak(argv) -> int:
        tracemalloc.start()
        try:
            assert cli.main([str(a) for a in argv]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_prune_then_quantize_peaks_per_parameter(self, net, tmp_path):
        model_dir, n = net
        pruned = tmp_path / "pruned"
        prune_peak = self.traced_peak(
            ["prune", "--model-dir", model_dir, "--prune-fraction", "0.5", "--out-dir", pruned]
        )
        quantize_peak = self.traced_peak([
            "quantize", "--model-dir", pruned, "--dataset", "synth",
            "--quantizer", "uniform", "--k", "16", "--out-dir", tmp_path / "q",
        ])  # fmt: skip
        report_peak = self.traced_peak([
            "report", "--model-nq", tmp_path / "q" / "model.nq",
            "--model-dir", pruned, "--dataset", "synth",
        ])  # fmt: skip
        assert prune_peak <= PRUNE_BYTES_PER_PARAM * n
        assert quantize_peak <= QUANTIZE_BYTES_PER_PARAM * n
        assert report_peak <= REPORT_BYTES_PER_PARAM * n


# A net of 198,724 parameters trained for three steps. Its parameters, two
# moments and gradient take 6.1 MiB; the in-place update measured a traced
# peak of 7.6 MiB, the whole-array oracle 13.0 MiB.
TRAIN_MARGIN_BYTES = 2 << 20


class TestInPlaceTraining:
    @settings(max_examples=100, deadline=None, database=None)
    @given(st.data())
    def test_blocked_updates_match_whole_array_oracles(self, draws):
        widths = tuple(
            draws.draw(st.lists(st.integers(1, 6), min_size=2, max_size=4), label="widths")
        )
        spec = MlpSpec(
            widths,
            draws.draw(st.sampled_from(refnet.ACTIVATIONS), label="act"),
            draws.draw(st.sampled_from(refnet.LOSSES), label="loss"),
        )
        n = spec.param_count()
        seed = draws.draw(st.integers(0, 2**16), label="seed")
        ds = make_blobs(30, widths[-1], widths[0], seed=seed, center_spread=1.0, noise=0.5)
        # Blocks of one value up to twice the model, most not dividing it.
        block = draws.draw(st.integers(1, 2 * n + 1), label="values per block")
        cfg = TrainConfig(
            steps=draws.draw(st.integers(0, 25), label="steps"),
            batch_size=draws.draw(st.integers(1, 21), label="batch"),
            seed=seed,
        )
        with mock.patch.object(refnet, "_BLOCK_BYTES", 8 * block):
            model = train_adam(spec, ds, cfg)
        params, v, final_loss = train_adam_whole(spec, ds, cfg)
        assert model.params.values.tobytes() == params.tobytes()
        assert model.adam.v.tobytes() == v.tobytes()
        assert model.final_loss == final_loss

        rng = np.random.default_rng(seed)
        kept = draws.draw(keep_masks(n))
        positions = None if kept is None else np.flatnonzero(kept)
        size = n if kept is None else positions.size
        labels = rng.integers(0, draws.draw(st.integers(1, 4), label="k"), size)
        _, assignment, counts = np.unique(labels, return_inverse=True, return_counts=True)
        # The CLI passes narrow index types: uint8 assignments, uint32 positions.
        assign_types = st.sampled_from([np.uint8, np.uint16, np.int64])
        assignment = assignment.astype(draws.draw(assign_types, label="assignment dtype"))
        if positions is not None:
            pos_types = st.sampled_from([np.int32, np.uint32, np.int64])
            positions = positions.astype(draws.draw(pos_types, label="positions dtype"))
        codebook = quantizers.Codebook(rng.normal(size=counts.size), counts)
        ft = FineTuneConfig(steps=cfg.steps, batch_size=cfg.batch_size, lr=1e-3, seed=seed)
        # Random centers can make fine-tuning diverge; both must then stop
        # at the same step.
        try:
            tuned = fine_tune_centers(spec, assignment, codebook, ds, ft, positions).centers
        except DivergenceError as exc:
            with pytest.raises(DivergenceError, match=f"^{exc}$"):
                fine_tune_centers_whole(spec, assignment, codebook, ds, ft, positions)
        else:
            centers = fine_tune_centers_whole(spec, assignment, codebook, ds, ft, positions)
            assert tuned.tobytes() == centers.tobytes()


    def test_training_peaks_near_four_model_vectors(self):
        spec = MlpSpec((64, 512, 320, 4))
        ds = make_blobs(100, 4, 64, seed=0)
        cfg = TrainConfig(steps=3, batch_size=16, seed=0)
        peaks = []
        for train in (train_adam, train_adam_whole):
            tracemalloc.start()
            try:
                train(spec, ds, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        bound = 4 * 8 * spec.param_count() + TRAIN_MARGIN_BYTES
        assert peaks[0] <= bound < peaks[1]

    @settings(max_examples=100, deadline=None, database=None)
    @given(st.data())
    def test_blocked_final_loss_matches_whole_array_oracle(self, draws):
        widths = tuple(
            draws.draw(st.lists(st.integers(1, 6), min_size=2, max_size=4), label="widths")
        )
        spec = MlpSpec(
            widths,
            draws.draw(st.sampled_from(refnet.ACTIVATIONS), label="act"),
            draws.draw(st.sampled_from(refnet.LOSSES), label="loss"),
        )
        seed = draws.draw(st.integers(0, 2**16), label="seed")
        ds = make_blobs(30, widths[-1], widths[0], seed=seed, center_spread=1.0, noise=0.5)
        n_train = ds.splits["train"].size
        # Final-loss blocks of one row up to one block of the whole split.
        rows = draws.draw(st.integers(1, n_train), label="rows per block")
        cfg = TrainConfig(
            steps=draws.draw(st.integers(0, 25), label="steps"),
            batch_size=draws.draw(st.integers(1, 21), label="batch"),
            seed=seed,
        )
        with mock.patch.object(refnet, "_FACTOR_BYTES", 8 * max(widths) * rows):
            model = train_adam(spec, ds, cfg)
        params, _, final_loss = train_adam_whole(spec, ds, cfg)
        assert model.params.values.tobytes() == params.tobytes()
        if rows == n_train:
            assert model.final_loss == final_loss
        else:  # BLAS may round a block's logits differently
            assert model.final_loss == pytest.approx(final_loss, rel=1e-12, abs=0)

    def test_final_loss_peaks_near_four_model_vectors_over_a_long_split(self):
        """The training split's hidden activations outgrow the four model
        vectors; the final loss walks them in blocks of ``_FACTOR_BYTES``.
        The in-place code measured a traced peak of 9.98 MiB (in a step),
        the whole-array oracle 60.4 MiB, against a bound of 10.63 MiB."""
        spec = MlpSpec((64, 4096, 4))
        ds = make_blobs(500, 4, 64, seed=0)
        n_train = ds.splits["train"].size
        assert 8 * n_train * 4096 > 4 * 8 * spec.param_count()
        cfg = TrainConfig(steps=3, batch_size=4, seed=0)
        peaks = []
        for train in (train_adam, train_adam_whole):
            tracemalloc.start()
            try:
                train(spec, ds, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        bound = 4 * 8 * spec.param_count() + TRAIN_MARGIN_BYTES
        assert peaks[0] <= bound < peaks[1]

    def test_closing_accuracy_pass_holds_no_second_model_vector(self):
        """Training scores the stored float32 parameters through its own
        float64 vector; widening them into a second one took 2.47 MiB above
        the pass's entry on this net, one model vector being 2.16 MiB."""
        spec = MlpSpec((64, 4096, 4))
        ds = make_blobs(500, 4, 64, seed=0)
        rises, scored = [], []

        def traced(spec, params, *split):
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            acc = eval_accuracy(spec, params, *split)
            rises.append(tracemalloc.get_traced_memory()[1] - entry)
            scored.append(np.array(params, dtype=np.float64))
            return acc

        tracemalloc.start()
        try:
            with mock.patch.object(refnet, "eval_accuracy", traced):
                model = train_adam(spec, ds, TrainConfig(steps=3, batch_size=4, seed=0))
        finally:
            tracemalloc.stop()
        assert np.array_equal(scored[0], model.params.as_f64())
        assert len(rises) == 1 and rises[0] < 8 * spec.param_count()


class TestTrainingWorkers:
    @settings(max_examples=60, deadline=None, database=None)
    @given(st.data())
    def test_one_and_two_workers_match_whole_array_oracles(self, draws):
        widths = tuple(
            draws.draw(st.lists(st.integers(1, 6), min_size=2, max_size=4), label="widths")
        )
        # A step of 1e200 under squared error makes the loss overflow at the
        # second step.
        diverge = draws.draw(st.booleans(), label="diverge")
        spec = MlpSpec(
            widths,
            draws.draw(st.sampled_from(refnet.ACTIVATIONS), label="act"),
            "mean_square_error" if diverge else draws.draw(st.sampled_from(refnet.LOSSES)),
        )
        n = spec.param_count()
        seed = draws.draw(st.integers(0, 2**16), label="seed")
        ds = make_blobs(30, widths[-1], widths[0], seed=seed, center_spread=1.0, noise=0.5)
        # Blocks of one value up to past the model: one worker or two, and
        # with two, halves of one block or of many.
        block = draws.draw(st.integers(1, 2 * n + 1), label="values per block")
        lr = 1e200 if diverge else 1e-2
        cfg = TrainConfig(
            steps=draws.draw(st.integers(2 if diverge else 0, 12), label="steps"),
            batch_size=draws.draw(st.integers(1, 21), label="batch"),
            lr=lr,
            seed=seed,
        )
        ft = FineTuneConfig(steps=cfg.steps, batch_size=cfg.batch_size, lr=lr, seed=seed)
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 3, n)
        _, assignment, counts = np.unique(labels, return_inverse=True, return_counts=True)
        assignment = assignment.astype(np.uint8)
        codebook = quantizers.Codebook(rng.normal(size=counts.size), counts)

        trained, tuned = [], []
        for workers in (1, 2):
            # The worker runs in the caller's numpy error state, so a
            # diverging step overflows silently there too.
            with (
                mock.patch.object(refnet, "_WORKERS", workers),
                mock.patch.object(refnet, "_BLOCK_BYTES", 8 * block),
                np.errstate(over="ignore", invalid="ignore"),
                warnings.catch_warnings(),
            ):
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    trained.append(train_adam(spec, ds, cfg))
                except DivergenceError as exc:
                    trained.append(str(exc))
                try:
                    tuned.append(fine_tune_centers(spec, assignment, codebook, ds, ft).centers)
                except DivergenceError as exc:
                    tuned.append(str(exc))

        with np.errstate(over="ignore", invalid="ignore"):
            if isinstance(trained[0], str):  # both stop at the same step
                assert trained[1] == trained[0]
            else:
                params, v, final_loss = train_adam_whole(spec, ds, cfg)
                for model in trained:
                    assert model.params.values.tobytes() == params.tobytes()
                    assert model.adam.v.tobytes() == v.tobytes()
                    assert model.final_loss == final_loss
            if isinstance(tuned[0], str):
                assert tuned[1] == tuned[0]
                with pytest.raises(DivergenceError, match=f"^{tuned[0]}$"):
                    fine_tune_centers_whole(spec, assignment, codebook, ds, ft)
            else:
                centers = fine_tune_centers_whole(spec, assignment, codebook, ds, ft)
                assert [c.tobytes() for c in tuned] == [centers.tobytes()] * 2


# Gauss-Newton curvature over 100,000 rows of an 8-32-16-4 net, whose
# inputs take 6.1 MiB: the traced peak above them measured 17.5 MiB in row
# blocks of 4 MiB (16,384 rows), 106.8 MiB over the whole split at once.
CURVATURE_PEAK_BYTES = 20 << 20


class TestBlockedCurvature:
    def test_gauss_newton_peaks_a_few_blocks_above_its_inputs(self):
        spec = MlpSpec((8, 32, 16, 4))
        rng = np.random.default_rng(0)
        w = rng.normal(size=spec.param_count())
        x = rng.normal(size=(100_000, 8))
        y = rng.integers(0, 4, 100_000)
        tracemalloc.start()
        try:
            refnet.hessian_diag_gn(spec, w, x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= CURVATURE_PEAK_BYTES
