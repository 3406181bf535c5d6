"""Reference-net correctness: gradients against finite differences, both
curvature backends against analytic values, training/pruning/fine-tuning
contracts."""

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netquant import refnet
from netquant import (
    Codebook,
    CurvatureDiag,
    CurvatureSource,
    Dataset,
    FineTuneConfig,
    MlpSpec,
    ParamSet,
    TrainConfig,
    adam_curvature,
    dequantize,
    eval_accuracy,
    fine_tune_centers,
    forward_loss,
    hessian_diag_exact,
    hessian_diag_gn,
    init_params,
    kmeans_sweep,
    load_csv,
    make_blobs,
    prune_magnitude,
    train_adam,
)
from netquant.params import CURVATURE_FLOOR, DivergenceError
from oracles import (
    forward_loss_whole,
    forward_whole,
    hessian_diag_fd,
    hessian_diag_gn_whole,
    prune_mask_by_sort,
)


def fd_gradient(spec, w, x, y, step=1e-5):
    """Central finite differences of the loss, the gradient oracle."""
    grad = np.empty_like(w)
    for i in range(w.size):
        wp = w.copy()
        wp[i] += step
        wm = w.copy()
        wm[i] -= step
        grad[i] = (forward_loss(spec, wp, x, y)[0] - forward_loss(spec, wm, x, y)[0]) / (
            2 * step
        )
    return grad


def factor_budget(spec, rows, cols=1):
    """A ``_FACTOR_BYTES`` that puts ``rows`` samples in each curvature block."""
    return 8 * max(spec.layer_widths) * cols * rows


def rank_correlation(a, b):
    ra = np.argsort(np.argsort(a)).astype(np.float64)
    rb = np.argsort(np.argsort(b)).astype(np.float64)
    ra -= ra.mean()
    rb -= rb.mean()
    return float(np.dot(ra, rb) / np.sqrt(np.dot(ra, ra) * np.dot(rb, rb)))


class TestForwardLoss:
    def test_zero_hidden_mse_at_generating_weights(self):
        spec = MlpSpec((3, 2), activation="none", loss="mean_square_error")
        rng = np.random.default_rng(0)
        w = rng.normal(size=spec.param_count())
        x = rng.normal(size=(10, 3))
        layers_w = w[:6].reshape(3, 2)
        targets = x @ layers_w + w[6:]
        loss, grad = forward_loss(spec, w, x, targets)
        assert loss == pytest.approx(0.0, abs=1e-24)
        assert np.allclose(grad, 0.0, atol=1e-12)

    def test_uniform_softmax_loss_is_log_c(self):
        for c in (2, 4, 7):
            spec = MlpSpec((3, c), activation="none")
            w = np.zeros(spec.param_count())
            loss, _ = forward_loss(spec, w, np.zeros((5, 3)), np.zeros(5, dtype=int))
            assert loss == pytest.approx(np.log(c))

    def test_cross_entropy_nonnegative(self):
        rng = np.random.default_rng(1)
        spec = MlpSpec((4, 8, 3))
        w = rng.normal(size=spec.param_count())
        loss, _ = forward_loss(spec, w, rng.normal(size=(12, 4)), rng.integers(0, 3, 12))
        assert loss >= 0.0

    def test_dimension_mismatch_rejected(self):
        spec = MlpSpec((4, 3))
        with pytest.raises(ValueError):
            forward_loss(spec, np.zeros(5), np.zeros((2, 4)), np.zeros(2, dtype=int))

    @pytest.mark.parametrize("activation", ["relu", "tanh", "none"])
    @pytest.mark.parametrize("loss", ["softmax_cross_entropy", "mean_square_error"])
    def test_gradient_matches_finite_differences(self, activation, loss):
        rng = np.random.default_rng(hash((activation, loss)) % 2**32)
        for trial in range(3):
            widths = (3, int(rng.integers(2, 7)), int(rng.integers(2, 5)))
            spec = MlpSpec(widths, activation=activation, loss=loss)
            w = rng.normal(size=spec.param_count()) * 0.8
            x = rng.normal(size=(6, 3))
            y = rng.integers(0, widths[-1], 6)
            _, analytic = forward_loss(spec, w, x, y)
            numeric = fd_gradient(spec, w, x, y)
            # relative error with an absolute floor of 1 for near-zero entries
            err = np.abs(analytic - numeric) / np.maximum(
                1.0, np.maximum(np.abs(analytic), np.abs(numeric))
            )
            assert err.max() <= 1e-6

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        activation=st.sampled_from(refnet.ACTIVATIONS),
        loss=st.sampled_from(refnet.LOSSES),
        widths=st.lists(st.integers(1, 5), min_size=2, max_size=4),
        n=st.integers(1, 6),
        grid=st.booleans(),
    )
    def test_equals_whole_batch_oracle(self, seed, activation, loss, widths, n, grid):
        """The activations and the loss bit for bit, the gradient entry by
        entry (the oracle adds into zeros, which turns -0 into +0). Grid
        weights and inputs make exact zeros, +0 and -0, before each
        activation, where relu's slope is taken from its output."""
        spec = MlpSpec(tuple(widths), activation=activation, loss=loss)
        rng = np.random.default_rng(seed)
        if grid:
            w = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], spec.param_count())
            x = rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0], (n, widths[0]))
        else:
            w = rng.normal(size=spec.param_count())
            x = rng.normal(size=(n, widths[0]))
        if loss == "softmax_cross_entropy":
            y = rng.integers(0, widths[-1], n)
        else:
            y = rng.normal(size=(n, widths[-1]))
        _, acts = refnet._forward(spec, w, x)
        _, _, want = forward_whole(spec, w, x)
        assert [a.tobytes() for a in acts] == [a.tobytes() for a in want]
        got_loss, got_grad = forward_loss(spec, w, x, y)
        want_loss, want_grad = forward_loss_whole(spec, w, x, y)
        assert np.float64(got_loss).tobytes() == np.float64(want_loss).tobytes()
        assert np.array_equal(got_grad, want_grad)


class TestTraining:
    def test_separable_blobs_accuracy(self):
        ds = make_blobs(200, 2, 2, seed=0, center_spread=4.0, noise=0.8)
        model = train_adam(MlpSpec((2, 16, 2)), ds, TrainConfig(steps=300, seed=0))
        assert model.eval_accuracy >= 0.95

    def test_zero_steps_returns_init(self):
        ds = make_blobs(50, 2, 3, seed=1)
        spec = MlpSpec((3, 8, 2))
        model = train_adam(spec, ds, TrainConfig(steps=0, seed=5))
        assert np.array_equal(model.params.values, init_params(spec, 5).values)

    def test_same_seed_bitwise_identical(self):
        ds = make_blobs(120, 3, 4, seed=2)
        spec = MlpSpec((4, 10, 3))
        cfg = TrainConfig(steps=150, seed=9)
        m1 = train_adam(spec, ds, cfg)
        m2 = train_adam(spec, ds, cfg)
        assert m1.params.values.tobytes() == m2.params.values.tobytes()
        assert np.array_equal(m1.adam.v, m2.adam.v)
        assert m1.final_loss == m2.final_loss

    @pytest.mark.parametrize("activation", refnet.ACTIVATIONS)
    @pytest.mark.parametrize("loss", refnet.LOSSES)
    def test_final_loss_is_the_training_split_loss(self, monkeypatch, activation, loss):
        # The trained float64 parameters are the last vector wrapped in a ParamSet.
        wrapped = []

        class Recorded(ParamSet):
            def __post_init__(self):
                wrapped.append(np.array(self.values, dtype=np.float64))
                super().__post_init__()

        monkeypatch.setattr(refnet, "ParamSet", Recorded)
        ds = make_blobs(120, 3, 4, seed=2)
        spec = MlpSpec((4, 10, 3), activation, loss)
        model = train_adam(spec, ds, TrainConfig(steps=40, seed=9))
        assert model.final_loss == forward_loss(spec, wrapped[-1], *ds.split("train"))[0]

    def test_divergent_lr_aborts(self):
        # Adam's update sizes are bounded by lr, so divergence means the
        # squared-error loss itself overflowing to infinity.
        ds = make_blobs(100, 2, 3, seed=3)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError):
            train_adam(
                MlpSpec((3, 8, 2), loss="mean_square_error"),
                ds,
                TrainConfig(steps=5, lr=1e200, seed=0),
            )


# Runs in a fresh interpreter with two workers allowed: prints the thread
# count and whether concurrent.futures is loaded, after importing the CLI,
# after training a one-block net and after training a net of four blocks,
# then the exit status of a forked child that trains that net again.
THREAD_PROBE = """
import json, os, signal, sys, threading
counts = [threading.active_count()]
import netquant.cli
from netquant import refnet
def probe():
    counts.append(threading.active_count())
    counts.append("concurrent.futures" in sys.modules)
probe()
refnet._WORKERS = 2
ds = refnet.make_blobs(40, 3, 4, seed=0)
spec = refnet.MlpSpec((4, 8, 3))
refnet.train_adam(spec, ds, refnet.TrainConfig(steps=3, batch_size=8))
probe()
refnet._BLOCK_BYTES = 8 * (spec.param_count() // 4 + 1)
refnet.train_adam(spec, ds, refnet.TrainConfig(steps=3, batch_size=8))
probe()
pid = os.fork()
if pid == 0:
    signal.alarm(30)  # a child that hangs ends with SIGALRM
    refnet.train_adam(spec, ds, refnet.TrainConfig(steps=3, batch_size=8))
    os._exit(0)
counts.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
print(json.dumps(counts))
"""


class TestTrainingThreads:
    def test_import_and_one_block_training_start_no_thread(self):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        out = subprocess.run(
            [sys.executable, "-c", THREAD_PROBE],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        ).stdout  # fmt: skip
        before, *after = json.loads(out.splitlines()[-1])
        # Import and one-block training: no thread, no executor module; four
        # blocks: the one worker. A forked child, which inherits the worker's
        # record but not its thread, starts its own rather than wait forever.
        assert after == [before, False, before, False, before + 1, True, 0]


class TestExactHessian:
    def test_scalar_linear_mse(self):
        # y = w x under 0.5 (w x - t)^2 averaged over x in {1, 2}:
        # d2L/dw2 = mean(x^2) = 2.5, and 1.0 for the bias.
        spec = MlpSpec((1, 1), activation="none", loss="mean_square_error")
        x = np.array([[1.0], [2.0]])
        t = np.array([[0.0], [0.0]])
        cv = hessian_diag_exact(spec, np.array([0.3, 0.0]), x, t)
        assert cv.values[0] == pytest.approx(2.5, rel=1e-8)
        assert cv.values[1] == pytest.approx(1.0, rel=1e-8)
        assert cv.source == CurvatureSource.EXACT_HESSIAN

    def test_matches_gauss_newton_on_linear_mse(self):
        rng = np.random.default_rng(4)
        spec = MlpSpec((5, 3), activation="none", loss="mean_square_error")
        w = rng.normal(size=spec.param_count())
        x = rng.normal(size=(40, 5))
        t = rng.normal(size=(40, 3))
        exact = hessian_diag_exact(spec, w, x, t).as_f64()
        gn = hessian_diag_gn(spec, w, x, t).as_f64()
        assert np.allclose(exact, gn, rtol=1e-8)

    def test_duplicating_samples_changes_nothing(self):
        rng = np.random.default_rng(5)
        spec = MlpSpec((3, 4, 2))
        w = rng.normal(size=spec.param_count())
        x = rng.normal(size=(8, 3))
        y = rng.integers(0, 2, 8)
        once = hessian_diag_exact(spec, w, x, y).as_f64()
        twice = hessian_diag_exact(spec, w, np.tile(x, (2, 1)), np.tile(y, 2)).as_f64()
        assert np.allclose(once, twice, rtol=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        activation=st.sampled_from(refnet.ACTIVATIONS),
        loss=st.sampled_from(refnet.LOSSES),
        widths=st.lists(st.integers(1, 5), min_size=2, max_size=4),
        n=st.integers(1, 6),
        rows=st.integers(1, 7),
    )
    def test_matches_finite_differences(self, seed, activation, loss, widths, n, rows):
        """1-3 layers, ``rows`` samples a block; relu nets are kept a margin
        away from their kinks, where central differences straddle a slope
        change."""
        spec = MlpSpec(tuple(widths), activation=activation, loss=loss)
        rng = np.random.default_rng(seed)
        w = rng.normal(size=spec.param_count())
        x = rng.normal(size=(n, widths[0]))
        if loss == "softmax_cross_entropy":
            y = rng.integers(0, widths[-1], n)
        else:
            y = rng.normal(size=(n, widths[-1]))
        if activation == "relu":
            _, pre, _ = forward_whole(spec, w, x)
            assume(all(np.abs(z).min() > 1e-3 for z in pre[:-1]))
        reference = np.maximum(hessian_diag_fd(spec, w, x, y), CURVATURE_FLOOR)
        cols = widths[-1] + (activation == "tanh") * sum(widths[1:-1])
        with mock.patch.object(refnet, "_FACTOR_BYTES", factor_budget(spec, rows, cols)):
            got = hessian_diag_exact(spec, w, x, y).as_f64()
        # atol covers the oracle's own rounding, about eps * |gradient| / step
        np.testing.assert_allclose(got, reference, rtol=1e-6, atol=1e-9)

    def test_unit_off_for_every_sample_gets_the_floor(self):
        rng = np.random.default_rng(13)
        spec = MlpSpec((3, 4, 2))
        w = rng.normal(size=spec.param_count())
        w[12 + 1] = -100.0  # bias of hidden unit 1: never on
        x = rng.normal(size=(20, 3))
        h = hessian_diag_exact(spec, w, x, rng.integers(0, 2, 20)).values
        dead = [1, 5, 9, 13, 16 + 2, 16 + 3]  # its in-weights, bias, out-weights
        assert np.all(h[dead] == np.float32(CURVATURE_FLOOR))
        assert np.all(np.delete(h, dead) > CURVATURE_FLOOR)

    def test_clamp_log_counts_zero_negative_and_tiny(self, caplog):
        rng = np.random.default_rng(13)
        spec = MlpSpec((3, 4, 2))
        w = rng.normal(size=spec.param_count())
        w[12 + 1] = -100.0  # bias of hidden unit 1: never on, six exact zeros
        x = rng.normal(size=(20, 3))
        x[:, 0] *= 1e-8  # the three live weights from input 0 fall below the floor
        with caplog.at_level("WARNING", logger="netquant.refnet"):
            hessian_diag_exact(spec, w, x, rng.integers(0, 2, 20))
        assert caplog.messages == [
            "clamped 9 curvature entries to the floor: "
            "6 zero, 0 negative, 3 positive below the floor"
        ]
        # A tanh net away from a minimum: every entry is at least 5e-3 from
        # zero, so the oracle's signs are certain.
        rng = np.random.default_rng(13)
        tanh = MlpSpec((3, 4, 2), activation="tanh")
        w = rng.normal(size=tanh.param_count())
        x, y = rng.normal(size=(20, 3)), rng.integers(0, 2, 20)
        negative = int(np.count_nonzero(hessian_diag_fd(tanh, w, x, y) < 0))
        caplog.clear()
        with caplog.at_level("WARNING", logger="netquant.refnet"):
            hessian_diag_exact(tanh, w, x, y)
        assert negative > 0
        assert caplog.messages == [
            f"clamped {negative} curvature entries to the floor: "
            f"0 zero, {negative} negative, 0 positive below the floor"
        ]

    @pytest.mark.parametrize("activation", refnet.ACTIVATIONS)
    def test_sample_blocks_match_one_block(self, monkeypatch, activation):
        rng = np.random.default_rng(14)
        spec = MlpSpec((4, 6, 5, 3), activation=activation)
        w = rng.normal(size=spec.param_count())
        x = rng.normal(size=(50, 4))
        y = rng.integers(0, 3, 50)
        whole = hessian_diag_exact(spec, w, x, y).values
        monkeypatch.setattr(refnet, "_FACTOR_BYTES", 2016)  # 3 to 14 samples a block
        blocked = hessian_diag_exact(spec, w, x, y).values
        assert np.array_equal(blocked, whole)


class TestGaussNewton:
    def test_nonnegative_by_construction(self):
        rng = np.random.default_rng(6)
        spec = MlpSpec((4, 6, 3), activation="relu")
        w = rng.normal(size=spec.param_count())
        cv = hessian_diag_gn(spec, w, rng.normal(size=(30, 4)), rng.integers(0, 3, 30))
        assert np.all(cv.values > 0)

    def test_rank_correlation_diagnostic(self, capsys):
        rng = np.random.default_rng(7)
        spec = MlpSpec((4, 10, 3), activation="relu")
        ds = make_blobs(300, 3, 4, seed=7)
        model = train_adam(spec, ds, TrainConfig(steps=400, seed=7))
        hx, hy = ds.split("hessian")
        exact = hessian_diag_exact(spec, model.params, hx, hy).as_f64()
        gn = hessian_diag_gn(spec, model.params, hx, hy).as_f64()
        rho = rank_correlation(exact, gn)
        print(f"\n[diagnostic] curvature backend rank correlation: {rho:.3f}")
        assert -1.0 <= rho <= 1.0  # reported, no hard threshold

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        activation=st.sampled_from(refnet.ACTIVATIONS),
        loss=st.sampled_from(refnet.LOSSES),
        widths=st.lists(st.integers(1, 5), min_size=2, max_size=4),
        n=st.integers(1, 40),
        rows=st.one_of(st.none(), st.integers(1, 41)),
    )
    def test_equals_whole_split_oracle(self, seed, activation, loss, widths, n, rows):
        """In one block (``rows`` None: the default budget holds every
        sample) the float64 curvature and the floored float32 one are the
        oracle's bytes. In blocks of ``rows`` samples each entry sums the
        same nonnegative terms in another grouping, so it stays within 1e-12
        relative of the oracle's."""
        spec = MlpSpec(tuple(widths), activation=activation, loss=loss)
        rng = np.random.default_rng(seed)
        w = rng.normal(size=spec.param_count())
        x = rng.normal(size=(n, widths[0]))
        if loss == "softmax_cross_entropy":
            y = rng.integers(0, widths[-1], n)
        else:
            y = rng.normal(size=(n, widths[-1]))
        whole = hessian_diag_gn_whole(spec, w, x, y)
        budget = refnet._FACTOR_BYTES if rows is None else factor_budget(spec, rows)
        with mock.patch.object(refnet, "_FACTOR_BYTES", budget):
            got = refnet._curvature_pass(spec, w, x, y, refnet._gn_diags)
            values = hessian_diag_gn(spec, w, x, y).values
        if rows is None or rows >= n:
            assert got.tobytes() == whole.tobytes()
            floored = np.maximum(whole, CURVATURE_FLOOR)
            expected = CurvatureDiag(floored, CurvatureSource.GAUSS_NEWTON).values
            assert values.tobytes() == expected.tobytes()
        else:
            np.testing.assert_allclose(got, whole, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("activation", refnet.ACTIVATIONS)
    def test_sample_blocks_match_one_block(self, monkeypatch, activation):
        rng = np.random.default_rng(14)
        spec = MlpSpec((4, 6, 5, 3), activation=activation)
        w = rng.normal(size=spec.param_count())
        x = rng.normal(size=(50, 4))
        y = rng.integers(0, 3, 50)
        whole = hessian_diag_gn(spec, w, x, y).values
        monkeypatch.setattr(refnet, "_FACTOR_BYTES", factor_budget(spec, 3))
        blocked = hessian_diag_gn(spec, w, x, y).values
        assert np.array_equal(blocked, whole)


class TestAdamCurvature:
    def test_square_root_of_corrected_moment(self):
        from netquant import AdamState

        # after one step, the bias correction divides by (1 - beta2)
        state = AdamState(step=1, v=np.array([4.0, 9.0]) * (1 - 0.999))
        cv = adam_curvature(state)
        assert np.allclose(cv.as_f64(), [2.0, 3.0], rtol=1e-6)
        assert cv.source == CurvatureSource.ADAM_SQRT_MOMENT

    def test_zero_moments_yield_curvature_floor(self):
        from netquant import AdamState

        state = AdamState(step=3, v=np.zeros(4))
        cv = adam_curvature(state)
        assert np.array_equal(cv.values, np.full(4, np.float32(CURVATURE_FLOOR)))


class TestPruning:
    def test_smallest_magnitudes_pruned(self):
        ps = ParamSet.from_flat([0.1, -0.5, 0.01, 2.0])
        mask = prune_magnitude(ps, 0.5)
        assert np.array_equal(mask.kept, [False, True, False, True])

    def test_fraction_zero_keeps_all(self):
        ps = ParamSet.from_flat([1.0, 2.0])
        assert prune_magnitude(ps, 0.0).kept.all()

    def test_tie_prunes_lower_index(self):
        ps = ParamSet.from_flat([1.0, 1.0, 1.0, 1.0])
        mask = prune_magnitude(ps, 0.25)
        assert np.array_equal(mask.kept, [False, True, True, True])

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        st.lists(st.integers(-4, 4), min_size=1, max_size=300),
        st.one_of(st.just(0.0), st.floats(0.0, 0.999)),
    )
    def test_matches_stable_sort_oracle(self, ints, fraction):
        ps = ParamSet.from_flat(np.array(ints) / 8.0)  # many magnitude ties
        mask = prune_magnitude(ps, fraction)
        assert np.array_equal(mask.kept, prune_mask_by_sort(ps.as_f64(), fraction))

    def test_popcount_matches_fraction(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 500))
            ps = ParamSet.from_flat(rng.normal(size=n))
            fraction = float(rng.uniform(0, 0.99))
            mask = prune_magnitude(ps, fraction)
            assert mask.n_kept == n - int(fraction * n)

    @pytest.mark.parametrize("fraction", [0.0, 0.3])
    def test_mask_holds_the_array_it_marked(self, monkeypatch, fraction):
        """The record takes the keep-array as it is, without a copy."""
        marked = []

        class Recorded(refnet.PruneMask):
            def __post_init__(self):
                marked.append(self.kept)
                super().__post_init__()

        monkeypatch.setattr(refnet, "PruneMask", Recorded)
        mask = prune_magnitude(ParamSet.from_flat(np.arange(10.0)), fraction)
        assert mask.kept is marked[0]


class TestEvalAccuracy:
    def test_memorized_set_is_perfect(self):
        ds = make_blobs(60, 2, 2, seed=9, center_spread=5.0, noise=0.3)
        model = train_adam(MlpSpec((2, 12, 2)), ds, TrainConfig(steps=400, seed=9))
        x, y = ds.split("eval")
        assert eval_accuracy(MlpSpec((2, 12, 2)), model.params, x, y) == 1.0

    def test_untrained_is_chance_level(self):
        rng = np.random.default_rng(10)
        c = 4
        spec = MlpSpec((6, 8, c))
        w = init_params(spec, 0)
        x = rng.normal(size=(4000, 6))
        y = rng.integers(0, c, 4000)
        acc = eval_accuracy(spec, w, x, y)
        sigma = np.sqrt(0.25 * 0.75 / 4000)
        assert abs(acc - 1.0 / c) <= 5 * sigma

    def test_identity_quantizer_changes_nothing(self):
        ds = make_blobs(150, 3, 3, seed=11)
        spec = MlpSpec((3, 10, 3))
        model = train_adam(spec, ds, TrainConfig(steps=200, seed=11))
        x, y = ds.split("eval")
        w = model.params.as_f64()
        cb = Codebook(w, np.ones(w.size, dtype=np.int64))
        assignment = np.arange(w.size)
        assert eval_accuracy(spec, dequantize(assignment, cb), x, y) == eval_accuracy(
            spec, model.params, x, y
        )

    def test_empty_split_rejected(self):
        spec = MlpSpec((2, 2))
        with pytest.raises(ValueError):
            eval_accuracy(spec, np.zeros(6), np.zeros((0, 2)), np.zeros(0, dtype=int))


class TestFineTuneCenters:
    def _shared_center_setup(self):
        # Linear single-output net, one sample x=(1,3), weights w1=w2=c0=0.5,
        # bias in its own cluster at 0. Prediction 2.0 vs one-hot target 1.0
        # leaves residual 1.0, so member gradients are x = (1, 3): the shared
        # center must accumulate their sum, 4.
        spec = MlpSpec((2, 1), activation="none", loss="mean_square_error")
        assignment = np.array([0, 0, 1])
        codebook = Codebook([0.5, 0.0], [2, 1])
        ds = Dataset(
            np.array([[1.0, 3.0]]),
            np.array([0]),
            {"train": np.array([0]), "eval": np.array([0])},
        )
        return spec, assignment, codebook, ds

    def test_center_gradient_is_member_sum(self):
        spec, assignment, codebook, ds = self._shared_center_setup()
        lr = 0.01
        tuned = fine_tune_centers(
            spec, assignment, codebook, ds, FineTuneConfig(steps=1, batch_size=1, lr=lr)
        )
        assert tuned.centers[0] == pytest.approx(0.5 - lr * 4.0, rel=1e-12)
        assert tuned.centers[1] == pytest.approx(0.0 - lr * 1.0, rel=1e-12)

    def test_zero_learning_rate_is_identity(self):
        spec, assignment, codebook, ds = self._shared_center_setup()
        tuned = fine_tune_centers(
            spec, assignment, codebook, ds, FineTuneConfig(steps=5, batch_size=1, lr=0.0)
        )
        assert np.array_equal(tuned.centers, codebook.centers)
        assert np.array_equal(tuned.counts, codebook.counts)

    def test_desk_scale_finetune_never_hurts_much(self):
        pre_accs, post_accs = [], []
        for seed in range(10):
            ds = make_blobs(800, 4, 8, seed=seed, noise=1.2)
            spec = MlpSpec((8, 24, 12, 4))
            model = train_adam(spec, ds, TrainConfig(steps=500, seed=seed))
            cv = hessian_diag_gn(spec, model.params, *ds.split("hessian"))
            res = kmeans_sweep(model.params, cv, [8])[0]
            assignment, codebook = res.assignment, res.codebook
            x, y = ds.split("eval")
            pre_accs.append(
                eval_accuracy(spec, dequantize(assignment, codebook), x, y)
            )
            tuned = fine_tune_centers(
                spec,
                assignment,
                codebook,
                ds,
                FineTuneConfig(steps=200, batch_size=64, lr=1e-5, seed=seed),
            )
            assert np.array_equal(tuned.counts, codebook.counts)
            post_accs.append(eval_accuracy(spec, dequantize(assignment, tuned), x, y))
        assert np.mean(post_accs) >= np.mean(pre_accs) - 0.001


class TestDatasets:
    def test_blobs_deterministic(self):
        a = make_blobs(100, 3, 4, seed=3)
        b = make_blobs(100, 3, 4, seed=3)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.splits["train"], b.splits["train"])

    def test_hessian_split_falls_back_to_train(self):
        ds = make_blobs(80, 2, 3, seed=4)
        hx, hy = ds.split("hessian")
        tx, ty = ds.split("train")
        assert np.array_equal(hx, tx) and np.array_equal(hy, ty)

    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(12)
        rows = np.column_stack(
            [rng.integers(0, 3, 30).astype(float), rng.normal(size=(30, 5))]
        )
        path = tmp_path / "data.csv"
        np.savetxt(path, rows, delimiter=",")
        ds = load_csv(path, eval_frac=0.2, seed=0)
        assert ds.n_features == 5
        assert ds.n_classes == 3
        assert ds.splits["eval"].size == 6

    def test_csv_labels_stay_below_the_row_count(self, tmp_path):
        path = tmp_path / "data.csv"
        np.savetxt(path, [[label, 0.5] for label in (0, 1, 2, 3)], delimiter=",")
        assert load_csv(path).n_classes == 4
        np.savetxt(path, [[label, 0.5] for label in (0, 1, 2, 4)], delimiter=",")
        with pytest.raises(ValueError, match="^label 4 is not below the row count 4$"):
            load_csv(path)

    @pytest.mark.parametrize("labels", [np.eye(3), np.zeros((3, 1))], ids=["one-hot", "column"])
    def test_label_matrix_refused(self, labels):
        """Labels are class indices: a float target matrix, which training
        would run on to the end and then fail to score, is refused."""
        with pytest.raises(ValueError, match="^class labels must be a flat vector$"):
            Dataset(np.zeros((3, 2)), labels, {"train": [0, 1, 2]})
