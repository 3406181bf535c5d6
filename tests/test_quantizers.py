"""Quantizer correctness against small hand-checked cases and brute-force
partition enumeration."""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netquant import (
    CURVATURE_FLOOR,
    Codebook,
    compact_codebook,
    dequantize,
    ecsq_iterate,
    hw_distortion,
    kmeans_sweep,
    msqe,
    quantizers,
    scatter_dequantize,
    solve_lambda,
    uniform_quantize,
)
from netquant.coding import entropy_bits
from oracles import (
    best_moves_table,
    cluster_sums_whole,
    codebook_whole,
    ecsq_iterate_tables,
    global_optimum,
    lagrangian_cost,
    one_move_stable,
    optimal_bounds_ranges,
    weighted_cost,
)


# ---------------------------------------------------------------------------
# Distortion measures
# ---------------------------------------------------------------------------


class TestDistortions:
    def test_msqe_single_center(self):
        cb = Codebook([2.5], [4])
        assert msqe([1.0, 2.0, 3.0, 4.0], [0, 0, 0, 0], cb) == pytest.approx(5.0)

    def test_msqe_identity_quantizer_is_zero(self):
        v = np.array([0.3, -1.2, 5.0])
        cb = Codebook(v, [1, 1, 1])
        assert msqe(v, [0, 1, 2], cb) == 0.0

    def test_msqe_exact_clusters(self):
        cb = Codebook([0.0, 10.0], [2, 2])
        assert msqe([0.0, 0.0, 10.0, 10.0], [0, 0, 1, 1], cb) == 0.0

    def test_hw_uniform_curvature_equals_msqe(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=50)
        assign = rng.integers(0, 3, 50)
        cb = Codebook(rng.normal(size=3), np.bincount(assign, minlength=3))
        assert hw_distortion(v, np.ones(50), assign, cb) == pytest.approx(
            msqe(v, assign, cb)
        )

    def test_hw_hand_case(self):
        cb = Codebook([3.0], [2])
        assert hw_distortion([0.0, 4.0], [1.0, 3.0], [0, 0], cb) == pytest.approx(12.0)

    def test_hw_zero_on_exact_quantization(self):
        v = np.array([1.0, 2.0])
        cb = Codebook(v, [1, 1])
        assert hw_distortion(v, [5.0, 7.0], [0, 1], cb) == 0.0


class TestCodebook:
    def test_leaves_the_callers_arrays_writeable(self):
        centers, counts = np.zeros(2), np.array([1, 2])
        cb = Codebook(centers, counts)
        centers[0], counts[0] = 1.0, 5
        assert cb.centers[0] == 0.0 and cb.counts[0] == 1
        assert not cb.centers.flags.writeable and not cb.counts.flags.writeable

    def test_shares_arrays_already_read_only(self):
        cb = Codebook(np.zeros(2), np.array([1, 2]))
        again = Codebook(cb.centers, cb.counts)
        assert again.centers is cb.centers and again.counts is cb.counts


class TestDequantize:
    def test_definition(self):
        cb = Codebook([2.0, -1.0], [2, 1])
        assert np.array_equal(dequantize([0, 1, 0], cb), [2.0, -1.0, 2.0])

    def test_identity_codebook(self):
        v = np.array([0.5, 0.25, -3.0])
        cb = Codebook(v, [1, 1, 1])
        assert np.array_equal(dequantize([0, 1, 2], cb), v)

    def test_empty_assignment(self):
        cb = Codebook([1.0], [0])
        assert dequantize([], cb).size == 0

    def test_out_of_range_rejected(self):
        cb = Codebook([1.0], [1])
        with pytest.raises(ValueError):
            dequantize([1], cb)

    def test_scatter_with_positions(self):
        cb = Codebook([2.0, 3.0], [1, 1])
        out = scatter_dequantize(5, [0, 1], cb, positions=[1, 4])
        assert np.array_equal(out, [0.0, 2.0, 0.0, 0.0, 3.0])

    @pytest.mark.parametrize("positions", [[1, 7], [-1, 2], [1, 5], [-6, 2]])
    @pytest.mark.parametrize("block", [1, 8192], ids=["block-1", "block-8192"])
    def test_scatter_rejects_position_outside_total(self, positions, block):
        """A bad position in any block is a ValueError; it neither raises a
        bare IndexError nor wraps round to a slot from the end."""
        cb = Codebook([2.0, 3.0], [1, 1])
        with mock.patch.object(quantizers, "_BLOCK_BYTES", 8 * block):
            with pytest.raises(ValueError, match=r"position outside \[0, 5\)"):
                scatter_dequantize(5, [0, 1], cb, positions=positions)


# ---------------------------------------------------------------------------
# Exact k-means
# ---------------------------------------------------------------------------


class TestKmeans:
    def test_separable_symmetric(self):
        res = kmeans_sweep([0.0, 0.0, 10.0, 10.0], None, [2])[0]
        assert sorted(res.codebook.centers) == [0.0, 10.0]
        assert msqe([0, 0, 10, 10], res.assignment, res.codebook) == 0.0

    def test_three_points_matches_enumeration(self):
        v = np.array([0.0, 1.0, 9.0])
        h = np.ones(3)
        res = kmeans_sweep(v, None, [2])[0]
        got = msqe(v, res.assignment, res.codebook)
        best, best_assign = global_optimum(v, h, 2)
        assert got == pytest.approx(best)  # 0.5, clusters {0,1},{9}
        assert got == pytest.approx(0.5)
        assert np.array_equal(res.assignment, best_assign)

    def test_k1_center_is_mean(self):
        v = np.array([1.0, 2.0, 6.0])
        res = kmeans_sweep(v, None, [1])[0]
        assert res.codebook.centers[0] == pytest.approx(v.mean())

    def test_counts_sum_and_trace_monotone(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            v = rng.normal(size=int(rng.integers(5, 300)))
            k = int(rng.integers(1, 9))
            res = kmeans_sweep(v, None, [k])[0]
            assert res.codebook.counts.sum() == v.size
            assert np.all(np.diff(res.trace) <= 0)

    def test_scale_covariance_power_of_two(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=120)
        res1 = kmeans_sweep(v, None, [5])[0]
        res4 = kmeans_sweep(4.0 * v, None, [5])[0]
        assert np.array_equal(res1.assignment, res4.assignment)
        assert np.array_equal(4.0 * res1.codebook.centers, res4.codebook.centers)

    def test_degenerate_all_equal(self):
        res = kmeans_sweep(np.full(10, 3.25), None, [4])[0]
        assert res.codebook.counts.sum() == 10
        assert res.codebook.counts.max() == 10  # one live cluster


class TestHwKmeans:
    def test_uniform_curvature_degeneracy(self):
        rng = np.random.default_rng(21)
        v = rng.normal(size=200)
        plain = kmeans_sweep(v, None, [6])[0]
        weighted = kmeans_sweep(v, np.full(200, 2.0), [6])[0]
        assert np.array_equal(plain.assignment, weighted.assignment)

    def test_weighted_mean_k1(self):
        res = kmeans_sweep([0.0, 4.0], [1.0, 3.0], [1])[0]
        assert res.codebook.centers[0] == pytest.approx(3.0)

    def test_weighting_breaks_msqe_tie(self):
        # Plain squared error ties {{-1},{0,1}} with {{-1,0},{1}} at 0.5;
        # the 4x curvature on -1 makes the first strictly better (0.5 vs 0.8).
        v = np.array([-1.0, 0.0, 1.0])
        h = np.array([4.0, 1.0, 1.0])
        res = kmeans_sweep(v, h, [2])[0]
        assert np.array_equal(res.assignment, [0, 1, 1])
        assert np.allclose(res.codebook.centers, [-1.0, 0.5])
        got = hw_distortion(v, h, res.assignment, res.codebook)
        assert got == pytest.approx(0.5)
        best, _ = global_optimum(v, h, 2)
        assert got == pytest.approx(best)
        alt = weighted_cost(v, h, [0, 0, 1], 2)
        assert alt == pytest.approx(0.8)

    def test_trace_monotone_weighted(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            v = rng.normal(size=150)
            h = rng.uniform(0.1, 5.0, 150)
            res = kmeans_sweep(v, h, [5])[0]
            assert np.all(np.diff(res.trace) <= 0)

    def test_converged_centers_are_weighted_means(self):
        rng = np.random.default_rng(17)
        v = rng.normal(size=100)
        h = rng.uniform(0.5, 2.0, 100)
        res = kmeans_sweep(v, h, [4])[0]
        for j in range(4):
            member = res.assignment == j
            expect = np.sum(h[member] * v[member]) / np.sum(h[member])
            assert res.codebook.centers[j] == pytest.approx(expect, rel=1e-12)


class TestUniform:
    def test_hand_case(self):
        res = uniform_quantize([0.0, 1.0, 2.0, 3.0], k=2)
        assert np.array_equal(res.assignment, [0, 0, 1, 1])
        assert np.allclose(res.codebook.centers, [0.5, 2.5])

    def test_k1_single_cluster_mean(self):
        res = uniform_quantize([1.0, 5.0], k=1)
        assert res.codebook.k == 1
        assert res.codebook.centers[0] == pytest.approx(3.0)

    def test_empty_bins_compacted(self):
        res = uniform_quantize([0.0, 0.0, 0.0, 4.0], k=4)
        assert res.codebook.k == 2  # only the first and last bin are occupied
        assert np.allclose(res.codebook.centers, [0.0, 4.0])
        assert np.array_equal(res.codebook.counts, [3, 1])

    def test_degenerate_range(self):
        res = uniform_quantize(np.full(5, 2.0), k=8)
        assert res.codebook.k == 1

    def test_weighted_center_rule(self):
        res = uniform_quantize(
            [0.0, 4.0, 100.0],
            [1.0, 3.0, 1.0],
            k=2,
            center_rule="hessian_weighted_mean",
        )
        assert res.codebook.centers[0] == pytest.approx(3.0)

    def test_weighted_rule_requires_curvature(self):
        """Without curvature the weighted rule weights by ones: the mean rule."""
        v = np.random.default_rng(8).normal(size=500)
        weighted = uniform_quantize(v, k=7, center_rule="hessian_weighted_mean")
        plain = uniform_quantize(v, k=7)
        assert weighted.assignment.tobytes() == plain.assignment.tobytes()
        assert weighted.codebook.centers.tobytes() == plain.codebook.centers.tobytes()
        assert np.array_equal(weighted.codebook.counts, plain.codebook.counts)


class TestUnitCurvature:
    """A curvature of None is unit weights: every solver returns, bit for
    bit, what an explicit array of ones gives it."""

    @staticmethod
    def assert_same(a, b):
        assert a.assignment.dtype == b.assignment.dtype
        assert a.assignment.tobytes() == b.assignment.tobytes()
        assert a.codebook.centers.tobytes() == b.codebook.centers.tobytes()
        assert a.codebook.counts.tobytes() == b.codebook.counts.tobytes()
        assert a.trace.tobytes() == b.trace.tobytes()

    @settings(max_examples=40, deadline=None, database=None)
    @given(draws=st.data())
    def test_none_is_ones(self, draws):
        n = draws.draw(st.integers(1, 120), label="n")
        rng = np.random.default_rng(draws.draw(st.integers(0, 2**32 - 1), label="seed"))
        if draws.draw(st.booleans(), label="grid"):  # duplicates are common
            v = rng.integers(-20, 21, n) * draws.draw(st.sampled_from([0.25, 1e-3]))
        else:
            v = rng.normal(size=n) * 10.0 ** draws.draw(st.integers(-3, 3), label="scale")
        k = draws.draw(st.integers(1, min(16, n)), label="k")
        ones = np.ones(n)

        for a, b in zip(kmeans_sweep(v, None, [k, 2 * k]), kmeans_sweep(v, ones, [k, 2 * k])):
            self.assert_same(a, b)
            assert hw_distortion(v, None, a.assignment, a.codebook) == hw_distortion(
                v, ones, a.assignment, a.codebook
            )
        rule = "hessian_weighted_mean"
        self.assert_same(uniform_quantize(v, None, k, rule), uniform_quantize(v, ones, k, rule))
        lam = 10.0 ** draws.draw(st.floats(-6.0, -1.0), label="lam") * (np.ptp(v) ** 2 or 1.0)
        self.assert_same(ecsq_iterate(v, None, k, lam), ecsq_iterate(v, ones, k, lam))
        target = draws.draw(st.floats(0.1, 3.0), label="target entropy")
        a, b = solve_lambda(v, None, k, target), solve_lambda(v, ones, k, target)
        assert (a.lam, a.met, a.entropy) == (b.lam, b.met, b.entropy)
        self.assert_same(a.result, b.result)


# ---------------------------------------------------------------------------
# Rate-penalized clustering
# ---------------------------------------------------------------------------


class TestEcsq:
    def test_lam_zero_matches_weighted_lloyd(self):
        rng = np.random.default_rng(31)
        v = rng.normal(size=100)
        h = rng.uniform(0.2, 3.0, 100)
        exact = kmeans_sweep(v, h, [5])[0]
        ecsq = ecsq_iterate(v, h, 5, 0.0)
        assert np.array_equal(exact.assignment, ecsq.assignment)
        assert np.array_equal(exact.codebook.centers, ecsq.codebook.centers)

    def test_huge_lam_collapses_to_one_cluster(self):
        v = np.array([0.0, 1.0, 9.0])
        h = np.ones(3)
        lam = 1e6 * 81.0
        res = ecsq_iterate(v, h, 3, lam)
        counts = res.codebook.counts
        assert np.count_nonzero(counts) == 1
        assert entropy_bits(counts) == 0.0
        best, best_assign = global_optimum(v, h, 3, lam=lam)
        assert len(set(best_assign)) == 1  # single cluster is globally optimal
        assert res.trace[-1] == pytest.approx(best)

    def test_small_instance_reaches_fixed_point_near_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(8):
            v = rng.normal(size=9)
            h = rng.uniform(0.2, 2.0, 9)
            lam = float(rng.uniform(0.0, 0.5))
            res = ecsq_iterate(v, h, 3, lam)
            got = lagrangian_cost(v, h, res.assignment, res.codebook.k, lam)
            best, _ = global_optimum(v, h, 3, lam=lam)
            assert got >= best - 1e-12 * max(1.0, abs(best))
            assert one_move_stable(v, h, res.assignment, res.codebook.k, lam=lam)

    def test_trace_monotone(self):
        rng = np.random.default_rng(41)
        for lam in (0.0, 0.01, 0.1, 1.0):
            v = rng.normal(size=200)
            h = rng.uniform(0.5, 2.0, 200)
            res = ecsq_iterate(v, h, 6, lam)
            assert np.all(np.diff(res.trace) <= 0)

    @pytest.mark.parametrize("a, b", [(1e-2, 1e-3), (1e-3, 1e-4), (10.0, 100.0)])
    def test_assignment_is_scale_equivariant(self, a, b):
        # Scaling values by a and curvature by b scales J by a**2 * b at
        # lam * a**2 * b, so every solve must pick the unit-scale assignment.
        for seed in range(30):
            rng = np.random.default_rng(seed)
            v, h = rng.standard_t(4, 400), rng.lognormal(0.0, 1.0, 400)
            lam = float(10.0 ** rng.uniform(-3.0, -1.0))
            unit = ecsq_iterate(v, h, 8, lam)
            scaled = ecsq_iterate(v * a, h * b, 8, lam * a * a * b)
            assert np.array_equal(unit.assignment, scaled.assignment), seed

    def test_retired_clusters_stay_retired(self):
        rng = np.random.default_rng(43)
        v = rng.normal(size=300)
        h = np.ones(300)
        res = ecsq_iterate(v, h, 16, 0.5)
        # heavy rate pressure retires clusters; survivors cover everything
        assert res.codebook.counts.sum() == 300
        compact_a, compact_cb = compact_codebook(res.assignment, res.codebook)
        assert compact_cb.k == np.count_nonzero(res.codebook.counts)
        assert compact_cb.counts.min() > 0
        assert np.array_equal(
            np.bincount(compact_a, minlength=compact_cb.k), compact_cb.counts
        )

    @pytest.mark.parametrize(
        "solver, k, x",
        [
            (ecsq_iterate, 0, 1e-3),
            (ecsq_iterate, 4, -1.0),
            (ecsq_iterate, 4, np.nan),
            (ecsq_iterate, 4, np.inf),
            (solve_lambda, 4, np.nan),
        ],
        ids=["k-zero", "lam-negative", "lam-nan", "lam-inf", "target-nan"],
    )
    def test_rejects_k_below_one_and_lam_or_target_out_of_domain(self, solver, k, x):
        v, h = heavy_tailed(500)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                solver(v, h, k, x)


class TestCenterOptimality:
    """At a converged fixed point, nudging any center can only hurt."""

    def _check(self, v, h, res, lam=None):
        spread = v.max() - v.min()
        delta = 1e-3 * spread
        base = weighted_cost_fixed_centers(v, h, res.assignment, res.codebook.centers)
        for j in range(res.codebook.k):
            for sign in (+1.0, -1.0):
                centers = res.codebook.centers.copy()
                centers[j] += sign * delta
                perturbed = weighted_cost_fixed_centers(v, h, res.assignment, centers)
                assert perturbed >= base - 1e-9 * max(base, 1.0)

    def test_kmeans_and_weighted(self):
        rng = np.random.default_rng(47)
        v = rng.normal(size=80)
        h = rng.uniform(0.3, 3.0, 80)
        self._check(v, np.ones(80), kmeans_sweep(v, None, [4])[0])
        self._check(v, h, kmeans_sweep(v, h, [4])[0])

    def test_ecsq(self):
        rng = np.random.default_rng(53)
        v = rng.normal(size=80)
        h = rng.uniform(0.3, 3.0, 80)
        res = ecsq_iterate(v, h, 4, 0.05)
        self._check(v, h, res)


def weighted_cost_fixed_centers(v, h, assign, centers):
    r = v - centers[np.asarray(assign)]
    return float(np.sum(h * r * r))


class TestOneMoveStability:
    def test_lloyd_variants(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            v = rng.normal(size=60)
            h = rng.uniform(0.2, 4.0, 60)
            res = kmeans_sweep(v, None, [4])[0]
            assert one_move_stable(v, np.ones(60), res.assignment, 4)
            res = kmeans_sweep(v, h, [4])[0]
            assert one_move_stable(v, h, res.assignment, 4)

    def test_escapes_voronoi_trap(self):
        # From centers {0, 1.75}, plain alternation settles on {0},{1, 2.5}
        # (cost 1.125) even though moving the middle point is better (0.5).
        v = np.array([0.0, 1.0, 2.5])
        res = kmeans_sweep(v, None, [2])[0]
        assert msqe(v, res.assignment, res.codebook) == pytest.approx(0.5)


def heavy_tailed(n):
    """Student-t weights with log-normal curvature, like a trained net's."""
    rng = np.random.default_rng(0)
    return rng.standard_t(4, n) * 0.05, rng.lognormal(0.0, 1.0, n)


class TestBoundedBlocks:
    """ECSQ scores points one cluster column at a time inside row blocks, so
    no n x k table exists and results do not depend on the block size."""

    def test_peak_memory_below_one_table(self):
        n, k = 20_000, 64
        v, h = heavy_tailed(n)
        tracemalloc.start()
        try:
            ecsq_iterate(v, h, k, 1e-5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * k * 8

    @pytest.mark.parametrize(
        "k, lam, live", [(6, 1e-4, 6), (16, 1e-3, 8)], ids=["all-live", "retired"]
    )
    def test_results_independent_of_block_size(self, monkeypatch, k, lam, live):
        v, h = heavy_tailed(300)
        moves = []
        stabilize = quantizers._stabilize

        def counted(*args):
            assign, made = stabilize(*args)
            moves.append(made)
            return assign, made

        monkeypatch.setattr(quantizers, "_stabilize", counted)
        whole = ecsq_iterate(v, h, k, lam)
        assert sum(moves) > 0  # the polish ran and moved points
        monkeypatch.setattr(quantizers, "_BLOCK_BYTES", 3 * 8)  # 3 rows a block
        blocked = ecsq_iterate(v, h, k, lam)
        assert np.count_nonzero(whole.codebook.counts) == live
        assert np.array_equal(whole.assignment, blocked.assignment)
        assert np.array_equal(whole.codebook.centers, blocked.codebook.centers)
        assert np.array_equal(whole.trace, blocked.trace)


@st.composite
def ecsq_instances(draw):
    """Grid values (so duplicates are common) with unit, log-normal or
    floored curvature, where the floored kind puts weights of 1e6 to 1e8
    beside ``CURVATURE_FLOOR`` entries: the floors vanish in the rounding of
    a heavy cluster's weight sum, so a heavy point alone among floors has
    ``S - h == 0`` and a NaN removal term. ``lam`` is log-uniform over
    [1e-9, 1e-1] times ``h.max() * ptp(v)**2``."""
    n = draw(st.integers(1, 400))
    k = draw(st.integers(1, min(64, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.integers(1, 60))
    v = rng.integers(-levels, levels + 1, n) * draw(st.sampled_from([0.25, 1e-3]))
    kind = draw(st.sampled_from(["unit", "lognormal", "floored"]))
    if kind == "unit":
        h = np.ones(n)
    elif kind == "lognormal":
        h = rng.lognormal(0.0, 1.0, n)
    else:
        h = np.full(n, CURVATURE_FLOOR)
        mid = rng.random(n) < draw(st.sampled_from([0.0, 0.2]))
        h[mid] = rng.lognormal(0.0, 1.0, int(mid.sum()))
        heavy = rng.choice(n, draw(st.integers(1, k)), replace=False)
        h[heavy] = 10.0 ** rng.uniform(6.0, 8.0, heavy.size)
    scale = float(h.max()) * (float(np.ptp(v)) ** 2 or 1.0)
    lam = 10.0 ** draw(st.floats(-9.0, -1.0)) * scale
    return v, h, k, lam


class TestColumnKernel:
    """ECSQ scores one cluster column at a time; it must return exactly
    what one ``n x k`` table per step and per scan gives."""

    @settings(max_examples=300, deadline=None)
    @given(case=ecsq_instances(), blocks=st.integers(1, 6))
    def test_equals_table_oracle_bit_for_bit(self, case, blocks):
        v, h, k, lam = case
        rows = -(-v.size // blocks)
        with mock.patch.object(quantizers, "_BLOCK_BYTES", 8 * rows):
            got = ecsq_iterate(v, h, k, lam)
        want = ecsq_iterate_tables(v, h, k, lam)
        assert np.array_equal(got.assignment, want.assignment)
        assert np.array_equal(got.codebook.centers, want.codebook.centers)
        assert np.array_equal(got.codebook.counts, want.codebook.counts)
        assert np.array_equal(got.trace, want.trace)

    @settings(max_examples=300, deadline=None)
    @given(case=ecsq_instances(), seed=st.integers(0, 2**32 - 1))
    def test_scan_equals_table_oracle(self, case, seed):
        # Random assignments, then random transfers: the incremental sums
        # drift from a fresh bincount, as they do inside the polish.
        v, h, k, lam = case
        rng = np.random.default_rng(seed)
        used = rng.choice(k, rng.integers(1, k + 1), replace=False)
        stats = quantizers._ClusterSums(v, h, rng.choice(used, v.size), k)
        for i in rng.integers(0, v.size, rng.integers(0, 2 * v.size + 1)):
            stats.apply(i, rng.choice(used))
        rows = max(1, v.size // int(rng.integers(1, 7)))
        with mock.patch.object(quantizers, "_BLOCK_BYTES", 8 * rows):
            dst, delta = quantizers._best_moves(stats, lam)
        with np.errstate(invalid="ignore"):  # the table adds inf and -inf
            want_dst, want_delta = best_moves_table(stats, lam)
        assert np.array_equal(delta, want_delta, equal_nan=True)
        ok = ~np.isnan(delta)  # the table takes the first NaN column
        assert np.array_equal(dst[ok], want_dst[ok])


class TestClusterSums:
    """Every codebook and the polish's sums come from ``_ClusterSums``,
    which adds block by block what one whole-array ``np.bincount`` adds."""

    @settings(max_examples=200, deadline=None)
    @given(draws=st.data())
    def test_equals_bincount_bit_for_bit(self, draws):
        n = draws.draw(st.integers(1, 300), label="n")
        k = draws.draw(st.integers(1, 40), label="k")
        dtype = draws.draw(st.sampled_from([np.uint8, np.uint16, np.int64]), label="dtype")
        rng = np.random.default_rng(draws.draw(st.integers(0, 2**32 - 1), label="seed"))
        used = rng.choice(k, rng.integers(1, k + 1), replace=False)
        assign = rng.choice(used, n).astype(dtype)
        v = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n)
        weighted = draws.draw(st.booleans(), label="weighted")
        h = rng.lognormal(0.0, 1.0, n) if weighted else None
        rows = draws.draw(st.integers(1, n + 1), label="rows per block")
        fallback = rng.normal(size=k)
        with mock.patch.object(quantizers, "_BLOCK_BYTES", 8 * rows):
            sums = quantizers._ClusterSums(v, h, assign, k)
        got = (sums.wsum, sums.wval, sums.counts)
        for a, b in zip(got, cluster_sums_whole(v, h, assign, k)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        book, want = sums.codebook(fallback), codebook_whole(v, h, assign, k, fallback)
        assert book.centers.tobytes() == want.centers.tobytes()
        assert np.array_equal(book.counts, want.counts)
        empty = np.setdiff1d(np.arange(k), used)
        assert np.array_equal(book.centers[empty], fallback[empty])

        # Moves keep the counts and the assignment exact.
        w = np.ones(n) if h is None else h
        moved = quantizers._ClusterSums(v, w, assign.copy(), k)
        expect = assign.astype(np.int64)
        for i, dst in zip(rng.integers(0, n, 2 * n), rng.integers(0, k, 2 * n)):
            moved.apply(i, dst)
            expect[i] = dst
        assert np.array_equal(moved.assign, expect)
        assert np.array_equal(moved.counts, np.bincount(expect, minlength=k))

    def test_apply_after_codebook(self):
        """A codebook taken from the sums leaves them free to move points."""
        sums = quantizers._ClusterSums(np.arange(3.0), np.ones(3), np.array([0, 0, 1]), 2)
        book = sums.codebook(np.zeros(2))
        sums.apply(0, 1)
        assert sums.counts.tolist() == [1, 2] and book.counts.tolist() == [2, 1]
        assert sums.assign.tolist() == [1, 0, 1]


class TestBlockSlices:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 200), block_bytes=st.integers(1, 300))
    def test_cover_the_range_once_in_order(self, n, block_bytes):
        """Every blocked walk takes these slices: full blocks of
        ``max(1, _BLOCK_BYTES // 8)`` entries, then the remainder."""
        with mock.patch.object(quantizers, "_BLOCK_BYTES", block_bytes):
            slices = list(quantizers.block_slices(n))
        assert [i for b in slices for i in range(n)[b]] == list(range(n))
        step = max(1, block_bytes // 8)
        assert [b.stop - b.start for b in slices[:-1]] == [step] * (len(slices) - 1)
        assert all(0 < b.stop - b.start <= step for b in slices)


@st.composite
def grid_values_with_duplicates(draw):
    """Up to 8 values on a 0.25 grid, at least one of them repeated, plus
    positive curvature. Distinct values are 0.25 apart, so any partition
    that merges two of them costs at least ~3e-3, far above float64
    rounding of the objective."""
    n = draw(st.integers(1, 8))
    pool = draw(
        st.lists(st.integers(-40, 40), min_size=1, max_size=max(1, n - 1), unique=True)
    )
    picks = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    h = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    k = draw(st.integers(1, 4))
    return np.array(picks) / 4.0, np.array(h), k


class TestExactOptimum:
    """Both k-means variants reach the brute-force global optimum."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(grid_values_with_duplicates())
    def test_matches_enumeration(self, case):
        v, h, k = case
        for weights, res in (
            (np.ones(v.size), kmeans_sweep(v, None, [k])[0]),
            (h, kmeans_sweep(v, h, [k])[0]),
        ):
            got = weighted_cost(v, weights, res.assignment, k)
            best, _ = global_optimum(v, weights, k)
            # The absolute slack only covers zero-cost optima, where a
            # weighted mean of duplicates may differ from them by an ulp.
            assert got == pytest.approx(best, rel=1e-12, abs=1e-20)
            assert res.trace.size == 1
            assert res.codebook.counts.sum() == v.size
            distinct = np.unique(v).size
            if k > distinct:
                assert np.count_nonzero(res.codebook.counts) == distinct

    @staticmethod
    def _quiet_hw_kmeans(v, h, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return kmeans_sweep(v, h, [k])[0]

    def test_weight_below_prefix_sum_resolution(self):
        # 1e-20 vanishes next to the running weight sum of 1, so the run
        # holding only that value has zero weight in the prefix sums.
        v, h = np.array([0.0, 1.0, 2.0]), np.array([1.0, 1e-20, 1.0])
        res = self._quiet_hw_kmeans(v, h, 2)
        best, _ = global_optimum(v, h, 2)
        assert weighted_cost(v, h, res.assignment, 2) == pytest.approx(best, rel=1e-12)

    def test_floored_curvature_at_large_weight_sum(self):
        # Past a weight sum of 2**14, a floored curvature entry is below
        # half an ulp of the running sum.
        block = 20_000
        x = np.array([0.0, 1.0, 5.0, 6.0, 10.0])
        w = np.array([1.0, CURVATURE_FLOOR, 1.0, CURVATURE_FLOOR, 1.0])
        reps = np.array([block, 1, block, 1, block])
        v, h = np.repeat(x, reps), np.repeat(w, reps)
        res = self._quiet_hw_kmeans(v, h, 3)
        assert res.codebook.counts.sum() == v.size
        got = weighted_cost(v, h, res.assignment, 3)
        # Duplicates never need splitting, so the merged values give the
        # optimum; the DP resolves it up to its documented rounding bound.
        best, _ = global_optimum(x, w * reps, 3)
        mean = np.dot(h, v) / h.sum()
        slack = v.size * np.finfo(float).eps * np.dot(h, (v - mean) ** 2)
        assert got == pytest.approx(best, abs=slack)


@st.composite
def sweep_cases(draw):
    """Values on a 0.25 grid with repeats, positive weights, and a k-list
    that may be unsorted, repeat entries and exceed the distinct count.
    Up to 10 values use at most 6 distinct ones, small enough for the
    brute-force oracle."""
    n = draw(st.integers(1, 40))
    pool = draw(
        st.lists(
            st.integers(-40, 40), min_size=1, max_size=6 if n <= 10 else 20, unique=True
        )
    )
    picks = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    h = draw(st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n))
    ks = draw(st.lists(st.integers(1, len(pool) + 3), min_size=1, max_size=6))
    return np.array(picks) / 4.0, np.array(h), ks


class TestKmeansSweep:
    """One DP answers a k-list exactly as separate single-k solves do."""

    @settings(max_examples=120, deadline=None, database=None)
    @given(sweep_cases())
    def test_each_k_equals_the_single_k_solve(self, case):
        v, h, ks = case
        for weights, curvature in ((np.ones(v.size), None), (h, h)):
            results = kmeans_sweep(v, curvature, ks)
            assert len(results) == len(ks)
            for k, res in zip(ks, results):
                one = kmeans_sweep(v, curvature, [k])[0]
                assert np.array_equal(res.assignment, one.assignment)
                assert np.array_equal(res.codebook.centers, one.codebook.centers)
                assert np.array_equal(res.codebook.counts, one.codebook.counts)
                assert np.array_equal(res.trace, one.trace)
                assert res.codebook.k == k
                if v.size <= 10:
                    # Some optimum never splits equal values, so the
                    # enumeration over the distinct values with merged
                    # weights has the optimal cost of the full problem.
                    x, inverse = np.unique(v, return_inverse=True)
                    merged = np.bincount(inverse, weights=weights)
                    best, _ = global_optimum(x, merged, k)
                    got = weighted_cost(v, weights, res.assignment, k)
                    assert got == pytest.approx(best, rel=1e-12, abs=1e-20)

    def test_k_at_the_distinct_count_runs_no_dp_layer(self, monkeypatch):
        """Each distinct value its own cluster needs no DP, whose memory
        grows with k times the distinct count."""
        v = np.repeat(np.random.default_rng(5).normal(size=3000), 2)

        def no_layers(*args):
            raise AssertionError("DP layer run for k = m")

        monkeypatch.setattr(quantizers, "_dp_layer", no_layers)
        for k in (3000, 4000):
            res = kmeans_sweep(v, None, [k])[0]
            assert np.array_equal(res.codebook.counts[:3000], np.full(3000, 2))
            assert res.trace[0] == 0.0

    def test_rejects_empty_list_and_k_below_one(self):
        with pytest.raises(ValueError):
            kmeans_sweep([1.0, 2.0], None, [])
        with pytest.raises(ValueError):
            kmeans_sweep([1.0, 2.0], None, [2, 0])

    def test_split_table_covers_the_live_range_only(self):
        """k = m - 8 leaves 9 rows per layer: about 72 kB of splits, where
        a table over every prefix length would take 16 MB."""
        x = np.random.default_rng(11).normal(size=2000)
        tracemalloc.start()
        try:
            res = kmeans_sweep(x, None, [1992])[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.count_nonzero(res.codebook.counts) == 1992
        assert peak < 2 << 20


@st.composite
def dp_cases(draw):
    """Values with repeats on a coarse grid, weights of 1 beside weights
    near 1e-30 (which vanish in the running weight sums), and a k-list that
    may be unsorted and repeat entries, each k in ``1..m`` for the ``m``
    distinct values."""
    n = draw(st.integers(1, 60))
    pool = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=n, unique=True))
    v = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))) / 8.0
    h = np.array(
        draw(
            st.lists(
                st.one_of(st.just(1.0), st.floats(0.5, 2.0), st.floats(1e-31, 1e-29)),
                min_size=n,
                max_size=n,
            )
        )
    )
    m = np.unique(v).size
    ks = draw(st.lists(st.integers(1, m), min_size=1, max_size=6))
    return v, h, ks


class TestDpOracle:
    """The pass kernel gives the bounds of the divide and conquer over
    explicit row and candidate ranges, ties included."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(dp_cases())
    def test_bounds_equal_the_range_oracle(self, case):
        v, h, ks = case
        x, inverse = np.unique(v, return_inverse=True)
        for w in (np.ones(x.size), np.bincount(inverse, weights=h)):
            got = quantizers._optimal_bounds(x, w, ks)
            want = optimal_bounds_ranges(x, w, ks)
            assert got.keys() == want.keys()
            for k in want:
                assert np.array_equal(got[k], want[k])

    @settings(max_examples=100, deadline=None, database=None)
    @given(dp_cases())
    def test_sweep_results_bit_identical(self, case):
        v, h, ks = case
        for curvature in (None, h):
            got = kmeans_sweep(v, curvature, ks)
            with mock.patch.object(quantizers, "_optimal_bounds", optimal_bounds_ranges):
                want = kmeans_sweep(v, curvature, ks)
            for a, b in zip(got, want):
                assert a.assignment.tobytes() == b.assignment.tobytes()
                assert a.codebook.centers.tobytes() == b.codebook.centers.tobytes()
                assert a.codebook.counts.tobytes() == b.codebook.counts.tobytes()
                assert a.trace.tobytes() == b.trace.tobytes()

    def test_ties_go_to_the_lowest_split(self):
        # Five equally spaced values: cutting after the second or the
        # third costs 0.5 + 2 either way, exactly; the lower cut wins.
        x = np.arange(5.0)
        bounds = quantizers._optimal_bounds(x, np.ones(5), [2])[2]
        assert bounds.tolist() == [0, 2, 5]
        assert bounds.tolist() == optimal_bounds_ranges(x, np.ones(5), [2])[2].tolist()


class TestNonFiniteValues:
    """A NaN or infinite value is refused before any solver runs, and so
    are values whose weighted sums overflow in the k-means DP."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "solve",
        [
            lambda v, h: kmeans_sweep(v, None, [2]),
            lambda v, h: kmeans_sweep(v, h, [2, 3]),
            lambda v, h: uniform_quantize(v, k=4),
            lambda v, h: uniform_quantize(v, h, k=4, center_rule="hessian_weighted_mean"),
            lambda v, h: ecsq_iterate(v, h, 4, 0.0),
            lambda v, h: ecsq_iterate(v, h, 4, 1e-3),
            lambda v, h: solve_lambda(v, h, 4, 1.0),
        ],
        ids=["kmeans", "hw-kmeans", "uniform", "uniform-hw", "ecsq-0", "ecsq", "lambda"],
    )
    def test_raises_value_error(self, solve, bad):
        v = np.linspace(-1.0, 1.0, 30)
        v[7] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                solve(v, np.ones(30))

    @pytest.mark.parametrize(
        "v, h",
        [([1e200, -1e200, 0.0, 5.0], None), ([0.0, 1.0, 2.0, 3.0], [1e308, 1e308, 1.0, 1.0])],
        ids=["squares", "weight-sum"],
    )
    def test_overflowing_sums_raise_value_error(self, v, h):
        """Finite inputs whose weighted sums overflow would make every run
        cost look alike; the DP refuses them."""
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflow"):
            kmeans_sweep(np.array(v), h, [2])


class TestSolveLambda:
    def test_loose_budget_returns_lam_zero(self):
        rng = np.random.default_rng(61)
        v = rng.normal(size=100)
        h = np.ones(100)
        found = solve_lambda(v, h, k=4, target_entropy=2.0)
        assert found.lam == 0.0
        assert found.met
        assert found.entropy <= 2.0 + 0.05

    def test_near_zero_budget_collapses(self):
        rng = np.random.default_rng(67)
        v = rng.normal(size=200)
        h = rng.uniform(0.5, 2.0, 200)
        found = solve_lambda(v, h, k=8, target_entropy=1e-4)
        assert found.met
        assert found.entropy <= 1e-4 + 0.05

    def test_midrange_budget_on_bimodal_source(self):
        rng = np.random.default_rng(71)
        v = np.concatenate(
            [rng.normal(-3.0, 0.5, 2000), rng.normal(3.0, 0.5, 2000)]
        )
        h = np.ones(v.size)
        found = solve_lambda(v, h, k=8, target_entropy=1.5)
        assert found.met
        assert 1.45 <= found.entropy <= 1.55

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            solve_lambda([1.0, 2.0], [1.0, 1.0], k=2, target_entropy=0.0)


def spiked(scale):
    """heavy_tailed(2000) with one point weighted ``scale`` times the
    heaviest. lam_max grows with max(h) while the lam meeting a 2-bit
    budget at k=8 hardly moves, so each doubling of ``scale`` moves the
    budget window one exponent lower: near lam_max * 2**-25 at 128 and
    lam_max * 2**-50 at 2**32."""
    v, h = heavy_tailed(2000)
    h[0] = scale * h.max()
    return v, h


class TestLambdaSearch:
    """solve_lambda bisects log2(lam / lam_max) with fresh solves."""

    def test_call_count(self, monkeypatch):
        v, h = spiked(128.0)
        lams = []

        def counted(values, curvature, k, lam):
            lams.append(lam)
            return ecsq_iterate(values, curvature, k, lam)

        monkeypatch.setattr(quantizers, "ecsq_iterate", counted)
        found = solve_lambda(v, h, k=8, target_entropy=2.0)
        assert found.met
        # Halving lam_max linearly takes 29 solves to reach this window.
        assert len(lams) <= 16

    def test_bracket_ends_a_search_that_never_nears_the_budget(self, monkeypatch):
        """Three values at k=2 have entropy 0 or at least 0.92 bits, so a
        0.5-bit budget is never neared and only the bracket test stops the
        bisection: 64 halved to under 1e-9 relative takes 36 probes after
        the lam = 0 and lam_max solves."""
        calls = []

        def counted(*args):
            calls.append(args)
            return ecsq_iterate(*args)

        monkeypatch.setattr(quantizers, "ecsq_iterate", counted)
        found = solve_lambda([0.0, 1.0, 2.0], None, 2, 0.5)
        assert found.met and found.entropy == 0.0
        assert len(calls) == 2 + 36

    def test_reaches_deep_budget_window(self):
        v, h = spiked(2.0**32)
        found = solve_lambda(v, h, k=8, target_entropy=2.0)
        lam_max = 10.0 * h.max() * (v.max() - v.min()) ** 2
        assert found.met
        assert 2.0 - 0.05 <= found.entropy <= 2.0 + 0.05
        assert np.log2(found.lam / lam_max) < -45

    @settings(max_examples=25, deadline=None, database=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(20, 200),
        st.integers(2, 8),
        st.floats(0.3, 2.5),
    )
    def test_result_is_the_fresh_solve_at_its_lam(self, seed, n, k, target):
        rng = np.random.default_rng(seed)
        v = rng.standard_t(4, n) * 0.05
        h = rng.lognormal(0.0, 1.0, n)
        found = solve_lambda(v, h, k=k, target_entropy=target)
        fresh = ecsq_iterate(v, h, k, found.lam)
        assert np.array_equal(found.result.assignment, fresh.assignment)
        assert np.array_equal(found.result.codebook.centers, fresh.codebook.centers)
        assert np.array_equal(found.result.codebook.counts, fresh.codebook.counts)
