"""Acceptance suite: exact property checks plus desk-scale trend replication.

Every criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them live) and asserts its own runtime budget. Trend criteria train the
built-in reference net over 10 seeds; configurations live in ``desk.py``.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import desk
from desk import GENTLE, HOMOGENEOUS, MIXED_SCALE
from netquant import (
    Codebook,
    MlpSpec,
    adam_curvature,
    build_huffman,
    compact_codebook,
    compression_ratio_exact,
    decode_assignments,
    ecsq_iterate,
    encode_assignments,
    entropy_bits,
    fixed_length_code,
    forward_loss,
    hessian_diag_exact,
    hessian_diag_gn,
    index_diff_code,
    kmeans_sweep,
    prune_magnitude,
    scatter_dequantize,
    solve_lambda,
    uniform_quantize,
)
from oracles import (
    global_optimum,
    lagrangian_cost,
    one_move_stable,
    rounded32,
    weighted_cost,
)
from test_coding import optimal_avg_bits
from test_refnet import fd_gradient


@contextmanager
def criterion(name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"{name} took {elapsed:.1f}s > {budget_seconds}s"
    print(f"\n[acceptance] {name}: PASS ({elapsed:.1f}s)")


def test_c01_formula_fidelity():
    """Exact ratio equals original bits over measured serialized bits."""
    with criterion("C1 formula fidelity", 10.0):
        rng = np.random.default_rng(101)
        for trial in range(100):
            scheme = ("fixed", "huffman")[trial % 2]
            k = int(rng.integers(1, 65))
            n = int(rng.integers(k, 100_001))
            assignment = rng.integers(0, k, size=n)
            assignment[:k] = np.arange(k)
            counts = np.bincount(assignment, minlength=k)
            centers = rng.normal(size=k).astype(np.float32).astype(np.float64)
            codebook = Codebook(centers, counts)
            code = (
                fixed_length_code(k) if scheme == "fixed" else build_huffman(codebook)
            )
            em = encode_assignments(assignment, codebook, code)
            ratio = compression_ratio_exact(n, 32, counts, code)
            assert ratio == n * 32 / em.table_bits


def test_c02_shannon_huffman_suite():
    """Entropy bounds, Kraft equality, and exhaustive-search optimality."""
    with criterion("C2 Shannon/Huffman suite", 30.0):
        rng = np.random.default_rng(202)
        checked_small = 0
        for _ in range(1000):
            k = int(rng.integers(2, 65))
            counts = rng.integers(1, 2000, size=k)
            code = build_huffman(counts)
            h = entropy_bits(counts)
            avg = code.avg_bits(counts)
            # 1e-12 slack covers float rounding of the entropy sum when the
            # distribution is exactly dyadic; the true inequality is H <= avg.
            assert h - 1e-12 <= avg < h + 1.0
            max_len = max(code.lengths)
            kraft_scaled = sum(1 << (max_len - l) for l in code.lengths)
            assert kraft_scaled == 1 << max_len  # equality: all counts positive
            if k <= 6:
                checked_small += 1
                assert code.avg_bits(counts) == pytest.approx(
                    optimal_avg_bits(counts), abs=1e-12
                )
        assert checked_small >= 30


def test_c03_monotonicity_suite():
    """Objective traces never increase; converged states are move-stable."""
    with criterion("C3 monotonicity suite", 30.0):
        rng = np.random.default_rng(303)
        for _ in range(50):
            n = int(rng.integers(20, 150))
            k = int(rng.integers(2, 7))
            v = rng.normal(size=n) * float(rng.uniform(0.5, 3.0))
            h = rng.uniform(0.1, 4.0, size=n)

            res = kmeans_sweep(v, None, [k])[0]
            assert np.all(np.diff(res.trace) <= 0)
            assert one_move_stable(v, np.ones(n), res.assignment, k)

            res = kmeans_sweep(v, h, [k])[0]
            assert np.all(np.diff(res.trace) <= 0)
            assert one_move_stable(v, h, res.assignment, k)

        lams = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
        for i in range(50):
            lam = lams[i % len(lams)]
            n = int(rng.integers(20, 150))
            k = int(rng.integers(2, 7))
            v = rng.normal(size=n)
            h = rng.uniform(0.1, 4.0, size=n)
            res = ecsq_iterate(v, h, k, lam)
            assert np.all(np.diff(res.trace) <= 0)
            assert one_move_stable(v, h, res.assignment, k, lam=lam)


def test_c04_oracle_equivalence():
    """Exhaustive enumeration agrees with the iterative solvers."""
    with criterion("C4 oracle equivalence", 60.0):
        rng = np.random.default_rng(404)

        # (a) zero rate penalty reduces to curvature-weighted k-means exactly
        for _ in range(10):
            n = int(rng.integers(5, 40))
            v = rng.normal(size=n)
            h = rng.uniform(0.2, 3.0, size=n)
            exact = kmeans_sweep(v, h, [3])[0]
            zero = ecsq_iterate(v, h, 3, 0.0)
            assert np.array_equal(exact.assignment, zero.assignment)
            assert np.array_equal(exact.codebook.centers, zero.codebook.centers)

        # (b) curvature breaks the plain-squared-error tie
        v = np.array([-1.0, 0.0, 1.0])
        h = np.array([4.0, 1.0, 1.0])
        res = kmeans_sweep(v, h, [2])[0]
        assert np.array_equal(res.assignment, [0, 1, 1])
        cost = weighted_cost(v, h, res.assignment, 2)
        assert cost == pytest.approx(0.5)
        best, best_assign = global_optimum(v, h, 2)
        assert best == pytest.approx(0.5)
        assert tuple(res.assignment) == best_assign

        # (c) converged objective is never below the enumerated optimum,
        # and matches it on well-separated instances
        for trial in range(12):
            n = int(rng.integers(6, 11))
            k = int(rng.integers(2, 4))
            v = rng.normal(size=n)
            h = rng.uniform(0.2, 3.0, size=n)
            res = kmeans_sweep(v, h, [k])[0]
            got = weighted_cost(v, h, res.assignment, k)
            best, _ = global_optimum(v, h, k)
            assert got >= best - 1e-12 * max(1.0, best)

            lam = float(rng.uniform(0.0, 0.3))
            res = ecsq_iterate(v, h, k, lam)
            got = lagrangian_cost(v, h, res.assignment, k, lam)
            best, _ = global_optimum(v, h, k, lam=lam)
            assert got >= best - 1e-12 * max(1.0, best)

        # well separated: tight clumps, gaps at least 4x the intra spread
        for trial in range(8):
            k = int(rng.integers(2, 4))
            spread = 0.25
            gaps = 4.0 * spread * (2.0 + rng.uniform(0, 1, size=k))
            locations = np.cumsum(gaps)
            sizes = rng.integers(2, 5, size=k)
            while sizes.sum() > 12:
                sizes[np.argmax(sizes)] -= 1
            v = np.concatenate(
                [
                    loc + rng.uniform(-spread / 2, spread / 2, size=s)
                    for loc, s in zip(locations, sizes)
                ]
            )
            h = rng.uniform(0.5, 2.0, size=v.size)
            res = kmeans_sweep(v, h, [k])[0]
            got = weighted_cost(v, h, res.assignment, k)
            best, _ = global_optimum(v, h, k)
            assert got == pytest.approx(best, rel=1e-9, abs=1e-12)


def test_c05_hessian_correctness():
    """Gradients and both curvature backends against analytic references."""
    with criterion("C5 hessian correctness", 30.0):
        rng = np.random.default_rng(505)

        # analytic gradient vs central differences, >= 10 configurations
        configs = 0
        for activation in ("relu", "tanh", "none"):
            for loss in ("softmax_cross_entropy", "mean_square_error"):
                for _ in range(2):
                    widths = (3, int(rng.integers(2, 7)), int(rng.integers(2, 5)))
                    spec = MlpSpec(widths, activation=activation, loss=loss)
                    w = rng.normal(size=spec.param_count()) * 0.8
                    x = rng.normal(size=(5, 3))
                    y = rng.integers(0, widths[-1], 5)
                    _, analytic = forward_loss(spec, w, x, y)
                    numeric = fd_gradient(spec, w, x, y, step=1e-5)
                    err = np.abs(analytic - numeric) / np.maximum(
                        1.0, np.maximum(np.abs(analytic), np.abs(numeric))
                    )
                    assert err.max() <= 1e-6
                    configs += 1
        assert configs >= 10

        # scalar linear model: second derivative is the mean squared input
        spec = MlpSpec((1, 1), activation="none", loss="mean_square_error")
        cv = hessian_diag_exact(
            spec, np.array([0.3, 0.0]), np.array([[1.0], [2.0]]), np.zeros((2, 1))
        )
        assert cv.values[0] == pytest.approx(2.5, rel=1e-8)

        # fast backend is exact for linear-in-parameters squared error
        spec = MlpSpec((6, 4), activation="none", loss="mean_square_error")
        w = rng.normal(size=spec.param_count())
        x = rng.normal(size=(50, 6))
        t = rng.normal(size=(50, 4))
        exact = hessian_diag_exact(spec, w, x, t).as_f64()
        gn = hessian_diag_gn(spec, w, x, t).as_f64()
        assert np.allclose(exact, gn, rtol=1e-8)


def test_c06_fixed_length_trend():
    """Curvature-weighted clustering beats plain k-means at k=8, fixed-length
    coding, before any fine-tuning."""
    with criterion("C6 fixed-length coding trend", 600.0):
        km_accs, hw_accs = [], []
        for seed in range(10):
            spec, ds, model = desk.train_desk_model(MIXED_SCALE, seed)
            curvature = desk.gn_curvature(spec, ds, model)
            km = kmeans_sweep(model.params, None, [8])[0]
            hw = kmeans_sweep(model.params, curvature, [8])[0]
            km_accs.append(desk.quantized_accuracy(spec, ds, km.assignment, km.codebook))
            hw_accs.append(desk.quantized_accuracy(spec, ds, hw.assignment, hw.codebook))
        km_mean, hw_mean = np.mean(km_accs), np.mean(hw_accs)
        strict_wins = sum(h > k for h, k in zip(hw_accs, km_accs))
        print(
            f"\n  k-means {km_mean:.4f} vs curvature-weighted {hw_mean:.4f}, "
            f"strict wins {strict_wins}/10"
        )
        assert hw_mean >= km_mean - 0.002
        assert strict_wins >= 6


def test_c07_huffman_rate_matched_trend():
    """At a matched Huffman rate near 2 bits, uniform binning and the
    rate-penalized solver hold their own against plain k-means."""
    with criterion("C7 Huffman coding trend", 900.0):
        km_accs, uni_accs, ecsq_accs = [], [], []
        for seed in range(10):
            spec, ds, model = desk.train_desk_model(HOMOGENEOUS, seed)
            curvature = desk.gn_curvature(spec, ds, model)

            km_rate, km_a, km_cb = desk.kmeans_at_rate(model.params, 2.0)
            uni_rate, uni_a, uni_cb = desk.uniform_at_rate(model.params, km_rate)
            ecsq_rate, ecsq_a, ecsq_cb = desk.ecsq_at_rate(
                model.params, curvature, km_rate
            )
            assert abs(uni_rate - km_rate) <= 0.1
            assert abs(ecsq_rate - km_rate) <= 0.1
            assert abs(km_rate - 2.0) <= 0.2  # anchored near 2 bits

            km_accs.append(desk.quantized_accuracy(spec, ds, km_a, km_cb))
            uni_accs.append(desk.quantized_accuracy(spec, ds, uni_a, uni_cb))
            ecsq_accs.append(desk.quantized_accuracy(spec, ds, ecsq_a, ecsq_cb))
        km_mean = np.mean(km_accs)
        print(
            f"\n  rate-matched means: k-means {km_mean:.4f}, "
            f"uniform {np.mean(uni_accs):.4f}, rate-penalized {np.mean(ecsq_accs):.4f}"
        )
        assert np.mean(uni_accs) >= km_mean - 0.002
        assert np.mean(ecsq_accs) >= km_mean - 0.002


def test_c08_curvature_robustness():
    """Few-sample and optimizer-moment curvature track the exact diagonal."""
    with criterion("C8 curvature robustness", 600.0):
        full_accs, few_accs, adam_accs = [], [], []
        for seed in range(10):
            spec, ds, model = desk.train_desk_model(GENTLE, seed)
            hx, hy = ds.split("hessian")
            hx, hy = hx[:600], hy[:600]
            n_few = max(1, int(0.05 * hx.shape[0]))

            variants = {
                "full": hessian_diag_exact(spec, model.params, hx, hy),
                "few": hessian_diag_exact(spec, model.params, hx[:n_few], hy[:n_few]),
                "adam": adam_curvature(model.adam),
            }
            for name, cv in variants.items():
                res = kmeans_sweep(model.params, cv, [8])[0]
                acc = desk.quantized_accuracy(spec, ds, res.assignment, res.codebook)
                {"full": full_accs, "few": few_accs, "adam": adam_accs}[name].append(acc)

        gap_few = abs(np.mean(full_accs) - np.mean(few_accs))
        gap_adam = abs(np.mean(full_accs) - np.mean(adam_accs))
        print(
            f"\n  mean accuracy full {np.mean(full_accs):.4f}, "
            f"5% sample {np.mean(few_accs):.4f} (gap {gap_few * 100:.2f}pp), "
            f"adam {np.mean(adam_accs):.4f} (gap {gap_adam * 100:.2f}pp)"
        )
        assert gap_few <= 0.005
        assert gap_adam <= 0.005


def test_c09_pipeline_fidelity():
    """Prune, compact, quantize, code, decode: lossless and bit-accounted."""
    with criterion("C9 pipeline fidelity", 60.0):
        spec, ds, model = desk.train_desk_model(GENTLE, seed=0)
        mask = prune_magnitude(model.params, 0.8)
        curvature = desk.gn_curvature(spec, ds, model)
        positions = np.flatnonzero(mask.kept)
        kept_cv = curvature.values[positions]

        res = uniform_quantize(model.params.values[positions], kept_cv, k=8)
        assignment, codebook = compact_codebook(res.assignment, res.codebook)
        codebook = rounded32(codebook)
        code = build_huffman(codebook)
        em = encode_assignments(
            assignment, codebook, code, positions=positions, total_params=model.params.n
        )

        decoded = decode_assignments(em)
        assert np.array_equal(decoded.assignment, assignment)
        assert np.array_equal(decoded.codebook.centers, codebook.centers)
        assert np.array_equal(decoded.positions, positions)
        w_original = scatter_dequantize(
            model.params.n, assignment, codebook, positions
        )
        w_decoded = scatter_dequantize(
            decoded.total_params, decoded.assignment, decoded.codebook, decoded.positions
        )
        assert np.array_equal(w_original, w_decoded)

        # bit accounting: every section adds up, and the index section
        # matches the standalone gap coder exactly
        assert sum(em.breakdown.values()) == em.total_bits == 8 * len(em.data)
        assert em.breakdown["index_section"] == index_diff_code(
            positions, model.params.n
        ).total_bits
        ratio = compression_ratio_exact(assignment.size, 32, codebook.counts, code)
        assert ratio == assignment.size * 32 / em.table_bits


def test_c10_entropy_target_contract():
    """The rate-budget search honors its tolerance on random instances."""
    with criterion("C10 entropy-target contract", 120.0):
        rng = np.random.default_rng(1010)
        met_count = 0
        for trial in range(20):
            n = int(rng.integers(300, 2000))
            if trial % 2 == 0:
                v = rng.normal(size=n)
            else:
                half = n // 2
                v = np.concatenate(
                    [rng.normal(-2.0, 0.4, half), rng.normal(2.0, 0.4, n - half)]
                )
            h = rng.uniform(0.2, 3.0, size=n)
            k = int(rng.integers(4, 17))
            budget = float(rng.uniform(0.2, np.log2(k)))
            found = solve_lambda(v, h, k=k, target_entropy=budget)
            if found.met:
                met_count += 1
                achieved = entropy_bits(found.result.codebook.counts)
                assert achieved <= budget + 0.05
                assert achieved == pytest.approx(found.entropy)
            # a not-met result is the documented infeasibility flag
        assert met_count >= 18  # collapse bound makes nearly all budgets feasible
