"""Desk-scale experiment helpers for the acceptance suite.

Each experiment trains the built-in MLP on synthetic blob data and measures
evaluation accuracy after quantizing every layer together with a shared
codebook. Mixed per-feature input scales spread weight magnitudes and
curvatures across (and within) layers, which is where curvature weighting
earns its keep; homogeneous scales give the bell-shaped weight distribution
under which uniform binning shines at a fixed entropy budget.
"""

from dataclasses import dataclass

import numpy as np

from netquant import (
    MlpSpec,
    TrainConfig,
    build_huffman,
    compact_codebook,
    dequantize,
    ecsq_iterate,
    eval_accuracy,
    hessian_diag_gn,
    kmeans_sweep,
    make_blobs,
    train_adam,
    uniform_quantize,
)
from oracles import rounded32


@dataclass(frozen=True)
class DeskConfig:
    n_features: int
    n_classes: int
    hidden: tuple
    noise: float
    scale_hi: float = 1.0  # every other feature scaled by this
    n_samples: int = 3000
    steps: int = 1200
    eval_frac: float = 0.3


# Heterogeneous curvature across layers; quantization at k=8 is clearly
# lossy, separating curvature-aware from curvature-blind clustering.
MIXED_SCALE = DeskConfig(
    n_features=20, n_classes=8, hidden=(96, 48), noise=2.0, scale_hi=30.0
)

# Homogeneous scales, bell-shaped weights; rate-matched comparisons of
# clustering against uniform binning are meaningful here.
HOMOGENEOUS = DeskConfig(n_features=16, n_classes=10, hidden=(64, 32), noise=1.6)

# Mildly lossy at k=8; used to compare curvature estimators against each
# other rather than against no weighting at all.
GENTLE = DeskConfig(
    n_features=12,
    n_classes=6,
    hidden=(32, 16),
    noise=0.8,
    scale_hi=2.0,
    steps=1500,
    eval_frac=0.4,
)


def train_desk_model(cfg: DeskConfig, seed: int):
    scales = np.where(np.arange(cfg.n_features) % 2 == 0, cfg.scale_hi, 1.0)
    ds = make_blobs(
        cfg.n_samples,
        cfg.n_classes,
        cfg.n_features,
        seed=seed,
        noise=cfg.noise,
        input_scale=scales,
        eval_frac=cfg.eval_frac,
    )
    spec = MlpSpec((cfg.n_features, *cfg.hidden, cfg.n_classes))
    model = train_adam(
        spec, ds, TrainConfig(steps=cfg.steps, batch_size=64, lr=0.01, seed=seed)
    )
    return spec, ds, model


def quantized_accuracy(spec, ds, assignment, codebook) -> float:
    assignment, codebook = compact_codebook(assignment, codebook)
    codebook = rounded32(codebook)
    x, y = ds.split("eval")
    return eval_accuracy(spec, dequantize(assignment, codebook), x, y)


def huffman_avg_bits(codebook) -> float:
    return build_huffman(codebook).avg_bits(codebook.counts)


def kmeans_at_rate(values, target: float, k_range=range(2, 11)):
    """Pick the cluster count whose Huffman rate lands closest to target."""
    best = None
    for k in k_range:
        res = kmeans_sweep(values, None, [k])[0]
        a, cb = compact_codebook(res.assignment, res.codebook)
        avg = build_huffman(cb).avg_bits(cb.counts)
        if best is None or abs(avg - target) < abs(best[0] - target):
            best = (avg, a, cb)
    return best


def uniform_at_rate(values, target: float, k_range=range(2, 41)):
    best = None
    for k in k_range:
        res = uniform_quantize(values, k=k)
        avg = build_huffman(res.codebook).avg_bits(res.codebook.counts)
        if best is None or abs(avg - target) < abs(best[0] - target):
            best = (avg, res.assignment, res.codebook)
    return best


def ecsq_at_rate(values, curvature, target: float, k: int = 16, rounds: int = 12):
    """Bisect the rate penalty until the Huffman rate matches the target."""
    v = values.as_f64() if hasattr(values, "as_f64") else np.asarray(values, float)
    h = curvature.as_f64()

    def run(lam):
        res = ecsq_iterate(v, curvature, k, lam)
        a, cb = compact_codebook(res.assignment, res.codebook)
        return build_huffman(cb).avg_bits(cb.counts), a, cb

    lo, lo_point = 0.0, run(0.0)
    if lo_point[0] <= target:
        return lo_point
    hi = 1e-6 * float(h.max()) * float(v.max() - v.min()) ** 2
    hi_point = run(hi)
    cap = 10.0 * float(h.max()) * float(v.max() - v.min()) ** 2
    while hi_point[0] > target and hi < cap:
        hi *= 8.0
        hi_point = run(hi)
    best = min([lo_point, hi_point], key=lambda p: abs(p[0] - target))
    for _ in range(rounds):
        mid = 0.5 * (lo + hi)
        mid_point = run(mid)
        if abs(mid_point[0] - target) < abs(best[0] - target):
            best = mid_point
        if mid_point[0] > target:
            lo = mid
        else:
            hi = mid
    return best


def gn_curvature(spec, ds, model):
    return hessian_diag_gn(spec, model.params, *ds.split("hessian"))


def hw_result(values, curvature, k=8):
    return kmeans_sweep(values, curvature, [k])[0]
