"""Scalar codebook quantizers over flat parameter vectors.

Four schemes share one assignment/codebook representation:

* ``kmeans_sweep(values, None, ks)`` - the k-means partition minimizing the
  plain sum of squared errors, for each cluster count in ``ks``.
* ``kmeans_sweep(values, curvature, ks)`` - the same under a
  curvature-weighted distortion: each squared error is scaled by that
  parameter's curvature, and cluster centers are curvature-weighted means.
  Parameters the loss is sensitive to are kept closer to their original
  values.
* ``uniform_quantize`` - equal-width bins over the value range, centers by
  plain or curvature-weighted mean. One shot, no iteration.
* ``ecsq_iterate(values, curvature, k, lam)`` - entropy-penalized
  clustering: each point pays its weighted squared error plus ``lam`` times
  the codeword cost ``-log2(p_j)`` of its cluster, so the converged
  codebook trades distortion against the rate a variable-length code will
  achieve. ``solve_lambda(values, curvature, k, target_entropy)`` searches
  the ``lam`` that meets an entropy budget.

Both k-means variants are solved exactly: in one dimension an optimal
partition is a set of contiguous runs of the sorted values, which dynamic
programming finds without iteration or repair passes. Their trace is the
one-element ``[objective]``. Layer j of that DP holds the optimal j-run cost
of every prefix, so one call answers a whole list of cluster counts from the
layers of the largest one.

The rate-penalized solver runs two phases from a fixed start: a Lloyd
phase, then one polish by single-point transfers (Hartigan & Wong 1979),
in which each queued move is re-checked against the live cluster sums and
applied only if it still improves, until a scan applies none. The result
cannot be improved by reassigning any one parameter (with the affected
centers re-optimized); since such a transfer gains at least as much as
the matching Lloyd reassignment, the Lloyd phase only speeds the polish
up. The polish tolerance is relative to the objective, so rescaling the
values, curvature and ``lam`` together leaves the assignment unchanged up
to float rounding. The solver is deterministic (ties resolve to the lowest
cluster index) and records a non-increasing objective trace. Both phases
score points one cluster column at a time within row blocks of bounded
size, so no n x k table is ever built and results do not depend on the
block size.

Internally everything runs in float64 regardless of the storage precision
of the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .params import CurvatureDiag, ParamSet

# Improvements smaller than this (relative to the solve's starting
# objective) are treated as float noise by the stabilization pass.
_MOVE_REL_TOL = 1e-12

# Iteration budget of the rate-penalized solver's Lloyd phase.
_ECSQ_MAX_ITERS = 200

# The lambda search accepts entropies within this many bits of the budget;
# it bisects log2(lam / lam_max) over [_LAMBDA_MIN_EXP, 0] in at most
# _LAMBDA_MAX_ROUNDS solves.
_LAMBDA_SLACK = 0.05
_LAMBDA_MIN_EXP = -64.0
_LAMBDA_MAX_ROUNDS = 60


@dataclass(frozen=True)
class Codebook:
    """Cluster centers plus how many parameters map to each."""

    centers: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        centers = np.ascontiguousarray(self.centers, dtype=np.float64)
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        if centers.ndim != 1 or counts.shape != centers.shape:
            raise ValueError("centers and counts must be matching 1-d arrays")
        if centers.size < 1:
            raise ValueError("empty codebook")
        if not np.all(np.isfinite(centers)):
            raise ValueError("non-finite center")
        if np.any(counts < 0):
            raise ValueError("negative count")
        centers.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "counts", counts)

    @property
    def k(self) -> int:
        return int(self.centers.size)

    @property
    def n_params(self) -> int:
        return int(self.counts.sum())


class QuantizeResult(NamedTuple):
    assignment: np.ndarray
    codebook: Codebook
    trace: np.ndarray


class LambdaResult(NamedTuple):
    lam: float
    result: QuantizeResult
    met: bool
    entropy: float


def _values64(x) -> np.ndarray:
    if isinstance(x, ParamSet):
        return x.as_f64()
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("expected a flat 1-d vector")
    return arr


def _curvature64(x, n: int) -> np.ndarray:
    if isinstance(x, CurvatureDiag):
        arr = x.as_f64()
    else:
        arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.shape != (n,):
        raise ValueError(f"curvature length {arr.size} != n_params {n}")
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise ValueError("curvature must be strictly positive and finite")
    return arr


def msqe(values, assignment, codebook: Codebook) -> float:
    """Sum of squared errors between values and their cluster centers."""
    v = _values64(values)
    r = v - codebook.centers[np.asarray(assignment)]
    return float(np.dot(r, r))


def hw_distortion(values, curvature, assignment, codebook: Codebook) -> float:
    """Curvature-weighted sum of squared errors (uniform curvature -> msqe)."""
    v = _values64(values)
    h = _curvature64(curvature, v.size)
    r = v - codebook.centers[np.asarray(assignment)]
    return float(np.sum(h * r * r))


def dequantize(assignment, codebook: Codebook) -> np.ndarray:
    """Reconstruct each parameter as its cluster center."""
    a = np.ascontiguousarray(assignment, dtype=np.int64)
    if a.size and (a.min() < 0 or a.max() >= codebook.k):
        raise ValueError("assignment index out of range")
    return codebook.centers[a]


def scatter_dequantize(
    total: int, assignment, codebook: Codebook, positions=None
) -> np.ndarray:
    """Dequantize into a length-``total`` vector, zeros where pruned.

    With ``positions``, centers are scattered ``_BLOCK_BYTES // 8`` entries
    at a time, so only the output spans the whole model.
    """
    if positions is None:
        deq = dequantize(assignment, codebook)
        if deq.size != total:
            raise ValueError("assignment length != total without positions")
        return deq
    a = np.ascontiguousarray(assignment, dtype=np.int64)
    pos = np.asarray(positions, dtype=np.int64)
    if pos.shape != a.shape:
        raise ValueError("positions length disagrees with the assignment")
    out = np.zeros(total, dtype=np.float64)
    step = _BLOCK_BYTES // 8
    for s in range(0, a.size, step):
        out[pos[s : s + step]] = dequantize(a[s : s + step], codebook)
    return out


def compact_codebook(assignment, codebook: Codebook) -> tuple[np.ndarray, Codebook]:
    """Drop zero-count clusters, renumbering the assignment to match."""
    a = np.ascontiguousarray(assignment, dtype=np.int64)
    keep = codebook.counts > 0
    if keep.all():
        return a, codebook
    remap = -np.ones(codebook.k, dtype=np.int64)
    remap[keep] = np.arange(int(keep.sum()))
    return remap[a], Codebook(codebook.centers[keep], codebook.counts[keep])


# ---------------------------------------------------------------------------
# Shared machinery
# ---------------------------------------------------------------------------


def _weighted_centers(
    v: np.ndarray, h: np.ndarray | None, assign: np.ndarray, k: int, fallback: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster weighted means (``h=None``: plain means) and weight sums;
    a cluster without weight keeps its ``fallback`` center."""
    wsum = np.bincount(assign, weights=h, minlength=k)
    wval = np.bincount(assign, weights=v if h is None else h * v, minlength=k)
    centers = fallback.copy()
    nz = wsum > 0
    centers[nz] = wval[nz] / wsum[nz]
    return centers, wsum


def _distortion(v, h, assign, centers) -> float:
    r = v - centers[assign]
    return float(np.sum(h * r * r))


def _entropy_from_counts(counts: np.ndarray) -> float:
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts[counts > 0] / float(total)
    return float(-np.sum(p * np.log2(p)))


class _MoveStats:
    """Incremental per-cluster sums used by the stabilization pass.

    Tracks, per cluster, the weight sum, weighted value sum, and member
    count, from which move deltas follow in O(1) without re-scanning.
    """

    def __init__(self, v, h, assign, k):
        self.v = v
        self.h = h
        self.assign = assign.copy()
        self.wsum = np.bincount(assign, weights=h, minlength=k)
        self.wval = np.bincount(assign, weights=h * v, minlength=k)
        self.counts = np.bincount(assign, minlength=k).astype(np.int64)

    def apply(self, i: int, dst: int) -> None:
        src = self.assign[i]
        hi, vi = self.h[i], self.v[i]
        self.wsum[src] -= hi
        self.wval[src] -= hi * vi
        self.counts[src] -= 1
        self.wsum[dst] += hi
        self.wval[dst] += hi * vi
        self.counts[dst] += 1
        self.assign[i] = dst


def _rate_gain(c):
    """``c log2 c`` for nonnegative counts ``c``, with ``0 log2 0 = 0``."""
    return c * np.log2(np.maximum(c, 1))


def _move_delta(stats: _MoveStats, lam: float, i: int, dst: int) -> float:
    """Objective change for moving point ``i`` to cluster ``dst``, from the
    live cluster sums; ``inf`` once ``dst`` has emptied (retired).

    Distortion deltas use the standard incremental identities: removing a
    point with weight ``h`` from a cluster with weight sum ``S`` and
    post-removal mean ``c'`` changes the cluster cost by
    ``-h (v - c')^2 (S - h) / S``; adding it to a cluster with weight ``S``
    and mean ``c`` costs ``+h (v - c)^2 S / (S + h)``. The codeword-rate
    change (from the two affected cluster sizes) is added in unnormalized
    units. The scan in :func:`_best_moves` evaluates the same expressions
    in the same order, one cluster column at a time.
    """
    S, W, counts = stats.wsum, stats.wval, stats.counts
    src = stats.assign[i]
    ns, nd = counts[src], counts[dst]
    if nd == 0:
        return np.inf
    v, h = stats.v[i], stats.h[i]
    Ss, Sd = S[src], S[dst]
    with np.errstate(invalid="ignore", divide="ignore"):
        removal = 0.0
        if ns > 1:
            c_rest = (W[src] - h * v) / (Ss - h)
            removal = -h * (v - c_rest) ** 2 * (Ss - h) / Ss
        add = h * (v - W[dst] / Sd) ** 2 * (Sd / (Sd + h))
    leave = -lam * (_rate_gain(ns - 1) - _rate_gain(ns))
    return removal + add + (leave - lam * (_rate_gain(nd + 1) - _rate_gain(nd)))


# Bytes of one float64 score column per row block (8,192 rows). Scoring
# walks the clusters one column at a time over a block, whose handful of
# row vectors then stay in cache: ecsq_iterate at n = 1e5, k = 16 took
# 7.7 s in these blocks, 8.2 s in 64k-row blocks and 9.3 s unblocked on a
# 2-CPU VM.
_BLOCK_BYTES = 64 << 10


def _column_argmin(n: int, columns, block):
    """Per-row argmin and minimum of scores over the cluster ``columns``.

    ``block(rows)`` takes a slice of row indices and returns the scorer of
    that row block: a function from a column index to that column's
    scores. Rows go in blocks of ``_BLOCK_BYTES // 8``. A running minimum
    with strict ``<`` keeps the lowest column on ties; a row none of whose
    scores is below ``inf`` gets column 0. A NaN score makes the row's
    minimum NaN. Columns left out act as columns of ``inf``. No ``n x k``
    table is built, and the result does not depend on the block size.
    """
    step = max(1, _BLOCK_BYTES // 8)
    arg = np.zeros(n, dtype=np.int64)
    low = np.full(n, np.inf)
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        score, best, low_rows = block(rows), arg[rows], low[rows]
        for j in columns:
            s = score(j)
            np.putmask(best, s < low_rows, j)
            np.minimum(low_rows, s, out=low_rows)
    return arg, low


def _best_moves(stats: _MoveStats, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Each point's best destination cluster and the objective change of
    moving it there, from the live cluster sums.

    Per row block, the points' removal and leave-rate terms are computed
    once; per call, each live cluster's mean and join-rate term. Then
    :func:`_column_argmin` scores one cluster column at a time with the
    expressions of :func:`_move_delta`, in its order: ``removal + add +
    (leave - join)``. A point's own cluster and retired clusters are not
    destinations. A point whose removal term is NaN (its cluster's weight
    sum lost to rounding) gets a NaN change, which no tolerance accepts.
    """
    S, W, counts = stats.wsum, stats.wval, stats.counts

    def block(rows):
        v, h, src = stats.v[rows], stats.h[rows], stats.assign[rows]
        ns, Ss = counts[src], S[src]
        c_rest = (W[src] - h * v) / (Ss - h)
        removal = -h * (v - c_rest) ** 2 * (Ss - h) / Ss
        removal = np.where(ns <= 1, 0.0, removal)
        leave = -lam * (_rate_gain(ns - 1) - _rate_gain(ns))

        def score(j):  # removal + add + (leave - join), in place
            s = v - mean[j]
            np.square(s, out=s)
            s *= h
            q = S[j] + h
            np.divide(S[j], q, out=q)
            s *= q
            s += removal
            np.subtract(leave, join[j], out=q)
            s += q
            np.putmask(s, src == j, np.inf)
            return s

        return score

    with np.errstate(invalid="ignore", divide="ignore"):
        mean = W / S
        join = lam * (_rate_gain(counts + 1) - _rate_gain(counts))
        live = np.flatnonzero(counts).tolist()
        return _column_argmin(stats.v.size, live, block)


def _stabilize(
    v: np.ndarray,
    h: np.ndarray,
    assign: np.ndarray,
    k: int,
    lam: float,
    obj_scale: float,
) -> tuple[np.ndarray, int]:
    """Apply single-point transfers until none improves the objective.

    Each scan finds every point's best move (:func:`_best_moves`), then
    walks those moves best first and applies one only if its delta
    (:func:`_move_delta`), recomputed against the live cluster sums, still
    improves (Hartigan's transfer step). Applied deltas are exact, so the
    objective strictly decreases by their sum; the pass ends after a scan
    that applies nothing. A move counts as an improvement if it lowers the
    unnormalized objective by more than ``_MOVE_REL_TOL`` times
    ``|obj_scale|``, with no absolute floor, so the same moves pass at
    every scale of the values and curvature. Returns the (possibly
    updated) assignment and the number of moves made.
    """
    stats = _MoveStats(v, h, assign, k)
    tol = _MOVE_REL_TOL * abs(obj_scale)
    moves = 0
    while True:
        best_dst, best_delta = _best_moves(stats, lam)
        candidates = np.flatnonzero(best_delta < -tol)
        order = candidates[np.argsort(best_delta[candidates], kind="stable")]
        before = moves
        for i in order:
            if _move_delta(stats, lam, i, best_dst[i]) < -tol:
                stats.apply(i, best_dst[i])
                moves += 1
        if moves == before:
            return stats.assign, moves


def _dp_layer(
    prev: np.ndarray, lo: int, hi: int, cost
) -> tuple[np.ndarray, np.ndarray]:
    """One layer of the k-means recurrence over prefix lengths ``lo..hi``.

    ``cur[i] = min over t in [lo-1, i-1] of prev[t] + cost(t, i)``, with the
    lowest minimizing ``t`` as ``split[i]``. The k-means segment cost obeys
    the quadrangle inequality, so ``split`` is non-decreasing in ``i``:
    every pass solves the middle row of each open row range over its
    candidate range, then halves both, which bounds the work per pass by
    the number of rows plus ranges.
    """
    cur = np.full(prev.size, np.inf)
    split = np.zeros(prev.size, dtype=np.int32)
    rlo, rhi = np.array([lo]), np.array([hi])
    tlo, thi = np.array([lo - 1]), np.array([hi - 1])
    while rlo.size:
        mid = (rlo + rhi) // 2
        cnt = np.minimum(thi, mid - 1) - tlo + 1
        starts = np.cumsum(cnt) - cnt
        seg = np.repeat(np.arange(mid.size), cnt)
        t = np.arange(seg.size) - np.repeat(starts - tlo, cnt)
        val = prev[t] + cost(t, mid[seg])
        best = np.minimum.reduceat(val, starts)
        pos = np.where(val == best[seg], np.arange(val.size), val.size)
        arg = t[np.minimum.reduceat(pos, starts)]
        cur[mid], split[mid] = best, arg
        left, right = rlo < mid, mid < rhi
        rlo, rhi, tlo, thi = (
            np.concatenate([rlo[left], mid[right] + 1]),
            np.concatenate([mid[left] - 1, rhi[right]]),
            np.concatenate([tlo[left], arg[right]]),
            np.concatenate([arg[left], thi[right]]),
        )
    return cur, split


def _optimal_bounds(x: np.ndarray, w: np.ndarray, ks) -> dict[int, np.ndarray]:
    """Run boundaries ``0 = b_0 < ... < b_k = m`` of the optimal k-partition
    of the sorted distinct values ``x`` (weights ``w``) into contiguous runs,
    for each ``k`` in ``ks`` (each in ``1..m``), from one pass of the DP.
    """
    m = x.size
    # The only m-partition puts each value in its own run; the DP would
    # need m layers to find it, so it runs for the smaller k only.
    out = {m: np.arange(m + 1)} if m in ks else {}
    ks = [k for k in ks if k < m]
    if not ks:
        return out
    # Centering on the weighted mean limits cancellation in the sums.
    u = x - np.dot(w, x) / w.sum()
    s0, s1, s2 = (np.concatenate([[0.0], np.cumsum(a)]) for a in (w, w * u, w * u * u))

    def cost(t, i):  # weighted squared error of the run x[t:i]
        # A run whose weight is lost in the rounding of s0 costs nothing
        # the sums can resolve: call it 0 rather than dividing by 0.
        d0, d1 = s0[i] - s0[t], s1[i] - s1[t]
        sse = s2[i] - s2[t] - d1 * d1 / np.where(d0 > 0, d0, 1.0)
        return np.where(d0 > 0, np.maximum(sse, 0.0), 0.0)

    # Layer j holds the best j-run cost of each prefix length that leaves
    # room for k_j - j more runs, k_j the smallest requested k >= j; that
    # covers every requested k >= j, and with one k it is exactly that k's
    # range. Each k then backtracks through the same splits.
    prev = np.full(m + 1, np.inf)
    prev[1 : m - min(ks) + 2] = cost(0, np.arange(1, m - min(ks) + 2))
    splits = []
    for j in range(2, max(ks) + 1):
        k_j = min(k for k in ks if k >= j)
        prev, split = _dp_layer(prev, j, m - k_j + j, cost)
        splits.append(split)
    for k in set(ks):
        bounds = np.empty(k + 1, dtype=np.int64)
        bounds[0], bounds[k] = 0, m
        for j in range(k, 1, -1):
            bounds[j - 1] = splits[j - 2][bounds[j]]
        out[k] = bounds
    return out


def _exact_kmeans(v: np.ndarray, h: np.ndarray, ks) -> list[QuantizeResult]:
    """Exact curvature-weighted 1-D k-means, one result per entry of ``ks``.

    Duplicate values merge (their curvature summed), so at most as many
    clusters as distinct values are live; the rest keep zero counts, with
    centers at the largest value. Labels follow the sorted value order and
    ties between partitions go to the lowest split. The optimum is exact up
    to float64 rounding of the prefix sums: partitions whose objectives
    differ by less than about ``n * eps * sum(h (v - mean)^2)`` are not
    told apart.
    """
    if v.size == 0:
        raise ValueError("cannot cluster an empty vector")
    x, inverse = np.unique(v, return_inverse=True)
    w = np.bincount(inverse, weights=h)
    bounds = _optimal_bounds(x, w, [min(k, x.size) for k in ks])
    results = []
    for k in ks:
        live = min(k, x.size)
        runs = np.repeat(np.arange(live), np.diff(bounds[live]))
        assign = runs[inverse]
        centers, _ = _weighted_centers(v, h, assign, k, np.full(k, x[-1]))
        counts = np.bincount(assign, minlength=k)
        trace = np.asarray([_distortion(v, h, assign, centers)])
        results.append(QuantizeResult(assign, Codebook(centers, counts), trace))
    return results


def kmeans_sweep(values, curvature, ks) -> list[QuantizeResult]:
    """Exact k-means for every cluster count in ``ks``, from one DP.

    With ``curvature`` None the objective is the plain squared-error sum;
    otherwise each squared error is weighted by that parameter's curvature
    and centers are curvature-weighted means, so with constant curvature the
    assignments match plain k-means. Each result is the exact optimum over
    at most ``k`` clusters, whose indices follow value order; with fewer
    distinct values than ``k`` each distinct value gets its own cluster and
    the remaining slots keep zero counts. The trace is the one-element
    ``[objective]``. Results come back in the order of ``ks``, which may be
    unsorted and repeat entries, and each equals the call with ``[k]``
    alone, bit for bit: the DP runs ``max(ks)`` layers once, whatever the
    length of the list.
    """
    ks = [int(k) for k in ks]
    if not ks:
        raise ValueError("need at least one cluster count")
    if min(ks) < 1:
        raise ValueError("k must be at least 1")
    v = _values64(values)
    h = np.ones_like(v) if curvature is None else _curvature64(curvature, v.size)
    return _exact_kmeans(v, h, ks)


def uniform_quantize(
    values, curvature=None, k: int = 8, center_rule: str = "mean"
) -> QuantizeResult:
    """Equal-width binning over ``[min, max]`` with per-bin centers.

    ``center_rule`` picks plain means or curvature-weighted means (the
    latter requires ``curvature``). Empty bins are dropped and the codebook
    compacted, so the effective cluster count may be below ``k``. A
    degenerate all-equal input collapses to a single cluster.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if center_rule not in ("mean", "hessian_weighted_mean"):
        raise ValueError(f"unknown center_rule {center_rule!r}")
    v = _values64(values)
    h = None  # plain means
    if center_rule == "hessian_weighted_mean":
        if curvature is None:
            raise ValueError("hessian_weighted_mean needs a curvature vector")
        h = _curvature64(curvature, v.size)

    lo, hi = float(v.min()), float(v.max())
    assign = np.zeros(v.size, dtype=np.int64)
    if hi > lo and k > 1:
        width = (hi - lo) / k
        step = _BLOCK_BYTES // 8
        for s in range(0, v.size, step):
            bins = v[s : s + step] - lo
            bins //= width
            assign[s : s + step] = np.minimum(bins, k - 1, out=bins)
        if k > v.size:
            # Most bins are empty; number the occupied ones only.
            assign = np.unique(assign, return_inverse=True)[1]
    k_bins = int(assign.max()) + 1

    centers, _ = _weighted_centers(v, h, assign, k_bins, np.zeros(k_bins))
    counts = np.bincount(assign, minlength=k_bins)
    assign, codebook = compact_codebook(assign, Codebook(centers, counts))
    return QuantizeResult(assign, codebook, np.asarray([], dtype=np.float64))


def ecsq_iterate(values, curvature, k: int, lam: float) -> QuantizeResult:
    """Entropy-penalized clustering into at most ``k`` clusters at the
    bits-to-distortion exchange rate ``lam`` (finite, nonnegative).

    With ``lam == 0`` the entropy term vanishes and the result is the exact
    curvature-weighted k-means optimum of :func:`kmeans_sweep` (trace
    divided by ``n``). Otherwise, from centers evenly spaced over the value
    range and equal cluster probabilities, a Lloyd phase alternates three
    steps: assign each point to the cluster minimizing
    ``h_i (v_i - c_j)^2 - lam * log2(p_j)``, recompute centers as
    curvature-weighted means, and refresh the probabilities ``p_j`` from
    the new cluster sizes. It stops when the assignment repeats or
    ``J = D/n + lam * H`` would rise. One polish by single-point transfers
    then makes the result one-move stable. Clusters that empty are retired
    for good since their codeword cost is infinite. Both phases score the
    points against one live cluster at a time, in row blocks of
    ``_BLOCK_BYTES // 8`` points; memory is O(n + k) and the result does
    not depend on the block size.

    Returns the assignment, a codebook that may contain retired zero-count
    slots (see :func:`compact_codebook`), and the non-increasing trace of
    ``J``: the first assignment, each Lloyd step, then the polished result.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"lam must be finite and nonnegative; got {lam}")
    v = _values64(values)
    h = _curvature64(curvature, v.size)
    n = v.size

    if lam == 0.0:
        res = _exact_kmeans(v, h, [k])[0]
        return QuantizeResult(res.assignment, res.codebook, res.trace / n)

    centers = np.linspace(float(v.min()), float(v.max()), k)

    def assign_step(centers, p):
        penalty = -lam * np.log2(np.maximum(p, 1e-300))

        def block(rows):
            vb, hb = v[rows], h[rows]

            def score(j):  # h (v - c_j)^2 + penalty_j, in place
                s = vb - centers[j]
                np.square(s, out=s)
                s *= hb
                s += penalty[j]
                return s

            return score

        return _column_argmin(n, np.flatnonzero(p > 0).tolist(), block)[0]

    def objective(assign, centers, counts):
        return _distortion(v, h, assign, centers) / n + lam * _entropy_from_counts(
            counts
        )

    assign = assign_step(centers, np.full(k, 1.0 / k))
    centers, _ = _weighted_centers(v, h, assign, k, centers)
    counts = np.bincount(assign, minlength=k)
    trace = [objective(assign, centers, counts)]

    for _ in range(_ECSQ_MAX_ITERS):
        new_assign = assign_step(centers, counts / n)
        if np.array_equal(new_assign, assign):
            break
        new_centers, _ = _weighted_centers(v, h, new_assign, k, centers)
        new_counts = np.bincount(new_assign, minlength=k)
        new_obj = objective(new_assign, new_centers, new_counts)
        if new_obj > trace[-1]:
            break
        assign, centers, counts = new_assign, new_centers, new_counts
        trace.append(new_obj)

    assign = _stabilize(v, h, assign, k, lam, trace[0] * n)[0]
    centers, _ = _weighted_centers(v, h, assign, k, centers)
    counts = np.bincount(assign, minlength=k)
    trace.append(objective(assign, centers, counts))

    return QuantizeResult(assign, Codebook(centers, counts), np.asarray(trace))


def solve_lambda(values, curvature, k: int, target_entropy: float) -> LambdaResult:
    """Find the smallest entropy penalty meeting a codeword-rate budget.

    Bisects the exponent ``t = log2(lam / lam_max)`` over ``[-64, 0]``,
    exploiting the downward trend of the achieved entropy as the penalty
    grows; ``t = -64`` stands for the ``lam = 0`` solve. Each probe is a
    fresh ``ecsq_iterate`` at ``lam_max * 2**t``, so the result at a given
    ``lam`` never depends on the search path. Returns the lowest-distortion
    solution whose entropy is at most ``target_entropy + 0.05`` bits; if
    even the collapse bound fails the budget, the endpoint solution comes
    back flagged ``met=False``.
    """
    if not target_entropy > 0:
        raise ValueError(f"target entropy must be positive; got {target_entropy}")
    v = _values64(values)
    h = _curvature64(curvature, v.size)

    def run(lam: float) -> QuantizeResult:
        return ecsq_iterate(v, h, k, lam)

    budget = target_entropy + _LAMBDA_SLACK
    res0 = run(0.0)
    h0 = _entropy_from_counts(res0.codebook.counts)
    if h0 <= budget:
        return LambdaResult(0.0, res0, True, h0)

    # Beyond this the rate term dominates any distortion difference.
    lam_max = 10.0 * float(h.max()) * (float(v.max()) - float(v.min())) ** 2
    res_hi = run(lam_max)
    h_hi = _entropy_from_counts(res_hi.codebook.counts)
    if h_hi > budget:
        return LambdaResult(lam_max, res_hi, False, h_hi)

    # The first six midpoints are whole exponents, the grid that halving
    # lam_max walks.
    t_lo, t_hi = _LAMBDA_MIN_EXP, 0.0
    best_lam, best_res, best_h = lam_max, res_hi, h_hi
    for _ in range(_LAMBDA_MAX_ROUNDS):
        if best_h >= target_entropy - _LAMBDA_SLACK:
            break  # close enough to the budget from below
        if 2.0 ** (t_lo - t_hi) >= 1.0 - 1e-9:
            break  # the lam bracket is narrower than 1e-9 relative
        t_mid = 0.5 * (t_lo + t_hi)
        mid = lam_max * 2.0**t_mid
        res = run(mid)
        h_mid = _entropy_from_counts(res.codebook.counts)
        if h_mid <= budget:
            t_hi, best_lam, best_res, best_h = t_mid, mid, res, h_mid
        else:
            t_lo = t_mid
    return LambdaResult(best_lam, best_res, True, best_h)
