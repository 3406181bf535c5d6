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

A ``curvature`` of None is unit weights: the weighted objective is then
the plain one.

Both k-means variants are solved exactly: in one dimension an optimal
partition is a set of contiguous runs of the sorted values, which dynamic
programming finds without iteration or repair passes. Their trace is the
one-element ``[objective]``. Layer j of that DP holds the optimal j-run cost
of every prefix that leaves room for the remaining runs, so one call answers
a whole list of cluster counts from the layers of the largest one. Each
layer is solved by divide and conquer on a fixed row schedule, ties going to
the lowest split, and keeps its splits over its own rows: k (m - k + 1)
entries for k clusters over m distinct values.

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

Every codebook and the polish's running sums come from one record of
per-cluster weight sums, weighted value sums and counts, built in one
blocked pass over the assignment.

Internally everything runs in float64 regardless of the storage precision
of the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .params import CurvatureDiag, ParamSet, _read_only

# Improvements smaller than this (relative to the solve's starting
# objective) are treated as float noise by the stabilization pass.
_MOVE_REL_TOL = 1e-12

# Iteration budget of the rate-penalized solver's Lloyd phase.
_ECSQ_MAX_ITERS = 200

# The lambda search accepts entropies within this many bits of the budget;
# it bisects log2(lam / lam_max) over [_LAMBDA_MIN_EXP, 0].
_LAMBDA_SLACK = 0.05
_LAMBDA_MIN_EXP = -64.0

# Bytes of float64 per block (8,192 entries) of every blocked walk here and
# in coding; refnet's walks pass their own step. Scoring walks the clusters
# one column at a time over a block, whose handful of row vectors then stay
# in cache: ecsq_iterate at n = 1e5, k = 16 took 7.7 s in these blocks,
# 8.2 s in 64k-row blocks and 9.3 s unblocked on a 2-CPU VM.
_BLOCK_BYTES = 64 << 10


def block_slices(n: int, step: int | None = None):
    """Slices of ``max(1, step)`` entries, by default ``_BLOCK_BYTES // 8``,
    covering ``range(n)`` in order, the last one shorter."""
    step = max(1, _BLOCK_BYTES // 8 if step is None else step)
    return (slice(s, min(s + step, n)) for s in range(0, n, step))


@dataclass(frozen=True)
class Codebook:
    """Cluster centers plus how many parameters map to each."""

    centers: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        centers = _read_only(self.centers, np.float64)
        counts = _read_only(self.counts, np.int64)
        if counts.shape != centers.shape:
            raise ValueError("centers and counts differ in length")
        if not np.all(np.isfinite(centers)):
            raise ValueError("non-finite center")
        if np.any(counts < 0):
            raise ValueError("negative count")
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
    if not np.all(np.isfinite(arr)):
        raise ValueError("values must be finite")
    return arr


def _curvature64(x, n: int) -> np.ndarray:
    """The float64 weights of ``n`` values; ``None`` gives unit weights."""
    if x is None:
        return np.ones(n)
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
    """Curvature-weighted sum of squared errors (``curvature`` None: msqe)."""
    v = _values64(values)
    h = _curvature64(curvature, v.size)
    return _distortion(v, h, np.asarray(assignment), codebook.centers)


def dequantize(assignment, codebook: Codebook) -> np.ndarray:
    """Reconstruct each parameter as its cluster center."""
    a = np.ascontiguousarray(assignment, dtype=np.int64)
    if a.size and (a.min() < 0 or a.max() >= codebook.k):
        raise ValueError("assignment index out of range")
    return codebook.centers[a]


def index_dtype(n: int) -> np.dtype:
    """The smallest unsigned integer type that holds every index below ``n``:
    uint8 for up to 256 clusters, uint32 for positions in a model the
    ``NQ01`` header can count."""
    return np.min_scalar_type(max(n - 1, 0))


def cluster_counts(assignment, k: int) -> np.ndarray:
    """``np.bincount(assignment, minlength=k)``, with the assignment widened
    to int64 ``_BLOCK_BYTES // 8`` entries at a time rather than whole."""
    a = np.asarray(assignment)
    counts = np.zeros(k, dtype=np.int64)
    for b in block_slices(a.size):
        counts += np.bincount(a[b].astype(np.int64), minlength=k)
    return counts


def gather_kept(values, kept) -> tuple[np.ndarray, np.ndarray]:
    """The entries of ``values`` where ``kept`` is True, as float64, and their
    positions, in :func:`index_dtype` of the full length.

    The inverse of :func:`scatter_dequantize`'s placement. Both outputs are
    filled ``_BLOCK_BYTES // 8`` entries at a time, so no other array spans
    the model.
    """
    values, kept = np.asarray(values), np.asarray(kept, dtype=bool)
    if values.shape != kept.shape or kept.ndim != 1:
        raise ValueError("values and mask must be flat vectors of one length")
    n_kept = int(np.count_nonzero(kept))
    out = np.empty(n_kept)
    positions = np.empty(n_kept, dtype=index_dtype(kept.size))
    o = 0
    for b in block_slices(kept.size):
        idx = np.flatnonzero(kept[b])
        out[o : o + idx.size] = values[b][idx]
        idx += b.start
        positions[o : o + idx.size] = idx
        o += idx.size
    return out, positions


def scatter_dequantize(
    total: int, assignment, codebook: Codebook, positions=None
) -> np.ndarray:
    """Dequantize into a length-``total`` vector, zeros where pruned.

    Entry ``i`` goes to slot ``positions[i]``, or to slot ``i`` without
    ``positions``. Centers are looked up and placed ``_BLOCK_BYTES // 8``
    entries at a time, so only the output spans the whole model. Raises
    ValueError for a position outside ``[0, total)``.
    """
    a = np.asarray(assignment)
    if positions is None:
        if a.size != total:
            raise ValueError("assignment length != total without positions")
    else:
        pos = np.asarray(positions)
        if pos.shape != a.shape:
            raise ValueError("positions length disagrees with the assignment")
    out = np.zeros(total, dtype=np.float64)
    for b in block_slices(a.size):
        centers = dequantize(a[b], codebook)
        if positions is None:
            out[b] = centers
            continue
        slots = pos[b]
        if slots.min() < 0 or slots.max() >= total:
            raise ValueError(f"position outside [0, {total})")
        out[slots] = centers
    return out


def compact_codebook(assignment, codebook: Codebook) -> tuple[np.ndarray, Codebook]:
    """Drop zero-count clusters, renumbering the assignment to match.

    For hand-built codebooks: every solver's result is already compact.
    The assignment comes back in :func:`index_dtype` of the kept count,
    renumbered ``_BLOCK_BYTES // 8`` entries at a time; one already in that
    type with every cluster kept is returned as it is.
    """
    a = np.asarray(assignment)
    keep = codebook.counts > 0
    k = int(np.count_nonzero(keep))
    if k == codebook.k and a.dtype == index_dtype(k):
        return a, codebook
    remap = np.full(codebook.k, -1, dtype=np.int64)
    remap[keep] = np.arange(k)
    out = np.empty(a.shape, dtype=index_dtype(k))
    for b in block_slices(a.size):
        block = remap[a[b]]
        if block.min() < 0:
            raise ValueError("assignment names a cluster with zero count")
        out[b] = block
    return out, Codebook(codebook.centers[keep], codebook.counts[keep])


# ---------------------------------------------------------------------------
# Shared machinery
# ---------------------------------------------------------------------------


def _distortion(v, h, assign, centers) -> float:
    r = v - centers[assign]
    return float(np.sum(h * r * r))


def entropy_bits(codebook_or_counts) -> float:
    """Shannon entropy of the cluster-size distribution, in bits; ``0.0 -``
    gives one cluster +0.0, and every other sum its plain negation."""
    if isinstance(codebook_or_counts, Codebook):
        codebook_or_counts = codebook_or_counts.counts
    counts = np.asarray(codebook_or_counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise ValueError("empty count vector")
    p = counts[counts > 0] / total
    return float(0.0 - np.sum(p * np.log2(p)))


class _ClusterSums:
    """Per-cluster weight sums ``wsum``, weighted value sums ``wval`` and
    member counts of an assignment (``h=None``: unit weights).

    The sums add their terms in index order, ``_BLOCK_BYTES // 8`` at a
    time, which gives ``np.bincount``'s sums without widening a narrow
    assignment whole; with ``h=None`` the weight sums are the counts, held
    exactly. The polish's :meth:`apply` moves one point, updating the sums
    and the assignment in place, so move deltas follow in O(1).
    """

    def __init__(self, v, h, assign, k):
        self.v, self.h, self.assign = v, h, assign
        self.counts = cluster_counts(assign, k)
        self.wsum = self.counts.astype(np.float64) if h is None else np.zeros(k)
        self.wval = np.zeros(k)
        for b in block_slices(v.size):
            a, x = assign[b], v[b]
            if h is not None:
                np.add.at(self.wsum, a, h[b])
                x = h[b] * x
            np.add.at(self.wval, a, x)

    def codebook(self) -> Codebook:
        """Weighted means and counts; a cluster without weight has center 0."""
        centers = np.zeros(self.wsum.size)
        nz = self.wsum > 0
        centers[nz] = self.wval[nz] / self.wsum[nz]
        return Codebook(centers, self.counts)

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


def _move_delta(stats: _ClusterSums, lam: float, i: int, dst: int) -> float:
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


def _column_argmin(n: int, k: int, columns, block):
    """Per-row argmin (in ``index_dtype(k)``) and minimum of scores over ``columns``.

    ``block(rows)`` takes a slice of row indices and returns the scorer of
    that row block: a function from a column index to that column's
    scores. Rows go in blocks of ``_BLOCK_BYTES // 8``. A running minimum
    with strict ``<`` keeps the lowest column on ties; a row none of whose
    scores is below ``inf`` gets column 0. A NaN score makes the row's
    minimum NaN. Columns left out act as columns of ``inf``. No ``n x k``
    table is built, and the result does not depend on the block size.
    """
    arg = np.zeros(n, dtype=index_dtype(k))
    low = np.full(n, np.inf)
    for rows in block_slices(n):
        score, best, low_rows = block(rows), arg[rows], low[rows]
        for j in columns:
            s = score(j)
            np.putmask(best, s < low_rows, j)
            np.minimum(low_rows, s, out=low_rows)
    return arg, low


def _best_moves(stats: _ClusterSums, lam: float) -> tuple[np.ndarray, np.ndarray]:
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

    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        mean = W / S
        join = lam * (_rate_gain(counts + 1) - _rate_gain(counts))
        live = np.flatnonzero(counts).tolist()
        return _column_argmin(stats.v.size, counts.size, live, block)


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
    every scale of the values and curvature. Moves ``assign`` in place;
    returns it and the number of moves made.
    """
    stats = _ClusterSums(v, h, assign, k)
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


def _gaps(s: np.ndarray, rows, cnt, t) -> np.ndarray:
    """``s[i] - s[t]`` for each candidate ``t``, ``i`` being each of
    ``rows`` repeated ``cnt`` times."""
    d = s[rows].repeat(cnt)
    d -= s[t]
    return d


def _row_passes(n: int) -> list:
    """The divide-and-conquer schedule of a layer with rows ``1..n``: per
    pass, the middle rows of the open row ranges, ascending, and the
    nearest rows solved before them on the left and on the right (0 and
    ``n + 1`` stand for the fixed candidate ends)."""
    passes = []
    lo, hi = np.array([1]), np.array([n])
    while lo.size:
        mid = (lo + hi) // 2
        passes.append((mid, lo - 1, hi + 1))
        # Each range's left half, then its right half, keeps rows ascending.
        lo, hi = np.stack([lo, mid + 1], 1).ravel(), np.stack([mid - 1, hi], 1).ravel()
        lo, hi = lo[lo <= hi], hi[lo <= hi]
    return passes


def _dp_layer(prev: np.ndarray, lo: int, hi: int, sums, passes) -> tuple:
    """One layer of the k-means recurrence over prefix lengths ``lo..hi``:
    ``cur[i] = min over t in [lo-1, i-1] of prev[t] + cost(t, i)``, and the
    lowest minimizing ``t`` as ``split[i - lo]``. The run cost obeys the
    quadrangle inequality, so the splits are non-decreasing and each pass of
    ``passes`` (see :func:`_row_passes`) solves its rows over the candidates
    between their solved neighbours' splits."""
    # Rows and candidates count from lo - 1: row p is prefix length p + lo - 1.
    cur = np.full(prev.size, np.inf)
    sums, prev, out = [s[lo - 1 :] for s in sums], prev[lo - 1 :], cur[lo - 1 :]
    bound = np.empty(hi - lo + 3, dtype=np.int64)
    bound[0], bound[-1] = 0, hi - lo
    for mid, left, right in passes:
        tl = bound[left]
        cnt = np.minimum(bound[right], mid - 1) - tl + 1
        starts = np.cumsum(cnt) - cnt
        t = np.arange(starts[-1] + cnt[-1])
        t += np.repeat(tl - starts, cnt)
        # Weighted squared error of each run x[t:i]; a run whose weight is
        # lost in the rounding of the sums divides by 0, and fmax maps the
        # NaN or -inf to cost 0. Each term is freed once used.
        d1 = _gaps(sums[1], mid, cnt, t)
        d1 *= d1
        with np.errstate(divide="ignore", invalid="ignore"):
            d1 /= _gaps(sums[0], mid, cnt, t)
            val = _gaps(sums[2], mid, cnt, t)
            val -= d1
            del d1
            np.fmax(val, 0.0, out=val)
        val += prev[t]
        out[mid] = best = np.minimum.reduceat(val, starts)
        hit = np.flatnonzero(val == best.repeat(cnt))
        if hit.size > mid.size:  # ties: keep each row's first hit
            hit = hit[np.diff(np.searchsorted(starts, hit, "right"), prepend=0) > 0]
        bound[mid] = t[hit]
    return cur, (bound[1:-1] + (lo - 1)).astype(np.int32)


def _optimal_bounds(x: np.ndarray, w: np.ndarray, ks) -> dict[int, np.ndarray]:
    """Run boundaries ``0 = b_0 < ... < b_k = m`` of the optimal k-partition
    of the sorted distinct values ``x`` (weights ``w``) into contiguous runs,
    for each ``k`` in ``ks`` (each in ``1..m``), from one pass of the DP.
    Ties between partitions go to the lowest split.
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
    sums = [np.concatenate([[0.0], np.cumsum(a)]) for a in (w, w * u, w * u * u)]
    if not all(np.isfinite(s[-1]) for s in sums):
        raise ValueError("weighted squared deviations overflow float64")

    # Layer j holds the best j-run cost of each prefix length that leaves
    # room for k_j - j more runs, k_j the smallest requested k >= j; that
    # covers every requested k >= j, and with one k it is exactly that k's
    # range, over which its splits are stored. Each k then backtracks
    # through the same splits. Layer 1 is one pass in which each row's one
    # candidate is t = 0; the layers of one k_j share a row schedule, built
    # for the first of them and dropped after the last.
    n = m - min(ks) + 1
    prev, _ = _dp_layer(
        np.r_[0.0, np.full(m, np.inf)], 1, n, sums, [(np.arange(1, n + 1), 0, 0)]
    )
    splits, done = [], 1
    for k_j in sorted(set(ks) - {1}):
        passes = _row_passes(m - k_j + 1)
        for j in range(done + 1, k_j + 1):
            prev, split = _dp_layer(prev, j, j + m - k_j, sums, passes)
            splits.append(split)
        done = k_j
    for k in set(ks):
        bounds = np.empty(k + 1, dtype=np.int64)
        bounds[0], bounds[k] = 0, m
        for j in range(k, 1, -1):
            bounds[j - 1] = splits[j - 2][bounds[j] - j]
        out[k] = bounds
    return out


def _exact_kmeans(v: np.ndarray, h: np.ndarray, ks) -> list[QuantizeResult]:
    """Exact curvature-weighted 1-D k-means, one result per entry of ``ks``.

    Duplicate values merge (their curvature summed), so a result has
    ``min(k, distinct values)`` clusters, all with members, labelled in
    :func:`index_dtype` of that count in sorted value order. Ties between
    partitions go to the lowest split. The optimum is exact up to float64
    rounding of the prefix sums: partitions whose objectives differ by less
    than about ``n * eps * sum(h (v - mean)^2)`` are not told apart.
    """
    if v.size == 0:
        raise ValueError("cannot cluster an empty vector")
    x, inverse = np.unique(v, return_inverse=True)
    w = np.bincount(inverse, weights=h)
    bounds = _optimal_bounds(x, w, [min(k, x.size) for k in ks])
    results = []
    for k in ks:
        live = min(k, x.size)
        runs = np.arange(live, dtype=index_dtype(live))
        assign = runs.repeat(np.diff(bounds[live]))[inverse]
        codebook = _ClusterSums(v, h, assign, live).codebook()
        trace = np.asarray([_distortion(v, h, assign, codebook.centers)])
        results.append(QuantizeResult(assign, codebook, trace))
    return results


def kmeans_sweep(values, curvature, ks) -> list[QuantizeResult]:
    """Exact k-means for every cluster count in ``ks``, from one DP.

    With ``curvature`` None the objective is the plain squared-error sum;
    otherwise each squared error is weighted by that parameter's curvature
    and centers are curvature-weighted means, so with constant curvature the
    assignments match plain k-means. Each result is the exact optimum over
    at most ``k`` clusters, whose indices follow value order; with fewer
    distinct values than ``k`` each gets its own cluster. No cluster is
    empty, and the assignment is in :func:`index_dtype` of their count.
    The trace is the one-element ``[objective]``. Results come back in the
    order of ``ks``, which may be unsorted and repeat entries, and each
    equals the call with ``[k]`` alone, bit for bit: the DP runs
    ``max(ks)`` layers once, whatever the length of the list.
    """
    ks = [int(k) for k in ks]
    if not ks:
        raise ValueError("need at least one cluster count")
    if min(ks) < 1:
        raise ValueError("k must be at least 1")
    v = _values64(values)
    return _exact_kmeans(v, _curvature64(curvature, v.size), ks)


def uniform_quantize(
    values, curvature=None, k: int = 8, center_rule: str = "mean"
) -> QuantizeResult:
    """Equal-width binning over ``[min, max]`` with per-bin centers.

    ``center_rule`` picks plain means or curvature-weighted means; with
    ``curvature`` None the two are one rule, bit for bit, and build no
    weights. Empty bins are dropped and the codebook compacted, so the
    effective cluster count may be below ``k``. A degenerate all-equal
    input collapses to a single cluster.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if center_rule not in ("mean", "hessian_weighted_mean"):
        raise ValueError(f"unknown center_rule {center_rule!r}")
    v = _values64(values)
    h = None  # plain means
    if center_rule == "hessian_weighted_mean" and curvature is not None:
        h = _curvature64(curvature, v.size)

    lo, hi = float(v.min()), float(v.max())
    # Bin numbers reach k - 1; with more bins than values, the occupied
    # ones are renumbered below.
    assign = np.zeros(v.size, dtype=index_dtype(k) if k <= v.size else np.int64)
    if hi > lo and k > 1:
        width = (hi - lo) / k
        for b in block_slices(v.size):
            bins = v[b] - lo
            bins //= width
            assign[b] = np.minimum(bins, k - 1, out=bins)
        if k > v.size:
            # Most bins are empty; number the occupied ones only.
            assign = np.unique(assign, return_inverse=True)[1]
    k_bins = int(assign.max()) + 1

    codebook = _ClusterSums(v, h, assign, k_bins).codebook()
    assign, codebook = compact_codebook(assign, codebook)
    return QuantizeResult(assign, codebook, np.asarray([], dtype=np.float64))


def ecsq_iterate(values, curvature, k: int, lam: float) -> QuantizeResult:
    """Entropy-penalized clustering into at most ``k`` clusters at the
    bits-to-distortion exchange rate ``lam`` (finite, nonnegative).

    With ``lam == 0`` the entropy term vanishes and the result is the exact
    curvature-weighted k-means optimum of :func:`kmeans_sweep` (trace
    divided by ``n``). Otherwise, from centers evenly spaced over the value
    range and equal cluster probabilities, a Lloyd phase alternates two
    steps: assign each point to the cluster minimizing
    ``h_i (v_i - c_j)^2 - lam * log2(p_j)``, then take the weighted
    centers and the probabilities ``p_j`` from fresh cluster sums. It stops
    when the assignment repeats or ``J = D/n + lam * H`` would rise. One
    polish by single-point transfers, updating those sums per move, then
    makes the result one-move stable; its codebook comes from fresh sums.
    Clusters that empty are retired for good since their codeword cost is
    infinite. Both phases score the points against one live cluster at a
    time, in row blocks of ``_BLOCK_BYTES // 8`` points; memory is O(n + k)
    and the result does not depend on the block size.

    Returns the live clusters, renumbered in order, the assignment in
    :func:`index_dtype` of their count, and the non-increasing trace of
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
        with np.errstate(over="ignore"):  # an infinite rate term is a valid score
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

        return _column_argmin(n, k, np.flatnonzero(p > 0).tolist(), block)[0]

    def objective(assign, codebook):
        distortion = _distortion(v, h, assign, codebook.centers)
        return distortion / n + lam * entropy_bits(codebook)

    assign = assign_step(centers, np.full(k, 1.0 / k))
    codebook = _ClusterSums(v, h, assign, k).codebook()
    trace = [objective(assign, codebook)]

    for _ in range(_ECSQ_MAX_ITERS):
        new_assign = assign_step(codebook.centers, codebook.counts / n)
        if np.array_equal(new_assign, assign):
            break
        new_codebook = _ClusterSums(v, h, new_assign, k).codebook()
        new_obj = objective(new_assign, new_codebook)
        if new_obj > trace[-1]:
            break
        assign, codebook = new_assign, new_codebook
        trace.append(new_obj)

    assign = _stabilize(v, h, assign, k, lam, trace[0] * n)[0]
    codebook = _ClusterSums(v, h, assign, k).codebook()
    trace.append(objective(assign, codebook))
    return QuantizeResult(*compact_codebook(assign, codebook), np.asarray(trace))


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

    budget = target_entropy + _LAMBDA_SLACK
    res0 = ecsq_iterate(v, h, k, 0.0)
    h0 = entropy_bits(res0.codebook.counts)
    if h0 <= budget:
        return LambdaResult(0.0, res0, True, h0)

    # Beyond this the rate term dominates any distortion difference.
    lam_max = 10.0 * float(h.max()) * (float(v.max()) - float(v.min())) ** 2
    res_hi = ecsq_iterate(v, h, k, lam_max)
    h_hi = entropy_bits(res_hi.codebook.counts)
    if h_hi > budget:
        return LambdaResult(lam_max, res_hi, False, h_hi)

    # The first six midpoints are whole exponents, the grid that halving
    # lam_max walks.
    t_lo, t_hi = _LAMBDA_MIN_EXP, 0.0
    best_lam, best_res, best_h = lam_max, res_hi, h_hi
    while True:
        if best_h >= target_entropy - _LAMBDA_SLACK:
            break  # close enough to the budget from below
        if 2.0 ** (t_lo - t_hi) >= 1.0 - 1e-9:
            break  # the lam bracket is narrower than 1e-9 relative
        t_mid = 0.5 * (t_lo + t_hi)
        mid = lam_max * 2.0**t_mid
        res = ecsq_iterate(v, h, k, mid)
        h_mid = entropy_bits(res.codebook.counts)
        if h_mid <= budget:
            t_hi, best_lam, best_res, best_h = t_mid, mid, res, h_mid
        else:
            t_lo = t_mid
    return LambdaResult(best_lam, best_res, True, best_h)
