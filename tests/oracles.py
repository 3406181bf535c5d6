"""Brute-force oracles shared by the unit and acceptance suites.

Everything here recomputes objectives from scratch, independent of the
library's incremental bookkeeping, so agreement is meaningful.
"""

import heapq

import numpy as np

from netquant import Codebook, FormatError, QuantizeResult, forward_loss
from netquant.coding import MAGIC, build_huffman, entropy_bits
from netquant.refnet import _forward
from netquant.quantizers import (
    _ECSQ_MAX_ITERS,
    _MOVE_REL_TOL,
    _distortion,
    _entropy_from_counts,
    _MoveStats,
    _weighted_centers,
)


def iter_partitions(n: int, max_k: int):
    """All assignments of n items into at most max_k unlabeled clusters,
    as restricted growth strings."""
    labels = [0] * n

    def rec(i, used):
        if i == n:
            yield tuple(labels)
            return
        for c in range(min(used + 1, max_k)):
            labels[i] = c
            yield from rec(i + 1, max(used, c + 1))

    yield from rec(0, 0)


def weighted_cost(v, h, assign, k):
    """Curvature-weighted distortion with centers recomputed as weighted
    means, from scratch."""
    total = 0.0
    for j in range(k):
        member = np.asarray(assign) == j
        if not member.any():
            continue
        c = np.sum(h[member] * v[member]) / np.sum(h[member])
        total += float(np.sum(h[member] * (v[member] - c) ** 2))
    return total


def lagrangian_cost(v, h, assign, k, lam):
    counts = np.bincount(np.asarray(assign), minlength=k)
    return weighted_cost(v, h, assign, k) / v.size + lam * entropy_bits(counts)


def global_optimum(v, h, k, lam=None):
    """Exhaustive best partition; exponential, keep n small."""
    best = np.inf
    best_assign = None
    for assign in iter_partitions(v.size, k):
        cost = (
            weighted_cost(v, h, assign, k)
            if lam is None
            else lagrangian_cost(v, h, assign, k, lam)
        )
        if cost < best - 1e-15:
            best = cost
            best_assign = assign
    return best, best_assign


def one_move_stable(v, h, assign, k, lam=None, rel_tol=1e-9):
    """No reassignment of a single value (with centers re-optimized)
    improves the objective.

    For the rate-penalized objective, empty clusters are retired and not a
    legal destination. For plain clustering a cluster's only member may not
    leave, though such a move could never improve anyway.
    """
    assign = np.asarray(assign)
    counts = np.bincount(assign, minlength=k)
    base = (
        weighted_cost(v, h, assign, k)
        if lam is None
        else lagrangian_cost(v, h, assign, k, lam)
    )
    tol = rel_tol * abs(base)
    for i in range(v.size):
        for j in range(k):
            if j == assign[i]:
                continue
            if counts[j] == 0:
                continue
            trial = assign.copy()
            trial[i] = j
            cost = (
                weighted_cost(v, h, trial, k)
                if lam is None
                else lagrangian_cost(v, h, trial, k, lam)
            )
            if cost < base - tol:
                return False
    return True


def prune_mask_by_sort(values, fraction: float) -> np.ndarray:
    """Kept mask that prunes the ``int(fraction * n)`` smallest magnitudes,
    ties to the lower index, from a stable sort of every magnitude."""
    mag = np.abs(np.asarray(values, dtype=np.float64))
    kept = np.ones(mag.size, dtype=bool)
    kept[np.argsort(mag, kind="stable")[: int(fraction * mag.size)]] = False
    return kept


def rounded32(codebook: Codebook) -> Codebook:
    """Centers at storage precision, the model the bitstream describes."""
    return Codebook(
        codebook.centers.astype(np.float32).astype(np.float64), codebook.counts
    )


def hessian_diag_fd(spec, w, x, y):
    """Raw diagonal of the loss Hessian by central differences of the
    analytic gradient, one coordinate at a time (two gradient passes per
    parameter) with a relative step; no floor. The step, 1e-5, keeps the
    truncation error below 1e-6 relative on the nets the tests draw (1e-4
    does not)."""
    step = 1e-5
    w = np.array(w, dtype=np.float64)
    h = np.empty_like(w)
    for i in range(w.size):
        delta = step * (1.0 + abs(w[i]))
        orig = w[i]
        w[i] = orig + delta
        gp = forward_loss(spec, w, x, y)[1][i]
        w[i] = orig - delta
        gm = forward_loss(spec, w, x, y)[1][i]
        w[i] = orig
        h[i] = (gp - gm) / (2.0 * delta)
    return h


def pack_bits_oneshot(values, widths) -> np.ndarray:
    """The low ``widths[i]`` bits of each ``values[i]``, most significant
    first, one uint8 per bit, with every field expanded at once into
    whole-section int64 arrays (16 bytes per output bit). Raises ValueError
    for a value that does not fit its width."""
    values = np.asarray(values, dtype=np.int64)
    widths = np.broadcast_to(np.asarray(widths, dtype=np.int64), values.shape)
    if np.any(values < 0) or np.any(values >> widths):
        raise ValueError("value does not fit in its bit width")
    shift = np.repeat(np.cumsum(widths) - 1, widths)
    shift -= np.arange(shift.size)
    bits = np.repeat(values, widths)
    bits >>= shift
    bits &= 1
    return bits.astype(np.uint8)


def canonical_codewords(lengths) -> tuple[str, ...]:
    """Canonical codewords as bit strings, one symbol at a time in (length,
    index) order: consecutive values, left-shifted whenever the length
    grows. Raises ValueError when the lengths violate the Kraft inequality."""
    lengths = [int(x) for x in lengths]
    order = sorted(range(len(lengths)), key=lambda i: (lengths[i], i))
    codes = [""] * len(lengths)
    value, prev = 0, lengths[order[0]]
    for rank, i in enumerate(order):
        if rank > 0:
            value = (value + 1) << (lengths[i] - prev)
            prev = lengths[i]
        if value >> lengths[i]:
            raise ValueError("lengths violate the Kraft inequality")
        codes[i] = format(value, f"0{lengths[i]}b")
    return tuple(codes)


def index_gaps_whole(positions):
    """Index gaps, their distinct values and Huffman code, and the index
    section's size in bits, from whole-array ``np.unique``."""
    pos = np.asarray(positions, dtype=np.int64)
    diffs = np.diff(pos, prepend=0)
    diffs[0] = pos[0]
    symbols, sym_idx = np.unique(diffs, return_inverse=True)
    code = build_huffman(np.bincount(sym_idx, minlength=symbols.size))
    payload_bits = int(np.asarray(code.lengths)[sym_idx].sum())
    return diffs, symbols, sym_idx, code, 64 + symbols.size * 40 + payload_bits


def encode_whole(assignment, codebook: Codebook, code, positions=None, total_params=None):
    """``NQ01`` bytes and bit breakdown of an encoded model, with every
    section built as whole-array values and widths (``codes[a]``,
    ``lengths[a]``, the gap symbols) and packed at once."""
    a = np.asarray(assignment, dtype=np.int64)
    codes = np.array([int(c, 2) for c in canonical_codewords(code.lengths)], dtype=np.int64)
    lengths = np.asarray(code.lengths, dtype=np.int64)
    total_params = a.size if total_params is None else total_params
    sections = {
        "header": (
            [int.from_bytes(MAGIC, "big"), {"fixed": 0, "huffman": 1}[code.scheme],
             positions is not None, 32, code.k, a.size, total_params],
            [32, 8, 8, 8, 32, 32, 32],
        ),  # fmt: skip
        "centers": (codebook.centers.astype("<f4").view(">u4"), 32),
        "length_table": (lengths, 8),
        "codeword_table": (codes, lengths),
        "payload": (codes[a], lengths[a]),
        "index_section": ((), ()),
    }
    if positions is not None:
        diffs, symbols, gaps, gap_code, _ = index_gaps_whole(positions)
        gap_codes = np.array(
            [int(c, 2) for c in canonical_codewords(gap_code.lengths)], dtype=np.int64
        )
        gap_lengths = np.asarray(gap_code.lengths, dtype=np.int64)
        m = symbols.size
        sections["index_section"] = (
            np.concatenate([[diffs.size, m], symbols, gap_lengths, gap_codes[gaps]]),
            np.concatenate([[32, 32], np.full(m, 32), np.full(m, 8), gap_lengths[gaps]]),
        )
    packed = {name: pack_bits_oneshot(*section) for name, section in sections.items()}
    bits = np.concatenate(list(packed.values()))
    data = np.packbits(bits).tobytes()
    breakdown = {name: int(part.size) for name, part in packed.items()}
    breakdown["padding"] = 8 * len(data) - int(bits.size)
    return data, breakdown


def eval_accuracy_whole(spec, w, inputs, labels) -> float:
    """Accuracy from one forward pass over every evaluation row at once."""
    _, _, acts = _forward(spec, np.asarray(w, dtype=np.float64), inputs)
    return float(np.mean(np.argmax(acts[-1], axis=1) == np.asarray(labels)))


def accuracy_range_whole(spec, w, inputs, labels, rel_tol=1e-9) -> tuple[float, float]:
    """The whole-pass accuracy over every way of breaking near-ties.

    A logit within ``rel_tol`` of its row's largest magnitude below the
    row's maximum ties with it, since rounding alone (a BLAS kernel chosen
    by matrix size) can reorder such logits. A row is a sure hit when its
    label is its only tied logit and a possible hit when its label is one
    of them. Without near-ties both ends are :func:`eval_accuracy_whole`.
    """
    _, _, acts = _forward(spec, np.asarray(w, dtype=np.float64), inputs)
    logits, y = acts[-1], np.asarray(labels)
    tol = rel_tol * np.abs(logits).max(axis=1, keepdims=True)
    tied = logits >= logits.max(axis=1, keepdims=True) - tol
    possible = tied[np.arange(y.size), y]
    sure = possible & (tied.sum(axis=1) == 1)
    return float(np.mean(sure)), float(np.mean(possible))


def canonical_decode(bits, pos: int, lengths, n: int):
    """Decode ``n`` symbols of the canonical code with ``lengths`` from the
    bit sequence ``bits`` starting at ``pos``, one bit at a time until the
    prefix read is a codeword. Returns ``(symbols, end position)``; raises
    FormatError when the bits run out or no codeword matches."""
    order = sorted(range(len(lengths)), key=lambda i: (lengths[i], i))
    table, value, prev = {}, -1, lengths[order[0]]
    for i in order:  # consecutive values, shifted left as the length grows
        value = (value + 1) << (lengths[i] - prev)
        prev = lengths[i]
        table[(lengths[i], value)] = i
    symbols = []
    for _ in range(n):
        length = value = 0
        while (length, value) not in table:
            if length == max(lengths):
                raise FormatError("invalid codeword")
            if pos >= len(bits):
                raise FormatError("truncated")
            value = 2 * value + int(bits[pos])
            length += 1
            pos += 1
        symbols.append(table[(length, value)])
    return symbols, pos


def huffman_lengths_heap(counts) -> list[int]:
    """Huffman codeword lengths from a heap of (count, node id, members),
    leaves numbered 0..k-1 and merged nodes after them; each merge deepens
    every member of both subtrees by one."""
    counts = [int(c) for c in counts]
    if len(counts) == 1:
        return [1]
    lengths = [0] * len(counts)
    heap = [(c, i, [i]) for i, c in enumerate(counts)]
    heapq.heapify(heap)
    tiebreak = len(counts)
    while len(heap) > 1:
        c1, _, m1 = heapq.heappop(heap)
        c2, _, m2 = heapq.heappop(heap)
        for i in m1 + m2:
            lengths[i] += 1
        heapq.heappush(heap, (c1 + c2, tiebreak, m1 + m2))
        tiebreak += 1
    return lengths


def _move_deltas_table(stats, lam, i, dst):
    """Objective change for moving points ``i`` to clusters ``dst``
    (broadcast against each other) from the live cluster sums; ``inf`` for
    a retired cluster or a point's own one."""
    v, h, src = stats.v[i], stats.h[i], stats.assign[i]
    S, W, counts = stats.wsum, stats.wval, stats.counts
    Ss, Sd = S[src], S[dst]

    with np.errstate(invalid="ignore", divide="ignore"):
        c_rest = (W[src] - h * v) / (Ss - h)
        removal = -h * (v - c_rest) ** 2 * (Ss - h) / Ss
        add = h * (v - W[dst] / Sd) ** 2 * (Sd / (Sd + h))
    removal = np.where(counts[src] <= 1, 0.0, removal)

    def f(c):
        return c * np.log2(np.maximum(c, 1))

    ns, nd = counts[src], counts[dst]
    rate = -lam * (f(ns - 1) - f(ns)) - lam * (f(nd + 1) - f(nd))
    delta = removal + add + rate
    return np.where((nd == 0) | (dst == src), np.inf, delta)


def _table_argmin(table):
    """Per-row argmin (first on ties, first NaN if any) and its value."""
    arg = np.argmin(table, axis=1)
    return arg, table[np.arange(table.shape[0]), arg]


def best_moves_table(stats, lam):
    """Each point's best destination and objective change, from one
    ``n x k`` table of every point's move to every cluster."""
    rows = np.arange(stats.v.size)[:, None]
    clusters = np.arange(stats.counts.size)
    return _table_argmin(_move_deltas_table(stats, lam, rows, clusters))


def ecsq_iterate_tables(v, h, k: int, lam: float) -> QuantizeResult:
    """The rate-penalized solver for ``lam > 0`` scoring every point against
    every cluster in one ``n x k`` table per Lloyd step and per polish scan:
    ``argmin`` over the table, then Hartigan's transfers re-checked one at a
    time against the live cluster sums. Float64 inputs only."""
    n = v.size
    rows = np.arange(n)[:, None]

    def assign_step(centers, p):
        penalty = np.where(p > 0, -lam * np.log2(np.maximum(p, 1e-300)), np.inf)
        return _table_argmin(h[rows] * (v[rows] - centers) ** 2 + penalty)[0]

    def objective(assign, centers, counts):
        return _distortion(v, h, assign, centers) / n + lam * _entropy_from_counts(
            counts
        )

    def stabilize(assign, obj_scale):
        stats = _MoveStats(v, h, assign, k)
        tol = _MOVE_REL_TOL * abs(obj_scale)
        while True:
            best_dst, best_delta = best_moves_table(stats, lam)
            candidates = np.flatnonzero(best_delta < -tol)
            order = candidates[np.argsort(best_delta[candidates], kind="stable")]
            moved = False
            for i in order:
                if _move_deltas_table(stats, lam, i, best_dst[i]) < -tol:
                    stats.apply(i, best_dst[i])
                    moved = True
            if not moved:
                return stats.assign

    centers = np.linspace(float(v.min()), float(v.max()), k)
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

    assign = stabilize(assign, trace[0] * n)
    centers, _ = _weighted_centers(v, h, assign, k, centers)
    counts = np.bincount(assign, minlength=k)
    trace.append(objective(assign, centers, counts))
    return QuantizeResult(assign, Codebook(centers, counts), np.asarray(trace))
