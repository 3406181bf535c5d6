"""Brute-force oracles shared by the unit and acceptance suites.

Everything here recomputes objectives from scratch, independent of the
library's incremental bookkeeping, so agreement is meaningful.
"""

import heapq

import numpy as np

from netquant import (
    Codebook,
    DivergenceError,
    FormatError,
    QuantizeResult,
    forward_loss,
    init_params,
)
from netquant.coding import MAGIC, build_huffman, entropy_bits
from netquant.refnet import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    _batches,
    _loss_and_delta,
    _unpack,
)
from netquant.quantizers import (
    _ECSQ_MAX_ITERS,
    _MOVE_REL_TOL,
    _ClusterSums,
    _distortion,
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


def prune_magnitude_whole(values, fraction: float) -> np.ndarray:
    """Kept mask of ``refnet.prune_magnitude`` from whole-array steps: a
    partition of the magnitudes gives the threshold, then every value below
    it and the lowest-index ties at it are pruned."""
    mag = np.abs(np.asarray(values))
    n_prune = int(fraction * mag.size)
    kept = np.ones(mag.size, dtype=bool)
    if n_prune:
        threshold = np.partition(mag, n_prune - 1)[n_prune - 1]
        below = mag < threshold
        kept[below] = False
        ties = np.flatnonzero(mag == threshold)
        kept[ties[: n_prune - np.count_nonzero(below)]] = False
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


def forward_whole(spec, w, inputs):
    """The net's layers, pre-activations and activations over the whole
    batch: each product plus bias as a fresh array, activated into another."""
    layers = _unpack(spec, np.asarray(w, dtype=np.float64))
    acts = [np.ascontiguousarray(inputs, dtype=np.float64)]
    pre = []
    for l, (W, b) in enumerate(layers):
        z = acts[-1] @ W + b
        pre.append(z)
        if l == len(layers) - 1 or spec.activation == "none":
            acts.append(z)
        else:
            acts.append(np.maximum(z, 0.0) if spec.activation == "relu" else np.tanh(z))
    return layers, pre, acts


def slope_whole(spec, z, a):
    """The activation's slope at pre-activation ``z`` with output ``a``."""
    if spec.activation == "relu":
        return (z > 0).astype(np.float64)
    if spec.activation == "tanh":
        return 1.0 - a * a
    return np.ones_like(z)


def hessian_diag_gn_whole(spec, w, inputs, labels):
    """Unfloored float64 Gauss-Newton curvature from one forward pass over
    every row at once: the output Hessian's diagonal, propagated back
    through squared weights and squared slopes into zero-filled sums."""
    layers, pre, acts = forward_whole(spec, w, inputs)
    batch = acts[0].shape[0]
    if spec.loss == "softmax_cross_entropy":
        probs = np.exp(acts[-1] - acts[-1].max(axis=1, keepdims=True))
        probs = probs / probs.sum(axis=1, keepdims=True)
        s = probs * (1.0 - probs) / batch
    else:
        s = np.full_like(acts[-1], 1.0 / batch)
    h = np.zeros(spec.param_count())
    hlayers = _unpack(spec, h)
    for l in range(len(layers) - 1, -1, -1):
        hW, hb = hlayers[l]
        hW += (acts[l] * acts[l]).T @ s
        hb += s.sum(axis=0)
        if l > 0:
            W = layers[l][0]
            s = (s @ (W * W).T) * slope_whole(spec, pre[l - 1], acts[l]) ** 2
    return h


def eval_accuracy_whole(spec, w, inputs, labels) -> float:
    """Accuracy from one forward pass over every evaluation row at once."""
    _, _, acts = forward_whole(spec, w, inputs)
    return float(np.mean(np.argmax(acts[-1], axis=1) == np.asarray(labels)))


def forward_loss_whole(spec, w, inputs, labels):
    """Batch loss and gradient, each layer's product added into a
    zero-filled gradient vector."""
    layers, pre, acts = forward_whole(spec, w, inputs)
    loss, delta = _loss_and_delta(spec, acts[-1], np.asarray(labels))
    grad = np.zeros_like(w)
    glayers = _unpack(spec, grad)
    for l in range(len(layers) - 1, -1, -1):
        gW, gb = glayers[l]
        gW += acts[l].T @ delta
        gb += delta.sum(axis=0)
        if l > 0:
            delta = (delta @ layers[l][0].T) * slope_whole(spec, pre[l - 1], acts[l])
    return loss, grad


def train_adam_whole(spec, ds, cfg):
    """Adam on whole-array expressions, a fresh vector per term and step.
    Returns the float32 parameters, the second moments and the loss over
    the training split."""
    w = init_params(spec, cfg.seed).as_f64()
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    rng = np.random.default_rng(cfg.seed + 1)
    train_x, train_y = ds.split("train")
    for t, batch in _batches(rng, train_x.shape[0], cfg.batch_size, cfg.steps):
        loss, grad = forward_loss_whole(spec, w, train_x[batch], train_y[batch])
        assert np.isfinite(loss)
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
        mhat = m / (1.0 - ADAM_BETA1**t)
        vhat = v / (1.0 - ADAM_BETA2**t)
        w -= cfg.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
    final_loss, _ = forward_loss_whole(spec, w, train_x, train_y)
    return w.astype(np.float32), v, final_loss


def fine_tune_centers_whole(spec, assignment, codebook, ds, cfg, positions=None):
    """Centers after SGD steps that each rebuild the full parameter vector
    from zeros; returns the centers. A non-finite loss raises the
    DivergenceError that ``fine_tune_centers`` raises at that step, and
    centers beyond float32 the one it raises at the end."""
    a = np.asarray(assignment)
    n = spec.param_count()
    pos = np.arange(n) if positions is None else np.asarray(positions)
    centers = codebook.centers.copy()
    rng = np.random.default_rng(cfg.seed)
    train_x, train_y = ds.split("train")
    for t, batch in _batches(rng, train_x.shape[0], cfg.batch_size, cfg.steps):
        w_full = np.zeros(n)
        w_full[pos] = centers[a]
        with np.errstate(over="ignore", invalid="ignore"):
            loss, grad = forward_loss_whole(spec, w_full, train_x[batch], train_y[batch])
        if not np.isfinite(loss):
            raise DivergenceError(f"fine-tuning loss became non-finite at step {t}")
        centers -= cfg.lr * np.bincount(a, weights=grad[pos], minlength=codebook.k)
    if not np.all(np.abs(centers) <= np.finfo(np.float32).max):
        raise DivergenceError("fine-tuned centers overflow float32")
    return centers


def accuracy_range_whole(spec, w, inputs, labels, rel_tol=1e-9) -> tuple[float, float]:
    """The whole-pass accuracy over every way of breaking near-ties.

    A logit within ``rel_tol`` of its row's largest magnitude below the
    row's maximum ties with it, since rounding alone (a BLAS kernel chosen
    by matrix size) can reorder such logits. A row is a sure hit when its
    label is its only tied logit and a possible hit when its label is one
    of them. Without near-ties both ends are :func:`eval_accuracy_whole`.
    """
    _, _, acts = forward_whole(spec, w, inputs)
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


def cluster_sums_whole(v, h, assign, k):
    """Per-cluster weight sums, weighted value sums and counts from
    whole-array ``np.bincount`` (``h=None``: unit weights)."""
    a = np.asarray(assign, dtype=np.int64)
    w = np.ones(v.size) if h is None else h
    wsum = np.bincount(a, weights=w, minlength=k)
    return wsum, np.bincount(a, weights=w * v, minlength=k), np.bincount(a, minlength=k)


def codebook_whole(v, h, assign, k, fallback) -> Codebook:
    """Weighted means from :func:`cluster_sums_whole`; a cluster without
    weight keeps its ``fallback`` center."""
    wsum, wval, counts = cluster_sums_whole(v, h, assign, k)
    centers = fallback.copy()
    nz = wsum > 0
    centers[nz] = wval[nz] / wsum[nz]
    return Codebook(centers, counts)


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
    time against the live cluster sums. Codebooks come from whole-array
    ``np.bincount`` sums; float64 inputs only."""
    n = v.size
    rows = np.arange(n)[:, None]

    def assign_step(centers, p):
        penalty = np.where(p > 0, -lam * np.log2(np.maximum(p, 1e-300)), np.inf)
        return _table_argmin(h[rows] * (v[rows] - centers) ** 2 + penalty)[0]

    def objective(assign, codebook):
        distortion = _distortion(v, h, assign, codebook.centers)
        return distortion / n + lam * entropy_bits(codebook.counts)

    def stabilize(assign, obj_scale):
        stats = _ClusterSums(v, h, assign, k)
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
    codebook = codebook_whole(v, h, assign, k, centers)
    trace = [objective(assign, codebook)]
    for _ in range(_ECSQ_MAX_ITERS):
        new_assign = assign_step(codebook.centers, codebook.counts / n)
        if np.array_equal(new_assign, assign):
            break
        new_codebook = codebook_whole(v, h, new_assign, k, codebook.centers)
        new_obj = objective(new_assign, new_codebook)
        if new_obj > trace[-1]:
            break
        assign, codebook = new_assign, new_codebook
        trace.append(new_obj)

    assign = stabilize(assign, trace[0] * n)
    codebook = codebook_whole(v, h, assign, k, codebook.centers)
    trace.append(objective(assign, codebook))
    return QuantizeResult(assign, codebook, np.asarray(trace))


def dp_layer_ranges(prev, lo: int, hi: int, cost):
    """One layer of the k-means recurrence by divide and conquer over
    explicit row and candidate ranges; split table over ``0..m``."""
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


def optimal_bounds_ranges(x, w, ks) -> dict:
    """Run boundaries of the optimal k-partitions of the sorted distinct
    values ``x`` for each ``k`` in ``ks``, from :func:`dp_layer_ranges`
    and a cost function with ``np.where`` guards."""
    m = x.size
    out = {m: np.arange(m + 1)} if m in ks else {}
    ks = [k for k in ks if k < m]
    if not ks:
        return out
    u = x - np.dot(w, x) / w.sum()
    s0, s1, s2 = (np.concatenate([[0.0], np.cumsum(a)]) for a in (w, w * u, w * u * u))

    def cost(t, i):  # weighted squared error of the run x[t:i], 0 without weight
        d0, d1 = s0[i] - s0[t], s1[i] - s1[t]
        sse = s2[i] - s2[t] - d1 * d1 / np.where(d0 > 0, d0, 1.0)
        return np.where(d0 > 0, np.maximum(sse, 0.0), 0.0)

    prev = np.full(m + 1, np.inf)
    prev[1 : m - min(ks) + 2] = cost(0, np.arange(1, m - min(ks) + 2))
    splits = []
    for j in range(2, max(ks) + 1):
        k_j = min(k for k in ks if k >= j)
        prev, split = dp_layer_ranges(prev, j, m - k_j + j, cost)
        splits.append(split)
    for k in set(ks):
        bounds = np.empty(k + 1, dtype=np.int64)
        bounds[0], bounds[k] = 0, m
        for j in range(k, 1, -1):
            bounds[j - 1] = splits[j - 2][bounds[j]]
        out[k] = bounds
    return out
