"""Prefix codes, bit-exact serialization, and compression accounting.

A quantized model stores, for each of ``n`` parameters, the codeword of its
cluster, plus a lookup table holding the ``k`` cluster centers (at the
original parameter precision, ``b`` bits each) and the ``k`` codewords
themselves. The storage cost in bits is therefore

    sum_j (count_j + 1) * len_j  +  k * b

and the compression ratio is ``n * b`` divided by that. The serializer
mirrors this accounting exactly; fixed framing fields that the formula does
not charge for (magic, sizes, the canonical length table, end padding, and
the optional pruned-index section) are tracked separately in the breakdown
so formula and measurement cannot drift.

Binary layout of an encoded model (bits packed most-significant first,
padded to a byte boundary only at the very end):

    magic "NQ01"                          32 bits
    scheme (0 fixed, 1 huffman)            8
    flags (bit 0: index section present)   8
    source_bits b                          8
    k                                     32
    n (parameters encoded)                32
    total_params (pre-pruning count)      32
    centers, float32 each                 k * b      [charged by the ratio]
    codeword lengths, one byte each       k * 8
    codewords, canonical order            sum len_j  [charged by the ratio]
    payload, one codeword per parameter   sum count_j * len_j   [charged]
    index section (if flagged):
        n_positions                       32
        n_symbols                         32
        symbol values (index gaps)        n_symbols * 32
        symbol codeword lengths           n_symbols * 8
        gap payload                       one codeword per position

Codes are canonical (codewords ordered by length, then cluster index), so a
decoder rebuilds them from the length table alone; the stored codewords are
verified against the canonical reconstruction on decode. Codeword lengths
are 1..62 bits, so a left-aligned codeword fits an int64; a
:class:`PrefixCode` refuses longer codes and the decoder rejects such a
table as corrupt. A Huffman code for fewer than 2**32 parameters never
exceeds 45 bits.

Both directions hold the stream at one uint8 per bit and work on it in
blocks. The encoder looks up the codewords of ``_PACK_BLOCK`` symbols at
a time in the code tables and expands them into that array (16 bytes of
int64 temporaries per bit of the block) before ``np.packbits``; the
decoder reads codewords ``_DECODE_BLOCK`` bit positions at a time (see
:meth:`_BitReader.symbols`). So the temporaries of either stay bounded
however large the model is.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .params import FormatError
from .quantizers import Codebook

MAGIC = b"NQ01"
_SCHEMES = {"fixed": 0, "huffman": 1}
_SCHEME_NAMES = {v: k for k, v in _SCHEMES.items()}
# Bit positions whose codeword windows are decoded at once (about 40 B each).
_DECODE_BLOCK = 1 << 16
# Fields packed at once; each output bit takes 16 B of int64 temporaries.
_PACK_BLOCK = 1 << 13


# ---------------------------------------------------------------------------
# Prefix codes
# ---------------------------------------------------------------------------


# Longest codeword length; a left-aligned codeword then fits an int64.
_MAX_CODE_BITS = 62


def _canonical_values(lengths: np.ndarray) -> np.ndarray:
    """Canonical codeword values for ``lengths`` (see :class:`PrefixCode`)."""
    if lengths.min() < 1:
        raise ValueError("codeword lengths must be positive")
    if lengths.max() > _MAX_CODE_BITS:
        raise ValueError(f"codeword longer than {_MAX_CODE_BITS} bits is not supported")
    order = np.argsort(lengths, kind="stable")
    ranked = lengths[order]
    top = int(ranked[-1])
    # Exact Kraft test first, one term per distinct length, so the int64
    # cumulative sum below cannot overflow.
    per_length = np.bincount(ranked)
    if sum(int(c) << (top - l) for l, c in enumerate(per_length.tolist()) if c) > 1 << top:
        raise ValueError("lengths violate the Kraft inequality")
    step = np.left_shift(1, top - ranked)
    starts = np.cumsum(step) - step
    values = np.empty_like(lengths)
    values[order] = starts >> (top - ranked)
    return values


@dataclass(frozen=True)
class PrefixCode:
    """A canonical prefix code, one codeword per cluster.

    Symbols ordered by (length, index) take consecutive codeword values,
    left-shifted whenever the length grows. Left-aligned to the longest
    length ``top``, symbol ``r`` in that order therefore starts at the sum
    of ``2**(top - len)`` over the symbols before it, which one cumulative
    sum gives for every symbol; ``values`` holds each codeword as an
    integer. Lengths whose Kraft sum exceeds one leave the last codeword
    past ``2**top`` and are rejected; canonical codewords of Kraft-valid
    lengths are prefix-free by construction.
    """

    lengths: tuple[int, ...]
    scheme: str = "huffman"
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        lengths = tuple(int(x) for x in self.lengths)
        if not lengths:
            raise ValueError("empty code")
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "values", _canonical_values(np.array(lengths, np.int64)))
        if self.scheme == "fixed":
            width = max(1, math.ceil(math.log2(len(lengths)))) if len(lengths) > 1 else 1
            if any(l != width for l in lengths):
                raise ValueError("fixed scheme requires equal ceil(log2 k) lengths")

    @property
    def codewords(self) -> tuple[str, ...]:
        """The codewords as bit strings, most significant bit first."""
        return tuple(format(v, f"0{l}b") for v, l in zip(self.values.tolist(), self.lengths))

    @property
    def k(self) -> int:
        return len(self.lengths)

    def kraft_sum(self) -> float:
        # Exact in binary arithmetic: sum of 2^(L - len) over symbols, as
        # an integer against 2^L.
        max_len = max(self.lengths)
        total = sum(1 << (max_len - l) for l in self.lengths)
        return total / float(1 << max_len)

    def avg_bits(self, counts) -> float:
        counts = np.asarray(counts, dtype=np.float64)
        if counts.shape != (self.k,):
            raise ValueError("counts length disagrees with the code")
        total = counts.sum()
        if total <= 0:
            raise ValueError("empty count vector")
        return float(np.dot(counts, np.asarray(self.lengths)) / total)


def huffman_lengths(counts) -> list[int]:
    """Optimal integer codeword lengths for the given positive counts.

    Huffman's merges by the two-queue method: leaves sorted by (count,
    index), then internal nodes in the order they are made, which is also
    the order of their weights. Each merge takes the lighter queue front,
    a leaf on ties, which is the (count, node id) order of a heap over
    leaves numbered before internal nodes. Lengths are depths, found from
    parent pointers.
    """
    counts = [int(c) for c in counts]
    if not counts:
        raise ValueError("empty count vector")
    if any(c <= 0 for c in counts):
        raise ValueError("counts must be positive; drop retired clusters first")
    k = len(counts)
    if k == 1:
        return [1]
    order = sorted(range(k), key=counts.__getitem__)
    weight = [counts[i] for i in order] + [0] * (k - 1)
    parent = [0] * (2 * k - 1)
    leaf, inner = 0, k
    for node in range(k, 2 * k - 1):
        for _ in range(2):
            if leaf < k and (inner == node or weight[leaf] <= weight[inner]):
                child, leaf = leaf, leaf + 1
            else:
                child, inner = inner, inner + 1
            weight[node] += weight[child]
            parent[child] = node
    # Every parent is numbered above its children, so one pass down from
    # the root (node 2k - 2, depth 0) gives every depth.
    depth = [0] * (2 * k - 1)
    for node in range(2 * k - 3, -1, -1):
        depth[node] = depth[parent[node]] + 1
    lengths = [0] * k
    for rank, i in enumerate(order):
        lengths[i] = depth[rank]
    # A codeword of length L needs a total count of at least F(L + 2), the
    # Fibonacci number (Buro, IPL 1993). The n field is 32 bits and
    # 2**32 < F(48), so a code for counts the format can hold stays within
    # 45 bits, well inside the 62-bit codeword limit.
    assert sum(counts) >= 1 << 32 or max(lengths) <= 45
    return lengths


def build_huffman(codebook_or_counts) -> PrefixCode:
    """Canonical Huffman code for a codebook's cluster-size distribution."""
    counts = (
        codebook_or_counts.counts
        if isinstance(codebook_or_counts, Codebook)
        else codebook_or_counts
    )
    return PrefixCode(tuple(huffman_lengths(counts)), scheme="huffman")


def fixed_length_code(k: int) -> PrefixCode:
    """All codewords ceil(log2 k) bits; a single cluster still gets 1 bit."""
    if k < 1:
        raise ValueError("k must be at least 1")
    width = max(1, math.ceil(math.log2(k))) if k > 1 else 1
    return PrefixCode(tuple([width] * k), scheme="fixed")


def entropy_bits(codebook_or_counts) -> float:
    """Shannon entropy of the cluster-size distribution, in bits."""
    counts = (
        codebook_or_counts.counts
        if isinstance(codebook_or_counts, Codebook)
        else np.asarray(codebook_or_counts)
    )
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise ValueError("empty count vector")
    p = counts[counts > 0] / total
    return float(-np.sum(p * np.log2(p)))


# ---------------------------------------------------------------------------
# Compression-ratio accounting
# ---------------------------------------------------------------------------


def compression_ratio_exact(n_params: int, source_bits: int, counts, code: PrefixCode) -> float:
    """Original bits over stored bits, counting the full lookup table.

    Stored bits are one codeword per parameter, one stored codeword per
    cluster, and one ``source_bits``-wide center per cluster.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (code.k,):
        raise ValueError("counts length disagrees with the code")
    if int(counts.sum()) != n_params:
        raise ValueError("counts do not sum to n_params")
    lengths = np.asarray(code.lengths, dtype=np.int64)
    denom = int(np.dot(counts + 1, lengths)) + code.k * source_bits
    return n_params * source_bits / denom


class EntropyRatio(NamedTuple):
    with_overhead: float
    approx: float


@dataclass(frozen=True)
class CompressionReport:
    """Everything a compression run claims about itself, in one record.

    ``ratio_exact`` is the formula value (payload, stored codewords, and
    center table); ``ratio_measured`` divides the same original size by the
    full serialized bit count, so it is at most ``ratio_exact``. Accuracies
    are ``None`` when no evaluation data was supplied.
    """

    entropy_bits: float
    avg_codeword_bits: float
    ratio_exact: float
    ratio_entropy_overhead: float
    ratio_entropy_approx: float
    ratio_measured: float
    k_effective: int
    n_params: int
    source_bits: int
    scheme: str
    bit_breakdown: dict
    accuracy_pre_finetune: float | None = None
    accuracy_post_finetune: float | None = None

    def as_dict(self) -> dict:
        return {
            "entropy_bits": self.entropy_bits,
            "avg_codeword_bits": self.avg_codeword_bits,
            "ratio_exact": self.ratio_exact,
            "ratio_entropy_overhead": self.ratio_entropy_overhead,
            "ratio_entropy_approx": self.ratio_entropy_approx,
            "ratio_measured": self.ratio_measured,
            "k_effective": self.k_effective,
            "n_params": self.n_params,
            "source_bits": self.source_bits,
            "scheme": self.scheme,
            "bit_breakdown": dict(self.bit_breakdown),
            "accuracy_pre_finetune": self.accuracy_pre_finetune,
            "accuracy_post_finetune": self.accuracy_post_finetune,
        }


def build_report(
    em: "EncodedModel",
    counts,
    code: PrefixCode,
    accuracy_pre: float | None = None,
    accuracy_post: float | None = None,
) -> CompressionReport:
    """Assemble the standard report for an encoded model."""
    counts = np.asarray(counts, dtype=np.int64)
    h = entropy_bits(counts)
    avg = code.avg_bits(counts)
    exact = compression_ratio_exact(em.n_params, em.source_bits, counts, code)
    ent = compression_ratio_entropy(
        em.source_bits, avg, code.k, int(sum(code.lengths)), em.n_params
    )
    measured = em.n_params * em.source_bits / em.total_bits
    return CompressionReport(
        entropy_bits=h,
        avg_codeword_bits=avg,
        ratio_exact=exact,
        ratio_entropy_overhead=ent.with_overhead,
        ratio_entropy_approx=ent.approx,
        ratio_measured=measured,
        k_effective=code.k,
        n_params=em.n_params,
        source_bits=em.source_bits,
        scheme=em.scheme,
        bit_breakdown=dict(em.breakdown),
        accuracy_pre_finetune=accuracy_pre,
        accuracy_post_finetune=accuracy_post,
    )


def compression_ratio_entropy(
    source_bits: int, avg_bits: float, k: int, sum_lengths: int, n_params: int
) -> EntropyRatio:
    """Rate-based compression ratio, with and without table overhead.

    The overhead form divides ``b`` by the average codeword length plus the
    per-parameter share of the lookup table; the approximation drops the
    table term (valid when parameters vastly outnumber clusters).
    """
    if n_params <= 0:
        raise ValueError("n_params must be positive")
    overhead = (sum_lengths + k * source_bits) / n_params
    with_overhead = source_bits / (avg_bits + overhead)
    approx = source_bits / avg_bits if avg_bits > 0 else math.inf
    return EntropyRatio(with_overhead, approx)


# ---------------------------------------------------------------------------
# Bit packing
# ---------------------------------------------------------------------------


def _blocks(n: int):
    """Slices of ``_PACK_BLOCK`` fields that cover ``range(n)``."""
    return (slice(s, s + _PACK_BLOCK) for s in range(0, n, _PACK_BLOCK))


def _fields(values, widths) -> tuple[int, Iterator]:
    """A section of ``values[i]`` in ``widths[i]`` bits: its size in bits
    and its (values, widths) blocks. A scalar width applies to every value."""
    values = np.asarray(values, dtype=np.int64)
    widths = np.broadcast_to(np.asarray(widths, dtype=np.int64), values.shape)
    return int(widths.sum()), ((values[b], widths[b]) for b in _blocks(values.size))


def _codewords(code: PrefixCode, symbol_blocks) -> Iterator:
    """(values, widths) blocks of one codeword of ``code`` per symbol, each
    block of symbols looked up in the code tables as it is packed."""
    lengths = np.asarray(code.lengths, dtype=np.int64)
    return ((code.values[sym], lengths[sym]) for sym in symbol_blocks)


def _fill(out: np.ndarray, blocks) -> None:
    """Write the low ``w[i]`` bits of each ``v[i]`` of every (v, w) block
    into ``out``, one uint8 per bit, most significant first.

    Raises ValueError for a value that does not fit its width. Each block
    expands into int64 per-bit temporaries, so they stay bounded by the
    block however long the section is.
    """
    o = 0
    for v, w in blocks:
        if np.any(v < 0) or np.any(v >> w):
            raise ValueError("value does not fit in its bit width")
        shift = np.repeat(np.cumsum(w) - 1, w)
        shift -= np.arange(shift.size)
        bits = np.repeat(v, w)
        bits >>= shift
        bits &= 1
        out[o : o + bits.size] = bits
        o += bits.size


def _pack(values, widths) -> np.ndarray:
    """The low ``widths[i]`` bits of each ``values[i]``, most significant first.

    Returns one uint8 per bit; a scalar width applies to every value.
    Raises ValueError for a value that does not fit its width.
    """
    size, blocks = _fields(values, widths)
    out = np.empty(size, dtype=np.uint8)
    _fill(out, blocks)
    return out


class _BitReader:
    """Reads fields and codewords off a byte string, most significant bit first."""

    def __init__(self, data: bytes):
        self.bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        self.pos = 0

    def take(self, n: int) -> np.ndarray:
        if self.pos + n > self.bits.size:
            raise FormatError("bitstream truncated")
        out = self.bits[self.pos : self.pos + n]
        self.pos += n
        return out

    def uints(self, count: int, width: int) -> np.ndarray:
        """``count`` unsigned ``width``-bit fields as int64."""
        fields = self.take(count * width).reshape(count, width)
        return fields @ (1 << np.arange(width - 1, -1, -1, dtype=np.int64))

    def uint(self, width: int) -> int:
        return int(self.uints(1, width)[0])

    def symbols(self, code: PrefixCode, n: int) -> np.ndarray:
        """Decode ``n`` codewords of the canonical ``code`` into cluster indices.

        Left-aligned to ``top`` (the longest length) bits, canonical
        codewords fill ``[0, ends[-1])`` back to back in rank order, so the
        ``top``-bit window at a bit position names its codeword by a sorted
        search over the cumulative ``ends``; rank ``k`` means no codeword.
        For ``_DECODE_BLOCK`` positions at a time this gives each position's
        next start, ``q + len`` of its codeword; a position with no codeword,
        and every position past the block, is a fixed point. Squaring that
        table four times gives 16-codeword jumps, so the walk along the
        codeword chain takes one Python step per 16 codewords and gathers
        fill in the starts between. A fixed point inside the block is an
        invalid codeword; a chain that runs past the bits left is truncated.
        """
        lengths = np.asarray(code.lengths, dtype=np.int64)
        left = self.bits.size - self.pos
        if n * int(lengths.min()) > left:
            raise FormatError(f"{n} codewords cannot fit in the {left} bits left")
        top = int(lengths.max())
        order = np.argsort(lengths, kind="stable")
        ends = np.cumsum(1 << (top - lengths[order]))
        hop_of_rank = np.append(lengths[order], 0).astype(np.int32)
        found = np.empty(n, dtype=np.int64)
        i = p = 0
        while i < n:
            if p >= left:
                raise FormatError("bitstream truncated inside a codeword")
            need = n - i
            span = min(left - p, need * top, _DECODE_BLOCK)
            window = np.zeros(span, dtype=np.int64)
            for j in range(top):
                window <<= 1
                tail = self.bits[self.pos + p + j : self.pos + p + j + span]
                window[: tail.size] |= tail
            rank = np.searchsorted(ends, window, side="right")
            del window
            nxt = np.arange(span + top, dtype=np.int32)
            nxt[:span] += hop_of_rank[rank]
            jump = nxt
            for _ in range(4):  # 2, 4, 8, then 16 codewords per jump
                jump = jump[jump]
            jumps = memoryview(jump)
            heads, h = [], 0
            while h < span and 16 * len(heads) < need:
                heads.append(h)
                if jumps[h] == h:
                    break
                h = jumps[h]
            starts = np.empty((len(heads), 16), dtype=np.int32)
            starts[:, 0] = heads
            for j in range(1, 16):
                starts[:, j] = nxt[starts[:, j - 1]]
            starts = starts.ravel()
            stuck = np.flatnonzero(nxt[starts] == starts)
            c = min(int(stuck[0]) if stuck.size else starts.size, need)
            if c < need and c < starts.size and starts[c] < span:
                raise FormatError("invalid codeword in bitstream")
            found[i : i + c] = order[rank[starts[:c]]]
            i += c
            p += int(nxt[starts[c - 1]])
        if p > left:
            raise FormatError("bitstream truncated inside a codeword")
        self.pos += p
        return found


def _read_code(reader: _BitReader, count: int, scheme: str, what: str) -> PrefixCode:
    """Read a table of ``count`` one-byte codeword lengths into a code."""
    lengths = reader.uints(count, 8)
    if not count:
        raise FormatError(f"empty {what} table")
    if lengths.min() < 1 or lengths.max() > 62:
        raise FormatError(f"{what} table has a codeword length outside 1..62")
    try:
        return PrefixCode(tuple(lengths.tolist()), scheme=scheme)
    except ValueError as exc:
        raise FormatError(f"invalid {what} table: {exc}") from exc


# ---------------------------------------------------------------------------
# Index-difference coding for pruned models
# ---------------------------------------------------------------------------


class IndexDiffCode(NamedTuple):
    diffs: np.ndarray
    symbols: np.ndarray
    code: PrefixCode
    total_bits: int


def index_diff_code(positions, total_params: int) -> IndexDiffCode:
    """Huffman-code the gaps between surviving parameter positions.

    The first gap is the first position itself; later gaps are successive
    differences. ``total_bits`` is the exact serialized size of the index
    section (two 32-bit counts, 32+8 bits per distinct gap value, plus the
    gap payload). The distinct gaps and their counts are gathered a block
    of ``_PACK_BLOCK`` gaps at a time.
    """
    pos = np.ascontiguousarray(positions, dtype=np.int64)
    if pos.ndim != 1 or pos.size < 1:
        raise ValueError("expected a non-empty position list")
    diffs = np.empty_like(pos)
    diffs[0] = pos[0]
    np.subtract(pos[1:], pos[:-1], out=diffs[1:])
    if pos.size > 1 and diffs[1:].min() <= 0:
        raise ValueError("positions must be strictly increasing")
    if pos[0] < 0 or pos[-1] >= total_params:
        raise ValueError("positions out of range")
    parts = [np.unique(diffs[b], return_counts=True) for b in _blocks(diffs.size)]
    symbols, which = np.unique(np.concatenate([u for u, _ in parts]), return_inverse=True)
    counts = np.zeros(symbols.size, dtype=np.int64)
    np.add.at(counts, which, np.concatenate([c for _, c in parts]))
    code = build_huffman(counts)
    payload_bits = int(counts @ np.asarray(code.lengths, dtype=np.int64))
    total_bits = 64 + symbols.size * 40 + payload_bits
    return IndexDiffCode(diffs, symbols, code, total_bits)


# ---------------------------------------------------------------------------
# Encoded model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EncodedModel:
    """A fully serialized quantized model plus its bit accounting.

    ``breakdown`` maps section names to bit counts and sums to
    ``total_bits``; ``table_bits`` (centers + stored codewords + payload)
    is the portion charged by :func:`compression_ratio_exact`.
    """

    data: bytes
    scheme: str
    k: int
    n_params: int
    source_bits: int
    total_params: int
    breakdown: dict

    @property
    def total_bits(self) -> int:
        return 8 * len(self.data)

    @property
    def table_bits(self) -> int:
        return (
            self.breakdown["centers"]
            + self.breakdown["codeword_table"]
            + self.breakdown["payload"]
        )


class DecodedModel(NamedTuple):
    assignment: np.ndarray
    codebook: Codebook
    positions: np.ndarray | None
    code: PrefixCode
    source_bits: int
    total_params: int
    breakdown: dict


def encode_assignments(
    assignment,
    codebook: Codebook,
    code: PrefixCode,
    positions=None,
    total_params: int | None = None,
) -> EncodedModel:
    """Pack assignment, codebook, and code into the binary model format.

    Centers are stored at 32-bit float precision; pass a codebook whose
    centers are already float32-representable for an exact round trip.
    ``positions`` (with ``total_params``) adds the pruned-index section.
    """
    a = np.ascontiguousarray(assignment, dtype=np.int64)
    k = codebook.k
    if code.k != k:
        raise ValueError("code does not cover the codebook")
    if a.size and (a.min() < 0 or a.max() >= k):
        raise ValueError("assignment index out of range")
    if np.any(codebook.counts[np.arange(k)] != np.bincount(a, minlength=k)):
        raise ValueError("codebook counts disagree with the assignment")

    source_bits = 32  # centers are stored as float32
    if positions is not None:
        if total_params is None:
            raise ValueError("total_params is required with positions")
        pos = np.ascontiguousarray(positions, dtype=np.int64)
        if pos.size != a.size:
            raise ValueError("positions length disagrees with the assignment")
        idx = index_diff_code(pos, total_params)
    else:
        idx = None
        total_params = a.size if total_params is None else total_params

    lengths = np.asarray(code.lengths, dtype=np.int64)
    sections = {
        "header": _fields(
            [int.from_bytes(MAGIC, "big"), _SCHEMES[code.scheme], idx is not None,
             source_bits, k, a.size, total_params],
            [32, 8, 8, 8, 32, 32, 32],
        ),  # fmt: skip
        # each float32 center is its four little-endian bytes as one field
        "centers": _fields(codebook.centers.astype("<f4").view(">u4"), 32),
        "length_table": _fields(lengths, 8),
        "codeword_table": _fields(code.values, lengths),
        "payload": (
            int(codebook.counts @ lengths),
            _codewords(code, (a[b] for b in _blocks(a.size))),
        ),
        "index_section": (0, ()),
    }
    if idx is not None:
        m = idx.symbols.size
        _, tables = _fields(
            np.concatenate([[idx.diffs.size, m], idx.symbols, idx.code.lengths]),
            np.concatenate([[32, 32], np.full(m, 32), np.full(m, 8)]),
        )
        gaps = (np.searchsorted(idx.symbols, idx.diffs[b]) for b in _blocks(idx.diffs.size))
        sections["index_section"] = (
            idx.total_bits,
            itertools.chain(tables, _codewords(idx.code, gaps)),
        )

    # Every section packs straight into its slice of one stream.
    breakdown = {name: size for name, (size, _) in sections.items()}
    bits = np.empty(sum(breakdown.values()), dtype=np.uint8)
    o = 0
    for size, blocks in sections.values():
        _fill(bits[o : o + size], blocks)
        o += size
    data = np.packbits(bits).tobytes()
    breakdown["padding"] = 8 * len(data) - int(bits.size)
    return EncodedModel(
        data=data,
        scheme=code.scheme,
        k=k,
        n_params=int(a.size),
        source_bits=source_bits,
        total_params=int(total_params),
        breakdown=breakdown,
    )


def decode_assignments(encoded) -> DecodedModel:
    """Exact inverse of :func:`encode_assignments`.

    Accepts an :class:`EncodedModel` or raw bytes. Raises
    :class:`FormatError` on truncation, bad magic, a corrupt code table, or
    counts and positions that the model they describe cannot have, so a
    decoded model always dequantizes.
    """
    data = encoded.data if isinstance(encoded, EncodedModel) else bytes(encoded)
    reader = _BitReader(data)
    if reader.uint(32) != int.from_bytes(MAGIC, "big"):
        raise FormatError("bad magic; not an encoded model")
    scheme_id = reader.uint(8)
    if scheme_id not in _SCHEME_NAMES:
        raise FormatError(f"unknown coding scheme id {scheme_id}")
    has_index = reader.uint(8)
    source_bits = reader.uint(8)
    if source_bits != 32:
        raise FormatError(f"unsupported center precision {source_bits}")
    k = reader.uint(32)
    if k == 0:
        raise FormatError("header declares zero clusters")
    n = reader.uint(32)
    total_params = reader.uint(32)
    if not has_index and n != total_params:
        raise FormatError(f"{n} parameters encoded of {total_params} without an index")
    header_bits = reader.pos

    centers = reader.uints(k, 32).astype(">u4").view("<f4")
    if not np.all(np.isfinite(centers)):
        raise FormatError("non-finite cluster center")
    centers = centers.astype(np.float64)
    center_end = reader.pos
    code = _read_code(reader, k, _SCHEME_NAMES[scheme_id], "code")
    length_end = reader.pos
    if not np.array_equal(reader.take(sum(code.lengths)), _pack(code.values, code.lengths)):
        raise FormatError("stored codeword disagrees with canonical code")
    table_end = reader.pos

    assignment = reader.symbols(code, n)
    payload_end = reader.pos

    positions = None
    index_bits = 0
    if has_index:
        n_positions = reader.uint(32)
        n_symbols = reader.uint(32)
        if n_positions != n:
            raise FormatError("index section length disagrees with the payload")
        symbols = reader.uints(n_symbols, 32)
        sym_code = _read_code(reader, n_symbols, "huffman", "index code")
        gaps = symbols[reader.symbols(sym_code, n_positions)]
        if np.any(gaps[1:] <= 0):
            raise FormatError("index gaps after the first must be positive")
        positions = np.cumsum(gaps)
        if positions.size and positions[-1] >= total_params:
            raise FormatError(f"position {positions[-1]} is past {total_params} params")
        index_bits = reader.pos - payload_end

    if reader.bits.size - reader.pos >= 8:
        raise FormatError("trailing data after the encoded model")

    counts = np.bincount(assignment, minlength=k)
    breakdown = {
        "header": header_bits,
        "length_table": length_end - center_end,
        "centers": center_end - header_bits,
        "codeword_table": table_end - length_end,
        "payload": payload_end - table_end,
        "index_section": index_bits,
        "padding": reader.bits.size - reader.pos,
    }
    return DecodedModel(
        assignment=assignment,
        codebook=Codebook(centers, counts),
        positions=positions,
        code=code,
        source_bits=source_bits,
        total_params=total_params,
        breakdown=breakdown,
    )
