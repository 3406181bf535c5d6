"""Prefix-code optimality, bit-exact round trips, and ratio accounting."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netquant import (
    Codebook,
    EncodedModel,
    FormatError,
    PrefixCode,
    build_huffman,
    compression_ratio_exact,
    decode_assignments,
    encode_assignments,
    entropy_bits,
    fixed_length_code,
    index_diff_code,
    scatter_dequantize,
)
from netquant import coding, quantizers
from netquant.coding import build_report, huffman_lengths
from netquant.params import SOURCE_BITS
from oracles import (
    canonical_codewords,
    canonical_decode,
    huffman_lengths_heap,
    pack_bits_oneshot,
)


def kraft_is_exactly(lengths, target: float) -> bool:
    max_len = max(lengths)
    return sum(1 << (max_len - l) for l in lengths) == target * (1 << max_len)


_FEASIBLE_CACHE = {}


def optimal_avg_bits(counts) -> float:
    """Exhaustive minimum average length over Kraft-feasible integer codes.

    Some optimal code uses lengths at most k-1, so enumerating that box is
    exhaustive for the optimum.
    """
    k = len(counts)
    if k not in _FEASIBLE_CACHE:
        top = max(2, k)
        rows = [
            lengths
            for lengths in itertools.product(range(1, top), repeat=k)
            if sum(2.0 ** -l for l in lengths) <= 1.0 + 1e-12
        ]
        _FEASIBLE_CACHE[k] = np.array(rows, dtype=np.float64)
    feasible = _FEASIBLE_CACHE[k]
    p = np.asarray(counts, dtype=np.float64)
    p = p / p.sum()
    return float((feasible @ p).min())


class TestEntropy:
    def test_uniform_four(self):
        assert entropy_bits(np.array([250, 250, 250, 250])) == pytest.approx(2.0)

    def test_single_cluster(self):
        assert entropy_bits(np.array([1000])) == 0.0

    def test_single_cluster_is_positive_zero(self):
        """``-0.0 == 0.0``, so the sign gets its own check."""
        assert math.copysign(1.0, entropy_bits(np.array([1000]))) == 1.0
        assert math.copysign(1.0, entropy_bits(Codebook(np.zeros(1), np.array([7])))) == 1.0

    def test_hand_value(self):
        assert entropy_bits(np.array([3, 1])) == pytest.approx(0.811278, abs=1e-6)

    def test_zero_count_contributes_nothing(self):
        assert entropy_bits(np.array([3, 0, 1])) == pytest.approx(
            entropy_bits(np.array([3, 1]))
        )


class TestHuffman:
    def test_dyadic_distribution(self):
        code = build_huffman(np.array([2, 1, 1]))
        assert sorted(code.lengths) == [1, 2, 2]
        assert code.avg_bits([2, 1, 1]) == pytest.approx(1.5)
        assert code.avg_bits([2, 1, 1]) == pytest.approx(entropy_bits([2, 1, 1]))

    def test_four_symbol_merge(self):
        counts = [4, 3, 2, 1]
        code = build_huffman(np.array(counts))
        assert tuple(code.lengths) == (1, 2, 3, 3)
        assert code.avg_bits(counts) == pytest.approx(1.9)

    def test_single_symbol_convention(self):
        code = build_huffman(np.array([10]))
        assert code.lengths == (1,)

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            huffman_lengths([3, 0, 1])

    def test_shannon_bounds_random(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            k = int(rng.integers(2, 65))
            counts = rng.integers(1, 1000, size=k)
            code = build_huffman(counts)
            h = entropy_bits(counts)
            avg = code.avg_bits(counts)
            assert h - 1e-12 <= avg < h + 1.0
            assert kraft_is_exactly(code.lengths, 1.0)

    def test_matches_exhaustive_optimum_small_k(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            k = int(rng.integers(2, 7))
            counts = rng.integers(1, 50, size=k)
            code = build_huffman(counts)
            assert code.avg_bits(counts) == pytest.approx(optimal_avg_bits(counts))

    def test_fibonacci_counts_below_2_32_stay_within_45_bits(self):
        """F(1), ..., F(45) sum to F(47) - 1 < 2**32, and one more term would
        not fit; they force a chain-shaped tree, 44 deep when ties go to
        leaves as here."""
        fib = [1, 1]
        while len(fib) < 45:
            fib.append(fib[-1] + fib[-2])
        assert sum(fib) < 2**32 < sum(fib) + fib[-1] + fib[-2]
        for counts in (fib, fib[::-1], [1, *fib[:-1]]):
            assert max(huffman_lengths(counts)) <= 45
        assert max(huffman_lengths(fib)) == 44

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        st.one_of(
            st.lists(st.integers(1, 4), min_size=1, max_size=200),
            st.lists(st.integers(1, 10**12), min_size=1, max_size=60),
        )
    )
    def test_matches_heap_oracle_ties_included(self, counts):
        assert huffman_lengths(counts) == huffman_lengths_heap(counts)

    def test_deterministic(self):
        counts = np.array([5, 5, 5, 5, 2])
        assert build_huffman(counts).codewords == build_huffman(counts).codewords


class TestFixedLength:
    def test_power_of_two(self):
        assert fixed_length_code(4).lengths == (2, 2, 2, 2)

    def test_ceiling(self):
        assert fixed_length_code(5).lengths == (3,) * 5
        for k in [*range(2, 300), 2**12, 2**12 + 1]:
            width = math.ceil(math.log2(k))
            assert fixed_length_code(k).lengths == (width,) * k
            with pytest.raises(ValueError, match="fixed scheme"):
                PrefixCode((width + 1,) * k, scheme="fixed")

    def test_k1_convention(self):
        assert fixed_length_code(1).lengths == (1,)


class TestPrefixCode:
    def test_canonical_order_and_prefix_freeness(self):
        code = PrefixCode((2, 1, 3, 3))
        assert code.codewords == ("10", "0", "110", "111")

    def test_rejects_kraft_violation(self):
        with pytest.raises(ValueError):
            PrefixCode((1, 1, 1))

    def test_fixed_scheme_requires_equal_widths(self):
        with pytest.raises(ValueError):
            PrefixCode((1, 2, 2), scheme="fixed")

    def test_kraft_inequality_random(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            counts = rng.integers(1, 30, size=int(rng.integers(1, 10)))
            code = build_huffman(counts)
            assert code.kraft_sum() <= 1.0 + 1e-12


class TestCompressionRatio:
    def test_hand_case(self):
        code = fixed_length_code(4)
        counts = np.array([250, 250, 250, 250])
        ratio = compression_ratio_exact(counts, code)
        assert ratio == pytest.approx(32000 / 2136)

    def test_single_cluster_limit(self):
        n = 100000
        code = fixed_length_code(1)
        ratio = compression_ratio_exact(np.array([n]), code)
        assert ratio == pytest.approx(32 * n / (n + 1 + 32))
        assert ratio == pytest.approx(32.0, rel=1e-3)


def random_instance(rng, n_max=3000, k_max=16):
    k = int(rng.integers(1, k_max + 1))
    assignment = rng.integers(0, k, size=int(rng.integers(k, n_max)))
    assignment[:k] = np.arange(k)  # every cluster occupied
    counts = np.bincount(assignment, minlength=k)
    centers = rng.normal(size=k).astype(np.float32).astype(np.float64)
    return assignment, Codebook(centers, counts)


class TestEncodeDecode:
    def test_payload_bits_hand_case(self):
        cb = Codebook([0.0, 1.0], [2, 1])
        code = PrefixCode((1, 2), scheme="huffman")
        em = encode_assignments([0, 0, 1], cb, code)
        assert em.breakdown["payload"] == 4

    def test_fixed_length_payload_exact(self):
        assignment = np.tile(np.arange(4), 250)
        cb = Codebook(np.arange(4.0), np.bincount(assignment))
        em = encode_assignments(assignment, cb, fixed_length_code(4))
        assert em.breakdown["payload"] == 2000

    def test_roundtrip_random(self):
        rng = np.random.default_rng(8)
        for scheme in ("fixed", "huffman"):
            for _ in range(20):
                assignment, cb = random_instance(rng)
                code = (
                    fixed_length_code(cb.k)
                    if scheme == "fixed"
                    else build_huffman(cb)
                )
                em = encode_assignments(assignment, cb, code)
                dec = decode_assignments(em)
                assert np.array_equal(dec.assignment, assignment)
                assert np.array_equal(dec.codebook.centers, cb.centers)
                assert np.array_equal(dec.codebook.counts, cb.counts)
                assert dec.code.lengths == code.lengths
                assert dec.positions is None

    def test_roundtrip_with_positions(self):
        rng = np.random.default_rng(9)
        assignment, cb = random_instance(rng, n_max=500)
        n = assignment.size
        positions = np.sort(rng.choice(5 * n, size=n, replace=False))
        code = build_huffman(cb)
        em = encode_assignments(assignment, cb, code, positions=positions, total_params=5 * n)
        dec = decode_assignments(em)
        assert np.array_equal(dec.positions, positions)
        assert dec.total_params == 5 * n

    def test_breakdown_sums_to_total(self):
        rng = np.random.default_rng(10)
        assignment, cb = random_instance(rng)
        em = encode_assignments(assignment, cb, build_huffman(cb))
        assert sum(em.breakdown.values()) == em.total_bits

    def test_truncated_stream_rejected(self):
        rng = np.random.default_rng(11)
        assignment, cb = random_instance(rng)
        em = encode_assignments(assignment, cb, build_huffman(cb))
        with pytest.raises(FormatError):
            decode_assignments(em.data[:-1])

    def test_every_truncation_rejected(self):
        """A cut always loses real bits, even inside the last codeword."""
        rng = np.random.default_rng(17)
        for _ in range(6):
            assignment, cb = random_instance(rng, n_max=200)
            n = assignment.size
            positions = np.sort(rng.choice(2 * n, size=n, replace=False))
            code = build_huffman(cb)
            for em in (
                encode_assignments(assignment, cb, code),
                encode_assignments(assignment, cb, code, positions=positions, total_params=2 * n),
            ):
                for cut in range(len(em.data)):
                    with pytest.raises(FormatError):
                        decode_assignments(em.data[:cut])

    def test_bad_magic_rejected(self):
        with pytest.raises(FormatError):
            decode_assignments(b"XXXX" + b"\x00" * 40)

    def test_zero_cluster_header_rejected(self):
        rng = np.random.default_rng(12)
        assignment, cb = random_instance(rng)
        em = encode_assignments(assignment, cb, build_huffman(cb))
        data = bytearray(em.data)
        data[7:11] = (0).to_bytes(4, "big")  # k field
        with pytest.raises(FormatError):
            decode_assignments(bytes(data))

    @pytest.mark.parametrize("bits", [0, 16, 64])
    def test_center_precision_other_than_32_rejected(self, bits):
        rng = np.random.default_rng(13)
        assignment, cb = random_instance(rng)
        data = bytearray(encode_assignments(assignment, cb, build_huffman(cb)).data)
        assert data[6] == 32  # source_bits field, after magic, scheme and flags
        data[6] = bits
        with pytest.raises(FormatError, match="precision"):
            decode_assignments(bytes(data))

    @pytest.mark.parametrize("length", [0, 63, 200, 255])
    def test_length_outside_1_to_62_rejected(self, length):
        assignment = np.repeat([0, 1], [300, 100])
        cb = Codebook([0.0, 1.0], [300, 100])
        em = encode_assignments(assignment, cb, build_huffman(cb))
        data = bytearray(em.data)
        data[19 + 8] = length  # first length byte: 152 header bits, two centers
        with pytest.raises(FormatError):
            decode_assignments(bytes(data))

    def test_roundtrip_long_codewords(self):
        """Fibonacci counts give Huffman codewords up to k - 1 bits long."""
        fib = [1, 1]
        while len(fib) < 22:
            fib.append(fib[-1] + fib[-2])
        rng = np.random.default_rng(16)
        assignment = rng.permutation(np.repeat(np.arange(22), fib))
        cb = Codebook(np.arange(22.0), np.array(fib))
        code = build_huffman(cb)
        assert max(code.lengths) == 21
        n = assignment.size
        positions = np.sort(rng.choice(3 * n, size=n, replace=False))
        for em in (
            encode_assignments(assignment, cb, code),
            encode_assignments(assignment, cb, code, positions=positions, total_params=3 * n),
        ):
            dec = decode_assignments(em.data)
            assert np.array_equal(dec.assignment, assignment)
            assert dec.code.lengths == code.lengths
            assert sum(em.breakdown.values()) == 8 * len(em.data)
            assert dec.breakdown == em.breakdown
        assert np.array_equal(dec.positions, positions)

    @pytest.mark.parametrize("block", [1, 5, 64, None])
    def test_roundtrip_across_decode_blocks(self, monkeypatch, block):
        """Codewords 1..11 bits long straddle the decoder's block boundaries."""
        if block is not None:
            monkeypatch.setattr(coding, "_DECODE_BLOCK", block)
        counts = (1 if block else 20) * np.array([1, *(2 ** np.arange(11))])
        rng = np.random.default_rng(17)
        assignment = rng.permutation(np.repeat(np.arange(counts.size), counts))
        cb = Codebook(np.arange(float(counts.size)), counts)
        code = build_huffman(cb)
        assert sorted(set(code.lengths)) == list(range(1, 12))
        n = assignment.size
        positions = np.sort(rng.choice(2 * n, size=n, replace=False))
        for em in (
            encode_assignments(assignment, cb, code),
            encode_assignments(assignment, cb, code, positions=positions, total_params=2 * n),
        ):
            assert em.breakdown["payload"] > coding._DECODE_BLOCK
            dec = decode_assignments(em.data)
            assert np.array_equal(dec.assignment, assignment)
            with pytest.raises(FormatError, match="truncated"):
                decode_assignments(em.data[:-3])
        assert np.array_equal(dec.positions, positions)

    def test_counts_must_match_assignment(self):
        cb = Codebook([0.0, 1.0], [2, 2])
        with pytest.raises(ValueError):
            encode_assignments([0, 0, 0, 1], cb, fixed_length_code(2))

    @pytest.mark.parametrize("total", [3, 5, 10])
    def test_total_params_without_positions_must_match(self, total):
        # A header of 4 parameters encoded of another total with no index
        # section is a stream the decoder rejects, so it is never written.
        cb = Codebook([0.0, 1.0], [2, 2])
        with pytest.raises(ValueError, match="without positions"):
            encode_assignments([0, 1, 0, 1], cb, fixed_length_code(2), total_params=total)
        em = encode_assignments([0, 1, 0, 1], cb, fixed_length_code(2), total_params=4)
        assert decode_assignments(em.data).total_params == 4


@st.composite
def small_encoded_models(draw):
    """The bytes of a random model with n <= 200 and k <= 8, pruned or not."""
    k = draw(st.integers(1, 8))
    n = draw(st.integers(k, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    assignment = rng.permutation(
        np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
    )
    cb = Codebook(
        rng.normal(size=k).astype(np.float32).astype(np.float64),
        np.bincount(assignment, minlength=k),
    )
    code = fixed_length_code(k) if draw(st.booleans()) else build_huffman(cb)
    if not draw(st.booleans()):
        return encode_assignments(assignment, cb, code).data
    total = n + draw(st.integers(0, 3 * n))
    positions = np.sort(rng.choice(total, size=n, replace=False))
    return encode_assignments(
        assignment, cb, code, positions=positions, total_params=total
    ).data


class TestCorruptStreams:
    @settings(max_examples=300, deadline=None, database=None)
    @given(small_encoded_models(), st.data())
    def test_flipped_bit_or_truncation(self, data, draws):
        """A damaged stream decodes to a usable model or raises FormatError."""
        if draws.draw(st.booleans(), label="flip"):
            bit = draws.draw(st.integers(0, 8 * len(data) - 1), label="bit")
            damaged = bytearray(data)
            damaged[bit // 8] ^= 0x80 >> (bit % 8)
        else:
            damaged = data[: draws.draw(st.integers(0, len(data) - 1), label="cut")]
        try:
            dec = decode_assignments(bytes(damaged))
        except FormatError:
            return
        if dec.total_params <= 1 << 20:
            scatter_dequantize(dec.total_params, dec.assignment, dec.codebook, dec.positions)
        else:
            # A flip high in the header's total count declares a valid but
            # huge pruned model; dequantizing it would allocate gigabytes, so
            # check the bounds scatter_dequantize relies on instead.
            assert dec.positions is not None
            assert dec.positions.size == dec.assignment.size
            assert dec.positions[-1] < dec.total_params


@st.composite
def length_tables(draw):
    """Kraft-valid codeword lengths: complete Huffman codes, Fibonacci counts
    (codewords up to 45 bits and beyond), or incomplete codes."""
    kind = draw(st.sampled_from(["huffman", "fibonacci", "incomplete"]))
    if kind == "huffman":
        return huffman_lengths(draw(st.lists(st.integers(1, 1000), min_size=1, max_size=20)))
    if kind == "fibonacci":
        fib = [1, 1]
        while len(fib) < 47:
            fib.append(fib[-1] + fib[-2])
        return huffman_lengths(fib[: draw(st.integers(2, 47))])
    k = draw(st.integers(1, 40))
    shortest = max(1, (k - 1).bit_length())  # k codewords of >= ceil(log2 k) bits
    return draw(st.lists(st.integers(shortest, shortest + 8), min_size=k, max_size=k))


class TestCanonicalOracle:
    @settings(max_examples=300, deadline=None, database=None)
    @given(st.one_of(length_tables(), st.lists(st.integers(1, 70), min_size=1, max_size=30)))
    def test_integer_codewords_match_string_oracle(self, lengths):
        """The one-pass integer codewords equal the symbol-by-symbol string
        construction, and Kraft violations and codewords over 62 bits are
        rejected, also where an int64 running sum would overflow."""
        if max(lengths) > 62:
            with pytest.raises(ValueError, match="longer than 62 bits"):
                PrefixCode(tuple(lengths))
            return
        try:
            expected = canonical_codewords(lengths)
        except ValueError:
            with pytest.raises(ValueError, match="Kraft"):
                PrefixCode(tuple(lengths))
            return
        code = PrefixCode(tuple(lengths))
        assert code.values.dtype == np.int64
        assert code.values.tolist() == [int(c, 2) for c in expected]
        assert code.codewords == expected

    def test_overflowing_kraft_sum_rejected(self):
        with pytest.raises(ValueError, match="Kraft"):
            PrefixCode((1,) * 8 + (62,))


class TestDecoderOracle:
    @settings(max_examples=300, deadline=None, database=None)
    @given(length_tables(), st.data())
    def test_matches_bit_at_a_time_decoder(self, lengths, draws):
        """Same symbols and end position as the scalar decoder, or both
        raise FormatError, across block boundaries and damaged streams."""
        rng = np.random.default_rng(draws.draw(st.integers(0, 2**32 - 1), label="seed"))
        n = draws.draw(st.integers(1, 150), label="n")
        code = PrefixCode(tuple(lengths))
        symbols = rng.integers(0, code.k, n)
        offset = int(rng.integers(0, 16))
        payload = [int(b) for s in symbols for b in code.codewords[s]]
        bits = np.concatenate(
            [rng.integers(0, 2, offset), payload, rng.integers(0, 2, int(rng.integers(0, 40)))]
        ).astype(np.uint8)
        damage = draws.draw(st.sampled_from(["none", "flip", "cut"]), label="damage")
        if damage == "flip":
            bits[draws.draw(st.integers(0, bits.size - 1), label="bit")] ^= 1
        elif damage == "cut":
            bits = bits[: draws.draw(st.integers(0, bits.size - 1), label="cut")]
        data = np.packbits(bits).tobytes()
        padded = np.unpackbits(np.frombuffer(data, np.uint8))
        block = draws.draw(st.sampled_from([1, 5, 64]), label="block")
        try:
            expected = canonical_decode(padded, offset, lengths, n)
        except FormatError:
            expected = None
        reader = coding._BitReader(data)
        with mock.patch.object(coding, "_DECODE_BLOCK", block):
            if expected is None:
                with pytest.raises(FormatError):
                    reader.take(offset)
                    reader.symbols(code, n)
                return
            reader.take(offset)
            got = reader.symbols(code, n)
        assert got.tolist() == expected[0]
        assert reader.pos == expected[1]
        if damage == "none":
            assert got.tolist() == symbols.tolist()


class TestPackerOracle:
    @settings(max_examples=300, deadline=None, database=None)
    @given(st.data())
    def test_matches_one_shot_packer(self, draws):
        """Same bits, or the same ValueError, as packing every field at once."""
        scalar = draws.draw(st.booleans(), label="scalar width")
        count = draws.draw(st.integers(0, 40), label="fields")
        if scalar:
            widths = draws.draw(st.integers(1, 62), label="width")
            per_field = [widths] * count
        else:
            widths = per_field = draws.draw(
                st.lists(st.integers(1, 62), min_size=count, max_size=count), label="widths"
            )
        values = [draws.draw(st.integers(0, 2**w - 1)) for w in per_field]
        if count and draws.draw(st.booleans(), label="spoil"):
            i = draws.draw(st.integers(0, count - 1), label="field")
            values[i] = draws.draw(st.sampled_from([-1, 2 ** per_field[i]]), label="bad")
        try:
            expected = pack_bits_oneshot(values, widths)
        except ValueError as exc:
            expected = exc
        block = draws.draw(st.sampled_from([1, 3, 7, 64]), label="block")
        with mock.patch.object(quantizers, "_BLOCK_BYTES", 8 * block):
            if isinstance(expected, ValueError):
                with pytest.raises(ValueError, match=str(expected)):
                    coding._pack(values, widths)
            else:
                got = coding._pack(values, widths)
                assert got.dtype == np.uint8
                assert np.array_equal(got, expected)


class TestAccountingIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 64),
        pruned=st.booleans(),
        scheme=st.sampled_from(["fixed", "huffman"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_report_from_artifact_alone(self, k, pruned, scheme, seed):
        # The report is a function of the serialized bytes: the decoder's
        # breakdown, counts and code rebuild it exactly.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(k, 4 * k + 50))
        assignment = rng.permutation(
            np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        )
        cb = Codebook(
            rng.normal(size=k).astype(np.float32).astype(np.float64),
            np.bincount(assignment, minlength=k),
        )
        code = fixed_length_code(k) if scheme == "fixed" else build_huffman(cb)
        positions = total = None
        if pruned:
            total = n + int(rng.integers(0, 3 * n))
            positions = np.sort(rng.choice(total, size=n, replace=False))
        em = encode_assignments(assignment, cb, code, positions, total)
        decoded = decode_assignments(em.data)
        again = build_report(
            EncodedModel(em.data, decoded.breakdown), decoded.codebook.counts, decoded.code
        )
        assert again.as_dict() == build_report(em, cb.counts, code).as_dict()
        assert compression_ratio_exact(cb.counts, code) == n * SOURCE_BITS / em.table_bits
        assert again.n_params_total == decoded.total_params == (total or n)
        assert again.ratio_overall == again.n_params_total * SOURCE_BITS / (8 * len(em.data))

    def test_table_bits_equal_ratio_denominator(self):
        rng = np.random.default_rng(13)
        for scheme in ("fixed", "huffman"):
            for _ in range(25):
                assignment, cb = random_instance(rng)
                code = (
                    fixed_length_code(cb.k)
                    if scheme == "fixed"
                    else build_huffman(cb)
                )
                em = encode_assignments(assignment, cb, code)
                ratio = compression_ratio_exact(cb.counts, code)
                assert ratio == assignment.size * 32 / em.table_bits

    def test_report_consistency(self):
        rng = np.random.default_rng(14)
        assignment, cb = random_instance(rng)
        code = build_huffman(cb)
        em = encode_assignments(assignment, cb, code)
        report = build_report(em, cb.counts, code)
        assert report.ratio_overall <= report.ratio_exact
        if cb.k >= 2:
            assert report.entropy_bits - 1e-12 <= report.avg_codeword_bits
            assert report.avg_codeword_bits < report.entropy_bits + 1.0


class TestIndexDiff:
    def test_hand_case(self):
        idx = index_diff_code([0, 3, 4, 9], 12)
        assert np.array_equal(idx.diffs, [0, 3, 1, 5])

    def test_dense_mask_single_symbol(self):
        n = 512
        idx = index_diff_code(np.arange(1, n + 1), n + 1)
        assert np.array_equal(np.unique(idx.diffs), [1])
        assert idx.code.lengths == (1,)
        assert idx.total_bits == 64 + 40 + n  # tables plus one bit per gap

    def test_roundtrip_recovers_positions(self):
        rng = np.random.default_rng(15)
        positions = np.sort(rng.choice(10000, size=700, replace=False))
        idx = index_diff_code(positions, 10000)
        assert np.array_equal(np.cumsum(idx.diffs), positions)

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            index_diff_code([3, 3, 5], 10)
        with pytest.raises(ValueError):
            index_diff_code([5, 2], 10)
