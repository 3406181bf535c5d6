"""The codec pipeline in a bounded working set.

The blocked stages (uniform binning, scattering, packing, index-gap
coding and the accuracy pass) must give what their whole-array oracles
give (the accuracy pass up to rows whose logits tie within rounding), and
``prune`` and ``quantize`` must stay within a traced peak per parameter
that the whole-array pipeline exceeds.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netquant import cli, coding, quantizers, refnet
from netquant.coding import build_huffman, encode_assignments, fixed_length_code
from netquant.quantizers import scatter_dequantize, uniform_quantize
from netquant.refnet import MlpSpec
from oracles import accuracy_range_whole, encode_whole, eval_accuracy_whole, rounded32


@st.composite
def keep_masks(draw, n: int):
    """A keep-mask over ``n`` parameters, or ``None`` for an unpruned model."""
    kind = draw(st.sampled_from(["none", "any", "first", "one", "periodic"]), label="mask")
    if kind == "none":
        return None
    kept = np.zeros(n, dtype=bool)
    if kind == "one":
        kept[draw(st.integers(0, n - 1), label="survivor")] = True
    elif kind == "periodic":  # one gap value repeated
        step = draw(st.integers(1, 4), label="step")
        kept[draw(st.integers(0, min(step, n) - 1), label="start") :: step] = True
    else:
        kept[:] = draw(st.lists(st.booleans(), min_size=n, max_size=n), label="kept")
        kept[0] |= kind == "first" or not kept.any()
    return kept


class TestBlockedPipelineOracle:
    @settings(max_examples=150, deadline=None, database=None)
    @given(st.data())
    def test_bytes_and_accuracy_match_whole_array_oracles(self, draws):
        widths = tuple(
            draws.draw(st.lists(st.integers(1, 6), min_size=2, max_size=4), label="widths")
        )
        spec = MlpSpec(widths, draws.draw(st.sampled_from(refnet.ACTIVATIONS), label="act"))
        n = spec.param_count()
        rng = np.random.default_rng(draws.draw(st.integers(0, 2**32 - 1), label="seed"))
        kept = draws.draw(keep_masks(n))
        positions = None if kept is None else np.flatnonzero(kept)
        values = rng.normal(size=n)
        k = draws.draw(st.integers(1, 64), label="k")
        row_block = draws.draw(st.integers(2, 7), label="rows per block")
        rows = draws.draw(st.integers(0, 5), label="blocks") * row_block + draws.draw(
            st.integers(1, row_block - 1), label="remainder rows"
        )
        x = rng.normal(size=(rows, widths[0]))
        y = rng.integers(0, widths[-1], rows)

        with mock.patch.object(quantizers, "_BLOCK_BYTES", 8 * draws.draw(
            st.integers(1, 5), label="quantizer block"
        )):  # fmt: skip
            kept_values = values if positions is None else values[positions]
            res = uniform_quantize(kept_values, k=k)
            codebook = rounded32(res.codebook)
            w = scatter_dequantize(n, res.assignment, codebook, positions)
        lo, hi = kept_values.min(), kept_values.max()
        bins = np.zeros(kept_values.size)
        if hi > lo and k > 1:
            bins = np.minimum((kept_values - lo) // ((hi - lo) / k), k - 1)
        assert np.array_equal(res.assignment, np.unique(bins, return_inverse=True)[1])
        whole_w = np.zeros(n)
        whole_w[np.arange(n) if positions is None else positions] = codebook.centers[
            res.assignment
        ]
        assert np.array_equal(w, whole_w)

        huffman = draws.draw(st.booleans(), label="huffman")
        code = build_huffman(codebook) if huffman else fixed_length_code(codebook.k)
        total = None if positions is None else n
        block = draws.draw(st.sampled_from([1, 2, 3, 7, 64]), label="pack block")
        with mock.patch.object(coding, "_PACK_BLOCK", block):
            em = encode_assignments(res.assignment, codebook, code, positions, total)
        data, breakdown = encode_whole(res.assignment, codebook, code, positions, total)
        assert em.data == data
        assert em.breakdown == breakdown

        # Row blocks can round a row's logits differently from one whole
        # pass, which matters only where logits tie (k = 1 ties them all).
        with mock.patch.object(refnet, "_EVAL_BLOCK_BYTES", row_block * 8 * max(widths)):
            accuracy = refnet.eval_accuracy(spec, w, x, y)
        lo, hi = accuracy_range_whole(spec, whole_w, x, y)
        assert lo <= accuracy <= hi
        if lo == hi:
            assert accuracy == eval_accuracy_whole(spec, whole_w, x, y)


# Traced peak allowed per parameter of the unpruned net. A whole-array
# pipeline measured 25.4 B (prune) and 70.0 B (quantize) on this net; the
# blocked one 18.5 B and 30.5 B.
PRUNE_BYTES_PER_PARAM = 22
QUANTIZE_BYTES_PER_PARAM = 32


class TestWorkingSet:
    """``prune`` then ``quantize --quantizer uniform --k 16`` on a net of
    231,812 parameters, the codec workload's commands at desk scale."""

    @pytest.fixture(scope="class")
    def net(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("codec") / "net"
        assert cli.main([
            "train-ref", "--dataset", "synth", "--synth-features", "64",
            "--hidden", "512,384", "--steps", "2", "--out-dir", str(path),
        ]) == 0  # fmt: skip
        return path, 64 * 512 + 512 + 512 * 384 + 384 + 384 * 4 + 4

    @staticmethod
    def traced_peak(argv) -> int:
        tracemalloc.start()
        try:
            assert cli.main([str(a) for a in argv]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_prune_then_quantize_peaks_per_parameter(self, net, tmp_path):
        model_dir, n = net
        pruned = tmp_path / "pruned"
        prune_peak = self.traced_peak(
            ["prune", "--model-dir", model_dir, "--prune-fraction", "0.5", "--out-dir", pruned]
        )
        quantize_peak = self.traced_peak([
            "quantize", "--model-dir", pruned, "--dataset", "synth",
            "--quantizer", "uniform", "--k", "16", "--out-dir", tmp_path / "q",
        ])  # fmt: skip
        assert prune_peak <= PRUNE_BYTES_PER_PARAM * n
        assert quantize_peak <= QUANTIZE_BYTES_PER_PARAM * n
