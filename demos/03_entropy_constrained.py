"""Trading distortion against codeword rate.
============================================

When a variable-length code follows quantization, the real storage cost of
cluster j is -log2(p_j) bits per member, not a flat ceil(log2 k). The
rate-penalized solver charges each point its weighted squared error plus
``lam`` times that codeword cost, so raising ``lam`` squeezes the entropy
of the codebook while the distortion creeps up. Bisecting ``lam`` turns a
storage budget directly into a quantizer.
"""

import numpy as np

import netquant as nq

rng = np.random.default_rng(0)
# A bimodal source, like weights of a pruned layer: two lobes of mass.
v = np.concatenate([rng.normal(-2.0, 0.5, 3000), rng.normal(2.0, 0.5, 3000)])
h = rng.uniform(0.5, 2.0, v.size)

print("lam sweep at k=16 (entropy falls, distortion rises):")
print(f"{'lam':>10} {'k_eff':>6} {'entropy':>9} {'distortion':>11}")
for lam in [0.0, 1e-4, 1e-3, 1e-2, 1e-1, 1.0]:
    # retired clusters are dropped: the result keeps only clusters in use
    assignment, codebook, _ = nq.ecsq_iterate(v, h, 16, lam)
    entropy = nq.entropy_bits(codebook)
    distortion = nq.hw_distortion(v, h, assignment, codebook)
    print(f"{lam:>10.1e} {codebook.k:>6d} {entropy:>9.3f} {distortion:>11.1f}")

# The objective trace never increases; convergence is a fixed point.
res = nq.ecsq_iterate(v, h, 16, 1e-3)
trace = res.trace
print(f"\nobjective trace ({trace.size} entries): "
      f"{trace[0]:.5f} -> {trace[-1]:.5f}, monotone: {bool(np.all(np.diff(trace) <= 0))}")

# Storage budget to quantizer: a 32-bit original compressed 16x leaves
# about 2 bits per parameter, so ask for entropy at most 2 bits.
budget = 32 / 16
found = nq.solve_lambda(v, h, k=16, target_entropy=budget)
print(f"\nbudget {budget:.2f} bits: lam={found.lam:.3e}, "
      f"achieved entropy {found.entropy:.3f} bits, met={found.met}")

# With a Huffman code the realized average codeword length hugs the entropy.
assignment, codebook, _ = found.result
code = nq.build_huffman(codebook)
print(f"Huffman average length {code.avg_bits(codebook.counts):.3f} bits "
      f"(entropy {nq.entropy_bits(codebook):.3f})")
