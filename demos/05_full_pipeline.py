"""The full compression pipeline in one script.
===============================================

Prune low-magnitude weights, keep only survivors, quantize them with
uniform bins, entropy-code the assignments, store survivor positions as
Huffman-coded index gaps, then decode everything back and verify the
reconstruction is exact. The same flow is available from the command line:

    netquant train-ref --out-dir model --dataset synth ...
    netquant quantize --model-dir model --out-dir out \
        --quantizer uniform --coding huffman --k 8 --prune-fraction 0.8
    netquant report --model-nq out/model.nq
"""

import numpy as np

import netquant as nq

# 1. a trained reference model
ds = nq.make_blobs(2500, n_classes=5, n_features=12, seed=7, noise=1.0)
spec = nq.MlpSpec((12, 48, 24, 5))
model = nq.train_adam(spec, ds, nq.TrainConfig(steps=800, seed=7))
eval_x, eval_y = ds.split("eval")
print(f"trained {model.params.n} parameters, accuracy {model.eval_accuracy:.3f}")

# 2. prune 80% by magnitude and keep the survivors
mask = nq.prune_magnitude(model.params, 0.8)
curvature = nq.hessian_diag_gn(spec, model.params, *ds.split("hessian"))
positions = np.flatnonzero(mask.kept)
survivors = model.params.values[positions]
surv_curvature = curvature.values[positions]
pruned_w = model.params.as_f64() * mask.kept
acc_pruned = nq.eval_accuracy(spec, pruned_w, eval_x, eval_y)
print(f"pruned to {survivors.size} survivors, accuracy {acc_pruned:.3f} "
      f"(no retraining here, so some loss is expected)")

# 3. quantize the survivors into 8 uniform bins
res = nq.uniform_quantize(survivors, surv_curvature, k=8,
                          center_rule="hessian_weighted_mean")
assignment, codebook = nq.compact_codebook(res.assignment, res.codebook)
# centers are stored at 32-bit precision; round once so accuracy numbers
# describe exactly the model inside the bitstream
codebook = nq.Codebook(
    codebook.centers.astype(np.float32).astype(np.float64), codebook.counts
)
w_quant = nq.scatter_dequantize(model.params.n, assignment, codebook, positions)
acc_quant = nq.eval_accuracy(spec, w_quant, eval_x, eval_y)
print(f"quantized to {codebook.k} shared values, accuracy {acc_quant:.3f}")

# 4. fine-tune the shared centers (assignments stay frozen)
tuned, acc_tuned = nq.fine_tune_centers(
    spec, assignment, codebook, ds,
    nq.FineTuneConfig(steps=300, batch_size=64, lr=1e-5, seed=7),
    positions=positions,
)
tuned = nq.Codebook(tuned.centers.astype(np.float32).astype(np.float64), tuned.counts)
print(f"center fine-tuning: accuracy {acc_quant:.3f} -> {acc_tuned:.3f}")

# 5. entropy-code assignments and survivor positions
code = nq.build_huffman(tuned)
encoded = nq.encode_assignments(assignment, tuned, code,
                                positions=positions, total_params=model.params.n)
print(f"\nencoded model: {len(encoded.data)} bytes")
for section, bits in encoded.breakdown.items():
    print(f"  {section:<15} {bits:>8d} bits")

# 6. decode and verify the round trip is exact
decoded = nq.decode_assignments(encoded)
w_back = nq.scatter_dequantize(
    decoded.total_params, decoded.assignment, decoded.codebook, decoded.positions
)
assert np.array_equal(
    w_back,
    nq.scatter_dequantize(model.params.n, assignment, tuned, positions),
)
print("\ndecode reproduces the fine-tuned quantized model exactly")

ratio_q = nq.compression_ratio_exact(assignment.size, 32, tuned.counts, code)
ratio_all = model.params.n * 32 / encoded.total_bits
print(f"compression of stored survivors: {ratio_q:.2f}x")
print(f"whole model vs serialized file (incl. index gaps): {ratio_all:.2f}x")
