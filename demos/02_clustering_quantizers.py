"""Plain versus curvature-weighted clustering.
==============================================

Clustering all parameters into k shared values minimizes the squared error
to the codebook, but the loss function does not care about all parameters
equally. Weighting each squared error by the loss's second derivative with
respect to that parameter targets what actually matters. A three-point toy
shows the mechanics; a trained net shows the accuracy consequence.
"""

import numpy as np

import netquant as nq

# --- toy: curvature breaks a squared-error tie -------------------------
# Values {-1, 0, 1} into two clusters. Plain squared error rates
# {{-1},{0,1}} and {{-1,0},{1}} identically at 0.5. If the loss is four
# times as sensitive to the first parameter, the choice matters:
v = np.array([-1.0, 0.0, 1.0])
h = np.array([4.0, 1.0, 1.0])

res = nq.kmeans_sweep(v, None, [2])[0]
print("plain k-means      assignment", res.assignment,
      "centers", np.round(res.codebook.centers, 3))

res = nq.kmeans_sweep(v, h, [2])[0]
print("curvature-weighted assignment", res.assignment,
      "centers", np.round(res.codebook.centers, 3))
print("weighted cost of {{-1},{0,1}}:",
      nq.hw_distortion(v, h, [0, 1, 1], nq.Codebook([-1.0, 0.5], [1, 2])))
print("weighted cost of {{-1,0},{1}}:",
      nq.hw_distortion(v, h, [0, 0, 1], nq.Codebook([-0.8, 1.0], [2, 1])))

# --- trained net: quantize every layer together at k=8 ------------------
# Scaling half the input features makes the first layer's weights small
# but loss-critical, so plain squared error misjudges them.
scales = np.where(np.arange(16) % 2 == 0, 20.0, 1.0)
ds = nq.make_blobs(3000, n_classes=6, n_features=16, seed=1, noise=1.5,
                   input_scale=scales)
spec = nq.MlpSpec((16, 64, 32, 6))
model = nq.train_adam(spec, ds, nq.TrainConfig(steps=1000, seed=1))
curvature = nq.hessian_diag_gn(spec, model.params, *ds.split("hessian"))
eval_x, eval_y = ds.split("eval")
print(f"\ntrained net: {model.params.n} parameters, "
      f"eval accuracy {model.eval_accuracy:.3f}")


def quantized_accuracy(result):
    w = nq.dequantize(result.assignment, result.codebook)
    return nq.eval_accuracy(spec, w, eval_x, eval_y)


km = nq.kmeans_sweep(model.params, None, [8])[0]
hw = nq.kmeans_sweep(model.params, curvature, [8])[0]
uni = nq.uniform_quantize(model.params, curvature, k=8,
                          center_rule="hessian_weighted_mean")
print(f"k=8 shared values, accuracy after quantization:")
print(f"  plain k-means        {quantized_accuracy(km):.3f}")
print(f"  curvature-weighted   {quantized_accuracy(hw):.3f}")
print(f"  uniform bins (hw mean) {quantized_accuracy(uni):.3f}")
print("(the weighted variant usually wins on this mixed-scale task)")
