"""Self-contained multilayer perceptron for exercising the quantizers.

Provides everything the compression pipeline needs from a "real" model at
desk scale: deterministic Adam training on synthetic or CSV data, analytic
gradients, two per-parameter curvature backends (the exact Hessian diagonal
from one back-propagated pass, and a fast one-pass Gauss-Newton style
approximation), the free curvature proxy from Adam's second moments,
magnitude pruning, shared-center fine-tuning, and accuracy evaluation of
both plain and quantized parameter vectors.

Parameters live in one flat vector; layer ``l`` contributes spans
``layer{l}.weight`` (input x output, row-major) and ``layer{l}.bias``.
All math runs in float64.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .params import (
    CURVATURE_FLOOR,
    CurvatureDiag,
    CurvatureSource,
    DivergenceError,
    ParamSet,
    PruneMask,
    Span,
)
from .quantizers import Codebook

log = logging.getLogger(__name__)

ACTIVATIONS = ("relu", "tanh", "none")
LOSSES = ("softmax_cross_entropy", "mean_square_error")


@dataclass(frozen=True)
class MlpSpec:
    """Architecture of the reference net: layer widths, nonlinearity, loss."""

    layer_widths: tuple[int, ...]
    activation: str = "relu"
    loss: str = "softmax_cross_entropy"

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) < 2 or any(w < 1 for w in widths):
            raise ValueError("need at least input and output widths, all positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")

    @property
    def n_layers(self) -> int:
        return len(self.layer_widths) - 1

    def param_count(self) -> int:
        return sum(
            din * dout + dout
            for din, dout in zip(self.layer_widths, self.layer_widths[1:])
        )

    def spans(self) -> tuple[Span, ...]:
        spans = []
        offset = 0
        for l, (din, dout) in enumerate(
            zip(self.layer_widths, self.layer_widths[1:])
        ):
            spans.append(Span(f"layer{l}.weight", offset, din * dout))
            offset += din * dout
            spans.append(Span(f"layer{l}.bias", offset, dout))
            offset += dout
        return tuple(spans)


def _unpack(spec: MlpSpec, w: np.ndarray):
    """Views of the flat vector as (weight matrix, bias) pairs."""
    layers = []
    offset = 0
    for din, dout in zip(spec.layer_widths, spec.layer_widths[1:]):
        W = w[offset : offset + din * dout].reshape(din, dout)
        offset += din * dout
        b = w[offset : offset + dout]
        offset += dout
        layers.append((W, b))
    if offset != w.size:
        raise ValueError(f"parameter vector has {w.size} entries, spec needs {offset}")
    return layers


def init_params(spec: MlpSpec, seed: int = 0) -> ParamSet:
    """He/Xavier-style gaussian init, deterministic per seed."""
    rng = np.random.default_rng(seed)
    chunks = []
    for din, dout in zip(spec.layer_widths, spec.layer_widths[1:]):
        scale = np.sqrt(2.0 / din) if spec.activation == "relu" else np.sqrt(1.0 / din)
        chunks.append(rng.normal(0.0, scale, size=din * dout))
        chunks.append(np.zeros(dout))
    return ParamSet(np.concatenate(chunks), spec.spans())


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """Inputs plus labels, partitioned into named splits by index.

    ``labels`` holds class indices (classification) or a target matrix
    (regression under the squared-error loss). The ``hessian`` split falls
    back to ``train`` when absent, matching how curvature is normally
    estimated from training data.
    """

    inputs: np.ndarray
    labels: np.ndarray
    splits: dict = field(default_factory=dict)

    def __post_init__(self):
        x = np.ascontiguousarray(self.inputs, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ValueError("inputs must be a non-empty samples x features matrix")
        y = np.asarray(self.labels)
        if np.issubdtype(y.dtype, np.floating) and y.ndim == 2:
            y = np.ascontiguousarray(y, dtype=np.float64)
        else:
            y = np.ascontiguousarray(y, dtype=np.int64)
            if y.ndim != 1:
                raise ValueError("class labels must be a flat vector")
        if y.shape[0] != x.shape[0]:
            raise ValueError("inputs and labels disagree on sample count")
        if not self.splits:
            raise ValueError("at least one split is required")
        for name, idx in self.splits.items():
            idx = np.asarray(idx)
            if idx.size == 0:
                raise ValueError(f"split {name!r} is empty")
            if idx.min() < 0 or idx.max() >= x.shape[0]:
                raise ValueError(f"split {name!r} indexes out of range")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "labels", y)
        object.__setattr__(
            self,
            "splits",
            {k: np.ascontiguousarray(v, dtype=np.int64) for k, v in self.splits.items()},
        )

    @property
    def n_features(self) -> int:
        return int(self.inputs.shape[1])

    @property
    def n_classes(self) -> int:
        if self.labels.ndim == 2:
            return int(self.labels.shape[1])
        return int(self.labels.max()) + 1

    def split(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        if name == "hessian" and "hessian" not in self.splits:
            name = "train"
        if name not in self.splits:
            raise ValueError(f"no split named {name!r}")
        idx = self.splits[name]
        return self.inputs[idx], self.labels[idx]


def make_blobs(
    n_samples: int,
    n_classes: int,
    n_features: int,
    seed: int = 0,
    center_spread: float = 3.0,
    noise: float = 1.0,
    input_scale=1.0,
    eval_frac: float = 0.3,
) -> Dataset:
    """Gaussian-blob classification data, deterministic per seed.

    Class centers are drawn uniformly in a box of half-width
    ``center_spread`` (before scaling); samples add isotropic noise.
    ``input_scale`` (a scalar, or one value per feature) multiplies the
    inputs, which spreads the magnitudes and curvatures of the first-layer
    weights that consume them. Inputs that overflow float64 raise
    ``ValueError``.
    """
    if n_samples < n_classes:
        raise ValueError("need at least one sample per class")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-center_spread, center_spread, size=(n_classes, n_features))
    labels = rng.integers(0, n_classes, size=n_samples)
    with np.errstate(over="ignore", invalid="ignore"):
        inputs = centers[labels] + rng.normal(0.0, noise, size=(n_samples, n_features))
        inputs *= np.broadcast_to(np.asarray(input_scale, dtype=np.float64), (n_features,))
    if not np.all(np.isfinite(inputs)):
        raise ValueError("generated inputs overflow float64")

    return Dataset(inputs, labels, _train_eval_splits(rng, n_samples, eval_frac))


def load_csv(path, eval_frac: float = 0.3, seed: int = 0) -> Dataset:
    """Load a dataset from CSV: label in the first column, features after."""
    raw = np.loadtxt(Path(path), delimiter=",", dtype=np.float64, ndmin=2)
    if raw.shape[1] < 2:
        raise ValueError("CSV needs a label column plus at least one feature")
    labels_f = raw[:, 0]
    inputs = raw[:, 1:]
    if np.all(labels_f == np.round(labels_f)) and labels_f.min() >= 0:
        labels = labels_f.astype(np.int64)
    else:
        raise ValueError("labels must be nonnegative integers in the first column")
    splits = _train_eval_splits(np.random.default_rng(seed), raw.shape[0], eval_frac)
    return Dataset(inputs, labels, splits)


def _train_eval_splits(rng, n: int, eval_frac: float) -> dict:
    """A random ``eval_frac`` of ``n`` samples (at least one) for evaluation."""
    order = rng.permutation(n)
    n_eval = max(1, int(round(eval_frac * n)))
    return {"train": np.sort(order[n_eval:]), "eval": np.sort(order[:n_eval])}


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def _params64(spec: MlpSpec, params) -> np.ndarray:
    if isinstance(params, ParamSet):
        w = params.as_f64()
    else:
        w = np.ascontiguousarray(params, dtype=np.float64)
    if w.size != spec.param_count():
        raise ValueError(
            f"parameter vector has {w.size} entries, spec needs {spec.param_count()}"
        )
    return w


def _act(spec: MlpSpec, z: np.ndarray) -> np.ndarray:
    if spec.activation == "relu":
        return np.maximum(z, 0.0)
    if spec.activation == "tanh":
        return np.tanh(z)
    return z


def _act_inplace(spec: MlpSpec, z: np.ndarray) -> None:
    if spec.activation == "relu":
        np.maximum(z, 0.0, out=z)
    elif spec.activation == "tanh":
        np.tanh(z, out=z)


def _act_grad(spec: MlpSpec, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if spec.activation == "relu":
        return (z > 0).astype(np.float64)
    if spec.activation == "tanh":
        return 1.0 - a * a
    return np.ones_like(z)


def _forward(spec: MlpSpec, w: np.ndarray, inputs):
    layers = _unpack(spec, w)
    acts = [np.ascontiguousarray(inputs, dtype=np.float64)]
    pre = []
    for l, (W, b) in enumerate(layers):
        z = acts[-1] @ W + b
        pre.append(z)
        acts.append(_act(spec, z) if l < len(layers) - 1 else z)
    return layers, pre, acts


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    return probs / probs.sum(axis=1, keepdims=True)


def _loss_and_delta(spec: MlpSpec, logits: np.ndarray, labels: np.ndarray):
    """Mean loss over the batch and its gradient w.r.t. the output layer."""
    batch = logits.shape[0]
    if spec.loss == "softmax_cross_entropy":
        if labels.ndim != 1:
            raise ValueError("cross entropy needs integer class labels")
        shifted = logits - logits.max(axis=1, keepdims=True)
        delta = np.exp(shifted)
        total = delta.sum(axis=1, keepdims=True)
        loss = float(np.mean(np.log(total[:, 0]) - shifted[np.arange(batch), labels]))
        delta /= total
        delta[np.arange(batch), labels] -= 1.0
        return loss, delta / batch
    targets = np.eye(logits.shape[1])[labels] if labels.ndim == 1 else labels
    resid = logits - targets
    loss = float(0.5 * np.sum(resid * resid) / batch)
    return loss, resid / batch


def forward_loss(spec: MlpSpec, params, inputs, labels) -> tuple[float, np.ndarray]:
    """Mean batch loss and the gradient for every parameter, flattened.

    Cross entropy is in nats; the squared-error loss is
    ``0.5 * ||output - target||^2`` averaged over the batch.
    """
    w = _params64(spec, params)
    layers, pre, acts = _forward(spec, w, inputs)
    loss, delta = _loss_and_delta(spec, acts[-1], np.asarray(labels))

    grad = np.zeros_like(w)
    glayers = _unpack(spec, grad)
    for l in range(len(layers) - 1, -1, -1):
        gW, gb = glayers[l]
        gW += acts[l].T @ delta
        gb += delta.sum(axis=0)
        if l > 0:
            delta = (delta @ layers[l][0].T) * _act_grad(spec, pre[l - 1], acts[l])
    return loss, grad


# Bytes of float64 activations one row block of eval_accuracy may hold per layer.
_EVAL_BLOCK_BYTES = 256 << 10


def eval_accuracy(spec: MlpSpec, params, inputs, labels) -> float:
    """Fraction of samples whose argmax output matches the class label.

    ``params`` may be a flat vector or a ParamSet. Only the logits are
    needed, so the samples go through in row blocks of at most
    ``_EVAL_BLOCK_BYTES`` of activations per layer, each activation applied
    in place. BLAS may pick its kernel by matrix size, so a block's logits
    can differ from a whole-batch pass in the last bits; that moves an
    argmax only at a tie to within rounding.
    """
    w = _params64(spec, params)
    x = np.asarray(inputs)
    y = np.asarray(labels)
    if y.ndim != 1:
        raise ValueError("accuracy needs integer class labels")
    if y.size == 0:
        raise ValueError("empty evaluation split")
    if len(x) != y.size:
        raise ValueError("inputs and labels disagree on sample count")
    layers = _unpack(spec, w)
    rows = max(1, _EVAL_BLOCK_BYTES // (8 * max(spec.layer_widths)))
    hits = 0
    for lo in range(0, y.size, rows):
        a = np.ascontiguousarray(x[lo : lo + rows], dtype=np.float64)
        for l, (W, b) in enumerate(layers):
            a = a @ W
            a += b
            if l < len(layers) - 1:
                _act_inplace(spec, a)
        hits += int(np.count_nonzero(np.argmax(a, axis=1) == y[lo : lo + rows]))
    return hits / y.size


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _batches(rng, n: int, batch_size: int, steps: int):
    """Steps ``1..steps`` and their batches, cut from permutations of ``n``."""
    order = rng.permutation(n)
    cursor = 0
    for t in range(1, steps + 1):
        if cursor + batch_size > order.size:
            order = rng.permutation(n)
            cursor = 0
        yield t, order[cursor : cursor + batch_size]
        cursor += batch_size


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 500
    batch_size: int = 64
    lr: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0


@dataclass(frozen=True)
class AdamState:
    """Optimizer moments captured at the end of training."""

    step: int
    m: np.ndarray
    v: np.ndarray
    lr: float
    beta1: float
    beta2: float
    eps: float

    def __post_init__(self):
        v = np.ascontiguousarray(self.v, dtype=np.float64)
        if np.any(v < 0):
            raise ValueError("second moments must be nonnegative")
        object.__setattr__(self, "v", v)
        object.__setattr__(
            self, "m", np.ascontiguousarray(self.m, dtype=np.float64)
        )


@dataclass(frozen=True)
class TrainedModel:
    params: ParamSet
    final_loss: float
    eval_accuracy: float
    adam: AdamState

    def __post_init__(self):
        if not 0.0 <= self.eval_accuracy <= 1.0:
            raise ValueError("accuracy out of range")


def train_adam(spec: MlpSpec, ds: Dataset, cfg: TrainConfig) -> TrainedModel:
    """Mini-batch Adam, bit-reproducible for a fixed config and seed.

    Batches are drawn by reshuffling the training split every epoch with the
    config's RNG. Aborts with :class:`DivergenceError` if the loss goes
    non-finite. With ``steps == 0`` the initial parameters come back
    untouched.
    """
    if ds.n_features != spec.layer_widths[0]:
        raise ValueError("dataset feature width disagrees with the spec")
    w = init_params(spec, cfg.seed).as_f64()
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    rng = np.random.default_rng(cfg.seed + 1)

    train_x, train_y = ds.split("train")
    for t, batch in _batches(rng, train_x.shape[0], cfg.batch_size, cfg.steps):
        # A diverging step overflows on its way to a non-finite loss, which
        # the check below reports; numpy's warnings would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            loss, grad = forward_loss(spec, w, train_x[batch], train_y[batch])
            if not np.isfinite(loss):
                raise DivergenceError(f"training loss became non-finite at step {t}")
            m = cfg.beta1 * m + (1.0 - cfg.beta1) * grad
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * grad * grad
            mhat = m / (1.0 - cfg.beta1**t)
            vhat = v / (1.0 - cfg.beta2**t)
            w -= cfg.lr * mhat / (np.sqrt(vhat) + cfg.eps)

    final_loss, _ = forward_loss(spec, w, train_x, train_y)
    params = ParamSet(w, spec.spans())
    eval_x, eval_y = ds.split("eval")
    acc = eval_accuracy(spec, params, eval_x, eval_y)
    state = AdamState(cfg.steps, m, v, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
    return TrainedModel(params, final_loss, acc, state)


# ---------------------------------------------------------------------------
# Curvature backends
# ---------------------------------------------------------------------------

# Bytes of float64 factor one block of samples may hold in hessian_diag_exact.
_FACTOR_BYTES = 64 << 20


def hessian_diag_exact(spec: MlpSpec, params, inputs, labels) -> CurvatureDiag:
    """Second derivative of the mean loss w.r.t. each parameter, exactly.

    One backward pass carries a factor ``F`` with column signs ``s``, ``F
    diag(s) F^T = P P^T - N N^T``, of each sample's loss Hessian w.r.t. a
    layer's pre-activations: ``(diag(sqrt p) - p sqrt(p)^T) / sqrt(batch)``
    for softmax cross entropy, ``I / sqrt(batch)`` for squared error, plus
    one column per tanh unit for ``tanh''(z) dL/da``. A weight gets its
    squared input times the diagonal at the unit it feeds, a bias that
    diagonal. Entries below the curvature floor are raised to it, and how
    many were exact zeros (e.g. weights of a ReLU unit no sample turns on),
    negative (tanh nets away from a minimum) or positive but below the
    floor is logged.
    """
    w = _params64(spec, params)
    y = np.asarray(labels)
    h = np.zeros_like(w)
    hlayers = _unpack(spec, h)
    # Samples per block, so the factor (units x samples x columns) fits.
    classes = spec.layer_widths[-1]
    cols = classes + (spec.activation == "tanh") * sum(spec.layer_widths[1:-1])
    block = max(1, _FACTOR_BYTES // (8 * max(spec.layer_widths[1:]) * cols))
    for start in range(0, len(inputs), block):
        layers, pre, acts = _forward(spec, w, inputs[start : start + block])
        _, delta = _loss_and_delta(spec, acts[-1], y[start : start + block])
        n = len(delta)
        delta *= n / len(inputs)
        eye = np.eye(classes)[:, None, :]
        if spec.loss == "softmax_cross_entropy":
            probs = _softmax(acts[-1])
            factor = (eye - probs.T[:, :, None]) * np.sqrt(probs / len(inputs))
        else:
            factor = eye * np.full((n, 1), 1.0 / np.sqrt(len(inputs)))
        signs = np.ones((n, classes))
        for l in range(len(layers) - 1, -1, -1):
            diag = np.einsum("jnc,jnc,nc->nj", factor, factor, signs)
            hW, hb = hlayers[l]
            hW += (acts[l] * acts[l]).T @ diag
            hb += diag.sum(axis=0)
            if l == 0:
                break
            W = layers[l][0]
            slope = _act_grad(spec, pre[l - 1], acts[l])
            factor = (W @ factor.reshape(W.shape[1], -1)).reshape(W.shape[0], n, -1)
            factor *= slope.T[:, :, None]
            grad = delta @ W.T
            if spec.activation == "tanh":
                curv = -2.0 * acts[l] * slope * grad
                root = np.sqrt(np.abs(curv)).T[:, :, None] * np.eye(len(W))[:, None, :]
                factor = np.concatenate([factor, root], axis=2)
                signs = np.concatenate([signs, np.sign(curv)], axis=1)
            delta = grad * slope
    low = h[h < CURVATURE_FLOOR]
    if low.size:
        zero, negative = np.count_nonzero(low == 0), np.count_nonzero(low < 0)
        log.warning(
            "clamped %d curvature entries to the floor: %d zero, %d negative, "
            "%d positive below the floor",
            low.size, zero, negative, low.size - zero - negative,
        )
    return CurvatureDiag(np.maximum(h, CURVATURE_FLOOR), CurvatureSource.EXACT_HESSIAN)


def hessian_diag_gn(spec: MlpSpec, params, inputs, labels) -> CurvatureDiag:
    """Fast nonnegative curvature via one curvature-backpropagation pass.

    Propagates the diagonal second derivative of the loss backward through
    squared weights and squared activation slopes, dropping the term with
    the activation's own second derivative. Costs the same order as a
    gradient pass and is exact for a single linear layer under the
    squared-error loss.
    """
    w = _params64(spec, params)
    layers, pre, acts = _forward(spec, w, inputs)
    batch = acts[0].shape[0]

    if spec.loss == "softmax_cross_entropy":
        probs = _softmax(acts[-1])
        s = probs * (1.0 - probs) / batch
    else:
        s = np.full_like(acts[-1], 1.0 / batch)

    h = np.zeros_like(w)
    hlayers = _unpack(spec, h)
    for l in range(len(layers) - 1, -1, -1):
        hW, hb = hlayers[l]
        hW += (acts[l] * acts[l]).T @ s
        hb += s.sum(axis=0)
        if l > 0:
            W = layers[l][0]
            s = (s @ (W * W).T) * _act_grad(spec, pre[l - 1], acts[l]) ** 2
    return CurvatureDiag(np.maximum(h, CURVATURE_FLOOR), CurvatureSource.GAUSS_NEWTON)


def adam_curvature(state: AdamState) -> CurvatureDiag:
    """Curvature proxy from Adam: sqrt of the bias-corrected second moment.

    Free at the end of training, no extra passes over the data. Entries
    below ``CURVATURE_FLOOR``, zero moments included, read as the floor.
    """
    if state.step > 0:
        vhat = state.v / (1.0 - state.beta2**state.step)
    else:
        vhat = np.zeros_like(state.v)
    return CurvatureDiag(np.sqrt(vhat), CurvatureSource.ADAM_SQRT_MOMENT)


def identity_curvature(n: int) -> CurvatureDiag:
    """Unit weights; curvature-weighted methods degrade to plain ones."""
    return CurvatureDiag(np.ones(n, dtype=np.float32), CurvatureSource.IDENTITY)


# ---------------------------------------------------------------------------
# Pruning and fine-tuning
# ---------------------------------------------------------------------------


def prune_magnitude(ps: ParamSet, fraction: float) -> PruneMask:
    """Mark the ``floor(fraction * n)`` smallest-magnitude parameters pruned.

    Magnitude ties are broken by pruning the lower index first. Linear
    time: a partition finds the threshold magnitude, everything below it
    is pruned, then the lowest-index ties at it up to the count.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must be in [0, 1)")
    n = ps.n
    n_prune = int(fraction * n)
    kept = np.ones(n, dtype=bool)
    if n_prune:
        # Widening float32 to float64 and taking magnitudes are both exact,
        # so float32 magnitudes give the same threshold and ties.
        mag = np.abs(ps.values)
        threshold = np.partition(mag, n_prune - 1)[n_prune - 1]
        below = mag < threshold
        kept[below] = False
        ties = np.flatnonzero(mag == threshold)
        kept[ties[: n_prune - np.count_nonzero(below)]] = False
    return PruneMask(kept)


@dataclass(frozen=True)
class FineTuneConfig:
    steps: int = 100
    batch_size: int = 64
    lr: float = 1e-4
    seed: int = 0


def fine_tune_centers(
    spec: MlpSpec,
    assignment,
    codebook: Codebook,
    ds: Dataset,
    cfg: FineTuneConfig,
    positions=None,
) -> tuple[Codebook, float]:
    """Plain SGD on the shared cluster centers, assignments frozen.

    Each center's gradient is the sum of the gradients of its member
    parameters (the chain rule for a shared value). Pruned parameters stay
    exactly zero: ``positions`` maps assignment entries to their slots in
    the full vector of ``spec.param_count()`` parameters. Returns the
    updated codebook and the evaluation accuracy of the fine-tuned model.
    """
    a = np.ascontiguousarray(assignment, dtype=np.int64)
    n = spec.param_count()
    pos = np.arange(n) if positions is None else np.asarray(positions, np.int64)
    if pos.size != a.size:
        raise ValueError("assignment length disagrees with the parameter positions")
    if codebook.n_params != a.size:
        raise ValueError("codebook counts disagree with the assignment")

    centers = codebook.centers.copy()
    k = codebook.k
    rng = np.random.default_rng(cfg.seed)
    train_x, train_y = ds.split("train")
    for t, batch in _batches(rng, train_x.shape[0], cfg.batch_size, cfg.steps):
        w_full = np.zeros(n)
        w_full[pos] = centers[a]
        with np.errstate(over="ignore", invalid="ignore"):  # as in train_adam
            loss, grad = forward_loss(spec, w_full, train_x[batch], train_y[batch])
        if not np.isfinite(loss):
            raise DivergenceError(f"fine-tuning loss became non-finite at step {t}")
        center_grad = np.bincount(a, weights=grad[pos], minlength=k)
        centers -= cfg.lr * center_grad

    tuned = Codebook(centers, codebook.counts)
    w_full = np.zeros(n)
    w_full[pos] = tuned.centers[a]
    eval_x, eval_y = ds.split("eval")
    acc = eval_accuracy(spec, w_full, eval_x, eval_y)
    return tuned, acc
