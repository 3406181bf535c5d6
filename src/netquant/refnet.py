"""Self-contained multilayer perceptron for exercising the quantizers.

Provides everything the compression pipeline needs from a "real" model at
desk scale: deterministic Adam training on synthetic or CSV data, analytic
gradients, the exact Hessian diagonal and a fast Gauss-Newton style one
(two backends of one back-propagated curvature pass), the free curvature
proxy from Adam's second moments, magnitude pruning, shared-center
fine-tuning, and accuracy evaluation of plain and quantized parameters.

Parameters live in one flat vector; layer ``l`` contributes spans
``layer{l}.weight`` (input x output, row-major) and ``layer{l}.bias``.
All math runs in float64 through one forward pass, which keeps each layer's
activation and no pre-activation. Every pass over samples takes it a row
block at a time from one walker; that walker, pruning and the Adam update
cut their blocks with :func:`~netquant.quantizers.block_slices`, sized by
``_BLOCK_BYTES`` or ``_FACTOR_BYTES``.

A training step on a model of more than one update block runs on two
threads where the process may use two CPUs: the caller's and one worker,
which takes the hidden layers' weight gradients and half the update blocks,
each with the operations one thread would run. Only numpy calls and private
loops run there, never a public function (a span tracer assumes one thread
per process); BLAS thread settings do not govern it.
"""

from __future__ import annotations

import contextvars
import logging
import os
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
from .quantizers import Codebook, block_slices

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

    def param_count(self) -> int:
        widths = self.layer_widths
        return sum(din * dout + dout for din, dout in zip(widths, widths[1:]))

    def spans(self) -> tuple[Span, ...]:
        spans, offset = [], 0
        for l, (din, dout) in enumerate(zip(self.layer_widths, self.layer_widths[1:])):
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
    (regression under the squared-error loss). Inputs and targets must be
    finite. The ``hessian`` split falls back to ``train`` when absent,
    matching how curvature is normally estimated from training data.
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
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("inputs and targets must be finite")
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
    return Dataset(inputs, labels, _train_eval_splits(rng, n_samples, eval_frac))


def load_csv(path, eval_frac: float = 0.3, seed: int = 0) -> Dataset:
    """Load a dataset from CSV: label in the first column, features after.

    Labels must be nonnegative integers below the row count, so the output
    layer they size has at most one class per row: a damaged label cannot
    make it any wider.
    """
    raw = np.loadtxt(Path(path), delimiter=",", dtype=np.float64, ndmin=2)
    if raw.shape[1] < 2:
        raise ValueError("CSV needs a label column plus at least one feature")
    labels_f = raw[:, 0]
    inputs = raw[:, 1:]
    if not (np.all(labels_f == np.round(labels_f)) and labels_f.min() >= 0):
        raise ValueError("labels must be nonnegative integers in the first column")
    if labels_f.max() >= len(raw):
        raise ValueError(f"label {labels_f.max():.0f} is not below the row count {len(raw)}")
    labels = labels_f.astype(np.int64)
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


def _params64(params) -> np.ndarray:
    """The flat float64 parameters; :func:`_unpack` checks their count."""
    if isinstance(params, ParamSet):
        return params.as_f64()
    return np.ascontiguousarray(params, dtype=np.float64)


def _act(spec: MlpSpec, z: np.ndarray, out=None) -> np.ndarray:
    if spec.activation == "relu":
        return np.maximum(z, 0.0, out=out)
    if spec.activation == "tanh":
        return np.tanh(z, out=out)
    return z


def _act_grad(spec: MlpSpec, a: np.ndarray) -> np.ndarray:
    """The slope at activation ``a`` (relu's ``a > 0`` is ``z > 0``, NaN too)."""
    if spec.activation == "relu":
        return (a > 0).astype(np.float64)
    if spec.activation == "tanh":
        return 1.0 - a * a
    return np.ones_like(a)


def _forward(spec: MlpSpec, w: np.ndarray, inputs):
    """The ``(W, b)`` views and each layer's activation, inputs first."""
    layers = _unpack(spec, w)
    acts = [np.ascontiguousarray(inputs, dtype=np.float64)]
    for l, (W, b) in enumerate(layers):
        a = acts[-1] @ W
        a += b
        if l < len(layers) - 1:
            _act(spec, a, out=a)
        acts.append(a)
    return layers, acts


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
    w = _params64(params)
    layers, acts = _forward(spec, w, inputs)
    loss, delta = _loss_and_delta(spec, acts[-1], np.asarray(labels))

    grad = np.empty_like(w)
    glayers = _unpack(spec, grad)
    split, pending = _workers(w.size) > 1, []
    for l in range(len(layers) - 1, -1, -1):
        gW, gb = glayers[l]
        if l and split:  # while this thread goes on with delta @ W.T
            pending.append(_on_worker(np.matmul, acts[l].T, delta, out=gW))
        else:
            np.matmul(acts[l].T, delta, out=gW)
        np.sum(delta, axis=0, out=gb)
        if l > 0:
            delta = (delta @ layers[l][0].T) * _act_grad(spec, acts[l])
    for done in pending:
        done.result()
    return loss, grad


# Bytes of float64 one block may hold. _BLOCK_BYTES: eval_accuracy's row
# block of activations per layer, a training worker's scratch block (the
# gradient's own storage is the update's second operand), or
# prune_magnitude's magnitudes. _FACTOR_BYTES: a curvature row block at
# the widest layer times the exact factor's columns. Each such block re-reads
# every weight: on the codec net (861k parameters, 1,400 rows, 2 vCPUs, one
# BLAS thread) exact took 3.0 s at 256 KiB, 0.77 s here and 0.75 s at 64 MiB,
# where quantize peaks at 219 MB, not 85. Larger eval blocks only add RSS.
_BLOCK_BYTES = 256 << 10
_FACTOR_BYTES = 4 << 20

_F32_MAX = float(np.finfo(np.float32).max)  # curvature and centers are stored as float32


# A step has two independent halves; macOS and Windows have no affinity call.
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1)
_worker = None  # (pid, executor), started at first use


def _workers(n: int) -> int:
    """2 if the process may use two CPUs and ``n`` values span more than one block."""
    return 2 if _WORKERS > 1 and n > _BLOCK_BYTES // 8 else 1


def _on_worker(fn, *args, **kwargs):
    """The future of ``fn(*args, **kwargs)`` on the worker, in the caller's
    numpy error state; ``fn`` is never a public netquant function."""
    global _worker
    if _worker is None or _worker[0] != os.getpid():  # a forked child starts anew
        from concurrent.futures import ThreadPoolExecutor
        _worker = (os.getpid(), ThreadPoolExecutor(1))
    return _worker[1].submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _forward_blocks(spec: MlpSpec, w: np.ndarray, inputs, budget: int, cols: int = 1):
    """``(rows, layers, acts)`` of :func:`_forward` per row block of ``inputs``,
    ``budget`` bytes at the widest layer x ``cols``. ``acts`` is emptied
    before the next block is made, so one block's activations are alive."""
    for rows in block_slices(len(inputs), budget // (8 * max(spec.layer_widths) * cols)):
        layers, acts = _forward(spec, w, inputs[rows])
        yield rows, layers, acts
        acts.clear()


def eval_accuracy(spec: MlpSpec, params, inputs, labels) -> float:
    """Fraction of samples whose argmax output matches the class label.

    ``params`` may be a flat vector or a ParamSet. The samples go through
    in row blocks of at most ``_BLOCK_BYTES`` of activations per layer,
    one block's activations alive at a time. BLAS may pick its kernel by
    matrix size, so a block's logits can differ from a whole-batch pass in
    the last bits; that moves an argmax only at a tie to within rounding.
    """
    w = _params64(params)
    x = np.asarray(inputs)
    y = np.asarray(labels)
    if y.ndim != 1:
        raise ValueError("accuracy needs integer class labels")
    if y.size == 0:
        raise ValueError("empty evaluation split")
    if len(x) != y.size:
        raise ValueError("inputs and labels disagree on sample count")
    hits = 0
    for rows, _, acts in _forward_blocks(spec, w, x, _BLOCK_BYTES):
        hits += int(np.count_nonzero(np.argmax(acts[-1], axis=1) == y[rows]))
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


# Adam's decay rates and denominator offset (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 500
    batch_size: int = 64
    lr: float = 1e-2
    seed: int = 0


@dataclass(frozen=True)
class AdamState:
    """Step count and second moments captured at the end of training."""

    step: int
    v: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.v, dtype=np.float64)
        if np.any(v < 0):
            raise ValueError("second moments must be nonnegative")
        object.__setattr__(self, "v", v)


@dataclass(frozen=True)
class TrainedModel:
    params: ParamSet
    final_loss: float
    eval_accuracy: float
    adam: AdamState

    def __post_init__(self):
        if not 0.0 <= self.eval_accuracy <= 1.0:
            raise ValueError("accuracy out of range")


def _adam_blocks(w, m, v, g, c1: float, c2: float, lr: float, scratch) -> None:
    """Adam's update in blocks the size of ``scratch``; each block of ``g``
    is dead once the moments are updated and serves as second operand."""
    for s in block_slices(w.size, scratch.size):
        wb, mb, vb, gb = w[s], m[s], v[s], g[s]
        a = scratch[: wb.size]
        mb *= ADAM_BETA1
        np.multiply(gb, 1.0 - ADAM_BETA1, out=a)
        mb += a
        vb *= ADAM_BETA2
        np.multiply(gb, 1.0 - ADAM_BETA2, out=a)
        a *= gb
        vb += a
        np.divide(mb, c1, out=a)
        a *= lr
        np.divide(vb, c2, out=gb)
        np.sqrt(gb, out=gb)
        gb += ADAM_EPS
        a /= gb
        wb -= a


def _adam_step(spec: MlpSpec, w, m, v, x, y, t: int, lr: float, scratch) -> float:
    """Step ``t`` of Adam on batch ``(x, y)``: the batch loss, and ``w``,
    ``m`` and ``v`` updated in place unless that loss is non-finite.

    The update goes through the model a block at a time, a scratch block
    per worker (a second one takes the second half), with the IEEE
    operations of ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
    ``w -= lr*(m/c1) / (sqrt(v/c2) + eps)`` in their order, so the result
    does not depend on the block size.
    """
    loss, g = forward_loss(spec, w, x, y)
    if not np.isfinite(loss):
        return loss
    c1, c2 = 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
    if len(scratch) == 1:
        _adam_blocks(w, m, v, g, c1, c2, lr, scratch[0])
        return loss
    step = scratch.shape[1]
    cut = -(-w.size // step) // 2 * step  # a block boundary
    done = _on_worker(_adam_blocks, w[cut:], m[cut:], v[cut:], g[cut:], c1, c2, lr, scratch[1])
    _adam_blocks(w[:cut], m[:cut], v[:cut], g[:cut], c1, c2, lr, scratch[0])
    done.result()
    return loss


def train_adam(spec: MlpSpec, ds: Dataset, cfg: TrainConfig) -> TrainedModel:
    """Mini-batch Adam, bit-reproducible for a fixed config and seed.

    Batches are drawn by reshuffling the training split every epoch with the
    config's RNG. Aborts with :class:`DivergenceError` if the loss goes
    non-finite. With ``steps == 0`` the initial parameters come back
    untouched. Besides the batch's gradient, only the parameters and the
    two moments span the whole model; the update runs in blocks of
    ``_BLOCK_BYTES``, with one scratch block per worker. The final loss is
    that of the training split's logits, filled in row blocks of
    ``_FACTOR_BYTES`` (see :func:`eval_accuracy` on their last bits).
    """
    if ds.n_features != spec.layer_widths[0]:
        raise ValueError("dataset feature width disagrees with the spec")
    w = init_params(spec, cfg.seed).as_f64()
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    scratch = np.empty((_workers(w.size), min(w.size, _BLOCK_BYTES // 8)))
    rng = np.random.default_rng(cfg.seed + 1)

    train_x, train_y = ds.split("train")
    for t, batch in _batches(rng, train_x.shape[0], cfg.batch_size, cfg.steps):
        x, y = train_x[batch], train_y[batch]
        # A diverging step overflows on its way to a non-finite loss, which
        # the check below reports; numpy's warnings would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            loss = _adam_step(spec, w, m, v, x, y, t, cfg.lr, scratch)
        if not np.isfinite(loss):
            raise DivergenceError(f"training loss became non-finite at step {t}")
    del m, scratch  # the passes below hold the parameters and ``v`` alone

    # The loss alone, from the split's logits: its gradient would go unused.
    logits = np.empty((len(train_x), spec.layer_widths[-1]))
    for rows, _, acts in _forward_blocks(spec, w, train_x, _FACTOR_BYTES):
        logits[rows] = acts[-1]
    final_loss, _ = _loss_and_delta(spec, logits, train_y)
    params = ParamSet(w, spec.spans())
    eval_x, eval_y = ds.split("eval")
    acc = eval_accuracy(spec, params, eval_x, eval_y)
    return TrainedModel(params, final_loss, acc, AdamState(cfg.steps, v))


# ---------------------------------------------------------------------------
# Curvature backends
# ---------------------------------------------------------------------------


def _curvature_pass(spec: MlpSpec, params, inputs, labels, layer_diags, cols=1):
    """Unfloored float64 curvature over row blocks of ``_FACTOR_BYTES`` at
    ``cols`` columns. ``layer_diags`` yields each layer's diagonal ``d`` on a
    block, last layer first, scaled by the total row count: a weight gets
    ``(a*a)^T @ d`` from the activations ``a`` it reads, a bias ``d.sum(0)``.
    An entry that overflows float32 (NaN and inf too) is a
    :class:`DivergenceError`, which numpy's warnings would only repeat."""
    w = _params64(params)
    h = np.zeros_like(w)
    hlayers = _unpack(spec, h)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, layers, acts in _forward_blocks(spec, w, inputs, _FACTOR_BYTES, cols):
            for l, d in layer_diags(spec, layers, acts, labels[rows], len(inputs)):
                hW, hb = hlayers[l]
                hW += (acts[l] * acts[l]).T @ d
                hb += d.sum(axis=0)
    if not -_F32_MAX <= h.min() <= h.max() <= _F32_MAX:
        raise DivergenceError("curvature overflows float32")
    return h


def _exact_diags(spec: MlpSpec, layers, acts, labels, total: int):
    _, delta = _loss_and_delta(spec, acts[-1], np.asarray(labels))
    n = len(delta)
    delta *= n / total
    eye = np.eye(delta.shape[1])[:, None, :]
    if spec.loss == "softmax_cross_entropy":
        probs = _softmax(acts[-1])
        factor = (eye - probs.T[:, :, None]) * np.sqrt(probs / total)
    else:
        factor = eye * np.full((n, 1), 1.0 / np.sqrt(total))
    signs = np.ones(delta.shape)
    for l in range(len(layers) - 1, -1, -1):
        yield l, np.einsum("jnc,jnc,nc->nj", factor, factor, signs)
        if l == 0:
            return
        W = layers[l][0]
        slope = _act_grad(spec, acts[l])
        factor = (W @ factor.reshape(W.shape[1], -1)).reshape(W.shape[0], n, -1)
        factor *= slope.T[:, :, None]
        grad = delta @ W.T
        if spec.activation == "tanh":
            curv = -2.0 * acts[l] * slope * grad
            root = np.sqrt(np.abs(curv)).T[:, :, None] * np.eye(len(W))[:, None, :]
            factor = np.concatenate([factor, root], axis=2)
            signs = np.concatenate([signs, np.sign(curv)], axis=1)
        delta = grad * slope


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
    widths = spec.layer_widths
    cols = widths[-1] + (spec.activation == "tanh") * sum(widths[1:-1])
    h = _curvature_pass(spec, params, inputs, labels, _exact_diags, cols)
    low = h[h < CURVATURE_FLOOR]
    if low.size:
        zero, negative = np.count_nonzero(low == 0), np.count_nonzero(low < 0)
        log.warning(
            "clamped %d curvature entries to the floor: %d zero, %d negative, "
            "%d positive below the floor",
            low.size, zero, negative, low.size - zero - negative,
        )
    return CurvatureDiag(np.maximum(h, CURVATURE_FLOOR, out=h), CurvatureSource.EXACT_HESSIAN)


def _gn_diags(spec: MlpSpec, layers, acts, labels, total: int):
    if spec.loss == "softmax_cross_entropy":
        probs = _softmax(acts[-1])
        s = probs * (1.0 - probs) / total
    else:
        s = np.full_like(acts[-1], 1.0 / total)
    for l in range(len(layers) - 1, -1, -1):
        yield l, s
        if l > 0:
            s = (s @ np.square(layers[l][0]).T) * _act_grad(spec, acts[l]) ** 2


def hessian_diag_gn(spec: MlpSpec, params, inputs, labels) -> CurvatureDiag:
    """Fast nonnegative curvature via one curvature-backpropagation pass.

    Propagates only the diagonal of the loss Hessian with respect to each
    layer's outputs backward, through squared weights and squared
    activation slopes. So it drops the off-diagonal entries of every such
    Hessian (softmax cross entropy has them already at the net's output)
    as well as the term with the activation's own second derivative, which
    relu and the identity do not have. Costs the same order as a gradient
    pass, in row blocks as :func:`hessian_diag_exact`. It equals that
    backend for a net without hidden layers, and under squared error with
    one hidden layer of relu or no activation. Otherwise the two differ:
    for a 6-8-4 relu net after 50 Adam steps on blobs, under softmax cross
    entropy, by a median of 15% per entry and up to 239%.
    """
    h = _curvature_pass(spec, params, inputs, labels, _gn_diags)
    return CurvatureDiag(np.maximum(h, CURVATURE_FLOOR, out=h), CurvatureSource.GAUSS_NEWTON)


def adam_curvature(state: AdamState) -> CurvatureDiag:
    """Curvature proxy from Adam: sqrt of the bias-corrected second moment.

    Free at the end of training, no extra passes over the data. Entries
    below ``CURVATURE_FLOOR``, zero moments included, read as the floor;
    one beyond float32 (overflowed gradients) is a :class:`DivergenceError`.
    """
    if state.step > 0:
        vhat = state.v / (1.0 - ADAM_BETA2**state.step)
    else:
        vhat = np.zeros_like(state.v)
    root = np.sqrt(vhat)
    if not root.max() <= _F32_MAX:  # NaN fails too
        raise DivergenceError("Adam's second moments overflow the float32 curvature")
    return CurvatureDiag(root, CurvatureSource.ADAM_SQRT_MOMENT)


# ---------------------------------------------------------------------------
# Pruning and fine-tuning
# ---------------------------------------------------------------------------


def prune_magnitude(ps: ParamSet, fraction: float) -> PruneMask:
    """Mark the ``floor(fraction * n)`` smallest-magnitude parameters pruned.

    Magnitude ties are broken by pruning the lower index first. Linear
    time: one in-place partition of a magnitude copy finds the threshold
    magnitude and how many lie below it; the copy is then dropped, and the
    values below the threshold and the lowest-index ties at it are marked
    ``_BLOCK_BYTES // 8`` values at a time.
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
        mag.partition(n_prune - 1)
        threshold = mag[n_prune - 1]
        # Everything below the threshold sits before it after the partition.
        ties = n_prune - int(np.count_nonzero(mag[: n_prune - 1] < threshold))
        del mag
        for s in block_slices(n, _BLOCK_BYTES // 8):
            block = np.abs(ps.values[s])
            np.greater_equal(block, threshold, out=kept[s])
            if ties:
                at = np.flatnonzero(block == threshold)[:ties]
                kept[s.start + at] = False
                ties -= at.size
    kept.setflags(write=False)  # the mask shares it instead of copying it
    return PruneMask(kept)


@dataclass(frozen=True)
class FineTuneConfig:
    steps: int
    batch_size: int
    lr: float
    seed: int = 0


def fine_tune_centers(
    spec: MlpSpec,
    assignment,
    codebook: Codebook,
    ds: Dataset,
    cfg: FineTuneConfig,
    positions=None,
) -> Codebook:
    """Plain SGD on the shared cluster centers, assignments frozen.

    Each center's gradient is the sum of the gradients of its member
    parameters (the chain rule for a shared value). Pruned parameters stay
    exactly zero: ``positions`` maps assignment entries to their slots in
    the full vector of ``spec.param_count()`` parameters. Returns the
    updated codebook; :func:`eval_accuracy` scores the tuned model. A
    non-finite loss or a center beyond float32 is a :class:`DivergenceError`.
    """
    a = np.asarray(assignment)
    n = spec.param_count()
    pos = slice(None) if positions is None else np.asarray(positions)
    if (n if positions is None else pos.size) != a.size:
        raise ValueError("assignment length disagrees with the parameter positions")
    if codebook.n_params != a.size:
        raise ValueError("codebook counts disagree with the assignment")

    centers = codebook.centers.copy()
    k = codebook.k
    rng = np.random.default_rng(cfg.seed)
    train_x, train_y = ds.split("train")
    w_full = np.zeros(n)  # pruned slots are never written and stay zero
    for t, batch in _batches(rng, train_x.shape[0], cfg.batch_size, cfg.steps):
        w_full[pos] = centers[a]
        with np.errstate(over="ignore", invalid="ignore"):  # as in train_adam
            loss, grad = forward_loss(spec, w_full, train_x[batch], train_y[batch])
        if not np.isfinite(loss):
            raise DivergenceError(f"fine-tuning loss became non-finite at step {t}")
        center_grad = np.bincount(a, weights=grad[pos], minlength=k)
        centers -= cfg.lr * center_grad
    if not np.abs(centers).max() <= _F32_MAX:  # NaN fails too
        raise DivergenceError("fine-tuned centers overflow float32")
    return Codebook(centers, codebook.counts)
