"""Minimal dense/convolutional network engine with manual backpropagation.

Everything runs in float64 on plain numpy arrays.  A model is an ordered
list of layers drawn from five kinds:

    dense    z = x @ W.T + b           W: (out, in), b: (out,)
    conv     valid 2-D convolution     W: (filters, in_ch, kh, kw), b: (filters,)
    maxpool  non-overlapping max, stride == kernel, trailing cells dropped
    relu     elementwise max(x, 0)
    softmax  final probability layer (must be last, appears exactly once)

A model carries at most one conv layer; when present it is the designated
layer whose output feature maps back the class-activation weighting used
by the feature-map amplifier.  The loss is mean softmax cross-entropy.

Kernels:
  * Conv is im2col (Chellapilla, Puri & Simard, 2006): the forward, the
    weight gradient and the input gradient are each one ``tensordot`` over
    a ``sliding_window_view``.  A first-layer conv skips its input gradient
    unless the caller asks for the gradient w.r.t. the model input.
  * One block kernel serves the maxpool layer and the patch-max amplifier.
    ``block_max`` takes the maximum of each k*k block over the last two
    axes by k*k ``np.maximum`` passes over the strided cell views
    ``x[..., a::k, b::k]``, with no padding or block copy: on a ceil grid
    edge blocks are ragged and reduced as-is, and a block holding a NaN
    reduces to NaN.  ``block_argmax`` routes each block to one kept entry,
    its first maximum in row-major order or its first NaN (``argmax``'s
    rule, which decides the all-zero blocks after a relu).  Maxpool crops
    the trailing rows and columns, pools with ``block_max`` and sends each
    block's gradient to its kept entry.

Conventions:
  * ``forward`` records each layer's input so ``backward`` can replay the
    graph without autodiff.
  * A model's weights and biases are views into its one flat ``theta``.
    A client "update" is ``theta_before - theta_after`` as one flat float64
    row in ``ModelParams.theta`` order (``ModelParams(model.layers, row)``
    views a row as per-layer arrays); a round's updates are the rows of one
    (N, P) matrix.  The server applies an update as ``theta - scale *
    update`` (``apply_update``), so with scale 1 it lands exactly on the
    client's trained weights.  ``mean_grads`` is the one mean over rows.
  * ``local_train`` is plain SGD from one seed.  ``LocalTraining`` is a
    run's recipe around it (epochs, batch size, learning rate, client seed)
    and the one place that derives a training stream
    ``rng_stream(seed, round, client)``; every update of a round comes
    from it.
  * ``GradientSet`` is only what ``backward`` returns: per-layer gradients,
    flattened by ``to_vector`` before they step anything.
  * Feature-map gradients are d y / d A summed over the batch, where y is
    the pre-softmax logit of each sample's true class, summed over the
    batch.  ``feature_map_grads`` computes them with a walk that stops at
    the conv layer's output and forms no parameter gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import Dataset
from .errors import ConfigError
from .seeding import rng_stream

LAYER_KINDS = ("dense", "conv", "maxpool", "relu", "softmax")


@dataclass
class Layer:
    kind: str
    weight: np.ndarray | None = None
    bias: np.ndarray | None = None
    pool: int = 2  # kernel == stride for maxpool layers


def _concat(arrays) -> np.ndarray:
    """The non-None arrays raveled and joined, in order."""
    chunks = [a.ravel() for a in arrays if a is not None]
    return np.concatenate(chunks) if chunks else np.zeros(0)


class ModelParams:
    """Ordered layer list whose weights and biases are views into one flat
    float64 ``theta``: weight, then bias, layer by layer.

    ``ModelParams(layers)`` copies the layers' arrays into a new theta.
    ``ModelParams(layers, theta)`` views ``theta`` without copying; the
    layers give only the shapes.
    """

    def __init__(self, layers: list[Layer], theta: np.ndarray | None = None) -> None:
        conv_count = 0
        for layer in layers:
            if layer.kind not in LAYER_KINDS:
                raise ConfigError(f"unknown layer kind {layer.kind!r}")
            if layer.kind == "conv":
                conv_count += 1
            if layer.kind == "maxpool" and layer.pool < 1:
                raise ConfigError(f"maxpool kernel must be >= 1, got {layer.pool}")
        if conv_count > 1:
            raise ConfigError("at most one conv layer is supported")
        if not layers or layers[-1].kind != "softmax":
            raise ConfigError("model must end with a softmax layer")
        arrays = [a for layer in layers for a in (layer.weight, layer.bias) if a is not None]
        if theta is None:
            theta = _concat(arrays).astype(np.float64, copy=False)
        size = sum(a.size for a in arrays)
        if np.shape(theta) != (size,):
            raise ConfigError(f"vector has shape {np.shape(theta)}, model has {size} parameters")
        self.theta = theta
        self.layers: list[Layer] = []
        pos = 0
        for layer in layers:
            views = []
            for a in (layer.weight, layer.bias):
                if a is not None:
                    a = theta[pos : pos + a.size].reshape(a.shape)
                    pos += a.size
                views.append(a)
            self.layers.append(Layer(layer.kind, *views, layer.pool))

    def conv_index(self) -> int | None:
        for i, layer in enumerate(self.layers):
            if layer.kind == "conv":
                return i
        return None


@dataclass
class ForwardTrace:
    """Activations recorded during ``forward``.

    ``inputs[i]`` is the array fed into layer i, so ``inputs[i + 1]`` is
    layer i's output; ``logits`` are the pre-softmax scores.
    """

    inputs: list[np.ndarray]
    logits: np.ndarray
    probs: np.ndarray


@dataclass
class GradientSet:
    """Per-layer (dW, db) pairs aligned with a model's layer list.

    This is only what ``backward`` returns; updates travel as flat rows
    (``to_vector``).  Parameter-free layers hold (None, None).  ``plus``
    has no caller left; the benchmark's per-layer table still names it.
    """

    layers: list[tuple[np.ndarray | None, np.ndarray | None]]

    def to_vector(self) -> np.ndarray:
        return _concat(a for pair in self.layers for a in pair)

    def plus(self, other: "GradientSet") -> "GradientSet":
        if len(self.layers) != len(other.layers):
            raise ConfigError("gradient sets come from different models")
        out = []
        for (aw, ab), (bw, bb) in zip(self.layers, other.layers):
            out.append(
                (
                    None if aw is None else aw + bw,
                    None if ab is None else ab + bb,
                )
            )
        return GradientSet(out)


def mean_grads(rows, out: np.ndarray | None = None) -> np.ndarray:
    """Mean of flat update rows: an ascending left fold, then ``*= 1/len``.
    ``rows`` is a sequence of (P,) arrays or an (N, P) matrix; the result
    goes to ``out`` when given, else to a new array."""
    if len(rows) == 0:
        raise ConfigError("cannot average an empty update list")
    if out is None:
        out = np.array(rows[0], dtype=np.float64)
    else:
        np.copyto(out, rows[0])
    for row in rows[1:]:
        out += row
    out *= 1.0 / len(rows)
    return out


# ---------------------------------------------------------------------------
# model builders


def _rng(seed: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def mlp_model(in_dim: int, hidden: int, num_classes: int, seed: int | np.random.Generator) -> ModelParams:
    """dense -> relu -> dense -> softmax; hidden == 0 collapses to logistic."""
    if hidden < 0:
        raise ConfigError(f"hidden width must be >= 0, got {hidden}")
    rng = _rng(seed)
    layers: list[Layer] = []

    def dense(fan_in: int, fan_out: int) -> Layer:
        w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_out, fan_in))
        return Layer("dense", w, np.zeros(fan_out))

    if hidden > 0:
        layers.append(dense(in_dim, hidden))
        layers.append(Layer("relu"))
        layers.append(dense(hidden, num_classes))
    else:
        layers.append(dense(in_dim, num_classes))
    layers.append(Layer("softmax"))
    return ModelParams(layers)


def conv_model(
    in_shape: tuple[int, int, int],
    num_classes: int,
    seed: int | np.random.Generator,
    filters: int = 8,
    kernel: int = 3,
    pool: int = 2,
) -> ModelParams:
    """conv -> relu -> maxpool -> dense -> softmax on (channels, H, W) input."""
    if min(filters, kernel, pool) < 1:
        raise ConfigError(f"conv filters, kernel, pool must be >= 1, got {filters}, {kernel}, {pool}")
    rng = _rng(seed)
    c, h, w = in_shape
    if h < kernel or w < kernel:
        raise ConfigError(f"input {h}x{w} smaller than conv kernel {kernel}")
    fan_in = c * kernel * kernel
    cw = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(filters, c, kernel, kernel))
    ho, wo = h - kernel + 1, w - kernel + 1
    hp, wp = ho // pool, wo // pool
    if hp < 1 or wp < 1:
        raise ConfigError("feature maps vanish after pooling; shrink kernel or pool")
    flat = filters * hp * wp
    dw = rng.normal(0.0, 1.0 / np.sqrt(flat), size=(num_classes, flat))
    return ModelParams(
        [
            Layer("conv", cw, np.zeros(filters)),
            Layer("relu"),
            Layer("maxpool", pool=pool),
            Layer("dense", dw, np.zeros(num_classes)),
            Layer("softmax"),
        ]
    )


# ---------------------------------------------------------------------------
# forward / backward


def _conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    _, _, h, width = x.shape
    _, _, kh, kw = w.shape
    if h < kh or width < kw:
        raise ConfigError(f"conv input {h}x{width} smaller than kernel {kh}x{kw}")
    # (n, c, ho, wo, kh, kw) window view; tensordot makes the im2col copy.
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))
    out = np.tensordot(w, win, axes=((1, 2, 3), (1, 4, 5)))
    out += b[:, None, None, None]
    return out.transpose(1, 0, 2, 3)


def block_max(x: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    """Maximum of each k*k block over the last two axes, shape
    (..., ceil(h/k), ceil(w/k)), written into ``out`` when given.  Cell
    (a, b) of every block is the strided view ``x[..., a::k, b::k]``; on
    ragged edges it covers fewer blocks."""
    if out is None:
        out = x[..., ::k, ::k].copy()
    else:
        out[...] = x[..., ::k, ::k]
    for a in range(k):
        for b in range(k):
            if a or b:
                cell = x[..., a::k, b::k]
                part = out[..., : cell.shape[-2], : cell.shape[-1]]
                np.maximum(part, cell, out=part)
    return out


def block_argmax(x: np.ndarray, best: np.ndarray, k: int):
    """Route each k*k block of ``x`` to one kept entry: its first cell in
    row-major order that equals ``best`` (the block's ``block_max``) or is
    NaN.  Yields, per cell offset in row-major order, the cell's index into
    ``x`` and the mask of blocks whose kept entry is not in that cell.  The
    mask is final when yielded, so the caller may overwrite the cell."""
    open_blocks = np.ones(best.shape, dtype=bool)
    for a in range(k):
        for b in range(k):
            cell = (..., slice(a, None, k), slice(b, None, k))
            win = x[cell]
            ha, wb = win.shape[-2:]
            hit = win == best[..., :ha, :wb]
            hit |= np.isnan(win)
            hit &= open_blocks[..., :ha, :wb]
            miss = ~hit
            open_blocks[..., :ha, :wb] &= miss
            yield cell, miss


def forward(model: ModelParams, x: np.ndarray) -> ForwardTrace:
    """Run the batch through every layer, recording inputs along the way."""
    act = np.asarray(x, dtype=np.float64)
    inputs: list[np.ndarray] = []
    logits = None
    for layer in model.layers:
        inputs.append(act)
        if layer.kind == "dense":
            flat = act.reshape(act.shape[0], -1)
            if flat.shape[1] != layer.weight.shape[1]:
                raise ConfigError(
                    f"dense layer expects {layer.weight.shape[1]} inputs, got {flat.shape[1]}"
                )
            act = flat @ layer.weight.T + layer.bias
        elif layer.kind == "conv":
            act = _conv_forward(act, layer.weight, layer.bias)
        elif layer.kind == "maxpool":
            k = layer.pool
            ho, wo = act.shape[2] // k, act.shape[3] // k
            if ho < 1 or wo < 1:
                raise ConfigError(
                    f"maxpool kernel {k} larger than input {act.shape[2]}x{act.shape[3]}"
                )
            act = block_max(act[..., : ho * k, : wo * k], k)
        elif layer.kind == "relu":
            act = np.maximum(act, 0.0)
        elif layer.kind == "softmax":
            logits = act
            shifted = act - act.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            act = e / e.sum(axis=1, keepdims=True)
    return ForwardTrace(inputs=inputs, logits=logits, probs=act)


def _backprop(
    model: ModelParams,
    trace: ForwardTrace,
    dlogits: np.ndarray,
    want_params: bool,
    stop_after: int | None = None,
) -> tuple[list[tuple[np.ndarray | None, np.ndarray | None]], np.ndarray | None]:
    """Push dlogits back through the graph.

    Returns (per-layer parameter grads, gradient w.r.t. the output of layer
    ``stop_after``; -1 means the model input).  When want_params is False
    the parameter slots stay None and the walk ends at the captured layer.
    The input gradient of a first-layer conv is computed only for
    ``stop_after == -1``, the one caller that reads it.
    """
    grads: list[tuple[np.ndarray | None, np.ndarray | None]] = [
        (None, None) for _ in model.layers
    ]
    d = dlogits
    captured = None
    for i in range(len(model.layers) - 1, -1, -1):
        if i == stop_after:
            captured = d
            if not want_params:
                break
        layer = model.layers[i]
        x = trace.inputs[i]
        if layer.kind == "softmax":
            # dlogits is already the gradient at this layer's input.
            pass
        elif layer.kind == "dense":
            flat = x.reshape(x.shape[0], -1)
            if want_params:
                grads[i] = (d.T @ flat, d.sum(axis=0))
            d = (d @ layer.weight).reshape(x.shape)
        elif layer.kind == "relu":
            d = d * (x > 0.0)
        elif layer.kind == "maxpool":
            pooled = trace.inputs[i + 1]
            crop = (..., slice(pooled.shape[2] * layer.pool), slice(pooled.shape[3] * layer.pool))
            dx = np.zeros_like(x)
            dx_cropped = dx[crop]
            for cell, miss in block_argmax(x[crop], pooled, layer.pool):
                dx_cropped[cell] = np.where(miss, 0.0, d)
            d = dx
        elif layer.kind == "conv":
            w = layer.weight
            _, _, kh, kw = w.shape
            if want_params:
                win = sliding_window_view(x, (kh, kw), axis=(2, 3))
                dw = np.tensordot(d, win, axes=((0, 2, 3), (0, 2, 3)))
                grads[i] = (dw, d.sum(axis=(0, 2, 3)))
            if i > 0 or stop_after == -1:
                # Full correlation of the gradient with the flipped kernel.
                padded = np.pad(d, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
                flipped = np.flip(w, axis=(2, 3)).swapaxes(0, 1)
                d = _conv_forward(padded, flipped, np.zeros(x.shape[1]))
    if stop_after == -1:
        captured = d
    return grads, captured


def _onehot(trace: ForwardTrace, labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    n, m = trace.probs.shape
    if labels.shape[0] != n:
        raise ConfigError(f"{labels.shape[0]} labels for a batch of {n}")
    onehot = np.zeros((n, m))
    onehot[np.arange(n), labels] = 1.0
    return onehot


def backward(model: ModelParams, trace: ForwardTrace, labels: np.ndarray) -> GradientSet:
    """Mean cross-entropy gradients for the traced batch."""
    onehot = _onehot(trace, labels)
    grads, _ = _backprop(model, trace, (trace.probs - onehot) / onehot.shape[0], want_params=True)
    return GradientSet(grads)


def feature_map_grads(model: ModelParams, trace: ForwardTrace, labels: np.ndarray) -> np.ndarray:
    """d y / d A for the conv layer's output A, summed over the batch, where
    y is the batch-summed true-class logit.  Only the layers above the conv
    layer are walked and no parameter gradient is formed."""
    ci = model.conv_index()
    if ci is None:
        raise ConfigError("feature-map capture needs a conv layer")
    _, dmaps = _backprop(model, trace, _onehot(trace, labels), want_params=False, stop_after=ci)
    return dmaps.sum(axis=0)


def loss_value(trace: ForwardTrace, labels: np.ndarray) -> float:
    """Mean cross-entropy of a traced batch (probabilities floored at 1e-300)."""
    labels = np.asarray(labels)
    picked = trace.probs[np.arange(trace.probs.shape[0]), labels]
    return float(-np.mean(np.log(np.maximum(picked, 1e-300))))


def predict(model: ModelParams, features: np.ndarray) -> np.ndarray:
    return np.argmax(forward(model, features).logits, axis=1)


# ---------------------------------------------------------------------------
# training and parameter updates


def apply_update(model: ModelParams, update: np.ndarray, scale: float) -> ModelParams:
    """A new model at ``model.theta - scale * update``; ``model`` is left as is."""
    if np.shape(update) != model.theta.shape:
        raise ConfigError(
            f"update has shape {np.shape(update)}, model has {model.theta.size} parameters"
        )
    return ModelParams(model.layers, model.theta - scale * update)


def local_train(
    model: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    epochs: int,
    batch_size: int,
    lr: float,
    seed: int | np.random.Generator,
) -> np.ndarray:
    """Plain SGD for a client; returns theta_before - theta_after, flat.

    Each step moves a private copy of ``model.theta`` in place by
    ``lr * backward(...).to_vector()``.  Batch order is drawn from the
    given seed only, so a round's clients can run in any order (or in
    parallel) without changing their updates.
    """
    n = len(labels)
    if n == 0:
        raise ConfigError("cannot train on an empty shard")
    if epochs < 1 or batch_size < 1 or lr <= 0:
        raise ConfigError("epochs and batch_size must be >= 1 and lr positive")
    rng = _rng(seed)
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    theta = model.theta.copy()
    work = ModelParams(model.layers, theta)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            trace = forward(work, features[batch])
            theta -= lr * backward(work, trace, labels[batch]).to_vector()
    return model.theta - theta


@dataclass(frozen=True)
class LocalTraining:
    """A run's one client-training recipe.

    ``train(model, data, round_idx, client)`` runs ``local_train`` on
    ``data`` with the stream ``rng_stream(seed, round_idx, client)``.
    Honest clients, the data-poisoning attackers and the fltrust server
    reference all train through it, so a poisoned update differs from the
    honest one only in its data.
    """

    epochs: int
    batch_size: int
    lr: float
    seed: int

    def __call__(
        self, model: ModelParams, data: Dataset, round_idx: int, client: int
    ) -> np.ndarray:
        # ``local_train`` is looked up when called, so a rebound
        # ``nn.local_train`` (a profiler's hook) sees every update
        return local_train(
            model,
            data.features,
            data.labels,
            self.epochs,
            self.batch_size,
            self.lr,
            rng_stream(self.seed, round_idx, client),
        )
