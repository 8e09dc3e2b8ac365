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
  * Maxpool is an elementwise maximum over the k*k strided cell views, so
    a block holding a NaN pools to NaN.  The backward routes each block's
    gradient to its first maximum in row-major order, or its first NaN:
    ``argmax``'s rule, which decides the all-zero blocks after a relu.

Conventions:
  * ``forward`` records each layer's input so ``backward`` can replay the
    graph without autodiff.
  * A client "update" is ``theta_before - theta_after`` as one flat float64
    row in ``ModelParams.to_vector`` order (``params_from_vector`` views a
    row as per-layer arrays); a round's updates are the rows of one (N, P)
    matrix.  The server applies an update as ``theta - scale * update``
    (``apply_update``), so with scale 1 it lands exactly on the client's
    trained weights.  ``mean_grads`` is the one mean over rows.
  * ``GradientSet`` is only what ``backward`` returns: per-layer gradients,
    flattened by ``to_vector`` before they step anything.
  * Feature-map gradients are d y / d A summed over the batch, where y is
    the pre-softmax logit of each sample's true class, summed over the
    batch.  ``feature_map_grads`` computes them with a walk that stops at
    the conv layer's output and forms no parameter gradient;
    ``backward(capture_feature_grads=True)`` attaches the same array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError

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


@dataclass
class ModelParams:
    """Ordered layer list plus shape bookkeeping."""

    layers: list[Layer]

    def __post_init__(self) -> None:
        conv_count = 0
        for layer in self.layers:
            if layer.kind not in LAYER_KINDS:
                raise ConfigError(f"unknown layer kind {layer.kind!r}")
            if layer.kind == "conv":
                conv_count += 1
        if conv_count > 1:
            raise ConfigError("at most one conv layer is supported")
        if not self.layers or self.layers[-1].kind != "softmax":
            raise ConfigError("model must end with a softmax layer")

    def conv_index(self) -> int | None:
        for i, layer in enumerate(self.layers):
            if layer.kind == "conv":
                return i
        return None

    def param_count(self) -> int:
        total = 0
        for layer in self.layers:
            if layer.weight is not None:
                total += layer.weight.size
            if layer.bias is not None:
                total += layer.bias.size
        return total

    def to_vector(self) -> np.ndarray:
        """Weights and biases in the order of ``GradientSet.to_vector``."""
        return _concat(a for layer in self.layers for a in (layer.weight, layer.bias))


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
    (``to_vector``).  Parameter-free layers hold (None, None).
    ``feature_map_grads`` rides along only when backward ran with capture
    enabled; it is auxiliary and excluded from the vector view.  ``plus``
    has no caller left; the benchmark's per-layer table still names it.
    """

    layers: list[tuple[np.ndarray | None, np.ndarray | None]]
    feature_map_grads: np.ndarray | None = None

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


def params_from_vector(model: ModelParams, vec: np.ndarray) -> ModelParams:
    """A model shaped like ``model`` whose weights and biases are views into
    ``vec`` (``ModelParams.to_vector`` order), so no parameter is copied."""
    if vec.shape != (model.param_count(),):
        raise ConfigError(
            f"vector has shape {vec.shape}, model has {model.param_count()} parameters"
        )
    out = []
    pos = 0
    for layer in model.layers:
        w = b = None
        if layer.weight is not None:
            w = vec[pos : pos + layer.weight.size].reshape(layer.weight.shape)
            pos += layer.weight.size
        if layer.bias is not None:
            b = vec[pos : pos + layer.bias.size].reshape(layer.bias.shape)
            pos += layer.bias.size
        out.append(Layer(layer.kind, w, b, layer.pool))
    return ModelParams(out)


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


def _pool_cells(x: np.ndarray, k: int) -> list[tuple]:
    """Indices of the k*k strided cell views of a maxpool input, row-major:
    ``x[cell]`` for offset (a, b) holds element (a, b) of every block."""
    ho, wo = x.shape[2] // k, x.shape[3] // k
    if ho < 1 or wo < 1:
        raise ConfigError(f"maxpool kernel {k} larger than input {x.shape[2]}x{x.shape[3]}")
    return [(..., slice(a, ho * k, k), slice(b, wo * k, k)) for a in range(k) for b in range(k)]


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
            cells = _pool_cells(act, layer.pool)
            pooled = act[cells[0]]
            for cell in cells[1:]:
                pooled = np.maximum(pooled, act[cell])
            act = pooled
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
            # Each block's gradient goes to its first maximum in row-major
            # order (argmax's tie rule), or to its first NaN if it has one.
            pooled = trace.inputs[i + 1]
            dx = np.zeros_like(x)
            open_blocks = np.ones(pooled.shape, dtype=bool)
            for cell in _pool_cells(x, layer.pool):
                win = x[cell]
                hit = open_blocks & ((win == pooled) | np.isnan(win))
                dx[cell] = np.where(hit, d, 0.0)
                open_blocks &= ~hit
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


def backward(
    model: ModelParams,
    trace: ForwardTrace,
    labels: np.ndarray,
    capture_feature_grads: bool = False,
) -> GradientSet:
    """Mean cross-entropy gradients for the traced batch.

    With capture enabled (conv models only) ``feature_map_grads`` also
    holds the result of :func:`feature_map_grads`; the parameter gradients
    are the same either way.
    """
    onehot = _onehot(trace, labels)
    grads, _ = _backprop(model, trace, (trace.probs - onehot) / onehot.shape[0], want_params=True)
    gset = GradientSet(grads)
    if capture_feature_grads:
        gset.feature_map_grads = feature_map_grads(model, trace, labels)
    return gset


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
    """theta - scale * update for a flat update in ``to_vector`` order; the
    new model's parameters are views into one new vector."""
    theta = model.to_vector()
    if np.shape(update) != theta.shape:
        raise ConfigError(f"update has shape {np.shape(update)}, model has {theta.size} parameters")
    return params_from_vector(model, theta - scale * update)


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

    The working model's parameters are views into one flat theta, which
    each step moves in place by ``lr * backward(...).to_vector()``.  Batch
    order is drawn from the given seed only, so a round's clients can run
    in any order (or in parallel) without changing their updates.
    """
    n = len(labels)
    if n == 0:
        raise ConfigError("cannot train on an empty shard")
    if epochs < 1 or batch_size < 1 or lr <= 0:
        raise ConfigError("epochs and batch_size must be >= 1 and lr positive")
    rng = _rng(seed)
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    before = model.to_vector()
    theta = before.copy()
    work = params_from_vector(model, theta)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            trace = forward(work, features[batch])
            theta -= lr * backward(work, trace, labels[batch]).to_vector()
    return before - theta
