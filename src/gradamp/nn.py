"""Minimal dense/convolutional network engine with manual backpropagation.

Everything runs in float64 on plain numpy arrays.  A model is an ordered
list of layers drawn from five kinds:

    dense    z = x @ W.T + b           W: (out, in), b: (out,)
    conv     valid 2-D convolution     W: (filters, in_ch, kh, kw), b: (filters,)
    maxpool  non-overlapping max, stride == kernel, trailing cells dropped
    relu     elementwise max(x, 0)
    softmax  final probability layer (must be last, appears exactly once)

A conv layer may only be the first layer, so a model carries at most one;
its output feature maps back the class-activation weighting used by the
feature-map amplifier.  The loss is mean softmax cross-entropy.

Kernels:
  * One lowering per conv batch, im2col (Chellapilla, Puri & Simard,
    2006).  ``lower`` copies a ``sliding_window_view`` of the batch into
    (..., c*kh*kw, n*ho*wo) columns, over any leading stack axes.  The
    conv is the first layer, so the columns depend on the batch alone:
    ``forward`` takes them ready-made (a validation ``Dataset``'s
    ``cols``, lowered once per run) or lowers the batch itself, and keeps
    them in the trace.  ``_conv_forward`` is one ``matmul`` per model over
    them, and the weight gradient is d (..., f, n*ho*wo) times their
    transpose, laid out as a second lowering would hand it to BLAS.  The
    backward forms no gradient at the model input, so a conv never needs
    its input gradient.
  * Client stacks.  ``forward`` and ``backward`` also run m models at once,
    a ``ModelParams`` whose (m, ...) weights view the rows of one (m, P)
    matrix: dense and conv are stacked ``matmul``s, and relu, maxpool and
    softmax work over the leading axes.  Each client's numbers are the
    bits of its own one-model run.
  * One block kernel serves the maxpool layer and the patch-max amplifier.
    ``block_max`` takes the maximum of each k*k block over the last two
    axes by k*k ``np.maximum`` passes over the strided cell views
    ``x[..., a::k, b::k]``, with no padding or block copy: on a ceil grid
    edge blocks are ragged and reduced as-is, and a block holding a NaN
    reduces to NaN.  ``block_keep`` marks each block's kept entry in a
    bool mask shaped like the input: its first maximum in row-major order
    or its first NaN (``argmax``'s rule, which decides the all-zero blocks
    after a relu).  Callers select by the mask's bits: the values' int64
    view times the bool mask, one ``np.multiply`` into an int64 view of
    the destination, keeps the kept entries' bits (x * 1), NaN payloads,
    infinities and -0.0 included, and writes +0.0 elsewhere (x * 0); the
    mask is cast in the ufunc's buffer, never as a whole int64 array.
    Maxpool crops the trailing rows and columns, pools with ``block_max``,
    and in the backward spreads each block's gradient to its k*k cells and
    selects it there.

Conventions:
  * ``forward`` records each layer's input so ``backward`` can replay the
    graph without autodiff.
  * A model's weights and biases are views into its one flat ``theta``.
    A client "update" is ``theta_before - theta_after`` as one flat float64
    row in ``ModelParams.theta`` order (``ModelParams(model.layers, row)``
    views a row as per-layer arrays); a round's updates are the rows of one
    (N, P) matrix.  The server applies an update as ``theta - update``
    (``apply_update``), so a client's own update lands exactly on its
    trained weights.  ``mean_grads`` averages rows by an ascending left
    fold; the fang probes in ``aggregate`` sum the same fold from a
    running prefix instead of calling it.
  * ``forward``, ``backward``, ``lower``, ``block_max``, ``block_keep``
    and ``local_train`` are one-line wrappers over the kernels
    ``_forward``, ``_backward``, ``_lower``, ``_block_max``,
    ``_block_keep`` and ``_local_train``, which call no public name
    (``_local_train`` calls the forward and gradient steps it is handed).
    The benchmark traces the public names from one thread, so the two
    jobs ``runtime.split`` may hand the worker (see the ``runtime``
    docstring) call the kernels.
    ``_loss_value``, whose one caller is the probes, has no public name.
  * ``local_train`` is plain SGD, for one client from one seed or for a
    stack of clients with equal shard sizes, one seed each.
    ``LocalTraining`` is a run's recipe around it (epochs, batch size,
    learning rate, client seed).  Its one method, ``train_all``, trains
    shard j into row j on the stream ``rng_stream(seed, round, client)``,
    built for the whole call in one ``round_streams`` pass.  It is the one
    training path: a round's honest rows, the cohort's rows on its
    poisoned shards and the fltrust reference come from one call.  It
    trains its shards in stacks of equal shard size, each at least one
    client and at most ``STACK_FLOATS`` floats of parameters and batch
    traces (the cap the patch max also uses), and hands them to
    ``runtime.split``: a worker half trains through ``_local_train``, the
    calling thread's through ``local_train``.
  * ``GradientSet`` is what ``backward`` returns: per-layer gradients,
    views of one flat buffer.  ``GradientSet.to_vector`` and ``.plus`` have
    no caller in the package; they remain only because the benchmark's
    per-layer rows in ``BENCHMARK.json`` name them.
  * ``activation_weights`` gives each conv filter its Grad-CAM weight
    (Selvaraju et al., 2017): the spatial mean of d y / d A for the conv
    output A, summed over the batch, where y is the batch-summed
    pre-softmax logit of each sample's true class.  It takes only
    ``conv_model``'s layout and reads the weights off the gradient at the
    pooled output, one product with the dense weight, with no backward
    pass and no maxpool routing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import runtime
from .data import Dataset
from .errors import ConfigError
from .seeding import round_streams

LAYER_KINDS = ("dense", "conv", "maxpool", "relu", "softmax")

# Most floats in one client stack (a stack holds at least one client), so
# it stays in cache across its passes: the patch max stacks panels of the
# update rows, and local training stacks models with their batch traces.
# On a core with 2 MiB of L2, stacking all 50 clients of a 105k-parameter
# model made the compact patch max 3-4x slower; stacking all 10 clients of
# the 683-parameter conv model raised a run's peak RSS by about 15%.
STACK_FLOATS = 1 << 16


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


def _views(layers: list[Layer], theta: np.ndarray, lead: int = 0) -> list[Layer]:
    """``layers`` again, each weight and bias a view of its span of
    ``theta``'s last axis (weight, then bias, layer by layer).  ``theta`` is
    one (P,) vector or an (m, P) stack, whose views gain the leading m; the
    first ``lead`` axes of the layers' own arrays are stack axes."""
    stack = theta.shape[:-1]
    out = []
    pos = 0
    for layer in layers:
        views = []
        for a in (layer.weight, layer.bias):
            if a is not None:
                shape = a.shape[lead:]
                size = math.prod(shape)
                a = theta[..., pos : pos + size].reshape(stack + shape)
                pos += size
            views.append(a)
        out.append(Layer(layer.kind, *views, layer.pool))
    return out


class ModelParams:
    """Ordered layer list whose weights and biases are views into one flat
    float64 ``theta``: weight, then bias, layer by layer.

    ``ModelParams(layers)`` copies the layers' arrays into a new theta.
    ``ModelParams(layers, theta)`` views ``theta`` without copying; the
    layers give only the shapes.  ``theta`` is one (P,) row, or an (m, P)
    stack of m models trained as one (``local_train``'s client stack),
    whose weights and biases gain the leading m.
    """

    def __init__(self, layers: list[Layer], theta: np.ndarray | None = None) -> None:
        for i, layer in enumerate(layers):
            if layer.kind not in LAYER_KINDS:
                raise ConfigError(f"unknown layer kind {layer.kind!r}")
            if layer.kind == "conv" and i > 0:
                raise ConfigError(f"a conv layer must be the first layer, got one at layer {i}")
            if layer.kind == "maxpool" and layer.pool < 1:
                raise ConfigError(f"maxpool kernel must be >= 1, got {layer.pool}")
        if not layers or layers[-1].kind != "softmax":
            raise ConfigError("model must end with a softmax layer")
        arrays = [a for layer in layers for a in (layer.weight, layer.bias) if a is not None]
        if theta is None:
            theta = _concat(arrays).astype(np.float64, copy=False)
        size = sum(a.size for a in arrays)
        if np.ndim(theta) not in (1, 2) or np.shape(theta)[-1] != size:
            raise ConfigError(f"theta has shape {np.shape(theta)}, model has {size} parameters")
        self.theta = theta
        self.layers = _views(layers, theta)

    def conv_index(self) -> int | None:
        return 0 if self.layers[0].kind == "conv" else None


@dataclass
class ForwardTrace:
    """Activations recorded during ``forward``.

    ``inputs[i]`` is the array fed into layer i, so ``inputs[i + 1]`` is
    layer i's output; ``logits`` are the pre-softmax scores.  ``cols`` is
    the lowered batch the conv multiplied (see ``lower``), kept for its
    weight gradient; None for a model without a conv.
    """

    inputs: list[np.ndarray]
    logits: np.ndarray
    probs: np.ndarray
    cols: np.ndarray | None = None


@dataclass
class GradientSet:
    """Per-layer (dW, db) pairs aligned with a model's layer list.

    This is only what ``backward`` returns; updates travel as flat rows.
    Parameter-free layers hold (None, None).  ``to_vector`` and ``plus``
    have no caller in the package; the benchmark's per-layer table still
    names them.
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


def mean_grads(rows) -> np.ndarray:
    """Mean of flat update rows, a new array: an ascending left fold, then
    ``*= 1/len``.  ``rows`` is a sequence of (P,) arrays or an (N, P)
    matrix."""
    if len(rows) == 0:
        raise ConfigError("cannot average an empty update list")
    out = np.array(rows[0], dtype=np.float64)
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


def pooled_shape(in_shape: tuple[int, int, int], kernel: int, pool: int) -> tuple[int, int]:
    """(H, W) of the feature maps after the valid conv and the maxpool."""
    _, h, w = in_shape
    if h < kernel or w < kernel:
        raise ConfigError(f"input {h}x{w} smaller than conv kernel {kernel}")
    hp, wp = (h - kernel + 1) // pool, (w - kernel + 1) // pool
    if hp < 1 or wp < 1:
        raise ConfigError("feature maps vanish after pooling; shrink kernel or pool")
    return hp, wp


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
    hp, wp = pooled_shape(in_shape, kernel, pool)
    rng = _rng(seed)
    c = in_shape[0]
    fan_in = c * kernel * kernel
    cw = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(filters, c, kernel, kernel))
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


def _blas_ready(a: np.ndarray) -> np.ndarray:
    """``a`` when each of its matrices is C- or F-contiguous, else a C copy:
    the layouts ``np.dot`` hands BLAS, so ``matmul`` never takes its
    non-BLAS loop and each product has the bits of the 2-D ``np.dot``."""
    if a.flags.c_contiguous or a.swapaxes(-1, -2).flags.c_contiguous:
        return a
    return np.ascontiguousarray(a)


def lower(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The im2col columns (..., c*kh*kw, n*ho*wo) of the batch x (..., n, c,
    h, w) for a valid correlation with a kernel shaped like w (..., f, c,
    kh, kw): column (s, i, j) holds sample s's c x kh x kw window at (i, j).
    One copy of a ``sliding_window_view``, or a view of x where the
    reshape needs no copy, as for a 1x1 kernel on a batch of one."""
    return _lower(x, w)


def _lower(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    *stack, n, c, h, width = x.shape
    kh, kw = w.shape[-2:]
    if h < kh or width < kw:
        raise ConfigError(f"conv input {h}x{width} smaller than kernel {kh}x{kw}")
    ho, wo = h - kh + 1, width - kw + 1
    # (..., n, c, ho, wo, kh, kw) window view -> (..., c, kh, kw, n, ho, wo)
    win = np.moveaxis(sliding_window_view(x, (kh, kw), axis=(-2, -1)), (-5, -2, -1), (-6, -5, -4))
    return win.reshape(*stack, c * kh * kw, n * ho * wo)


def _conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Valid correlation of x (..., n, c, h, w) with w (..., f, c, kh, kw),
    plus b (..., f): (..., n, f, ho, wo), one ``matmul`` per model over
    ``cols``, x's ``lower``."""
    *stack, n, c, h, width = x.shape
    f, _, kh, kw = w.shape[-4:]
    ho, wo = h - kh + 1, width - kw + 1
    if cols.shape[-2:] != (c * kh * kw, n * ho * wo):
        raise ConfigError(f"lowered batch of shape {cols.shape} for conv input {x.shape}")
    out = np.matmul(_blas_ready(w.reshape(*stack, f, -1)), _blas_ready(cols))
    out = out.reshape(*stack, f, n, ho, wo)
    out += b[..., None, None, None]
    return out.swapaxes(-4, -3)


def block_max(x: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    """Maximum of each k*k block over the last two axes, shape
    (..., ceil(h/k), ceil(w/k)), written into ``out`` when given.  Cell
    (a, b) of every block is the strided view ``x[..., a::k, b::k]``; on
    ragged edges it covers fewer blocks."""
    return _block_max(x, k, out)


def _block_max(x: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    if out is None:
        out = x[..., ::k, ::k].copy()
    else:
        out[...] = x[..., ::k, ::k]
    for a in range(min(k, x.shape[-2])):  # past the input, a cell is empty
        for b in range(min(k, x.shape[-1])):
            if a or b:
                cell = x[..., a::k, b::k]
                part = out[..., : cell.shape[-2], : cell.shape[-1]]
                np.maximum(part, cell, out=part)
    return out


def block_keep(x: np.ndarray, best: np.ndarray, k: int) -> np.ndarray:
    """Bool mask shaped like ``x`` marking each k*k block's kept entry: its
    first cell in row-major order that equals ``best`` (the block's
    ``block_max``) or is NaN.  A block holding a NaN has a NaN maximum, so
    the NaN tests run only when some block's maximum is NaN."""
    return _block_keep(x, best, k)


def _block_keep(x: np.ndarray, best: np.ndarray, k: int) -> np.ndarray:
    keep = np.empty(x.shape, dtype=bool)
    hits = np.empty(best.size, dtype=bool)  # one cell's, kept contiguous
    open_blocks = np.empty(best.shape, dtype=bool)
    nans = np.isnan(best).any()
    for a in range(min(k, x.shape[-2])):  # past the input, a cell is empty
        for b in range(min(k, x.shape[-1])):
            win = x[..., a::k, b::k]
            ha, wb = win.shape[-2:]
            hit = hits[: win.size].reshape(win.shape)
            np.equal(win, best[..., :ha, :wb], out=hit)
            if nans:
                hit |= np.isnan(win)
            if a or b:
                still = open_blocks[..., :ha, :wb]
                hit &= still
                np.not_equal(still, hit, out=still)
            else:
                np.logical_not(hit, out=open_blocks)
            keep[..., a::k, b::k] = hit
    return keep


def forward(model: ModelParams, x: np.ndarray, cols: np.ndarray | None = None) -> ForwardTrace:
    """Run the batch through every layer, recording inputs along the way.

    ``model`` may also be a client stack (``local_train``'s), whose (m, ...)
    layers take an (m, batch, ...) input: client c sees only its own batch
    and weights.  ``cols`` is x already ``lower``ed for the model's conv,
    which is then not lowered again; the conv is the first layer, so its
    columns depend on the batch alone."""
    return _forward(model, x, cols)


def _forward(model: ModelParams, x: np.ndarray, cols: np.ndarray | None = None) -> ForwardTrace:
    act = np.asarray(x, dtype=np.float64)
    inputs: list[np.ndarray] = []
    logits = None
    for layer in model.layers:
        inputs.append(act)
        if layer.kind == "dense":
            w = layer.weight
            flat = act.reshape(act.shape[: w.ndim - 1] + (-1,))
            if flat.shape[-1] != w.shape[-1]:
                raise ConfigError(f"dense layer expects {w.shape[-1]} inputs, got {flat.shape[-1]}")
            act = flat @ w.swapaxes(-1, -2) + layer.bias[..., None, :]
        elif layer.kind == "conv":
            cols = _lower(act, layer.weight) if cols is None else cols
            act = _conv_forward(act, layer.weight, layer.bias, cols)
        elif layer.kind == "maxpool":
            k = layer.pool
            ho, wo = act.shape[-2] // k, act.shape[-1] // k
            if ho < 1 or wo < 1:
                raise ConfigError(
                    f"maxpool kernel {k} larger than input {act.shape[-2]}x{act.shape[-1]}"
                )
            act = _block_max(act[..., : ho * k, : wo * k], k)
        elif layer.kind == "relu":
            act = np.maximum(act, 0.0)
        elif layer.kind == "softmax":
            logits = act
            shifted = act - act.max(axis=-1, keepdims=True)
            e = np.exp(shifted)
            act = e / e.sum(axis=-1, keepdims=True)
    return ForwardTrace(inputs=inputs, logits=logits, probs=act, cols=cols)


def _backprop(
    model: ModelParams, trace: ForwardTrace, dlogits: np.ndarray, out: np.ndarray | None = None
) -> list[tuple[np.ndarray | None, np.ndarray | None]]:
    """Push dlogits back through the graph and return the per-layer
    parameter gradients, views of one flat buffer shaped like
    ``model.theta``: ``out`` when given, else a new one.  Parameter-free
    layers hold (None, None).  The first layer's input gradient is never
    formed, so a conv, always the first layer, forms only its weight and
    bias gradients.
    """
    out = np.empty_like(model.theta) if out is None else out
    grads = [(v.weight, v.bias) for v in _views(model.layers, out, model.theta.ndim - 1)]
    d = dlogits  # already the gradient at the softmax layer's input
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        x = trace.inputs[i]
        gw, gb = grads[i]
        if layer.kind == "dense":
            w = layer.weight
            np.matmul(d.swapaxes(-1, -2), x.reshape(x.shape[: w.ndim - 1] + (-1,)), out=gw)
            d.sum(axis=-2, out=gb)
            if i > 0:
                d = (d @ w).reshape(x.shape)
        elif layer.kind == "conv":
            # d (..., f, n*ho*wo) times the transposed columns.  Lowering x
            # again with the batch and channel axes swapped, ho x wo windows,
            # gives those columns as a copy exactly when the forward's were
            # one, else as this same view of x: each operand keeps the
            # layout that lowering handed BLAS, and so the bits.
            cols_t = trace.cols.swapaxes(-1, -2)
            if not np.may_share_memory(trace.cols, x):
                cols_t = np.ascontiguousarray(cols_t)
            dm = d.swapaxes(-4, -3).reshape(*d.shape[:-4], d.shape[-3], -1)
            gw[...] = np.matmul(_blas_ready(dm), _blas_ready(cols_t)).reshape(gw.shape)
            d.sum(axis=(-4, -2, -1), out=gb)
        elif i == 0:
            pass  # no gradient at the model input
        elif layer.kind == "relu":
            d = d * (x > 0.0)
        elif layer.kind == "maxpool":
            d = _unpool(d, x, trace.inputs[i + 1], layer.pool)
    return grads


def _unpool(d: np.ndarray, x: np.ndarray, pooled: np.ndarray, k: int) -> np.ndarray:
    """The gradient at the input x of a maxpool whose output ``pooled``
    has gradient d: each block's d at its kept cell, with its bits, and
    +0.0 elsewhere, the cropped trailing cells included."""
    crop = (..., slice(pooled.shape[-2] * k), slice(pooled.shape[-1] * k))
    # d to all k*k cells of its block; the mask's product keeps the routed one
    dx = np.zeros_like(x)
    dx_cropped = dx[crop]
    for a in range(k):
        for b in range(k):
            dx_cropped[..., a::k, b::k] = d
    bits = dx_cropped.view(np.int64)
    np.multiply(bits, _block_keep(x[crop], pooled, k), out=bits)
    return dx


def _onehot(trace: ForwardTrace, labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    probs = trace.probs
    if labels.shape != probs.shape[:-1]:
        raise ConfigError(f"labels of shape {labels.shape} for a batch of {probs.shape[:-1]}")
    onehot = np.zeros(probs.shape)
    np.put_along_axis(onehot, labels[..., None], 1.0, axis=-1)
    return onehot


def backward(
    model: ModelParams, trace: ForwardTrace, labels: np.ndarray, out: np.ndarray | None = None
) -> GradientSet:
    """Mean cross-entropy gradients for the traced batch, as views of one
    flat buffer shaped like ``model.theta`` (``out`` when given)."""
    return GradientSet(_backward(model, trace, labels, out))


def _backward(
    model: ModelParams, trace: ForwardTrace, labels: np.ndarray, out: np.ndarray | None = None
) -> list[tuple[np.ndarray | None, np.ndarray | None]]:
    onehot = _onehot(trace, labels)
    dlogits = (trace.probs - onehot) / onehot.shape[-2]
    return _backprop(model, trace, dlogits, out)


def activation_weights(model: ModelParams, trace: ForwardTrace, labels: np.ndarray) -> np.ndarray:
    """Per-filter Grad-CAM weight, the spatial mean of d y / d A over the
    conv output A (see the module docstring), for ``conv_model``'s layout
    conv -> relu -> maxpool -> dense -> softmax.

    The gradient G at the pooled output is the one-hot labels times the
    dense weight, the product the backward makes at the dense layer.  Each
    pooled cell's gradient reaches exactly one conv position, and the relu
    passes it there iff the pooled value is > 0, so the sum over positions
    is that of G * [pooled > 0] and no routing pass is needed.  The mask is
    a product, as in the relu backward, so a NaN in G still propagates.
    The mean divides by the conv output's full H*W, cropped trailing cells
    included."""
    if [layer.kind for layer in model.layers] != ["conv", "relu", "maxpool", "dense", "softmax"]:
        raise ConfigError("activation weights need conv -> relu -> maxpool -> dense -> softmax")
    pooled = trace.inputs[3]
    g = (_onehot(trace, labels) @ model.layers[3].weight).reshape(pooled.shape)
    h, w = trace.inputs[1].shape[-2:]
    return (g * (pooled > 0.0)).sum(axis=(0, 2, 3)) / (h * w)


def _loss_value(trace: ForwardTrace, labels: np.ndarray) -> float:
    """Mean cross-entropy of a traced batch (probabilities floored at 1e-300)."""
    labels = np.asarray(labels)
    picked = trace.probs[np.arange(trace.probs.shape[0]), labels]
    return float(-np.mean(np.log(np.maximum(picked, 1e-300))))


def predict(model: ModelParams, features: np.ndarray) -> np.ndarray:
    """Each sample's argmax class; a model gone non-finite predicts without
    a numpy warning (the run reports it as diverged)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.argmax(forward(model, features).logits, axis=1)


# ---------------------------------------------------------------------------
# training and parameter updates


def apply_update(model: ModelParams, update: np.ndarray) -> ModelParams:
    """A new model at ``model.theta - update``; ``model`` is left as is."""
    if np.shape(update) != model.theta.shape:
        raise ConfigError(
            f"update has shape {np.shape(update)}, model has {model.theta.size} parameters"
        )
    return ModelParams(model.layers, model.theta - update)


def local_train(
    model: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    epochs: int,
    batch_size: int,
    lr: float,
    seed: int | np.random.Generator | list,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Plain SGD for one client or a stack of clients; returns
    theta_before - theta_after, flat.

    One client: ``features`` (n, ...), ``labels`` (n,) and one ``seed``
    give a (P,) row.  A stack of m clients with n samples each:
    ``features`` (m, n, ...), ``labels`` (m, n) and a list of m seeds give
    an (m, P) matrix, written into ``out`` when given.  Each client draws
    its batch order from its own seed, so its row has the bits of a
    one-client call.  The stack's weights are views of the rows being
    trained and its gradients views of one (m, P) buffer, so each step
    moves the rows in place.  Steps that overflow (a huge learning rate)
    train on without a numpy warning; the run reports the model diverged.
    """
    return _local_train(model, features, labels, epochs, batch_size, lr, seed, out, forward, backward)


def _local_train(
    model: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    epochs: int,
    batch_size: int,
    lr: float,
    seed: int | np.random.Generator | list,
    out: np.ndarray | None = None,
    forward_step=_forward,
    gradient_step=_backward,
) -> np.ndarray:
    """``local_train``'s SGD with its forward and gradient steps as
    arguments: ``local_train`` passes the public ``forward`` and
    ``backward``, and the runtime worker keeps the private kernels."""
    stacked = isinstance(seed, list)
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if not stacked:
        features, labels, seed = features[None], labels[None], [seed]
    if labels.ndim != 2 or len(seed) != len(labels) or features.shape[:2] != labels.shape:
        raise ConfigError(
            f"{len(seed)} seeds and features {features.shape} for labels {labels.shape}"
        )
    m, n = labels.shape
    if n == 0:
        raise ConfigError("cannot train on an empty shard")
    if epochs < 1 or batch_size < 1 or lr <= 0:
        raise ConfigError("epochs and batch_size must be >= 1 and lr positive")
    shape = (m, model.theta.size)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise ConfigError(f"out has shape {out.shape}, the stack needs {shape}")
    rngs = [_rng(s) for s in seed]
    out[...] = model.theta
    grad = np.empty(shape)
    work = ModelParams(model.layers, out)
    rows = np.arange(m)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            order = np.stack([rng.permutation(n) for rng in rngs])
            for start in range(0, n, batch_size):
                batch = order[:, start : start + batch_size]
                trace = forward_step(work, features[rows, batch])
                gradient_step(work, trace, labels[rows, batch], out=grad)
                grad *= lr
                out -= grad
        np.subtract(model.theta, out, out=out)
    return out if stacked else out[0]


def _trace_floats(model: ModelParams, shape: tuple[int, ...]) -> int:
    """Floats one sample of ``shape`` leaves in a forward trace: every
    layer's input, and the output."""
    total = 0
    for layer in model.layers:
        total += math.prod(shape)
        if layer.kind == "dense":
            shape = layer.weight.shape[:1]
        elif layer.kind == "conv":
            filters, _, kh, kw = layer.weight.shape
            shape = (filters, shape[-2] - kh + 1, shape[-1] - kw + 1)
        elif layer.kind == "maxpool":
            shape = (*shape[:-2], shape[-2] // layer.pool, shape[-1] // layer.pool)
    return total + math.prod(shape)


@dataclass(frozen=True)
class LocalTraining:
    """A run's one client-training recipe, with one method: ``train_all``
    runs ``local_train`` for each client on the stream
    ``rng_stream(seed, round_idx, client)``, built for all of the call's
    clients by one ``round_streams(seed, round_idx, clients)``.  Honest
    clients, the data-poisoning attackers and the fltrust server reference
    train through it in one call per round, so a poisoned update differs
    from the honest one only in its data.
    """

    epochs: int
    batch_size: int
    lr: float
    seed: int

    def train_all(
        self,
        model: ModelParams,
        shards: list[Dataset],
        round_idx: int,
        out: np.ndarray,
        clients: list[int] | None = None,
    ) -> None:
        """Shard j trains into row j of ``out`` on the stream of client
        ``clients[j]`` (default j); rows past the last shard are left as
        they are.  The call's streams come from one ``round_streams`` pass,
        and each stack takes its clients' slice.

        Clients with equal shard sizes train together, in stacks of at
        least one client and at most ``STACK_FLOATS`` floats.  A client
        takes its P parameters plus the forward trace of one batch: on a
        conv model the trace, not the parameters, is most of what a step
        holds, and stacking it raised peak RSS and page faults.

        ``runtime.split`` may train the upper half of the stacks on its
        worker (the contract is in the ``runtime`` docstring), through
        ``_local_train`` with the private kernels; each client draws from
        its own stream and writes only its own rows, so every bit is that
        of a serial call.  The calling thread trains the lower half through
        ``local_train``, looked up when called, so a rebound
        ``nn.local_train`` (a profiler's hook) sees that half's updates,
        each call's first stack included."""
        clients = range(len(shards)) if clients is None else clients
        streams = round_streams(self.seed, round_idx, clients)
        groups: dict[int, list[int]] = {}
        for j, shard in enumerate(shards):
            groups.setdefault(len(shard), []).append(j)
        stacks = []
        for n, members in groups.items():
            trace = min(self.batch_size, n) * _trace_floats(model, shards[members[0]].feature_shape)
            per_stack = max(1, STACK_FLOATS // (model.theta.size + trace))
            stacks += [members[s : s + per_stack] for s in range(0, len(members), per_stack)]

        def train(lo: int, hi: int) -> None:
            """Stacks lo .. hi - 1 into their rows of ``out``; the calling
            thread's half is the one from 0."""
            step = local_train if lo == 0 else _local_train
            for part in stacks[lo:hi]:
                args = (
                    model,
                    np.stack([shards[j].features for j in part]),
                    np.stack([shards[j].labels for j in part]),
                    self.epochs,
                    self.batch_size,
                    self.lr,
                    [streams[j] for j in part],
                )
                rows = out[part[0] : part[-1] + 1]
                if len(rows) == len(part):  # consecutive shards train in their rows
                    step(*args, out=rows)
                else:
                    out[part] = step(*args)

        runtime.split(len(stacks), train, model.theta.size)
