"""Minimal dense/convolutional network engine with manual backpropagation.

Everything runs in float64 on plain numpy arrays.  A model is an ordered
list of layers drawn from five kinds:

    dense    z = x @ W.T + b           W: (out, in), b: (out,)
    conv     valid 2-D convolution     W: (filters, in_ch, kh, kw), b: (filters,)
    maxpool  non-overlapping max, stride == kernel, trailing cells dropped
    relu     elementwise max(x, 0)
    softmax  final probability layer (must be last, appears exactly once)

A conv layer may only be the first layer, so a model carries at most one,
and a maxpool exists only as its pool: a conv must reach exactly one
maxpool through relus alone, and a model has no other.  The conv's
output feature maps back the class-activation weighting used by the
feature-map amplifier.  The loss is mean softmax cross-entropy.

Kernels:
  * One lowering per conv batch, im2col (Chellapilla, Puri & Simard,
    2006).  ``_lower`` copies a ``sliding_window_view`` of the batch into
    (..., c*kh*kw, columns), over any leading stack axes.  For the conv's
    k-pool the columns are cell-major, (cell offset, sample, pooled row,
    pooled column), with the cropped positions left out, so the conv's
    one ``matmul`` writes each of the pool's k*k cell offsets as a
    contiguous (..., f, n*hp*wp) slab; pool 1 writes one slab.  Permuted
    columns keep each product column's bits.  The conv is the first layer,
    so a forward takes the columns ready-made (a validation ``Dataset``'s
    ``cols``, lowered once per run by ``lower``) or lowers the batch
    itself, and keeps none in the trace.  The backward lowers the input
    again in sample order (k = 1): the weight gradient is
    d (..., f, n*ho*wo) times those columns transposed, the operands and
    bits of a sample-order forward.  It forms no gradient at the model
    input, so a conv never needs its input gradient.
  * Two forwards.  ``_forward`` (``forward``) records every layer's input
    for the backward.  ``_infer`` returns only the logits and probs, with
    their bits, and serves every forward that reads nothing else: the
    fang probes and ``predict``.  It pools the conv's maps at the conv,
    so the relus between conv and pool run on the pooled maps: relu and
    max commute bit for bit (``np.maximum`` returns its second operand,
    +0.0, on ties of +-0.0, and a NaN block keeps its first NaN either
    way), so the relu work shrinks by the pool's k*k.
  * The relu maxes against an array of +0.0: numpy 2.4 takes a scalar
    0.0 through a slower loop (32 against 14 us on 80k floats), with the
    same bits.
  * Client stacks.  ``forward`` and ``backward`` also run m models at once,
    a ``ModelParams`` whose (m, ...) weights view the rows of one (m, P)
    matrix, or one theta broadcast to m rows: dense and conv are stacked
    ``matmul``s, which take a broadcast's stride-0 stack axis through BLAS
    (``_blas_ready`` copies only a broadcast conv weight), and relu,
    maxpool and softmax work over the leading axes.  Each client's numbers
    are the bits of its own one-model run.
  * The maxpool and the patch-max amplifier keep one running maximum:
    ``_fold_max`` is the running ``np.maximum`` of a block's k*k cells in
    row-major order, so a NaN block reduces to its first NaN;
    ``_first_hits`` marks, cell by cell, the blocks whose kept entry the
    cell holds: the first maximum or the first NaN (``argmax``'s rule,
    which decides the all-zero blocks after a relu).  The maxpool
    (``_pool``) reduces the conv output's cell axis in one
    ``np.maximum.reduce``, the fold's maximum bit for bit, and hands on
    the C-contiguous (..., n, f, hp, wp) pooled maps: on the benchmark's
    conv model (8 filters, 10x10 maps, 100 samples) the pool and its
    transposing copy took 53-56 us folded slab by slab and 31-33 us as
    one reduction (2-vCPU VM).  The patch max (``block_max``,
    ``block_keep``) folds the strided cells
    ``x[..., a::k, b::k]``; on its ceil grid the edge blocks are ragged
    and reduced as-is.  Callers select by a mask's bits: the values'
    int64 view times the bool mask, one ``np.multiply`` into an int64 view
    of the destination, keeps the kept entries' bits (x * 1), NaN
    payloads, infinities and -0.0 included, and writes +0.0 elsewhere
    (x * 0); the mask is cast in the ufunc's buffer, never as a whole
    int64 array.  The maxpool backward routes each block's gradient to its
    kept cell this way, cell by cell, straight into the cell's strided
    slice of the conv's sample-order maps, the cropped positions +0.0.
    The relus between conv and pool act there too, as one mask
    pooled > 0 on the pooled gradient: at a block's kept cell each relu's
    mask x > 0 equals it, and the cells that get +0.0 keep it under any
    0/1 mask.

Conventions:
  * ``forward`` records each layer's input so ``backward`` can replay the
    graph without autodiff; the relus before the conv's pool record their
    full maps, which the backward's routing reads.
  * A model's weights and biases are views into its one flat ``theta``.
    A client "update" is ``theta_before - theta_after`` as one flat float64
    row in ``ModelParams.theta`` order (``ModelParams(model.layers, row)``
    views a row as per-layer arrays); a round's updates are the rows of one
    (N, P) matrix.  The server applies an update as ``theta - update``
    (``apply_update``), so a client's own update lands exactly on its
    trained weights.  ``mean_grads`` averages rows by an ascending left
    fold; the fang probes in ``aggregate`` sum the same fold from a
    running prefix instead of calling it.
  * ``forward``, ``backward``, ``lower``, ``local_train``, ``block_max``
    and ``block_keep`` are one-line wrappers over the kernels
    ``_forward``, ``_backward``, ``_lower``, ``_local_train``,
    ``_block_max`` and ``_block_keep``, which call no public name
    (``_local_train`` calls the forward and gradient steps it is handed).
    The benchmark traces the public names from one thread, so the jobs
    ``runtime.split`` may hand the worker (see the ``runtime`` docstring)
    call the kernels.  ``_infer`` and ``_loss_value``, whose callers are
    ``predict`` and the probes, have no public name.
  * ``local_train`` is plain SGD, for one client from one seed or for a
    stack of clients with equal shard sizes, one seed each.  Every client
    of a stack starts from the model's theta, so the first step's forward
    and backward read one read-only ``np.broadcast_to`` of it, and the
    step's gradient goes straight into the rows being trained; a gradient
    buffer is allocated only when a second step follows.  The benchmark's
    recipes take one step per client per round.
    ``LocalTraining`` is a run's recipe around it (epochs, batch size,
    learning rate, client seed).  Its one method, ``train_all``, trains
    shard j into row j on the stream ``rng_stream(seed, round, client)``,
    built for the whole call in one ``round_streams`` pass.  It is the one
    training path: a round's honest rows, the cohort's rows on its
    poisoned shards and the fltrust reference come from one call.  It
    trains its shards in stacks of equal shard size, cut by ``_stacks``
    as the patch max cuts its panels: at most ``STACK_FLOATS`` floats of
    parameters and batch traces, or, on rows long enough to split, an
    even count of stacks of at most ``SPLIT_STACK`` clients.  It hands
    them to ``runtime.split``: a worker half trains through
    ``_local_train``, the calling thread's through ``local_train``.
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
    pass and no maxpool routing.  It runs the batch only up to the conv's
    pooled maps, whose mask pooled > 0 the relu leaves as it is, so no
    relu, dense layer or softmax runs for it.
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

# Most floats in one client stack of rows shorter than runtime.SPLIT_FLOATS
# (a stack holds at least one client), so it stays in cache across its
# passes: the patch max stacks panels of the update rows, and local
# training stacks models with their batch traces.
# On a core with 2 MiB of L2, stacking all 50 clients of a 105k-parameter
# model made the compact patch max 3-4x slower.  On the 683-parameter conv
# model a client takes 59,183 floats (a 30-sample batch's trace), so this
# cap trains its clients two to a stack.  tracemalloc peaks of one
# train_all call of the benchmark's conv run, whose round peaks there: its
# aggregate_round, the fang screen on the xai view, peaks at 1,015 KiB,
# and peaked at 3,047 KiB while its forwards kept traces:
#     clients a stack     1      2      3      4
#     train_all KiB     1,755  2,335  3,489  4,643
# Two stay under the traced screen's peak; three or four would pass it.
STACK_FLOATS = 1 << 17

# Most clients in one stack of rows of at least runtime.SPLIT_FLOATS
# floats, which split across two threads.  A numpy call of 15-20 us does
# not overlap with the other thread's, so each half needs stacks of
# several clients, but too many fall out of cache.  The restored patch
# max of a 784 -> 128 -> 3 MLP's rows (2-vCPU VM) took, at N = 10: 7.2-8.5
# ms serial; split, 7.3-7.4 ms in one-client stacks, 5.4-6.5 in 2-client,
# 4.7-5.4 in 3-client and 4.0-4.8 in 5-client stacks.  At N = 50: 43-49
# ms serial; split, 40-47 ms in one-client stacks, 25-28 in 5-client and
# 29-30 in one 25-client stack a half.
SPLIT_STACK = 5


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
        chain = False  # inside the conv -> relu ... run, which must end at the conv's pool
        for i, layer in enumerate(layers):
            kind = layer.kind
            if kind not in LAYER_KINDS:
                raise ConfigError(f"unknown layer kind {kind!r}")
            if kind == "conv" and i > 0:
                raise ConfigError(f"a conv layer must be the first layer, got one at layer {i}")
            if kind == "maxpool":
                if not chain:
                    raise ConfigError(f"a maxpool must follow the conv through relus alone, got one at layer {i}")
                if layer.pool < 1:
                    raise ConfigError(f"maxpool kernel must be >= 1, got {layer.pool}")
            elif chain and kind != "relu":
                raise ConfigError(f"the conv must reach a maxpool through relus alone, got {kind} at layer {i}")
            chain = kind == "conv" or chain and kind == "relu"
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
    layer i's output; ``logits`` are the pre-softmax scores.  The conv's
    output, and the relus' between it and its pool, are cell-major (see
    ``forward``).
    """

    inputs: list[np.ndarray]
    logits: np.ndarray
    probs: np.ndarray


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


def _pool_after_conv(layers: list[Layer]) -> int:
    """The kernel k of the model's maxpool, 1 without one.  ``ModelParams``
    admits a maxpool only as the one the first-layer conv reaches through
    relus alone, and a conv only with one, so the conv lowers its batch in
    that pool's cell-major order (see ``_lower``)."""
    for layer in layers:
        if layer.kind == "maxpool":
            return layer.pool
    return 1


def lower(model: ModelParams, x: np.ndarray) -> np.ndarray:
    """The im2col columns of the batch x (..., n, c, h, w) for ``model``'s
    conv, in the order its ``forward`` multiplies them: ready-made
    ``cols`` for ``forward``."""
    if model.layers[0].kind != "conv":
        raise ConfigError(f"only a conv model lowers its batch, got a {model.layers[0].kind} first layer")
    return _lower(x, model.layers[0].weight, _pool_after_conv(model.layers))


def _lower(x: np.ndarray, w: np.ndarray, k: int = 1) -> np.ndarray:
    """The columns (..., c*kh*kw, k*k*n*hp*wp) of x (..., n, c, h, w) for a
    valid correlation with a kernel shaped like w (..., f, c, kh, kw),
    (hp, wp) = (ho // k, wo // k): column (a, b, s, i, j) holds sample s's
    c x kh x kw window at (i*k + a, j*k + b), so each of a k-pool's cell
    offsets (a, b) is a run of n*hp*wp columns.  k = 1 is sample order
    (s, i, j) over the whole output, which the backward's columns keep.
    One copy of a ``sliding_window_view``, or a view of x where the
    reshape needs no copy, as for a 1x1 kernel on a batch of one with
    k = 1."""
    x = np.asarray(x, dtype=np.float64)
    *stack, n, c, h, width = x.shape
    kh, kw = w.shape[-2:]
    if h < kh or width < kw:
        raise ConfigError(f"conv input {h}x{width} smaller than kernel {kh}x{kw}")
    hp, wp = (h - kh + 1) // k, (width - kw + 1) // k
    win = sliding_window_view(x, (kh, kw), axis=(-2, -1))[..., : hp * k, : wp * k, :, :]
    # (..., n, c, hp, a, wp, b, kh, kw) -> (..., c, kh, kw, a, b, n, hp, wp)
    win = win.reshape(*stack, n, c, hp, k, wp, k, kh, kw)
    win = np.moveaxis(win, (-7, -2, -1, -5, -3), (-8, -7, -6, -5, -4))
    return win.reshape(*stack, c * kh * kw, k * k * n * hp * wp)


def _conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, cols: np.ndarray | None, k: int) -> np.ndarray:
    """Valid correlation of x (..., n, c, h, w) with w (..., f, c, kh, kw),
    plus b (..., f), one ``matmul`` per model over ``cols``, x's ``_lower``
    for the conv's k-pool (lowered here, and freed on return, when None):
    the cell-major (..., f, k*k, n, hp, wp)."""
    if cols is None:
        cols = _lower(x, w, k)
    *stack, n, c, h, width = x.shape
    f, _, kh, kw = w.shape[-4:]
    hp, wp = (h - kh + 1) // k, (width - kw + 1) // k
    if hp < 1 or wp < 1:
        raise ConfigError(f"maxpool kernel {k} larger than input {h - kh + 1}x{width - kw + 1}")
    if cols.shape[-2:] != (c * kh * kw, k * k * n * hp * wp):
        raise ConfigError(f"lowered batch of shape {cols.shape} for conv input {x.shape}")
    out = np.matmul(_blas_ready(w.reshape(*stack, f, -1)), _blas_ready(cols))
    out = out.reshape(*stack, f, k * k, n, hp, wp)
    out += b[..., None, None, None, None]
    return out


def _slabs(x: np.ndarray) -> list[np.ndarray]:
    """The k*k cell slabs (..., f, n, hp, wp) of a cell-major conv output
    (..., f, k*k, n, hp, wp), in cell order."""
    return [x[..., c, :, :, :] for c in range(x.shape[-4])]


def _cell_views(x: np.ndarray, k: int) -> list[np.ndarray]:
    """The strided views ``x[..., a::k, b::k]`` of the k*k cells of x's
    blocks over the last two axes, in row-major cell order.  On ragged
    edges a cell covers fewer blocks; past the input it is empty and left
    out."""
    return [x[..., a::k, b::k] for a in range(min(k, x.shape[-2])) for b in range(min(k, x.shape[-1]))]


def _fold_max(cells: list[np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
    """The running ``np.maximum`` of the cells in order, written into
    ``out`` when given, else into a copy of the first cell.  A smaller
    (ragged) cell folds into out's leading corner.  It serves the patch
    max and ``_pool``'s one-entry slabs."""
    if out is None:
        out = cells[0].copy()
    else:
        out[...] = cells[0]
    for cell in cells[1:]:
        part = out[..., : cell.shape[-2], : cell.shape[-1]]
        np.maximum(part, cell, out=part)
    return out


def _pool(x: np.ndarray) -> np.ndarray:
    """The maxpool of a cell-major conv output (..., f, k*k, n, hp, wp):
    the pooled slabs (..., f, n, hp, wp), with the bits of ``_fold_max``
    over the slabs.  One ``np.maximum.reduce`` over the cell axis runs the
    same running maximum, one slab-long loop a cell.  A one-entry slab
    (n*hp*wp = 1) would leave the cell axis as the inner loop, which numpy
    reduces in a SIMD order that keeps other bits on ties of +-0.0 and on
    NaNs, so it folds."""
    if math.prod(x.shape[-3:]) == 1:
        return _fold_max(_slabs(x))
    return np.maximum.reduce(x, axis=-4)


def _pooled(x: np.ndarray) -> np.ndarray:
    """The pooled maps (..., n, f, hp, wp), C-contiguous, of a cell-major
    conv output."""
    return np.ascontiguousarray(_pool(x).swapaxes(-4, -3))


def _first_hits(cells: list[np.ndarray], best: np.ndarray):
    """For each cell in order, a bool array shaped like it marking the
    blocks whose kept entry it holds: the first cell that equals ``best``
    (the blocks' ``_fold_max``) or is NaN.  A block holding a NaN has a NaN
    maximum, so the NaN tests run only when some block's maximum is NaN.
    Every hit is a view of one reused buffer: use it before the next."""
    hits = np.empty(best.size, dtype=bool)  # one cell's, kept contiguous
    open_blocks = np.empty(best.shape, dtype=bool)
    nans = np.isnan(best).any()
    for i, cell in enumerate(cells):
        ha, wb = cell.shape[-2:]
        hit = hits[: cell.size].reshape(cell.shape)
        np.equal(cell, best[..., :ha, :wb], out=hit)
        if nans:
            hit |= np.isnan(cell)
        if i:
            still = open_blocks[..., :ha, :wb]
            hit &= still
            np.not_equal(still, hit, out=still)
        else:
            np.logical_not(hit, out=open_blocks)
        yield hit


def _block_max(x: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    return _fold_max(_cell_views(x, k), out)


def _block_keep(x: np.ndarray, best: np.ndarray, k: int) -> np.ndarray:
    keep = np.empty(x.shape, dtype=bool)
    for dest, hit in zip(_cell_views(keep, k), _first_hits(_cell_views(x, k), best)):
        dest[...] = hit
    return keep


def block_max(x: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    """Maximum of each k*k block over the last two axes, shape
    (..., ceil(h/k), ceil(w/k)), written into ``out`` when given: the fold
    of x's strided cells."""
    return _block_max(x, k, out)


def block_keep(x: np.ndarray, best: np.ndarray, k: int) -> np.ndarray:
    """Bool mask shaped like ``x`` marking each k*k block's kept entry: its
    first cell in row-major order that equals ``best`` (the block's
    ``block_max``) or is NaN."""
    return _block_keep(x, best, k)


def forward(model: ModelParams, x: np.ndarray, cols: np.ndarray | None = None) -> ForwardTrace:
    """Run the batch through every layer, recording inputs along the way.

    ``model`` may also be a client stack (``local_train``'s), whose (m, ...)
    layers take an (m, batch, ...) input: client c sees only its own batch
    and weights.  ``cols`` is ``lower(model, x)``, which is then not
    lowered again; the conv is the first layer, so its columns depend on
    the batch alone.  The conv records its output cell-major,
    (..., f, k*k, n, hp, wp), as do the relus before its pool."""
    return _forward(model, x, cols)


def _forward(model: ModelParams, x: np.ndarray, cols: np.ndarray | None = None) -> ForwardTrace:
    inputs: list[np.ndarray] = []
    logits, probs = _run(model, x, cols, inputs)
    return ForwardTrace(inputs=inputs, logits=logits, probs=probs)


def _infer(
    model: ModelParams, x: np.ndarray, cols: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The logits and probs of ``_forward``, bit for bit, with no trace:
    the conv pools its maps at once, so the relus between it and its pool
    run on the pooled maps (relu and max commute bit for bit)."""
    return _run(model, x, cols, None)


def _run(
    model: ModelParams, x: np.ndarray, cols: np.ndarray | None, inputs: list | None
) -> tuple[np.ndarray, np.ndarray]:
    """The layers over x, each layer's input appended to ``inputs`` when it
    is a list; without one the conv's maps are pooled at the conv."""
    act = np.asarray(x, dtype=np.float64)
    pool = _pool_after_conv(model.layers)
    logits = None
    for layer in model.layers:
        if inputs is not None:
            inputs.append(act)
        if layer.kind == "dense":
            w = layer.weight
            flat = act.reshape(act.shape[: w.ndim - 1] + (-1,))
            if flat.shape[-1] != w.shape[-1]:
                raise ConfigError(f"dense layer expects {w.shape[-1]} inputs, got {flat.shape[-1]}")
            act = flat @ w.swapaxes(-1, -2) + layer.bias[..., None, :]
        elif layer.kind == "conv":
            act = _conv_forward(act, layer.weight, layer.bias, cols, pool)
            if inputs is None:
                act = _pooled(act)
        elif layer.kind == "maxpool" and inputs is not None:
            act = _pooled(act)
        elif layer.kind == "relu":  # an array operand: the fast loop, the same bits
            zero = np.zeros(act.shape)
            act = np.maximum(act, zero, out=zero)
        elif layer.kind == "softmax":
            logits = act
            shifted = act - act.max(axis=-1, keepdims=True)
            e = np.exp(shifted)
            act = e / e.sum(axis=-1, keepdims=True)
    return logits, act


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
    routed = False  # below the maxpool, d is at the conv's maps
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
            # d (..., f, n*ho*wo) times the transposed sample-order columns.
            # Lowering x again gives them as a copy, transposed into a C copy,
            # or for a 1x1 kernel on a batch of one as a view of x, which BLAS
            # takes transposed: the layouts, and so the bits, of the product.
            cols = _lower(x, layer.weight)
            cols_t = cols.swapaxes(-1, -2)
            if not np.may_share_memory(cols, x):
                cols_t = np.ascontiguousarray(cols_t)
            dm = d.swapaxes(-4, -3).reshape(*d.shape[:-4], d.shape[-3], -1)
            gw[...] = np.matmul(_blas_ready(dm), _blas_ready(cols_t)).reshape(gw.shape)
            d.sum(axis=(-4, -2, -1), out=gb)
        elif i == 0:
            pass  # no gradient at the model input
        elif layer.kind == "relu" and not routed:
            d = d * (x > 0.0)
        elif layer.kind == "maxpool":
            # d and the pooled maps in the slabs' (..., f, n, hp, wp) order,
            # where the routing runs faster.  The chain's relus pass d where
            # the pooled value is > 0: a block's gradient reaches only its
            # kept cell, where each relu's mask x > 0 equals pooled > 0, and
            # every other cell gets +0.0, which a 0/1 mask leaves +0.0.  Each
            # cell then routes straight into its strided slice of the conv's
            # maps, zeroed first only where the pool crops.
            best = np.ascontiguousarray(trace.inputs[i + 1].swapaxes(-4, -3))
            d = np.ascontiguousarray(d.swapaxes(-4, -3))
            if i > 1:
                d *= best > 0.0
            k, (*stack, f, _, n, hp, wp) = layer.pool, x.shape
            kh, kw = model.layers[0].weight.shape[-2:]
            ho, wo = trace.inputs[0].shape[-2] - kh + 1, trace.inputs[0].shape[-1] - kw + 1
            maps = (np.empty if (ho, wo) == (hp * k, wp * k) else np.zeros)((*stack, f, n, ho, wo))
            dests = [maps[..., a : hp * k : k, b : wp * k : k] for a in range(k) for b in range(k)]
            _route(d, _slabs(x), dests, best)
            d = maps.swapaxes(-4, -3)  # (..., n, f, ho, wo), f-major in memory
            routed = True
    return grads


def _route(d: np.ndarray, cells: list[np.ndarray], dests: list[np.ndarray], best: np.ndarray) -> None:
    """Each block's gradient d into the dest of the cell holding its kept
    entry, with its bits, and +0.0 into the other dests: the
    ``_first_hits`` of ``cells`` select, and ``dests`` are the same cells
    of the gradient being formed."""
    bits = d.view(np.int64)
    for dest, hit in zip(dests, _first_hits(cells, best)):
        np.multiply(bits, hit, out=dest.view(np.int64))


def _onehot(labels: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The one-hot rows, shaped like the probs ``shape``, of ``labels``."""
    labels = np.asarray(labels)
    if labels.shape != shape[:-1]:
        raise ConfigError(f"labels of shape {labels.shape} for a batch of {shape[:-1]}")
    onehot = np.zeros(shape)
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
    onehot = _onehot(labels, trace.probs.shape)
    dlogits = (trace.probs - onehot) / onehot.shape[-2]
    return _backprop(model, trace, dlogits, out)


def activation_weights(
    model: ModelParams, x: np.ndarray, labels: np.ndarray, cols: np.ndarray | None = None
) -> np.ndarray:
    """Per-filter Grad-CAM weight, the spatial mean of d y / d A over the
    conv output A (see the module docstring), of ``conv_model``'s layout
    conv -> relu -> maxpool -> dense -> softmax on the batch x, whose
    columns are ``cols`` when given.

    The gradient G at the pooled output is the one-hot labels times the
    dense weight, the product the backward makes at the dense layer.  Each
    pooled cell's gradient reaches exactly one conv position, and the relu
    passes it there iff the pooled value is > 0, so the sum over positions
    is that of G * [pooled > 0] and no routing pass is needed.  The relu
    leaves that mask as it is, so the run stops at the conv's pooled maps:
    no relu, dense layer or softmax runs.  The mask is a product, as in
    the relu backward, so a NaN in G still propagates.  The mean divides
    by the conv output's full H*W, cropped trailing cells included."""
    if [layer.kind for layer in model.layers] != ["conv", "relu", "maxpool", "dense", "softmax"]:
        raise ConfigError("activation weights need conv -> relu -> maxpool -> dense -> softmax")
    conv, dense = model.layers[0], model.layers[3]
    x = np.asarray(x, dtype=np.float64)
    pooled = _pooled(_conv_forward(x, conv.weight, conv.bias, cols, model.layers[2].pool))
    g = (_onehot(labels, pooled.shape[:-3] + dense.weight.shape[:1]) @ dense.weight).reshape(pooled.shape)
    kh, kw = conv.weight.shape[-2:]
    h, w = x.shape[-2] - kh + 1, x.shape[-1] - kw + 1
    return (g * (pooled > 0.0)).sum(axis=(0, 2, 3)) / (h * w)


def _loss_value(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of a batch's probs (floored at 1e-300)."""
    labels = np.asarray(labels)
    picked = probs[np.arange(probs.shape[0]), labels]
    return float(-np.mean(np.log(np.maximum(picked, 1e-300))))


def predict(model: ModelParams, features: np.ndarray) -> np.ndarray:
    """Each sample's argmax class; a model gone non-finite predicts without
    a numpy warning (the run reports it as diverged)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.argmax(_infer(model, features)[0], axis=1)


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
    an (m, P) matrix, written into ``out`` when given, which must not
    share memory with ``model.theta``.  Each client draws its batch order
    from its own seed, so its row has the bits of a one-client call.  The
    first step reads ``model.theta`` itself, broadcast to the stack, and
    writes its gradient g into the rows, which become theta - lr * g with
    the two roundings of theta's copy minus lr * g.  From the second step
    the stack's weights are views of the rows and its gradients views of
    one (m, P) buffer, so each step moves the rows in place.  Steps that
    overflow (a huge learning rate) train on without a numpy warning; the
    run reports the model diverged.
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
    ``backward``, and the runtime worker keeps the private kernels.  The
    first step's work model views a read-only broadcast of theta and its
    gradient buffer is ``out``; a second step builds the work model over
    ``out`` and the one (m, P) gradient buffer the later steps fill."""
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
    elif np.may_share_memory(out, model.theta):
        raise ConfigError("out shares memory with the model's theta, which the first step reads")
    rngs = [_rng(s) for s in seed]
    orders = [np.stack([rng.permutation(n) for rng in rngs]) for _ in range(epochs)]
    batches = [order[:, start : start + batch_size] for order in orders for start in range(0, n, batch_size)]
    # The first step reads one read-only theta for the whole stack and
    # writes its gradient into the rows themselves.
    work = ModelParams(model.layers, np.broadcast_to(model.theta, shape))
    grad = out
    rows = np.arange(m)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        for i, batch in enumerate(batches):
            if i == 1:
                work, grad = ModelParams(model.layers, out), np.empty(shape)
            trace = forward_step(work, features[rows, batch])
            gradient_step(work, trace, labels[rows, batch], out=grad)
            grad *= lr
            if i == 0:  # theta - lr * g, the bits of theta's copy minus lr * g
                np.subtract(model.theta, out, out=out)
            else:
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


def _stacks(n: int, floats: int, size: int) -> list[slice]:
    """Client stacks over clients 0 .. n - 1, as consecutive slices, for
    rows of ``size`` floats of which a stack holds ``floats`` a client.
    Rows of at least ``runtime.SPLIT_FLOATS`` floats make an even number of
    near-equal stacks of at most ``SPLIT_STACK`` clients (one for a lone
    client), so that each half ``runtime.split`` runs gets as many;
    shorter rows make stacks of at most ``STACK_FLOATS`` floats, the last
    one short.  Every stack holds at least one client."""
    if size >= runtime.SPLIT_FLOATS:
        count = min(n, 2 * math.ceil(n / (2 * SPLIT_STACK)))
        return [slice(n * i // count, n * (i + 1) // count) for i in range(count)]
    per = max(1, STACK_FLOATS // floats)
    return [slice(s, min(s + per, n)) for s in range(0, n, per)]


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

        Clients with equal shard sizes train together, in the stacks
        ``_stacks`` cuts.  Below ``runtime.SPLIT_FLOATS`` parameters a
        stack holds at most ``STACK_FLOATS`` floats, where a client takes
        its P parameters plus the forward trace of one batch: on a conv
        model the trace, not the parameters, is most of what a step holds.
        The benchmark conv model's 10 clients train as 5 two-client
        stacks, half the numpy calls of one-client stacks, and set the
        round's peak (the table at ``STACK_FLOATS``).  Past that gate
        each split half trains whole stacks of up to ``SPLIT_STACK``
        clients: on the 100,867-parameter MLP's 10 clients (2-vCPU VM,
        two alternated runs, median of 300 calls) a call took 5.8-6.0 ms
        split in one-client stacks, 5.1-6.5 ms in 2-client stacks and
        4.2-5.1 ms in one 5-client stack a half, against 6.6-8.3, 5.3-8.2
        and 5.5-6.8 ms when each stack copied theta into its rows first.

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
            size = model.theta.size
            stacks += [members[s] for s in _stacks(len(members), size + trace, size)]

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
