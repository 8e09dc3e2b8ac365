"""Gradient amplification: patch max-filtering and class-activation selection.

Both amplifiers map a client's update to a shorter vector that exaggerates
the update's salient structure; aggregators score clients on these vectors
but always apply the untouched originals.  With ``restore_size`` the output
instead keeps the original length, zero everywhere except the surviving
entries, so prediction-based screens can apply it as a model update.

Layer gradients are viewed as 2-D panels for the max filter:

    dense weight   (out, in), as stored
    conv weight    (filters, in_ch * kh * kw)
    bias           (1, len)

The max filter runs on client stacks: each panel is stacked as (m, h, w),
all N clients at once for small panels and cache-sized groups for large
ones, and the compact view is k*k ``np.maximum`` passes over the strided
cell views ``x[:, a::k, b::k]``, with no padding or block copy; edge
blocks are ragged and reduced as-is, and a block holding a NaN reduces to
NaN.  The restored view keeps, per block, the first cell in row-major
order that equals the block maximum, or its first NaN: the rule of
``argmax`` and of the maxpool backward in ``nn``.  Both views write into
one preallocated (N, length) matrix whose rows are the clients'
``values``.

The class-activation route scores each conv filter by the spatial mean of
d y / d A^k (y = batch-summed true-class logit), keeps the top
ceil(top_p * filters) filters, and emits the client's original conv weight
gradients for those filters in rank order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError
from . import nn

AMPLIFIER_KINDS = ("none", "mp", "xai")


@dataclass(frozen=True)
class AmplifierConfig:
    kind: str = "mp"
    kernel: int = 3          # patch side for the max filter
    top_p: float = 0.5       # fraction of conv filters the activation route keeps
    restore_size: bool = False
    include_bias: bool = True

    def validate(self) -> None:
        if self.kind not in AMPLIFIER_KINDS:
            raise ConfigError(f"unknown amplifier kind {self.kind!r}")
        if self.kernel < 1:
            raise ConfigError("amplifier kernel must be >= 1")
        if not 0.0 < self.top_p <= 1.0:
            raise ConfigError("top_p must lie in (0, 1]")


@dataclass
class AmplifiedGradient:
    """Flat amplified view of one client's update.

    ``grids`` records the patch grid per 2-D panel for the max filter;
    ``selected`` records chosen filter indices (rank order) for the
    activation route.  ``restored`` marks full-length zero-filled output.
    """

    values: np.ndarray
    kind: str
    restored: bool
    original_size: int
    grids: tuple[tuple[int, str, int, int], ...] | None = None
    selected: np.ndarray | None = None


# ---------------------------------------------------------------------------
# max filter


# Most floats in one client stack (a stack holds at least one client), so
# it stays in cache across its strided passes.  Small panels still go
# through in one stack; on a core with 2 MiB of L2, stacking all 50 clients
# of a 105k-parameter model made the compact view 3-4x slower.
_STACK_FLOATS = 1 << 16


def _patch_max(x: np.ndarray, kernel: int, out: np.ndarray) -> np.ndarray:
    """Per-block maximum of a (N, h, w) stack, written into ``out`` of shape
    (N, ceil(h/k), ceil(w/k)).  Cell (a, b) of every block is the strided
    view ``x[:, a::k, b::k]``; on ragged edges it covers fewer blocks."""
    k = kernel
    out[...] = x[:, ::k, ::k]
    for a in range(k):
        for b in range(k):
            if a or b:
                cell = x[:, a::k, b::k]
                part = out[:, : cell.shape[1], : cell.shape[2]]
                np.maximum(part, cell, out=part)
    return out


def _keep_block_max(x: np.ndarray, best: np.ndarray, kernel: int) -> None:
    """Zero every entry of the (N, h, w) stack ``x`` in place except, per
    block, its first cell in row-major order that equals ``best`` (the
    block's ``_patch_max``) or is NaN."""
    k = kernel
    open_blocks = np.ones(best.shape, dtype=bool)
    for a in range(k):
        for b in range(k):
            cell = x[:, a::k, b::k]
            ha, wb = cell.shape[1:]
            hit = cell == best[:, :ha, :wb]
            hit |= np.isnan(cell)
            hit &= open_blocks[:, :ha, :wb]
            miss = ~hit
            np.copyto(cell, 0.0, where=miss)
            open_blocks[:, :ha, :wb] &= miss


def _grid(h: int, w: int, kernel: int) -> tuple[int, int]:
    return math.ceil(h / kernel), math.ceil(w / kernel)


def max_filter(mat: np.ndarray, kernel: int) -> np.ndarray:
    """Per-patch signed maximum over a kernel x kernel tiling.

    Output is ceil(H/k) x ceil(W/k); edge patches may be ragged and are
    reduced as-is.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ConfigError(f"max_filter expects a matrix, got shape {mat.shape}")
    if kernel < 1:
        raise ConfigError("kernel must be >= 1")
    return _patch_max(mat[None], kernel, np.empty((1, *_grid(*mat.shape, kernel))))[0]


def amplify_mp(grads: list[nn.GradientSet], config: AmplifierConfig) -> list[AmplifiedGradient]:
    """Max-filter each 2-D panel of each update and concatenate.

    Each panel is stacked across the clients (in cache-sized groups of
    clients) and filtered per stack; the rows of one (N, length) result
    become the clients' ``values``.
    """
    config.validate()
    if not grads:
        return []
    n, k = len(grads), config.kernel
    panels = []  # (layer, 0 weight / 1 bias, panel rows, panel cols, offset in the update)
    size = 0
    for i, pair in enumerate(grads[0].layers):
        for slot, arr in enumerate(pair):
            if arr is not None:
                if slot == 0 or config.include_bias:
                    rows = arr.shape[0] if slot == 0 else 1
                    panels.append((i, slot, rows, arr.size // rows, size))
                size += arr.size
    grids = tuple((i, "wb"[slot], *_grid(h, w, k)) for i, slot, h, w, _ in panels)
    if config.restore_size:
        out = np.zeros((n, size))
    else:
        out = np.empty((n, sum(ho * wo for *_, ho, wo in grids)))
    pos = 0
    for (i, slot, h, w, offset), (*_, ho, wo) in zip(panels, grids):
        m = min(n, max(1, _STACK_FLOATS // (h * w)))  # clients per stack
        scratch = np.empty((m, ho, wo) if config.restore_size else (m, h, w))
        for c0 in range(0, n, m):
            part = slice(c0, c0 + m)
            stack = [g.layers[i][slot].reshape(h, w) for g in grads[part]]
            if config.restore_size:
                # Stacked straight into its rows of the output and filtered
                # there, so no second (N, length) array is made.
                x = np.stack(stack, out=out[part, offset : offset + h * w].reshape(-1, h, w))
                _keep_block_max(x, _patch_max(x, k, scratch[: len(stack)]), k)
            else:
                x = np.stack(stack, out=scratch[: len(stack)])
                _patch_max(x, k, out[part, pos : pos + ho * wo].reshape(-1, ho, wo))
        pos += ho * wo
    return [
        AmplifiedGradient(
            values=row,
            kind="mp",
            restored=config.restore_size,
            original_size=size,
            grids=None if config.restore_size else grids,
        )
        for row in out
    ]


# ---------------------------------------------------------------------------
# class-activation route


def grad_cam_weights(feature_map_grads: np.ndarray) -> np.ndarray:
    """Per-filter importance: spatial mean of the captured d y / d A^k."""
    g = np.asarray(feature_map_grads, dtype=np.float64)
    if g.ndim != 3:
        raise ConfigError(f"expected (filters, H, W) gradients, got shape {g.shape}")
    return g.mean(axis=(1, 2))


def select_top(alpha: np.ndarray, top_p: float) -> np.ndarray:
    """Indices of the ceil(top_p * K) largest weights, rank order,
    ties resolved toward the lower filter index."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if not 0.0 < top_p <= 1.0:
        raise ConfigError("top_p must lie in (0, 1]")
    order = np.argsort(-alpha, kind="stable")
    return order[: math.ceil(top_p * alpha.size)]


def xai_selection(
    model: nn.ModelParams,
    update: nn.GradientSet,
    validation: Dataset,
    top_p: float,
) -> np.ndarray:
    """Filters chosen after applying ``update`` to the model and running the
    clean validation batch through it: rank filters by activation weight,
    descending, and keep the top ceil(top_p * filters)."""
    if model.conv_index() is None:
        raise ConfigError("activation-guided amplification needs a conv layer")
    if len(validation) == 0:
        raise ConfigError("validation set is empty")
    updated = nn.apply_update(model, update, 1.0)
    trace = nn.forward(updated, validation.features)
    fmg = nn.feature_map_grads(updated, trace, validation.labels)
    return select_top(grad_cam_weights(fmg), top_p)


def _conv_weight_offset(model: nn.ModelParams) -> int:
    pos = 0
    for layer in model.layers:
        if layer.kind == "conv":
            return pos
        if layer.weight is not None:
            pos += layer.weight.size
        if layer.bias is not None:
            pos += layer.bias.size
    raise ConfigError("model has no conv layer")


def amplify_xai(
    grads: list[nn.GradientSet],
    model: nn.ModelParams,
    validation: Dataset,
    config: AmplifierConfig,
    fixed_selection: np.ndarray | None = None,
) -> list[AmplifiedGradient]:
    """Per client: select filters via the client's updated model (or reuse a
    caller-supplied selection) and emit the client's original conv weight
    gradients for those filters."""
    config.validate()
    ci = model.conv_index()
    if ci is None:
        raise ConfigError("activation-guided amplification needs a conv layer")
    offset = _conv_weight_offset(model)
    original = model.param_count()
    per_filter = None
    out = []
    for g in grads:
        gw = g.layers[ci][0]
        if gw is None:
            raise ConfigError("update carries no conv weight gradient")
        per_filter = gw[0].size
        sel = (
            np.asarray(fixed_selection, dtype=np.int64)
            if fixed_selection is not None
            else xai_selection(model, g, validation, config.top_p)
        )
        if config.restore_size:
            values = np.zeros(original)
            for f in sel:
                lo = offset + f * per_filter
                values[lo : lo + per_filter] = gw[f].ravel()
        else:
            values = np.concatenate([gw[f].ravel() for f in sel])
        out.append(
            AmplifiedGradient(
                values=values,
                kind="xai",
                restored=config.restore_size,
                original_size=original,
                selected=sel,
            )
        )
    return out


# ---------------------------------------------------------------------------
# dispatch


def amplify(
    grads: list[nn.GradientSet],
    config: AmplifierConfig,
    model: nn.ModelParams | None = None,
    validation: Dataset | None = None,
    fixed_selection: np.ndarray | None = None,
) -> list[AmplifiedGradient]:
    config.validate()
    if config.kind == "none":
        vectors = [g.to_vector() for g in grads]
        return [
            AmplifiedGradient(values=v, kind="none", restored=True, original_size=v.size)
            for v in vectors
        ]
    if config.kind == "mp":
        return amplify_mp(grads, config)
    if model is None or validation is None:
        raise ConfigError("activation-guided amplification needs the model and validation set")
    return amplify_xai(grads, model, validation, config, fixed_selection)
