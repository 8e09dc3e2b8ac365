"""Gradient amplification: patch max-filtering and class-activation selection.

Both amplifiers map a client's update to a shorter vector that exaggerates
the update's salient structure; aggregators score clients on these vectors
but always apply the untouched originals.  With ``restore_size`` the output
instead keeps the original length, zero everywhere except the surviving
entries, so prediction-based screens can apply it as a model update.

Updates arrive as the rows of one (N, P) matrix in ``ModelParams.theta``
order.
The max filter views each layer's slice of a row as a 2-D panel, with the
shapes taken from the model layout:

    dense weight   (out, in), as stored
    conv weight    (filters, in_ch * kh * kw)
    bias           (1, len)

It runs on client stacks: each panel's stack is a strided (m, h, w) view
of the update matrix, all N clients at once for small panels and
cache-sized groups for large ones, so nothing is copied to stack it.  The
compact view is ``nn.block_max`` of the stack, on a ceil grid.  The
restored view copies each stack into its rows of the output and keeps
there, per block, only the entry ``nn.block_argmax`` routes the block to,
by the tie and NaN rule of the maxpool layer (see the ``nn`` docstring).
Both views write into one preallocated (N, length) matrix whose rows are
the clients' ``values``.

The class-activation route scores each conv filter by the spatial mean of
d y / d A^k (y = batch-summed true-class logit), keeps the top
ceil(top_p * filters) filters, and emits the client's original conv weight
gradients for those filters in rank order, read through the conv weight
view of a model built on the client's row.
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

    def __post_init__(self) -> None:
        self.validate()

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
    return nn.block_max(mat, kernel)


def amplify_mp(
    rows: np.ndarray, model: nn.ModelParams, config: AmplifierConfig
) -> list[AmplifiedGradient]:
    """Max-filter each 2-D panel of each update row and concatenate.

    ``rows`` is the (N, P) update matrix; the panels come from ``model``'s
    layout.  Each panel is filtered per stack of clients (cache-sized
    groups), read as a strided view of ``rows``; the rows of one (N,
    length) result become the clients' ``values``.
    """
    n, k = len(rows), config.kernel
    if n == 0:
        return []
    panels = []  # (layer, 0 weight / 1 bias, panel rows, panel cols, offset in the row)
    size = 0
    for i, layer in enumerate(model.layers):
        for slot, arr in enumerate((layer.weight, layer.bias)):
            if arr is not None:
                if slot == 0 or config.include_bias:
                    h = arr.shape[0] if slot == 0 else 1
                    panels.append((i, slot, h, arr.size // h, size))
                size += arr.size
    grids = tuple((i, "wb"[slot], *_grid(h, w, k)) for i, slot, h, w, _ in panels)
    if config.restore_size:
        out = np.zeros((n, size))
    else:
        out = np.empty((n, sum(ho * wo for *_, ho, wo in grids)))
    pos = 0
    for (i, slot, h, w, offset), (*_, ho, wo) in zip(panels, grids):
        m = min(n, max(1, nn.STACK_FLOATS // (h * w)))  # clients per stack
        if config.restore_size:
            scratch = np.empty((m, ho, wo))
        for c0 in range(0, n, m):
            part = slice(c0, c0 + m)
            x = rows[part, offset : offset + h * w].reshape(-1, h, w)
            if config.restore_size:
                # Filtered in its rows of the output, so no second
                # (N, length) array is made.
                kept = out[part, offset : offset + h * w].reshape(-1, h, w)
                np.copyto(kept, x)
                best = nn.block_max(kept, k, scratch[: len(kept)])
                for cell, miss in nn.block_argmax(kept, best, k):
                    np.copyto(kept[cell], 0.0, where=miss)
            else:
                nn.block_max(x, k, out[part, pos : pos + ho * wo].reshape(-1, ho, wo))
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
    update: np.ndarray,
    validation: Dataset,
    top_p: float,
) -> np.ndarray:
    """Filters chosen after applying the flat ``update`` to the model and
    running the clean validation batch through it: rank filters by
    activation weight, descending, and keep the top ceil(top_p * filters)."""
    if model.conv_index() is None:
        raise ConfigError("activation-guided amplification needs a conv layer")
    if len(validation) == 0:
        raise ConfigError("validation set is empty")
    updated = nn.apply_update(model, update, 1.0)
    trace = nn.forward(updated, validation.features)
    fmg = nn.feature_map_grads(updated, trace, validation.labels)
    return select_top(grad_cam_weights(fmg), top_p)


def amplify_xai(
    rows: np.ndarray,
    model: nn.ModelParams,
    validation: Dataset,
    config: AmplifierConfig,
    fixed_selection: np.ndarray | None = None,
) -> list[AmplifiedGradient]:
    """Per client row: select filters via the client's updated model (or
    reuse a caller-supplied selection) and emit the client's original conv
    weight gradients for those filters, read through the conv weight view
    of ``nn.ModelParams(model.layers, row)``."""
    ci = model.conv_index()
    if ci is None:
        raise ConfigError("activation-guided amplification needs a conv layer")
    original = model.theta.size
    out = []
    for row in rows:
        gw = nn.ModelParams(model.layers, row).layers[ci].weight
        sel = (
            np.asarray(fixed_selection, dtype=np.int64)
            if fixed_selection is not None
            else xai_selection(model, row, validation, config.top_p)
        )
        if config.restore_size:
            values = np.zeros(original)
            nn.ModelParams(model.layers, values).layers[ci].weight[sel] = gw[sel]
        else:
            values = gw[sel].reshape(-1)
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
    rows: np.ndarray,
    config: AmplifierConfig,
    model: nn.ModelParams | None = None,
    validation: Dataset | None = None,
    fixed_selection: np.ndarray | None = None,
) -> list[AmplifiedGradient]:
    """Amplified views of the (N, P) update matrix ``rows``, one per row;
    ``kind = "none"`` passes each row through as a view."""
    if config.kind == "none":
        return [
            AmplifiedGradient(values=row, kind="none", restored=True, original_size=row.size)
            for row in rows
        ]
    if model is None:
        raise ConfigError("amplification needs the model layout")
    if config.kind == "mp":
        return amplify_mp(rows, model, config)
    if validation is None:
        raise ConfigError("activation-guided amplification needs the model and validation set")
    return amplify_xai(rows, model, validation, config, fixed_selection)
