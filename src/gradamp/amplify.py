"""Gradient amplification: patch max-filtering and class-activation selection.

Both amplifiers map a client's update to a shorter row that exaggerates
the update's salient structure; aggregators score clients on these rows
but always apply the untouched originals.  With ``restore_size`` the row
instead keeps the original length, zero everywhere except the surviving
entries, so prediction-based screens can apply it as a model update.

Updates arrive as the rows of one (N, P) matrix in ``ModelParams.theta``
order, and the amplifiers return plain rows: ``amplify_mp`` an (N, L)
matrix, ``amplify_xai`` a list of (L,) rows.  Only the ``amplify``
dispatcher wraps each row as an ``AmplifiedGradient`` with the length P
it came from.

The max filter views each layer's slice of a row as a 2-D panel, with the
shapes taken from the model layout:

    dense weight   (out, in), as stored
    conv weight    (filters, in_ch * kh * kw)
    bias           (1, len)

It runs on client stacks: each panel's stack is a strided (m, h, w) view
of the update matrix, all N clients at once for small panels and
cache-sized groups for large ones, so nothing is copied to stack it.  The
compact view is ``nn.block_max`` of the stack, on a ceil grid.  The
restored view keeps, per block, only the entry ``nn.block_keep`` marks,
by the tie and NaN rule of the maxpool layer (see the ``nn`` docstring):
one AND of the stack's bits with the mask's writes the kept entries'
bits, and +0.0 elsewhere, straight into the stack's rows of the output.
Both views write into one preallocated (N, L) matrix.

The class-activation route scores each conv filter by its Grad-CAM
weight, the spatial mean of d y / d A^k (y = batch-summed true-class
logit), which ``nn.activation_weights`` reads off the gradient at the
pooled output.  The route keeps the top ceil(top_p * filters) filters and
emits the client's original conv weight gradients for those filters in
rank order, read through the conv weight view of a model built on the
client's row.
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
    """One client's amplified row and the length of the update it came from."""

    values: np.ndarray
    original_size: int


# ---------------------------------------------------------------------------
# max filter


def amplify_mp(rows: np.ndarray, model: nn.ModelParams, config: AmplifierConfig) -> np.ndarray:
    """Max-filter each 2-D panel of each update row and concatenate.

    ``rows`` is the (N, P) update matrix; the panels come from ``model``'s
    layout.  Each panel is filtered per stack of clients (cache-sized
    groups), read as a strided view of ``rows``, into one (N, L) result.
    """
    n, k = len(rows), config.kernel
    panels = []  # (panel rows, panel cols, offset in the row, grid rows, grid cols)
    size = 0
    for layer in model.layers:
        for slot, arr in enumerate((layer.weight, layer.bias)):
            if arr is not None:
                if slot == 0 or config.include_bias:
                    h = arr.shape[0] if slot == 0 else 1
                    w = arr.size // h
                    panels.append((h, w, size, math.ceil(h / k), math.ceil(w / k)))
                size += arr.size
    if config.restore_size:
        # the panels write every entry unless the biases are left out
        out = np.empty((n, size)) if config.include_bias else np.zeros((n, size))
    else:
        out = np.empty((n, sum(ho * wo for *_, ho, wo in panels)))
    pos = 0
    for h, w, offset, ho, wo in panels:
        m = max(1, min(n, nn.STACK_FLOATS // (h * w)))  # clients per stack
        if config.restore_size:
            scratch = np.empty((m, ho, wo))
        for c0 in range(0, n, m):
            part = slice(c0, c0 + m)
            x = rows[part, offset : offset + h * w].reshape(-1, h, w)
            if config.restore_size:
                best = nn.block_max(x, k, scratch[: len(x)])
                keep = np.negative(nn.block_keep(x, best, k), dtype=np.int64)
                kept = out[part, offset : offset + h * w].reshape(-1, h, w)
                np.bitwise_and(x.view(np.int64), keep, out=kept.view(np.int64))
            else:
                nn.block_max(x, k, out[part, pos : pos + ho * wo].reshape(-1, ho, wo))
        pos += ho * wo
    return out


# ---------------------------------------------------------------------------
# class-activation route


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
    running the clean validation batch through it (its ``cols`` when set):
    rank filters by activation weight, descending, and keep the top
    ceil(top_p * filters)."""
    if model.conv_index() is None:
        raise ConfigError("activation-guided amplification needs a conv layer")
    if len(validation) == 0:
        raise ConfigError("validation set is empty")
    updated = nn.apply_update(model, update)
    trace = nn.forward(updated, validation.features, validation.cols)
    return select_top(nn.activation_weights(updated, trace, validation.labels), top_p)


def amplify_xai(
    rows: np.ndarray,
    model: nn.ModelParams,
    validation: Dataset,
    config: AmplifierConfig,
    fixed_selection: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Per client row: select filters via the client's updated model (or
    reuse a caller-supplied selection) and emit the client's original conv
    weight gradients for those filters, read through the conv weight view
    of ``nn.ModelParams(model.layers, row)``."""
    ci = model.conv_index()
    if ci is None:
        raise ConfigError("activation-guided amplification needs a conv layer")
    out = []
    for row in rows:
        gw = nn.ModelParams(model.layers, row).layers[ci].weight
        sel = (
            np.asarray(fixed_selection, dtype=np.int64)
            if fixed_selection is not None
            else xai_selection(model, row, validation, config.top_p)
        )
        if config.restore_size:
            values = np.zeros_like(row)
            nn.ModelParams(model.layers, values).layers[ci].weight[sel] = gw[sel]
        else:
            values = gw[sel].reshape(-1)
        out.append(values)
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
    """Amplified views of the (N, P) update matrix ``rows``, one per row,
    each recording P; ``kind = "none"`` passes each row through as a view."""
    if config.kind == "none":
        views = rows
    elif model is None:
        raise ConfigError("amplification needs the model layout")
    elif config.kind == "mp":
        views = amplify_mp(rows, model, config)
    elif validation is None:
        raise ConfigError("activation-guided amplification needs the model and validation set")
    else:
        views = amplify_xai(rows, model, validation, config, fixed_selection)
    return [AmplifiedGradient(v, rows.shape[1]) for v in views]
