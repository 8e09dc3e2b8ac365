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
of the update matrix, so nothing is copied to stack it.  One list of
stacks (``nn._stacks``) serves every panel: all N clients at once when
the largest panel is small, cache-sized groups when it is large, and a
few clients a stack on rows long enough to split.  The compact view is
``nn.block_max`` of the stack, on a ceil grid.  The restored view keeps,
per block, only the entry ``nn.block_keep`` marks, by the tie and NaN
rule of the maxpool layer (see the ``nn`` docstring): one integer
product of the stack's bits with the mask writes the kept entries' bits,
and +0.0 elsewhere, straight into the stack's rows of the output.
Both views run in one loop over the stacks and write into one
preallocated (N, L) matrix; ``runtime.split`` may run the upper half of
the stacks on its worker (the contract is in the ``runtime`` docstring).

The class-activation route scores each conv filter by its Grad-CAM
weight, the spatial mean of d y / d A^k (y = batch-summed true-class
logit), which ``nn.activation_weights`` reads off the gradient at the
pooled output: the validation batch runs only as far as the conv's pooled
maps, with no relu, dense layer or softmax.  The route keeps the top
ceil(top_p * filters) filters and emits the client's original conv weight
gradients for those filters in rank order, read through one
(N, filters, c*kh*kw) view of the update matrix: the conv weight is the
first span of every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError
from . import nn, runtime

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
    layout.  Each panel is filtered per client stack (``nn._stacks``, sized
    by the largest panel), read as a strided view of ``rows``, into one
    (N, L) result.  ``runtime.split`` may filter the upper half of the
    stacks on its worker, through ``nn``'s private kernels; each stack
    writes only its own rows, so every bit is that of a serial call.
    """
    n, k = len(rows), config.kernel
    panels = []  # (rows, cols, offset in the row, offset in the view, grid rows, grid cols)
    size = length = 0
    for layer in model.layers:
        for slot, arr in enumerate((layer.weight, layer.bias)):
            if arr is not None:
                if slot == 0 or config.include_bias:
                    h = arr.shape[0] if slot == 0 else 1
                    w = arr.size // h
                    ho, wo = math.ceil(h / k), math.ceil(w / k)
                    panels.append((h, w, size, length, ho, wo))
                    length += ho * wo
                size += arr.size
    if config.restore_size:
        # the panels write every entry unless the biases are left out
        out = np.empty((n, size)) if config.include_bias else np.zeros((n, size))
    else:
        out = np.empty((n, length))
    stacks = nn._stacks(n, max((h * w for h, w, *_ in panels), default=1), size)

    def views(lo: int, hi: int) -> None:
        """Stacks lo .. hi - 1 of every panel into their rows of ``out``;
        the calling thread's half is the one from 0."""
        fold, keep = (nn.block_max, nn.block_keep) if lo == 0 else (nn._block_max, nn._block_keep)
        for h, w, offset, pos, ho, wo in panels:
            x = rows[:, offset : offset + h * w].reshape(n, h, w)
            for s in stacks[lo:hi]:
                part = x[s]
                if config.restore_size:
                    mask = keep(part, fold(part, k), k)
                    kept = out[s, offset : offset + h * w].reshape(-1, h, w)
                    np.multiply(part.view(np.int64), mask, out=kept.view(np.int64))
                else:
                    fold(part, k, out[s, pos : pos + ho * wo].reshape(-1, ho, wo))

    runtime.split(len(stacks), views, size)
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
    running the clean validation batch (its ``cols`` when set) through its
    conv and pool, which is all ``nn.activation_weights`` reads: rank
    filters by activation weight, descending, and keep the top
    ceil(top_p * filters).  An overflowing update's maps and weights go
    non-finite without a numpy warning."""
    if model.conv_index() is None:
        raise ConfigError("activation-guided amplification needs a conv layer")
    if len(validation) == 0:
        raise ConfigError("validation set is empty")
    updated = nn.apply_update(model, update)
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = nn.activation_weights(updated, validation.features, validation.labels, validation.cols)
    return select_top(alpha, top_p)


def amplify_xai(
    rows: np.ndarray,
    model: nn.ModelParams,
    validation: Dataset,
    config: AmplifierConfig,
    fixed_selection: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Per client row: select filters via the client's updated model (or
    reuse a caller-supplied selection) and emit the client's original conv
    weight gradients for those filters.  The conv weight is the first span
    of a row, so one (N, filters, c*kh*kw) view of ``rows`` reads every
    client's; restored rows are the rows of one zeroed (N, P) matrix."""
    if model.conv_index() is None:
        raise ConfigError("activation-guided amplification needs a conv layer")
    conv = model.layers[0].weight
    grads = rows[:, : conv.size].reshape(len(rows), len(conv), -1)
    restored = np.zeros(rows.shape) if config.restore_size else None
    out = []
    for i, row in enumerate(rows):
        sel = (
            np.asarray(fixed_selection, dtype=np.int64)
            if fixed_selection is not None
            else xai_selection(model, row, validation, config.top_p)
        )
        if restored is None:
            out.append(grads[i, sel].reshape(-1))
        else:
            restored[i, : conv.size].reshape(len(conv), -1)[sel] = grads[i, sel]
            out.append(restored[i])
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
