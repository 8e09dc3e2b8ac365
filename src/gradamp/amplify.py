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
    h, w = mat.shape
    ho, wo = math.ceil(h / kernel), math.ceil(w / kernel)
    padded = np.full((ho * kernel, wo * kernel), -np.inf)
    padded[:h, :w] = mat
    blocks = padded.reshape(ho, kernel, wo, kernel).transpose(0, 2, 1, 3)
    return blocks.reshape(ho, wo, kernel * kernel).max(axis=-1)


def _max_filter_restore(mat: np.ndarray, kernel: int) -> np.ndarray:
    """Full-size panel: each patch max kept at its original position
    (first position in row-major order on ties), zeros elsewhere."""
    mat = np.asarray(mat, dtype=np.float64)
    h, w = mat.shape
    ho, wo = math.ceil(h / kernel), math.ceil(w / kernel)
    padded = np.full((ho * kernel, wo * kernel), -np.inf)
    padded[:h, :w] = mat
    blocks = padded.reshape(ho, kernel, wo, kernel).transpose(0, 2, 1, 3)
    flat = blocks.reshape(ho, wo, kernel * kernel)
    idx = flat.argmax(axis=-1)
    out = np.zeros_like(mat)
    rows = (np.arange(ho)[:, None] * kernel + idx // kernel).ravel()
    cols = (np.arange(wo)[None, :] * kernel + idx % kernel).ravel()
    out[rows, cols] = np.take_along_axis(flat, idx[..., None], axis=-1).ravel()
    return out


def _panels(
    grads: nn.GradientSet, include_bias: bool
) -> list[tuple[int, str, np.ndarray]]:
    """2-D views of every parameter gradient, in vector order."""
    panels = []
    for i, (dw, db) in enumerate(grads.layers):
        if dw is not None:
            panels.append((i, "w", dw.reshape(dw.shape[0], -1)))
        if db is not None and include_bias:
            panels.append((i, "b", db.reshape(1, -1)))
    return panels


def amplify_mp(grads: list[nn.GradientSet], config: AmplifierConfig) -> list[AmplifiedGradient]:
    """Max-filter each 2-D panel of each update and concatenate."""
    config.validate()
    out = []
    for g in grads:
        original = g.to_vector().size
        if config.restore_size:
            chunks = []
            for i, (dw, db) in enumerate(g.layers):
                if dw is not None:
                    panel = dw.reshape(dw.shape[0], -1)
                    chunks.append(_max_filter_restore(panel, config.kernel).ravel())
                if db is not None:
                    if config.include_bias:
                        chunks.append(
                            _max_filter_restore(db.reshape(1, -1), config.kernel).ravel()
                        )
                    else:
                        chunks.append(np.zeros(db.size))
            values = np.concatenate(chunks) if chunks else np.zeros(0)
            grids = None
        else:
            pieces = []
            grid_list = []
            for i, which, panel in _panels(g, config.include_bias):
                filtered = max_filter(panel, config.kernel)
                grid_list.append((i, which, filtered.shape[0], filtered.shape[1]))
                pieces.append(filtered.ravel())
            values = np.concatenate(pieces) if pieces else np.zeros(0)
            grids = tuple(grid_list)
        out.append(
            AmplifiedGradient(
                values=values,
                kind="mp",
                restored=config.restore_size,
                original_size=original,
                grids=grids,
            )
        )
    return out


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
        original = g.to_vector().size
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
        return [
            AmplifiedGradient(
                values=g.to_vector(),
                kind="none",
                restored=True,
                original_size=g.to_vector().size,
            )
            for g in grads
        ]
    if config.kind == "mp":
        return amplify_mp(grads, config)
    if model is None or validation is None:
        raise ConfigError("activation-guided amplification needs the model and validation set")
    return amplify_xai(grads, model, validation, config, fixed_selection)
