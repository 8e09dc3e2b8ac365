"""Byzantine-robust aggregation over amplified score vectors.

Three screening families sit on a shared rule: clients are *scored* on
their amplified vectors, but the global update is always a plain average
of the accepted clients' original updates (trust weighting for the
bootstrapped family).  Whatever the amplifier did to the scoring view, the
model only ever moves along real client gradients.

Families:
  fedavg       no screening, plain mean
  dist-cos     density whitelist on pairwise cosine similarity
  dist-euc     same, similarity = negative euclidean distance
  dist-merged  intersection of the cos and euc whitelists
  fang         leave-one-out loss and error screens on restored updates
  fltrust      server-trained reference update, ReLU-clipped cosine trust

Every entry point takes the round's updates as the rows of one (N, P)
matrix, and ``AggregationDecision.global_update`` is a flat (P,) row.
Means are ``nn.mean_grads`` folds over row views: fedavg over the
whitelisted rows, and each fang leave-one-out probe over the other
clients' rows into one reused buffer.

Tie-breaks everywhere favor lower client indices, keeping decisions
deterministic.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .amplify import AmplifiedGradient, AmplifierConfig, amplify
from .data import Dataset
from .errors import ConfigError
from . import nn

log = logging.getLogger(__name__)

FAMILIES = ("fedavg", "dist-cos", "dist-euc", "dist-merged", "fang", "fltrust")


@dataclass(frozen=True)
class AggregatorConfig:
    family: str = "dist-cos"
    amplifier: AmplifierConfig = field(default_factory=AmplifierConfig)
    assumed_malicious: float = 0.3   # M_f the defense plans for
    neighbors: int = 0               # top-K density neighbourhood; 0 = N//2 + 1

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown aggregator family {self.family!r}")
        if not 0.0 <= self.assumed_malicious < 1.0:
            raise ConfigError("assumed_malicious must lie in [0, 1)")
        if (
            self.family == "fang"
            and self.amplifier.kind != "none"
            and not self.amplifier.restore_size
        ):
            raise ConfigError("prediction-based screening needs restore_size amplification")


@dataclass
class AggregationDecision:
    global_update: np.ndarray        # flat (P,) update the server applies
    scores: np.ndarray               # S_i, leave-one-out loss, or trust score
    accepted: np.ndarray             # bool per client
    whitelist: list[int] | None = None
    trust_scores: np.ndarray | None = None


def fedavg(rows) -> np.ndarray:
    return nn.mean_grads(rows)


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def _keep_top(scores: np.ndarray, keep: int) -> list[int]:
    """Indices of the ``keep`` largest scores, lower index winning ties."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return sorted(order[:keep])


# ---------------------------------------------------------------------------
# density whitelist


def density_whitelist(
    amped: list[AmplifiedGradient],
    metric: str,
    neighbors: int,
    assumed_malicious: float,
) -> tuple[list[int], np.ndarray]:
    """Cross-check amplified vectors and keep the densest clients.

    Each client's score sums its ``neighbors`` highest similarities, the
    self-similarity included, so colluders cannot ride on a single twin.
    The whitelist keeps the ceil((1 - M_f) * N) best scores.  neighbors
    must exceed N/2 so any honest majority overlaps every neighbourhood.
    """
    n = len(amped)
    if n == 0:
        raise ConfigError("no updates to aggregate")
    if not neighbors > n / 2:
        raise ConfigError(f"neighbors must exceed N/2, got {neighbors} with N={n}")
    if neighbors > n:
        raise ConfigError(f"neighbors {neighbors} larger than the cohort {n}")
    x = np.stack([a.values for a in amped])
    if metric == "cos":
        norms = np.linalg.norm(x, axis=1)
        sim = x @ x.T
        with np.errstate(invalid="ignore", divide="ignore"):
            sim = sim / np.outer(norms, norms)
        sim[~np.isfinite(sim)] = 0.0
        zero = norms == 0.0
        sim[zero, :] = 0.0
        sim[:, zero] = 0.0
    elif metric == "euc":
        sq = np.sum(x * x, axis=1)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
        sim = -np.sqrt(d2)
    else:
        raise ConfigError(f"unknown density metric {metric!r}")
    ranked = np.sort(sim, axis=1)[:, ::-1]
    scores = ranked[:, :neighbors].sum(axis=1)
    keep = math.ceil((1.0 - assumed_malicious) * n)
    return _keep_top(scores, keep), scores


def merged_whitelist(
    amped: list[AmplifiedGradient], neighbors: int, assumed_malicious: float
) -> tuple[list[int], np.ndarray]:
    """Intersection of the cosine and euclidean whitelists; an empty
    intersection falls back to the cosine list."""
    wl_cos, scores = density_whitelist(amped, "cos", neighbors, assumed_malicious)
    wl_euc, _ = density_whitelist(amped, "euc", neighbors, assumed_malicious)
    merged = sorted(set(wl_cos) & set(wl_euc))
    if not merged:
        log.warning("merged whitelist empty; falling back to the cosine whitelist")
        return wl_cos, scores
    return merged, scores


# ---------------------------------------------------------------------------
# prediction-based screening


def fang_whitelist(
    amped_restored: Sequence[np.ndarray],
    model: nn.ModelParams,
    validation: Dataset,
    assumed_malicious: float,
) -> tuple[list[int], np.ndarray]:
    """Loss and error leave-one-out screens over restored amplified updates.

    ``amped_restored`` holds one flat update per client in
    ``ModelParams.to_vector`` order.  For each client, average everyone
    else's update, apply it, and record validation loss and error.  A low
    leave-one-out value means the excluded client was hurting, so the
    ceil(M_f * N) lowest are rejected under each criterion and the
    whitelist is the intersection of the two keep-sets (loss keep-set on an
    empty intersection).

    Each probe model is theta - (x_j0 + x_j1 + ...) * (1 / (N - 1)): the
    others folded afresh in ascending index order by ``nn.mean_grads`` into
    one reused buffer, then subtracted as ``nn.apply_update`` would, so the
    losses equal those of a mean-then-apply probe bit for bit.  The
    shortcut (S - x_i) / (N - 1) is not used: a Byzantine client picks its
    own magnitude, and subtracting a huge x_i back out of S cancels away
    every other client's contribution.
    """
    n = len(amped_restored)
    if n == 0:
        raise ConfigError("no updates to aggregate")
    if len(validation) == 0:
        raise ConfigError("prediction-based screening needs a validation set")
    theta = model.to_vector()
    for row in amped_restored:
        if np.shape(row) != theta.shape:
            raise ConfigError(
                f"restored update has shape {np.shape(row)}, model has {theta.size} parameters"
            )
    buf = np.empty_like(theta)
    losses = np.zeros(n)
    errors = np.zeros(n)
    for i in range(n):
        others = [amped_restored[j] for j in range(n) if j != i] or [amped_restored[i]]
        nn.mean_grads(others, out=buf)
        np.subtract(theta, buf, out=buf)
        trace = nn.forward(nn.params_from_vector(model, buf), validation.features)
        losses[i] = nn.loss_value(trace, validation.labels)
        errors[i] = float(
            np.mean(np.argmax(trace.logits, axis=1) != validation.labels)
        )
    keep = n - math.ceil(assumed_malicious * n)
    keep_loss = set(_keep_top(losses, keep))
    keep_err = set(_keep_top(errors, keep))
    whitelist = sorted(keep_loss & keep_err)
    if not whitelist:
        log.warning("loss and error keep-sets disjoint; keeping the loss set")
        whitelist = sorted(keep_loss)
    return whitelist, losses


# ---------------------------------------------------------------------------
# trust bootstrapping


def fltrust_aggregate(
    amped: list[AmplifiedGradient],
    amped_ref: AmplifiedGradient,
    originals: np.ndarray,
    ref_original: np.ndarray,
) -> AggregationDecision:
    """Trust-weighted mean of norm-matched original updates.

    Trust score per client is the ReLU-clipped cosine between the client's
    amplified vector and the amplified server reference; each original
    update is rescaled to the reference norm before weighting.  All trust
    at zero yields a zero update (round effectively skipped).
    """
    n = len(amped)
    if n == 0 or n != len(originals):
        raise ConfigError("amplified and original update lists disagree")
    ts = np.array([max(0.0, _cosine(a.values, amped_ref.values)) for a in amped])
    ref_norm = float(np.linalg.norm(ref_original))
    total = ts.sum()
    if total == 0.0:
        log.warning("all trust scores zero; emitting a zero update")
        update = 0.0 * originals[0]
    else:
        update = None
        for w, g in zip(ts, originals):
            gn = float(np.linalg.norm(g))
            scale = 0.0 if gn == 0.0 else w * ref_norm / gn
            term = (scale / total) * g
            if update is None:
                update = term
            else:
                update += term
    return AggregationDecision(
        global_update=update,
        scores=ts,
        accepted=ts > 0.0,
        whitelist=None,
        trust_scores=ts,
    )


# ---------------------------------------------------------------------------
# round-level entry point


@dataclass
class RoundContext:
    """Server-side state an aggregation step may need."""

    model: nn.ModelParams
    validation: Dataset | None = None     # screening and filter selection
    ref_update: np.ndarray | None = None  # server-trained trust reference, flat


def _whitelist_decision(
    whitelist: list[int], scores: np.ndarray, originals: np.ndarray
) -> AggregationDecision:
    accepted = np.zeros(len(originals), dtype=bool)
    accepted[whitelist] = True
    # row views, not originals[whitelist], which would copy the rows
    update = fedavg([originals[i] for i in whitelist])
    return AggregationDecision(update, scores, accepted, whitelist=whitelist)


def aggregate_round(
    grads: np.ndarray,
    config: AggregatorConfig,
    context: RoundContext,
) -> AggregationDecision:
    """Score the rows of the (N, P) update matrix on amplified vectors,
    update from the original rows."""
    n = len(grads)
    if n == 0:
        raise ConfigError("no updates to aggregate")
    if config.family == "fedavg":
        return AggregationDecision(
            fedavg(grads), np.ones(n), np.ones(n, dtype=bool), whitelist=list(range(n))
        )

    amp = config.amplifier
    if config.family == "fltrust":
        if context.ref_update is None:
            raise ConfigError("trust bootstrapping needs a server reference update")
        fixed = None
        if amp.kind == "xai":
            # One selection, taken from the server's own reference model, so
            # every trust cosine compares coordinates of the same filters.
            fixed = None if context.validation is None else _ref_selection(amp, context)
        amped = amplify(grads, amp, context.model, context.validation, fixed)
        ref_row = context.ref_update[None]
        amped_ref = amplify(ref_row, amp, context.model, context.validation, fixed)[0]
        return fltrust_aggregate(amped, amped_ref, grads, context.ref_update)

    neighbors = config.neighbors if config.neighbors > 0 else n // 2 + 1
    if config.family in ("dist-cos", "dist-euc"):
        amped = amplify(grads, amp, context.model, context.validation)
        metric = "cos" if config.family == "dist-cos" else "euc"
        wl, scores = density_whitelist(amped, metric, neighbors, config.assumed_malicious)
        return _whitelist_decision(wl, scores, grads)
    if config.family == "dist-merged":
        amped = amplify(grads, amp, context.model, context.validation)
        wl, scores = merged_whitelist(amped, neighbors, config.assumed_malicious)
        return _whitelist_decision(wl, scores, grads)

    # fang: restored amplified updates drive the prediction screens
    if context.validation is None:
        raise ConfigError("prediction-based screening needs a validation set")
    amped = amplify(grads, amp, context.model, context.validation)
    wl, losses = fang_whitelist(
        [a.values for a in amped], context.model, context.validation, config.assumed_malicious
    )
    return _whitelist_decision(wl, losses, grads)


def _ref_selection(amp: AmplifierConfig, context: RoundContext) -> np.ndarray:
    from .amplify import xai_selection

    return xai_selection(context.model, context.ref_update, context.validation, amp.top_p)
