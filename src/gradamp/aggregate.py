"""Byzantine-robust aggregation over amplified score rows.

Three screening families sit on a shared rule: clients are *scored* on
their amplified rows, but the global update is always a plain average
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
The screens take flat rows too: ``aggregate_round`` amplifies the rows
once, unwraps the amplifier's output, and hands the rows it scored back
as ``AggregationDecision.views``; each screen scores a sequence of (L,)
rows or an (N, L) matrix, whichever it is given.
Plain means are ``nn.mean_grads`` folds over row views: fedavg's over
every row, a whitelist's over its accepted rows.  The fang probes sum
the same ascending fold from a running prefix, and ``runtime.split``
may hand the upper half of the clients' probes to the worker thread
(its contract is in the ``runtime`` docstring).

Tie-breaks everywhere favor lower client indices, keeping decisions
deterministic.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .amplify import AmplifierConfig, amplify, xai_selection
from .data import Dataset, exact_share
from .errors import ConfigError
from . import nn, runtime

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
        if self.neighbors < 0:
            raise ConfigError(f"neighbors must be >= 0 (0 = N//2 + 1), got {self.neighbors}")
        if (
            self.family == "fang"
            and self.amplifier.kind != "none"
            and not self.amplifier.restore_size
        ):
            raise ConfigError("prediction-based screening needs restore_size amplification")

    @property
    def draws_validation(self) -> bool:
        """Whether a run draws the validation set: the fang probes and the
        class-activation route score on it."""
        return self.family == "fang" or self.amplifier.kind == "xai"


@dataclass
class AggregationDecision:
    global_update: np.ndarray        # flat (P,) update the server applies
    scores: np.ndarray               # S_i, leave-one-out loss, or trust score
    accepted: np.ndarray             # bool per client
    views: list[np.ndarray] | None = None  # the amplified rows scored; fedavg scores none


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of two rows, 0 for a zero row; an overflow gives a non-finite
    or 0 cosine without a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na == 0.0 or nb == 0.0:
            return 0.0
        return float(np.dot(a, b) / (na * nb))


def _keep_top(scores: np.ndarray, keep: int) -> list[int]:
    """Indices of the ``keep`` largest scores, lower index winning ties; a
    NaN ranks below every number (the rule of ``amplify.select_top``)."""
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    return sorted(order[:keep].tolist())


def _intersect(first: list[int], second: list[int], fallback: str) -> list[int]:
    """The sorted indices both keep-lists hold, or ``first`` with
    ``fallback`` logged as a warning when they share none."""
    both = sorted(set(first) & set(second))
    if not both:
        log.warning(fallback)
    return both or first


# ---------------------------------------------------------------------------
# density whitelist


def density_whitelist(
    views, metric: str, neighbors: int, assumed_malicious: float
) -> tuple[list[int], np.ndarray]:
    """Cross-check amplified rows and keep the densest clients.

    Each client's score sums its ``neighbors`` highest similarities, the
    self-similarity included, so colluders cannot ride on a single twin.
    The whitelist keeps the ceil((1 - M_f) * N) best scores, counted on
    the decimal M_f (``data.exact_share``).  neighbors must exceed N/2 so
    any honest majority overlaps every neighbourhood.  A zero row's
    cosines are 0; a non-finite cosine between non-zero rows (an
    overflowing norm or a NaN entry) is 0 too, and a non-finite euclidean
    similarity is -inf; both are counted in one logged warning.  Neither
    metric lets numpy warn about the overflow.
    """
    n = len(views)
    if n == 0:
        raise ConfigError("no updates to aggregate")
    if not neighbors > n / 2:
        raise ConfigError(f"neighbors must exceed N/2, got {neighbors} with N={n}")
    if neighbors > n:
        raise ConfigError(f"neighbors {neighbors} larger than the cohort {n}")
    if metric not in ("cos", "euc"):
        raise ConfigError(f"unknown density metric {metric!r}")
    x = np.asarray(views, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if metric == "cos":
            norms = np.linalg.norm(x, axis=1)
            sim = (x @ x.T) / np.outer(norms, norms)
            zero = norms == 0.0
            sim[zero, :] = 0.0
            sim[:, zero] = 0.0
        else:
            sq = np.sum(x * x, axis=1)
            sim = -np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0))
    bad = ~np.isfinite(sim)
    if bad.any():
        if metric == "cos":
            note, fill = "cosine similarities between non-zero rows; scoring them 0", 0.0
        else:
            note, fill = "euclidean similarities; scoring them -inf", -np.inf
        log.warning("%d non-finite %s", int(bad.sum()), note)
        sim[bad] = fill
    ranked = np.sort(sim, axis=1)[:, ::-1]
    scores = ranked[:, :neighbors].sum(axis=1)
    keep = n - math.floor(exact_share(assumed_malicious, n))
    return _keep_top(scores, keep), scores


def merged_whitelist(
    views, neighbors: int, assumed_malicious: float
) -> tuple[list[int], np.ndarray]:
    """Intersection of the cosine and euclidean whitelists over one matrix
    of the rows; an empty intersection falls back to the cosine list."""
    x = np.asarray(views, dtype=np.float64)
    wl_cos, scores = density_whitelist(x, "cos", neighbors, assumed_malicious)
    wl_euc, _ = density_whitelist(x, "euc", neighbors, assumed_malicious)
    merged = _intersect(
        wl_cos, wl_euc, "merged whitelist empty; falling back to the cosine whitelist"
    )
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
    ``ModelParams.theta`` order.  For each client, average everyone
    else's update, apply it, and record validation loss and error.  A low
    leave-one-out value means the excluded client was hurting, so the
    ceil(M_f * N) lowest are rejected under each criterion and the
    whitelist is the intersection of the two keep-sets (loss keep-set on an
    empty intersection).  A probe whose loss is not finite scores +inf
    under both screens, and one logged warning counts such probes: the
    model is broken even without client i, so i is not the one breaking
    it.  The probes let numpy warn about no overflow, and run the
    validation set's ``cols`` when it has them.  The count is taken on
    the decimal M_f (``data.exact_share``); an M_f that would reject
    every client is a ``ConfigError`` before the first probe.

    Each probe model is theta - (x_j0 + x_j1 + ...) * (1 / (N - 1)): the
    others in the ascending left fold of ``nn.mean_grads``, then subtracted
    as ``nn.apply_update`` would, so the losses equal those of a
    mean-then-apply probe bit for bit.  A running buffer keeps the fold's
    prefix x_0 + ... + x_{i-1}, and probe i continues a copy of it with
    x_{i+1} ... x_{N-1}, so the probes add about N^2 / 2 rows, not N^2.
    ``runtime.split`` hands whole probes (fold, forward, loss, error) to
    its worker under the contract in the ``runtime`` docstring; each half
    builds its own prefix by the same ascending adds, so every loss keeps
    its bits.  The probes call ``nn``'s kernels, not its traced names.
    The shortcut (S - x_i) / (N - 1) is not used: a Byzantine client picks
    its own magnitude, and subtracting a huge x_i back out of S cancels
    away every other client's contribution.
    """
    n = len(amped_restored)
    if n == 0:
        raise ConfigError("no updates to aggregate")
    if len(validation) == 0:
        raise ConfigError("prediction-based screening needs a validation set")
    reject = math.ceil(exact_share(assumed_malicious, n))
    if reject >= n:
        raise ConfigError(f"assumed_malicious {assumed_malicious} rejects all {n} clients")
    theta = model.theta
    for row in amped_restored:
        if np.shape(row) != theta.shape:
            raise ConfigError(
                f"restored update has shape {np.shape(row)}, model has {theta.size} parameters"
            )
    scale = 1.0 / max(n - 1, 1)  # a lone client is its own probe
    losses = np.zeros(n)
    errors = np.zeros(n)

    def probes(lo: int, hi: int) -> None:
        """Probes lo .. hi - 1 into ``losses`` and ``errors``."""
        prefix, probe = np.empty((2, theta.size))  # prefix: x_0 + ... + x_{i-1}
        for i in range(hi):
            if i == 1:
                np.copyto(prefix, amped_restored[0])
            elif i > 1:
                prefix += amped_restored[i - 1]
            if i < lo:
                continue
            if i == 0:
                np.copyto(probe, amped_restored[min(1, n - 1)])
                rest = amped_restored[2:]
            else:
                np.copyto(probe, prefix)
                rest = amped_restored[i + 1 :]
            for row in rest:
                probe += row
            probe *= scale
            np.subtract(theta, probe, out=probe)
            trace = nn._forward(
                nn.ModelParams(model.layers, probe), validation.features, validation.cols
            )
            loss = nn._loss_value(trace, validation.labels)
            if math.isfinite(loss):
                losses[i] = loss
                errors[i] = np.mean(np.argmax(trace.logits, axis=1) != validation.labels)
            else:
                losses[i] = errors[i] = math.inf

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        runtime.split(n, probes, theta.size)
    broken = int(np.count_nonzero(losses == math.inf))
    if broken:
        log.warning("%d non-finite leave-one-out losses; scoring those probes +inf", broken)
    keep = n - reject
    whitelist = _intersect(
        _keep_top(losses, keep),
        _keep_top(errors, keep),
        "loss and error keep-sets disjoint; keeping the loss set",
    )
    return whitelist, losses


# ---------------------------------------------------------------------------
# trust bootstrapping


def fltrust_aggregate(
    views, ref_view: np.ndarray, originals: np.ndarray, ref_original: np.ndarray
) -> AggregationDecision:
    """Trust-weighted mean of norm-matched original updates.

    Trust score per client is the ReLU-clipped cosine between the client's
    row in ``views`` and the server reference's amplified row ``ref_view``;
    each original update is rescaled to the reference norm before
    weighting.  A zero-trust row adds nothing, not even 0 * NaN, and all
    trust at zero yields a zero update (round skipped).  An overflowing
    row's norms and terms go non-finite without a numpy warning.
    """
    n = len(views)
    if n == 0 or n != len(originals):
        raise ConfigError("amplified and original update lists disagree")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ts = np.array([max(0.0, _cosine(v, ref_view)) for v in views])
        ref_norm = float(np.linalg.norm(ref_original))
        total = ts.sum()
        if total == 0.0:
            log.warning("all trust scores zero; emitting a zero update")
            update = np.zeros_like(originals[0])
        else:
            update = None
            for w, g in zip(ts, originals):
                if w == 0.0:
                    continue
                gn = float(np.linalg.norm(g))
                scale = 0.0 if gn == 0.0 else w * ref_norm / gn
                term = (scale / total) * g
                if update is None:
                    update = term
                else:
                    update += term
    return AggregationDecision(update, ts, ts > 0.0, views)


# ---------------------------------------------------------------------------
# round-level entry point


def aggregate_round(
    updates: np.ndarray,
    config: AggregatorConfig,
    model: nn.ModelParams,
    validation: Dataset | None = None,
    reference: np.ndarray | None = None,
) -> AggregationDecision:
    """Score the rows of the (N, P) update matrix on one amplification of
    them, update from the original rows, and hand the scored rows back as
    ``views``; fang probes the model on ``validation``.  fltrust also
    scores ``reference``, the server-trained trust update; with the xai
    amplifier it reads every row through one filter selection, taken from
    the server's own reference model, so every trust cosine compares
    coordinates of the same filters."""
    n = len(updates)
    if n == 0:
        raise ConfigError("no updates to aggregate")
    if config.family == "fedavg":
        return AggregationDecision(nn.mean_grads(updates), np.ones(n), np.ones(n, dtype=bool))
    if config.family == "fang" and validation is None:
        raise ConfigError("prediction-based screening needs a validation set")

    amp = config.amplifier
    if config.family == "fltrust":
        if reference is None:
            raise ConfigError("trust bootstrapping needs a server reference update")
        fixed = None
        if amp.kind == "xai" and validation is not None:
            fixed = xai_selection(model, reference, validation, amp.top_p)
        views = [a.values for a in amplify(updates, amp, model, validation, fixed)]
        ref = amplify(reference[None], amp, model, validation, fixed)[0]
        return fltrust_aggregate(views, ref.values, updates, reference)
    views = [a.values for a in amplify(updates, amp, model, validation)]
    neighbors = config.neighbors or n // 2 + 1
    if config.family == "fang":  # restored amplified updates drive the prediction screens
        wl, scores = fang_whitelist(views, model, validation, config.assumed_malicious)
    elif config.family == "dist-merged":
        wl, scores = merged_whitelist(views, neighbors, config.assumed_malicious)
    else:
        metric = "cos" if config.family == "dist-cos" else "euc"
        wl, scores = density_whitelist(views, metric, neighbors, config.assumed_malicious)
    accepted = np.zeros(n, dtype=bool)
    accepted[wl] = True
    # row views, not updates[wl], which would copy the rows
    update = nn.mean_grads([updates[i] for i in wl])
    return AggregationDecision(update, scores, accepted, views)
