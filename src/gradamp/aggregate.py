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
The screens take flat rows too: ``scored_views`` unwraps the amplifier's
output, and each screen scores a sequence of (L,) rows or an (N, L)
matrix, whichever it is given.
Plain means are ``nn.mean_grads`` folds over row views: fedavg's over
every row, a whitelist's over its accepted rows.  The fang probes sum
the same ascending fold from a running prefix, one probe ahead: while
probe i runs the validation set, probe i + 1's fold runs on the worker
thread of ``runtime`` when there is one (see ``fang_whitelist``).

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
    NaN ranks below every number."""
    vals = np.asarray(scores, dtype=np.float64).tolist()
    # v == v is False only for NaN; one tolist, no numpy call per score
    ranks = [(False, -v, i) if v == v else (True, 0.0, i) for i, v in enumerate(vals)]
    return sorted(i for *_, i in sorted(ranks)[:keep])


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
    ``ModelParams.theta`` order.  For each client, average everyone
    else's update, apply it, and record validation loss and error.  A low
    leave-one-out value means the excluded client was hurting, so the
    ceil(M_f * N) lowest are rejected under each criterion and the
    whitelist is the intersection of the two keep-sets (loss keep-set on an
    empty intersection).  A probe whose loss is not finite scores +inf
    under both screens: the model is broken even without client i, so i
    is not the one breaking it.  The probes let numpy warn about no
    overflow, and run the validation set's ``cols`` when it has them.  The
    count is taken on the decimal M_f (``data.exact_share``); an M_f that
    would reject every client is a ``ConfigError`` before the first probe.

    Each probe model is theta - (x_j0 + x_j1 + ...) * (1 / (N - 1)): the
    others in the ascending left fold of ``nn.mean_grads``, then subtracted
    as ``nn.apply_update`` would, so the losses equal those of a
    mean-then-apply probe bit for bit.  A running buffer keeps the fold's
    prefix x_0 + ... + x_{i-1}, and probe i continues a copy of it with
    x_{i+1} ... x_{N-1}, so the probes add about N^2 / 2 rows, not N^2.
    The fold runs one probe ahead, into the other of two buffers: probe
    i + 1's fold goes to ``runtime.worker()`` while this thread runs probe
    i's forward, loss and error.  It runs inline when there is no worker or
    the rows are shorter than ``nn.STACK_FLOATS``, where handing it over
    costs more than the fold.  Either way it is the same operations in the
    same order, so the losses keep their bits; an exception in the fold is
    raised here.
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
    prefix, *bufs = np.empty((3, theta.size))  # prefix: x_0 + ... + x_{i-1}
    scale = 1.0 / max(n - 1, 1)  # a lone client is its own probe

    def fold(i: int) -> np.ndarray:
        """Probe i's parameters into ``bufs[i % 2]``; advances the prefix, so
        probe i's fold must end before probe i + 1's starts."""
        buf = bufs[i % 2]
        # numpy's error state is per thread: the worker needs its own
        with np.errstate(over="ignore", invalid="ignore"):
            if i == 0:
                np.copyto(buf, amped_restored[min(1, n - 1)])
                np.copyto(prefix, amped_restored[0])
                rest = amped_restored[2:]
            else:
                np.copyto(buf, prefix)
                np.add(prefix, amped_restored[i], out=prefix)
                rest = amped_restored[i + 1 :]
            for row in rest:
                buf += row
            buf *= scale
            np.subtract(theta, buf, out=buf)
        return buf

    # a fold shorter than STACK_FLOATS costs less than handing it over
    pool = runtime.worker() if theta.size >= nn.STACK_FLOATS else None
    ahead = None  # probe i's fold, running on the worker
    losses = np.zeros(n)
    errors = np.zeros(n)
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for i in range(n):
                probe = fold(i) if ahead is None else ahead.result()
                ahead = pool.submit(fold, i + 1) if pool is not None and i + 1 < n else None
                trace = nn.forward(
                    nn.ModelParams(model.layers, probe), validation.features, validation.cols
                )
                loss = nn.loss_value(trace, validation.labels)
                if math.isfinite(loss):
                    losses[i] = loss
                    errors[i] = np.mean(np.argmax(trace.logits, axis=1) != validation.labels)
                else:
                    losses[i] = errors[i] = math.inf
    finally:
        if ahead is not None:  # a probe or a fold raised: let the fold ahead end first
            ahead.exception()
    keep = n - reject
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
    views, ref_view: np.ndarray, originals: np.ndarray, ref_original: np.ndarray
) -> AggregationDecision:
    """Trust-weighted mean of norm-matched original updates.

    Trust score per client is the ReLU-clipped cosine between the client's
    row in ``views`` and the server reference's amplified row ``ref_view``;
    each original update is rescaled to the reference norm before
    weighting.  A zero-trust row adds nothing, not even 0 * NaN, and all
    trust at zero yields a zero update (round skipped).
    """
    n = len(views)
    if n == 0 or n != len(originals):
        raise ConfigError("amplified and original update lists disagree")
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
    return AggregationDecision(update, ts, ts > 0.0)


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
    update = nn.mean_grads([originals[i] for i in whitelist])
    return AggregationDecision(update, scores, accepted)


def scored_views(
    grads: np.ndarray, config: AggregatorConfig, context: RoundContext
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """The amplified rows ``config.family`` scores: one per row of the (N,
    P) update matrix, plus the server reference's row for fltrust (else
    None).  fltrust with the xai amplifier reads every row through one
    filter selection, taken from the server's own reference model, so every
    trust cosine compares coordinates of the same filters.  fedavg scores
    nothing and gets the configured amplifier's rows."""
    amp = config.amplifier
    model, validation = context.model, context.validation
    if config.family != "fltrust":
        return [a.values for a in amplify(grads, amp, model, validation)], None
    if context.ref_update is None:
        raise ConfigError("trust bootstrapping needs a server reference update")
    fixed = None
    if amp.kind == "xai" and validation is not None:
        fixed = xai_selection(model, context.ref_update, validation, amp.top_p)
    views = amplify(grads, amp, model, validation, fixed)
    ref = amplify(context.ref_update[None], amp, model, validation, fixed)[0]
    return [a.values for a in views], ref.values


def aggregate_round(
    grads: np.ndarray,
    config: AggregatorConfig,
    context: RoundContext,
) -> AggregationDecision:
    """Score the rows of the (N, P) update matrix on their ``scored_views``,
    update from the original rows."""
    n = len(grads)
    if n == 0:
        raise ConfigError("no updates to aggregate")
    if config.family == "fedavg":
        return AggregationDecision(nn.mean_grads(grads), np.ones(n), np.ones(n, dtype=bool))
    if config.family == "fang" and context.validation is None:
        raise ConfigError("prediction-based screening needs a validation set")

    views, ref_view = scored_views(grads, config, context)
    if config.family == "fltrust":
        return fltrust_aggregate(views, ref_view, grads, context.ref_update)
    if config.family == "fang":
        # restored amplified updates drive the prediction screens
        wl, scores = fang_whitelist(
            views, context.model, context.validation, config.assumed_malicious
        )
        return _whitelist_decision(wl, scores, grads)
    neighbors = config.neighbors or n // 2 + 1
    if config.family == "dist-merged":
        wl, scores = merged_whitelist(views, neighbors, config.assumed_malicious)
    else:
        metric = "cos" if config.family == "dist-cos" else "euc"
        wl, scores = density_whitelist(views, metric, neighbors, config.assumed_malicious)
    return _whitelist_decision(wl, scores, grads)
