"""Poisoning strategies for the malicious cohort.

The cohort is a fixed seeded choice of floor(M_f * N) clients.  Before the
attack's start round every member submits its honest update bit for bit.
Once active:

    l-flip         train on the own shard with labels y -> M - 1 - y
    g-asc          collude on -gamma times the average honest update
    l-flip+g-asc   sum of the two perturbations, both from the own shard
    scale          train on a trigger-augmented shard, scale by lambda
                   (lambda "auto-n" means the federation size N)
    dba            trigger split in four regions; each member stamps one,
                   assigned round-robin over the cohort, no scaling
    sh-optimized   collude on mu - gamma * sigma over the honest updates,
                   gamma halved from gamma_max until the craft would pass a
                   stand-in cosine screen (at most 20 halvings)

The kinds split along the line between data poisoning and local model
poisoning (Fang et al., 2020).  ``poisoned_shards`` gives each cohort
member the shard it trains on in place of its own; it trains in the
round's one ``train_all`` of the run's ``nn.LocalTraining`` recipe, on the
honest per-(round, client) stream, so only the data differs.
``craft_updates`` then only rewrites the malicious rows of the round's
(N, P) update matrix in place: g-asc and sh-optimized compute their one
crafted row from the matrix before writing it, scale boosts its rows by
lambda, and l-flip+g-asc adds the ascent of its members' honest updates,
which it retrains into a buffer of its own.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, TriggerSpec, default_trigger, embed_trigger, exact_share
from .errors import ConfigError
from .seeding import rng_stream
from . import nn

log = logging.getLogger(__name__)

ATTACK_KINDS = ("none", "l-flip", "g-asc", "l-flip+g-asc", "scale", "dba", "sh-optimized")
TARGETED_KINDS = ("scale", "dba")


@dataclass(frozen=True)
class AttackConfig:
    kind: str = "none"
    malicious_fraction: float = 0.3
    start_round: int = 20
    gamma: float = 1.0                    # ascent multiplier
    scale_factor: float | str = "auto-n"  # lambda; "auto-n" -> cohort size N
    sh_gamma_max: float = 10.0
    target_label: int = 0
    trigger_fraction: float = 0.5         # of the shard duplicated and stamped

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ConfigError(f"unknown attack kind {self.kind!r}")
        if not 0.0 <= self.malicious_fraction < 1.0:
            raise ConfigError("malicious_fraction must lie in [0, 1)")
        if self.start_round < 0:
            raise ConfigError("start_round must be >= 0")
        if isinstance(self.scale_factor, str) and self.scale_factor != "auto-n":
            raise ConfigError("scale_factor must be a number or 'auto-n'")
        if not 0.0 <= self.trigger_fraction <= 1.0:
            raise ConfigError("trigger_fraction must lie in [0, 1]")
        if self.sh_gamma_max <= 0:
            raise ConfigError("sh_gamma_max must be positive")
        if self.target_label < 0:
            raise ConfigError("target_label must be >= 0")

    @property
    def targeted(self) -> bool:
        return self.kind in TARGETED_KINDS


def select_malicious(num_clients: int, fraction: float, seed: int) -> list[int]:
    """Fixed seeded cohort of floor(fraction * N) clients for a whole run,
    counted on the decimal fraction (``data.exact_share``)."""
    count = math.floor(exact_share(fraction, num_clients))
    if count == 0:
        return []
    rng = rng_stream(seed, 0xC0)
    return sorted(int(i) for i in rng.choice(num_clients, size=count, replace=False))


def flip_labels(shard: Dataset) -> Dataset:
    """Static label flip y -> M - 1 - y."""
    m = shard.num_classes
    return Dataset(shard.features.copy(), m - 1 - shard.labels, m)


def grad_ascent(benign_update: np.ndarray, gamma: float = 1.0) -> np.ndarray:
    """Reversed update -gamma * g; gamma 1 makes this an involution."""
    return -gamma * benign_update


def sh_optimized(honest: np.ndarray, gamma_max: float) -> tuple[np.ndarray, float]:
    """Shift along the negative deviation as far as a cosine screen allows.

    ``honest`` is the (N, P) matrix of every client's honest update.  The
    stand-in screen accepts a craft whose cosine to the honest mean is at
    least the median honest cosine; gamma halves from gamma_max until that
    holds, at most 20 times, else logs a warning and falls back to the
    mean itself.
    """
    x = honest
    if len(x) < 2:
        log.warning("single honest update; deviation is zero, crafting the mean")
    # an overflowing update gives non-finite statistics without a numpy warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mu = x.mean(axis=0)
        sigma = x.std(axis=0)
        mu_norm = np.linalg.norm(mu)

        def cos_to_mu(v: np.ndarray) -> float:
            nv = np.linalg.norm(v)
            if nv == 0.0 or mu_norm == 0.0:
                return 0.0
            return float(np.dot(v, mu) / (nv * mu_norm))

        threshold = _median([cos_to_mu(row) for row in x])
        gamma = float(gamma_max)
        chosen = None
        for _ in range(20):
            cand = mu - gamma * sigma
            if cos_to_mu(cand) >= threshold:
                chosen = cand
                break
            gamma /= 2.0
    if chosen is None:
        log.warning("no shift passed the cosine screen in 20 halvings; crafting the mean")
        gamma = 0.0
        chosen = mu
    return chosen, gamma


def _median(values: list[float]) -> float:
    """``np.median`` of a non-empty list, bit for bit: the same partition,
    the mean of the middle one or two values, and the NaN the partition put
    last when there is one.  ``np.median``'s own NaN check imports
    ``numpy.ma`` on first use, about 17 ms in a fresh process."""
    a = np.asarray(values, dtype=np.float64)
    half, odd = divmod(a.size, 2)
    part = np.partition(a, [half, -1] if odd else [half - 1, half, -1])
    if np.isnan(part[-1]):
        return float(part[-1])
    return float(part[half - 1 + odd : half + 1].mean())


# ---------------------------------------------------------------------------
# round orchestration


@dataclass
class AttackContext:
    """Everything the cohort needs to rebuild its updates each round."""

    malicious: list[int]
    shards: list[Dataset]
    train: nn.LocalTraining  # the honest clients' recipe
    seed_attack: int
    trigger: TriggerSpec | None = None


def poisoned_shards(round_idx: int, cfg: AttackConfig, ctx: AttackContext) -> dict[int, Dataset]:
    """The shard each cohort member trains on in round ``round_idx`` in
    place of its own: flipped labels under l-flip and l-flip+g-asc, a
    stamped copy under scale and dba; none before the attack is on."""
    mal = ctx.malicious
    if round_idx < cfg.start_round or not mal:
        return {}
    if cfg.kind in ("l-flip", "l-flip+g-asc"):
        return {m: flip_labels(ctx.shards[m]) for m in mal}
    if not cfg.targeted:
        return {}
    if ctx.trigger is None:
        raise ConfigError(f"attack {cfg.kind!r} needs a trigger")
    # member ``rank`` stamps region rank mod the region count: scale's one
    # region or dba's four round-robin
    return {
        m: embed_trigger(
            ctx.shards[m],
            ctx.trigger,
            cfg.trigger_fraction,
            part_index=rank % len(ctx.trigger.regions),
            seed=rng_stream(ctx.seed_attack, round_idx, m).integers(2**32),
        )
        for rank, m in enumerate(mal)
    }


def craft_updates(
    round_idx: int,
    updates: np.ndarray,
    model: nn.ModelParams,
    cfg: AttackConfig,
    ctx: AttackContext,
) -> np.ndarray:
    """Overwrite the malicious rows of the (N, P) update matrix in place
    once the attack is on, and return the matrix.  The rows arrive trained
    on ``poisoned_shards``."""
    mal = ctx.malicious
    if round_idx < cfg.start_round or not mal:
        return updates
    if cfg.kind == "g-asc":
        updates[mal] = grad_ascent(nn.mean_grads(updates), cfg.gamma)
    elif cfg.kind == "sh-optimized":
        updates[mal] = sh_optimized(updates, cfg.sh_gamma_max)[0]
    elif cfg.kind == "scale":
        updates[mal] *= float(len(ctx.shards) if cfg.scale_factor == "auto-n" else cfg.scale_factor)
    elif cfg.kind == "l-flip+g-asc":
        honest = np.empty((len(mal), updates.shape[1]))
        ctx.train.train_all(model, [ctx.shards[m] for m in mal], round_idx, honest, mal)
        updates[mal] += grad_ascent(honest, cfg.gamma)
    return updates


def resolve_trigger(cfg: AttackConfig, feature_shape: tuple[int, ...]) -> TriggerSpec | None:
    """Default trigger geometry for targeted kinds; None otherwise."""
    if not cfg.targeted:
        return None
    parts = 4 if cfg.kind == "dba" else 1
    return default_trigger(feature_shape, cfg.target_label, parts)
