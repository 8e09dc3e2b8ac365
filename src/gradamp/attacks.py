"""Poisoning strategies for the malicious cohort.

The cohort is a fixed seeded choice of floor(M_f * N) clients.  Before the
attack's start round every member submits its honest update bit for bit.
Once active:

    l-flip         retrain on the own shard with labels y -> M - 1 - y
    g-asc          collude on -gamma times the average honest update
    l-flip+g-asc   sum of the two perturbations, both from the own shard
    scale          retrain on a trigger-augmented shard, scale by lambda
                   (lambda "auto-n" means the federation size N)
    dba            trigger split in four; each member stamps one part,
                   assigned round-robin over the cohort, no scaling
    sh-optimized   collude on mu - gamma * sigma over the honest updates,
                   gamma halved from gamma_max until the craft would pass a
                   stand-in cosine screen (at most 20 halvings)

Data-poisoning kinds retrain with the same per-(round, client) seed as the
honest pass, so the only difference is the poisoned shard itself.

A round's updates are the rows of one (N, P) matrix.  ``craft_updates``
overwrites the malicious rows of that matrix in place, so no second N x P
array is made.  A crafted row reads only honest rows: the colluding kinds
compute their one crafted row before writing it, and l-flip+g-asc reads
only the row it then replaces.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import Dataset, TriggerSpec, default_trigger, embed_trigger
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

    @property
    def targeted(self) -> bool:
        return self.kind in TARGETED_KINDS


def select_malicious(num_clients: int, fraction: float, seed: int) -> list[int]:
    """Fixed seeded cohort of floor(fraction * N) clients for a whole run."""
    count = int(fraction * num_clients)
    if count == 0:
        return []
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0]))
    return sorted(int(i) for i in rng.choice(num_clients, size=count, replace=False))


def flip_labels(shard: Dataset, num_classes: int) -> Dataset:
    """Static label flip y -> M - 1 - y."""
    return Dataset(shard.features.copy(), num_classes - 1 - shard.labels, num_classes)


def grad_ascent(benign_update: np.ndarray, gamma: float = 1.0) -> np.ndarray:
    """Reversed update -gamma * g; gamma 1 makes this an involution."""
    return -gamma * benign_update


def sh_candidate(honest: np.ndarray, gamma: float) -> np.ndarray:
    """mu - gamma * sigma over the (N, P) honest update matrix
    (population sigma)."""
    return honest.mean(axis=0) - gamma * honest.std(axis=0)


def sh_optimized(honest: np.ndarray, gamma_max: float) -> tuple[np.ndarray, float]:
    """Shift along the negative deviation as far as a cosine screen allows.

    ``honest`` is the (N, P) matrix of every client's honest update.  The
    stand-in screen accepts a craft whose cosine to the honest mean is at
    least the median honest cosine; gamma halves from gamma_max until that
    holds, at most 20 times, else falls back to the mean itself.
    """
    x = honest
    if len(x) < 2:
        log.warning("single honest update; deviation is zero, crafting the mean")
    mu = x.mean(axis=0)
    sigma = x.std(axis=0)
    mu_norm = np.linalg.norm(mu)

    def cos_to_mu(v: np.ndarray) -> float:
        nv = np.linalg.norm(v)
        if nv == 0.0 or mu_norm == 0.0:
            return 0.0
        return float(np.dot(v, mu) / (nv * mu_norm))

    threshold = float(np.median([cos_to_mu(row) for row in x]))
    gamma = float(gamma_max)
    chosen = None
    for _ in range(20):
        cand = mu - gamma * sigma
        if cos_to_mu(cand) >= threshold:
            chosen = cand
            break
        gamma /= 2.0
    if chosen is None:
        gamma = 0.0
        chosen = mu
    return chosen, gamma


# ---------------------------------------------------------------------------
# round orchestration


@dataclass
class AttackContext:
    """Everything the cohort needs to rebuild its updates each round."""

    malicious: list[int]
    shards: list[Dataset]
    num_classes: int
    num_clients: int
    epochs: int
    batch_size: int
    lr: float
    seed_clients: int
    seed_attack: int
    trigger: TriggerSpec | None = None


def _retrain(
    model: nn.ModelParams, shard: Dataset, ctx: AttackContext, round_idx: int, client: int
) -> np.ndarray:
    return nn.local_train(
        model,
        shard.features,
        shard.labels,
        epochs=ctx.epochs,
        batch_size=ctx.batch_size,
        lr=ctx.lr,
        seed=rng_stream(ctx.seed_clients, round_idx, client),
    )


def craft_updates(
    round_idx: int,
    updates: np.ndarray,
    model: nn.ModelParams,
    cfg: AttackConfig,
    ctx: AttackContext,
) -> np.ndarray:
    """Overwrite the malicious rows of the (N, P) honest update matrix in
    place once the attack is on, and return the matrix."""
    if cfg.kind == "none" or round_idx < cfg.start_round or not ctx.malicious:
        return updates
    if cfg.kind in ("g-asc", "sh-optimized"):
        if cfg.kind == "g-asc":
            crafted = grad_ascent(nn.mean_grads(updates), cfg.gamma)
        else:
            crafted, _ = sh_optimized(updates, cfg.sh_gamma_max)
        updates[ctx.malicious] = crafted
        return updates
    if cfg.kind in ("l-flip", "l-flip+g-asc"):
        for m in ctx.malicious:
            shard = flip_labels(ctx.shards[m], ctx.num_classes)
            flipped = _retrain(model, shard, ctx, round_idx, m)
            if cfg.kind == "l-flip+g-asc":
                flipped += grad_ascent(updates[m], cfg.gamma)
            updates[m] = flipped
        return updates
    if ctx.trigger is None:
        raise ConfigError(f"attack {cfg.kind!r} needs a trigger")
    lam = float(ctx.num_clients) if cfg.scale_factor == "auto-n" else float(cfg.scale_factor)
    for rank, m in enumerate(ctx.malicious):
        # scale stamps the whole trigger and boosts by lambda; dba assigns
        # the quadrant parts round-robin over the cohort, no scaling
        poisoned = embed_trigger(
            ctx.shards[m],
            ctx.trigger,
            cfg.trigger_fraction,
            part_index=0 if cfg.kind == "scale" else rank % ctx.trigger.split_parts,
            seed=rng_stream(ctx.seed_attack, round_idx, m).integers(2**32),
        )
        update = _retrain(model, poisoned, ctx, round_idx, m)
        updates[m] = lam * update if cfg.kind == "scale" else update
    return updates


def resolve_trigger(cfg: AttackConfig, feature_shape: tuple[int, ...]) -> TriggerSpec | None:
    """Default trigger geometry for targeted kinds; None otherwise."""
    if not cfg.targeted:
        return None
    parts = 4 if cfg.kind == "dba" else 1
    return default_trigger(feature_shape, cfg.target_label, parts)
