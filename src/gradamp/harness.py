"""Experiment runner: seeded federated rounds with full file provenance.

A run folder holds::

    config.txt      canonical configuration; the hash skips its output.* keys
    rounds.csv      round, test_accuracy, asr        (nan when untargeted)
    decisions.csv   round, client_id, score, accepted
    timings.csv     round, wall_ms
    amplified.csv   client_id, index, value          (optional debug dump)
    manifest.txt    hash, seeds, artifact checksums, status, warnings

``run.status`` is ``ok``, ``error`` (any exception, with ``run.error``
naming the round and the exception) or ``diverged``: the global model
held a non-finite parameter after a round's server step, which raises
``DivergenceError`` and ends the run there.

The configuration and its three seeds fully determine every byte of
rounds.csv, decisions.csv, and the pair-level metrics.csv; wall-clock
numbers live only in timings.csv and the manifest, so reruns can be
compared checksum for checksum.

Round k (1-based) trains every client on the model left by round k-1;
the attack, when enabled, rewrites malicious updates from round
start_round + 1 onward, so start_round >= rounds means it never fires.
Checkpoints land every ``checkpoint_every`` rounds plus round 0 (the
untouched initial model) and the final round.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .aggregate import AggregatorConfig, RoundContext, aggregate_round, scored_views
from .attacks import AttackConfig, AttackContext, craft_updates, resolve_trigger, select_malicious
from .config import ExperimentConfig
from .data import (
    Dataset,
    TriggerSpec,
    format_float,
    load_csv,
    load_idx,
    make_triggered_set,
    partition,
    sample_validation,
    split_pools,
    synth_blobs,
)
from .errors import ConfigError, DivergenceError, GradampError
from .metrics import (
    MonitorWindow,
    RoundRecord,
    accuracy,
    asr,
    avg_asr,
    avg_ta_loss,
    heterogeneity,
    negative_pulse,
)
from .seeding import rng_stream
from . import nn

# sub-seed tags; arbitrary but frozen, changing them changes every run
_TAG_SPLIT = 11
_TAG_PARTITION = 12
_TAG_VALIDATION = 13
_TAG_TRUST = 14
_TAG_MODEL = 15


def _subseed(*key: int) -> int:
    return int(rng_stream(*key).integers(2**63))


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


@dataclass
class RunManifest:
    run_dir: str
    run_id: str
    config_hash: str
    seeds: dict[str, int]
    status: str
    wall_ms: float
    records: list[RoundRecord]
    heterogeneity: float
    warnings: list[str] = field(default_factory=list)
    checksums: dict[str, str] = field(default_factory=dict)
    error: str | None = None

    @property
    def path(self) -> str:
        return os.path.join(self.run_dir, "manifest.txt")


def build_dataset(cfg: ExperimentConfig) -> Dataset:
    kind = cfg["dataset.kind"]
    if kind == "blobs":
        return synth_blobs(
            num_classes=int(cfg["dataset.classes"]),
            per_class=int(cfg["dataset.per_class"]),
            dim=cfg.dim(),
            spread=float(cfg["dataset.spread"]),
            seed=int(cfg["seeds.data"]),
        )
    if kind == "csv":
        return load_csv(str(cfg["dataset.path"]))
    return load_idx(str(cfg["dataset.images"]), str(cfg["dataset.labels"]))


def build_model(cfg: ExperimentConfig, feature_shape: tuple[int, ...], num_classes: int) -> nn.ModelParams:
    seed = _subseed(int(cfg["seeds.clients"]), _TAG_MODEL)
    if cfg["model.kind"] == "mlp":
        in_dim = int(np.prod(feature_shape))
        return nn.mlp_model(in_dim, int(cfg["model.hidden"]), num_classes, seed)
    if len(feature_shape) != 3:
        raise ConfigError("conv model needs (channels, H, W) features")
    return nn.conv_model(
        feature_shape,
        num_classes,
        seed,
        filters=int(cfg["model.filters"]),
        kernel=int(cfg["model.kernel"]),
        pool=int(cfg["model.pool"]),
    )


@dataclass
class _Prepared:
    shards: list[Dataset]
    test_set: Dataset
    validation: Dataset | None
    trust_set: Dataset | None
    model: nn.ModelParams
    trigger: TriggerSpec | None
    malicious: list[int]
    hetero: float
    warnings: list[str]
    attack_cfg: AttackConfig
    agg_cfg: AggregatorConfig


def _prepare(cfg: ExperimentConfig, attack_enabled: bool) -> _Prepared:
    warnings: list[str] = []
    seed_data = int(cfg["seeds.data"])
    full = build_dataset(cfg)
    train_pool, server_pool, test_set = split_pools(
        full,
        float(cfg["dataset.test_fraction"]),
        float(cfg["dataset.server_fraction"]),
        _subseed(seed_data, _TAG_SPLIT),
    )
    if len(test_set) == 0:
        raise ConfigError("test split is empty; raise dataset.test_fraction or the dataset size")
    n_clients = int(cfg["federation.clients"])
    plan = partition(
        train_pool,
        n_clients,
        str(cfg["partition.scheme"]),
        float(cfg["partition.skew"]),
        _subseed(seed_data, _TAG_PARTITION),
    )
    shards = [train_pool.subset(idx) for idx in plan.shards]
    keep = [i for i, s in enumerate(shards) if len(s) > 0]
    if len(keep) < len(shards):
        dropped = sorted(set(range(len(shards))) - set(keep))
        warnings.append(f"clients {dropped} received empty shards and sit out the run")
        shards = [shards[i] for i in keep]
    if len(shards) < 2:
        raise ConfigError("fewer than two clients hold data")

    agg = cfg.aggregator_config()
    need_validation = agg.family == "fang" or agg.amplifier.kind == "xai"
    val_pool = train_pool if bool(cfg["validation.allow_overlap"]) else server_pool
    validation = (
        sample_validation(val_pool, cfg.validation_spec(), _subseed(seed_data, _TAG_VALIDATION))
        if need_validation
        else None
    )
    trust_set = (
        sample_validation(val_pool, cfg.trust_spec(), _subseed(seed_data, _TAG_TRUST))
        if agg.family == "fltrust"
        else None
    )

    attack_cfg = cfg.attack_config()
    trigger = resolve_trigger(attack_cfg, train_pool.feature_shape)
    malicious = (
        select_malicious(len(shards), attack_cfg.malicious_fraction, int(cfg["seeds.attack"]))
        if attack_enabled
        else []
    )
    model = build_model(cfg, train_pool.feature_shape, full.num_classes)
    return _Prepared(
        shards=shards,
        test_set=test_set,
        validation=validation,
        trust_set=trust_set,
        model=model,
        trigger=trigger,
        malicious=malicious,
        hetero=heterogeneity(train_pool),
        warnings=warnings,
        attack_cfg=attack_cfg,
        agg_cfg=agg,
    )


def _evaluate(
    model: nn.ModelParams,
    round_idx: int,
    test_set: Dataset,
    triggered: Dataset | None,
    target_label: int,
    wall_ms: float,
) -> RoundRecord:
    ta = accuracy(model, test_set)
    s = asr(model, triggered, target_label) if triggered is not None else float("nan")
    return RoundRecord(round=round_idx, test_accuracy=ta, asr=s, wall_ms=wall_ms)


def _write_rows(path: str, header: str, rows: list[str]) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def run_experiment(
    cfg: ExperimentConfig, out_dir: str | None = None, attack_enabled: bool = True
) -> RunManifest:
    """Execute one full run and write its folder; returns the manifest."""
    out_dir = out_dir or str(cfg["output.dir"])
    os.makedirs(out_dir, exist_ok=True)
    started = time.perf_counter()

    run_id = cfg.config_hash()[:12] + ("-attacked" if attack_enabled else "-clean")
    records: list[RoundRecord] = []
    decision_rows: list[str] = []
    prep = None
    status = "ok"
    error_note = None
    current_round = 0
    try:
        prep = _prepare(cfg, attack_enabled)
        attack_cfg, agg_cfg = prep.attack_cfg, prep.agg_cfg
        n_clients = len(prep.shards)
        rounds = int(cfg["federation.rounds"])
        every = int(cfg["federation.checkpoint_every"])
        train = nn.LocalTraining(
            int(cfg["local.epochs"]),
            int(cfg["local.batch"]),
            float(cfg["local.lr"]),
            int(cfg["seeds.clients"]),
        )
        dump_round = int(cfg["output.dump_amplified_round"])

        triggered = (
            make_triggered_set(prep.test_set, prep.trigger) if prep.trigger is not None else None
        )
        if triggered is not None and len(triggered) == 0:
            triggered = None

        ctx = AttackContext(
            prep.malicious, prep.shards, train, int(cfg["seeds.attack"]), prep.trigger
        )
        model = prep.model
        # one row per client, rewritten every round: training and crafting
        # write the rows in place, screening and the mean read them
        updates = np.empty((n_clients, model.theta.size))

        records.append(
            _evaluate(model, 0, prep.test_set, triggered, attack_cfg.target_label, 0.0)
        )
        last_mark = time.perf_counter()
        for k in range(1, rounds + 1):
            current_round = k
            r = k - 1  # zero-based index used by seeds and the attack gate
            train.train_all(model, prep.shards, r, updates)
            submitted = (
                craft_updates(r, updates, model, attack_cfg, ctx) if attack_enabled else updates
            )
            # the server trains its trust reference as client number N
            ref_update = (
                train(model, prep.trust_set, r, n_clients) if agg_cfg.family == "fltrust" else None
            )
            round_ctx = RoundContext(model, prep.validation, ref_update)
            decision = aggregate_round(submitted, agg_cfg, round_ctx)
            for i in range(n_clients):
                decision_rows.append(
                    f"{k},{i},{format_float(decision.scores[i])},{int(decision.accepted[i])}"
                )
            if k == dump_round:
                _dump_amplified(out_dir, submitted, agg_cfg, round_ctx)
            model = nn.apply_update(model, decision.global_update, 1.0)
            if not np.isfinite(model.theta).all():
                raise DivergenceError("model parameters are no longer finite")
            if k % every == 0 or k == rounds:
                now = time.perf_counter()
                records.append(
                    _evaluate(
                        model,
                        k,
                        prep.test_set,
                        triggered,
                        attack_cfg.target_label,
                        (now - last_mark) * 1000.0,
                    )
                )
                last_mark = now
    except BaseException as exc:
        status = "diverged" if isinstance(exc, DivergenceError) else "error"
        where = f"round {current_round}" if current_round else "setup"
        error_note = f"{where}: {type(exc).__name__}: {exc}"
        raise
    finally:
        wall_ms = (time.perf_counter() - started) * 1000.0
        manifest = RunManifest(
            run_dir=out_dir,
            run_id=run_id,
            config_hash=cfg.config_hash(),
            seeds={
                "data": int(cfg["seeds.data"]),
                "clients": int(cfg["seeds.clients"]),
                "attack": int(cfg["seeds.attack"]),
            },
            status=status,
            wall_ms=wall_ms,
            records=records,
            heterogeneity=prep.hetero if prep is not None else float("nan"),
            warnings=list(prep.warnings) if prep is not None else [],
            error=error_note,
        )
        _write_run_files(out_dir, cfg, manifest, decision_rows)
    return manifest


def _dump_amplified(out_dir, submitted, agg_cfg, round_ctx) -> None:
    """The round's amplified views, as the screen scored them."""
    amped, _ = scored_views(submitted, agg_cfg, round_ctx)
    rows = []
    for cid, a in enumerate(amped):
        for j, v in enumerate(a.values):
            rows.append(f"{cid},{j},{format_float(v)}")
    _write_rows(os.path.join(out_dir, "amplified.csv"), "client_id,index,value", rows)


def _write_run_files(
    out_dir: str, cfg: ExperimentConfig, manifest: RunManifest, decision_rows: list[str]
) -> None:
    with open(os.path.join(out_dir, "config.txt"), "w", encoding="ascii", newline="") as fh:
        fh.write(cfg.canonical_text())
    round_rows = [
        f"{rec.round},{format_float(rec.test_accuracy)},{format_float(rec.asr)}"
        for rec in manifest.records
    ]
    _write_rows(os.path.join(out_dir, "rounds.csv"), "round,test_accuracy,asr", round_rows)
    _write_rows(
        os.path.join(out_dir, "decisions.csv"), "round,client_id,score,accepted", decision_rows
    )
    timing_rows = [f"{rec.round},{format_float(rec.wall_ms)}" for rec in manifest.records]
    _write_rows(os.path.join(out_dir, "timings.csv"), "round,wall_ms", timing_rows)
    for name in ("rounds.csv", "decisions.csv"):
        manifest.checksums[name] = _sha256(os.path.join(out_dir, name))
    lines = {
        "config.hash": manifest.config_hash,
        "metric.heterogeneity": format_float(manifest.heterogeneity),
        "run.id": manifest.run_id,
        "run.rounds_recorded": str(len(manifest.records)),
        "run.status": manifest.status,
        "run.wall_ms": format_float(manifest.wall_ms),
        "seed.attack": str(manifest.seeds["attack"]),
        "seed.clients": str(manifest.seeds["clients"]),
        "seed.data": str(manifest.seeds["data"]),
    }
    if manifest.error is not None:
        lines["run.error"] = manifest.error
    for name, digest in sorted(manifest.checksums.items()):
        lines[f"checksum.{name}"] = digest
    for i, note in enumerate(manifest.warnings):
        lines[f"warning.{i}"] = note
    for name in ("rounds.csv", "decisions.csv", "timings.csv"):
        lines[f"artifact.{name.split('.')[0]}"] = name
    with open(manifest.path, "w", encoding="ascii", newline="") as fh:
        for key in sorted(lines):
            fh.write(f"{key} = {lines[key]}\n")


def read_rounds_csv(path: str) -> list[RoundRecord]:
    records = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "round,test_accuracy,asr":
            raise GradampError(f"{path}: unexpected header {header!r}")
        for line in fh:
            r, ta, s = line.strip().split(",")
            records.append(RoundRecord(int(r), float(ta), float(s)))
    return records


def read_manifest(path: str) -> dict[str, str]:
    out = {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            for line in fh:
                if "=" in line:
                    key, _, value = line.partition("=")
                    out[key.strip()] = value.strip()
    except OSError as exc:
        raise GradampError(f"cannot read manifest {path}: {exc}") from exc
    return out


@dataclass
class PairSummary:
    clean: RunManifest
    attacked: RunManifest
    metrics_path: str
    metrics_row: dict[str, object]


def run_pair(cfg: ExperimentConfig, out_dir: str | None = None) -> PairSummary:
    """Attacked run plus its clean twin (same seeds, attack disabled), and
    the joint metrics table."""
    out_dir = out_dir or str(cfg["output.dir"])
    os.makedirs(out_dir, exist_ok=True)
    clean = run_experiment(cfg, os.path.join(out_dir, "clean"), attack_enabled=False)
    attacked = run_experiment(cfg, os.path.join(out_dir, "attacked"), attack_enabled=True)

    attack_cfg = cfg.attack_config()
    rounds = int(cfg["federation.rounds"])
    window = MonitorWindow(min(attack_cfg.start_round, rounds), rounds)
    ta_loss = avg_ta_loss(clean.records, attacked.records, window)
    pulse = negative_pulse(attacked.records, attack_cfg.start_round)
    s = (
        avg_asr(attacked.records, window)
        if attack_cfg.targeted and not np.isnan(attacked.records[-1].asr)
        else float("nan")
    )
    row = {
        "run_id": cfg.config_hash()[:12],
        "defense": f"{cfg['defense.family']}+{cfg['defense.amplifier']}",
        "attack": str(cfg["attack.kind"]),
        "ta_loss": ta_loss,
        "avg_asr": s,
        "negative_pulse": pulse,
        "heterogeneity": attacked.heterogeneity,
    }
    metrics_path = os.path.join(out_dir, "metrics.csv")
    _write_rows(metrics_path, ",".join(row), [_metrics_line(row)])
    return PairSummary(clean, attacked, metrics_path, row)


def _metrics_line(row: dict[str, object]) -> str:
    """A ``metrics_row`` as its metrics.csv line, in the row's key order."""
    return ",".join(v if isinstance(v, str) else format_float(v) for v in row.values())


def sweep(
    cfg: ExperimentConfig, vary_key: str, values: list[object], out_root: str | None = None
) -> list[PairSummary]:
    """run_pair once per value of one overridden key; summary in sweep.csv."""
    if not values:
        raise ConfigError("sweep needs at least one value")
    out_root = out_root or str(cfg["output.dir"])
    os.makedirs(out_root, exist_ok=True)
    summaries = []
    rows = []
    for value in values:
        sub = cfg.with_overrides({vary_key: value})
        slug = f"{vary_key.replace('.', '-')}-{value}"
        summary = run_pair(sub, os.path.join(out_root, slug))
        summaries.append(summary)
        rows.append(f"{value},{_metrics_line(summary.metrics_row)}")
    header = "value," + ",".join(summaries[0].metrics_row)
    _write_rows(os.path.join(out_root, "sweep.csv"), header, rows)
    return summaries
