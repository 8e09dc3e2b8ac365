"""Experiment runner: seeded federated rounds with full file provenance.

A run folder holds::

    config.txt      canonical configuration; the hash skips its output.* keys
    rounds.csv      round, test_accuracy, asr        (nan when untargeted)
    decisions.csv   round, client_id, score, accepted
    timings.csv     round, wall_ms
    amplified.csv   client_id, index, value          (optional debug dump)
    manifest.txt    hash, seeds, artifact checksums, status, warnings, and
                    the numeric environment (``runtime.describe``)

``run.status`` is ``ok``, ``error`` (any exception, with ``run.error``
naming the round and the exception) or ``diverged``: the global model
held a non-finite parameter after a round's server step, which raises
``DivergenceError`` and ends the run there.

The configuration and its three seeds fully determine every byte of
config.txt, rounds.csv, decisions.csv, amplified.csv and the pair-level
metrics.csv; wall-clock numbers live only in timings.csv and the manifest,
so reruns can be compared checksum for checksum.  The manifest lists a
``checksum.<name>`` (sha256) for every deterministic file of the folder.

Every file a run, pair, sweep or report leaves goes through ``_write_lines``:
ASCII lines, written under a temporary name that then replaces the file,
with the manifest last, so a folder never holds a torn file.  A rerun into
a folder removes the amplified.csv of an earlier run that it did not dump
itself.  ``_read_rows`` is the one reader of the header-plus-rows files
(rounds.csv, amplified.csv); given a checksum, it checks the bytes it parses.

The round loop is ``_prepare``, which builds a run's state at round 0,
plus that state's ``step``, which plays one round on it; ``run_experiment``
checkpoints round 0, steps to ``federation.rounds`` and writes the folder
whatever happened.

``run_pair`` runs the clean twin first.  The twins are identical through
round start_round, so the clean twin leaves a snapshot of its state at
round min(start_round, rounds), and the attacked twin resumes from it with
its cohort set instead of repeating setup and those rounds.  Every
deterministic file is the same as a standalone attacked run's, including
an amplified.csv dumped inside the shared rounds: the snapshot carries the
dumped rows.  In the attacked folder the timings.csv rows up to start_round
are the clean twin's, and ``run.wall_ms`` covers only the resumed rounds.

Round k (1-based) trains every client on the model left by round k-1;
the attack, when enabled, poisons the cohort's shards and updates from
round start_round + 1 onward, so start_round >= rounds means it never fires.
Checkpoints land every ``checkpoint_every`` rounds plus round 0 (the
untouched initial model) and the final round.
"""

from __future__ import annotations

import hashlib
import os
import re
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .aggregate import aggregate_round
from .amplify import amplify
from .attacks import (
    AttackContext,
    craft_updates,
    poisoned_shards,
    resolve_trigger,
    select_malicious,
)
from .config import ExperimentConfig
from .data import (
    Dataset,
    format_float,
    load_csv,
    load_idx,
    make_triggered_set,
    partition,
    sample_validation,
    split_pools,
    synth_blobs,
)
from .errors import ConfigError, DivergenceError, GradampError, ReportError
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
from . import nn, runtime

# sub-seed tags; arbitrary but frozen, changing them changes every run
_TAG_SPLIT = 11
_TAG_PARTITION = 12
_TAG_VALIDATION = 13
_TAG_TRUST = 14
_TAG_MODEL = 15


def _subseed(*key: int) -> int:
    return int(rng_stream(*key).integers(2**63))


# the columns of the header-plus-rows files, shared by writer and reader
_ROUND_COLUMNS = {"round": int, "test_accuracy": float, "asr": float}
_AMPLIFIED_COLUMNS = {"client_id": int, "index": int, "value": float}


def _write_lines(path: str, lines: list[str]) -> str:
    """Write ``lines`` as ASCII text to a temporary name that then replaces
    ``path``; returns the sha256 of the bytes written."""
    data = "".join(line + "\n" for line in lines).encode("ascii")
    with open(path + ".tmp", "wb") as fh:
        fh.write(data)
    os.replace(path + ".tmp", path)
    return hashlib.sha256(data).hexdigest()


def _read_rows(path: str, columns: dict[str, type], digest: str | None = None) -> list[tuple]:
    """The rows of a header-plus-rows file, typed by ``columns``; row i sits
    on line i + 2.  With ``digest``, the bytes parsed must have that sha256."""
    with open(path, "rb") as fh:
        data = fh.read()
    if digest is not None and hashlib.sha256(data).hexdigest() != digest:
        raise ReportError(f"{path}: sha256 does not match the manifest's checksum")
    try:
        header, *lines = data.decode("ascii").splitlines() or [""]
    except UnicodeDecodeError as exc:
        raise ReportError(f"{path}: not ASCII text: {exc}") from exc
    if header.strip() != ",".join(columns):
        raise ReportError(f"{path}: unexpected header {header!r}")
    rows = []
    for lineno, line in enumerate(lines, start=2):
        fields = line.strip().split(",")
        try:
            if len(fields) != len(columns):
                raise ValueError(f"{len(fields)} fields, expected {len(columns)}")
            rows.append(tuple(kind(f) for kind, f in zip(columns.values(), fields)))
        except ValueError as exc:
            raise ReportError(f"{path}: line {lineno}: {exc}") from exc
    return rows


@dataclass
class RunManifest:
    run_dir: str
    run_id: str
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
class _Run:
    """One run between rounds: ``_prepare`` builds it at round 0 and each
    ``step`` plays the next round on it.

    ``rows`` holds one update per trainee, rewritten every round: training
    and crafting write the rows in place, screening and the mean read
    them.  The trainees are the client shards, plus fltrust's trust set as
    trainee N.  A round trains them all in one ``train_all``, the cohort on
    its ``poisoned_shards`` and the server's reference into row N, and
    ``craft_updates`` then rewrites the cohort's rows."""

    cfg: ExperimentConfig
    attack: AttackContext  # holds the shards and the clients' training recipe
    trainees: list[Dataset]
    test_set: Dataset
    validation: Dataset | None
    triggered: Dataset | None
    model: nn.ModelParams
    rows: np.ndarray
    hetero: float
    warnings: list[str]
    records: list[RoundRecord] = field(default_factory=list)
    decision_rows: list[str] = field(default_factory=list)
    round: int = 0
    mark: float = 0.0  # perf_counter at the last checkpoint
    amplified: np.ndarray | None = None  # the rows the dump round scored

    def snapshot(self) -> _Run:
        """A copy to resume from.  The lists that grow are copied; the rest
        is shared: ``model`` is rebound each round, never mutated, and
        ``rows`` is rewritten each round, so the copy may step only once
        this run has stopped stepping."""
        return replace(
            self,
            records=list(self.records),
            decision_rows=list(self.decision_rows),
            warnings=list(self.warnings),
        )

    def resume(self) -> None:
        """Turn a clean snapshot into its attacked twin: set the cohort and
        restart the checkpoint clock."""
        self.attack = replace(self.attack, malicious=_cohort(self.cfg, len(self.attack.shards)))
        self.mark = time.perf_counter()

    def checkpoint(self) -> None:
        """Record the model's accuracy and attack success at ``round``, with
        the wall ms since the previous checkpoint (0 at round 0)."""
        now = time.perf_counter()
        wall_ms = (now - self.mark) * 1000.0 if self.records else 0.0
        ta = accuracy(self.model, self.test_set)
        s = (
            asr(self.model, self.triggered, self.cfg.attack.target_label)
            if self.triggered is not None
            else float("nan")
        )
        self.records.append(RoundRecord(round=self.round, test_accuracy=ta, asr=s, wall_ms=wall_ms))
        self.mark = now

    def step(self) -> None:
        """Play round ``round + 1``: train, craft, screen, record the decision
        rows, dump, apply, and checkpoint on the cadence."""
        cfg = self.cfg
        self.round = k = self.round + 1
        r = k - 1  # zero-based index used by seeds and the attack gate
        n = len(self.attack.shards)
        updates = self.rows[:n]
        poisoned = poisoned_shards(r, cfg.attack, self.attack)  # the clean twin has no cohort
        shards = [poisoned.get(i, shard) for i, shard in enumerate(self.trainees)]
        self.attack.train.train_all(self.model, shards, r, self.rows)
        craft_updates(r, updates, self.model, cfg.attack, self.attack)
        reference = self.rows[n] if len(self.trainees) > n else None  # trained on the trust set
        decision = aggregate_round(updates, cfg.aggregator, self.model, self.validation, reference)
        for i in range(n):
            self.decision_rows.append(
                f"{k},{i},{format_float(decision.scores[i])},{int(decision.accepted[i])}"
            )
        if k == int(cfg["output.dump_amplified_round"]):
            views = decision.views
            if views is None:  # fedavg scores nothing; amplify its rows for the dump alone
                amp = cfg.aggregator.amplifier
                views = [a.values for a in amplify(updates, amp, self.model, self.validation)]
            # a copy: without an amplifier the views are the rows, rewritten next round
            self.amplified = np.array(views, dtype=np.float64)
        self.model = nn.apply_update(self.model, decision.global_update)
        if not np.isfinite(self.model.theta).all():
            raise DivergenceError("model parameters are no longer finite")
        if k % int(cfg["federation.checkpoint_every"]) == 0 or k == int(cfg["federation.rounds"]):
            self.checkpoint()


def _prepare(cfg: ExperimentConfig, attack_enabled: bool) -> _Run:
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
    indices = partition(
        train_pool,
        n_clients,
        str(cfg["partition.scheme"]),
        float(cfg["partition.skew"]),
        _subseed(seed_data, _TAG_PARTITION),
    )
    shards = [train_pool.subset(idx) for idx in indices]
    keep = [i for i, s in enumerate(shards) if len(s) > 0]
    if len(keep) < len(shards):
        dropped = sorted(set(range(len(shards))) - set(keep))
        warnings.append(f"clients {dropped} received empty shards and sit out the run")
        shards = [shards[i] for i in keep]
    if len(shards) < 2:
        raise ConfigError("fewer than two clients hold data")

    agg = cfg.aggregator
    val_pool = train_pool if bool(cfg["validation.allow_overlap"]) else server_pool
    validation = (
        sample_validation(val_pool, cfg.validation, _subseed(seed_data, _TAG_VALIDATION))
        if agg.draws_validation
        else None
    )
    trainees = shards
    if agg.family == "fltrust":
        trainees = shards + [sample_validation(val_pool, cfg.trust, _subseed(seed_data, _TAG_TRUST))]

    trigger = resolve_trigger(cfg.attack, train_pool.feature_shape)
    malicious = _cohort(cfg, len(shards)) if attack_enabled else []
    model = build_model(cfg, train_pool.feature_shape, full.num_classes)
    hetero = heterogeneity(train_pool)
    train = nn.LocalTraining(
        int(cfg["local.epochs"]),
        int(cfg["local.batch"]),
        float(cfg["local.lr"]),
        int(cfg["seeds.clients"]),
    )
    triggered = make_triggered_set(test_set, trigger) if trigger is not None else None
    if validation is not None and model.conv_index() is not None:
        # every round runs the validation set through up to 2N models; the
        # test and triggered sets run only at checkpoints and lower there
        validation.cols = nn.lower(model, validation.features)
    return _Run(
        cfg=cfg,
        attack=AttackContext(malicious, shards, train, int(cfg["seeds.attack"]), trigger),
        trainees=trainees,
        test_set=test_set,
        validation=validation,
        triggered=triggered if triggered is not None and len(triggered) > 0 else None,
        model=model,
        rows=np.empty((len(trainees), model.theta.size)),
        hetero=hetero,
        warnings=warnings,
    )


def _cohort(cfg: ExperimentConfig, n_clients: int) -> list[int]:
    return select_malicious(n_clients, cfg.attack.malicious_fraction, int(cfg["seeds.attack"]))


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str | None = None,
    attack_enabled: bool = True,
    prefix: list[_Run] | None = None,
) -> RunManifest:
    """Execute one full run and write its folder; returns the manifest.

    ``prefix`` is a one-slot holder that a pair's twins share: a clean run
    puts a snapshot of its state at round min(attack.start_round,
    federation.rounds) into it, and an attacked run takes that snapshot and
    resumes from it instead of running setup and those rounds again."""
    out_dir = out_dir or str(cfg["output.dir"])
    os.makedirs(out_dir, exist_ok=True)
    started = time.perf_counter()
    rounds = int(cfg["federation.rounds"])
    run = None
    status = "ok"
    error_note = None
    try:
        if attack_enabled and prefix:
            resumed = prefix.pop()
            resumed.resume()  # a failure here is still a setup failure
            run = resumed
        else:
            run = _prepare(cfg, attack_enabled)
            run.checkpoint()
        if prefix is not None and not attack_enabled:
            while run.round < min(cfg.attack.start_round, rounds):
                run.step()
            prefix.append(run.snapshot())
        while run.round < rounds:
            run.step()
    except BaseException as exc:
        status = "diverged" if isinstance(exc, DivergenceError) else "error"
        where = f"round {run.round}" if run is not None and run.round else "setup"
        error_note = f"{where}: {type(exc).__name__}: {exc}"
        raise
    finally:
        manifest = RunManifest(
            run_dir=out_dir,
            run_id=cfg.config_hash()[:12] + ("-attacked" if attack_enabled else "-clean"),
            status=status,
            wall_ms=(time.perf_counter() - started) * 1000.0,
            records=run.records if run is not None else [],
            heterogeneity=run.hetero if run is not None else float("nan"),
            warnings=run.warnings if run is not None else [],
            error=error_note,
        )
        _write_run_files(out_dir, cfg, manifest, run)
    return manifest


def _write_run_files(
    out_dir: str, cfg: ExperimentConfig, manifest: RunManifest, run: _Run | None
) -> None:
    """Write the folder, the manifest last, and checksum every file but the
    wall-clock timings.csv; an amplified.csv this run did not dump goes."""
    files = {
        "config.txt": cfg.canonical_text().splitlines(),
        "rounds.csv": [",".join(_ROUND_COLUMNS)]
        + [
            f"{rec.round},{format_float(rec.test_accuracy)},{format_float(rec.asr)}"
            for rec in manifest.records
        ],
        "decisions.csv": ["round,client_id,score,accepted"]
        + (run.decision_rows if run is not None else []),
        "timings.csv": ["round,wall_ms"]
        + [f"{rec.round},{format_float(rec.wall_ms)}" for rec in manifest.records],
    }
    if run is not None and run.amplified is not None:
        files["amplified.csv"] = [",".join(_AMPLIFIED_COLUMNS)] + [
            f"{cid},{j},{format_float(v)}"
            for cid, view in enumerate(run.amplified)
            for j, v in enumerate(view)
        ]
    elif os.path.exists(os.path.join(out_dir, "amplified.csv")):
        os.remove(os.path.join(out_dir, "amplified.csv"))
    for name, rows in files.items():
        digest = _write_lines(os.path.join(out_dir, name), rows)
        if name != "timings.csv":
            manifest.checksums[name] = digest
    lines = {
        "config.hash": cfg.config_hash(),
        "metric.heterogeneity": format_float(manifest.heterogeneity),
        "run.id": manifest.run_id,
        "run.rounds_recorded": str(len(manifest.records)),
        "run.status": manifest.status,
        "run.wall_ms": format_float(manifest.wall_ms),
        "seed.attack": str(int(cfg["seeds.attack"])),
        "seed.clients": str(int(cfg["seeds.clients"])),
        "seed.data": str(int(cfg["seeds.data"])),
    }
    if manifest.error is not None:
        lines["run.error"] = manifest.error
    for key, value in runtime.describe().items():
        lines[f"runtime.{key}"] = value
    for name, digest in sorted(manifest.checksums.items()):
        lines[f"checksum.{name}"] = digest
    for i, note in enumerate(manifest.warnings):
        lines[f"warning.{i}"] = note
    _write_lines(manifest.path, [f"{key} = {lines[key]}" for key in sorted(lines)])


def read_rounds_csv(path: str, digest: str | None = None) -> list[RoundRecord]:
    return [RoundRecord(*row) for row in _read_rows(path, _ROUND_COLUMNS, digest)]


def read_manifest(path: str) -> dict[str, str]:
    out = {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            for line in fh:
                if "=" in line:
                    key, _, value = line.partition("=")
                    out[key.strip()] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
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
    the joint metrics table.  The attacked twin resumes from the clean
    twin's state at round min(attack.start_round, federation.rounds)."""
    out_dir = out_dir or str(cfg["output.dir"])
    os.makedirs(out_dir, exist_ok=True)
    prefix: list[_Run] = []
    clean = run_experiment(cfg, os.path.join(out_dir, "clean"), attack_enabled=False, prefix=prefix)
    attacked = run_experiment(
        cfg, os.path.join(out_dir, "attacked"), attack_enabled=True, prefix=prefix
    )

    rounds = int(cfg["federation.rounds"])
    window = MonitorWindow(min(cfg.attack.start_round, rounds), rounds)
    ta_loss = avg_ta_loss(clean.records, attacked.records, window)
    pulse = negative_pulse(attacked.records, cfg.attack.start_round)
    s = (
        avg_asr(attacked.records, window)
        if cfg.attack.targeted and not np.isnan(attacked.records[-1].asr)
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
    _write_lines(metrics_path, [",".join(row), _metrics_line(row)])
    return PairSummary(clean, attacked, metrics_path, row)


def _metrics_line(row: dict[str, object]) -> str:
    """A ``metrics_row`` as its metrics.csv line, in the row's key order."""
    return ",".join(v if isinstance(v, str) else format_float(v) for v in row.values())


def sweep(
    cfg: ExperimentConfig, vary_key: str, values: list[object], out_root: str | None = None
) -> list[PairSummary]:
    """run_pair once per value of one overridden key, every value's config
    built before the first pair; summary in sweep.csv."""
    if not values:
        raise ConfigError("sweep needs at least one value")
    # one folder name per value, a single path component inside out_root
    slugs = [re.sub(r"[^A-Za-z0-9._-]", "_", f"{vary_key.replace('.', '-')}-{v}") for v in values]
    repeated = sorted({slug for slug in slugs if slugs.count(slug) > 1})
    if repeated:
        raise ConfigError(f"sweep values share the folder names {repeated}")
    configs = [cfg.with_overrides({vary_key: value}) for value in values]
    out_root = out_root or str(cfg["output.dir"])
    os.makedirs(out_root, exist_ok=True)
    summaries = []
    rows = []
    for value, slug, sub in zip(values, slugs, configs):
        summary = run_pair(sub, os.path.join(out_root, slug))
        summaries.append(summary)
        rows.append(f"{value},{_metrics_line(summary.metrics_row)}")
    header = "value," + ",".join(summaries[0].metrics_row)
    _write_lines(os.path.join(out_root, "sweep.csv"), [header, *rows])
    return summaries
