"""Experiment configuration: a flat, typed ``key = value`` text format.

Keys are dotted (section.name), one per line, ``#`` starts a comment.
Values are typed by shape: integers, floats, the literals true/false, and
bare strings.  Unknown keys are rejected so typos fail fast instead of
silently running defaults, and so are a ``nan`` or ``inf`` float and a
non-ASCII string (the run folder is ASCII); comments may be any UTF-8.

``ExperimentConfig.validate`` builds the typed views once: ``attack``,
``aggregator`` (with its ``.amplifier``), and the ``validation`` and
``trust`` draws.  For blobs, whose size and shape the config fixes, it
also runs setup's own rules on them: the pool sizes of the split, the
trigger and the conv geometry.  A few keys take a literal or a marker; the first two
resolve in ``validate``, the last two at run time, where N is known:

    defense.restore_size       auto -> true for family fang, else false
    defense.assumed_malicious  auto -> attack.malicious_fraction
    defense.neighbors          0    -> floor(N/2) + 1
    attack.scale_factor        auto-n -> the federation size N

``canonical_text`` renders the full resolved key set sorted, which the
run folder's ``config.txt`` stores.  ``config_hash`` hashes the same
rendering without the ``output.*`` keys, which say where a run is written
and what it dumps, not what it computes: identical experiments hash alike
no matter how the source file was laid out or where the run goes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from .amplify import AmplifierConfig
from .attacks import AttackConfig, resolve_trigger
from .aggregate import AggregatorConfig
from .data import ValidationSpec, exact_share, format_float, split_sizes
from .errors import ConfigError
from .nn import pooled_shape

DEFAULTS: dict[str, object] = {
    "dataset.kind": "blobs",          # blobs | csv | idx
    "dataset.path": "",               # csv source
    "dataset.images": "",             # idx image file
    "dataset.labels": "",             # idx label file
    "dataset.classes": 3,
    "dataset.per_class": 200,
    "dataset.dim": "20",              # flat width, or CxHxW for images
    "dataset.spread": 2.0,
    "dataset.test_fraction": 0.25,
    "dataset.server_fraction": 0.25,
    "partition.scheme": "iid",        # iid | label-skew
    "partition.skew": 0.5,
    "model.kind": "mlp",              # mlp | conv
    "model.hidden": 16,
    "model.filters": 8,
    "model.kernel": 3,
    "model.pool": 2,
    "federation.clients": 10,
    "federation.rounds": 60,
    "federation.checkpoint_every": 5,
    "local.epochs": 1,
    "local.batch": 64,
    "local.lr": 0.03,
    "attack.kind": "none",
    "attack.malicious_fraction": 0.3,
    "attack.start_round": 20,
    "attack.gamma": 1.0,
    "attack.scale_factor": "auto-n",
    "attack.sh_gamma_max": 10.0,
    "attack.target_label": 0,
    "attack.trigger_fraction": 0.5,
    "defense.family": "dist-cos",
    "defense.amplifier": "mp",        # none | mp | xai
    "defense.kernel": 3,
    "defense.top_p": 0.5,
    "defense.restore_size": "auto",
    "defense.include_bias": True,
    "defense.neighbors": 0,
    "defense.assumed_malicious": "auto",
    "validation.size": 100,
    "validation.mode": "uniform",     # uniform | biased
    "validation.theta": 0.5,
    "validation.biased_class": 1,
    "validation.allow_overlap": False,
    "trust.size": 50,
    "trust.mode": "uniform",
    "trust.theta": 0.5,
    "trust.biased_class": 1,
    "seeds.data": 1,
    "seeds.clients": 2,
    "seeds.attack": 3,
    "output.dir": "runs/out",
    "output.dump_amplified_round": -1,
}

# keys whose value type is context dependent; checked in validate() instead
_MIXED_KEYS = {
    "attack.scale_factor",
    "defense.restore_size",
    "defense.assumed_malicious",
    "dataset.dim",
}


def _parse_value(raw: str) -> object:
    raw = raw.strip()
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def _render_value(v: object) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_float(v)
    return str(v)


def _canonical(values: dict[str, object]) -> str:
    lines = [f"{k} = {_render_value(values[k])}" for k in sorted(values)]
    return "\n".join(lines) + "\n"


def parse_config_text(text: str, source: str = "<config>") -> dict[str, object]:
    """Flat dict from ``key = value`` lines; rejects malformed lines."""
    out: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}: line {lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if not key or "." not in key:
            raise ConfigError(f"{source}: line {lineno}: keys are dotted section.name")
        if key in out:
            raise ConfigError(f"{source}: line {lineno}: duplicate key {key}")
        out[key] = _parse_value(raw)
    return out


@dataclass
class ExperimentConfig:
    """Resolved flat configuration and its typed views.

    ``validate`` runs on construction and stores the four views; nothing
    mutates ``values`` afterwards (``with_overrides`` builds a new config),
    so the views always describe ``values``."""

    values: dict[str, object]
    attack: AttackConfig = field(init=False, repr=False)
    aggregator: AggregatorConfig = field(init=False, repr=False)
    validation: ValidationSpec = field(init=False, repr=False)
    trust: ValidationSpec = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.validate()

    @classmethod
    def from_mapping(cls, overrides: dict[str, object], source: str = "<config>") -> "ExperimentConfig":
        merged = dict(DEFAULTS)
        for key, value in overrides.items():
            if key not in DEFAULTS:
                raise ConfigError(f"{source}: unknown key {key!r}")
            default = DEFAULTS[key]
            if key not in _MIXED_KEYS:
                if isinstance(default, bool):
                    if not isinstance(value, bool):
                        raise ConfigError(f"{source}: {key} expects true/false")
                elif isinstance(default, int):
                    if isinstance(value, bool) or not isinstance(value, int):
                        raise ConfigError(f"{source}: {key} expects an integer")
                elif isinstance(default, float):
                    if isinstance(value, bool) or not isinstance(value, (int, float)):
                        raise ConfigError(f"{source}: {key} expects a number")
                    value = float(value)
                    if not math.isfinite(value):
                        raise ConfigError(f"{source}: {key} must be finite, got {value}")
                elif not isinstance(value, str):
                    raise ConfigError(f"{source}: {key} expects a string")
            if key == "dataset.dim" and isinstance(value, int) and not isinstance(value, bool):
                value = str(value)  # keep the stored form re-parse stable
            merged[key] = value
        return cls(merged)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_mapping(parse_config_text(text, path), path)

    def __getitem__(self, key: str) -> object:
        return self.values[key]

    def with_overrides(self, overrides: dict[str, object]) -> "ExperimentConfig":
        return ExperimentConfig.from_mapping({**self.values, **overrides})

    def dim(self) -> int | tuple[int, int, int]:
        parts = str(self.values["dataset.dim"]).split("x")
        if len(parts) not in (1, 3):
            raise ConfigError("dataset.dim image form is CxHxW")
        try:
            dims = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"dataset.dim: {exc}") from exc
        if min(dims) < 1:
            raise ConfigError(f"dataset.dim parts must be >= 1, got {self.values['dataset.dim']}")
        return dims if len(dims) == 3 else dims[0]

    def validate(self) -> None:
        v = self.values
        for key, value in v.items():
            if isinstance(value, str) and not value.isascii():
                raise ConfigError(f"{key} must be ASCII text, got {value!r}")
        if v["dataset.kind"] not in ("blobs", "csv", "idx"):
            raise ConfigError(f"unknown dataset.kind {v['dataset.kind']!r}")
        if v["dataset.kind"] == "csv" and not v["dataset.path"]:
            raise ConfigError("dataset.kind csv needs dataset.path")
        if v["dataset.kind"] == "idx" and not (v["dataset.images"] and v["dataset.labels"]):
            raise ConfigError("dataset.kind idx needs dataset.images and dataset.labels")
        if v["partition.scheme"] not in ("iid", "label-skew"):
            raise ConfigError(f"unknown partition.scheme {v['partition.scheme']!r}")
        if v["model.kind"] not in ("mlp", "conv"):
            raise ConfigError(f"unknown model.kind {v['model.kind']!r}")
        if v["model.kind"] == "conv" and v["dataset.kind"] == "blobs" and isinstance(self.dim(), int):
            raise ConfigError("a conv model needs image-shaped data (dataset.dim CxHxW)")
        if v["defense.amplifier"] == "xai" and v["model.kind"] != "conv":
            raise ConfigError("defense.amplifier xai needs a conv model (model.kind conv)")
        if int(v["federation.clients"]) < 2:
            raise ConfigError("federation.clients must be >= 2")
        if int(v["federation.rounds"]) < 0:
            raise ConfigError("federation.rounds must be >= 0")
        if int(v["federation.checkpoint_every"]) < 1:
            raise ConfigError("federation.checkpoint_every must be >= 1")
        if int(v["local.epochs"]) < 1 or int(v["local.batch"]) < 1:
            raise ConfigError("local.epochs and local.batch must be >= 1")
        if float(v["local.lr"]) <= 0:
            raise ConfigError("local.lr must be positive")
        # size floors, checked whatever the dataset and model kinds read
        if int(v["dataset.classes"]) < 2:
            raise ConfigError("dataset.classes must be >= 2")
        if int(v["dataset.per_class"]) < 1:
            raise ConfigError("dataset.per_class must be >= 1")
        if int(v["model.hidden"]) < 0:
            raise ConfigError("model.hidden must be >= 0")
        if min(int(v[f"model.{k}"]) for k in ("filters", "kernel", "pool")) < 1:
            raise ConfigError("model.filters, model.kernel and model.pool must be >= 1")
        blobs, classes, dim = v["dataset.kind"] == "blobs", int(v["dataset.classes"]), self.dim()
        shape = (dim,) if isinstance(dim, int) else dim  # the blobs feature shape
        if blobs and v["model.kind"] == "conv":
            pooled_shape(shape, int(v["model.kernel"]), int(v["model.pool"]))
        # split_pools' sizes; csv and idx learn n at setup, so n = 0 checks
        # their fractions alone
        n_rows = classes * int(v["dataset.per_class"]) if blobs else 0
        test_fraction = float(v["dataset.test_fraction"])
        n_pool, n_server, n_test = split_sizes(n_rows, test_fraction, float(v["dataset.server_fraction"]))
        if blobs and n_test == 0:
            raise ConfigError(f"dataset.test_fraction {test_fraction} leaves no test sample of {n_rows}")
        n = int(v["federation.clients"])
        if blobs and n > n_pool:
            raise ConfigError(f"federation.clients {n} exceeds the {n_pool} samples of the client pool")
        raw_rs = v["defense.restore_size"]
        if raw_rs != "auto" and not isinstance(raw_rs, bool):
            raise ConfigError("defense.restore_size is true, false, or auto")
        raw_am = v["defense.assumed_malicious"]
        if raw_am != "auto" and (isinstance(raw_am, bool) or not isinstance(raw_am, (int, float))):
            raise ConfigError("defense.assumed_malicious is a fraction or auto")
        sf = v["attack.scale_factor"]
        if sf != "auto-n" and (isinstance(sf, str) or not math.isfinite(sf)):
            raise ConfigError("attack.scale_factor is a finite number or auto-n")
        if not str(v["output.dir"]):
            raise ConfigError("output.dir must not be empty")
        # the frozen component configs validate themselves when built, so
        # building the views is the validation of their keys
        self.attack = AttackConfig(
            kind=str(v["attack.kind"]),
            malicious_fraction=float(v["attack.malicious_fraction"]),
            start_round=int(v["attack.start_round"]),
            gamma=float(v["attack.gamma"]),
            scale_factor=sf if sf == "auto-n" else float(sf),
            sh_gamma_max=float(v["attack.sh_gamma_max"]),
            target_label=int(v["attack.target_label"]),
            trigger_fraction=float(v["attack.trigger_fraction"]),
        )
        label = self.attack.target_label
        if self.attack.targeted and blobs and label >= classes:
            raise ConfigError(f"attack.target_label {label} is not one of the {classes} classes")
        if blobs:  # csv and idx triggers resolve at setup, on the loaded shape
            resolve_trigger(self.attack, shape)
        self.aggregator = AggregatorConfig(
            family=str(v["defense.family"]),
            amplifier=AmplifierConfig(
                kind=str(v["defense.amplifier"]),
                kernel=int(v["defense.kernel"]),
                top_p=float(v["defense.top_p"]),
                restore_size=v["defense.family"] == "fang" if raw_rs == "auto" else bool(raw_rs),
                include_bias=bool(v["defense.include_bias"]),
            ),
            assumed_malicious=self.attack.malicious_fraction if raw_am == "auto" else float(raw_am),
            neighbors=int(v["defense.neighbors"]),
        )
        # fang rejects ceil(M_f * N) clients per screen; N can still shrink
        # at setup (empty shards sit out), so fang_whitelist checks again
        m_f = self.aggregator.assumed_malicious
        if self.aggregator.family == "fang" and math.ceil(exact_share(m_f, n)) >= n:
            raise ConfigError(f"defense.assumed_malicious {m_f} rejects all {n} clients")
        # the density screen's K (0 = N//2 + 1) must exceed N/2 and be at
        # most N; for the same reason density_whitelist checks again
        k = self.aggregator.neighbors
        if k and not n / 2 < k <= n:
            raise ConfigError(f"defense.neighbors {k} must exceed N/2 and be at most N = {n}")
        self.validation, self.trust = (
            ValidationSpec(
                size=int(v[f"{s}.size"]),
                mode=str(v[f"{s}.mode"]),
                theta=float(v[f"{s}.theta"]),
                biased_class=int(v[f"{s}.biased_class"]),
            )
            for s in ("validation", "trust")
        )
        # the draws setup makes, each against its whole pool; whether a
        # biased draw's class holds enough is known only after the split
        overlap = bool(v["validation.allow_overlap"])
        pool, pool_name = (n_pool, "client pool") if overlap else (n_server, "server pool")
        agg = self.aggregator
        drawn = {"validation": agg.draws_validation, "trust": agg.family == "fltrust"}
        for s, spec in (("validation", self.validation), ("trust", self.trust)):
            if blobs and not 0 <= spec.biased_class < classes:
                raise ConfigError(f"{s}.biased_class {spec.biased_class} is not one of the {classes} classes")
            if blobs and drawn[s] and spec.size > pool:
                raise ConfigError(f"{s}.size {spec.size} exceeds the {pool} samples of the {pool_name}")

    def canonical_text(self) -> str:
        return _canonical(self.values)

    def config_hash(self) -> str:
        experiment = {k: v for k, v in self.values.items() if not k.startswith("output.")}
        return hashlib.sha256(_canonical(experiment).encode("ascii")).hexdigest()
