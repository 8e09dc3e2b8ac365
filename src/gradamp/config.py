"""Experiment configuration: a flat, typed ``key = value`` text format.

Keys are dotted (section.name), one per line, ``#`` starts a comment.
Values are typed by shape: integers, floats, the literals true/false, and
bare strings.  Unknown keys are rejected so typos fail fast instead of
silently running defaults.  A few keys accept either a literal or an
"auto" marker resolved at run time:

    defense.restore_size       auto -> true for family fang, else false
    defense.assumed_malicious  auto -> attack.malicious_fraction
    defense.neighbors          0    -> floor(N/2) + 1
    attack.scale_factor        auto-n -> the malicious cohort size N

``canonical_text`` renders the full resolved key set sorted, which the
run folder's ``config.txt`` stores.  ``config_hash`` hashes the same
rendering without the ``output.*`` keys, which say where a run is written
and what it dumps, not what it computes: identical experiments hash alike
no matter how the source file was laid out or where the run goes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .amplify import AmplifierConfig
from .attacks import AttackConfig
from .aggregate import AggregatorConfig
from .data import ValidationSpec, format_float
from .errors import ConfigError

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
    """Resolved flat configuration with typed accessors."""

    values: dict[str, object]

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
                elif not isinstance(value, str):
                    raise ConfigError(f"{source}: {key} expects a string")
            if key == "dataset.dim" and isinstance(value, int) and not isinstance(value, bool):
                value = str(value)  # keep the stored form re-parse stable
            merged[key] = value
        cfg = cls(merged)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_mapping(parse_config_text(text, path), path)

    def __getitem__(self, key: str) -> object:
        return self.values[key]

    def with_overrides(self, overrides: dict[str, object]) -> "ExperimentConfig":
        merged = dict(self.values)
        merged.update(overrides)
        return ExperimentConfig.from_mapping(merged)

    # -- resolved views -----------------------------------------------------

    def dim(self) -> int | tuple[int, int, int]:
        raw = self.values["dataset.dim"]
        if isinstance(raw, int):
            return raw
        text = str(raw)
        if "x" in text:
            parts = text.split("x")
            if len(parts) != 3:
                raise ConfigError("dataset.dim image form is CxHxW")
            try:
                c, h, w = (int(p) for p in parts)
            except ValueError as exc:
                raise ConfigError(f"dataset.dim: {exc}") from exc
            return (c, h, w)
        try:
            return int(text)
        except ValueError as exc:
            raise ConfigError(f"dataset.dim: {exc}") from exc

    def malicious_fraction(self) -> float:
        return float(self.values["attack.malicious_fraction"])

    def assumed_malicious(self) -> float:
        raw = self.values["defense.assumed_malicious"]
        if raw == "auto":
            return self.malicious_fraction()
        return float(raw)

    def restore_size(self) -> bool:
        raw = self.values["defense.restore_size"]
        if raw == "auto":
            return self.values["defense.family"] == "fang"
        return bool(raw)

    def attack_config(self) -> AttackConfig:
        v = self.values
        return AttackConfig(
            kind=str(v["attack.kind"]),
            malicious_fraction=float(v["attack.malicious_fraction"]),
            start_round=int(v["attack.start_round"]),
            gamma=float(v["attack.gamma"]),
            scale_factor=(
                v["attack.scale_factor"]
                if v["attack.scale_factor"] == "auto-n"
                else float(v["attack.scale_factor"])
            ),
            sh_gamma_max=float(v["attack.sh_gamma_max"]),
            target_label=int(v["attack.target_label"]),
            trigger_fraction=float(v["attack.trigger_fraction"]),
        )

    def amplifier_config(self) -> AmplifierConfig:
        v = self.values
        return AmplifierConfig(
            kind=str(v["defense.amplifier"]),
            kernel=int(v["defense.kernel"]),
            top_p=float(v["defense.top_p"]),
            restore_size=self.restore_size(),
            include_bias=bool(v["defense.include_bias"]),
        )

    def aggregator_config(self) -> AggregatorConfig:
        v = self.values
        return AggregatorConfig(
            family=str(v["defense.family"]),
            amplifier=self.amplifier_config(),
            assumed_malicious=self.assumed_malicious(),
            neighbors=int(v["defense.neighbors"]),
        )

    def validation_spec(self) -> ValidationSpec:
        v = self.values
        return ValidationSpec(
            size=int(v["validation.size"]),
            mode=str(v["validation.mode"]),
            theta=float(v["validation.theta"]),
            biased_class=int(v["validation.biased_class"]),
        )

    def trust_spec(self) -> ValidationSpec:
        v = self.values
        return ValidationSpec(
            size=int(v["trust.size"]),
            mode=str(v["trust.mode"]),
            theta=float(v["trust.theta"]),
            biased_class=int(v["trust.biased_class"]),
        )

    # -- integrity ----------------------------------------------------------

    def validate(self) -> None:
        v = self.values
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
        raw_rs = v["defense.restore_size"]
        if raw_rs != "auto" and not isinstance(raw_rs, bool):
            raise ConfigError("defense.restore_size is true, false, or auto")
        raw_am = v["defense.assumed_malicious"]
        if raw_am != "auto":
            if isinstance(raw_am, bool) or not isinstance(raw_am, (int, float)):
                raise ConfigError("defense.assumed_malicious is a fraction or auto")
        sf = v["attack.scale_factor"]
        if isinstance(sf, str) and sf != "auto-n":
            raise ConfigError("attack.scale_factor is a number or auto-n")
        self.dim()
        # the frozen component configs validate themselves on construction
        self.attack_config()
        self.aggregator_config()
        if not str(v["output.dir"]):
            raise ConfigError("output.dir must not be empty")

    def canonical_text(self) -> str:
        return _canonical(self.values)

    def config_hash(self) -> str:
        experiment = {k: v for k, v in self.values.items() if not k.startswith("output.")}
        return hashlib.sha256(_canonical(experiment).encode("ascii")).hexdigest()
