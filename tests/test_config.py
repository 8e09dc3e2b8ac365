"""Configuration parsing, typed overrides, auto markers, and hashing."""

import os
import re

import pytest

from gradamp.aggregate import AggregatorConfig
from gradamp.amplify import AmplifierConfig
from gradamp.attacks import AttackConfig
from gradamp.config import DEFAULTS, ExperimentConfig, parse_config_text
from gradamp.errors import ConfigError
from gradamp.harness import run_pair

EXAMPLE_CFG = os.path.join(os.path.dirname(__file__), "..", "docs", "example.cfg")


def test_parse_config_text_basics():
    text = """
    # a comment line
    federation.rounds = 12
    local.lr = 0.125        # trailing comment
    defense.include_bias = false
    dataset.kind = blobs
    """
    got = parse_config_text(text)
    assert got == {
        "federation.rounds": 12,
        "local.lr": 0.125,
        "defense.include_bias": False,
        "dataset.kind": "blobs",
    }


def test_parse_config_text_rejects_malformed_lines():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("rounds 12")
    with pytest.raises(ConfigError, match="dotted"):
        parse_config_text("rounds = 12")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("a.b = 1\na.b = 2")


def test_defaults_round_trip_through_canonical_text():
    cfg = ExperimentConfig.from_mapping({})
    text = cfg.canonical_text()
    back = ExperimentConfig.from_mapping(parse_config_text(text))
    assert back.values == cfg.values
    assert back.config_hash() == cfg.config_hash()
    # Canonical text is sorted, so ordering noise cannot move the hash.
    lines = [l for l in text.splitlines() if l.strip()]
    assert lines == sorted(lines)


def test_hash_tracks_value_changes():
    a = ExperimentConfig.from_mapping({})
    b = ExperimentConfig.from_mapping({"federation.rounds": 61})
    assert a.config_hash() != b.config_hash()
    assert len(a.config_hash()) == 64


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        ExperimentConfig.from_mapping({"federation.round": 10})


def test_type_mismatches_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping({"federation.rounds": "many"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping({"federation.rounds": True})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping({"defense.include_bias": 1})
    # int where float is expected coerces quietly
    cfg = ExperimentConfig.from_mapping({"local.lr": 1})
    assert cfg["local.lr"] == 1.0
    # nan and inf parse as floats, but no float key takes them
    float_keys = [k for k, v in DEFAULTS.items() if isinstance(v, float)]
    assert "dataset.test_fraction" in float_keys and "local.lr" in float_keys
    for key in float_keys + ["attack.scale_factor"]:
        for raw in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError):
                ExperimentConfig.from_mapping(parse_config_text(f"{key} = {raw}"))


def test_with_overrides_builds_a_new_config():
    base = ExperimentConfig.from_mapping({})
    changed = base.with_overrides({"federation.rounds": 5})
    assert changed["federation.rounds"] == 5
    assert base["federation.rounds"] == DEFAULTS["federation.rounds"]
    flipped = base.with_overrides({"attack.kind": "l-flip"})
    assert flipped.attack.kind == "l-flip"
    assert base.attack.kind == DEFAULTS["attack.kind"]


def test_dim_parses_flat_and_image_forms():
    assert ExperimentConfig.from_mapping({"dataset.dim": "20"}).dim() == 20
    assert ExperimentConfig.from_mapping({"dataset.dim": 20}).dim() == 20
    assert ExperimentConfig.from_mapping({"dataset.dim": "1x8x8"}).dim() == (1, 8, 8)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping({"dataset.dim": "8x8"}).dim()
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping({"dataset.dim": "axbxc"}).dim()


def test_assumed_malicious_auto_mirrors_the_attack():
    cfg = ExperimentConfig.from_mapping({"attack.malicious_fraction": 0.2})
    assert cfg.aggregator.assumed_malicious == 0.2
    pinned = ExperimentConfig.from_mapping(
        {"attack.malicious_fraction": 0.2, "defense.assumed_malicious": 0.4}
    )
    assert pinned.aggregator.assumed_malicious == 0.4


def test_restore_size_auto_follows_the_family():
    fang = ExperimentConfig.from_mapping({"defense.family": "fang"})
    assert fang.aggregator.amplifier.restore_size is True
    dist = ExperimentConfig.from_mapping({"defense.family": "dist-cos"})
    assert dist.aggregator.amplifier.restore_size is False
    forced = ExperimentConfig.from_mapping({"defense.restore_size": True})
    assert forced.aggregator.amplifier.restore_size is True


def test_builders_assemble_typed_configs():
    cfg = ExperimentConfig.from_mapping(
        {
            "attack.kind": "g-asc",
            "attack.gamma": 2.0,
            "defense.family": "dist-euc",
            "defense.kernel": 2,
            "validation.mode": "biased",
            "validation.theta": 0.4,
        }
    )
    atk = cfg.attack
    assert atk.kind == "g-asc" and atk.gamma == 2.0
    agg = cfg.aggregator
    assert agg.family == "dist-euc"
    assert agg.amplifier.kernel == 2
    vs = cfg.validation
    assert vs.mode == "biased" and vs.theta == 0.4


def test_each_component_config_is_validated_once_per_run_pair(tmp_path, monkeypatch):
    calls = {}
    for cls in (AttackConfig, AmplifierConfig, AggregatorConfig):

        def counted(self, _validate=cls.validate, _name=cls.__name__):
            calls[_name] = calls.get(_name, 0) + 1
            _validate(self)

        monkeypatch.setattr(cls, "validate", counted)
    cfg = ExperimentConfig.from_mapping(
        {
            "dataset.per_class": 30,
            "federation.clients": 6,
            "federation.rounds": 2,
            "model.hidden": 8,
            "attack.kind": "g-asc",
            "attack.start_round": 0,
            "output.dir": str(tmp_path),
        }
    )
    run_pair(cfg)
    assert calls == {"AttackConfig": 1, "AmplifierConfig": 1, "AggregatorConfig": 1}


def test_validate_catches_cross_field_mistakes():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping({"model.kind": "conv"}).validate()  # flat dim
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping({"federation.clients": 1}).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping({"defense.family": "trimmed"}).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping({"attack.kind": "bad"}).validate()
    with pytest.raises(ConfigError, match="neighbors"):
        ExperimentConfig.from_mapping({"defense.neighbors": -5}).validate()
    with pytest.raises(ConfigError, match="neighbors 2 must exceed N/2"):
        ExperimentConfig.from_mapping({"federation.clients": 4, "defense.neighbors": 2})
    for k in (3, 4):
        ExperimentConfig.from_mapping({"federation.clients": 4, "defense.neighbors": k})
    # only blobs fix the label set before setup; a file's labels are
    # checked when the validation set is drawn
    ExperimentConfig.from_mapping(
        {"dataset.kind": "csv", "dataset.path": "x.csv", "validation.biased_class": 7}
    )
    ExperimentConfig.from_mapping({}).validate()
    ExperimentConfig.from_mapping(
        {"model.kind": "conv", "dataset.dim": "1x8x8"}
    ).validate()


def test_from_file_round_trip(tmp_path):
    path = tmp_path / "exp.txt"
    path.write_text("federation.rounds = 4\nlocal.lr = 0.5\n")
    cfg = ExperimentConfig.from_file(str(path))
    assert cfg["federation.rounds"] == 4
    assert cfg["local.lr"] == 0.5
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(str(tmp_path / "missing.txt"))


def test_example_config_is_the_annotated_defaults():
    example = ExperimentConfig.from_file(EXAMPLE_CFG)
    assert example.canonical_text() == ExperimentConfig.from_mapping({}).canonical_text()
    with open(EXAMPLE_CFG, encoding="utf-8") as fh:
        text = fh.read()
    path_keys = {"dataset.path", "dataset.images", "dataset.labels"}
    for key in DEFAULTS:
        # the path keys default to empty, so the file shows them commented out
        prefix = r"#\s*" if key in path_keys else ""
        assert re.search(rf"^{prefix}{re.escape(key)}\s*=", text, re.M), key
