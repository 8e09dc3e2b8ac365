"""Exit codes and wiring for the console entry point."""

import os

import numpy as np
import pytest

from gradamp.cli import _parse_vary, main
from gradamp.config import ExperimentConfig
from gradamp.errors import ConfigError
from gradamp.harness import read_manifest

FAST = {
    "dataset.per_class": 30,
    "dataset.spread": 1.0,
    "dataset.server_fraction": 0.2,
    "federation.clients": 6,
    "federation.rounds": 2,
    "federation.checkpoint_every": 1,
    "local.epochs": 1,
    "local.batch": 32,
    "model.hidden": 8,
    "validation.size": 12,
    "trust.size": 12,
}


def write_config(tmp_path, name="cfg.txt", **extra):
    over = dict(FAST)
    over.setdefault("output.dir", str(tmp_path / "out"))
    over.update(extra)
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        fh.write(ExperimentConfig.from_mapping(over).canonical_text())
    return path


def test_run_succeeds(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert os.path.isdir(tmp_path / "out")


def test_run_out_flag_overrides_the_config_dir(tmp_path):
    path = write_config(tmp_path)
    override = str(tmp_path / "elsewhere")
    assert main(["run", path, "--out", override]) == 0
    assert os.path.isdir(override)


def test_bad_config_exits_2(tmp_path, capsys):
    path = str(tmp_path / "bad.txt")
    with open(path, "w") as fh:
        fh.write("no.such.key = 1\n")
    assert main(["run", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.txt")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_runtime_failure_exits_3(tmp_path, capsys):
    # A trust shard larger than the server pool fails at setup, which is
    # a runtime error rather than a config-shape one.
    path = write_config(tmp_path, **{"defense.family": "fltrust", "trust.size": 10_000})
    assert main(["run", path]) == 3
    assert "error:" in capsys.readouterr().err


def test_non_finite_model_ends_the_pair_as_diverged(tmp_path, capsys):
    # A 1e300 boost overflows the plain mean once the attack is on; the run
    # must stop as diverged at that round instead of reporting ok.
    path = write_config(
        tmp_path,
        **{
            "federation.rounds": 6,
            "defense.family": "fedavg",
            "defense.amplifier": "none",
            "attack.kind": "scale",
            "attack.scale_factor": 1e300,
            "attack.start_round": 1,
        },
    )
    with np.errstate(all="ignore"):
        assert main(["run-pair", path]) == 3
    assert "no longer finite" in capsys.readouterr().err
    attacked = read_manifest(str(tmp_path / "out" / "attacked" / "manifest.txt"))
    assert attacked["run.status"] == "diverged"
    # round 2 leaves huge finite weights, whose logits overflow in round 3
    assert attacked["run.error"] == (
        "round 3: DivergenceError: model parameters are no longer finite"
    )
    assert read_manifest(str(tmp_path / "out" / "clean" / "manifest.txt"))["run.status"] == "ok"
    assert not os.path.exists(tmp_path / "out" / "metrics.csv")


def test_report_requires_out(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["report", "whatever.txt"])
    assert exc.value.code == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_run_pair_prints_metrics(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run-pair", path]) == 0
    out = capsys.readouterr().out
    assert "ta_loss=" in out
    assert "negative_pulse=" in out
    assert os.path.exists(tmp_path / "out" / "metrics.csv")


def test_report_from_a_finished_run(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", path]) == 0
    capsys.readouterr()
    manifest = None
    for root, _, files in os.walk(tmp_path / "out"):
        if "manifest.txt" in files:
            manifest = os.path.join(root, "manifest.txt")
    rep = str(tmp_path / "rep")
    assert main(["report", manifest, "--out", rep]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert os.path.join(rep, "report.csv") in printed
    assert os.path.join(rep, "ta.svg") in printed


def test_gen_data_writes_csv(tmp_path, capsys):
    path = write_config(tmp_path)
    out_csv = str(tmp_path / "set.csv")
    assert main(["gen-data", path, out_csv]) == 0
    assert "samples ->" in capsys.readouterr().out
    with open(out_csv) as fh:
        first = fh.readline().rstrip().split(",")
        count = 1 + sum(1 for _ in fh)
    # Headerless label,f1,...,fd rows.
    int(first[0])
    assert all(float(v) or True for v in first[1:])
    assert count == 90  # 30 per class across 3 classes


def test_sweep_runs_each_value(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["sweep", path, "--vary", "attack.gamma=0.5,2.0"]) == 0
    assert "2 pairs swept over attack.gamma" in capsys.readouterr().out
    base = tmp_path / "out"
    assert os.path.isdir(base / "attack-gamma-0.5")
    assert os.path.isdir(base / "attack-gamma-2.0")
    assert os.path.exists(base / "sweep.csv")


def test_parse_vary_types_each_value():
    key, values = _parse_vary("attack.gamma=0.5,2,8.25")
    assert key == "attack.gamma"
    assert values == [0.5, 2, 8.25]
    assert [type(v) for v in values] == [float, int, float]


def test_parse_vary_rejects_malformed_specs():
    with pytest.raises(ConfigError):
        _parse_vary("attack.gamma")
    with pytest.raises(ConfigError):
        _parse_vary("=1,2")
    with pytest.raises(ConfigError):
        _parse_vary("attack.gamma=")
