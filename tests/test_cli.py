"""Exit codes and wiring for the console entry point."""

import ctypes
import os
import subprocess
import sys

import numpy as np
import pytest

from gradamp import runtime
from gradamp.cli import _parse_vary, main
from gradamp.config import ExperimentConfig
from gradamp.errors import ConfigError
from gradamp.harness import read_manifest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
DETERMINISTIC = (
    "clean/rounds.csv",
    "clean/decisions.csv",
    "attacked/rounds.csv",
    "attacked/decisions.csv",
    "metrics.csv",
)

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


def write_raw_config(tmp_path, **extra):
    """FAST plus ``extra`` written by hand, for configs that cannot be built."""
    over = dict(FAST, **{"output.dir": str(tmp_path / "out")}, **extra)
    path = str(tmp_path / "cfg.txt")
    with open(path, "w") as fh:
        fh.write("".join(f"{k} = {v}\n" for k, v in over.items()))
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


@pytest.mark.parametrize(
    "key,value",
    [
        ("model.pool", 0),
        ("model.kernel", -2),
        ("model.kernel", 0),
        ("model.filters", 0),
        ("model.hidden", -3),
    ],
)
def test_degenerate_model_size_exits_2(tmp_path, capsys, key, value):
    conv = {"dataset.dim": "1x8x8", "model.kind": "conv", "defense.amplifier": "xai"}
    extra = {} if key == "model.hidden" else conv
    path = write_raw_config(tmp_path, **extra, **{key: value})
    assert main(["run", path]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value",
    [
        ("dataset.test_fraction", "nan"),
        ("dataset.server_fraction", "nan"),
        ("dataset.spread", "nan"),
        ("local.lr", "nan"),
        ("local.lr", "inf"),
        ("attack.scale_factor", "nan"),
    ],
)
def test_non_finite_value_exits_2(tmp_path, capsys, key, value):
    path = write_raw_config(tmp_path, **{key: value})
    assert main(["run", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_runtime_failure_exits_3(tmp_path, capsys):
    # A biased trust draw that fits the 18-sample server pool but not the
    # few class-1 samples the seeded split leaves there fails at setup,
    # which is a runtime error rather than a config-shape one.
    path = write_config(
        tmp_path,
        **{"defense.family": "fltrust", "trust.mode": "biased", "trust.theta": 1.0, "trust.size": 18},
    )
    assert main(["run", path]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "classes,line7,message",
    [
        (3, "99999999999999999999,1.0,2.0", "line 7: label 99999999999999999999 outside int64"),
        (3, "-99999999999999999999,1.0,2.0", "line 7: label -99999999999999999999 outside int64"),
        (1, None, "every label is 0, line 1 to line 60; need at least two distinct labels"),
        (3, "1000,1.0,2.0", "line 7: label 1000 asks for 1001 classes from 60 rows"),
        (3, "1,nan,2.0", "line 7: non-finite feature"),
        (3, "1,1.0,inf", "line 7: non-finite feature"),
        (3, "1,1e400,2.0", "line 7: non-finite feature"),
    ],
    ids=["above-int64", "below-int64", "one-label", "label-beyond-rows", "nan", "inf", "1e400"],
)
def test_a_bad_csv_data_file_exits_3_at_setup(tmp_path, capsys, classes, line7, message):
    rows = [f"{i % classes},{i},{i + 1}" for i in range(60)]
    if line7 is not None:
        rows[6] = line7
    data = tmp_path / "data.csv"
    data.write_text("\n".join(rows) + "\n")
    path = write_config(tmp_path, **{"dataset.kind": "csv", "dataset.path": str(data)})
    assert main(["run", path]) == 3
    assert message in capsys.readouterr().err
    flat = read_manifest(str(tmp_path / "out" / "manifest.txt"))
    assert flat["run.status"] == "error"
    assert flat["run.error"].startswith("setup: IngestionError: ")


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


# A 1e300 learning rate overflows the training forwards and then the
# checkpoint ones, and each row's extra settings route the overflowing
# rows through one more numpy site: sh-optimized's statistics, fltrust's
# norms, or the xai route's updated-model forward and Grad-CAM weights.
# Each site runs under np.errstate, as nn.local_train and nn.predict do.
OVERFLOW_ROWS = [
    pytest.param({}, 3, "diverged", id="mlp"),
    pytest.param(
        {"attack.kind": "sh-optimized", "attack.start_round": 0}, 3, "diverged", id="sh-optimized"
    ),
    pytest.param({"defense.family": "fltrust"}, 0, "ok", id="fltrust"),
    pytest.param(
        {
            "dataset.dim": "1x8x8",
            "model.kind": "conv",
            "model.filters": 4,
            "defense.amplifier": "xai",
        },
        3,
        "diverged",
        id="conv-xai",
    ),
]


@pytest.mark.parametrize("extra, exit_code, status", OVERFLOW_ROWS)
def test_an_overflowing_training_run_ends_diverged_without_numpy_warnings(
    tmp_path, extra, exit_code, status
):
    path = write_config(
        tmp_path,
        **{"local.lr": 1e300, "federation.clients": 4, "federation.rounds": 2, **extra},
    )
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import sys; from gradamp.cli import main; sys.exit(main(['run', sys.argv[1]]))"
    proc = subprocess.run(
        [sys.executable, "-c", code, path], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == exit_code, proc.stderr
    if status == "diverged":
        assert "no longer finite" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert read_manifest(str(tmp_path / "out" / "manifest.txt"))["run.status"] == status


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


@pytest.mark.parametrize(
    "extra, tail",
    [
        ({}, b"# caf\xff\n"),  # a Latin-1 comment: not UTF-8
        ({"dataset.kind": "csv", "dataset.path": "d\u00e9.csv"}, b""),
        ({"output.dir": "runs/\u00e9"}, b""),
    ],
    ids=["undecodable-comment", "non-ascii-path", "non-ascii-output-dir"],
)
def test_non_ascii_config_input_exits_2(tmp_path, capsys, monkeypatch, extra, tail):
    monkeypatch.chdir(tmp_path)
    over = {**FAST, "output.dir": "out", **extra}
    path = tmp_path / "raw.cfg"
    path.write_bytes("".join(f"{k} = {v}\n" for k, v in over.items()).encode() + tail)
    assert main(["run", str(path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["raw.cfg"]


def test_utf8_comments_still_parse(tmp_path):
    path = tmp_path / "utf8.cfg"
    path.write_bytes("# caf\u00e9 \u2014 r\u00e9sum\u00e9\nfederation.clients = 6 # \u00e9\n".encode())
    assert ExperimentConfig.from_file(str(path))["federation.clients"] == 6


GOOD_ROUNDS = "round,test_accuracy,asr\n0,0.5,nan\n"
AMP = "client_id,index,value\n"
MANIFEST = "run.id = r\n"


@pytest.mark.parametrize(
    "name, rounds, amplified, where, manifest",
    [
        ("rounds.csv", GOOD_ROUNDS + "1,2\n", None, "line 3", MANIFEST),
        ("rounds.csv", GOOD_ROUNDS + "x,0.5,nan\n", None, "line 3", MANIFEST),
        ("amplified.csv", GOOD_ROUNDS, "client_id,index,value\n0,1\n", "line 2", MANIFEST),
        ("amplified.csv", GOOD_ROUNDS, "cid,idx\n0,0,1.0\n1,0,2.0\n", "header", MANIFEST),
        ("amplified.csv", GOOD_ROUNDS, "client_id,index,value\n0,-1,1.0\n", "line 2", MANIFEST),
        ("amplified.csv", GOOD_ROUNDS, "client_id,index,value\n", "no rows", MANIFEST),
        ("manifest.txt", GOOD_ROUNDS, None, "0xff", b"run.id = r\xff\n"),
        ("rounds.csv", GOOD_ROUNDS.encode() + b"1,0.5,nan\xff\n", None, "0xff", MANIFEST),
        ("amplified.csv", GOOD_ROUNDS, b"client_id,index,value\n0,0,1.0\xff\n", "0xff", MANIFEST),
        ("amplified.csv", GOOD_ROUNDS, AMP + "0,0,1.0\n0,5,2.0\n1,0,3.0\n1,1,4.0\n", "line 3", MANIFEST),
        ("amplified.csv", GOOD_ROUNDS, AMP + "0,0,1.0\n0,0,2.0\n1,0,3.0\n1,1,4.0\n", "line 3", MANIFEST),
        ("amplified.csv", GOOD_ROUNDS, AMP + "0,0,1.0\n0,1,2.0\n1,0,3.0\n", "line 3", MANIFEST),
        ("amplified.csv", GOOD_ROUNDS, AMP + f"0,0,1.0\n0,{2**63},2.0\n1,0,3.0\n1,1,4.0\n", "line 3",
         MANIFEST),
    ],
    ids=["rounds-short-line", "rounds-bad-int", "amplified-short-line", "amplified-header",
         "amplified-negative-index", "amplified-empty", "manifest-non-ascii", "rounds-non-ascii",
         "amplified-non-ascii", "amplified-gap", "amplified-repeated-index", "amplified-short-client",
         "amplified-huge-index"],
)
def test_report_on_a_malformed_run_folder_exits_3(
    tmp_path, capsys, name, rounds, amplified, where, manifest
):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    files = {"manifest.txt": manifest, "rounds.csv": rounds, "amplified.csv": amplified}
    for file_name, content in files.items():
        if content is not None:
            data = content if isinstance(content, bytes) else content.encode()
            (run_dir / file_name).write_bytes(data)
    rep = str(tmp_path / "rep")
    assert main(["report", str(run_dir / "manifest.txt"), "--out", rep]) == 3
    err = capsys.readouterr().err
    assert name in err and where in err


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


def test_sweep_rejects_values_that_share_a_folder(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["sweep", path, "--vary", "federation.rounds=1,1"]) == 2
    assert "federation-rounds-1" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_sweep_builds_every_config_before_the_first_pair(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["sweep", path, "--vary", "federation.clients=3,1"]) == 2
    assert "federation.clients must be >= 2" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / "federation-clients-3")


def test_sweep_folders_stay_inside_out(tmp_path):
    path = write_config(tmp_path)
    assert main(["sweep", path, "--vary", "dataset.path=../../../x"]) == 0
    assert sorted(os.listdir(tmp_path / "out")) == ["dataset-path-.._.._.._x", "sweep.csv"]
    assert sorted(os.listdir(tmp_path)) == ["cfg.txt", "out"]


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


@pytest.mark.parametrize(
    "extra,message",
    [
        (
            {
                "federation.clients": 10,
                "defense.family": "fang",
                "defense.assumed_malicious": 0.95,
            },
            "0.95 rejects all 10 clients",
        ),
        ({"defense.amplifier": "xai"}, "xai needs a conv model"),
        # fedavg never amplifies, yet the config still names an amplifier
        # that cannot run on this model
        ({"defense.family": "fedavg", "defense.amplifier": "xai"}, "xai needs a conv model"),
        ({"attack.kind": "scale", "attack.target_label": 5}, "not one of the 3 classes"),
        ({"attack.kind": "dba", "attack.target_label": 3}, "not one of the 3 classes"),
        ({"attack.target_label": -1}, "target_label must be >= 0"),
        # dist-cos draws no validation set, yet the key is checked alike
        *(
            (
                {"defense.family": family, "validation.mode": "biased", "validation.biased_class": 7},
                "validation.biased_class 7 is not one of the 3 classes",
            )
            for family in ("fang", "dist-cos")
        ),
        ({"trust.biased_class": -1}, "trust.biased_class -1 is not one of the 3 classes"),
        # density_whitelist would fail only after a round of training
        *(
            (
                {"federation.clients": 4, "defense.neighbors": k},
                f"defense.neighbors {k} must exceed N/2 and be at most N = 4",
            )
            for k in (1, 5, 100)
        ),
        # size floors: each of these used to leave a run folder behind
        *(
            ({"dataset.dim": dim}, f"dataset.dim parts must be >= 1, got {dim}")
            for dim in ("-2", "0", "0x5x5", "3x0x4")
        ),
        ({"dataset.classes": 1}, "dataset.classes must be >= 2"),
        ({"dataset.per_class": 0}, "dataset.per_class must be >= 1"),
        ({"model.hidden": -1}, "model.hidden must be >= 0"),
        *(
            (
                {"model.kind": "conv", "dataset.dim": "1x6x6", key: 0},
                "model.filters, model.kernel and model.pool must be >= 1",
            )
            for key in ("model.filters", "model.kernel", "model.pool")
        ),
        # the draw specs check themselves, drawn by the family or not
        ({"validation.mode": "nope"}, "unknown validation mode 'nope'"),
        ({"trust.theta": 2.0}, "theta must lie in [0, 1]"),
        ({"defense.family": "fang", "validation.size": 0}, "validation size must be >= 1"),
        # the trigger and the conv geometry fit the blobs shape
        ({"attack.kind": "scale", "dataset.dim": 3}, "need at least 4 features for the tabular trigger"),
        ({"attack.kind": "dba", "dataset.dim": "1x2x2"}, "image too small for the 3x3 corner trigger"),
        ({"model.kind": "conv", "dataset.dim": "1x2x2"}, "input 2x2 smaller than conv kernel 3"),
        ({"model.kind": "conv", "dataset.dim": "1x3x3"}, "feature maps vanish after pooling"),
        # the split fractions, whatever the dataset kind, and the blobs sizes
        *(
            (
                {**source, "dataset.test_fraction": 0.6, "dataset.server_fraction": 0.5},
                "test and server fractions must leave room for clients",
            )
            for source in (
                {},
                {"dataset.kind": "csv", "dataset.path": "absent.csv"},
                {"dataset.kind": "idx", "dataset.images": "absent.idx", "dataset.labels": "absent.idx"},
            )
        ),
        ({"dataset.test_fraction": -0.1}, "test and server fractions must leave room for clients"),
        (
            {"dataset.per_class": 1, "dataset.test_fraction": 0.1},
            "dataset.test_fraction 0.1 leaves no test sample of 3",
        ),
        (
            {"federation.clients": 1000},
            "federation.clients 1000 exceeds the 50 samples of the client pool",
        ),
        # a draw larger than its whole pool: 18 server samples, 50 client
        # samples with overlap, none without a server share
        ({"defense.family": "fang", "validation.size": 19}, "validation.size 19 exceeds the 18 samples of the server pool"),
        (
            {"defense.family": "fang", "validation.mode": "biased", "validation.size": 19},
            "validation.size 19 exceeds the 18 samples of the server pool",
        ),
        (
            {"model.kind": "conv", "dataset.dim": "1x6x6", "defense.amplifier": "xai", "validation.size": 19},
            "validation.size 19 exceeds the 18 samples of the server pool",
        ),
        ({"defense.family": "fltrust", "trust.size": 10_000}, "trust.size 10000 exceeds the 18 samples of the server pool"),
        (
            {"defense.family": "fltrust", "trust.mode": "biased", "trust.size": 19},
            "trust.size 19 exceeds the 18 samples of the server pool",
        ),
        (
            {"defense.family": "fang", "validation.allow_overlap": True, "validation.size": 51},
            "validation.size 51 exceeds the 50 samples of the client pool",
        ),
        (
            {"defense.family": "fang", "dataset.server_fraction": 0},
            "validation.size 12 exceeds the 0 samples of the server pool",
        ),
        (
            {"defense.family": "fltrust", "dataset.server_fraction": 0},
            "trust.size 12 exceeds the 0 samples of the server pool",
        ),
        # numpy's seeding refuses a negative seed only after the folder exists
        *(({key: -1}, f"{key} must be >= 0, got -1") for key in ("seeds.data", "seeds.clients", "seeds.attack")),
        # data.partition would refuse it only at setup, under label-skew alone
        *(
            ({"partition.scheme": scheme, "partition.skew": 1.5}, "partition.skew must lie in [0, 1], got 1.5")
            for scheme in ("label-skew", "iid")
        ),
    ],
    ids=[
        "fang-rejects-all",
        "xai-mlp",
        "fedavg-xai-mlp",
        "scale-target-5",
        "dba-target-3",
        "negative-target",
        "fang-biased-class-7",
        "dist-cos-biased-class-7",
        "trust-biased-class-negative",
        "neighbors-1-of-4",
        "neighbors-5-of-4",
        "neighbors-100-of-4",
        "dim-negative",
        "dim-0",
        "dim-0x5x5",
        "dim-3x0x4",
        "classes-1",
        "per-class-0",
        "hidden-negative",
        "conv-filters-0",
        "conv-kernel-0",
        "conv-pool-0",
        "validation-mode-nope",
        "trust-theta-2",
        "fang-validation-size-0",
        "scale-dim-3",
        "dba-dim-1x2x2",
        "conv-dim-1x2x2",
        "conv-dim-1x3x3",
        "fractions-no-room-blobs",
        "fractions-no-room-csv",
        "fractions-no-room-idx",
        "test-fraction-negative",
        "empty-test-split",
        "clients-exceed-pool",
        "fang-validation-exceeds-server-pool",
        "fang-biased-validation-exceeds-server-pool",
        "xai-validation-exceeds-server-pool",
        "fltrust-trust-exceeds-server-pool",
        "fltrust-biased-trust-exceeds-server-pool",
        "overlap-validation-exceeds-client-pool",
        "fang-no-server-pool",
        "fltrust-no-server-pool",
        "seeds-data-negative",
        "seeds-clients-negative",
        "seeds-attack-negative",
        "label-skew-1.5",
        "iid-skew-1.5",
    ],
)
def test_config_that_cannot_run_exits_2_before_any_run_folder(tmp_path, capsys, extra, message):
    path = write_raw_config(tmp_path, **extra)
    assert main(["run", path]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / "manifest.txt")


class FakeLibc:
    """Answers ``mallopt`` with ``answer`` and records each call; any other
    library fails to load, so the BLAS pin finds nothing."""

    def __init__(self, answer):
        self.calls = []

        def mallopt(option, value):  # a function, so argtypes can be set
            self.calls.append((option, value))
            return answer

        self.mallopt = mallopt

    def __call__(self, name):
        if name != "libc.so.6":
            raise OSError(f"{name}: not here")
        return self


@pytest.fixture
def fresh_runtime(monkeypatch):
    monkeypatch.setattr(
        runtime, "_state", {"heap": "unset", "blas_threads": "unpinned", "workers": "0"}
    )


def test_main_sets_the_mmap_then_the_trim_threshold(tmp_path, monkeypatch, fresh_runtime):
    libc = FakeLibc(answer=1)
    monkeypatch.setattr(ctypes, "CDLL", libc)
    path = write_config(tmp_path)
    assert main(["run", path]) == 0
    # M_MMAP_THRESHOLD = -3 and M_TRIM_THRESHOLD = -1 in glibc's malloc.h
    assert libc.calls == [(-3, 32 * 2**20), (-1, 64 * 2**20)]
    flat = read_manifest(str(tmp_path / "out" / "manifest.txt"))
    assert flat["runtime.heap"] == "mmap_threshold=33554432,trim_threshold=67108864"
    assert flat["runtime.blas_threads"] == "unpinned"
    assert flat["runtime.numpy"] == np.__version__


@pytest.mark.parametrize("cpus, workers", [({0}, "0"), ({0, 1}, "1"), ({0, 1, 2, 3}, "1")])
def test_main_enables_one_worker_with_two_or_more_cpus(
    tmp_path, monkeypatch, fresh_runtime, cpus, workers
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    path = write_config(tmp_path)
    assert main(["run", path]) == 0
    flat = read_manifest(str(tmp_path / "out" / "manifest.txt"))
    assert flat["runtime.workers"] == workers
    assert (runtime.worker() is not None) == (workers == "1")


def test_run_pair_never_imports_the_report_module(tmp_path):
    path = write_config(tmp_path)
    code = (
        "import sys; from gradamp.cli import main; "
        "assert main(['run-pair', sys.argv[1]]) == 0; print('gradamp.report' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", code, path], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def raise_oserror(name):
    raise OSError(f"{name}: cannot open shared object file")


@pytest.mark.parametrize("cdll", [raise_oserror, FakeLibc(answer=0)], ids=["no-glibc", "refused"])
def test_main_without_the_settings_records_unset_and_runs(tmp_path, monkeypatch, fresh_runtime, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    path = write_config(tmp_path)
    assert main(["run", path]) == 0
    if isinstance(cdll, FakeLibc):
        assert cdll.calls == [(-3, 32 * 2**20)]  # no trim threshold alone
    flat = read_manifest(str(tmp_path / "out" / "manifest.txt"))
    assert flat["run.status"] == "ok"
    assert (flat["runtime.heap"], flat["runtime.blas_threads"]) == ("unset", "unpinned")


def run_python(args, cwd, threads="1"):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_a_library_run_keeps_the_process_defaults(tmp_path):
    path = write_config(tmp_path)
    code = (
        "import sys; from gradamp.config import ExperimentConfig; "
        "from gradamp.harness import run_experiment; "
        "run_experiment(ExperimentConfig.from_file(sys.argv[1]))"
    )
    run_python(["-c", code, path], tmp_path)
    flat = read_manifest(str(tmp_path / "out" / "manifest.txt"))
    assert (flat["runtime.heap"], flat["runtime.blas_threads"]) == ("unset", "unpinned")
    assert flat["runtime.workers"] == "0"


def test_pair_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # One round of the 100,867-parameter leave-one-out workload.  Without
    # the pin, this pair under OPENBLAS_NUM_THREADS=2 scores 4 of 10 clean
    # and 2 of 10 attacked clients differently from one thread (by up to
    # 3.4e-16 relative; 2-core x86-64, OpenBLAS 0.3.31).
    path = write_config(
        tmp_path,
        **{
            "dataset.per_class": 200,
            "dataset.dim": 784,
            "dataset.server_fraction": 0.25,
            "federation.clients": 10,
            "federation.rounds": 1,
            "model.hidden": 128,
            "local.batch": 64,
            "validation.size": 100,
            "attack.kind": "g-asc",
            "attack.start_round": 0,
            "defense.family": "fang",
            "defense.amplifier": "mp",
        },
    )
    outs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        run_python(["-m", "gradamp.cli", "run-pair", path, "--out", str(out)], tmp_path, threads)
        outs[threads] = {rel: (out / rel).read_bytes() for rel in DETERMINISTIC}
        assert read_manifest(str(out / "attacked" / "manifest.txt"))["runtime.blas_threads"] in (
            "1",
            "unpinned",
        )
    assert outs["1"] == outs["2"]
