"""Round-loop integration checks: run folders, determinism, the clean
twin contract, and the no-attack fidelity guarantee."""

import inspect
import os
import threading
from collections import Counter

import numpy as np
import pytest

from gradamp import aggregate, harness, nn
from gradamp.aggregate import fltrust_aggregate
from gradamp.config import ExperimentConfig
from gradamp.data import format_float
from gradamp.errors import ConfigError, IngestionError
from gradamp.harness import (
    read_manifest,
    read_rounds_csv,
    run_experiment,
    run_pair,
    sweep,
)
from gradamp.seeding import rng_stream

FAST = {
    "dataset.per_class": 30,
    "dataset.spread": 1.0,
    "dataset.server_fraction": 0.2,
    "federation.clients": 6,
    "federation.rounds": 4,
    "federation.checkpoint_every": 2,
    "local.epochs": 1,
    "local.batch": 32,
    "model.hidden": 8,
    "validation.size": 12,
    "trust.size": 12,
}


def fast_config(tmp_path, name, **extra):
    over = dict(FAST)
    over["output.dir"] = str(tmp_path / name)
    over.update(extra)
    return ExperimentConfig.from_mapping(over)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_run_writes_the_full_folder(tmp_path):
    cfg = fast_config(tmp_path, "base")
    manifest = run_experiment(cfg)
    d = manifest.run_dir
    for name in ("config.txt", "rounds.csv", "decisions.csv", "timings.csv", "manifest.txt"):
        assert os.path.exists(os.path.join(d, name)), name
    records = read_rounds_csv(os.path.join(d, "rounds.csv"))
    assert [r.round for r in records] == [0, 2, 4]
    assert all(0.0 <= r.test_accuracy <= 1.0 for r in records)
    assert manifest.status == "ok"
    # Untargeted run: attack success stays unrecorded.
    assert all(np.isnan(r.asr) for r in records)


def test_manifest_contents(tmp_path):
    cfg = fast_config(tmp_path, "man")
    manifest = run_experiment(cfg)
    flat = read_manifest(manifest.path)
    assert flat["config.hash"] == cfg.config_hash()
    assert flat["run.status"] == "ok"
    assert float(flat["run.wall_ms"]) > 0.0
    assert float(flat["metric.heterogeneity"]) > 0.0
    import hashlib

    for name in ("rounds.csv", "decisions.csv"):
        digest = hashlib.sha256(
            read_bytes(os.path.join(manifest.run_dir, name))
        ).hexdigest()
        assert flat[f"checksum.{name}"] == digest


def test_zero_rounds_emits_the_initial_checkpoint_only(tmp_path):
    cfg = fast_config(tmp_path, "zero", **{"federation.rounds": 0})
    manifest = run_experiment(cfg)
    records = read_rounds_csv(os.path.join(manifest.run_dir, "rounds.csv"))
    assert [r.round for r in records] == [0]


def test_run_id_ignores_the_output_keys(tmp_path):
    # Same experiment written to two places, one with an amplified dump:
    # one run ID, while config.txt still records where each run went.
    a = fast_config(tmp_path, "here", **{"federation.rounds": 0})
    b = fast_config(tmp_path, "there", **{"federation.rounds": 0, "output.dump_amplified_round": 1})
    ma, mb = run_experiment(a), run_experiment(b)
    assert ma.run_id == mb.run_id
    assert a.config_hash() == b.config_hash()
    text_a = read_bytes(os.path.join(ma.run_dir, "config.txt")).decode("ascii")
    assert text_a == a.canonical_text() != b.canonical_text()
    assert f"output.dir = {tmp_path / 'here'}" in text_a.splitlines()
    # A key that changes what the run computes still changes the ID.
    c = fast_config(tmp_path, "here", **{"federation.rounds": 1})
    assert c.config_hash() != a.config_hash()


def test_checkpoint_grid_includes_the_final_round(tmp_path):
    cfg = fast_config(
        tmp_path, "grid", **{"federation.rounds": 5, "federation.checkpoint_every": 2}
    )
    manifest = run_experiment(cfg)
    records = read_rounds_csv(os.path.join(manifest.run_dir, "rounds.csv"))
    assert [r.round for r in records] == [0, 2, 4, 5]


def test_identical_configs_produce_identical_bytes(tmp_path):
    a = run_experiment(fast_config(tmp_path, "rep_a"))
    b = run_experiment(fast_config(tmp_path, "rep_b"))
    for name in ("rounds.csv", "decisions.csv"):
        assert read_bytes(os.path.join(a.run_dir, name)) == read_bytes(
            os.path.join(b.run_dir, name)
        )


def test_decisions_cover_every_round_and_client(tmp_path):
    cfg = fast_config(tmp_path, "dec")
    manifest = run_experiment(cfg)
    with open(os.path.join(manifest.run_dir, "decisions.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "round,client_id,score,accepted"
    body = [l.split(",") for l in lines[1:]]
    assert len(body) == 4 * 6  # rounds x clients
    assert {row[0] for row in body} == {"1", "2", "3", "4"}
    accepted_per_round = {}
    for rnd, cid, score, acc in body:
        float(score)
        assert acc in ("0", "1")
        accepted_per_round.setdefault(rnd, 0)
        accepted_per_round[rnd] += int(acc)
    # dist-cos with assumed 0.3 keeps ceil(0.7 * 6) = 5 clients per round.
    assert set(accepted_per_round.values()) == {5}


def test_attack_before_start_round_matches_the_clean_twin(tmp_path):
    cfg = fast_config(
        tmp_path,
        "gate",
        **{"attack.kind": "g-asc", "attack.start_round": 99},
    )
    summary = run_pair(cfg)
    clean = read_bytes(os.path.join(summary.clean.run_dir, "rounds.csv"))
    attacked = read_bytes(os.path.join(summary.attacked.run_dir, "rounds.csv"))
    assert clean == attacked
    assert summary.metrics_row["ta_loss"] == 0.0


def test_no_attack_whitelist_defense_matches_plain_averaging(tmp_path):
    # With nothing to assume malicious the whitelist keeps everyone, so the
    # screened run must reproduce unscreened averaging bit for bit.
    base = {
        "attack.kind": "none",
        "attack.malicious_fraction": 0.0,
    }
    screened = run_experiment(
        fast_config(tmp_path, "fid_def", **{**base, "defense.family": "dist-cos"})
    )
    plain = run_experiment(
        fast_config(
            tmp_path,
            "fid_plain",
            **{**base, "defense.family": "fedavg", "defense.amplifier": "none"},
        )
    )
    ra = read_rounds_csv(os.path.join(screened.run_dir, "rounds.csv"))
    rb = read_rounds_csv(os.path.join(plain.run_dir, "rounds.csv"))
    assert [r.test_accuracy for r in ra] == [r.test_accuracy for r in rb]


def test_run_pair_metrics_table(tmp_path):
    cfg = fast_config(
        tmp_path,
        "pair",
        **{"attack.kind": "g-asc", "attack.start_round": 1},
    )
    summary = run_pair(cfg)
    with open(summary.metrics_path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "run_id,defense,attack,ta_loss,avg_asr,negative_pulse,heterogeneity"
    fields = lines[1].split(",")
    assert fields[1] == "dist-cos+mp"
    assert fields[2] == "g-asc"
    assert fields[4] == "nan"  # untargeted: no attack success column value
    assert float(fields[6]) == pytest.approx(summary.attacked.heterogeneity)


def _manifest_lines_but_wall_ms(path):
    with open(path, "rb") as fh:
        return [line for line in fh.read().splitlines() if not line.startswith(b"run.wall_ms = ")]


@pytest.mark.parametrize(
    "extra",
    [
        {"attack.kind": "g-asc", "attack.start_round": 2, "output.dump_amplified_round": 4},
        {"defense.family": "fltrust", "attack.kind": "l-flip", "attack.start_round": 0},
        {"attack.kind": "g-asc", "attack.start_round": 3, "output.dump_amplified_round": 2},
        {"attack.kind": "g-asc", "attack.start_round": 99},
    ],
    ids=["fork-mid-run", "fltrust-fork-at-0", "dump-inside-prefix", "fork-past-the-end"],
)
def test_resumed_attacked_twin_matches_a_standalone_attacked_run(tmp_path, extra):
    cfg = fast_config(tmp_path, "pair", **extra)
    summary = run_pair(cfg)
    alone = run_experiment(cfg, str(tmp_path / "alone"), attack_enabled=True)
    assert summary.attacked.status == alone.status == "ok"
    for name in ("config.txt", "rounds.csv", "decisions.csv", "amplified.csv"):
        resumed = os.path.join(summary.attacked.run_dir, name)
        standalone = os.path.join(alone.run_dir, name)
        assert os.path.exists(resumed) == os.path.exists(standalone), name
        if os.path.exists(standalone):
            assert read_bytes(resumed) == read_bytes(standalone), name
    assert _manifest_lines_but_wall_ms(summary.attacked.path) == _manifest_lines_but_wall_ms(
        alone.path
    )
    # the resumed run appended to copies: the clean twin kept its own records
    clean_rounds = read_rounds_csv(os.path.join(summary.clean.run_dir, "rounds.csv"))
    assert [r.round for r in summary.clean.records] == [r.round for r in clean_rounds]


PAIR_FILES = (
    "clean/rounds.csv",
    "clean/decisions.csv",
    "attacked/rounds.csv",
    "attacked/decisions.csv",
    "metrics.csv",
)


def pair_bytes(out_dir):
    return {rel: read_bytes(os.path.join(out_dir, rel)) for rel in PAIR_FILES}


@pytest.mark.parametrize(
    "kind", ["none", "g-asc", "sh-optimized", "l-flip", "l-flip+g-asc", "scale", "dba"]
)
@pytest.mark.parametrize("family", ["dist-cos", "fltrust"])
def test_the_cohort_trains_once_per_attacked_round(tmp_path, monkeypatch, kind, family):
    # every train_all call of an attacked run, as (round, the clients it
    # named, its shards), and the clients each call's local_train stacks trained
    calls, stacked = [], Counter()
    train_all, local_train = nn.LocalTraining.train_all, nn.local_train
    seed_of = inspect.signature(local_train)

    def spy_train_all(self, model, shards, round_idx, out, clients=None):
        named = list(range(len(shards)) if clients is None else clients)
        calls.append((round_idx, named, list(shards)))
        return train_all(self, model, shards, round_idx, out, clients)

    def spy_local_train(*args, **kwargs):
        stacked[len(calls) - 1] += len(seed_of.bind(*args, **kwargs).arguments["seed"])
        return local_train(*args, **kwargs)

    monkeypatch.setattr(nn.LocalTraining, "train_all", spy_train_all)
    monkeypatch.setattr(nn, "local_train", spy_local_train)
    extra = {
        "attack.kind": kind,
        "attack.start_round": 1,
        "attack.malicious_fraction": 0.5,
        "defense.family": family,
    }
    cfg = fast_config(tmp_path, "alone", **extra)
    run_experiment(cfg, attack_enabled=True)
    trainees = list(range(6 + (family == "fltrust")))  # fltrust's reference trains as client N
    cohort = harness._cohort(cfg, 6)
    poisons = kind in ("l-flip", "l-flip+g-asc", "scale", "dba")
    expect = []
    for r in range(4):
        # the cohort trains on its poisoned shards in the round's one call
        expect.append((r, trainees, cohort if poisons and r >= 1 else []))
        if kind == "l-flip+g-asc" and r >= 1:  # the craft retrains the cohort's honest rows
            expect.append((r, cohort, []))
    own = calls[0][2]  # round 0 trains every trainee on its own shard
    got = [
        (r, named, [c for c, shard in zip(named, shards) if shard is not own[c]])
        for r, named, shards in calls
    ]
    assert got == expect
    assert [stacked[i] for i in range(len(calls))] == [len(named) for _, named, _ in calls]


@pytest.mark.parametrize(
    "extra, expect",
    [
        # 5 rounds: the clean twin's 3 and the attacked twin's 2 after the
        # fork at round 1.  Each splits its 4 one-client training stacks and
        # its screen's 4 probes; the restored patch max stays on this thread.
        ({}, {("train", 4): 5, ("probes", 4): 5}),
        # fltrust's reference trains as a fifth stack, a group of its own
        ({"defense.family": "fltrust", "trust.size": 20}, {("train", 5): 5}),
        # in the attacked rounds the craft retrains the cohort [1, 3, 4],
        # non-consecutive clients, in a second train_all call
        (
            {
                "federation.clients": 6,
                "attack.kind": "l-flip+g-asc",
                "attack.malicious_fraction": 0.5,
            },
            {("train", 6): 5, ("train", 3): 2, ("probes", 6): 5},
        ),
    ],
    ids=["fang", "fltrust", "l-flip+g-asc"],
)
def test_a_worker_folded_pair_writes_the_bytes_of_a_serial_one(
    tmp_path, monkeypatch, fold_worker, wide_fang_pair, extra, expect
):
    settings = {**wide_fang_pair, **extra, "output.dir": str(tmp_path / "x")}
    cfg = ExperimentConfig.from_mapping(settings)
    with monkeypatch.context() as m:
        m.setattr(harness.runtime, "worker", lambda: None)
        run_pair(cfg, str(tmp_path / "serial"))
    assert fold_worker == []
    split, jobs = harness.runtime.split, Counter()

    def counted(n, job, size):
        jobs[job.__name__, n] += 1
        return split(n, job, size)

    monkeypatch.setattr(harness.runtime, "split", counted)
    run_pair(cfg, str(tmp_path / "worker"))
    assert jobs == expect
    assert len(fold_worker) == sum(expect.values())
    assert threading.main_thread() not in fold_worker
    assert pair_bytes(tmp_path / "serial") == pair_bytes(tmp_path / "worker")


def test_clean_twin_leaves_unaliased_state_at_the_fork(tmp_path):
    cfg = fast_config(tmp_path, "fork", **{"attack.kind": "g-asc", "attack.start_round": 2})
    prefix = []
    clean = run_experiment(cfg, attack_enabled=False, prefix=prefix)
    (snap,) = prefix
    # the clean twin stepped on to round 4 without touching the snapshot
    assert snap.round == 2 and [r.round for r in snap.records] == [0, 2]
    assert len(snap.decision_rows) == 2 * 6
    assert [r.round for r in clean.records] == [0, 2, 4]
    assert snap.attack.malicious == []


def test_attacked_twin_that_cannot_resume_reports_setup(tmp_path, monkeypatch):
    def no_cohort(*args):
        raise RuntimeError("no cohort")

    monkeypatch.setattr(harness, "select_malicious", no_cohort)  # only the attacked twin draws
    cfg = fast_config(tmp_path, "no-resume", **{"attack.kind": "g-asc", "attack.start_round": 2})
    with pytest.raises(RuntimeError):
        run_pair(cfg)
    clean = read_manifest(str(tmp_path / "no-resume" / "clean" / "manifest.txt"))
    attacked = read_manifest(str(tmp_path / "no-resume" / "attacked" / "manifest.txt"))
    assert clean["run.status"] == "ok"
    assert attacked["run.error"] == "setup: RuntimeError: no cohort"


def test_targeted_run_records_attack_success(tmp_path):
    cfg = fast_config(
        tmp_path,
        "trg",
        **{
            "attack.kind": "scale",
            "attack.start_round": 0,
            "attack.target_label": 1,
            "attack.malicious_fraction": 0.34,
        },
    )
    summary = run_pair(cfg)
    for rec in summary.attacked.records:
        assert 0.0 <= rec.asr <= 1.0
    # The clean twin scores the same probes, so its ASR column is real too.
    for rec in summary.clean.records:
        assert 0.0 <= rec.asr <= 1.0
    assert not np.isnan(summary.metrics_row["avg_asr"])


def test_fltrust_xai_pipeline_runs(tmp_path):
    cfg = fast_config(
        tmp_path,
        "ftx",
        **{
            "model.kind": "conv",
            "dataset.dim": "1x8x8",
            "model.filters": 4,
            "defense.family": "fltrust",
            "defense.amplifier": "xai",
            "attack.kind": "l-flip",
            "attack.start_round": 1,
        },
    )
    summary = run_pair(cfg)
    assert summary.attacked.status == "ok"
    records = summary.attacked.records
    assert len(records) == 3


@pytest.mark.parametrize("family", ["fang", "fltrust"])
def test_a_conv_fang_xai_pair_lowers_its_validation_batch_once(tmp_path, monkeypatch, family):
    # Every xai selection, leave-one-out probe and fltrust reference
    # selection runs the validation batch through a conv; only _prepare
    # lowers it, into the validation set's cols.  The attacked twin resumes
    # from the clean twin's round-0 snapshot, so the pair prepares once.
    runs, lowered = [], []
    lower, prepare = nn.lower, harness._prepare

    def count(x, w):
        lowered.append(x)
        return lower(x, w)

    def keep(cfg, attack_enabled):
        runs.append(prepare(cfg, attack_enabled))
        return runs[-1]

    monkeypatch.setattr(nn, "lower", count)
    monkeypatch.setattr(harness, "_prepare", keep)
    cfg = fast_config(
        tmp_path,
        f"{family}-xai",
        **{
            "model.kind": "conv",
            "dataset.dim": "1x8x8",
            "model.filters": 4,
            "federation.rounds": 2,
            "defense.family": family,
            "defense.amplifier": "xai",
            "attack.kind": "dba",
            "attack.start_round": 0,
        },
    )
    summary = run_pair(cfg)
    assert summary.attacked.status == "ok" and len(runs) == 1
    validation = runs[0].validation
    assert sum(x is validation.features for x in lowered) == 1
    assert validation.cols.shape == (9, len(validation) * 36)
    assert validation.subset(np.arange(3)).cols is None
    # a model without a conv lowers nothing
    mlp = harness._prepare(fast_config(tmp_path, "fang-mlp", **{"defense.family": "fang"}), True)
    assert mlp.validation is not None and mlp.validation.cols is None


def test_fltrust_reference_is_the_trust_set_trained_as_client_n(tmp_path, monkeypatch):
    # the server's reference trains in the clients' train_all, as client N
    seen = []
    aggregate_round = harness.aggregate_round

    def spy(updates, cfg, model, validation, reference):
        seen.append((model, reference.copy()))
        return aggregate_round(updates, cfg, model, validation, reference)

    monkeypatch.setattr(harness, "aggregate_round", spy)
    cfg = fast_config(
        tmp_path,
        "ft-ref",
        **{
            "defense.family": "fltrust",
            "attack.kind": "l-flip",
            "attack.start_round": 0,
            "local.batch": 5,  # several batches of the 12 trust samples
        },
    )
    assert run_experiment(cfg).status == "ok"
    n = int(cfg["federation.clients"])
    trust_set = harness._prepare(cfg, True).trainees[n]
    assert len(seen) == int(cfg["federation.rounds"])
    for r, (model, ref_update) in enumerate(seen):
        expect = nn.local_train(
            model,
            trust_set.features,
            trust_set.labels,
            int(cfg["local.epochs"]),
            int(cfg["local.batch"]),
            float(cfg["local.lr"]),
            rng_stream(int(cfg["seeds.clients"]), r, n),
        )
        assert np.array_equal(ref_update, expect)


def test_fang_pipeline_runs(tmp_path):
    cfg = fast_config(
        tmp_path,
        "fang",
        **{
            "defense.family": "fang",
            "defense.amplifier": "mp",
            "defense.restore_size": True,
            "attack.kind": "g-asc",
            "attack.start_round": 1,
        },
    )
    summary = run_pair(cfg)
    assert summary.attacked.status == "ok"


def test_amplified_dump_written_at_the_requested_round(tmp_path):
    cfg = fast_config(tmp_path, "dump", **{"output.dump_amplified_round": 2})
    manifest = run_experiment(cfg)
    path = os.path.join(manifest.run_dir, "amplified.csv")
    assert os.path.exists(path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "client_id,index,value"
    clients = {int(l.split(",")[0]) for l in lines[1:]}
    assert clients == set(range(6))
    no_dump = run_experiment(fast_config(tmp_path, "nodump"))
    assert not os.path.exists(os.path.join(no_dump.run_dir, "amplified.csv"))


def test_amplified_dump_holds_the_views_the_trust_screen_scored(tmp_path, monkeypatch):
    # fltrust+xai scores every client on the filters of the server's
    # reference model, not on each client's own selection; at these seeds
    # client 4's own selection differs from the reference one in round 3.
    scored = []

    def spy(views, ref_view, originals, ref_original):
        scored.append([v.copy() for v in views])
        return fltrust_aggregate(views, ref_view, originals, ref_original)

    monkeypatch.setattr(aggregate, "fltrust_aggregate", spy)
    cfg = fast_config(
        tmp_path,
        "ftx-dump",
        **{
            "model.kind": "conv",
            "dataset.dim": "1x8x8",
            "model.filters": 8,
            "federation.rounds": 3,
            "dataset.per_class": 40,
            "defense.family": "fltrust",
            "defense.amplifier": "xai",
            "attack.kind": "scale",
            "attack.start_round": 0,
            "output.dump_amplified_round": 3,
            "seeds.data": 3,
            "seeds.clients": 4,
            "seeds.attack": 5,
        },
    )
    manifest = run_experiment(cfg)
    assert manifest.status == "ok" and len(scored) == 3
    with open(os.path.join(manifest.run_dir, "amplified.csv")) as fh:
        dumped = fh.read().splitlines()[1:]
    expect = [
        f"{cid},{j},{format_float(v)}"
        for cid, values in enumerate(scored[2])
        for j, v in enumerate(values)
    ]
    assert dumped == expect


@pytest.mark.parametrize(
    "family, per_round",
    [
        ("dist-cos", [1, 1, 1, 1]),
        ("fltrust", [2, 2, 2, 2]),  # the clients' rows, then the reference's row
        ("fedavg", [0, 0, 1, 0]),  # scores nothing; only its dump round amplifies
    ],
)
def test_a_dump_round_amplifies_as_often_as_any_other(tmp_path, monkeypatch, family, per_round):
    # the dump writes the rows the screen scored; it does not amplify them again
    calls, played = Counter(), [0]
    aggregate_round, amplify = harness.aggregate_round, aggregate.amplify

    def screen(*args, **kwargs):
        played[0] += 1
        return aggregate_round(*args, **kwargs)

    def counted(*args, **kwargs):
        calls[played[0]] += 1
        return amplify(*args, **kwargs)

    monkeypatch.setattr(harness, "aggregate_round", screen)
    monkeypatch.setattr(aggregate, "amplify", counted)
    monkeypatch.setattr(harness, "amplify", counted)
    cfg = fast_config(
        tmp_path, family, **{"defense.family": family, "output.dump_amplified_round": 3}
    )
    manifest = run_experiment(cfg)
    assert manifest.status == "ok" and played[0] == 4
    assert [calls[k] for k in range(1, 5)] == per_round
    assert os.path.exists(os.path.join(manifest.run_dir, "amplified.csv"))


def test_skewed_split_can_drop_empty_shards(tmp_path):
    # One lone label routed to a two-client group: somebody ends up with
    # nothing and is dropped for the whole run, with a manifest warning.
    rows = ["0,1.0,2.0", "0,1.5,2.5", "0,0.5,1.0", "0,1.2,2.2",
            "0,0.9,1.9", "0,1.1,2.1", "0,1.3,2.3", "1,5.0,6.0"]
    data_path = tmp_path / "skew.csv"
    data_path.write_text("\n".join(rows) + "\n")
    cfg = ExperimentConfig.from_mapping(
        {
            "dataset.kind": "csv",
            "dataset.path": str(data_path),
            "dataset.test_fraction": 0.25,
            "dataset.server_fraction": 0.0,
            "partition.scheme": "label-skew",
            "partition.skew": 1.0,
            "federation.clients": 4,
            "federation.rounds": 1,
            "federation.checkpoint_every": 1,
            "local.epochs": 1,
            "local.batch": 8,
            "model.hidden": 0,
            "defense.family": "fedavg",
            "defense.amplifier": "none",
            "validation.allow_overlap": True,
            "validation.size": 4,
            "output.dir": str(tmp_path / "skewrun"),
        }
    )
    manifest = run_experiment(cfg)
    assert any("empty shard" in w for w in manifest.warnings)
    with open(os.path.join(manifest.run_dir, "decisions.csv")) as fh:
        body = fh.read().splitlines()[1:]
    survivors = {int(l.split(",")[1]) for l in body}
    assert len(survivors) < 4


def test_failed_run_reports_the_round(tmp_path):
    # fltrust needs a trust shard; a biased draw that fits the server pool
    # but not its class-1 samples breaks during setup and the manifest
    # records the error.
    cfg = fast_config(
        tmp_path,
        "boom",
        **{"defense.family": "fltrust", "trust.mode": "biased", "trust.theta": 1.0, "trust.size": 18},
    )
    with pytest.raises(Exception):
        run_experiment(cfg)
    flat = read_manifest(os.path.join(str(tmp_path / "boom"), "manifest.txt"))
    assert flat["run.status"] == "error"
    assert "run.error" in flat


@pytest.mark.parametrize(
    "extra,check",
    [
        ({"attack.kind": "scale", "dataset.dim": 4}, lambda run: len(run.attack.trigger.regions) == 1),
        ({"attack.kind": "scale", "dataset.dim": "1x3x3"}, lambda run: len(run.attack.trigger.regions) == 1),
        (
            {"attack.kind": "dba", "model.kind": "conv", "dataset.dim": "1x3x3", "model.pool": 1},
            lambda run: len(run.attack.trigger.regions) == 4,
        ),
        ({"model.kind": "conv", "dataset.dim": "1x4x4"}, lambda run: run.model.layers[3].weight.shape == (3, 8)),
        (
            {"defense.family": "fang", "validation.mode": "biased", "validation.theta": 1.0, "validation.size": 4},
            lambda run: set(run.validation.labels) == {1},
        ),
        ({"defense.family": "fang", "validation.size": 1}, lambda run: len(run.validation) == 1),
        # a draw as large as its whole pool: the server's 18, or the
        # clients' 50 with overlap; a family that draws none is not checked
        ({"defense.family": "fang", "validation.size": 18}, lambda run: len(run.validation) == 18),
        (
            {"defense.family": "fltrust", "validation.allow_overlap": True, "trust.size": 50},
            lambda run: len(run.trainees) == 7 and len(run.trainees[-1]) == 50,
        ),
        ({"defense.family": "dist-cos", "validation.size": 10_000}, lambda run: run.validation is None),
        ({"federation.clients": 50}, lambda run: len(run.attack.shards) == 50),  # 90 - 22 - 18
        ({"dataset.test_fraction": 0.006}, lambda run: len(run.test_set) == 1),  # round(0.54)
    ],
    ids=[
        "scale-dim-4",
        "scale-mlp-1x3x3",
        "dba-conv-1x3x3-pool-1",
        "conv-1x4x4",
        "validation-theta-1",
        "validation-size-1",
        "validation-fills-the-server-pool",
        "trust-fills-the-client-pool",
        "dist-cos-draws-no-validation",
        "clients-fill-the-pool",
        "one-test-sample",
    ],
)
def test_config_just_inside_a_bound_builds_a_run(tmp_path, extra, check):
    # the neighbours of the exit-2 rows in test_cli: validate must not
    # reject a config that can run
    cfg = fast_config(tmp_path, "inside", **extra)
    assert check(harness._prepare(cfg, True))
    assert not os.path.exists(tmp_path / "inside")


def test_missing_idx_file_marks_the_run_as_error(tmp_path):
    # A missing source file fails setup as an IngestionError, and the
    # manifest says error with no rounds, never ok.
    missing = str(tmp_path / "absent.idx")
    cfg = fast_config(
        tmp_path,
        "noidx",
        **{"dataset.kind": "idx", "dataset.images": missing, "dataset.labels": missing},
    )
    with pytest.raises(IngestionError, match="absent.idx"):
        run_experiment(cfg)
    flat = read_manifest(os.path.join(str(tmp_path / "noidx"), "manifest.txt"))
    assert flat["run.status"] == "error"
    assert flat["run.rounds_recorded"] == "0"
    assert flat["run.error"].startswith("setup: ")


def test_csv_target_label_outside_the_label_set_stops_at_setup(tmp_path):
    # csv data learn their classes at load time, so the out-of-range
    # backdoor target is caught when the triggered probe set is built,
    # before round 1, not when the attack starts.
    rows = [f"{i % 2},{i},{i + 1},{i + 2},{i + 3}" for i in range(40)]
    data_path = tmp_path / "two.csv"
    data_path.write_text("\n".join(rows) + "\n")
    cfg = fast_config(
        tmp_path,
        "badtarget",
        **{
            "dataset.kind": "csv",
            "dataset.path": str(data_path),
            "attack.kind": "scale",
            "attack.target_label": 2,
        },
    )
    with pytest.raises(ConfigError, match="target label"):
        run_experiment(cfg)
    flat = read_manifest(os.path.join(str(tmp_path / "badtarget"), "manifest.txt"))
    assert flat["run.status"] == "error"
    assert flat["run.rounds_recorded"] == "0"
    assert flat["run.error"].startswith("setup: ")


def test_non_gradamp_failure_marks_the_run_as_error(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("disk on fire")

    monkeypatch.setattr(harness, "aggregate_round", broken)
    cfg = fast_config(tmp_path, "fire")
    with pytest.raises(RuntimeError):
        run_experiment(cfg)
    flat = read_manifest(os.path.join(str(tmp_path / "fire"), "manifest.txt"))
    assert flat["run.status"] == "error"
    assert flat["run.error"] == "round 1: RuntimeError: disk on fire"


def test_run_that_fails_mid_run_keeps_its_completed_rounds(tmp_path, monkeypatch):
    calls = []
    aggregate_round = harness.aggregate_round

    def third_call_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise RuntimeError("screen lost")
        return aggregate_round(*args, **kwargs)

    monkeypatch.setattr(harness, "aggregate_round", third_call_fails)
    cfg = fast_config(tmp_path, "mid")
    with pytest.raises(RuntimeError):
        run_experiment(cfg)
    d = str(tmp_path / "mid")
    n = int(cfg["federation.clients"])
    with open(os.path.join(d, "decisions.csv")) as fh:
        body = fh.read().splitlines()[1:]
    assert len(body) == 2 * n
    assert {int(line.split(",")[0]) for line in body} == {1, 2}
    records = read_rounds_csv(os.path.join(d, "rounds.csv"))
    assert [r.round for r in records] == [0, 2]  # checkpoint_every = 2
    flat = read_manifest(os.path.join(d, "manifest.txt"))
    assert flat["run.status"] == "error"
    assert flat["run.rounds_recorded"] == str(len(records))
    assert flat["run.error"].startswith("round 3: ")


def test_sweep_writes_one_folder_per_value(tmp_path):
    cfg = fast_config(tmp_path, "swp", **{"attack.kind": "g-asc", "attack.start_round": 1})
    out = sweep(cfg, "attack.gamma", [0.5, 2.0], str(tmp_path / "swp"))
    assert len(out) == 2
    assert os.path.exists(str(tmp_path / "swp" / "attack-gamma-0.5" / "metrics.csv"))
    assert os.path.exists(str(tmp_path / "swp" / "attack-gamma-2.0" / "metrics.csv"))
    with open(str(tmp_path / "swp" / "sweep.csv")) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("value,run_id")


def test_sweep_rejects_empty_values(tmp_path):
    cfg = fast_config(tmp_path, "swe")
    with pytest.raises(ConfigError):
        sweep(cfg, "attack.gamma", [], str(tmp_path / "swe"))


def test_manifest_checksums_every_deterministic_file(tmp_path):
    import hashlib

    manifest = run_experiment(fast_config(tmp_path, "sums", **{"output.dump_amplified_round": 2}))
    flat = read_manifest(manifest.path)
    listed = {key[len("checksum."):]: value for key, value in flat.items() if key.startswith("checksum.")}
    # timings.csv holds wall-clock numbers, so it has no checksum to compare
    assert sorted(listed) == ["amplified.csv", "config.txt", "decisions.csv", "rounds.csv"]
    for name, digest in listed.items():
        assert hashlib.sha256(read_bytes(os.path.join(manifest.run_dir, name))).hexdigest() == digest


def test_a_rerun_without_a_dump_removes_the_stale_amplified_csv(tmp_path):
    run_experiment(fast_config(tmp_path, "again", **{"output.dump_amplified_round": 2}))
    manifest = run_experiment(fast_config(tmp_path, "again"))
    assert not os.path.exists(os.path.join(manifest.run_dir, "amplified.csv"))
    assert "checksum.amplified.csv" not in read_manifest(manifest.path)
    assert not [name for name in os.listdir(manifest.run_dir) if name.endswith(".tmp")]
