"""Attack crafting checks: cohort selection, the static flip, collusion
vectors, the deviation search, and the round gate."""

import logging
import os
from dataclasses import replace
import subprocess
import sys

import numpy as np
import pytest

from gradamp import nn
from gradamp.attacks import (
    AttackConfig,
    AttackContext,
    _median,
    craft_updates,
    flip_labels,
    grad_ascent,
    poisoned_shards,
    resolve_trigger,
    select_malicious,
    sh_optimized,
)
from gradamp.config import ExperimentConfig
from gradamp.data import Dataset, embed_trigger, partition, synth_blobs
from gradamp.errors import ConfigError
from gradamp.seeding import rng_stream


def dense_grads(vec):
    return np.asarray(vec, dtype=np.float64)


def test_flip_labels_frozen_fixture():
    shard = Dataset(np.zeros((3, 2)), np.array([3, 9, 0]), 10)
    flipped = flip_labels(shard)
    assert flipped.labels.tolist() == [6, 0, 9]
    # Involution: flipping twice restores the originals.
    assert flip_labels(flipped).labels.tolist() == [3, 9, 0]
    assert np.array_equal(flipped.features, shard.features)


def test_grad_ascent_reverses_the_update():
    g = dense_grads([1.0, -2.0])
    assert np.array_equal(grad_ascent(g, 1.0), [-1.0, 2.0])
    assert np.array_equal(grad_ascent(grad_ascent(g, 1.0), 1.0), g)
    assert np.array_equal(grad_ascent(g, 2.5), [-2.5, 5.0])


def test_select_malicious_floor_and_determinism():
    assert select_malicious(10, 0.0, seed=3) == []
    assert len(select_malicious(10, 0.3, seed=3)) == 3
    assert len(select_malicious(10, 0.39, seed=3)) == 3  # floor, not round
    # 0.29 * 100 is 28.999999999999996 in floats; the stated 0.29 means 29.
    assert len(select_malicious(100, 0.29, seed=3)) == 29
    a = select_malicious(20, 0.25, seed=3)
    assert a == select_malicious(20, 0.25, seed=3)
    assert a == sorted(set(a))
    assert all(0 <= i < 20 for i in a)
    assert select_malicious(20, 0.25, seed=4) != a or len(a) == 0


def test_sh_optimized_halves_until_the_screen_passes():
    view = np.stack([dense_grads([0.0, 0.0]), dense_grads([2.0, 2.0])])
    crafted, gamma = sh_optimized(view, gamma_max=1.0)
    # gamma 1 crafts the zero vector (cosine 0 < median 0.5); one halving
    # lands on (0.5, 0.5) with cosine 1.
    assert gamma == 0.5
    assert np.array_equal(crafted, [0.5, 0.5])


def test_sh_optimized_falls_back_to_the_mean(caplog):
    # All honest cosines to the mean are exactly 1, and gamma_max is so
    # large that twenty halvings still leave the craft pointing backwards.
    view = np.stack(
        [dense_grads([1.0, 0.0]), dense_grads([1.0, 0.0]), dense_grads([3.0, 0.0])]
    )
    with caplog.at_level(logging.WARNING, logger="gradamp.attacks"):
        crafted, gamma = sh_optimized(view, gamma_max=1e7)
    assert gamma == 0.0
    assert np.allclose(crafted, [5.0 / 3.0, 0.0], atol=1e-12)
    assert any("20 halvings" in r.message for r in caplog.records)


def test_sh_optimized_single_update_warns_and_uses_it(caplog):
    only = dense_grads([3.0, 4.0])
    with caplog.at_level(logging.WARNING, logger="gradamp.attacks"):
        crafted, gamma = sh_optimized(np.stack([only]), gamma_max=8.0)
    assert np.array_equal(crafted, [3.0, 4.0])
    assert gamma == 8.0  # sigma is zero, the first candidate already passes
    assert any("single honest update" in r.message for r in caplog.records)


def test_median_has_the_bits_of_np_median():
    # Few distinct values give ties and both zeros at the middle; a NaN of
    # either sign makes the whole median NaN.
    rng = rng_stream(66)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 0.5, np.nan, -np.nan])
    for n in range(1, 61):
        for draw in (
            rng.choice(pool[:4], size=n),
            rng.choice(pool, size=n),
            np.round(rng.normal(size=n)) * rng.choice([1.0, -1.0], size=n),
            rng.normal(size=n),
        ):
            values = draw.tolist()
            got, want = np.float64(_median(values)), np.float64(np.median(values))
            assert got.tobytes() == want.tobytes(), values


def test_an_sh_optimized_pair_never_imports_numpy_ma(tmp_path):
    # np.median's NaN check imports numpy.ma on its first call, ~17 ms
    # inside a round of a fresh process.
    cfg = {
        "dataset.per_class": 30,
        "federation.clients": 6,
        "federation.rounds": 2,
        "model.hidden": 8,
        "attack.kind": "sh-optimized",
        "attack.start_round": 0,
        "output.dir": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.txt"
    path.write_text(ExperimentConfig.from_mapping(cfg).canonical_text())
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = (
        "import sys; from gradamp.cli import main; "
        "assert main(['run-pair', sys.argv[1]]) == 0; print('numpy.ma' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def shard_list(data, num_clients, seed):
    shards = partition(data, num_clients, scheme="iid", skew=0.5, seed=seed)
    return [data.subset(idx) for idx in shards]


def make_context(num_clients=6, fraction=0.5, trigger=None, num_classes=3):
    data = synth_blobs(num_classes, per_class=20, dim=4, spread=1.0, seed=70)
    shards = shard_list(data, num_clients, seed=71)
    return AttackContext(
        malicious=select_malicious(num_clients, fraction, seed=72),
        shards=shards,
        train=nn.LocalTraining(epochs=1, batch_size=16, lr=0.1, seed=73),
        seed_attack=74,
        trigger=trigger,
    )


def honest_updates(model, ctx, round_idx):
    """The round's (N, P) honest update matrix."""
    rows = [
        nn.local_train(
            model,
            shard.features,
            shard.labels,
            epochs=ctx.train.epochs,
            batch_size=ctx.train.batch_size,
            lr=ctx.train.lr,
            seed=rng_stream(ctx.train.seed, round_idx, i),
        )
        for i, shard in enumerate(ctx.shards)
    ]
    return np.stack(rows)


def poisoned_updates(model, ctx, cfg, round_idx):
    """The round's (N, P) update matrix from one ``train_all``, the cohort
    on its poisoned shards."""
    poisoned = poisoned_shards(round_idx, cfg, ctx)
    assert sorted(poisoned) == ctx.malicious
    shards = [poisoned.get(i, shard) for i, shard in enumerate(ctx.shards)]
    out = np.empty((len(shards), model.theta.size))
    ctx.train.train_all(model, shards, round_idx, out)
    return out


def test_cohort_honest_before_start_round():
    ctx = make_context()
    model = nn.mlp_model(4, 5, 3, seed=75)
    honest = honest_updates(model, ctx, round_idx=4)
    cfg = AttackConfig(kind="g-asc", malicious_fraction=0.5, start_round=5)
    before = honest.copy()
    out = craft_updates(4, honest, model, cfg, ctx)
    assert out is honest
    assert np.array_equal(out, before)


def test_gradient_ascent_collusion():
    ctx = make_context()
    model = nn.mlp_model(4, 5, 3, seed=75)
    honest = honest_updates(model, ctx, round_idx=5)
    cfg = AttackConfig(kind="g-asc", malicious_fraction=0.5, start_round=5, gamma=2.0)
    before = honest.copy()
    out = craft_updates(5, honest, model, cfg, ctx)
    expect = -2.0 * np.mean(before, axis=0)
    for m in ctx.malicious:
        assert np.allclose(out[m], expect, atol=1e-15)
    for i in range(len(ctx.shards)):
        if i not in ctx.malicious:
            assert np.array_equal(out[i], before[i])


def test_label_flip_retrains_with_the_honest_seed():
    ctx = make_context()
    model = nn.mlp_model(4, 5, 3, seed=75)
    honest = honest_updates(model, ctx, round_idx=7)
    cfg = AttackConfig(kind="l-flip", malicious_fraction=0.5, start_round=0)
    out = poisoned_updates(model, ctx, cfg, 7)
    m = ctx.malicious[0]
    assert not np.array_equal(out[m], honest[m])
    expect = nn.local_train(
        model,
        ctx.shards[m].features,
        ctx.shards[m].num_classes - 1 - ctx.shards[m].labels,
        epochs=1,
        batch_size=16,
        lr=0.1,
        seed=rng_stream(ctx.train.seed, 7, m),
    )
    assert np.array_equal(out[m], expect)


def test_combined_attack_sums_both_perturbations():
    ctx = make_context()
    model = nn.mlp_model(4, 5, 3, seed=75)
    honest = honest_updates(model, ctx, round_idx=2)
    cfg = AttackConfig(kind="l-flip+g-asc", malicious_fraction=0.5, start_round=0, gamma=1.5)
    # the rows arrive trained on the flipped shards; the craft adds the ascent
    # of the honest rows it retrains
    flipped = poisoned_updates(model, ctx, cfg, 2)
    out = craft_updates(2, flipped.copy(), model, cfg, ctx)
    for i in range(len(ctx.shards)):
        expect = flipped[i] - 1.5 * honest[i] if i in ctx.malicious else flipped[i]
        assert np.array_equal(out[i], expect), i


def test_scale_attack_is_linear_in_lambda():
    trigger = resolve_trigger(AttackConfig(kind="scale"), feature_shape=(4,))
    ctx = make_context(trigger=trigger)
    model = nn.mlp_model(4, 5, 3, seed=75)
    honest = honest_updates(model, ctx, round_idx=3)

    def run(lam):
        cfg = AttackConfig(
            kind="scale", malicious_fraction=0.5, start_round=0, scale_factor=lam
        )
        return craft_updates(3, honest.copy(), model, cfg, ctx)

    one, three = run(1.0), run(3.0)
    auto = run("auto-n")
    for m in ctx.malicious:
        assert np.allclose(three[m], 3.0 * one[m], atol=1e-12)
        # auto-n resolves to the federation size
        assert np.allclose(auto[m], len(ctx.shards) * one[m], atol=1e-12)


def test_scale_attack_trains_on_a_stamped_shard():
    trigger = resolve_trigger(AttackConfig(kind="scale", target_label=1), feature_shape=(4,))
    ctx = make_context(trigger=trigger)
    model = nn.mlp_model(4, 5, 3, seed=75)
    cfg = AttackConfig(
        kind="scale", malicious_fraction=0.5, start_round=0, scale_factor=1.0, target_label=1
    )
    out = poisoned_updates(model, ctx, cfg, 3)
    m = ctx.malicious[0]
    poisoned = embed_trigger(
        ctx.shards[m],
        trigger,
        0.5,
        part_index=0,
        seed=rng_stream(ctx.seed_attack, 3, m).integers(2**32),
    )
    expect = nn.local_train(
        model,
        poisoned.features,
        poisoned.labels,
        epochs=1,
        batch_size=16,
        lr=0.1,
        seed=rng_stream(ctx.train.seed, 3, m),
    )
    assert np.array_equal(out[m], expect)


def test_dba_assigns_parts_round_robin():
    trigger = resolve_trigger(AttackConfig(kind="dba"), feature_shape=(1, 8, 8))
    assert len(trigger.regions) == 4
    data = synth_blobs(2, per_class=24, dim=(1, 8, 8), spread=1.0, seed=76)
    shards = shard_list(data, 6, seed=77)
    ctx = AttackContext(
        malicious=[0, 1, 2, 3, 4],
        shards=shards,
        train=nn.LocalTraining(epochs=1, batch_size=16, lr=0.1, seed=78),
        seed_attack=79,
        trigger=trigger,
    )
    model = nn.conv_model((1, 8, 8), 2, seed=80, filters=2, kernel=3, pool=2)
    cfg = AttackConfig(kind="dba", malicious_fraction=0.9, start_round=0)
    out = poisoned_updates(model, ctx, cfg, 0)
    for rank, m in enumerate(ctx.malicious):
        poisoned = embed_trigger(
            shards[m],
            trigger,
            0.5,
            part_index=rank % 4,  # fifth member wraps back to part 0
            seed=rng_stream(79, 0, m).integers(2**32),
        )
        expect = nn.local_train(
            model, poisoned.features, poisoned.labels, 1, 16, 0.1,
            seed=rng_stream(78, 0, m),
        )
        assert np.array_equal(out[m], expect)


def test_targeted_attack_without_trigger_raises():
    ctx = make_context(trigger=None)
    cfg = AttackConfig(kind="scale", malicious_fraction=0.5, start_round=1)
    with pytest.raises(ConfigError, match="needs a trigger"):
        poisoned_shards(1, cfg, ctx)
    # no shard is poisoned before the start round, without a cohort or
    # under a kind that poisons updates only
    assert poisoned_shards(0, cfg, ctx) == {}
    assert poisoned_shards(1, cfg, replace(ctx, malicious=[])) == {}
    assert poisoned_shards(1, replace(cfg, kind="g-asc"), ctx) == {}


def test_resolve_trigger_only_for_targeted_kinds():
    assert resolve_trigger(AttackConfig(kind="g-asc"), (4,)) is None
    assert resolve_trigger(AttackConfig(kind="l-flip"), (4,)) is None
    spec = resolve_trigger(AttackConfig(kind="scale", target_label=2), (1, 8, 8))
    assert spec is not None
    assert spec.target_label == 2
    assert len(spec.regions) == 1


def test_attack_config_validation():
    with pytest.raises(ConfigError):
        AttackConfig(kind="mystery").validate()
    with pytest.raises(ConfigError):
        AttackConfig(malicious_fraction=1.0).validate()
    with pytest.raises(ConfigError):
        AttackConfig(start_round=-1).validate()
    with pytest.raises(ConfigError):
        AttackConfig(scale_factor="huge").validate()
    with pytest.raises(ConfigError):
        AttackConfig(trigger_fraction=1.5).validate()
    assert AttackConfig(kind="scale").targeted
    assert AttackConfig(kind="dba").targeted
    assert not AttackConfig(kind="g-asc").targeted
