"""``round_streams`` against ``rng_stream``: every stream it builds has the
full PCG64 state, and so the draws, of the one-key stream."""

import numpy as np
import pytest

from gradamp import nn
from gradamp.data import Dataset
from gradamp.seeding import _Preset, rng_stream, round_streams


def assert_streams_equal(seed, round_idx, clients):
    streams = round_streams(seed, round_idx, clients)
    assert len(streams) == len(clients)
    for c, got in zip(clients, streams):
        want = rng_stream(seed, round_idx, c)
        assert got.bit_generator.state == want.bit_generator.state, (seed, round_idx, c)
        assert np.array_equal(got.permutation(12), want.permutation(12))


# one key word each for seed and round, two (a sub-seed's 63 bits), three
# (2**64 and up: more than 4 entropy words runs the extra-entropy loop)
SEEDS = [0, 7, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1, 2**64, 2**96 + 5]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("round_idx", [0, 1, 59, 2**32, 2**40 + 3])
def test_round_streams_equal_rng_stream_over_seed_and_round_widths(seed, round_idx):
    assert_streams_equal(seed, round_idx, [0, 1, 2, 5, 9, 1000, 2**32 - 1])


@pytest.mark.parametrize(
    "clients",
    [[], [0], [17], list(range(60)), [0, 2, 5], [3, 4, 10, 11, 40], [3, 2**32, 2**40 + 1]],
    ids=["empty", "client-0", "one-client", "sixty", "gapped", "gapped-runs", "past-32-bits"],
)
def test_round_streams_equal_rng_stream_over_cohorts(clients):
    # ids past 32 bits take rng_stream itself
    assert_streams_equal(2**62 + 11, 23, clients)


def test_round_streams_equal_rng_stream_on_random_keys():
    rng = rng_stream(70)
    for _ in range(300):
        seed = int(rng.integers(2 ** int(rng.choice([32, 64])), dtype=np.uint64))
        if rng.random() < 0.1:
            seed += 2**64
        round_idx = int(rng.integers(2**32 if rng.random() < 0.1 else 200))
        m = int(rng.integers(1, 60))
        clients = sorted(int(c) for c in rng.choice(200, size=m, replace=False))
        assert_streams_equal(seed, round_idx, clients)


@pytest.mark.parametrize("key", [(-1, 0, [0]), (0, -1, [0]), (0, 0, [0, -1])])
def test_negative_keys_raise_like_rng_stream(key):
    seed, round_idx, clients = key
    with pytest.raises(ValueError, match="non-negative") as want:
        [rng_stream(seed, round_idx, c) for c in clients]
    with pytest.raises(ValueError) as got:
        round_streams(seed, round_idx, clients)
    assert str(got.value) == str(want.value)


def test_preset_gives_its_row_only_as_4_uint64_words():
    row = np.arange(4, dtype=np.uint64)
    preset = _Preset(row)
    assert preset.generate_state(4, np.uint64) is row
    for n_words, dtype in [(4, np.uint32), (8, np.uint32), (2, np.uint64), (3, np.uint64)]:
        with pytest.raises(ValueError, match="4 uint64 words"):
            preset.generate_state(n_words, dtype)


def test_train_all_hashes_no_seed_sequence(monkeypatch):
    # rng_stream builds a SeedSequence per stream; round_streams builds none
    def refuse(*args, **kwargs):
        raise AssertionError("SeedSequence built")

    model = nn.mlp_model(4, 5, 3, seed=16)
    rng = rng_stream(17)
    shards = [Dataset(rng.normal(size=(6, 4)), rng.integers(0, 3, size=6), 3) for _ in range(3)]
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    out = np.empty((3, model.theta.size))
    nn.LocalTraining(epochs=1, batch_size=3, lr=0.1, seed=20).train_all(model, shards, 2, out)
    assert np.isfinite(out).all()
