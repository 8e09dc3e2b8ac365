"""Data layer checks: synthetic clusters, the two file formats,
partitioning, triggers, and server-side validation draws."""

import struct

import numpy as np
import pytest
from scipy import stats

from gradamp.data import (
    Dataset,
    TriggerSpec,
    ValidationSpec,
    default_trigger,
    embed_trigger,
    load_csv,
    load_idx,
    make_triggered_set,
    partition,
    sample_validation,
    save_csv,
    split_pools,
    synth_blobs,
)
from gradamp.errors import ConfigError, IngestionError, SamplingError


def test_dataset_validation():
    with pytest.raises(ConfigError):
        Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int), 2)
    with pytest.raises(ConfigError):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), 2)
    d = Dataset(np.ones((2, 2)), np.array([0, 1]), 2)
    assert len(d) == 2
    assert d.feature_shape == (2,)


def test_subset_copies():
    d = Dataset(np.arange(8.0).reshape(4, 2), np.array([0, 1, 0, 1]), 2)
    s = d.subset([1, 3])
    s.features[0, 0] = 99.0
    assert d.features[1, 0] == 2.0
    assert s.labels.tolist() == [1, 1]


def test_synth_blobs_shapes_and_determinism():
    a = synth_blobs(3, per_class=10, dim=5, spread=1.0, seed=1)
    b = synth_blobs(3, per_class=10, dim=5, spread=1.0, seed=1)
    c = synth_blobs(3, per_class=10, dim=5, spread=1.0, seed=2)
    assert a.features.shape == (30, 5)
    assert np.bincount(a.labels, minlength=3).tolist() == [10, 10, 10]
    assert np.array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)
    img = synth_blobs(2, per_class=4, dim=(1, 6, 6), spread=0.5, seed=3)
    assert img.features.shape == (8, 1, 6, 6)


def test_synth_blobs_zero_spread_collapses_to_centers():
    d = synth_blobs(3, per_class=5, dim=4, spread=0.0, seed=4)
    for c in range(3):
        rows = d.features[d.labels == c]
        assert np.allclose(rows, rows[0], atol=0.0)


def idx_pair(tmp_path, n=4, rows=5, cols=5, labels=(0, 1, 2, 1)):
    pixels = bytes(range(n * rows * cols)) if n * rows * cols <= 256 else bytes(
        i % 256 for i in range(n * rows * cols)
    )
    ibuf = struct.pack(">IIII", 0x00000803, n, rows, cols) + pixels
    lbuf = struct.pack(">II", 0x00000801, len(labels)) + bytes(labels)
    ipath, lpath = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
    ipath.write_bytes(ibuf)
    lpath.write_bytes(lbuf)
    return str(ipath), str(lpath)


def test_load_idx_round_trip(tmp_path):
    ipath, lpath = idx_pair(tmp_path)
    d = load_idx(ipath, lpath)
    assert d.features.shape == (4, 1, 5, 5)
    assert d.labels.tolist() == [0, 1, 2, 1]
    assert d.num_classes == 3
    # Byte value 1 lands at position (0, 0, 0, 1), scaled into [0, 1].
    assert d.features[0, 0, 0, 1] == pytest.approx(1.0 / 255.0)
    assert d.features.max() <= 1.0


def test_load_idx_bad_magic_names_the_byte(tmp_path):
    ipath, lpath = idx_pair(tmp_path)
    buf = bytearray(open(ipath, "rb").read())
    buf[3] = 0x99
    open(ipath, "wb").write(bytes(buf))
    with pytest.raises(IngestionError, match="byte 0"):
        load_idx(ipath, lpath)


def test_load_idx_truncation_names_the_offset(tmp_path):
    ipath, lpath = idx_pair(tmp_path)
    buf = open(ipath, "rb").read()
    open(ipath, "wb").write(buf[:-10])
    with pytest.raises(IngestionError, match="at byte 16"):
        load_idx(ipath, lpath)


def test_load_idx_label_count_mismatch(tmp_path):
    ipath, lpath = idx_pair(tmp_path)
    lbuf = struct.pack(">II", 0x00000801, 5) + bytes([0, 1, 2, 1, 0])
    open(lpath, "wb").write(lbuf)
    with pytest.raises(IngestionError, match="5 labels for 4 images"):
        load_idx(ipath, lpath)


def test_unreadable_files_are_ingestion_errors(tmp_path):
    ipath, lpath = idx_pair(tmp_path)
    with pytest.raises(IngestionError, match="missing.idx: cannot read"):
        load_idx(ipath, str(tmp_path / "missing.idx"))
    with pytest.raises(IngestionError, match="missing.csv: cannot read"):
        load_csv(str(tmp_path / "missing.csv"))
    bad = tmp_path / "latin.csv"
    bad.write_bytes(b"0,1.0\n1,\xe9\n")
    with pytest.raises(IngestionError, match="not ASCII text at byte 8"):
        load_csv(str(bad))


def test_csv_round_trip(tmp_path):
    d = synth_blobs(3, per_class=6, dim=7, spread=1.3, seed=5)
    path = str(tmp_path / "data.csv")
    save_csv(d, path)
    back = load_csv(path)
    assert np.array_equal(back.features, d.features)  # repr round-trips float64
    assert np.array_equal(back.labels, d.labels)
    assert back.num_classes == 3


def test_csv_wide_binary_matrix(tmp_path):
    # 30 classes x 446 binary indicator features, the widest shape the
    # loader has to take without a header.
    rng = np.random.default_rng(6)
    path = tmp_path / "wide.csv"
    with open(path, "w") as fh:
        for y in range(30):
            for _ in range(2):
                bits = rng.integers(0, 2, size=446)
                fh.write(str(y) + "," + ",".join(str(b) for b in bits) + "\n")
    d = load_csv(str(path))
    assert d.features.shape == (60, 446)
    assert d.num_classes == 30
    assert set(np.unique(d.features)) <= {0.0, 1.0}


def test_csv_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1.0,2.0\n1,3.0\n")
    with pytest.raises(IngestionError, match="line 2"):
        load_csv(str(path))
    path.write_text("0,1.0\n1,oops\n")
    with pytest.raises(IngestionError, match="line 2"):
        load_csv(str(path))
    path.write_text("")
    with pytest.raises(IngestionError, match="no data rows"):
        load_csv(str(path))
    path.write_text("-1,1.0\n")
    with pytest.raises(IngestionError, match="negative label"):
        load_csv(str(path))
    for label in ("99999999999999999999", str(2**63), str(-(2**63) - 1)):
        path.write_text(f"0,1.0\n{label},2.0\n")
        with pytest.raises(IngestionError, match=f"line 2: label {label} outside int64"):
            load_csv(str(path))


@pytest.mark.parametrize(
    "text,message",
    [
        ("0,1.0\n\n0,2.0\n", "every label is 0, line 1 to line 3; need at least two distinct labels"),
        ("0,1.0\n5,2.0\n1,3.0\n", "line 2: label 5 asks for 6 classes from 3 rows"),
        (f"0,1.0\n{2**40},2.0\n", f"line 2: label {2**40} asks for {2**40 + 1} classes from 2 rows"),
        ("0,1.0\n1,nan\n", "line 2: non-finite feature"),
        ("0,1.0\n1,-inf\n", "line 2: non-finite feature"),
        ("0,1.0,2.0\n1,2.0,1e400\n", "line 2: non-finite feature"),
    ],
    ids=["one-label", "label-beyond-rows", "label-2**40", "nan", "inf", "1e400"],
)
def test_csv_rejects_data_no_classifier_can_train_on(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(IngestionError, match=message):
        load_csv(str(path))


def test_csv_keeps_a_finite_extreme_feature(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("0,1e308\n1,-1e308\n")
    assert load_csv(str(path)).features[:, 0].tolist() == [1e308, -1e308]


@pytest.mark.parametrize(
    "labels,message",
    [
        ((1, 1, 1, 1), "every label is 1, byte 8 to byte 11; need at least two distinct labels"),
        ((0, 1, 9, 1), "byte 10: label 9 asks for 10 classes from 4 rows"),
    ],
    ids=["one-label", "label-beyond-rows"],
)
def test_idx_rejects_labels_no_classifier_can_train_on(tmp_path, labels, message):
    ipath, lpath = idx_pair(tmp_path, labels=labels)
    with pytest.raises(IngestionError, match=f"lbls.idx: {message}"):
        load_idx(ipath, lpath)


def test_partition_iid_covers_disjointly():
    d = synth_blobs(3, per_class=20, dim=4, spread=1.0, seed=7)
    shards = partition(d, 7, scheme="iid", seed=8)
    all_idx = np.concatenate(shards)
    assert len(all_idx) == 60
    assert len(np.unique(all_idx)) == 60
    sizes = [len(s) for s in shards]
    assert max(sizes) - min(sizes) <= 1


def test_partition_more_clients_than_samples_rejected():
    d = synth_blobs(2, per_class=2, dim=3, spread=1.0, seed=9)
    with pytest.raises(ConfigError):
        partition(d, 5, scheme="iid", seed=0)
    with pytest.raises(ConfigError):
        partition(d, 2, scheme="sorted", seed=0)


def test_partition_full_skew_pins_labels_to_home_groups():
    d = synth_blobs(3, per_class=30, dim=4, spread=1.0, seed=10)
    shards = partition(d, 6, scheme="label-skew", skew=1.0, seed=11)
    for c, shard in enumerate(shards):
        labels = d.labels[shard]
        # Client c only serves samples whose label is congruent to c mod 3.
        assert np.all(labels % 3 == c % 3)


def test_partition_neutral_skew_matches_iid_rates():
    # skew = 1/M sends every sample to each label group uniformly; group
    # occupancy should not reject a uniform fit.
    d = synth_blobs(3, per_class=1000, dim=2, spread=1.0, seed=12)
    shards = partition(d, 6, scheme="label-skew", skew=1.0 / 3.0, seed=13)
    group_counts = np.zeros(3)
    for c, shard in enumerate(shards):
        group_counts[c % 3] += len(shard)
    _, p = stats.chisquare(group_counts)
    assert p > 0.01


def _cells(shape, region):
    """The cells of an array shaped ``shape`` that ``region`` stamps."""
    mask = np.zeros(shape, dtype=bool)
    mask[region] = True
    return {tuple(int(i) for i in cell) for cell in np.argwhere(mask)}


def test_default_trigger_geometry():
    img = default_trigger((2, 8, 8), target_label=1)
    assert len(img.regions) == 1
    patch = {(ch, r, c) for ch in (0, 1) for r in (5, 6, 7) for c in (5, 6, 7)}
    assert _cells((2, 8, 8), img.regions[0]) == patch  # 3x3 on both channels
    tab = default_trigger((10,), target_label=0)
    assert [_cells((10,), region) for region in tab.regions] == [{(6,), (7,), (8,), (9,)}]
    with pytest.raises(ConfigError):
        default_trigger((1, 2, 2), 0)
    with pytest.raises(ConfigError):
        default_trigger((3,), 0)
    with pytest.raises(ConfigError, match="1 or 4 parts only"):
        default_trigger((10,), 0, split_parts=2)


def test_split_trigger_quadrants_partition_the_patch():
    spec = default_trigger((2, 8, 8), target_label=0, split_parts=4)
    parts = [_cells((2, 8, 8), region) for region in spec.regions]
    # row-major around the cut after row and col 6: 2x2, 2x1, 1x2, 1x1
    assert parts == [
        {(ch, r, c) for ch in (0, 1) for r in rows for c in cols}
        for rows, cols in (((5, 6), (5, 6)), ((5, 6), (7,)), ((7,), (5, 6)), ((7,), (7,)))
    ]
    assert [len(p) // 2 for p in parts] == [4, 2, 2, 1]  # cells per channel
    assert sum(len(p) for p in parts) == len(set().union(*parts))  # disjoint
    assert set().union(*parts) == _cells((2, 8, 8), default_trigger((2, 8, 8), 0).regions[0])


def test_split_trigger_tabular_parts_are_single_features():
    spec = default_trigger((12,), target_label=0, split_parts=4)
    assert [_cells((12,), region) for region in spec.regions] == [{(8,)}, {(9,)}, {(10,)}, {(11,)}]
    d = Dataset(np.zeros((4, 12)), np.arange(4) % 2, 2)
    with pytest.raises(ConfigError, match="part_index 4 out of range"):
        embed_trigger(d, spec, 0.5, part_index=4)
    with pytest.raises(ConfigError, match="part_index 1 out of range"):
        embed_trigger(d, default_trigger((12,), target_label=0), 0.5, part_index=1)


def test_embed_trigger_appends_stamped_copies():
    d = Dataset(np.zeros((10, 8)), np.arange(10) % 2, 2)
    spec = default_trigger((8,), target_label=1)
    out = embed_trigger(d, spec, fraction=0.3, seed=14)
    assert len(out) == 13  # round(0.3 * 10) = 3 copies appended
    assert np.array_equal(out.features[:10], d.features)
    assert np.array_equal(out.labels[:10], d.labels)
    assert np.all(out.labels[10:] == 1)
    assert np.all(out.features[10:, 4:] == 1.0)
    assert np.all(out.features[10:, :4] == 0.0)


def test_embed_trigger_zero_fraction_copies_untouched():
    d = Dataset(np.ones((6, 5)), np.zeros(6, dtype=int), 2)
    spec = default_trigger((5,), target_label=1)
    out = embed_trigger(d, spec, fraction=0.0, seed=15)
    assert len(out) == 6
    out.features[0, 0] = 7.0
    assert d.features[0, 0] == 1.0


def test_embed_trigger_is_deterministic():
    d = synth_blobs(2, per_class=10, dim=6, spread=1.0, seed=16)
    spec = default_trigger((6,), target_label=0)
    a = embed_trigger(d, spec, 0.5, seed=17)
    b = embed_trigger(d, spec, 0.5, seed=17)
    c = embed_trigger(d, spec, 0.5, seed=18)
    assert np.array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)


def test_make_triggered_set_skips_target_class():
    d = Dataset(np.zeros((6, 7)), np.array([0, 1, 2, 1, 0, 2]), 3)
    spec = default_trigger((7,), target_label=1)
    probes = make_triggered_set(d, spec)
    assert len(probes) == 4
    assert 1 not in probes.labels
    assert np.all(probes.features[:, 3:] == 1.0)


@pytest.mark.parametrize("target", [-1, 3])
def test_triggers_reject_a_target_outside_the_label_set(target):
    d = Dataset(np.zeros((6, 7)), np.array([0, 1, 2, 1, 0, 2]), 3)
    spec = default_trigger((7,), target_label=target)
    with pytest.raises(ConfigError, match="outside the label set"):
        make_triggered_set(d, spec)
    with pytest.raises(ConfigError, match="outside the label set"):
        embed_trigger(d, spec, fraction=0.5)


def test_sample_validation_uniform():
    d = synth_blobs(3, per_class=20, dim=4, spread=1.0, seed=19)
    out = sample_validation(d, ValidationSpec(size=25), seed=20)
    assert len(out) == 25
    again = sample_validation(d, ValidationSpec(size=25), seed=20)
    assert np.array_equal(out.features, again.features)
    with pytest.raises(SamplingError):
        sample_validation(d, ValidationSpec(size=61), seed=0)


def test_sample_validation_biased_hits_exact_count():
    d = synth_blobs(3, per_class=50, dim=4, spread=1.0, seed=21)
    spec = ValidationSpec(size=100, mode="biased", theta=0.4, biased_class=1)
    out = sample_validation(d, spec, seed=22)
    assert len(out) == 100
    assert int(np.sum(out.labels == 1)) == 40
    full = ValidationSpec(size=30, mode="biased", theta=1.0, biased_class=2)
    assert np.all(sample_validation(d, full, seed=23).labels == 2)


def test_sample_validation_biased_exhaustion():
    d = synth_blobs(2, per_class=10, dim=3, spread=1.0, seed=24)
    with pytest.raises(SamplingError):
        sample_validation(
            d, ValidationSpec(size=20, mode="biased", theta=0.8, biased_class=0), seed=0
        )
    with pytest.raises(ConfigError):
        sample_validation(d, ValidationSpec(size=5, mode="extreme"), seed=0)


def test_split_pools_cover_disjointly():
    d = synth_blobs(4, per_class=50, dim=3, spread=1.0, seed=25)
    train, server, test = split_pools(d, test_fraction=0.25, server_fraction=0.15, seed=26)
    assert len(test) == 50 and len(server) == 30 and len(train) == 120
    rows = set()
    for part in (train, server, test):
        for row in part.features:
            rows.add(row.tobytes())
    assert len(rows) == 200  # no row appears in two pools
    for fractions in ((0.7, 0.4), (float("nan"), 0.2), (0.2, float("nan"))):
        with pytest.raises(ConfigError):
            split_pools(d, *fractions, seed=0)
