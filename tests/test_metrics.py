"""Metric formula checks against hand-computed fixtures."""

import logging

import numpy as np
import pytest

from gradamp import nn
from gradamp.data import Dataset, default_trigger, make_triggered_set
from gradamp.errors import MetricError
from gradamp.metrics import (
    MonitorWindow,
    RoundRecord,
    accuracy,
    asr,
    avg_asr,
    avg_ta_loss,
    heterogeneity,
    negative_pulse,
)


def recs(pairs, asr_values=None):
    out = []
    for i, (rnd, acc) in enumerate(pairs):
        a = float("nan") if asr_values is None else asr_values[i]
        out.append(RoundRecord(round=rnd, test_accuracy=acc, asr=a))
    return out


def test_avg_ta_loss_frozen_fixture():
    clean = recs([(10, 0.9), (20, 0.8)])
    attacked = recs([(10, 0.7), (20, 0.6)])
    got = avg_ta_loss(clean, attacked, MonitorWindow(10, 20))
    assert abs(got - 0.2) <= 1e-12


def test_avg_ta_loss_window_is_inclusive():
    clean = recs([(5, 1.0), (10, 0.9), (15, 0.5), (20, 0.8)])
    attacked = recs([(5, 0.0), (10, 0.8), (15, 0.5), (20, 0.7)])
    got = avg_ta_loss(clean, attacked, MonitorWindow(10, 20))
    # Rounds 10, 15, 20 only: mean of (0.1, 0.0, 0.1).
    assert got == pytest.approx(0.2 / 3.0, abs=1e-12)


def test_avg_ta_loss_negative_when_attacked_run_wins():
    clean = recs([(10, 0.5)])
    attacked = recs([(10, 0.9)])
    assert avg_ta_loss(clean, attacked, MonitorWindow(0, 20)) == pytest.approx(-0.4)


def test_avg_ta_loss_checkpoint_mismatch_raises():
    with pytest.raises(MetricError, match="mismatch"):
        avg_ta_loss(recs([(10, 0.9)]), recs([(12, 0.9)]), MonitorWindow(0, 20))
    with pytest.raises(MetricError, match="no checkpoints"):
        avg_ta_loss(recs([(10, 0.9)]), recs([(10, 0.9)]), MonitorWindow(11, 12))


def test_avg_asr_mean_and_nan_guard():
    attacked = recs([(10, 0.9), (20, 0.8)], asr_values=[0.3, 0.5])
    assert avg_asr(attacked, MonitorWindow(10, 20)) == pytest.approx(0.4, abs=1e-12)
    broken = recs([(10, 0.9), (20, 0.8)], asr_values=[0.3, float("nan")])
    with pytest.raises(MetricError, match="not recorded"):
        avg_asr(broken, MonitorWindow(10, 20))


def test_negative_pulse_frozen_fixture():
    # Best before round 20 is 0.8; the dip to 0.5 scores 0.3.
    attacked = recs([(0, 0.5), (10, 0.8), (20, 0.5), (30, 0.9)])
    assert negative_pulse(attacked, start_round=10) == pytest.approx(0.3, abs=1e-12)


def test_negative_pulse_monotone_run_scores_zero():
    attacked = recs([(0, 0.2), (10, 0.4), (20, 0.6), (30, 0.8)])
    assert negative_pulse(attacked, start_round=0) == 0.0


def test_negative_pulse_only_looks_inside_the_window():
    # The crash at round 80 falls outside [10, 60] and is ignored.
    attacked = recs([(0, 0.5), (30, 0.9), (80, 0.1)])
    assert negative_pulse(attacked, start_round=10) == 0.0
    # Moving the window over it picks the crash up against the 0.9 peak.
    assert negative_pulse(attacked, start_round=60) == pytest.approx(0.8)


def test_monitor_window_validation():
    with pytest.raises(MetricError):
        MonitorWindow(5, 4)
    w = MonitorWindow(3, 7)
    assert w.covers(3) and w.covers(7) and not w.covers(8)


def test_accuracy_and_asr_on_a_fixed_model():
    # Weights route on the sign of the first feature.
    w = np.array([[1.0, 0.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0, 0.0]])
    model = nn.ModelParams([nn.Layer("dense", w, np.zeros(2)), nn.Layer("softmax")])
    d = Dataset(
        np.array(
            [
                [2.0, 0, 0, 0, 0],
                [-2.0, 0, 0, 0, 0],
                [3.0, 0, 0, 0, 0],
                [-3.0, 0, 0, 0, 0],
            ]
        ),
        np.array([0, 1, 1, 1]),
        2,
    )
    assert accuracy(model, d) == pytest.approx(0.75)
    with pytest.raises(MetricError):
        accuracy(model, Dataset(np.zeros((0, 5)), np.zeros(0, dtype=int), 2))


def test_asr_counts_routed_probes():
    # The trigger sets the last feature; a model keyed on it routes every
    # stamped probe to class 0.
    w = np.array([[0.0, 0.0, 0.0, 0.0, 5.0], [1.0, 0.0, 0.0, 0.0, 0.0]])
    model = nn.ModelParams([nn.Layer("dense", w, np.zeros(2)), nn.Layer("softmax")])
    d = Dataset(np.full((6, 5), 0.1), np.array([0, 1, 1, 1, 0, 1]), 2)
    spec = default_trigger((5,), target_label=0)
    probes = make_triggered_set(d, spec)
    assert len(probes) == 4
    assert asr(model, probes, 0) == 1.0
    with pytest.raises(MetricError):
        asr(model, Dataset(np.zeros((0, 5)), np.zeros(0, dtype=int), 2), 0)


def test_heterogeneity_identical_rows_scores_zero():
    d = Dataset(np.tile([1.0, 2.0, 3.0], (6, 1)), np.array([0, 0, 0, 1, 1, 1]), 2)
    assert heterogeneity(d) == pytest.approx(0.0, abs=1e-12)


def test_heterogeneity_orthogonal_pair_scores_half():
    # Ordered pairs with self: cosines (1, 0, 0, 1), mean 1/2, score 1/2.
    d = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 0]), 1)
    assert heterogeneity(d) == pytest.approx(0.5, abs=1e-12)


def test_heterogeneity_averages_over_labels():
    d = Dataset(
        np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [3.0, 0.0]]),
        np.array([0, 0, 1, 1]),
        2,
    )
    # Label 0 scores 0.5, label 1 scores 0: mean 0.25.
    assert heterogeneity(d) == pytest.approx(0.25, abs=1e-12)


def test_heterogeneity_drops_zero_rows_with_warning(caplog):
    d = Dataset(
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]),
        np.array([0, 0, 0]),
        1,
    )
    with caplog.at_level(logging.WARNING, logger="gradamp.metrics"):
        got = heterogeneity(d)
    assert got == pytest.approx(0.0, abs=1e-12)
    assert any("zero rows" in r.message for r in caplog.records)
    with pytest.raises(MetricError):
        heterogeneity(Dataset(np.zeros((2, 3)), np.zeros(2, dtype=int), 1))
