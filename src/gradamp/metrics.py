"""Run-level measurements: accuracy deltas, attack success, dips, skew.

The attack cost metric compares a run against its clean twin on shared
checkpoints: mean of (clean accuracy - attacked accuracy) inside the
monitoring window, so a defense that keeps the attacked run on the clean
trajectory scores near zero and negative values mean the attacked run did
better.  Attack success is the fraction of stamped off-target probes the
model routes to the target label.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import MetricError
from . import nn

log = logging.getLogger(__name__)

PULSE_WINDOW_ROUNDS = 50  # rounds after the attack start that negative_pulse watches


@dataclass
class RoundRecord:
    """One checkpoint of a run."""

    round: int
    test_accuracy: float
    asr: float = float("nan")      # NaN when the run has no targeted attack
    wall_ms: float = 0.0


@dataclass(frozen=True)
class MonitorWindow:
    """Inclusive checkpoint range [start, end] in round numbers."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise MetricError(f"window end {self.end} before start {self.start}")

    def covers(self, round_idx: int) -> bool:
        return self.start <= round_idx <= self.end


def accuracy(model: nn.ModelParams, dataset: Dataset) -> float:
    if len(dataset) == 0:
        raise MetricError("cannot score an empty dataset")
    return float(np.mean(nn.predict(model, dataset.features) == dataset.labels))


def asr(model: nn.ModelParams, triggered_set: Dataset, target_label: int) -> float:
    """Fraction of triggered probes predicted as the target label."""
    if len(triggered_set) == 0:
        raise MetricError("triggered set is empty")
    return float(np.mean(nn.predict(model, triggered_set.features) == target_label))


def _window_rounds(
    records: list[RoundRecord], window: MonitorWindow
) -> list[RoundRecord]:
    return [r for r in records if window.covers(r.round)]


def avg_ta_loss(
    clean: list[RoundRecord], attacked: list[RoundRecord], window: MonitorWindow
) -> float:
    """Mean clean-minus-attacked accuracy over shared window checkpoints."""
    a = _window_rounds(clean, window)
    b = _window_rounds(attacked, window)
    if [r.round for r in a] != [r.round for r in b]:
        raise MetricError(
            f"checkpoint mismatch: {[r.round for r in a]} vs {[r.round for r in b]}"
        )
    if not a:
        raise MetricError("no checkpoints inside the window")
    return float(np.mean([x.test_accuracy - y.test_accuracy for x, y in zip(a, b)]))


def avg_asr(attacked: list[RoundRecord], window: MonitorWindow) -> float:
    """Mean attack success over window checkpoints."""
    recs = _window_rounds(attacked, window)
    if not recs:
        raise MetricError("no checkpoints inside the window")
    values = [r.asr for r in recs]
    if any(np.isnan(values)):
        raise MetricError("attack success was not recorded at every checkpoint")
    return float(np.mean(values))


def negative_pulse(attacked: list[RoundRecord], start_round: int) -> float:
    """Worst accuracy dip after the attack starts.

    Over checkpoints r in [start, start + PULSE_WINDOW_ROUNDS], the largest gap
    between the run's best accuracy strictly before r and the accuracy at
    r; floored at zero, so a monotone run scores 0.
    """
    worst = 0.0
    for rec in attacked:
        if not start_round <= rec.round <= start_round + PULSE_WINDOW_ROUNDS:
            continue
        before = [x.test_accuracy for x in attacked if x.round < rec.round]
        if not before:
            continue
        worst = max(worst, max(before) - rec.test_accuracy)
    return worst


def heterogeneity(dataset: Dataset) -> float:
    """One minus the mean intra-label cosine similarity.

    Rows are L2-normalized per label; the label average is over ordered
    row pairs, self-pairs included.  Zero rows are dropped with
    a warning.  Identical rows give 0; rising values mean clients of the
    same label look less alike.
    """
    flat = dataset.features.reshape(len(dataset), -1)
    per_class = []
    for cls in range(dataset.num_classes):
        rows = flat[dataset.labels == cls]
        if rows.shape[0] == 0:
            continue
        norms = np.linalg.norm(rows, axis=1)
        if np.any(norms == 0.0):
            log.warning("label %d: dropping %d zero rows", cls, int(np.sum(norms == 0.0)))
            rows = rows[norms > 0.0]
            norms = norms[norms > 0.0]
        n = rows.shape[0]
        if n == 0:
            continue
        unit = rows / norms[:, None]
        total = float(np.dot(unit.sum(axis=0), unit.sum(axis=0)))
        per_class.append(total / (n * n))
    if not per_class:
        raise MetricError("no usable rows for the heterogeneity score")
    return float(1.0 - np.mean(per_class))
