"""Aggregator checks: the density fixture, leave-one-out screens, trust
weighting, and the rule that scoring sees amplified vectors while the
model only ever moves along original updates."""

import logging
import math
import sys
import threading
import warnings

import numpy as np
import pytest

from gradamp import nn, runtime
from gradamp.aggregate import (
    AggregatorConfig,
    _keep_top,
    aggregate_round,
    density_whitelist,
    fang_whitelist,
    fltrust_aggregate,
    merged_whitelist,
)
from gradamp.amplify import AmplifierConfig
from gradamp.data import Dataset
from gradamp.errors import ConfigError
from gradamp.seeding import rng_stream


def dense_grads(vec):
    """Flat update row holding ``vec``."""
    return np.asarray(vec, dtype=np.float64)


def dense_row(weight, bias):
    """Flat update row of a single dense layer, weight then bias."""
    return np.concatenate([np.ravel(weight), bias])


def test_density_whitelist_frozen_fixture():
    # Three near-parallel clients and one flipped: the flipped client goes.
    amped = [dense_grads(v) for v in [(1.0, 0.0), (1.0, 0.01), (0.99, 0.0), (-1.0, 0.0)]]
    wl, scores = density_whitelist(amped, "cos", neighbors=3, assumed_malicious=0.25)
    assert wl == [0, 1, 2]
    assert scores[0] == pytest.approx(2.0 + 1.0 / math.sqrt(1.0001), abs=1e-12)
    assert scores[0] == pytest.approx(scores[2], abs=1e-12)
    assert scores[1] < scores[0]
    assert scores[3] < 0.0


def test_density_whitelist_cardinality_law():
    rng = rng_stream(60)
    for _ in range(40):
        n = int(rng.integers(4, 26))
        mf = float(rng.uniform(0.0, 0.5))
        amped = [dense_grads(rng.normal(size=6)) for _ in range(n)]
        wl, _ = density_whitelist(amped, "cos", n // 2 + 1, mf)
        assert len(wl) == math.ceil((1.0 - mf) * n)
        assert wl == sorted(set(wl))
        assert all(0 <= i < n for i in wl)


def test_density_zero_norm_vector_scores_zero(caplog):
    amped = [dense_grads(v) for v in [(1.0, 0.0), (0.9, 0.1), (0.0, 0.0), (0.8, 0.2)]]
    with caplog.at_level(logging.WARNING, logger="gradamp.aggregate"):
        wl, scores = density_whitelist(amped, "cos", neighbors=3, assumed_malicious=0.25)
    assert scores[2] == 0.0
    assert 2 not in wl
    assert caplog.records == []  # a zero row's cosines are 0 on purpose: no warning


def test_density_non_finite_cosines_score_zero_with_a_warning(caplog):
    # (1e200, 1e200)'s norm overflows: its self-cosine is inf/inf, NaN,
    # while its cosines with the finite rows are finite over inf, 0
    amped = [dense_grads(v) for v in [(1.0, 0.0), (0.9, 0.1), (1e200, 1e200), (0.8, 0.2)]]
    with warnings.catch_warnings(), caplog.at_level(logging.WARNING, logger="gradamp.aggregate"):
        warnings.simplefilter("error")  # and numpy prints nothing
        wl, scores = density_whitelist(amped, "cos", neighbors=3, assumed_malicious=0.25)
    assert [r.getMessage() for r in caplog.records] == [
        "1 non-finite cosine similarities between non-zero rows; scoring them 0"
    ]
    assert scores[2] == 0.0 and np.isfinite(scores).all()
    assert wl == [0, 1, 3]


def test_keep_top_ranks_nan_below_every_number():
    nan, inf = math.nan, math.inf
    assert _keep_top([1.0, nan, 0.5, nan, 2.0], 3) == [0, 2, 4]
    assert _keep_top(np.array([nan, -inf, nan, 3.0]), 2) == [1, 3]
    assert _keep_top([nan, nan, nan], 2) == [0, 1]


@pytest.mark.parametrize(
    "family", ["dist-cos", "dist-euc", "dist-merged", "fang", "fltrust", "fang-on-worker"]
)
@pytest.mark.parametrize("bad", ["huge", "nan"])
@pytest.mark.parametrize("culprit", range(6))
def test_a_non_finite_update_never_passes_a_screen(family, bad, culprit, caplog, request):
    # Six similar MLP updates; the culprit's row is scaled by 1e305 (its
    # norm and products overflow) or holds one NaN.  fang-on-worker is fang
    # on rows of runtime.SPLIT_FLOATS or more (65,543), so the probes of
    # clients 3-5 run on the runtime worker, under the caller's error state.
    on_worker = family == "fang-on-worker"
    if on_worker:
        family, folds = "fang", request.getfixturevalue("fold_worker")
    model = nn.mlp_model(6, 6554 if on_worker else 5, 3, seed=64)
    assert (model.theta.size >= runtime.SPLIT_FLOATS) == on_worker
    rng = rng_stream(65)
    base = 0.05 * rng.normal(size=model.theta.size)
    grads = base + 0.01 * rng.normal(size=(6, model.theta.size))
    if bad == "huge":
        grads[culprit] *= 1e305
    else:
        grads[culprit, 3] = np.nan
    validation = Dataset(rng.normal(size=(20, 6)), rng.integers(0, 3, size=20), 3)
    config = AggregatorConfig(family=family, amplifier=AmplifierConfig(kind="none"))
    with warnings.catch_warnings(), caplog.at_level(logging.WARNING, logger="gradamp.aggregate"):
        warnings.simplefilter("error")  # no screen lets numpy print anything
        decision = aggregate_round(grads, config, model, validation, reference=base)
    assert not decision.accepted[culprit] and decision.accepted.any()
    assert np.isfinite(decision.global_update).all()
    if family == "fang":
        # every probe holding the culprit is broken and scores +inf under
        # both screens, so the keep-sets agree: N - ceil(0.3 * 6) clients
        assert decision.accepted.sum() == 4
        assert np.isfinite(decision.scores[culprit])
        assert (np.delete(decision.scores, culprit) == math.inf).all()
        # one warning after both halves end, counting the +inf probes
        assert [r.getMessage() for r in caplog.records] == [
            "5 non-finite leave-one-out losses; scoring those probes +inf"
        ]
    if on_worker:
        assert len(folds) == 1 and threading.main_thread() not in folds
    if family in ("dist-euc", "dist-merged"):
        assert any("non-finite euclidean" in r.getMessage() for r in caplog.records)


class OffMainTrap(np.ndarray):
    """An update row whose arithmetic raises off the main thread."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("folded off the main thread")
        inputs = tuple(np.asarray(x) if isinstance(x, OffMainTrap) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_worker_folds_keep_the_bits_of_inline_folds(monkeypatch, fold_worker):
    # Each half builds its own prefix; one built in another order, or a
    # buffer shared across the halves, would change a loss.  A short switch
    # interval hands the interpreter back and forth as often as it can.
    # The upper half of each probe list runs on the worker: client 2's
    # 1e20 row (as in the ordered-fold test below) and client 7's NaN too.
    model = nn.mlp_model(6, 6554, 3, seed=64)
    rng = rng_stream(68)
    val = Dataset(rng.normal(size=(10, 6)), rng.integers(0, 3, size=10), 3)
    cases = [list(0.5 * rng.normal(size=(n, model.theta.size))) for n in (1, 2, 3, 5, 10)]
    huge = [row.copy() for row in cases[3]]
    huge[2] *= 1e20
    nan = [row.copy() for row in cases[4]]
    nan[7][3] = np.nan
    cases += [huge, nan]
    with monkeypatch.context() as m:
        m.setattr(runtime, "worker", lambda: None)
        inline = [fang_whitelist(rows, model, val, 0.0)[1] for rows in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ahead = [fang_whitelist(rows, model, val, 0.0)[1] for rows in cases]
    finally:
        sys.setswitchinterval(interval)
    assert len(fold_worker) == 0 + 1 + 1 + 1 + 1 + 2  # one half per list of two or more
    for want, got in zip(inline, ahead):
        assert want.tobytes() == got.tobytes()
    assert (np.delete(ahead[-1], 7) == math.inf).all() and np.isfinite(ahead[-1][7])


def test_a_fold_that_overflows_on_the_worker_warns_nothing(fold_worker):
    # One bad row cannot make a fold warn (inf and NaN add quietly); two
    # rows near the float64 maximum overflow in every fold that adds both,
    # which only the caller's error state, copied to the worker, keeps
    # quiet in its half.
    model = nn.mlp_model(6, 6554, 3, seed=64)
    rng = rng_stream(67)
    rows = list(0.01 * rng.normal(size=(6, model.theta.size)))
    rows[1] = rows[4] = np.full(model.theta.size, 1e308)
    val = Dataset(rng.normal(size=(10, 6)), rng.integers(0, 3, size=10), 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, losses = fang_whitelist(rows, model, val, assumed_malicious=0.3)
    assert (losses == math.inf).all()  # every probe holds a 1e308 row
    assert len(fold_worker) == 1 and threading.main_thread() not in fold_worker


def test_a_fold_that_raises_on_the_worker_raises_in_fang_whitelist(fold_worker):
    model = nn.mlp_model(6, 6554, 3, seed=64)
    rng = rng_stream(66)
    rows = list(0.01 * rng.normal(size=(3, model.theta.size)))
    # probe 0's fold, on this thread, adds the trap; probe 1's, on the worker, raises
    rows[2] = rows[2].view(OffMainTrap)
    val = Dataset(rng.normal(size=(10, 6)), rng.integers(0, 3, size=10), 3)
    with pytest.raises(RuntimeError, match="folded off the main thread"):
        fang_whitelist(rows, model, val, assumed_malicious=0.3)
    assert len(fold_worker) == 1 and threading.main_thread() not in fold_worker


def test_density_identical_vectors_keep_lowest_indices():
    amped = [dense_grads((1.0, 1.0)) for _ in range(5)]
    wl, scores = density_whitelist(amped, "cos", neighbors=3, assumed_malicious=0.4)
    assert wl == [0, 1, 2]
    assert np.allclose(scores, scores[0])
    # (1 - 0.7) * 10 is 3.0000000000000004 in floats; the stated 0.7 keeps 3.
    wl, _ = density_whitelist(amped * 2, "cos", neighbors=6, assumed_malicious=0.7)
    assert wl == [0, 1, 2]


def test_density_euclidean_filters_far_outlier():
    amped = [dense_grads(v) for v in [(0.0, 0.1), (0.1, 0.0), (-0.1, 0.0), (100.0, 100.0)]]
    wl, scores = density_whitelist(amped, "euc", neighbors=3, assumed_malicious=0.25)
    assert wl == [0, 1, 2]
    assert scores[3] < scores[0]
    # Cosine would have liked the outlier just fine; distance does not.
    assert scores[3] == pytest.approx(
        -(np.linalg.norm([100.0, 99.9]) + np.linalg.norm([99.9, 100.0])), abs=1e-9
    )


def test_density_neighborhood_bounds():
    amped = [dense_grads((1.0, 0.0)) for _ in range(4)]
    with pytest.raises(ConfigError):
        density_whitelist(amped, "cos", neighbors=2, assumed_malicious=0.25)  # K <= N/2
    with pytest.raises(ConfigError):
        density_whitelist(amped, "cos", neighbors=5, assumed_malicious=0.25)  # K > N
    with pytest.raises(ConfigError):
        density_whitelist([], "cos", neighbors=1, assumed_malicious=0.25)


def test_merged_whitelist_intersects():
    amped = [dense_grads(v) for v in [(1.0, 0.0), (1.0, 0.01), (0.99, 0.0), (-1.0, 0.0)]]
    wl, _ = merged_whitelist(amped, neighbors=3, assumed_malicious=0.25)
    assert wl == [0, 1, 2]


def test_whitelists_score_a_row_list_and_its_matrix_alike():
    rng = rng_stream(64)
    rows = [rng.normal(size=7) for _ in range(9)]
    matrix = np.stack(rows)
    for metric in ("cos", "euc"):
        wl_rows, s_rows = density_whitelist(rows, metric, 5, 0.3)
        wl_matrix, s_matrix = density_whitelist(matrix, metric, 5, 0.3)
        assert wl_rows == wl_matrix and s_rows.tobytes() == s_matrix.tobytes()
    wl_rows, s_rows = merged_whitelist(rows, 5, 0.3)
    wl_matrix, s_matrix = merged_whitelist(matrix, 5, 0.3)
    assert wl_rows == wl_matrix and s_rows.tobytes() == s_matrix.tobytes()


def test_merged_whitelist_disjoint_falls_back_to_cosine(caplog):
    # Two tight tiny-norm clients (euclidean favourites) against two huge
    # parallel ones; all within-pair cosines are exactly 1, so the cosine
    # list keeps {0,1} by index while euclidean keeps {2,3}.
    amped = [dense_grads(v) for v in [(1.0, 0.0), (2.0, 0.0), (0.0, 5.0), (0.0, 5.0001)]]
    with caplog.at_level(logging.WARNING, logger="gradamp.aggregate"):
        wl, _ = merged_whitelist(amped, neighbors=3, assumed_malicious=0.5)
    assert wl == [0, 1]
    assert any("falling back" in r.message for r in caplog.records)
    # Sanity: the two lists really are disjoint.
    wl_cos, _ = density_whitelist(amped, "cos", 3, 0.5)
    wl_euc, _ = density_whitelist(amped, "euc", 3, 0.5)
    assert wl_cos == [0, 1] and wl_euc == [2, 3]


def fang_setup():
    model = nn.ModelParams(
        [nn.Layer("dense", np.zeros((2, 2)), np.zeros(2)), nn.Layer("softmax")]
    )
    val = Dataset(
        np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [0.0, 1.0]]),
        np.array([0, 0, 0, 1]),
        2,
    )
    return model, val


def test_fang_rejects_the_saboteur():
    # Three near-zero benign updates and one that flips the model's sign.
    rng = rng_stream(61)
    w = np.array([[1.0, 0.0], [-1.0, 1.0]])
    model = nn.ModelParams([nn.Layer("dense", w.copy(), np.zeros(2)), nn.Layer("softmax")])
    val = Dataset(
        np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.5], [-2.0, 0.5]]),
        np.array([0, 0, 1, 1]),
        2,
    )
    benign = [
        dense_row(1e-3 * rng.normal(size=(2, 2)), 1e-3 * rng.normal(size=2)) for _ in range(3)
    ]
    saboteur = dense_row(6.0 * w, np.zeros(2))
    rows = benign + [saboteur]
    wl, losses = fang_whitelist(rows, model, val, assumed_malicious=0.25)
    assert wl == [0, 1, 2]
    # Excluding the saboteur leaves the model intact: lowest LOO loss.
    assert losses[3] == min(losses)


def test_fang_identical_clients_keep_lowest_indices():
    model, val = fang_setup()
    same = dense_row(np.full((2, 2), 0.01), np.zeros(2))
    wl, losses = fang_whitelist([same for _ in range(4)], model, val, 0.25)
    assert wl == [0, 1, 2]
    assert np.allclose(losses, losses[0])
    # 0.28 * 25 is 7.000000000000001 in floats; the stated 0.28 rejects 7.
    wl, _ = fang_whitelist([same] * 25, model, val, assumed_malicious=0.28)
    assert wl == list(range(18))


def test_fang_disjoint_screens_fall_back_to_loss(caplog):
    # Client 0's exclusion leaves tiny-margin-but-correct predictions
    # (high loss, zero error); client 1's leaves three saturated wins and
    # one moderate miss (low loss, 25% error).  The loss screen keeps 0,
    # the error screen keeps 1, so the loss keep-set wins.
    model, val = fang_setup()
    w_tiny = np.array([[1e-3, 0.0], [-1e-3, 1e-3]])
    w_miss = np.array([[10.0, 1.0], [-10.0, 0.0]])
    u0 = dense_row(-w_miss, np.zeros(2))
    u1 = dense_row(-w_tiny, np.zeros(2))
    with caplog.at_level(logging.WARNING, logger="gradamp.aggregate"):
        rows = [u0, u1]
        wl, losses = fang_whitelist(rows, model, val, assumed_malicious=0.5)
    assert wl == [0]
    assert losses[0] > losses[1]
    assert any("keeping the loss set" in r.message for r in caplog.records)


def test_fang_that_would_keep_no_client_fails_before_probing(monkeypatch):
    model, val = fang_setup()
    same = dense_row(np.full((2, 2), 0.01), np.zeros(2))

    def probe(*args, **kwargs):
        raise AssertionError("probed")

    monkeypatch.setattr(nn, "_infer", probe)
    with pytest.raises(ConfigError, match=r"0\.95 rejects all 10 clients"):
        fang_whitelist([same] * 10, model, val, assumed_malicious=0.95)


def naive_leave_one_out_losses(rows, model, val):
    """Per client: sum the others left to right in ascending order, scale by
    1 / (N - 1), apply with ``nn.apply_update``, and take the validation loss."""
    n = len(rows)
    losses = []
    for i in range(n):
        others = [j for j in range(n) if j != i] or [i]
        acc = rows[others[0]].copy()
        for j in others[1:]:
            acc = acc + rows[j]
        mean = acc * (1.0 / len(others))
        trace = nn.forward(nn.apply_update(model, mean), val.features)
        losses.append(nn._loss_value(trace.probs, val.labels))
    return np.array(losses)


def test_fang_probes_equal_the_ordered_fold_bit_for_bit():
    model = nn.mlp_model(6, 5, 3, seed=62)
    rng = rng_stream(63)
    val = Dataset(rng.normal(size=(20, 6)), rng.integers(0, 3, size=20), 3)
    rows = [0.1 * rng.normal(size=model.theta.size) for _ in range(5)]
    # One Byzantine client far beyond the others' magnitude.
    huge = [r.copy() for r in rows]
    huge[2] = 1e20 * huge[2]
    # A lone client keeps itself only at M_f = 0; 0.2 would reject it.
    for case, m_f in ((rows, 0.2), (huge, 0.2), (rows[:1], 0.0)):
        _, losses = fang_whitelist(case, model, val, assumed_malicious=m_f)
        assert losses.tobytes() == naive_leave_one_out_losses(case, model, val).tobytes()
    # The subtraction shortcut (S - x_i) / (N - 1) loses the others to
    # cancellation once x_i is huge, so the case above can tell them apart.
    theta = model.theta
    shortcut = theta - (np.sum(huge, axis=0) - huge[2]) / 4
    exact = theta - (huge[0] + huge[1] + huge[3] + huge[4]) * 0.25
    assert not np.allclose(shortcut, exact, rtol=1e-3, atol=0.0)


def test_fltrust_worked_example():
    # Reference (2,0) with norm 2; client A (4,0) gets trust 1 and is
    # rescaled by 2/4; client B (0,-3) is orthogonal, trust 0.  The global
    # update is exactly half of A's original.
    ref = dense_grads([2.0, 0.0])
    a = dense_grads([4.0, 0.0])
    b = dense_grads([0.0, -3.0])
    decision = fltrust_aggregate([a, b], ref, np.stack([a, b]), ref)
    assert np.array_equal(decision.scores, [1.0, 0.0])
    assert np.array_equal(decision.global_update, [2.0, 0.0])
    assert decision.accepted.tolist() == [True, False]


def test_fltrust_negative_cosine_clips_to_zero():
    ref = dense_grads([1.0, 0.0])
    opp = dense_grads([-1.0, 0.0])
    decision = fltrust_aggregate([opp], ref, np.stack([opp]), ref)
    assert decision.scores[0] == 0.0


def test_fltrust_norm_matching_is_exact():
    # Trusted client twice the reference norm: its contribution halves.
    ref = dense_grads([0.0, 8.0])
    c = dense_grads([0.0, 16.0])
    decision = fltrust_aggregate(
        [dense_grads([0.0, 1.0])], dense_grads([0.0, 2.0]), np.stack([c]), ref
    )
    assert np.array_equal(decision.global_update, [0.0, 8.0])
    assert np.linalg.norm(decision.global_update) == np.linalg.norm(ref)


def test_fltrust_all_zero_trust_emits_zero_update(caplog):
    ref = dense_grads([1.0, 0.0])
    opp = dense_grads([-2.0, 0.0])
    with caplog.at_level(logging.WARNING, logger="gradamp.aggregate"):
        decision = fltrust_aggregate(
            [dense_grads([-2.0, 0.0]), dense_grads([0.0, 0.0])],
            dense_grads([1.0, 0.0]),
            np.stack([opp, dense_grads([0.0, 0.0])]),
            ref,
        )
    assert np.array_equal(decision.global_update, [0.0, 0.0])
    assert any("zero update" in r.message for r in caplog.records)


def test_fedavg_is_plain_mean():
    grads = np.stack([dense_grads([1.0, 2.0]), dense_grads([3.0, 6.0])])
    assert np.array_equal(nn.mean_grads(grads), [2.0, 4.0])


def round_setup(n=5, dim=4):
    model = nn.ModelParams(
        [nn.Layer("dense", np.zeros((1, dim)), None), nn.Layer("softmax")]
    )
    rng = rng_stream(62)
    grads = np.stack([rng.normal(size=dim) for _ in range(n)])
    return model, grads


def test_aggregate_round_fedavg_accepts_everyone():
    model, grads = round_setup()
    cfg = AggregatorConfig(family="fedavg", amplifier=AmplifierConfig(kind="none"))
    decision = aggregate_round(grads, cfg, model)
    assert decision.accepted.all()
    assert np.allclose(decision.global_update, np.mean(grads, axis=0), atol=1e-15)


def test_aggregate_round_update_averages_whitelisted_originals():
    model, grads = round_setup(n=6)
    cfg = AggregatorConfig(
        family="dist-cos", amplifier=AmplifierConfig(kind="mp", kernel=2), assumed_malicious=0.3
    )
    decision = aggregate_round(grads, cfg, model)
    whitelist = np.flatnonzero(decision.accepted)
    assert len(whitelist) == math.ceil(0.7 * 6)
    expect = np.mean([grads[i] for i in whitelist], axis=0)
    assert np.allclose(decision.global_update, expect, atol=1e-15)


def test_scores_see_amplified_values_update_sees_originals():
    # Bumping an entry the max filter discards changes the update without
    # moving a single score.
    model = nn.ModelParams(
        [nn.Layer("dense", np.zeros((2, 2)), None), nn.Layer("softmax")]
    )
    base = np.array([[1.0, 2.0], [3.0, 4.0]])
    others = [np.array([[1.0, 1.9], [2.9, 4.1]]), np.array([[0.9, 2.1], [3.1, 3.9]])]
    cfg = AggregatorConfig(
        family="dist-cos", amplifier=AmplifierConfig(kind="mp", kernel=2), assumed_malicious=0.0
    )

    def run(first):
        grads = np.stack([m.ravel() for m in [first] + others])
        return aggregate_round(grads, cfg, model)

    bumped = base.copy()
    bumped[0, 0] = 1.5  # still below the patch max of 4
    d1, d2 = run(base), run(bumped)
    assert np.array_equal(d1.scores, d2.scores)
    assert np.array_equal(d1.accepted, d2.accepted)
    diff = d2.global_update - d1.global_update
    assert diff[0] == pytest.approx(0.5 / 3.0)
    assert np.allclose(diff[1:], 0.0)


def test_aggregator_config_validation():
    with pytest.raises(ConfigError):
        AggregatorConfig(family="median").validate()
    with pytest.raises(ConfigError):
        AggregatorConfig(family="fang", amplifier=AmplifierConfig(kind="mp")).validate()
    # Identity amplification is inherently full-length: fine for fang.
    AggregatorConfig(family="fang", amplifier=AmplifierConfig(kind="none")).validate()
    AggregatorConfig(
        family="fang", amplifier=AmplifierConfig(kind="mp", restore_size=True)
    ).validate()
    with pytest.raises(ConfigError):
        AggregatorConfig(assumed_malicious=1.0).validate()


def test_aggregate_round_fltrust_needs_reference():
    model, grads = round_setup()
    cfg = AggregatorConfig(family="fltrust", amplifier=AmplifierConfig(kind="none"))
    with pytest.raises(ConfigError):
        aggregate_round(grads, cfg, model)


def test_aggregate_round_fang_needs_validation():
    model, grads = round_setup()
    cfg = AggregatorConfig(family="fang", amplifier=AmplifierConfig(kind="none"))
    with pytest.raises(ConfigError):
        aggregate_round(grads, cfg, model, validation=None)
