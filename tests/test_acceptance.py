"""Whole-package acceptance gates.

Eleven end-to-end checks: the patch-max and gradient oracles, screening
and trust-formula fixtures, separability and robustness experiments at
the default desk scale, a fidelity contract, a wall-time comparison,
metric formula fixtures, and byte determinism of the pair runner.

Each gate records a verdict before asserting, and conftest prints the
collected verdicts as one PASS/FAIL line per gate at the end of the
session.  Experiment gates reuse the seed convention of the demos:
data/client/attack streams at 100+i, 200+i, 300+i for seed index i.
"""

import csv
import math
import os
import time

import numpy as np
import pytest

from gradamp import cli, nn
from gradamp.aggregate import (
    AggregatorConfig,
    aggregate_round,
    density_whitelist,
    fltrust_aggregate,
)
from gradamp.amplify import AmplifierConfig
from gradamp.attacks import select_malicious
from gradamp.config import ExperimentConfig
from gradamp.data import Dataset
from gradamp.harness import read_rounds_csv, run_experiment, run_pair
from gradamp.metrics import (
    MonitorWindow,
    RoundRecord,
    asr,
    avg_asr,
    avg_ta_loss,
    heterogeneity,
    negative_pulse,
)

VERDICTS: list[tuple[int, str, bool, str]] = []


def _gate(num: int, label: str, ok: bool, detail: str = "") -> bool:
    VERDICTS.append((num, label, bool(ok), detail))
    return bool(ok)


def _grad(vec) -> np.ndarray:
    return np.asarray(vec, dtype=np.float64)


def _seeds(i: int) -> dict[str, object]:
    return {"seeds.data": 100 + i, "seeds.clients": 200 + i, "seeds.attack": 300 + i}


# ---------------------------------------------------------------------------
# 1. patch max against a brute-force oracle


def _brute_patch_max(mat: np.ndarray, k: int) -> np.ndarray:
    h, w = mat.shape
    rows, cols = -(-h // k), -(-w // k)
    out = np.empty((rows, cols))
    for i in range(rows):
        for j in range(cols):
            out[i, j] = mat[i * k : (i + 1) * k, j * k : (j + 1) * k].max()
    return out


def test_patch_max_matches_bruteforce():
    rng = np.random.default_rng(41)
    kernels = (1, 2, 3, 5, 7, 9)
    t0 = time.perf_counter()
    mismatch = ""
    for trial in range(1000):
        h, w = int(rng.integers(1, 65)), int(rng.integers(1, 65))
        scale = float(rng.choice([0.1, 1.0, 10.0]))
        mat = scale * rng.normal(size=(h, w)) - rng.uniform(0.0, 2.0)
        k = kernels[trial % len(kernels)]
        got = nn.block_max(mat, k)
        exp = _brute_patch_max(mat, k)
        if got.shape != exp.shape or not np.array_equal(got, exp):
            mismatch = f"trial {trial}, shape {mat.shape}, kernel {k}"
            break
    elapsed = time.perf_counter() - t0
    ok = not mismatch and elapsed < 5.0
    detail = mismatch or f"1000 matrices, kernels {kernels}, {elapsed:.2f}s"
    assert _gate(1, "patch-max oracle", ok, detail), detail


# ---------------------------------------------------------------------------
# 2. analytic gradients against central finite differences

FD_STEP = 1e-5


def _fd_param_gradient(model, x, y):
    def loss_at(m):
        return nn._loss_value(nn.forward(m, x).probs, y)

    out = np.zeros(model.theta.size)
    for j in range(out.size):
        bump = np.zeros_like(out)
        bump[j] = FD_STEP
        up = nn.apply_update(model, -bump)
        down = nn.apply_update(model, bump)
        out[j] = (loss_at(up) - loss_at(down)) / (2.0 * FD_STEP)
    return out


def _rel_err(analytic, numeric):
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    return float(np.max(np.abs(analytic - numeric) / scale))


def test_analytic_gradients_match_finite_differences():
    t0 = time.perf_counter()
    worst_p, worst_f = 0.0, 0.0
    model = nn.conv_model((1, 6, 6), 3, seed=0, filters=2, kernel=3, pool=2)
    count = model.theta.size
    for seed in range(20):
        model = nn.conv_model((1, 6, 6), 3, seed=1000 + seed, filters=2, kernel=3, pool=2)
        rng = np.random.default_rng(2000 + seed)
        x = rng.normal(size=(4, 1, 6, 6))
        y = rng.integers(0, 3, size=4)
        trace = nn.forward(model, x)
        grads = nn.backward(model, trace, y)
        worst_p = max(worst_p, _rel_err(grads.to_vector(), _fd_param_gradient(model, x, y)))

        # The Grad-CAM weights against the spatial mean of the batch-summed
        # finite-difference gradients of the true-class logits at the maps.
        # the conv's cell-major output (f, 2*2, n, 2, 2) as its 4x4 maps
        maps = trace.inputs[1].reshape(2, 2, 2, 4, 2, 2).transpose(3, 0, 4, 1, 5, 2).reshape(4, 2, 4, 4)
        dense = model.layers[3]

        def score(a):
            # relu, the max over each 2x2 block of the 4x4 maps, the dense layer
            pooled = np.maximum(a, 0.0).reshape(4, 2, 2, 2, 2, 2).max(axis=(3, 5))
            logits = pooled.reshape(4, -1) @ dense.weight.T + dense.bias
            return float(logits[np.arange(len(y)), y].sum())

        numeric = np.zeros(maps.shape[1:])
        for k, i, j in np.ndindex(*numeric.shape):
            up, down = maps.copy(), maps.copy()
            up[:, k, i, j] += FD_STEP
            down[:, k, i, j] -= FD_STEP
            numeric[k, i, j] = (score(up) - score(down)) / (2.0 * FD_STEP)
        alpha = nn.activation_weights(model, x, y)
        worst_f = max(worst_f, _rel_err(alpha, numeric.mean(axis=(1, 2))))
    elapsed = time.perf_counter() - t0
    ok = count <= 200 and worst_p <= 1e-4 and worst_f <= 1e-4 and elapsed < 30.0
    detail = (
        f"{count} params, rel err {worst_p:.2e} (params) / {worst_f:.2e} "
        f"(Grad-CAM weights), 20 seeds, {elapsed:.1f}s"
    )
    assert _gate(2, "gradient oracle", ok, detail), detail


# ---------------------------------------------------------------------------
# 3. density whitelist fixture and the cardinality law


def test_density_whitelist_fixture_and_cardinality():
    fixture = [_grad(v) for v in [(1, 0), (1, 0.01), (0.99, 0), (-1, 0)]]
    wl, _ = density_whitelist(fixture, "cos", 3, 0.25)
    fixture_ok = wl == [0, 1, 2]

    rng = np.random.default_rng(43)
    law_ok = True
    for draw in range(200):
        n = int(rng.integers(2, 41))
        m_f = float(rng.uniform(0.0, 0.999))
        amped = [_grad(rng.normal(size=8)) for _ in range(n)]
        metric = "cos" if draw % 2 == 0 else "euc"
        wl, _ = density_whitelist(amped, metric, n // 2 + 1, m_f)
        want = math.ceil((1.0 - m_f) * n)
        if len(wl) != want or len(set(wl)) != len(wl):
            law_ok = False
            break
    ok = fixture_ok and law_ok
    detail = f"fixture -> {sorted(wl) if not fixture_ok else [0, 1, 2]}, 200 draws"
    assert _gate(3, "whitelist exactness", ok, detail), detail


# ---------------------------------------------------------------------------
# 4. trust-weighting formula suite


def test_trust_weighting_formula_suite():
    tol = 1e-12
    # clipping: identical direction scores 1, opposed scores 0
    same = fltrust_aggregate([_grad((3, 0))], _grad((2, 0)), [_grad((3, 0))], _grad((2, 0)))
    opposed = fltrust_aggregate(
        [_grad((-6, 0))], _grad((2, 0)), [_grad((-6, 0))], _grad((2, 0))
    )
    clip_ok = abs(same.scores[0] - 1.0) <= tol and abs(opposed.scores[0]) <= tol

    # rescaling: a lone trusted client is pulled to the reference norm
    rescaled = fltrust_aggregate([_grad((8, 0))], _grad((2, 0)), [_grad((8, 0))], _grad((2, 0)))
    norm_ok = abs(np.linalg.norm(rescaled.global_update) - 2.0) <= tol

    # two clients, trust {1, 0}, ref norm 2, client norm 4: half the client
    two = fltrust_aggregate(
        [_grad((4, 0)), _grad((-6, 0))],
        _grad((2, 0)),
        [_grad((4, 0)), _grad((-6, 0))],
        _grad((2, 0)),
    )
    out = two.global_update
    worked_ok = (
        np.max(np.abs(out - np.array([2.0, 0.0]))) <= tol
        and abs(two.scores[0] - 1.0) <= tol
        and abs(two.scores[1]) <= tol
    )
    ok = clip_ok and norm_ok and worked_ok
    detail = f"clip {clip_ok}, rescale {norm_ok}, worked example {worked_ok}"
    assert _gate(4, "trust formula suite", ok, detail), detail


# ---------------------------------------------------------------------------
# 5. whitelist separability under a label-flip attack


def _whitelist_quality(seed: int, amp_kind: str, out_root) -> tuple[float, float]:
    over = dict(_seeds(seed))
    over.update(
        {
            "attack.kind": "l-flip",
            "defense.family": "dist-cos",
            "defense.amplifier": amp_kind,
            "output.dir": str(out_root / f"sep-{amp_kind}-{seed}"),
        }
    )
    cfg = ExperimentConfig.from_mapping(over)
    man = run_experiment(cfg)
    mal = set(select_malicious(10, 0.3, 300 + seed))
    honest = 10 - len(mal)
    per_round: dict[int, list[int]] = {}
    with open(os.path.join(man.run_dir, "decisions.csv")) as fh:
        for row in csv.DictReader(fh):
            # decision rows use 1-based rounds; the attack gates on the
            # 0-based index, so crafted rounds are start_round + 1 onward
            if int(row["round"]) >= int(cfg["attack.start_round"]) + 1:
                if row["accepted"] == "1":
                    per_round.setdefault(int(row["round"]), []).append(int(row["client_id"]))
    precs, recalls = [], []
    for accepted in per_round.values():
        tp = sum(1 for c in accepted if c not in mal)
        precs.append(tp / len(accepted))
        recalls.append(tp / honest)
    return float(np.mean(precs)), float(np.mean(recalls))


def test_label_flip_separability_amplified_vs_plain(tmp_path):
    t0 = time.perf_counter()
    scores = {"mp": [], "none": []}
    for seed in range(20):
        for amp_kind in ("mp", "none"):
            scores[amp_kind].append(_whitelist_quality(seed, amp_kind, tmp_path))
    elapsed = time.perf_counter() - t0
    amp = np.array(scores["mp"])
    raw = np.array(scores["none"])
    amp_p, amp_r = amp[:, 0].mean(), amp[:, 1].mean()
    raw_p, raw_r = raw[:, 0].mean(), raw[:, 1].mean()
    ok = (
        amp_p >= 0.90
        and amp_r >= 0.90
        and amp_p >= raw_p
        and amp_r >= raw_r
        and elapsed < 300.0
    )
    detail = (
        f"amplified P={amp_p:.3f} R={amp_r:.3f}, plain P={raw_p:.3f} "
        f"R={raw_r:.3f}, 20 seeds, {elapsed:.0f}s"
    )
    assert _gate(5, "label-flip separability", ok, detail), detail


# ---------------------------------------------------------------------------
# 6. untargeted robustness direction at desk scale


def test_untargeted_attack_damage_reduction(tmp_path):
    wins = 0
    loss_def, loss_nodef, pulse_def, pulse_base = [], [], [], []
    for seed in range(20):
        rows = {}
        for family, amp_kind, tag in (
            ("fang", "mp", "def"),
            ("fedavg", "none", "nodef"),
            ("fang", "none", "base"),
        ):
            over = dict(_seeds(seed))
            over.update(
                {
                    "attack.kind": "g-asc",
                    "defense.family": family,
                    "defense.amplifier": amp_kind,
                    "output.dir": str(tmp_path / f"dir-{seed}-{tag}"),
                }
            )
            rows[tag] = run_pair(ExperimentConfig.from_mapping(over)).metrics_row
        if rows["def"]["ta_loss"] < rows["nodef"]["ta_loss"]:
            wins += 1
        loss_def.append(rows["def"]["ta_loss"])
        loss_nodef.append(rows["nodef"]["ta_loss"])
        pulse_def.append(rows["def"]["negative_pulse"])
        pulse_base.append(rows["base"]["negative_pulse"])
    ok = wins >= 18 and np.mean(pulse_def) <= np.mean(pulse_base)
    detail = (
        f"ascent damage: {wins}/20 seeds improved "
        f"(loss {np.mean(loss_def):.4f} vs {np.mean(loss_nodef):.4f}), "
        f"pulse {np.mean(pulse_def):.4f} vs {np.mean(pulse_base):.4f}"
    )
    assert _gate(6, "untargeted robustness", ok, detail), detail


# ---------------------------------------------------------------------------
# 7. targeted robustness direction with a boosted backdoor


def test_targeted_attack_success_reduction(tmp_path):
    t0 = time.perf_counter()
    s_def, s_nodef = [], []
    for seed in range(10):
        for family, amp_kind, bucket in (
            ("fltrust", "mp", s_def),
            ("fedavg", "none", s_nodef),
        ):
            over = dict(_seeds(seed))
            over.update(
                {
                    "attack.kind": "scale",
                    "attack.target_label": 1,
                    "defense.family": family,
                    "defense.amplifier": amp_kind,
                    "output.dir": str(tmp_path / f"tgt-{seed}-{family}"),
                }
            )
            bucket.append(run_pair(ExperimentConfig.from_mapping(over)).metrics_row["avg_asr"])
    elapsed = time.perf_counter() - t0
    mean_def, mean_nodef = float(np.mean(s_def)), float(np.mean(s_nodef))
    reduction = 1.0 - mean_def / mean_nodef
    ok = mean_def <= 0.5 * mean_nodef and elapsed < 600.0
    detail = (
        f"attack success {mean_def:.3f} vs {mean_nodef:.3f} "
        f"({reduction * 100:.1f}% lower), 10 seeds, {elapsed:.0f}s"
    )
    assert _gate(7, "targeted robustness", ok, detail), detail


# ---------------------------------------------------------------------------
# 8. fidelity with no attackers present


def test_no_attack_fidelity(tmp_path):
    def final_ta(over):
        man = run_experiment(ExperimentConfig.from_mapping(over))
        return read_rounds_csv(os.path.join(man.run_dir, "rounds.csv"))[-1].test_accuracy

    refs = []
    for seed in range(10):
        over = dict(_seeds(seed))
        over.update(
            {
                "attack.kind": "none",
                "defense.family": "fedavg",
                "defense.amplifier": "none",
                "output.dir": str(tmp_path / f"fid-{seed}-ref"),
            }
        )
        refs.append(final_ta(over))

    gaps = {}
    for family in ("dist-cos", "fang", "fltrust"):
        diffs = []
        for seed in range(10):
            over = dict(_seeds(seed))
            over.update(
                {
                    "attack.kind": "none",
                    "defense.family": family,
                    "defense.amplifier": "mp",
                    "output.dir": str(tmp_path / f"fid-{seed}-{family}"),
                }
            )
            diffs.append(abs(final_ta(over) - refs[seed]))
        gaps[family] = float(np.mean(diffs))
    ok = all(v <= 0.02 for v in gaps.values())
    detail = ", ".join(f"{k}+mp {v * 100:.2f}pp" for k, v in gaps.items())
    assert _gate(8, "fidelity contract", ok, detail), detail


# ---------------------------------------------------------------------------
# 9. screening wall time shrinks under amplification


def test_amplified_screening_wall_time():
    rng = np.random.default_rng(7)
    model = nn.mlp_model(120, 800, 10, seed=11)
    dim = model.theta.size
    grads = np.stack([rng.normal(size=dim) for _ in range(50)])
    medians = {}
    for amp_kind in ("mp", "none"):
        cfg = AggregatorConfig(family="dist-cos", amplifier=AmplifierConfig(kind=amp_kind))
        samples = []
        for _ in range(10):
            t0 = time.perf_counter()
            aggregate_round(grads, cfg, model)
            samples.append(time.perf_counter() - t0)
        medians[amp_kind] = float(np.median(samples))
    ok = dim >= 100_000 and medians["mp"] < medians["none"]
    detail = (
        f"50 clients, {dim} params, median {medians['mp'] * 1000:.1f}ms "
        f"amplified vs {medians['none'] * 1000:.1f}ms plain"
    )
    assert _gate(9, "screening wall time", ok, detail), detail


# ---------------------------------------------------------------------------
# 10. metric formula fixtures


def _records(pairs, asr_values=None):
    out = []
    for i, (rnd, acc) in enumerate(pairs):
        s = float("nan") if asr_values is None else asr_values[i]
        out.append(RoundRecord(round=rnd, test_accuracy=acc, asr=s))
    return out


def test_metric_formula_fixtures():
    tol = 1e-12
    checks = {}

    clean = _records([(10, 0.9), (20, 0.8)])
    attacked = _records([(10, 0.7), (20, 0.6)])
    checks["ta-loss"] = abs(avg_ta_loss(clean, attacked, MonitorWindow(10, 20)) - 0.2) <= tol

    seq = _records([(10, 0.0), (20, 0.0)], asr_values=[0.0, 1.0])
    lone = _records([(10, 0.0)], asr_values=[0.7])
    checks["avg-asr"] = (
        abs(avg_asr(seq, MonitorWindow(10, 20)) - 0.5) <= tol
        and abs(avg_asr(lone, MonitorWindow(10, 10)) - 0.7) <= tol
    )

    # first weight routes on the sign of the first feature: 3 of 10 probes hit
    w = np.array([[1.0, 0.0], [-1.0, 0.0]])
    model = nn.ModelParams([nn.Layer("dense", w, np.zeros(2)), nn.Layer("softmax")])
    feats = np.array([[2.0, 0.0]] * 3 + [[-2.0, 0.0]] * 7)
    probes = Dataset(feats, np.ones(10, dtype=np.int64), 2)
    checks["asr"] = abs(asr(model, probes, 0) - 0.3) <= tol

    dip = _records([(0, 0.5), (10, 0.8), (20, 0.5), (30, 0.9)])
    checks["pulse"] = abs(negative_pulse(dip, start_round=10) - 0.3) <= tol

    same = Dataset(np.tile([1.0, 2.0, 3.0], (6, 1)), np.array([0, 0, 0, 1, 1, 1]), 2)
    ortho = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 0]), 1)
    checks["heterogeneity"] = (
        abs(heterogeneity(same)) <= tol and abs(heterogeneity(ortho) - 0.5) <= tol
    )
    ok = all(checks.values())
    detail = ", ".join(k for k, v in checks.items() if not v) or "all formulas exact"
    assert _gate(10, "metric fixtures", ok, detail), detail


# ---------------------------------------------------------------------------
# 11. byte-identical pair runs


def test_pair_runs_byte_identical(tmp_path):
    out_dir = tmp_path / "pair"
    over = {
        "attack.kind": "scale",
        "attack.target_label": 1,
        "output.dir": str(out_dir),
    }
    cfg_path = tmp_path / "determinism.cfg"
    cfg_path.write_text(ExperimentConfig.from_mapping(over).canonical_text())

    tracked = [
        out_dir / "metrics.csv",
        out_dir / "clean" / "rounds.csv",
        out_dir / "clean" / "decisions.csv",
        out_dir / "attacked" / "rounds.csv",
        out_dir / "attacked" / "decisions.csv",
    ]
    assert cli.main(["run-pair", str(cfg_path)]) == 0
    first = {p: p.read_bytes() for p in tracked}
    assert cli.main(["run-pair", str(cfg_path)]) == 0
    second = {p: p.read_bytes() for p in tracked}

    stale = [p.name for p in tracked if first[p] != second[p]]
    ok = not stale
    detail = f"differs: {', '.join(stale)}" if stale else f"{len(tracked)} files identical"
    assert _gate(11, "pair determinism", ok, detail), detail
