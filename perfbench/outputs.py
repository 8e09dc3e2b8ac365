"""Output checks on a finished pair folder.

Every pair of a set (one benchmark invocation, one seed) must write the same
bytes to the deterministic files; that is gradamp's reproducibility promise.
On the pinned seed the files must also match ``reference/<workload>/``:

    rounds.csv     byte for byte
    decisions.csv  round, client_id and accepted exactly; score within
                   SCORE_REL_TOL relative (SCORE_ABS_TOL absolute near 0)
    metrics.csv    every field except run_id exactly

The tolerance lets a numerically equivalent rewrite through (a different
summation order moves the last digits of a score), while a changed verdict,
accuracy or metric still fails.  run_id is exempt because it hashes the
whole config text, which a run-id fix is expected to change.
"""

from __future__ import annotations

import math
import os

ARTIFACTS = (
    "clean/rounds.csv",
    "clean/decisions.csv",
    "attacked/rounds.csv",
    "attacked/decisions.csv",
    "metrics.csv",
)
SCORE_REL_TOL = 1e-9
SCORE_ABS_TOL = 1e-12
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def reference_name(artifact: str) -> str:
    return artifact.replace("/", ".")


def read_artifacts(pair_dir: str) -> dict[str, bytes]:
    out = {}
    for name in ARTIFACTS:
        with open(os.path.join(pair_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def status_problems(pair_dir: str) -> list[str]:
    """Each run's manifest must say run.status = ok."""
    problems = []
    for run in ("clean", "attacked"):
        path = os.path.join(pair_dir, run, "manifest.txt")
        try:
            with open(path, encoding="ascii") as fh:
                status = [ln.split("=", 1)[1].strip() for ln in fh if ln.startswith("run.status ")]
        except OSError as exc:
            problems.append(f"{run}: {exc}")
            continue
        if status != ["ok"]:
            problems.append(f"{run}: run.status = {status}")
    return problems


def _decisions_problems(name: str, got: str, want: str) -> list[str]:
    got_rows, want_rows = got.splitlines(), want.splitlines()
    if len(got_rows) != len(want_rows) or got_rows[:1] != want_rows[:1]:
        return [f"{name}: {len(got_rows)} lines vs {len(want_rows)} in the reference"]
    problems = []
    for lineno, (g, w) in enumerate(zip(got_rows[1:], want_rows[1:]), start=2):
        gf, wf = g.split(","), w.split(",")
        if len(gf) != 4 or len(wf) != 4 or (gf[0], gf[1], gf[3]) != (wf[0], wf[1], wf[3]):
            problems.append(f"{name}:{lineno}: {g!r} vs {w!r}")
            continue
        gs, ws = float(gf[2]), float(wf[2])
        same = (math.isnan(gs) and math.isnan(ws)) or math.isclose(
            gs, ws, rel_tol=SCORE_REL_TOL, abs_tol=SCORE_ABS_TOL
        )
        if not same:
            problems.append(f"{name}:{lineno}: score {gs!r} vs {ws!r}")
    return problems


def _metrics_problems(name: str, got: str, want: str) -> list[str]:
    g, w = got.splitlines(), want.splitlines()
    if len(g) != 2 or len(w) != 2 or g[0] != w[0]:
        return [f"{name}: layout differs from the reference"]
    gf, wf = g[1].split(","), w[1].split(",")
    if len(gf) != len(wf) or gf[1:] != wf[1:]:
        return [f"{name}: {g[1]!r} vs {w[1]!r} (run_id exempt)"]
    return []


def reference_problems(artifacts: dict[str, bytes], ref_dir: str) -> list[str]:
    problems = []
    for name in ARTIFACTS:
        try:
            with open(os.path.join(ref_dir, reference_name(name)), "rb") as fh:
                want = fh.read()
        except OSError as exc:
            problems.append(f"reference: {exc}")
            continue
        got = artifacts[name]
        if name.endswith("rounds.csv"):
            if got != want:
                problems.append(f"{name}: differs from the reference")
        elif name.endswith("decisions.csv"):
            problems += _decisions_problems(name, got.decode("ascii"), want.decode("ascii"))
        else:
            problems += _metrics_problems(name, got.decode("ascii"), want.decode("ascii"))
    return problems[:10]
