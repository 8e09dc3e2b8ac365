"""gradamp benchmark: complete run-pairs, one fresh process each.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository; the program is imported from its
``src/``.  One invocation is a *set*: pairs of the named workload, one after
another (never more processes at once than cores), each in a fresh process
with BLAS threads capped at 1, until ``--seconds`` would be exceeded by the
next pair (at least MIN_PAIRS pairs).  The seed sets seeds.data/clients/attack
to N, N+1, N+2; the default is the pinned seed the reference was made with.

--trace 0  end-to-end metrics of untraced pairs (names in BENCHMARK.json
           ``end_to_end``); times are scaled to a reference host speed
           with the calibration blocks ``pair.py`` times at every mark.
--trace 1  pairs alternate traced/untraced; per-layer metrics of the traced
           ones (``per_layer``), including trace.overhead_s, the traced minus
           the untraced median pair_s.

A pair fails if its process or the program raises, a manifest status is not
ok, its deterministic files differ from the first pair of the set or (pinned
seed) from reference/, or, traced, if the expected-call table, the coverage
check or the count repeat check fails.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.  A human summary and
the run environment precede it, and the full results go to
perfbench/out/<workload>-trace<t>/results.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import outputs  # noqa: E402
from workloads import PINNED_SEED, WORKLOADS, config_text, expectation_failures  # noqa: E402

MIN_PAIRS = 3            # conv: 3 pairs x 40 rounds leave >= 10 rounds beyond p90
HARD_LIMIT_S = 150.0     # never start a pair that would end past this
REFERENCE_BLOCK_S = 0.0002   # calibration block time at the reference host speed
WINDOW = 2                   # calibration blocks on each side of a segment
BLAS_ENV = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


def _quantiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def environment() -> dict[str, object]:
    import numpy

    env: dict[str, object] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "concurrent_pairs": 1,
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    env["git_commit"] = "unavailable"
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            env["git_commit"] = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    env["src_sha256"] = digest.hexdigest()
    return env


# ---------------------------------------------------------------------------
# one pair


def run_pair_process(config: str, out_dir: str, spans: str | None, timeout: float) -> dict:
    """Run one pair in a fresh process; returns its report plus t_spawn,
    or {"error": ...} when the process itself failed."""
    cmd = [sys.executable, os.path.join(HERE, "pair.py"), "--src", os.path.join(ROOT, "src"),
           "--config", config, "--out", out_dir]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, **BLAS_ENV)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"pair process exceeded {timeout:.0f} s"}
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"error": f"pair process exited {proc.returncode}: {tail}"}
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if report["rc"] != 0:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"error": f"gradamp run-pair returned {report['rc']}: {tail}"}
    report["t_spawn"] = t_spawn
    return report


def _segment_times(report: dict, scaled: bool) -> tuple[float, float, list[float]]:
    """pair_s, setup_s and per-round ms from the pair's marks.

    Scaled, a segment between two marks is multiplied by REFERENCE_BLOCK_S
    over the median calibration block time of the marks around it (WINDOW
    on each side): a host that slows down for a while slows the blocks
    beside the segment by about the same factor."""
    events = report["events"]
    kinds = [(kind, run) for kind, run, _, _ in events]
    at = [t for _, _, t, _ in events]
    blocks = [b for _, _, _, b in events]

    def factor(i: int, j: int) -> float:
        if not scaled:
            return 1.0
        return REFERENCE_BLOCK_S / statistics.median(blocks[max(0, i - WINDOW) : j + WINDOW + 1])

    def seg(i: int, j: int) -> float:
        return (at[j] - at[i]) * factor(i, j)

    call = kinds.index(("call", -1))
    # process start, imports and hook installation come before the first mark
    setup = (at[call] - report["t_spawn"]) * factor(call, call)
    rounds_ms = []
    for r in sorted({run for _, run in kinds if run >= 0}):
        start = kinds.index(("enter", r)) if r else call
        round1 = kinds.index(("round1", r))
        setup += sum(seg(i, i + 1) for i in range(start, round1))
        rounds_ms += [
            seg(i, i + 1) * 1000.0
            for i in range(round1, len(kinds) - 1)
            if kinds[i + 1] == ("aggregate", r) and kinds[i] in (("round1", r), ("aggregate", r))
        ]
    pair_s = sum(seg(i, i + 1) for i in range(call, kinds.index(("end", -1))))
    return pair_s, setup, rounds_ms


def pair_timings(report: dict) -> dict[str, object]:
    """Times of an untraced pair scaled to the reference host speed, the
    same as measured (``*_raw``), and peak_rss_mb."""
    kinds = [(kind, run) for kind, run, _, _ in report["events"]]
    runs = {run for _, run in kinds if run >= 0}
    if not runs or any(("round1", r) not in kinds or ("aggregate", r) not in kinds for r in runs):
        raise ValueError("round hooks did not fire in every run")
    out: dict[str, object] = {
        "peak_rss_mb": report["maxrss_kb"] / 1024.0,
        "block_ms": statistics.median(b for _, _, _, b in report["events"]) * 1000.0,
    }
    for suffix, scaled in (("", True), ("_raw", False)):
        out["pair_s" + suffix], out["setup_s" + suffix], out["rounds_ms" + suffix] = _segment_times(
            report, scaled
        )
    return out


# ---------------------------------------------------------------------------
# a set


def run_set(workload: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    config = os.path.join(work, "config.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(config_text(workload, seed))
    ref_dir = os.path.join(outputs.REFERENCE_DIR, workload) if seed == PINNED_SEED else None

    pairs: list[dict] = []
    baseline: dict[str, bytes] | None = None
    first_counts: dict[str, int] | None = None
    started = time.monotonic()
    while True:
        i = len(pairs)
        traced = trace and i % 2 == 0
        out_dir = os.path.join(work, f"pair{i}")
        spans = os.path.join(work, "spans.csv") if traced else None
        spawned = time.monotonic()
        report = run_pair_process(config, out_dir, spans, HARD_LIMIT_S + 20.0 - (spawned - started))
        last = time.monotonic() - spawned
        pair = {"index": i, "traced": traced, "problems": []}
        if "error" in report:
            pair["problems"].append(report["error"])
        else:
            pair["problems"] += outputs.status_problems(out_dir)
            try:
                artifacts = outputs.read_artifacts(out_dir)
            except OSError as exc:
                artifacts = None
                pair["problems"].append(f"missing output: {exc}")
            if artifacts is not None:
                if baseline is None:
                    baseline = artifacts
                diff = [n for n in outputs.ARTIFACTS if artifacts[n] != baseline[n]]
                if diff:
                    pair["problems"].append(f"differs from the set's first pair: {diff}")
                if ref_dir is not None:
                    pair["problems"] += outputs.reference_problems(artifacts, ref_dir)
            try:
                pair.update(pair_timings(report))
            except ValueError as exc:
                pair["problems"].append(str(exc))
            if traced:
                summary = report["trace"]
                pair["counts"], pair["times"] = summary["counts"], summary["times"]
                pair["problems"] += summary["problems"]
                pair["problems"] += expectation_failures(workload, summary["counts"])
                if first_counts is None:
                    first_counts = summary["counts"]
                elif summary["counts"] != first_counts:
                    changed = sorted(k for k in first_counts if summary["counts"].get(k) != first_counts[k])
                    pair["problems"].append(f"counts differ from the first traced pair: {changed[:8]}")
        shutil.rmtree(out_dir, ignore_errors=True)
        pairs.append(pair)

        elapsed = time.monotonic() - started
        if elapsed + last > HARD_LIMIT_S:
            break
        if len(pairs) >= MIN_PAIRS and elapsed + last > seconds:
            break
    return {"pairs": pairs, "elapsed_s": time.monotonic() - started, "reference_checked": ref_dir is not None}


def end_to_end(pairs: list[dict]) -> tuple[dict[str, float], dict[str, object]]:
    timed = [p for p in pairs if not p["traced"] and "rounds_ms" in p]
    if not timed:
        raise RuntimeError("no untraced pair produced timings")
    rounds = [r for p in timed for r in p["rounds_ms"]]
    deciles = statistics.quantiles(rounds, n=10, method="inclusive")
    metrics = {
        "pair_s": statistics.median(p["pair_s"] for p in timed),
        "round_ms.p50": deciles[4],
        "round_ms.p90": deciles[8],
        "setup_s": statistics.median(p["setup_s"] for p in timed),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in timed),
    }
    raw_rounds = [r for p in timed for r in p["rounds_ms_raw"]]
    raw_deciles = statistics.quantiles(raw_rounds, n=10, method="inclusive")
    q1, _, q3 = _quantiles([p["pair_s"] for p in timed])
    raw_q1, raw_median, raw_q3 = _quantiles([p["pair_s_raw"] for p in timed])
    detail = {
        "pairs_timed": len(timed),
        "pair_s.q1": q1,
        "pair_s.q3": q3,
        "rounds": len(rounds),
        "rounds_beyond_p90": sum(1 for r in rounds if r > deciles[8]),
        "calibration_block_ms.median": statistics.median(p["block_ms"] for p in timed),
        "raw.pair_s": raw_median,
        "raw.pair_s.q1": raw_q1,
        "raw.pair_s.q3": raw_q3,
        "raw.round_ms.p50": raw_deciles[4],
        "raw.round_ms.p90": raw_deciles[8],
        "raw.setup_s": statistics.median(p["setup_s_raw"] for p in timed),
    }
    return metrics, detail


def per_layer(pairs: list[dict]) -> tuple[dict[str, float], dict[str, object]]:
    traced = [p for p in pairs if p["traced"] and "counts" in p and "pair_s" in p]
    untraced = [p for p in pairs if not p["traced"] and "pair_s" in p]
    if not traced or not untraced:
        raise RuntimeError("a traced set needs a traced and an untraced pair with results")
    metrics: dict[str, float] = dict(traced[0]["counts"])
    for name in traced[0]["times"]:
        metrics[name] = statistics.median(p["times"][name] for p in traced)
    metrics["trace.overhead_s"] = statistics.median(p["pair_s"] for p in traced) - statistics.median(
        p["pair_s"] for p in untraced
    )
    functions = [n for n in metrics if n.endswith(".self_ms") and n.count(".") >= 2 and ".in_train." not in n]
    top = sorted(functions, key=lambda n: -metrics[n])[:12]
    return metrics, {f"top self time: {n}": metrics[n] for n in top}


def _print_summary(workload, seed, trace, result, env, report_metrics, detail, spec) -> None:
    pairs = result["pairs"]
    failed = [p for p in pairs if p["problems"]]
    print(f"perfbench {workload} seed={seed} trace={int(trace)}: {len(pairs)} pairs, "
          f"{len(failed)} failed, {result['elapsed_s']:.1f} s"
          f"{', reference checked' if result['reference_checked'] else ''}")
    print("  env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for p in failed:
        print(f"  FAILED pair {p['index']}: " + "; ".join(p["problems"][:5]))
    for name in spec:
        value = report_metrics.get(name)
        print(f"  {name:<42} {value!r:>24} {spec[name]}")
    print(f"  {'fail_rate':<42} {len(failed) / len(pairs)!r:>24} 1 ({len(failed)}/{len(pairs)} pairs)")
    for key, value in detail.items():
        print(f"  {key:<42} {value!r:>24}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "gradamp", "__init__.py")):
        print(f"perfbench: no gradamp sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    section = "per_layer" if args.trace else "end_to_end"
    spec = {m["name"]: m["unit"] for m in bench[section]}

    work = os.path.join(HERE, "out", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = environment()
    result = run_set(args.workload, args.seed, args.seconds, bool(args.trace), work)
    pairs = result["pairs"]
    try:
        if args.trace:
            measured, detail = per_layer(pairs)
        else:
            measured, detail = end_to_end(pairs)
    except RuntimeError as exc:
        for p in pairs:
            print(f"  pair {p['index']}: " + "; ".join(p["problems"][:5]), file=sys.stderr)
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    missing = sorted(set(spec) - set(measured))
    if missing:
        print(f"perfbench: BENCHMARK.json names unmeasured metrics {missing}", file=sys.stderr)
        return 1

    failed = sum(1 for p in pairs if p["problems"])
    _print_summary(args.workload, args.seed, args.trace, result, env, measured, detail, spec)
    with open(os.path.join(work, "results.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
                   "metrics": measured, "detail": detail, **result}, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(pairs),
        "failed": failed,
        "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in spec.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
