"""Command-line front end.

    gradamp run <config> [--out DIR]          one run
    gradamp run-pair <config> [--out DIR]     attacked run + clean twin + metrics
    gradamp report <manifest>... --out DIR    table and SVG plots from stored runs
    gradamp gen-data <config> <out.csv>       synthesize a dataset to CSV
    gradamp sweep <config> --vary k=v1,v2,..  run-pair per value of one key

Exit codes: 0 success, 2 configuration or usage error, 3 runtime failure.

``main`` sets the numeric environment of the whole process before it parses
its arguments (``runtime.configure``): glibc's mmap and trim thresholds, and
one BLAS thread, and enables one worker thread when two or more CPUs are
allowed.  Library callers of ``harness`` keep their own and run serially;
every manifest records which held (``runtime.*``).
"""

from __future__ import annotations

import argparse
import sys

from .config import ExperimentConfig, parse_config_text
from .errors import ConfigError, GradampError
from .harness import run_experiment, run_pair, sweep
from . import runtime


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gradamp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory override")

    p_pair = sub.add_parser("run-pair", help="attacked run plus clean twin")
    p_pair.add_argument("config")
    p_pair.add_argument("--out", default=None)

    p_rep = sub.add_parser("report", help="summaries and plots from run manifests")
    p_rep.add_argument("manifests", nargs="+")
    p_rep.add_argument("--out", required=True)

    p_gen = sub.add_parser("gen-data", help="write the configured dataset as CSV")
    p_gen.add_argument("config")
    p_gen.add_argument("out_csv")

    p_sweep = sub.add_parser("sweep", help="run-pair across values of one key")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--vary", required=True, metavar="key=v1,v2,...")
    p_sweep.add_argument("--out", default=None)
    return parser


def _parse_vary(raw: str) -> tuple[str, list[object]]:
    if "=" not in raw:
        raise ConfigError("--vary expects key=v1,v2,...")
    key, _, tail = raw.partition("=")
    key = key.strip()
    values = [v for v in tail.split(",") if v != ""]
    if not key or not values:
        raise ConfigError("--vary expects key=v1,v2,...")
    # reuse the config value parser on each element
    return key, [parse_config_text(f"{key} = {v}")[key] for v in values]


def main(argv: list[str] | None = None) -> int:
    runtime.configure()
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            manifest = run_experiment(ExperimentConfig.from_file(args.config), args.out)
            print(f"run {manifest.run_id}: {manifest.status}, manifest at {manifest.path}")
        elif args.command == "run-pair":
            summary = run_pair(ExperimentConfig.from_file(args.config), args.out)
            row = summary.metrics_row
            print(
                f"pair {row['run_id']}: ta_loss={row['ta_loss']:.4f} "
                f"negative_pulse={row['negative_pulse']:.4f} metrics at {summary.metrics_path}"
            )
        elif args.command == "report":
            from .report import report  # only this command pays for the import

            written = report(args.manifests, args.out)
            for path in written:
                print(path)
        elif args.command == "gen-data":
            from .data import save_csv
            from .harness import build_dataset

            cfg = ExperimentConfig.from_file(args.config)
            dataset = build_dataset(cfg)
            save_csv(dataset, args.out_csv)
            print(f"{len(dataset)} samples -> {args.out_csv}")
        elif args.command == "sweep":
            key, values = _parse_vary(args.vary)
            cfg = ExperimentConfig.from_file(args.config)
            summaries = sweep(cfg, key, values, args.out)
            print(f"{len(summaries)} pairs swept over {key}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GradampError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
