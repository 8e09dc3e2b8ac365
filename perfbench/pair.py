"""Run one clean+attacked pair in this process and report what it cost.

    python3 perfbench/pair.py --src SRC --config CFG --out DIR [--spans CSV]

``run.py`` starts one fresh process per pair.  The pair runs through the
public entry point, ``gradamp.cli.main(["run-pair", CFG, "--out", DIR])``.

Three light hooks mark the run boundaries:

    harness.run_experiment   entry of each run (setup starts)
    nn.local_train           first call of a run = round 1 starts, setup ends
    harness.aggregate_round  return = one round's screening is done

Round k is timed from the return of round k-1's screen (round 1 from its
start) to the return of round k's screen, so each sample holds one round's
training, crafting, amplification and screening plus the previous round's
update and checkpoint evaluation.

At every mark the process also times a fixed calibration block (small numpy
products and reductions driven from a Python loop, like gradamp's own mix).
Shared hosts change speed by up to 1.5x over seconds to minutes; the block
time taken beside each segment lets ``run.py`` scale the segment to a fixed
reference speed.  Marks are in *program time*: wall time minus the time
spent in calibration, so the blocks never count towards the pair.

With ``--spans`` the tracer also wraps every layer and writes its spans to
CSV.  The last line of standard output is one JSON object.
"""

import time

T_START = time.monotonic()  # before the heavy imports, which count as set-up

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import sys

CALIBRATION_REPS = 20


class Clock:
    """Program-time marks, each followed by one timed calibration block."""

    def __init__(self) -> None:
        import numpy as np

        a = np.random.default_rng(0).random((64, 64))
        b = a[:, :16].copy()
        maximum = np.maximum

        def block() -> None:
            for _ in range(CALIBRATION_REPS):
                c = a @ b
                maximum(c, 0.0, out=c)
                c.sum()

        self._block = block
        self.paused = 0.0
        self.events: list[tuple[str, int, float, float]] = []  # kind, run, time, block s

    def mark(self, kind: str, run: int) -> None:
        t = time.monotonic()
        self._block()
        done = time.monotonic()
        self.events.append((kind, run, t - self.paused, done - t))
        self.paused += done - t


class RoundMarks:
    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self._run = -1
        self._awaiting_round1 = False

    def install(self, harness, nn) -> None:
        run_experiment = harness.run_experiment
        local_train = nn.local_train
        aggregate_round = harness.aggregate_round
        clock = self.clock

        def run_hook(*args, **kwargs):
            self._run += 1
            clock.mark("enter", self._run)
            self._awaiting_round1 = True
            try:
                return run_experiment(*args, **kwargs)
            finally:
                self._awaiting_round1 = False
                clock.mark("exit", self._run)

        def train_hook(*args, **kwargs):
            if self._awaiting_round1:
                self._awaiting_round1 = False
                clock.mark("round1", self._run)
            return local_train(*args, **kwargs)

        def aggregate_hook(*args, **kwargs):
            decision = aggregate_round(*args, **kwargs)
            clock.mark("aggregate", self._run)
            return decision

        harness.run_experiment = run_hook
        harness.aggregate_round = aggregate_hook
        nn.local_train = train_hook


def _import_gradamp(src: str):
    sys.path.insert(0, src)
    package = importlib.import_module("gradamp")
    where = os.path.realpath(package.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"gradamp imported from {where}, not from {src}")
    return importlib.import_module("gradamp.cli")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None, help="trace every layer; write spans here")
    args = parser.parse_args()

    cli = _import_gradamp(args.src)
    tracer = None
    if args.spans:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    # installed after the tracer, the hooks wrap its wrappers: every
    # calibration block runs outside the layer spans, inside harness spans
    clock = Clock()
    RoundMarks(clock).install(sys.modules["gradamp.harness"], sys.modules["gradamp.nn"])
    clock.mark("call", -1)

    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["run-pair", args.config, "--out", args.out])

    clock.mark("end", -1)
    t_call, t_end = clock.events[0][2], clock.events[-1][2]
    result: dict[str, object] = {
        "rc": rc,
        "t_start": T_START,
        "t_call": t_call,
        "t_end": t_end,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "events": clock.events,
    }
    if tracer is not None:
        in_harness = sum(b for kind, _, _, b in clock.events if kind not in ("call", "end"))
        result["trace"] = tracer.summary(t_end - t_call, in_harness, args.out)
        tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
