"""Write reference/<workload>/ from one untraced pair on the pinned seed.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run it only when a change to the program is meant to change the
deterministic outputs, and say in the changelog which files moved and why.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

import outputs
from run import run_pair_process
from workloads import PINNED_SEED, WORKLOADS, config_text


def main(names: list[str]) -> int:
    for workload in names or sorted(WORKLOADS):
        work = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
        os.makedirs(work, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            config = os.path.join(tmp, "config.cfg")
            with open(config, "w", encoding="utf-8") as fh:
                fh.write(config_text(workload, PINNED_SEED))
            out_dir = os.path.join(tmp, "pair")
            report = run_pair_process(config, out_dir, None, timeout=170.0)
            problems = [report["error"]] if "error" in report else outputs.status_problems(out_dir)
            if problems:
                print(f"{workload}: {problems}", file=sys.stderr)
                return 1
            ref_dir = os.path.join(outputs.REFERENCE_DIR, workload)
            os.makedirs(ref_dir, exist_ok=True)
            for name in outputs.ARTIFACTS:
                shutil.copyfile(os.path.join(out_dir, name), os.path.join(ref_dir, outputs.reference_name(name)))
            print(f"{workload}: reference written to {ref_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
