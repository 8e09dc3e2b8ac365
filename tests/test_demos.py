"""Every script in ``demos/`` runs to completion against the package.

Each demo runs in a fresh process from a temporary working directory, so
the run folders they write under a relative ``demos/out/`` land there and
not in the repository.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMO_DIR = os.path.join(ROOT, "demos")
DEMOS = sorted(name for name in os.listdir(DEMO_DIR) if name.endswith(".py"))


def test_all_six_demos_are_collected():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(tmp_path, name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMO_DIR, name)],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
