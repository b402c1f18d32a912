"""Smoke tests: the scripts under scripts/ run against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_demo_runs_to_the_recompiled_fold():
    done = run_script("demo.py")
    assert done.returncode == 0, done.stderr
    assert "outcome: recompiled" in done.stdout


def test_output_hash_runs_on_three_seeds():
    done = run_script("output_hash.py", "--count", "3")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "instances: 3"
    assert done.stdout.splitlines()[1].startswith("sha256:")
