"""Smoke tests: the scripts under scripts/ run against the package in src/."""

import ast
import os
import subprocess
import sys
from pathlib import Path

from strategies import FO_CFG

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


# The hash of every output over the first 40 first-order instances: stores,
# traces, stats counters and entailment answers.  Any drift in them changes it.
# The second hash covers the same runs with no trace attached.
GOLDEN_HASH_40 = "sha256:04f7a6d72c6fa07a39bb3f0d2d88200efa8089f4178eabe3b73a2ca6124216dd"
GOLDEN_UNTRACED_40 = "sha256:c27141f850751fd4141f4e9ccad6714138b68a9dcae242ccbd3ff2b2e838bf85"


def test_output_hash_matches_golden_on_forty_instances():
    done = run_script("output_hash.py", "--count", "40")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "instances: 40",
        GOLDEN_HASH_40,
        "untraced " + GOLDEN_UNTRACED_40,
    ]


def fo_cfg_in(path):
    """The fields of the top-level `FO_CFG = dict(...)` in a file, read
    without importing it."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["FO_CFG"]:
            call = node.value
            assert isinstance(call, ast.Call) and ast.unparse(call.func) == "dict"
            assert not call.args and all(kw.arg for kw in call.keywords)
            return {kw.arg: ast.literal_eval(kw.value) for kw in call.keywords}
    raise AssertionError("no FO_CFG in %s" % path)


def test_the_copies_of_the_criterion_4_shape_agree():
    """The tests, `scripts/output_hash.py` and the benchmark's workloads
    each spell out the first-order instance shape; they must be one shape."""
    for path in (ROOT / "scripts" / "output_hash.py", ROOT / "perfbench" / "workloads.py"):
        assert fo_cfg_in(path) == FO_CFG, path
