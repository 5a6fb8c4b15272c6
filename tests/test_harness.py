"""Contract checks for the benchmark harness and the demo scripts.

The benchmark's tracer wraps package functions by name and its grid
workload replaces ``bench.run_method``; the demos call the public API.
Running both end to end catches a renamed or removed name that the unit
tests would not notice.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_script(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)


def test_benchmark_selftest_passes():
    proc = run_script(ROOT / "perfbench" / "selftest.py")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = run_script(demo)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
