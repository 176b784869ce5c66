"""The benchmark's self-test runs clean against this checkout."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    """bench/selftest.py wraps every tracer target and checks traced runs.

    The tracer names functions and methods of the package; a renamed one
    fails here instead of only in the benchmark's traced runs.
    """
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout
