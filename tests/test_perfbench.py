"""The benchmark's self-test runs with the suite, so a change that unbinds
a name perfbench/tracing.py wraps, or breaks a span, a memory wrapper or an
output check, fails here and not only under ``--trace 1``."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 failures"
