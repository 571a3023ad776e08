"""The benchmark's own self-tests, run as part of the main suite.

`bench/test_bench.py` checks the tracer's wrapping of library entry points
and runs the benchmark's independent output checks on real CLI output, so a
library change that breaks the benchmark fails here too.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_tests_pass():
    done = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "bench", "-p", "test_*.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-4000:]
