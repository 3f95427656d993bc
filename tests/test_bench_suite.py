"""The benchmark's own tests pass against this checkout's library.

``bench/test_bench.py`` imports ``bench/run.py`` and ``bench/tracer.py``,
which call the optimizer and wrap its layers by name; running it here
makes an API change that breaks the benchmark fail the main suite.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_bench_suite_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "bench/test_bench.py"],
        cwd=REPO, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
