import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Runs tools/fingerprint.py's main and reports its exit code and whether numpy got imported.
PROBE = """
import runpy, sys
sys.argv = ["fingerprint.py"] + sys.argv[1:]
try:
    runpy.run_path("tools/fingerprint.py", run_name="__main__")
except SystemExit as exc:
    print(exc.code, "numpy" in sys.modules)
"""


@pytest.mark.parametrize("threads", [0, -1, (os.cpu_count() or 1) + 1])
def test_out_of_range_blas_threads_exit_1_before_numpy_loads(threads):
    done = subprocess.run([sys.executable, "-c", PROBE, "--blas-threads", str(threads)],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.stdout.split() == ["1", "False"], done.stderr
    assert done.stderr.startswith("fingerprint: --blas-threads must be 1 to ")
