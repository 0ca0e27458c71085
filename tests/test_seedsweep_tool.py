import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Runs tools/seedsweep.py's main with process creation disabled, and reports its exit
# code, whether numpy got imported and how many processes it tried to start.
PROBE = """
import os, runpy, subprocess, sys
started = []
def refuse(*args, **kwargs):
    started.append(args)
    raise OSError("no process may start")
os.fork = os.posix_spawn = os.posix_spawnp = subprocess.Popen = refuse
sys.argv = ["seedsweep.py"] + sys.argv[1:]
try:
    runpy.run_path("tools/seedsweep.py", run_name="__main__")
except SystemExit as exc:
    print(exc.code, "numpy" in sys.modules, len(started))
"""


@pytest.mark.parametrize("workers", [0, -1, (os.cpu_count() or 1) + 1])
def test_out_of_range_workers_exit_1_before_numpy_loads_or_a_process_starts(workers):
    done = subprocess.run([sys.executable, "-c", PROBE, "--workers", str(workers)],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.stdout.split() == ["1", "False", "0"], done.stderr
    assert done.stderr.startswith("seedsweep: --workers must be 1 to ")
