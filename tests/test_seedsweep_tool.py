import os
import runpy
import subprocess
import sys

import numpy as np
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


# Seeds 0-4 of the committed sweep in CHANGES.md (seed sweep entry): (probe_acc, valid_acc,
# best_epoch) per objective and seed, as the tool prints them.
SWEEP_ROWS = {
    "exact": {
        "baseline": [(0.345, 0.844, 11), (0.375, 0.825, 12), (0.385, 0.875, 29),
                     (0.305, 0.819, 14), (0.320, 0.794, 17)],
        "mtl": [(0.930, 0.838, 25), (0.905, 0.856, 27), (0.890, 0.838, 23),
                (0.790, 0.825, 13), (0.915, 0.831, 20)],
        "adv": [(0.380, 0.825, 18), (0.410, 0.794, 15), (0.350, 0.825, 16),
                (0.315, 0.731, 15), (0.400, 0.844, 16)],
    },
    "ulp": {
        "baseline": [(0.345, 0.806, 7), (0.365, 0.825, 27), (0.320, 0.863, 19),
                     (0.390, 0.875, 25), (0.325, 0.881, 10)],
        "mtl": [(0.825, 0.844, 11), (0.855, 0.825, 26), (0.770, 0.825, 12),
                (0.485, 0.750, 4), (0.775, 0.744, 12)],
        "adv": [(0.340, 0.838, 15), (0.305, 0.769, 15), (0.305, 0.825, 16),
                (0.340, 0.769, 15), (0.385, 0.806, 15)],
    },
}


def sweep_rows(name):
    return {(o, s): row for o, rows in SWEEP_ROWS[name].items() for s, row in enumerate(rows)}


@pytest.fixture(scope="module")
def seedsweep():
    return runpy.run_path(os.path.join(ROOT, "tools", "seedsweep.py"))


@pytest.mark.parametrize("name, ok, gap, diff", [
    ("exact", True, "gap 52.5 pts", "|diff| 0.0 pts"),  # criterion 5's own table
    ("ulp", False, "gap 43.5 pts", "|diff| 5.7 pts"),  # baseline 0.863 vs adv 0.806
])
def test_verdict_on_the_committed_sweep(seedsweep, name, ok, gap, diff):
    passed, line = seedsweep["verdict"](sweep_rows(name))
    assert passed is ok
    assert line.startswith(f"criterion 5 on seeds 0-4: {'PASS' if ok else 'FAIL'}, ")
    assert gap in line and diff in line


def test_verdict_fails_on_a_small_probe_gap_alone(seedsweep):
    rows = sweep_rows("exact")
    rows.update({("mtl", s): (0.45, *rows["mtl", s][1:]) for s in range(5)})
    passed, line = seedsweep["verdict"](rows)
    assert not passed and "gap 7.0 pts" in line and "|diff| 0.0 pts" in line


def test_verdict_reads_only_seeds_0_to_4(seedsweep):
    rows = sweep_rows("exact")
    rows.update({(o, 5): (0.0, 0.0, 1) for o in ("baseline", "mtl", "adv")})
    assert seedsweep["verdict"](rows) == seedsweep["verdict"](sweep_rows("exact"))


def class_rows(base, deltas):
    """Rows for seeds 0-14: baseline recalls `base`, each objective's shifted per seed."""
    return {(o, s): (0.5, 0.8, 10, tuple(np.add(base, deltas[o](s))))
            for o in ("baseline", "mtl", "adv") for s in range(15)}


def test_class_effects_on_fixed_rows(seedsweep):
    base = (0.5, 0.6, 0.7, 0.8, 0.65, 0.9)  # R, P, B, I, SA, F
    rows = class_rows(base, {
        "baseline": lambda s: 0.0,
        "mtl": lambda s: (0.1, 0.0, 0.0, 0.0, 0.025, -0.05),  # the same effect on every seed
        "adv": lambda s: (0.0, 0.0, -0.03125 * (s % 2), 0.0, 0.0, 0.0),  # one clip on odd seeds
    })
    lines = seedsweep["class_effects"]("exact", rows)
    assert lines[0] == ("exact  baseline          R  50.0  P  60.0  B  70.0  I  80.0  SA  65.0"
                        "  F  90.0")
    assert lines[1].startswith("exact  mtl               R  60.0  P  60.0")
    assert lines[3].startswith("exact  mtl - baseline    R +10.0 [+10.0, +10.0]  "
                               "P +0.0 [+0.0, +0.0]")
    assert "SA +2.5 [+2.5, +2.5]  F -5.0 [-5.0, -5.0]" in lines[3]
    # 7 of 15 seeds lose one clip: mean -1.46 pts, and resampling the seeds spreads it
    b = lines[4].split("  B ")[1].split("  I ")[0]
    mean, interval = b.split(" ", 1)
    lo, hi = (float(v) for v in interval.strip("[]").split(", "))
    assert mean == "-1.5" and -3.2 <= lo < -1.46 < hi <= 0.0


def test_class_floor_is_the_paired_shift(seedsweep):
    base = (0.5, 0.6, 0.7, 0.8, 0.65, 0.9)
    same = {o: (lambda s: 0.0) for o in ("baseline", "mtl", "adv")}
    nudged = dict(same, adv=lambda s: (0.0, 0.0, 0.0, 0.0, 0.0, 0.0625 if s == 3 else 0.0))
    lines = seedsweep["class_floor"]({"exact": class_rows(base, same),
                                      "ulp": class_rows(base, nudged)})
    assert lines[0].startswith("floor  one-ulp shift of mtl - baseline recall: R +0.0 (max 0.0)")
    assert lines[1].endswith("SA +0.0 (max 0.0)  F +0.4 (max 6.2)")
