"""stutterkit benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload train-bench --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 0     # every workload, one table

Run from the repository root. The program is imported from ./src, so the
numbers belong to the checkout being measured. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics when --trace 0 and the per-module metrics when --trace 1
(see README.md for units, directions and what each metric should move).
"""

from __future__ import annotations

import os

# Single-threaded BLAS is the comparable number; it must be pinned before
# numpy loads its BLAS library.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 16  # before the timed phase, and as many again after it
NAMES = ("train-bench", "train-paper", "infer-audio")

# name -> (unit, better); the order is the order of the printed table.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "clips_per_s": ("clips/s", "higher"),
    "eval_clips_per_s": ("clips/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
# The same run also reports these by name where the workload has them.
NAMED = {
    "train_clips_per_s": ("clips/s", "higher"),
    "features_clips_per_s": ("clips/s", "higher"),
    "eval_clips_per_s": ("clips/s", "higher"),
    "valid_acc": ("fraction", "higher"),
    "valid_stutter_loss": ("nats", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "failed_share": ("fraction", "lower"),
    "setup_s": ("s", "lower"),
}


def _import_program():
    """Import stutterkit from this checkout's src/, or exit 1 without a result."""
    if not os.path.isfile(os.path.join(SRC, "stutterkit", "__init__.py")):
        sys.exit(f"perfbench: no stutterkit sources under {SRC}")
    sys.path.insert(0, SRC)
    import stutterkit

    if os.path.dirname(os.path.abspath(stutterkit.__file__)) != os.path.join(SRC, "stutterkit"):
        sys.exit(f"perfbench: imported stutterkit from {stutterkit.__file__}, not {SRC}")


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it is not OpenBLAS."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _cpu_model():
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or None


def fingerprint() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def timed_phase(wl, tracer, tally, seconds) -> dict:
    """Run units until the next one would end past `seconds` of wall time;
    at least one. Also returns the phase's CPU time ÷ wall time."""
    wl.clear()
    start, cpu_start = time.perf_counter(), time.process_time()
    while True:
        t0 = time.perf_counter()
        wl.unit(tracer, tally)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return dict(wl.summary(), cpu_share=(time.process_time() - cpu_start) / (now - start))


def run_workload(name, seed, seconds, trace):
    from instrument import PER_LAYER, instrument_modules, layer_metrics
    from spans import Tracer
    from workloads import WORKLOADS, Tally
    from yardstick import Stopwatch

    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT)
    # The traced run's spans would count the kernel's runs inside them.
    watch = Stopwatch(sample=not trace)
    try:
        wl = WORKLOADS[name](seed, work, watch)
        tracer = Tracer(enabled=trace)
        setups = []

        def set_up():
            for _ in range(SETUP_REPEATS):
                watch.start()
                wl.setup(tracer)
                setups.append(watch.lap())

        set_up()
        tracer.enabled = False
        wl.prepare()
        tally = Tally()
        if trace:
            # An untimed warm-up unit (first-touch memory, lazy set-up), then
            # half the time untraced as the reference for the tracing
            # overhead, and half traced.
            wl.unit(tracer, tally)
            ref = timed_phase(wl, tracer, tally, seconds / 2)
            instrument_modules(tracer)
            wl.instrument(tracer)
            tracer.enabled = True
        rates = timed_phase(wl, tracer, tally, seconds / 2 if trace else seconds)
        post = wl.post(tracer, tally, traced=trace)
        tracer.enabled = False
        tracer.restore()
        set_up()  # the state it leaves is not used again
    finally:
        watch.close()
        shutil.rmtree(work, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": statistics.median(setups),
        "clips_per_s": rates["clips_per_s"],
        "eval_clips_per_s": rates["eval_clips_per_s"],
        "peak_rss_mb": peak_rss_mb,
    }
    named = {
        "setup_s": values["setup_s"],
        "eval_clips_per_s": values["eval_clips_per_s"],
        "peak_rss_mb": peak_rss_mb,
        "failed_share": tally.failed / tally.attempted,
    }
    if "objective_clips_per_s" in rates:
        named["train_clips_per_s"] = values["clips_per_s"]
        named["valid_acc"] = post["valid_acc"]
        named["valid_stutter_loss"] = post["valid_stutter_loss"]
    else:
        named["features_clips_per_s"] = rates["features_clips_per_s"]

    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "units": wl.units, "setup_runs_s": setups, "cpu_share": rates["cpu_share"],
        "host_slowdown": watch.slowdown(),
        "env": fingerprint(),
        "named": named, "failures": tally.failures, "quality": post.get("quality"),
    }
    if trace:
        ctx = dict(post)
        ctx.update(
            units=wl.units, valid_clips=wl.valid_clips,
            train_callback_s=getattr(wl, "callback_s", 0.0),
            epochs=[(stage, sec) for _, stage, sec in wl.epochs],
            clips_per_s=ref["clips_per_s"],
            eval_clips_per_s=ref["eval_clips_per_s"],
            traced_clips_per_s=values["clips_per_s"],
            traced_eval_clips_per_s=values["eval_clips_per_s"],
            objective_clips_per_s=ref.get("objective_clips_per_s", {}),
            features_clips_per_s=ref.get("features_clips_per_s", 0.0),
        )
        metrics = layer_metrics(tracer, ctx)
        detail["spans"] = tracer.summary()
        tracer.dump(os.path.join(OUT, f"trace-{name}-seed{seed}.json"),
                    {"workload": name, "seed": seed, "env": detail["env"]})
        units_of = {k: v[0] for k, v in PER_LAYER.items()}
    else:
        metrics = values
        units_of = {k: v[0] for k, v in END_TO_END.items()}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    return detail, result


def _print_table(rows, title):
    print(title)
    width = max(len(r[0]) for r in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")


def main_one(args):
    detail, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    verdict = "correct" if result["correct"] else "INCORRECT: " + "; ".join(detail["failures"])
    print(f"{args.workload} seed {args.seed}: {detail['units']} units, {verdict}")
    if args.trace:
        _print_table([(k, v["value"], v["unit"]) for k, v in result["metrics"].items()],
                     "per-module metrics (ms/s values are per call, median)")
        print("spans (name: calls, total s, self s)")
        for span, s in detail["spans"].items():
            print(f"  {span}: {s['calls']}, {s['total_s']:.4f}, {s['self_s']:.4f}")
    else:
        _print_table([(k, v, NAMED[k][0]) for k, v in detail["named"].items()],
                     "end-to-end metrics")
    if detail["quality"]:
        for objective, q in detail["quality"].items():
            print(f"  quality {objective}: valid_acc {q['valid_acc']:.4f} "
                  f"probe_acc {q['probe_acc']:.4f}")
    print("perfbench-detail " + json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0


def main_all(args):
    """Every workload in its own process, untraced, then one summary table."""
    rows, ok = {}, True
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        detail = json.loads(next(line for line in lines if line.startswith(
            "perfbench-detail "))[len("perfbench-detail "):])
        rows[name] = (detail, result)
        ok = ok and result["correct"]
    env = next(iter(rows.values()))[0]["env"]
    print("env " + json.dumps(env))
    print(f"{'metric':<22}{'unit':<10}{'better':<8}" + "".join(f"{n:>14}" for n in NAMES))
    for metric, (unit, better) in NAMED.items():
        cells = []
        for name in NAMES:
            v = rows[name][0]["named"].get(metric)
            cells.append(f"{v:>14.6g}" if v is not None else f"{'-':>14}")
        print(f"{metric:<22}{unit:<10}{better:<8}" + "".join(cells))
    print(f"{'correct':<40}" + "".join(f"{str(rows[n][1]['correct']):>14}" for n in NAMES))
    for name in NAMES:
        for objective, q in (rows[name][0]["quality"] or {}).items():
            print(f"{name} {objective}: valid_acc {q['valid_acc']:.4f} "
                  f"probe_acc {q['probe_acc']:.4f}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")
    _import_program()
    return main_all(args) if args.all else main_one(args)


if __name__ == "__main__":
    sys.exit(main())
