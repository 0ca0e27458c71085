"""Time two checkouts against each other with perfbench, in alternating order per seed.

    python3 tools/benchpairs.py PARENT CHANGE --out BENCH_16.json \\
        --plan train-bench:10 --plan train-paper:3 --plan infer-audio:3 \\
        --seed 1601 --seconds 35 --what "what the change is"

PARENT and CHANGE are the roots of two checkouts. Each pair runs
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0` once in
each checkout, with the same seed. The parent goes first in a workload's even
pairs and the change in its odd ones, so drift on a shared host falls on both
sides alike. Seeds count up from --seed over every pair of every workload.

The output has the schema of BENCH_15.json: the commits, the command, the
environment perfbench reported, and per workload the pairs and, per
end-to-end metric of the change's BENCHMARK.json, both sides' quartiles
(numpy.percentile, linear interpolation), the metric's direction, the number
of pairs the change won and the change's median over the parent's, less 1.
The file is rewritten after every pair, so an interrupted run keeps what it
measured.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np

SIDES = ("parent", "change")


def commit(root: str) -> str | None:
    done = subprocess.run(["git", "-C", root, "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def run_once(root: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One perfbench run in root: (the pair entry, the environment it reported)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=10 * seconds + 600)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: {' '.join(cmd[1:])} exited {done.returncode}\n"
                           f"{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    detail = next(json.loads(line.split(" ", 1)[1]) for line in lines
                  if line.startswith("perfbench-detail "))
    entry = {k: result[k] for k in ("attempted", "failed", "correct")}
    entry.update({name: m["value"] for name, m in result["metrics"].items()})
    return entry, detail["env"]


def summary(pairs: list, directions: dict) -> dict:
    out = {}
    for name, better in directions.items():
        values = {side: np.array([p[side][name] for p in pairs]) for side in SIDES}
        wins = values["change"] < values["parent"] if better == "lower" else (
            values["change"] > values["parent"])
        q = {side: dict(zip(("q1", "median", "q3"), map(float, np.percentile(v, [25, 50, 75]))))
             for side, v in values.items()}
        out[name] = {**q, "better": better, "change_better_pairs": int(wins.sum()),
                     "pairs": len(pairs),
                     "change_vs_parent": q["change"]["median"] / q["parent"]["median"] - 1}
    return out


def parse_plan(text: str) -> tuple[str, int]:
    workload, _, pairs = text.partition(":")
    if not workload or not pairs.isdigit() or int(pairs) < 1:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:PAIRS, got {text!r}")
    return workload, int(pairs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--plan", type=parse_plan, action="append", required=True,
                        metavar="WORKLOAD:PAIRS", help="workload and its number of pairs")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--what", default="", help="one line on what the change is")
    args = parser.parse_args(argv)

    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as fh:
        directions = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    doc = {
        "what": args.what,
        "parent_commit": commit(roots["parent"]),
        "change_commit": commit(roots["change"]),
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {args.seconds:g} --trace 0",
        "quartiles": "numpy.percentile, linear interpolation",
        "environment": None,
        "workloads": {},
    }
    seed = args.seed
    for workload, n_pairs in args.plan:
        pairs = []
        for k in range(n_pairs):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side], env = run_once(roots[side], workload, seed, args.seconds)
                doc["environment"] = doc["environment"] or env
            pairs.append(pair)
            doc["workloads"][workload] = {"pairs": pairs, "summary": summary(pairs, directions)}
            with open(args.out + ".tmp", "w") as fh:
                json.dump(doc, fh, indent=1)
            os.replace(args.out + ".tmp", args.out)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} {pair[side]['clips_per_s']:.4g} clips/s" for side in order),
                file=sys.stderr, flush=True)
            seed += 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
