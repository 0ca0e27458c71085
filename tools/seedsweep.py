"""Criterion 5's protocol over seeds 0-14, with a one-ulp rounding floor.

    python3 tools/seedsweep.py [--workers N]

Run from the root of the checkout to measure: the program is imported from
./src, so the same script sweeps any checkout. To compare a change with its
parent, run it from each root and compare the two outputs.

Criterion 5 (tests/test_acceptance.py) trains baseline, mtl and adv on seeds
0-4 and asks for adv's median valid accuracy within 5 points of baseline's.
Floating-point rounding alone moves that difference by several points, so
five seeds cannot tell a change that moves bits from one that costs
accuracy. This script trains the same three objectives on seeds 0-14, on
criterion 5's corpus, split, architecture and configs, pinned here as
tools/fingerprint.py pins its own, so editing the test leaves the sweep alone.

It prints, per pass:
  - one row per run: probe_acc, valid_acc and best_epoch, as criterion 5
    prints them;
  - the median probe and valid accuracy of each objective;
  - the paired adv - baseline valid accuracy difference over the 15 seeds:
    mean, median and a 95% bootstrap interval of the mean (10000 resamples
    of the seeds, generator seed 0);
  - criterion 5's verdict on seeds 0-4, with its thresholds pinned here:
    PASS when mtl's median probe accuracy is at least 10 points above
    adv's and adv's median valid accuracy is within 5 points of
    baseline's.

After both passes and the floor line, it prints the per-class effects of
each objective, the form of the paper's claims: per pass, each objective's
mean valid recall over the 15 seeds for R, P, B, I, SA (the mean of those
four) and F, from evaluate.metrics on the same valid predictions; then the
paired mtl - baseline and adv - baseline means, each with a 95% bootstrap
interval over the same resamples. The last line is the per-class one-ulp
floor of both differences. The valid split holds 32 clips per class, so
one clip is 3.1 points of a class's recall.

The `exact` pass trains from build_model's initial weights. The `ulp` pass
repeats all 45 runs with every initial weight moved one ulp towards +inf
(np.nextafter) and no other change. Its shift from `exact` is the rounding
floor: a change whose adv - baseline shift from its parent is no larger
than the floor is indistinguishable from rounding. The last line prints it.

Runs go to at most --workers processes (1 to os.cpu_count(), default all).
BLAS is pinned to one thread before numpy loads, and each run depends only
on its seed, so every row equals a serial run's.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SEEDS = range(15)
OBJECTIVES = ("baseline", "mtl", "adv")
PASSES = ("exact", "ulp")
RESAMPLES = 10000
CLASSES = ("R", "P", "B", "I", "SA", "F")  # evaluate.TABLE_COLUMNS without TA
VERDICT_SEEDS = range(5)  # criterion 5's seeds and thresholds (tests/test_acceptance.py)
MIN_PROBE_GAP = 0.10
MAX_VALID_DIFF = 0.05

_corpus = None


def corpus():
    """Criterion 5's records, split and architecture, built once per process."""
    global _corpus
    if _corpus is None:
        from stutterkit.data import SyntheticConfig, generate_synthetic, split_within_podcast
        from stutterkit.model import ArchConfig

        records = generate_synthetic(SyntheticConfig(
            n_podcasts=4, clips_per_class=200, frames=20,
            alpha=2.0, beta=2.0, rho=0.6, sigma=0.3, seed=100))
        split = split_within_podcast(records, 0.15, seed=0)
        arch = ArchConfig(n_podcasts=4, encoder_channels=(32,) * 5, head_hidden=(32, 32))
        _corpus = records, split, arch
    return _corpus


def config(objective, seed):
    from stutterkit.training import TrainConfig

    kw = dict(objective=objective, lam=0.3, batch_size=32, lr=3e-3, seed=seed, patience=10)
    if objective == "adv":
        return TrainConfig(max_epochs=45, stage_bounds=(5, 10, 15), **kw)
    return TrainConfig(max_epochs=30, **kw)


def run(job):
    """One training: (probe_acc, valid_acc, best_epoch, class recalls) for (pass, objective, seed).

    The class recalls are valid recall in CLASSES order.
    """
    import numpy as np
    from stutterkit.evaluate import confusion, metrics, speaker_probe
    from stutterkit.model import build_model
    from stutterkit.training import infer, train

    name, objective, seed = job
    records, split, arch = corpus()
    model = build_model(arch, seed=seed)
    if name == "ulp":
        np.nextafter(model.arena.value, np.inf, out=model.arena.value)
    result = train(model, split.train, split.valid, config(objective, seed))
    valid = infer(model, split.valid)
    report = metrics(confusion(valid.labels, valid.predictions))
    recalls = (*map(float, report.recall[1:]), report.stutter_accuracy, report.fluent_accuracy)
    probe = speaker_probe(infer(model, records).embeddings,
                          [r.podcast_id for r in records], seed=0).accuracy
    return probe, valid.accuracy, result.best_epoch, recalls


def paired(rows):
    """adv - baseline valid accuracy per seed, in seed order."""
    import numpy as np

    return np.array([rows["adv", s][1] - rows["baseline", s][1] for s in SEEDS])


def verdict(rows) -> tuple[bool, str]:
    """Criterion 5 on seeds 0-4 of one pass's rows: (passed, the line that says so)."""
    import numpy as np

    probe, valid = ({o: float(np.median([rows[o, s][i] for s in VERDICT_SEEDS]))
                     for o in OBJECTIVES} for i in (0, 1))
    gap = probe["mtl"] - probe["adv"]
    diff = abs(valid["adv"] - valid["baseline"])
    ok = gap >= MIN_PROBE_GAP and diff <= MAX_VALID_DIFF
    return ok, (f"criterion 5 on seeds 0-4: {'PASS' if ok else 'FAIL'}, median probe mtl "
                f"{probe['mtl']:.3f} vs adv {probe['adv']:.3f} (gap {100 * gap:.1f} pts, need "
                f">= {100 * MIN_PROBE_GAP:.0f}), adv valid acc {valid['adv']:.3f} vs baseline "
                f"{valid['baseline']:.3f} (|diff| {100 * diff:.1f} pts, need <= "
                f"{100 * MAX_VALID_DIFF:.0f})")


def report(name, rows):
    import numpy as np

    for objective in OBJECTIVES:
        for seed in SEEDS:
            probe, vacc, best = rows[objective, seed][:3]
            print(f"{name:<5}  {objective:<9}  {seed:>4}  {probe:>9.3f}  {vacc:>9.3f}  "
                  f"{best!s:>10}")
    print(f"{name:<5}  medians: " + ", ".join(
        f"{o} probe {np.median([rows[o, s][0] for s in SEEDS]):.3f} "
        f"valid {np.median([rows[o, s][1] for s in SEEDS]):.3f}" for o in OBJECTIVES))
    d = paired(rows)
    boot = np.random.default_rng(0).integers(0, len(d), size=(RESAMPLES, len(d)))
    lo, hi = np.percentile(d[boot].mean(axis=1), [2.5, 97.5])
    print(f"{name:<5}  adv - baseline valid acc: mean {100 * d.mean():+.2f} pts, median "
          f"{100 * np.median(d):+.2f} pts, 95% bootstrap interval of the mean "
          f"[{100 * lo:+.2f}, {100 * hi:+.2f}] pts")
    print(f"{name:<5}  {verdict(rows)[1]}", flush=True)


def class_effects(name, rows) -> list[str]:
    """One pass's per-class lines: mean recall per objective, then the paired effects."""
    import numpy as np

    recall = {o: np.array([rows[o, s][3] for s in SEEDS]) for o in OBJECTIVES}
    boot = np.random.default_rng(0).integers(0, len(SEEDS), size=(RESAMPLES, len(SEEDS)))
    lines = [f"{name:<5}  {o:<16}  " + "  ".join(
        f"{c} {100 * v:5.1f}" for c, v in zip(CLASSES, recall[o].mean(axis=0)))
        for o in OBJECTIVES]
    for o in ("mtl", "adv"):
        d = recall[o] - recall["baseline"]
        lo, hi = np.percentile(d[boot].mean(axis=1), [2.5, 97.5], axis=0)
        lines.append(f"{name:<5}  {o + ' - baseline':<16}  " + "  ".join(
            f"{c} {100 * m:+.1f} [{100 * a:+.1f}, {100 * b:+.1f}]"
            for c, m, a, b in zip(CLASSES, d.mean(axis=0), lo, hi)))
    return lines


def class_floor(rows) -> list[str]:
    """Per class, the one-ulp shift of each paired effect: mean, and max |shift| over seeds."""
    import numpy as np

    def effect(name, o):
        return np.array([np.subtract(rows[name][o, s][3], rows[name]["baseline", s][3])
                         for s in SEEDS])

    lines = []
    for o in ("mtl", "adv"):
        shift = effect("ulp", o) - effect("exact", o)
        lines.append(f"floor  one-ulp shift of {o} - baseline recall: " + "  ".join(
            f"{c} {100 * m:+.1f} (max {100 * x:.1f})"
            for c, m, x in zip(CLASSES, shift.mean(axis=0), np.abs(shift).max(axis=0))))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workers", type=int, default=os.cpu_count() or 1, metavar="N",
                        help="worker processes, 1 to os.cpu_count() (default all)")
    workers = parser.parse_args(argv).workers
    cpus = os.cpu_count() or 1
    if not 1 <= workers <= cpus:
        print(f"seedsweep: --workers must be 1 to {cpus}, got {workers}", file=sys.stderr)
        return 1
    # numpy is first imported below, so BLAS starts, and forked workers inherit, one thread
    os.environ.update({var: "1" for var in THREAD_VARS})
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "stutterkit", "__init__.py")):
        print(f"seedsweep: no stutterkit sources under {src}; run from a checkout's root",
              file=sys.stderr)
        return 1
    sys.path.insert(0, src)
    import numpy as np

    t0 = time.monotonic()
    corpus()
    jobs = [(name, o, s) for name in PASSES for o in OBJECTIVES for s in SEEDS]
    if workers == 1:
        results = list(map(run, jobs))
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as ex:
            results = list(ex.map(run, jobs))
    rows = {name: {} for name in PASSES}
    for (name, objective, seed), result in zip(jobs, results):
        rows[name][objective, seed] = result
    print("pass   objective  seed  probe_acc  valid_acc  best_epoch")
    for name in PASSES:
        report(name, rows[name])
    shift = paired(rows["ulp"]) - paired(rows["exact"])
    print(f"floor  one-ulp shift of adv - baseline valid acc: mean {100 * shift.mean():+.2f} pts, "
          f"per seed |shift| median {100 * np.median(np.abs(shift)):.2f}, max "
          f"{100 * np.abs(shift).max():.2f} pts; {len(jobs)} runs on {workers} workers, "
          f"{time.monotonic() - t0:.0f}s")
    print("pass   per-class valid recall, pts: mean over seeds 0-14; effects with 95% "
          "bootstrap intervals of the mean")
    for name in PASSES:
        print("\n".join(class_effects(name, rows[name])))
    print("\n".join(class_floor(rows)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
