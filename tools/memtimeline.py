"""Memory timeline of one train-mode step: tracemalloc after each layer's forward and backward.

    python3 tools/memtimeline.py
    python3 tools/memtimeline.py --batch 4 --channels 16 --frames 40 --stage joint_grl

Run from the root of the checkout to measure: the program is imported from
./src, so the same script measures any checkout. It builds a model with five
encoder blocks of --channels channels, 20 MFCCs, four podcasts and the default
heads, draws one random (batch, 20, frames) batch and runs the training stage
--stage of training.STAGES (default `mtl`, the train-paper workload's) at
lambda 0.3 through training.train_step, the step train() runs: forward with
that stage's train-mode partitions, losses, backward with its head weights,
and an Adam step. The defaults are the paper scale
(batch 32, 512 channels, 300 frames). Each batch-norm order runs in turn.

One untraced step first lets numpy and Adam make their first-call
allocations. A second untraced step is read with getrusage on this process:
the lines under the title give each order's minor page faults and CPU
seconds (user plus system) for that step. The last row of each order, `step`,
is the peak tracemalloc reads over a third step. A fourth step prints one row
per forward or backward call, in call order, of each encoder block's TDNN,
ReLU and batch norm, of the pool and of each head as a whole, then the
optimizer's step. A row gives the memory tracemalloc traces when the call
returns and the most it traced during the call, in MB (10^6 bytes). A layer
wider than nn.TRAIN_BLOCK_BYTES runs ReLU and batch norm once per block of
channel rows; those calls fold into one row per call and run of one block's
rows, which reads as the last of them returned and the most any of them
traced. What runs between two rows, such as backward rebuilding a block's
output, shows in the next row's columns (ReLU rows among the backward ones
are that rebuild, with batch norm first).
The wrapper that takes these readings holds the call's arguments until it
returns, so a call that frees an argument early (TdnnLayer.backward its given
input, say) reads up to that argument's size above an unwrapped call; the
`step` row takes no wrapper. BLAS is pinned to one thread, as in
tools/fingerprint.py.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import tracemalloc

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LAMBDA = 0.3
MB = 1e6


def traced_calls(model, opt):
    """(label, object) for every object whose methods a row is printed for."""
    for i, block in enumerate(model.encoder_blocks, start=1):
        for name in ("tdnn", "relu", "bn"):
            yield f"l{i}.{name}", getattr(block, name)
    yield "pool", model.pool
    yield from model.heads.items()
    yield "adam", opt


def instrument(model, opt, rows):
    """Wrap each traced method on its instance; each call appends (label, current, peak)."""
    def wrap(label, fn):
        def call(*args, **kwargs):
            tracemalloc.reset_peak()
            out = fn(*args, **kwargs)
            rows.append((label, *tracemalloc.get_traced_memory()))
            return out
        return call

    for label, obj in traced_calls(model, opt):
        for method in ("forward", "backward", "step"):
            if hasattr(obj, method):
                setattr(obj, method, wrap(f"{label}.{method}", getattr(obj, method)))


def fold_blocks(rows):
    """rows with each call repeated within a run of one block's rows (l3.*, say) folded into
    its first row: current as the last call returned, the largest peak."""
    out = []
    for label, current, peak in rows:
        block = label.split(".")[0]
        run = len(out)
        while run and out[run - 1][0].split(".")[0] == block:
            run -= 1
        same = [i for i in range(run, len(out)) if out[i][0] == label]
        if same:
            out[same[0]] = (label, current, max(peak, out[same[0]][2]))
        else:
            out.append((label, current, peak))
    return out


def step(model, opt, x, y, ys, stage):
    import numpy as np
    from stutterkit.training import STAGES, train_step

    train_step(model, opt, stage, LAMBDA, STAGES[stage].trains, x, y, ys,
               np.random.default_rng(0))


def timeline(args, bn_before_relu) -> tuple[str, list[str]]:
    import numpy as np
    from stutterkit import nn
    from stutterkit.model import ArchConfig, build_model

    arch = ArchConfig(n_podcasts=4, encoder_channels=(args.channels,) * 5,
                      bn_before_relu=bn_before_relu)
    model = build_model(arch, seed=0)
    opt = nn.Adam(lr=1e-3)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(args.batch, arch.n_mfcc, args.frames)).astype(np.float32)
    y = np.arange(args.batch) % 5
    ys = np.arange(args.batch) % arch.n_podcasts
    step(model, opt, x, y, ys, args.stage)
    before = resource.getrusage(resource.RUSAGE_SELF)
    step(model, opt, x, y, ys, args.stage)
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
    usage = (f"# untraced step (getrusage): bn_before_relu={bn_before_relu} "
             f"{after.ru_minflt - before.ru_minflt} minor faults, {cpu:.3f} CPU s")
    tracemalloc.start()
    try:
        step(model, opt, x, y, ys, args.stage)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = []
    instrument(model, opt, rows)
    tracemalloc.start()
    try:
        step(model, opt, x, y, ys, args.stage)
    finally:
        tracemalloc.stop()
    lines = [f"bn_before_relu={bn_before_relu}", f"  {'call':<22}{'current':>10}{'peak':>10}"]
    lines += [f"  {label:<22}{current / MB:>10.2f}{during / MB:>10.2f}"
              for label, current, during in fold_blocks(rows)]
    lines.append(f"  {'step':<22}{'':>10}{peak / MB:>10.2f}")
    return usage, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--batch", type=int, default=32)
    parser.add_argument("--channels", type=int, default=512)
    parser.add_argument("--frames", type=int, default=300)
    parser.add_argument("--stage", default="mtl")
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from stutterkit.training import STAGES

    if args.stage not in STAGES:
        parser.error(f"--stage must be one of {', '.join(STAGES)}")
    print(f"# one {args.stage} step at lambda {LAMBDA}: batch {args.batch}, "
          f"{args.channels} channels, {args.frames} frames; tracemalloc MB")
    runs = [timeline(args, bn_before_relu) for bn_before_relu in (False, True)]
    print("\n".join(usage for usage, _ in runs))
    for _, lines in runs:
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
