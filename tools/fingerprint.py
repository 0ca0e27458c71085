"""Training fingerprints: one sha256 per configuration, to prove a refactor bit-identical.

    python3 tools/fingerprint.py

Run from the root of the checkout to fingerprint: the program is imported
from ./src, so the same script measures any checkout. To compare a change
with its parent, check the parent out beside it and run the script from
each root:

    git worktree add ../parent HEAD~1
    (cd ../parent && python3 "$OLDPWD/tools/fingerprint.py") > parent.txt
    python3 tools/fingerprint.py > change.txt
    diff parent.txt change.txt

Each configuration trains 5 epochs from seed 0 on a synthetic corpus and
architecture the size of criterion 5's (tests/test_acceptance.py). The
script pins its own copy of them on purpose: a fingerprint must not move
when a checkout's tests do, so editing criterion 5 leaves these alone.
Each hash covers the epoch-log CSV, the checkpoint bytes of the restored
model and the Adam state, so any changed bit in training shows. The state
is hashed per key (one per partition) in sorted-key order: the key and its
step count t, then its m bytes and its v bytes.

Those eight lines train on equal-length clips. `mtl-0.3-mixed` trains the
mtl-0.3 configuration on 200 clips per class of 15-25 frames instead, so
every step batch and eval batch is cropped to its shortest clip.

The last two lines cover inference: `stutterkit eval --report
--export-embeddings`, hashing the printed table, the report JSON and the
embeddings CSV. `eval` runs the mtl-0.3 checkpoint on a manifest of 150
clips of 15-60 frames (three batches, each cropped to its shortest clip).
`eval-wide` runs a 256-channel model, trained one mtl epoch, on 100 clips
of 150-300 frames: wide and long enough that the encoder splits each eval
batch into clip groups (model.EVAL_GROUP_BYTES), which `eval` never does.
BLAS is pinned to one thread; hashes are comparable within one environment.
`--blas-threads N` pins it to N threads instead (1 to os.cpu_count()), to
show which lines depend on the thread count; the lines keep their format.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

EPOCHS = 5
EVAL_RUN = "mtl-0.3"  # the checkpoint the eval line evaluates
# name -> TrainConfig fields beyond the criterion-5 ones
RUNS = {
    "baseline": dict(objective="baseline"),
    "mtl-0.3": dict(objective="mtl", lam=0.3),
    "mtl-0.0": dict(objective="mtl", lam=0.0),
    "mtl-decay10": dict(objective="mtl", lambda_schedule="decay10"),
    "adv-0.3": dict(objective="adv", lam=0.3),
    "adv-0.0": dict(objective="adv", lam=0.0),
    "adv-sigmoid_ramp": dict(objective="adv", lambda_schedule="sigmoid_ramp"),
    "adv-0.3-frozen-stage1": dict(objective="adv", lam=0.3, stage1_trains_encoder=False),
}


def fingerprint(name, overrides, split, arch, workdir) -> str:
    from stutterkit.checkpoint import save_checkpoint
    from stutterkit.model import build_model
    from stutterkit.training import TrainConfig, train

    log_path = os.path.join(workdir, f"{name}.csv")
    ckpt_path = os.path.join(workdir, f"{name}.ckpt")
    cfg = TrainConfig(**{**dict(lam=0.3, batch_size=32, lr=3e-3, seed=0, patience=10,
                                max_epochs=EPOCHS, stage_bounds=(1, 2, 3),
                                log_path=log_path), **overrides})
    model = build_model(arch, seed=0)
    result = train(model, split.train, split.valid, cfg)
    save_checkpoint(ckpt_path, model, result.speaker_map)
    h = hashlib.sha256()
    for path in (log_path, ckpt_path):
        with open(path, "rb") as fh:
            h.update(fh.read())
    for part, st in sorted(result.optimizer.state.items()):
        h.update(f"{part} t={st['t']}".encode())
        for moment in ("m", "v"):
            h.update(st[moment].tobytes())
    return h.hexdigest()


def clips(clips_per_class, min_frames, max_frames, seed):
    """A synthetic corpus, each clip cropped to a length drawn from [min_frames, max_frames]."""
    import numpy as np
    from stutterkit.data import SyntheticConfig, generate_synthetic

    records = generate_synthetic(SyntheticConfig(
        n_podcasts=4, clips_per_class=clips_per_class, frames=max_frames,
        alpha=2.0, beta=2.0, rho=0.6, sigma=0.3, seed=seed))
    rng = np.random.default_rng(seed)
    for rec in records:
        rec.features = rec.features[:, :rng.integers(min_frames, max_frames + 1)]
    return records


def wide_checkpoint(workdir) -> str:
    """Save a 256-channel model after one mtl epoch on 150-300-frame clips."""
    from stutterkit.checkpoint import save_checkpoint
    from stutterkit.data import split_within_podcast
    from stutterkit.model import ArchConfig, build_model
    from stutterkit.training import TrainConfig, train

    split = split_within_podcast(clips(12, 150, 300, seed=103), 0.15, seed=0)
    model = build_model(ArchConfig(n_podcasts=4, encoder_channels=(256,) * 5), seed=0)
    result = train(model, split.train, split.valid, TrainConfig(
        objective="mtl", lam=0.3, max_epochs=1, batch_size=32, lr=1e-3, seed=0))
    path = os.path.join(workdir, "wide.ckpt")
    save_checkpoint(path, model, result.speaker_map)
    return path


def eval_fingerprint(ckpt_path, records, workdir) -> str:
    from stutterkit import cli

    manifest = cli._write_feature_corpus(records, os.path.join(workdir, "eval"))
    report = os.path.join(workdir, "report.json")
    emb = os.path.join(workdir, "emb.csv")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        rc = cli.main(["eval", "--checkpoint", ckpt_path, "--manifest", manifest,
                       "--report", report, "--export-embeddings", emb])
    if rc != 0:
        raise RuntimeError(f"stutterkit eval exited {rc}")
    h = hashlib.sha256(printed.getvalue().replace(workdir, "<workdir>").encode())
    for path in (report, emb):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Print one sha256 per fingerprint run.")
    parser.add_argument("--blas-threads", type=int, default=1, metavar="N",
                        help="BLAS threads, 1 to os.cpu_count() (default 1)")
    threads = parser.parse_args(argv).blas_threads
    cpus = os.cpu_count() or 1
    if not 1 <= threads <= cpus:
        print(f"fingerprint: --blas-threads must be 1 to {cpus}, got {threads}", file=sys.stderr)
        return 1
    # numpy is first imported below, so BLAS starts with this many threads
    os.environ.update({var: str(threads) for var in THREAD_VARS})
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "stutterkit", "__init__.py")):
        print(f"fingerprint: no stutterkit sources under {src}; run from a checkout's root",
              file=sys.stderr)
        return 1
    sys.path.insert(0, src)
    from stutterkit.data import SyntheticConfig, generate_synthetic, split_within_podcast
    from stutterkit.model import ArchConfig

    records = generate_synthetic(SyntheticConfig(
        n_podcasts=4, clips_per_class=200, frames=20,
        alpha=2.0, beta=2.0, rho=0.6, sigma=0.3, seed=100))
    split = split_within_podcast(records, 0.15, seed=0)
    arch = ArchConfig(n_podcasts=4, encoder_channels=(32,) * 5, head_hidden=(32, 32))
    with tempfile.TemporaryDirectory() as workdir:
        for name, overrides in RUNS.items():
            print(f"{name:<22} {fingerprint(name, overrides, split, arch, workdir)}", flush=True)
        mixed = split_within_podcast(clips(200, 15, 25, seed=104), 0.15, seed=0)
        mixed = fingerprint("mtl-0.3-mixed", RUNS["mtl-0.3"], mixed, arch, workdir)
        print(f"{'mtl-0.3-mixed':<22} {mixed}", flush=True)
        ckpt = os.path.join(workdir, f"{EVAL_RUN}.ckpt")
        print(f"{'eval':<22} {eval_fingerprint(ckpt, clips(30, 15, 60, seed=101), workdir)}",
              flush=True)
        wide_dir = os.path.join(workdir, "wide")
        wide = eval_fingerprint(wide_checkpoint(workdir), clips(20, 150, 300, seed=102), wide_dir)
        print(f"{'eval-wide':<22} {wide}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
