"""The benchmark's workloads: what each sets up, times, checks and reports.

A workload's timed phase is a loop of identical units; every unit starts
from the same state. Units record samples (an epoch, an eval pass, a CLI
call) in reference seconds (see yardstick.py), and `summary` reduces them
with medians, so a burst of load from outside the process moves a minority
of samples rather than the result.
Counts are per unit, so they do not depend on how many units fit a run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import statistics
import time
import wave
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from instrument import instrument_model
from yardstick import Stopwatch
from stutterkit import checkpoint, cli, data, evaluate, training
from stutterkit.model import ArchConfig, build_model


@dataclass
class Tally:
    """Operations attempted and failed, and the names of failed checks."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, ops: int, what: str):
        self.attempted += ops
        if not ok:
            self.failed += ops
            self.failures.append(what)


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def _csv_shape(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return len(rows) - 1, len(rows[0]) - 3 if rows else 0


@dataclass(frozen=True)
class TrainSpec:
    corpus: dict  # SyntheticConfig fields except the seed
    valid_fraction: float
    arch: dict
    objectives: tuple
    epochs: int
    train: dict  # TrainConfig fields except objective, seed and epochs
    eval_reps: int  # valid-set eval passes after each train() call


class TrainWorkload:
    """train() once per objective, from the same initial weights each unit."""

    def __init__(self, spec: TrainSpec, seed: int, work_dir: str, watch: Stopwatch):
        self.spec = spec
        self.seed = seed
        self.work_dir = work_dir
        self.watch = watch
        self.trained = {}
        self.histories = {}
        self.reports = {}
        self.clear()

    def clear(self):
        self.units = 0
        self.epochs = []  # (objective, stage, seconds)
        self.callback_s = 0.0  # wall time of on_epoch, inside train()
        self.eval_seconds = []

    # -- set-up: the program calls that setup_s times ------------------------
    def setup(self, tracer):
        spec = self.spec
        self.records = tracer.call(
            "data.generate_synthetic", data.generate_synthetic,
            data.SyntheticConfig(**spec.corpus, seed=self.seed))
        self.split = tracer.call(
            "data.split", data.split_within_podcast,
            self.records, spec.valid_fraction, seed=self.seed)
        self.model = tracer.call(
            "model.build", build_model, ArchConfig(**spec.arch), seed=self.seed)
        path = os.path.join(self.work_dir, "init.ckpt")
        tracer.call("checkpoint.save", checkpoint.save_checkpoint, path, self.model)

    def prepare(self):
        self.initial = self.model.snapshot()
        n, bs = len(self.split.train), self.spec.train["batch_size"]
        dropped = 1 if n % bs == 1 and n > 1 else 0  # train() skips size-1 batches
        self.clips_per_epoch = n - dropped
        self.steps_per_epoch = math.ceil(n / bs) - dropped
        self.valid_clips = len(self.split.valid)

    def instrument(self, tracer):
        instrument_model(tracer, self.model)

    def config(self, objective):
        return training.TrainConfig(
            objective=objective, seed=self.seed, max_epochs=self.spec.epochs,
            patience=self.spec.epochs, **self.spec.train)

    # -- timed phase ----------------------------------------------------------
    def unit(self, tracer, tally: Tally):
        steps = self.steps_per_epoch * self.spec.epochs
        for objective in self.spec.objectives:
            self.model.load_snapshot(self.initial)

            def on_epoch(rec, model):
                t0 = time.perf_counter()
                self.epochs.append((objective, rec.stage, self.watch.lap()))
                self.callback_s += time.perf_counter() - t0

            self.watch.start()
            result = tracer.call("training.train", training.train, self.model,
                                 self.split.train, self.split.valid,
                                 self.config(objective), callback=on_epoch)
            hist = result.history
            ok = len(hist) == self.spec.epochs and all(
                _finite(r.l_fluent, r.l_disfluent, r.l_speaker, r.l_total,
                        r.valid_stutter_loss) for r in hist)
            tally.check(ok, steps, f"{objective}: {len(hist)} epochs or non-finite loss")
            self.histories[objective] = hist
            self.trained[objective] = self.model.snapshot()
            self._eval(tracer, tally, objective)
        self.units += 1

    def _eval(self, tracer, tally, objective):
        """evaluate_model + export_embeddings over the valid set, as cli eval does."""
        valid = self.split.valid
        path = os.path.join(self.work_dir, "valid_emb.csv")
        for _ in range(self.spec.eval_reps):
            self.watch.start()
            report = tracer.call("evaluate.evaluate_model", evaluate.evaluate_model,
                                 self.model, valid)
            tracer.call("evaluate.export_embeddings", evaluate.export_embeddings,
                        self.model, valid, path)
            self.eval_seconds.append(self.watch.lap())
            rows, dims = _csv_shape(path)
            tally.check(
                int(report.confusion.sum()) == len(valid) and rows == len(valid)
                and dims == self.model.arch.embedding_dim,
                len(valid), f"{objective}: eval report or embeddings shape")
        self.reports[objective] = report

    def summary(self) -> dict:
        """Rates over the timed phase.

        The time of one train() call is estimated as the sum over its epochs
        of the median time of epochs with the same objective and stage across
        the run.
        """
        groups = defaultdict(list)
        for objective, stage, seconds in self.epochs:
            groups[objective, stage].append(seconds)
        seconds = defaultdict(float)
        for (objective, _), times in groups.items():
            seconds[objective] += len(times) / self.units * statistics.median(times)
        clips = self.clips_per_epoch * self.spec.epochs
        return {
            "clips_per_s": clips * len(seconds) / sum(seconds.values()),
            "eval_clips_per_s": len(self.split.valid) / statistics.median(self.eval_seconds),
            "objective_clips_per_s": {o: clips / t for o, t in seconds.items()},
        }

    # -- after the timed phase ------------------------------------------------
    def post(self, tracer, tally: Tally, traced: bool) -> dict:
        """Checkpoint round trip, final-epoch quality and the quality table."""
        # The last trained model must survive a checkpoint round trip bit-exactly.
        path = os.path.join(self.work_dir, "trained.ckpt")
        tracer.call("checkpoint.save", checkpoint.save_checkpoint, path, self.model)
        loaded, _ = tracer.call("checkpoint.load", checkpoint.load_checkpoint, path)
        before, after = self.model.state_arrays(), loaded.state_arrays()
        same = before.keys() == after.keys() and all(
            np.array_equal(before[k], after[k]) for k in before)
        tally.check(same, 1, "checkpoint round trip changed the state")
        return {
            "checkpoint_bytes": os.path.getsize(path),
            "valid_acc": statistics.fmean(h[-1].valid_acc for h in self.histories.values()),
            "valid_stutter_loss": statistics.fmean(
                h[-1].valid_stutter_loss for h in self.histories.values()),
            "quality": self._quality(tracer),
        }

    def _quality(self, tracer) -> dict:
        """Per objective: valid accuracy and the speaker probe on every record."""
        podcasts = [r.podcast_id for r in self.records]
        path = os.path.join(self.work_dir, "all_emb.csv")
        table = {}
        for objective, state in self.trained.items():
            self.model.load_snapshot(state)
            emb = tracer.call("quality.export_embeddings", evaluate.export_embeddings,
                              self.model, self.records, path)
            probe = tracer.call("quality.speaker_probe", evaluate.speaker_probe,
                                emb, podcasts, seed=0)
            table[objective] = {
                "valid_acc": self.reports[objective].total_accuracy,
                "probe_acc": probe.accuracy,
            }
        return table


# -- infer-audio ----------------------------------------------------------------

SAMPLE_RATE = 16000


def _synth_wav(path, rng, podcast: int, label: int, seconds: float):
    """Harmonic tone per podcast, amplitude-modulated per class, plus noise."""
    n = int(seconds * SAMPLE_RATE)
    t = np.arange(n) / SAMPLE_RATE
    f0 = 100.0 + 35.0 * podcast
    voice = sum(np.sin(2 * np.pi * h * f0 * t) / h for h in range(1, 6))
    envelope = 0.6 + 0.4 * np.sin(2 * np.pi * (1.5 + label) * t)
    x = 0.25 * voice * envelope + 0.02 * rng.standard_normal(n)
    pcm = np.clip(x / np.abs(x).max() * 0.8 * 32767, -32768, 32767).astype("<i2")
    with wave.open(path, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(pcm.tobytes())


@dataclass(frozen=True)
class InferSpec:
    clips_per_class: int
    seconds: tuple  # clip duration range, uniform
    arch: dict


class InferWorkload:
    """`stutterkit features` then `stutterkit eval`, in process, per unit."""

    def __init__(self, spec: InferSpec, seed: int, work_dir: str, watch: Stopwatch):
        self.spec = spec
        self.seed = seed
        self.work_dir = work_dir
        self.watch = watch
        self.valid_clips = 0
        self.epochs = []
        self.clear()

    def clear(self):
        self.units = 0
        self.seconds = defaultdict(list)

    def setup(self, tracer):
        # The synthetic corpus supplies clip ids, podcasts and labels; the
        # audio itself is written by prepare(), outside setup_s.
        self.records = tracer.call(
            "data.generate_synthetic", data.generate_synthetic,
            data.SyntheticConfig(n_podcasts=self.spec.arch["n_podcasts"],
                                 clips_per_class=self.spec.clips_per_class, seed=self.seed))
        model = tracer.call(
            "model.build", build_model, ArchConfig(**self.spec.arch), seed=self.seed)
        self.ckpt = os.path.join(self.work_dir, "model.ckpt")
        smap = training.speaker_index_map(self.records)
        tracer.call("checkpoint.save", checkpoint.save_checkpoint, self.ckpt, model,
                    speaker_map=smap)

    def prepare(self):
        rng = np.random.default_rng([self.seed, 1])
        wav_dir = os.path.join(self.work_dir, "wav")
        os.makedirs(wav_dir, exist_ok=True)
        lo, hi = self.spec.seconds
        for rec in self.records:
            rec.audio_path = os.path.join(wav_dir, f"{rec.clip_id}.wav")
            rec.features = None
            _synth_wav(rec.audio_path, rng, int(rec.podcast_id[3:]), int(rec.label),
                       rng.uniform(lo, hi))
        self.audio_manifest = os.path.join(self.work_dir, "audio.csv")
        data.write_manifest(self.audio_manifest, self.records)
        self.feat_dir = os.path.join(self.work_dir, "feats")
        self.report = os.path.join(self.work_dir, "report.json")
        self.emb = os.path.join(self.work_dir, "emb.csv")
        self.n = len(self.records)
        self.embedding_dim = ArchConfig(**self.spec.arch).embedding_dim

    def instrument(self, tracer):
        pass  # cli builds the model; instrument_modules wraps it on load

    def unit(self, tracer, tally: Tally):
        feat_manifest = os.path.join(self.feat_dir, "manifest.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            self.watch.start()
            rc_features = tracer.call("cli.features", cli.main, [
                "features", "--manifest", self.audio_manifest, "--out-dir", self.feat_dir])
            features_s = self.watch.lap()
            rc_eval = tracer.call("cli.eval", cli.main, [
                "eval", "--checkpoint", self.ckpt, "--manifest", feat_manifest,
                "--report", self.report, "--export-embeddings", self.emb])
            eval_s = self.watch.lap()
        tally.check(rc_features == 0, self.n, f"features exited {rc_features}")
        ok = rc_eval == 0
        if ok:
            with open(self.report) as fh:
                total = sum(map(sum, json.load(fh)["confusion"]))
            rows, dims = _csv_shape(self.emb)
            ok = total == self.n and rows == self.n and dims == self.embedding_dim
        tally.check(ok, self.n, f"eval exited {rc_eval}, or report/embeddings shape")
        self.seconds["clips_per_s"].append(features_s + eval_s)
        self.seconds["features_clips_per_s"].append(features_s)
        self.seconds["eval_clips_per_s"].append(eval_s)
        self.units += 1

    def summary(self) -> dict:
        return {k: self.n / statistics.median(v) for k, v in self.seconds.items()}

    def post(self, tracer, tally: Tally, traced: bool) -> dict:
        """A second export of the same records must match the CLI's byte for byte."""
        records = data.load_manifest(os.path.join(self.feat_dir, "manifest.csv"))
        model, _ = checkpoint.load_checkpoint(self.ckpt)
        again = os.path.join(self.work_dir, "emb_again.csv")
        evaluate.export_embeddings(model, records, again)
        with open(self.emb, "rb") as a, open(again, "rb") as b:
            tally.check(a.read() == b.read(), self.n, "re-exported embeddings differ")
        out = {"checkpoint_bytes": os.path.getsize(self.ckpt)}
        if traced:
            out["batch_variant_clips"] = self._batch_variant(model, records)
        return out

    def _batch_variant(self, model, records) -> int:
        """Clips whose exported embedding differs from a one-clip encode."""
        exported, clip_ids, _, _ = evaluate.read_embeddings(self.emb)
        row = {c: i for i, c in enumerate(clip_ids)}
        variant = 0
        for rec in records:
            alone = model.encode(data.features_of(rec)[None])[0]
            if not np.allclose(alone, exported[row[rec.clip_id]], rtol=1e-4, atol=1e-5):
                variant += 1
        return variant


# Why each workload exists is in README.md; the sizes below are its contract.
WORKLOADS = {
    "train-bench": lambda seed, work, watch: TrainWorkload(TrainSpec(
        corpus=dict(n_podcasts=4, clips_per_class=200, frames=20,
                    alpha=2.0, beta=2.0, rho=0.6, sigma=0.3),
        valid_fraction=0.15,
        arch=dict(n_podcasts=4, encoder_channels=(32,) * 5, head_hidden=(32, 32)),
        objectives=("baseline", "mtl", "adv"),
        epochs=16,
        train=dict(lam=0.3, batch_size=32, lr=3e-3, stage_bounds=(5, 10, 15)),
        eval_reps=15,
    ), seed, work, watch),
    "train-paper": lambda seed, work, watch: TrainWorkload(TrainSpec(
        # 52 clips; the 0.15 within-podcast split leaves 32 train (one full
        # batch) and 20 valid.
        corpus=dict(n_podcasts=4, frames=300, alpha=2.0, beta=2.0, rho=0.6, sigma=0.3,
                    clips_per_class={"Fluent": 12, "Repetition": 12, "Prolongation": 12,
                                     "Block": 8, "Interjection": 8}),
        valid_fraction=0.15,
        arch=dict(n_podcasts=4, encoder_channels=(512,) * 5),
        objectives=("mtl",),
        epochs=1,
        train=dict(lam=0.3, batch_size=32, lr=1e-3),
        eval_reps=4,
    ), seed, work, watch),
    "infer-audio": lambda seed, work, watch: InferWorkload(InferSpec(
        clips_per_class=20,
        seconds=(2.0, 3.0),
        arch=dict(n_podcasts=4, encoder_channels=(512,) * 5),
    ), seed, work, watch),
}
