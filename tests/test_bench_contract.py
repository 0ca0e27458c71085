"""The stutterkit names the benchmark's traced mode wraps must keep working.

perfbench/instrument.py replaces module attributes by name (make_batch,
compute_losses, dataset_stutter_loss, dataset_accuracy, nn.Adam.step, and
cli's evaluate_model, export_embeddings and load_checkpoint), a model's
layer and model methods (instrument_model), and reads make_batch's
`records`/`indices` arguments. A rename shows up here instead of as a crash
of `perfbench/run.py --trace 1`.
"""

from pathlib import Path

import numpy as np
import pytest

from conftest import make_tiny_arch
from stutterkit import cli, nn, training
from stutterkit.checkpoint import save_checkpoint
from stutterkit.data import SyntheticConfig, generate_synthetic, split_within_podcast
from stutterkit.model import PARTITIONS, build_model

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import instrument
    import spans

    return instrument, spans


def corpus():
    return generate_synthetic(SyntheticConfig(
        n_podcasts=3, clips_per_class=4, frames=12, n_mfcc=5, seed=0))


def test_instrument_and_restore(bench):
    instrument, spans = bench
    before = {name: getattr(training, name) for name in (
        "make_batch", "compute_losses", "dataset_stutter_loss", "dataset_accuracy")}
    tracer = spans.Tracer(False)
    try:
        instrument.instrument_modules(tracer)
        assert training.make_batch is not before["make_batch"]
    finally:
        tracer.restore()
    for name, fn in before.items():
        assert getattr(training, name) is fn, name


def test_instrument_model_and_restore(bench):
    instrument, spans = bench
    arch = make_tiny_arch()
    model = build_model(arch, seed=0)
    step = nn.Adam.step
    tracer = spans.Tracer(True)
    try:
        instrument.instrument_model(tracer, model)
        instrument.instrument_modules(tracer)
        x = np.random.default_rng(0).normal(size=(4, arch.n_mfcc, 12)).astype(np.float32)
        _, lf, ld, ls = model.forward(x, train=frozenset(PARTITIONS), rng=np.random.default_rng(1))
        model.backward(lf, ld, ls)
        nn.Adam().step(model.partitions)
        model.encode(x)
        model.snapshot()
    finally:
        tracer.restore()
    assert nn.Adam.step is step
    for method in instrument.MODEL_METHODS:
        assert method not in vars(model), method

    names = tracer.by_name()
    for span in [f"model.{method}" for method in instrument.MODEL_METHODS] + [
            "nn.adam.step", "nn.batchnorm.fwd", "nn.batchnorm.bwd", "nn.statpool.fwd",
            "nn.linear.bwd", *(f"nn.tdnn.l{i}.{d}" for i in range(1, 6) for d in ("fwd", "bwd"))]:
        assert names.get(span), span


def test_traced_train_and_eval_record_batches(bench, tmp_path):
    instrument, spans = bench
    records = corpus()
    split = split_within_podcast(records, 0.25, seed=0)
    manifest = cli._write_feature_corpus(corpus(), str(tmp_path / "feats"))
    ckpt = str(tmp_path / "model.ckpt")
    model = build_model(make_tiny_arch(), seed=0)
    save_checkpoint(ckpt, model)

    tracer = spans.Tracer(True)
    try:
        instrument.instrument_modules(tracer)
        training.train(model, split.train, split.valid,
                       training.TrainConfig(objective="mtl", max_epochs=1, batch_size=8))
        training.dataset_stutter_loss(model, records)
        training.dataset_accuracy(model, records)
        assert tracer.call("cli.eval", cli.main, [
            "eval", "--checkpoint", ckpt, "--manifest", manifest,
            "--export-embeddings", str(tmp_path / "emb.csv")]) == 0
    finally:
        tracer.restore()

    names = tracer.by_name()
    for span in ("training.make_batch", "training.compute_losses",
                 "training.dataset_stutter_loss", "training.dataset_accuracy",
                 "checkpoint.load", "evaluate.evaluate_model", "evaluate.export_embeddings",
                 "nn.tdnn.l1.fwd"):
        assert names.get(span), span
    # cli eval stacks every clip once, inside evaluate_model; the export
    # writes that pass's embeddings and forwards nothing itself.
    batches = [i for i in names["training.make_batch"] if tracer.ancestor(i, {"cli.eval"}) >= 0]
    assert sum(tracer.attrs[i]["clips"] for i in batches) == len(records)
    assert all(tracer.ancestor(i, {"evaluate.evaluate_model"}) >= 0 for i in batches)
