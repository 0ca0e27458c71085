"""Schedules, loss composition, early stopping, and the training loop."""

import csv
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import make_tiny_arch, predict
from stutterkit import data, nn, training
from stutterkit.data import ClipArray, ClipRecord, SyntheticConfig, generate_synthetic, \
    load_manifest, split_within_podcast, write_manifest
from stutterkit.errors import DataError, EmptyBatch, InputTooShort, InvalidConfig, NumericError
from stutterkit.evaluate import confusion, evaluate_model, export_embeddings, read_embeddings
from stutterkit.features import write_fmat
from stutterkit.model import ArchConfig, build_model, two_branch
from stutterkit.training import (
    LOG_COLUMNS,
    EarlyStopper,
    TrainConfig,
    compute_losses,
    dataset_accuracy,
    dataset_stutter_loss,
    descended_loss,
    early_stop_active,
    infer,
    lambda_at,
    loss_total,
    make_batch,
    speaker_index_map,
    stage_at,
    train,
    trainable_partitions,
)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# make_batch on a float32 ClipArray: asked for float64, with another speaker map, and with a
# speaker map when the array was built without one; prints each error's class name.
MISMATCHED_CLIP_ARRAYS = """
import numpy as np
from stutterkit.data import ClipArray, SyntheticConfig, generate_synthetic
from stutterkit.errors import DataError
from stutterkit.training import make_batch, speaker_index_map
assert not __debug__
records = generate_synthetic(SyntheticConfig(n_podcasts=3, clips_per_class=2, frames=12))
smap = speaker_index_map(records)
other = {pid: 2 - i for pid, i in smap.items()}
for array, kwargs in ((ClipArray(records, np.float32, smap), dict(dtype=np.float64)),
                      (ClipArray(records, np.float32, smap), dict(speaker_map=other)),
                      (ClipArray(records, np.float32), dict(speaker_map=smap))):
    try:
        make_batch(array, [0, 1], **kwargs)
    except DataError as exc:
        print(type(exc).__name__)
"""


def tiny_corpus(n_podcasts=3, clips_per_class=6, seed=0, sigma=0.1):
    cfg = SyntheticConfig(
        n_podcasts=n_podcasts,
        clips_per_class=clips_per_class,
        frames=12,
        n_mfcc=5,
        sigma=sigma,
        seed=seed,
    )
    return generate_synthetic(cfg)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"objective": "gan"},
            {"lambda_schedule": "linear"},
            {"lam": -0.1},
            {"lam": 1.5},
            {"max_epochs": 0},
            {"batch_size": 0},
            {"patience": 0},
            {"lr": 0.0},
            {"min_delta": -1e-9},
            {"stage_bounds": (0, 1, 2)},
            {"stage_bounds": (5, 5, 10)},
            {"stage_bounds": (1, 2)},
            {"stage_bounds": (1, 2, 3, 4)},
            {"lr": float("nan")},
            {"lr": float("inf")},
            {"min_delta": float("nan")},
            {"min_delta": float("inf")},
            {"gamma": float("nan")},
            {"gamma": float("inf")},
        ],
    )
    def test_bad_config_rejected(self, kw):
        with pytest.raises(InvalidConfig):
            TrainConfig(**kw).validate()

    def test_defaults_validate(self):
        TrainConfig().validate()


class TestStageSchedule:
    def test_non_adversarial_is_single_stage(self):
        assert stage_at(TrainConfig(objective="baseline"), 0) == "baseline"
        assert stage_at(TrainConfig(objective="mtl"), 99) == "mtl"

    @pytest.mark.parametrize(
        "epoch,stage",
        [
            (0, "speaker_only"),
            (24, "speaker_only"),
            (25, "stutter_only"),
            (49, "stutter_only"),
            (50, "joint_grl"),
            (74, "joint_grl"),
            (75, "recovery"),
            (200, "recovery"),
        ],
    )
    def test_adversarial_stage_boundaries(self, epoch, stage):
        cfg = TrainConfig(objective="adv", stage_bounds=(25, 50, 75))
        assert stage_at(cfg, epoch) == stage

    def test_partitions_per_stage(self):
        cfg = TrainConfig(objective="adv")
        assert trainable_partitions(cfg, "speaker_only") == {"encoder", "speaker"}
        assert trainable_partitions(cfg, "stutter_only") == {"encoder", "fluent", "disfluent"}
        assert trainable_partitions(cfg, "joint_grl") == {
            "encoder", "fluent", "disfluent", "speaker"
        }
        assert trainable_partitions(cfg, "recovery") == {"fluent", "disfluent"}
        frozen_enc = TrainConfig(objective="adv", stage1_trains_encoder=False)
        assert trainable_partitions(frozen_enc, "speaker_only") == {"speaker"}
        with pytest.raises(InvalidConfig):
            trainable_partitions(cfg, "warmup")

    def test_early_stop_arming(self):
        adv = TrainConfig(objective="adv")
        assert not early_stop_active(adv, "speaker_only")
        assert not early_stop_active(adv, "joint_grl")
        assert early_stop_active(adv, "recovery")
        assert early_stop_active(TrainConfig(objective="baseline"), "baseline")
        assert early_stop_active(TrainConfig(objective="mtl"), "mtl")


class TestLambdaSchedule:
    def test_baseline_pins_zero(self):
        cfg = TrainConfig(objective="baseline", lam=0.7)
        assert lambda_at(cfg, 5) == 0.0

    def test_fixed(self):
        cfg = TrainConfig(objective="mtl", lam=0.35)
        assert lambda_at(cfg, 0) == lambda_at(cfg, 50) == 0.35

    def test_decay10_hand_values(self):
        cfg = TrainConfig(objective="mtl", lambda_schedule="decay10")
        assert lambda_at(cfg, 0) == 1.0
        assert lambda_at(cfg, 1) == pytest.approx(0.1, abs=1e-15)
        assert lambda_at(cfg, 3) == pytest.approx(1e-3, abs=1e-15)

    def test_sigmoid_ramp_hand_values(self):
        cfg = TrainConfig(
            objective="adv", lambda_schedule="sigmoid_ramp", gamma=10.0, max_epochs=100
        )
        assert lambda_at(cfg, 0) == 0.0
        # p = 0.5: 2 / (1 + exp(-5)) - 1 = tanh(2.5)
        assert lambda_at(cfg, 50) == pytest.approx(np.tanh(2.5), abs=1e-12)
        assert lambda_at(cfg, 100) == pytest.approx(np.tanh(5.0), abs=1e-12)

    def test_sigmoid_sign_variant_decays_negative(self):
        cfg = TrainConfig(
            objective="adv",
            lambda_schedule="sigmoid_ramp",
            gamma=10.0,
            max_epochs=100,
            sigmoid_paper_sign=True,
        )
        assert lambda_at(cfg, 50) == pytest.approx(-np.tanh(2.5), abs=1e-12)

    @pytest.mark.parametrize("schedule", ["fixed", "decay10", "sigmoid_ramp"])
    def test_is_a_python_float(self, schedule):
        cfg = TrainConfig(objective="mtl", lambda_schedule=schedule, max_epochs=10)
        assert all(type(lambda_at(cfg, epoch)) is float for epoch in range(3))

    @pytest.mark.parametrize("objective", ["mtl", "adv"])
    def test_encoder_backward_stays_float32(self, monkeypatch, objective):
        """A numpy-scalar lambda would promote the head gradients, and the encoder's, to float64."""
        dtypes = set()
        tdnn_backward = nn.TdnnLayer.backward

        def spy(self, dy, *args, **kwargs):
            dtypes.add(dy.dtype)
            return tdnn_backward(self, dy, *args, **kwargs)

        monkeypatch.setattr(nn.TdnnLayer, "backward", spy)
        stages = []
        records = tiny_corpus()
        cfg = TrainConfig(objective=objective, lambda_schedule="sigmoid_ramp", max_epochs=4,
                          batch_size=8, lr=1e-2, stage_bounds=(1, 2, 3))
        train(build_model(make_tiny_arch(), seed=0), records[::2], records[1::2], cfg,
              callback=lambda rec, model: stages.append(rec.stage))
        assert objective == "mtl" or "joint_grl" in stages
        assert dtypes == {np.dtype(np.float32)}


class TestComputeLosses:
    def test_fluent_binary_hand_value(self):
        lf = np.zeros((1, 2))
        ld = np.zeros((1, 4))
        out = compute_losses(lf, ld, None, y_class=[0])
        assert out.l_fluent == pytest.approx(np.log(2.0), abs=1e-12)
        assert np.allclose(out.dlf, [[-0.5, 0.5]])

    def test_disfluent_mask_and_average(self):
        # three clips: fluent, repetition, block; uniform logits give ln(4)
        lf = np.zeros((3, 2))
        ld = np.zeros((3, 4))
        out = compute_losses(lf, ld, None, y_class=[0, 1, 3])
        assert out.n == 3 and out.n_disfluent == 2
        assert out.l_disfluent == pytest.approx(np.log(4.0), abs=1e-12)
        assert np.array_equal(out.dld[0], np.zeros(4))
        # each disfluent row is (softmax - onehot) / n_disfluent
        expect = (np.full(4, 0.25) - np.eye(4)[0]) / 2
        assert np.allclose(out.dld[1], expect, atol=1e-12)

    def test_all_fluent_batch_zeroes_disfluent_loss(self):
        out = compute_losses(np.zeros((2, 2)), np.zeros((2, 4)), None, y_class=[0, 0])
        assert out.l_disfluent == 0.0
        assert out.n_disfluent == 0
        assert np.array_equal(out.dld, np.zeros((2, 4)))

    def test_speaker_loss_optional(self):
        lf, ld = np.zeros((2, 2)), np.zeros((2, 4))
        no_spk = compute_losses(lf, ld, None, y_class=[0, 1])
        assert no_spk.l_speaker == 0.0 and no_spk.dls is None
        ls = np.zeros((2, 3))
        with_spk = compute_losses(lf, ld, ls, y_class=[0, 1], y_speaker=[0, 2])
        assert with_spk.l_speaker == pytest.approx(np.log(3.0), abs=1e-12)
        assert with_spk.dls.shape == (2, 3)

    def test_empty_batch(self):
        with pytest.raises(EmptyBatch):
            compute_losses(np.zeros((0, 2)), np.zeros((0, 4)), None, y_class=[])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_means_bitwise_equal_to_np_mean(self, rng, dtype):
        for n in (1, 2, 7, 32, 33):
            lf, ld, ls = (rng.normal(scale=3.0, size=(n, k)).astype(dtype) for k in (2, 4, 5))
            y = rng.integers(0, 5, size=n)
            ys = rng.integers(0, 5, size=n)
            out = compute_losses(lf, ld, ls, y, ys)
            dis = np.flatnonzero(y != 0)
            assert out.l_fluent == float(nn.softmax_cross_entropy(lf, (y != 0) * 1)[0].mean())
            assert out.l_speaker == float(nn.softmax_cross_entropy(ls, ys)[0].mean())
            if dis.size:
                want = float(nn.softmax_cross_entropy(ld[dis], y[dis] - 1)[0].mean())
                assert out.l_disfluent == want


class TestLossTotal:
    def test_known_combination(self):
        assert loss_total("mtl", 0.3, 1.2, 0.8, 1.0) == pytest.approx(0.7 * 2.0 + 0.3 * 1.0)

    def test_stage_shapes(self):
        assert loss_total("baseline", 0.5, 1.0, 0.5, 9.0) == 1.5
        assert loss_total("stutter_only", 0.5, 1.0, 0.5, 9.0) == 1.5
        assert loss_total("recovery", 0.5, 1.0, 0.5, 9.0) == 1.5
        assert loss_total("speaker_only", 0.5, 1.0, 0.5, 9.0) == 9.0
        assert loss_total("joint_grl", 0.25, 1.0, 0.5, 2.0) == pytest.approx(1.5 - 0.5)


class TestEarlyStopper:
    def test_improvement_resets_patience(self):
        s = EarlyStopper(patience=2, min_delta=1e-6)
        assert s.update(1.0)
        assert not s.update(1.0)  # no improvement
        assert s.update(0.9)  # reset
        assert not s.should_stop
        assert not s.update(0.9)
        assert not s.update(0.9)
        assert s.should_stop

    def test_min_delta_boundary(self):
        s = EarlyStopper(patience=1, min_delta=0.1)
        s.update(1.0)
        assert not s.update(0.9)  # exactly min_delta is not an improvement
        assert s.update(0.85)


class TestBatching:
    def test_speaker_map_is_sorted(self):
        records = tiny_corpus(n_podcasts=3)
        assert speaker_index_map(records) == {"pod0": 0, "pod1": 1, "pod2": 2}

    def test_make_batch_crops_to_shortest(self):
        records = tiny_corpus()
        records[0].features = records[0].features[:, :9]
        x, y, ys = make_batch(records, [0, 1, 2], speaker_map=speaker_index_map(records))
        assert x.shape == (3, 5, 9)
        assert x.dtype == np.float32
        assert y.shape == (3,) and ys.shape == (3,)
        assert ys[0] == 0


def stacked(records, indices, speaker_map=None, dtype=np.float32):
    """Per-clip oracle: crop each clip to the batch's shortest, stack, convert."""
    feats = [records[i].features for i in indices]
    t = min(f.shape[1] for f in feats)
    x = np.stack([f[:, :t] for f in feats]).astype(dtype)
    y = np.array([int(records[i].label) for i in indices])
    ys = None if speaker_map is None else np.array(
        [speaker_map[records[i].podcast_id] for i in indices])
    return x, y, ys


def assert_same_batch(got, want):
    (x, y, ys), (wx, wy, wys) = got, want
    assert x.dtype == wx.dtype and x.shape == wx.shape and x.flags.c_contiguous
    assert x.tobytes() == wx.tobytes()
    assert np.array_equal(y, wy) and y.dtype == np.intp
    assert (ys is None and wys is None) or (np.array_equal(ys, wys) and ys.dtype == np.intp)


class TestGather:
    @pytest.mark.parametrize("mixed", [False, True], ids=["equal", "mixed"])
    @pytest.mark.parametrize("shuffled", [False, True], ids=["range", "shuffled"])
    @pytest.mark.parametrize("speakers", [False, True], ids=["no-speakers", "speakers"])
    def test_gather_equals_per_clip_stacking(self, monkeypatch, mixed, shuffled, speakers):
        records = mixed_length_corpus() if mixed else tiny_corpus()
        records = records[1::2] + records[::2]  # rows out of corpus order
        smap = speaker_index_map(records) if speakers else None
        wrapped = ClipArray(records, np.float32, smap)
        corpus = records[0].features.base
        # equal-length rows are gathered in place; cropped views are copied once
        assert (wrapped.base is corpus) is not mixed
        n = len(records)
        order = np.random.default_rng(1).permutation(n) if shuffled else range(n)
        batches = [order[s:s + 7] for s in range(0, n, 7)]
        want = [stacked(records, b, smap) for b in batches]
        monkeypatch.setattr(training, "features_of", None)  # a per-clip fallback would fail
        for b, w in zip(batches, want):
            assert_same_batch(make_batch(wrapped, b, speaker_map=smap), w)

    def test_float64_and_two_corpora_take_the_copy_path(self):
        one, two = tiny_corpus(seed=0), tiny_corpus(seed=1)
        for records, dtype in ((one, np.float64), (one[:9] + two[9:], np.float32)):
            wrapped = ClipArray(records, dtype)
            assert wrapped.base.dtype == dtype
            assert not any(np.shares_memory(wrapped.base, r.features) for r in records)
            idx = np.random.default_rng(0).permutation(len(records))
            assert_same_batch(make_batch(wrapped, idx, dtype=dtype),
                              stacked(records, idx, dtype=dtype))

    def test_a_view_that_is_not_a_row_is_copied(self):
        records = tiny_corpus()
        corpus = records[0].features.base
        n_mfcc, frames = records[0].features.shape
        off_row = corpus.reshape(-1)[1:1 + n_mfcc * frames].reshape(n_mfcc, frames)
        assert off_row.base is corpus and off_row.strides == records[0].features.strides
        records[3].features = off_row
        wrapped = ClipArray(records)
        assert wrapped.base is not corpus
        assert_same_batch(make_batch(wrapped, [3, 0]), stacked(records, [3, 0]))
        # a broadcast matrix's base is 0-d, so it is no row of anything either
        records[0].features = np.broadcast_to(np.float32(0.5), (n_mfcc, frames))
        assert records[0].features.base.ndim == 0
        assert_same_batch(make_batch(ClipArray(records), [0, 3]), stacked(records, [0, 3]))

    def test_manifest_record_loads_when_a_batch_needs_it(self, tmp_path, monkeypatch):
        records = tiny_corpus()[:6]
        loaded = on_disk(records, tmp_path)
        reads = []
        read = data.read_fmat
        monkeypatch.setattr(data, "read_fmat", lambda path: reads.append(path) or read(path))
        assert_same_batch(make_batch(loaded, [4, 1]), stacked(records, [4, 1]))
        assert reads == [records[4].feature_path, records[1].feature_path]
        assert [r.features is not None for r in loaded] == [0, 1, 0, 0, 1, 0]

    def test_feature_files_are_read_into_rows_and_not_kept(self, tmp_path, monkeypatch):
        records = mixed_length_corpus()[:10]
        loaded = on_disk(records, tmp_path)
        reads = []
        read = data.read_fmat

        def counting(path, shape_only=False):
            reads.append((path, shape_only))
            return read(path, shape_only)

        monkeypatch.setattr(data, "read_fmat", counting)
        wrapped = ClipArray(loaded)
        paths = [r.feature_path for r in records]
        # headers first, to size the array, then each payload once, straight into its row
        assert reads == [(p, True) for p in paths] + [(p, False) for p in paths]
        assert all(r.features is None for r in loaded)
        assert wrapped.base.shape == (10, 5, max(r.features.shape[1] for r in records))
        monkeypatch.setattr(training, "features_of", None)
        idx = np.random.default_rng(2).permutation(10)
        for b in (idx[:4], idx[4:]):
            assert_same_batch(make_batch(wrapped, b), stacked(records, b))

    def test_a_record_without_features_or_file_is_refused(self):
        with pytest.raises(DataError, match="carries no features"):
            ClipArray(tiny_corpus()[:2] + [ClipRecord("bare", "pod0", 0)])

    def test_a_mismatched_clip_array_is_refused_under_python_O(self):
        """A data error (the CLI exits 2), raised by a check that -O, unlike an assert, keeps."""
        done = subprocess.run([sys.executable, "-O", "-c", MISMATCHED_CLIP_ARRAYS],
                              cwd=os.path.dirname(__file__), capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": SRC})
        assert done.stdout.split() == ["DataError"] * 3, done.stderr

    def test_train_on_feature_files_matches_in_memory(self, tmp_path):
        records = tiny_corpus()
        loaded = on_disk(records, tmp_path)
        cfg = TrainConfig(objective="mtl", max_epochs=3, batch_size=8, seed=0)
        histories = []
        for recs in (records, loaded):
            split = split_within_podcast(recs, 0.25, seed=0)
            result = train(build_model(make_tiny_arch(), seed=0), split.train, split.valid, cfg)
            histories.append([rec.row() for rec in result.history])
        assert histories[0] == histories[1]
        assert all(r.features is None for r in loaded)

    def test_train_gathers_a_synthetic_split_in_place(self, monkeypatch):
        records = tiny_corpus()
        corpus = records[0].features.base
        split = split_within_podcast(records, 0.25, seed=0)
        bases = []
        make = training.make_batch

        def spy(records, indices, *args, **kwargs):
            bases.append(records.base)
            return make(records, indices, *args, **kwargs)

        monkeypatch.setattr(training, "make_batch", spy)
        monkeypatch.setattr(training, "features_of", None)  # infer reads the wrapper's lengths
        cfg = TrainConfig(objective="mtl", max_epochs=2, batch_size=8, seed=0)
        train(build_model(make_tiny_arch(), seed=0), split.train, split.valid, cfg)
        assert len(bases) > 4 and all(b is corpus for b in bases)


class TestDatasetMetrics:
    def test_stutter_loss_matches_direct_computation(self, rng):
        records = tiny_corpus()
        arch = make_tiny_arch()
        model = build_model(arch, seed=0)
        got = dataset_stutter_loss(model, records, batch_size=7)

        x, y, _ = make_batch(records, range(len(records)))
        _, lf, ld, _ = model.forward(x)
        losses_f, _ = nn.softmax_cross_entropy(lf, (y != 0).astype(np.intp))
        dis = np.flatnonzero(y != 0)
        losses_d, _ = nn.softmax_cross_entropy(ld[dis], y[dis] - 1)
        want = float(losses_f.mean()) + float(losses_d.mean())
        assert got == pytest.approx(want, rel=1e-6)

    def test_accuracy_matches_predictions(self):
        records = tiny_corpus()
        model = build_model(make_tiny_arch(), seed=0)
        got = dataset_accuracy(model, records, batch_size=8)
        x, y, _ = make_batch(records, range(len(records)))
        want = float((predict(model, x) == y).mean())
        assert got == pytest.approx(want, abs=1e-12)


def on_disk(records, tmp_path):
    """records written as FMAT files and a manifest, loaded back without their features."""
    for r in records:
        r.feature_path = str(tmp_path / f"{r.clip_id}.fmat")
        write_fmat(r.feature_path, r.features)
    write_manifest(tmp_path / "m.csv", records)
    return load_manifest(tmp_path / "m.csv")


def mixed_length_corpus():
    """60 clips cropped to 9..16 frames, fluent clips first (see generate_synthetic)."""
    records = generate_synthetic(SyntheticConfig(
        n_podcasts=3, clips_per_class=12, frames=16, n_mfcc=5, sigma=0.5, seed=0))
    lengths = np.random.default_rng(0).integers(9, 17, size=len(records))
    for rec, t in zip(records, lengths):
        rec.features = rec.features[:, :t]
    return records


def reference_stutter_loss(model, records, batch_size):
    """One float32 sum per head over every clip's loss, each from its own batch's logits."""
    losses_f, losses_d = [], []
    for s in range(0, len(records), batch_size):
        idx = list(range(s, min(s + batch_size, len(records))))
        x, y, _ = make_batch(records, idx, dtype=model.dtype)
        _, lf, ld, _ = model.forward(x)
        losses_f.append(nn.softmax_cross_entropy(lf, (y != 0).astype(np.intp))[0])
        dis = np.flatnonzero(y != 0)
        losses_d.append(nn.softmax_cross_entropy(ld[dis], y[dis] - 1)[0])
    f, d = np.concatenate(losses_f), np.concatenate(losses_d)
    return float(f.sum()) / len(f) + (float(d.sum()) / len(d) if len(d) else 0.0)


EMPTY_ENTRY_POINTS = {
    "dataset_stutter_loss": lambda model, path: dataset_stutter_loss(model, []),
    "dataset_accuracy": lambda model, path: dataset_accuracy(model, []),
    "evaluate_model": lambda model, path: evaluate_model(model, []),
    "export_embeddings": lambda model, path: export_embeddings(model, [], path),
}


class TestInfer:
    @pytest.mark.parametrize("batch_size", [1, 3, 7, 64])
    def test_stutter_loss_is_bit_exact(self, batch_size):
        records = mixed_length_corpus()
        model = build_model(make_tiny_arch(), seed=1)
        got = dataset_stutter_loss(model, records, batch_size)
        assert got == reference_stutter_loss(model, records, batch_size)

    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_per_clip_outputs_ignore_batching_and_order(self, batch_size):
        records = tiny_corpus()  # every clip has 12 frames, so nothing is cropped
        model = build_model(make_tiny_arch(), seed=5)
        ref = infer(model, records)
        assert len(ref.batches) == 1
        assert list(ref.labels) == [int(r.label) for r in records]
        forward = infer(model, records, batch_size)
        backward = infer(model, records[::-1], batch_size)
        for out, order in ((forward, slice(None)), (backward, slice(None, None, -1))):
            assert np.array_equal(out.labels[order], ref.labels)
            assert np.array_equal(out.embeddings[order], ref.embeddings)
            assert np.array_equal(out.predictions[order], ref.predictions)
            # The head GEMMs round by the batch's row count (one row takes the
            # GEMV path), so logits agree to float32 rounding, not bitwise.
            for name in ("fluent_logits", "disfluent_logits"):
                np.testing.assert_allclose(getattr(out, name)[order], getattr(ref, name),
                                           rtol=1e-6, atol=1e-6)

    def test_entry_points_agree_with_one_pass(self, tmp_path):
        records = mixed_length_corpus()
        model = build_model(make_tiny_arch(), seed=3)
        out = infer(model, records, batch_size=7)
        assert dataset_stutter_loss(model, records, 7) == out.stutter_loss
        assert dataset_accuracy(model, records, 7) == out.accuracy
        report = evaluate_model(model, records, 7)
        assert np.array_equal(report.confusion, confusion(out.labels, out.predictions))
        assert report.stutter_two_class_accuracy == out.stutter_two_class_accuracy
        path = tmp_path / "emb.csv"
        assert np.array_equal(export_embeddings(model, records, path, 7), out.embeddings)
        assert np.array_equal(read_embeddings(path)[0], out.embeddings)

    def test_short_clips_named_before_any_batch(self, monkeypatch):
        records = generate_synthetic(SyntheticConfig(
            n_podcasts=3, clips_per_class=4, frames=30, n_mfcc=5, seed=0))
        records[13].features = records[13].features[:, :10]
        model = build_model(ArchConfig(n_podcasts=3, n_mfcc=5, encoder_channels=(8,) * 5), 0)
        assert model.arch.min_frames == 15  # the default contexts
        batches = []
        monkeypatch.setattr(training, "make_batch", lambda *a, **k: batches.append(a))
        with pytest.raises(InputTooShort, match=rf"1 clip\(s\) shorter than the 15 frames.*: "
                                                rf"{records[13].clip_id}$"):
            infer(model, records, batch_size=8)
        assert batches == []

    @pytest.mark.parametrize("entry", sorted(EMPTY_ENTRY_POINTS))
    def test_empty_record_list_raises_empty_batch(self, entry, tmp_path):
        path = tmp_path / "emb.csv"
        with pytest.raises(EmptyBatch):
            EMPTY_ENTRY_POINTS[entry](build_model(make_tiny_arch(), seed=0), path)
        assert not path.exists()


class TestTrainLoop:
    def split(self, records):
        valid = records[::5]
        train_recs = [r for i, r in enumerate(records) if i % 5]
        return train_recs, valid

    def test_two_runs_are_bit_identical(self, tmp_path):
        records = tiny_corpus()
        train_recs, valid = self.split(records)
        outputs = []
        for run in range(2):
            model = build_model(make_tiny_arch(), seed=4)
            log_path = tmp_path / f"run{run}.csv"
            cfg = TrainConfig(
                objective="mtl", lam=0.4, max_epochs=3, batch_size=8, lr=1e-2,
                seed=7, log_path=str(log_path),
            )
            result = train(model, train_recs, valid, cfg)
            outputs.append((log_path.read_bytes(), result.model.snapshot()))
        assert outputs[0][0] == outputs[1][0]
        for name, arr in outputs[0][1].items():
            assert np.array_equal(arr, outputs[1][1][name]), name

    def test_valid_set_forwarded_once_per_epoch(self, monkeypatch):
        records = tiny_corpus()
        train_recs, valid = self.split(records)
        clips = {"train": 0, "valid": 0}
        valid_ids = [r.clip_id for r in valid]  # train() hands make_batch a wrapper
        make = training.make_batch

        def counting(records, indices, *args, **kwargs):
            is_valid = [r.clip_id for r in records] == valid_ids
            clips["valid" if is_valid else "train"] += len(indices)
            return make(records, indices, *args, **kwargs)

        monkeypatch.setattr(training, "make_batch", counting)
        cfg = TrainConfig(objective="mtl", max_epochs=2, batch_size=8, seed=0)
        result = train(build_model(make_tiny_arch(), seed=0), train_recs, valid, cfg)
        assert len(result.history) == 2
        assert clips["valid"] == 2 * len(valid)
        # per epoch: the step batches only; train_acc comes from their forwards
        assert len(train_recs) % cfg.batch_size == 0  # no batch is dropped
        assert clips["train"] == 2 * len(train_recs)

    @pytest.mark.parametrize("with_valid", [True, False])
    def test_infer_runs_once_per_epoch_on_the_valid_set_only(self, monkeypatch, with_valid):
        records = tiny_corpus()
        train_recs, valid = self.split(records)
        if not with_valid:
            valid = []
        valid_ids = [r.clip_id for r in valid]
        passes = []
        real_infer = training.infer

        def counting(model, records, *args, **kwargs):
            passes.append([r.clip_id for r in records])
            return real_infer(model, records, *args, **kwargs)

        monkeypatch.setattr(training, "infer", counting)
        cfg = TrainConfig(objective="mtl", max_epochs=3, batch_size=8, seed=0, patience=50)
        result = train(build_model(make_tiny_arch(), seed=0), train_recs, valid, cfg)
        assert len(result.history) == 3
        assert passes == [valid_ids] * (3 if with_valid else 0)

    @pytest.mark.parametrize("objective", ["baseline", "mtl", "adv"])
    def test_train_acc_counts_each_steps_own_forward(self, monkeypatch, objective):
        # 17 clips in batches of 8 leave a size-1 trailing batch, which is not stepped
        records = tiny_corpus(n_podcasts=3, clips_per_class=5)[:17]
        model = build_model(make_tiny_arch(), seed=2)
        batches = []  # (labels, fluent logits, disfluent logits) of each step this epoch
        labels = []
        make, forward = training.make_batch, model.forward

        def recording_make(*args, **kwargs):
            out = make(*args, **kwargs)
            labels.append(out[1].copy())
            return out

        def recording_forward(x, *args, **kwargs):
            out = forward(x, *args, **kwargs)
            assert kwargs.get("train")  # only the steps forward; no eval pass
            batches.append((labels[-1], out[1].copy(), out[2].copy()))
            return out

        per_epoch = []

        def close_epoch(rec, m):
            hits = sum(int((two_branch(lf, ld) == y).sum()) for y, lf, ld in batches)
            per_epoch.append((hits, sum(len(y) for y, _, _ in batches)))
            batches.clear()

        monkeypatch.setattr(training, "make_batch", recording_make)
        monkeypatch.setattr(model, "forward", recording_forward)
        cfg = TrainConfig(objective=objective, lam=0.3, max_epochs=4, batch_size=8, lr=1e-2,
                          seed=5, stage_bounds=(1, 2, 3), stage1_trains_encoder=False)
        result = train(model, records, [], cfg, callback=close_epoch)
        if objective == "adv":
            assert [rec.stage for rec in result.history] == [
                "speaker_only", "stutter_only", "joint_grl", "recovery"]
        assert [seen for _, seen in per_epoch] == [16] * 4
        assert [rec.train_acc for rec in result.history] == [
            hits / seen for hits, seen in per_epoch]

    def test_log_format(self, tmp_path):
        records = tiny_corpus()
        train_recs, valid = self.split(records)
        log_path = tmp_path / "log.csv"
        cfg = TrainConfig(
            objective="mtl", lam=0.25, max_epochs=2, batch_size=8, lr=1e-2,
            seed=0, log_path=str(log_path),
        )
        result = train(build_model(make_tiny_arch(), seed=0), train_recs, valid, cfg)
        with open(log_path) as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == LOG_COLUMNS
        assert len(rows) == 1 + len(result.history)
        first = dict(zip(LOG_COLUMNS, rows[1]))
        assert first["epoch"] == "0" and first["stage"] == "mtl"
        assert first["lambda"] == "0.25"
        float(first["l_total"])  # formatted as plain decimals
        assert "." in first["valid_acc"]

    def test_lambda_zero_mtl_matches_baseline_bitwise(self):
        # dropout 0 so the unused speaker head does not consume mask draws
        records = tiny_corpus()
        train_recs, valid = self.split(records)
        snaps = {}
        for objective in ("baseline", "mtl"):
            arch = make_tiny_arch(dropout=0.0)
            model = build_model(arch, seed=2)
            cfg = TrainConfig(
                objective=objective, lam=0.0, max_epochs=3, batch_size=8,
                lr=1e-2, seed=3,
            )
            result = train(model, train_recs, valid, cfg)
            snaps[objective] = (result.model.snapshot(), result.history)
        base_snap, base_hist = snaps["baseline"]
        mtl_snap, mtl_hist = snaps["mtl"]
        # parameters agree bitwise everywhere: zero-weighted speaker gradients
        # give exactly-zero optimizer updates. The speaker head's bn running
        # stats legitimately differ (mtl runs that head in train mode), but
        # they sit outside the stutter path.
        for name, arr in base_snap.items():
            if name.startswith("speaker.") and "running" in name:
                continue
            assert np.array_equal(arr, mtl_snap[name]), name
        for a, b in zip(base_hist, mtl_hist):
            assert a.l_fluent == b.l_fluent
            assert a.l_disfluent == b.l_disfluent
            assert a.valid_stutter_loss == b.valid_stutter_loss
            assert a.valid_acc == b.valid_acc

    def test_stage_freezing_is_bitwise(self):
        records = tiny_corpus()
        train_recs, valid = self.split(records)
        arch = make_tiny_arch()
        model = build_model(arch, seed=1)
        cfg = TrainConfig(
            objective="adv", lam=0.3, max_epochs=4, batch_size=8, lr=1e-2,
            seed=5, stage_bounds=(1, 2, 3), stage1_trains_encoder=False,
        )
        epoch_snaps = []
        train(model, train_recs, valid, cfg,
              callback=lambda rec, m: epoch_snaps.append((rec.stage, m.snapshot())))
        stages = [s for s, _ in epoch_snaps]
        assert stages == ["speaker_only", "stutter_only", "joint_grl", "recovery"]
        init = None  # compare epoch 0 against the untouched partitions of epoch 1
        spk0 = epoch_snaps[0][1]
        stu1 = epoch_snaps[1][1]
        grl2 = epoch_snaps[2][1]
        rec3 = epoch_snaps[3][1]
        # speaker_only with a frozen encoder: only speaker.* may move next
        for name, arr in stu1.items():
            if name.startswith("speaker."):
                assert np.array_equal(arr, spk0[name]), name
        # recovery freezes the encoder and speaker head completely
        for name, arr in rec3.items():
            if name.startswith(("encoder.", "speaker.")):
                assert np.array_equal(arr, grl2[name]), name

    @pytest.mark.parametrize("stage1_trains_encoder", [True, False])
    def test_adam_moments_restart_only_when_the_descended_loss_changes(
            self, stage1_trains_encoder):
        records = tiny_corpus()
        train_recs, valid = self.split(records)
        cfg = TrainConfig(
            objective="adv", lam=0.3, max_epochs=8, batch_size=8, lr=1e-2,
            seed=5, stage_bounds=(2, 4, 6), stage1_trains_encoder=stage1_trains_encoder,
        )
        assert len(train_recs) % cfg.batch_size == 0  # no batch is dropped
        steps = len(train_recs) // cfg.batch_size  # optimizer steps per epoch
        model = build_model(make_tiny_arch(), seed=1)
        result = train(model, train_recs, valid, cfg)
        assert [r.stage for r in result.history] == [
            "speaker_only"] * 2 + ["stutter_only"] * 2 + ["joint_grl"] * 2 + ["recovery"] * 2
        expected = {
            "encoder": 2 * steps,  # joint_grl only: its loss changed twice before
            "fluent": 6 * steps,  # stutter_only + joint_grl + recovery
            "disfluent": 6 * steps,
            "speaker": 4 * steps,  # speaker_only + joint_grl, kept while frozen
        }
        assert {part: st["t"] for part, st in result.optimizer.state.items()} == expected

    @pytest.mark.parametrize("objective,speaker_epochs", [("mtl", 3), ("adv", 2)])
    def test_speaker_head_steps_wherever_it_trains_at_lambda_zero(
            self, objective, speaker_epochs):
        # adv runs speaker_only, stutter_only, joint_grl: the speaker head
        # trains in the first and the last, though joint_grl's weight is -0.0
        records = tiny_corpus()
        train_recs, valid = self.split(records)
        cfg = TrainConfig(objective=objective, lam=0.0, max_epochs=3, batch_size=8, lr=1e-2,
                          seed=5, stage_bounds=(1, 2, 3))
        assert len(train_recs) % cfg.batch_size == 0  # no batch is dropped
        steps = len(train_recs) // cfg.batch_size
        model = build_model(make_tiny_arch(), seed=1)
        result = train(model, train_recs, valid, cfg)
        assert len(result.history) == 3
        assert result.optimizer.state["speaker"]["t"] == speaker_epochs * steps

    def test_descended_loss_table(self):
        assert descended_loss("speaker_only", "encoder") == "l_speaker"
        assert descended_loss("stutter_only", "encoder") == "l_stutter"
        assert descended_loss("baseline", "encoder") == "l_stutter"
        assert descended_loss("joint_grl", "encoder") == "l_stutter - lambda * l_speaker"
        for stage in ("speaker_only", "stutter_only", "joint_grl", "recovery", "mtl"):
            for head in ("fluent", "disfluent", "speaker"):
                assert descended_loss(stage, head) == f"l_{head}"

    def test_speaker_only_stage_leaves_stutter_path_untouched(self):
        records = tiny_corpus()
        train_recs, valid = self.split(records)
        model = build_model(make_tiny_arch(), seed=1)
        before = model.snapshot()
        cfg = TrainConfig(
            objective="adv", lam=0.3, max_epochs=2, batch_size=8, lr=1e-2,
            seed=5, stage_bounds=(2, 3, 4), stage1_trains_encoder=False,
        )
        result = train(model, train_recs, valid, cfg)
        # the validation stutter loss cannot move while encoder and stutter
        # heads are frozen
        assert result.history[0].valid_stutter_loss == result.history[1].valid_stutter_loss
        for name, arr in model.state_arrays().items():
            if not name.startswith("speaker."):
                assert np.array_equal(arr, before[name]), name

    def test_best_epoch_restored(self):
        records = tiny_corpus()
        train_recs, valid = self.split(records)
        model = build_model(make_tiny_arch(), seed=3)
        cfg = TrainConfig(
            objective="baseline", max_epochs=6, batch_size=8, lr=5e-2, seed=2,
            patience=2,
        )
        snaps = []
        result = train(model, train_recs, valid, cfg,
                       callback=lambda rec, m: snaps.append(m.snapshot()))
        losses = [r.valid_stutter_loss for r in result.history]
        assert result.best_epoch == int(np.argmin(losses))
        assert result.best_valid_stutter_loss == pytest.approx(min(losses))
        best = snaps[result.best_epoch]
        for name, arr in model.state_arrays().items():
            assert np.array_equal(arr, best[name]), name

    def test_early_stop_honors_patience(self):
        records = tiny_corpus()
        train_recs, valid = self.split(records)
        model = build_model(make_tiny_arch(), seed=3)
        # min_delta of 1 is never beaten after the first epoch
        cfg = TrainConfig(
            objective="baseline", max_epochs=50, batch_size=8, lr=1e-3, seed=2,
            patience=3, min_delta=1.0,
        )
        result = train(model, train_recs, valid, cfg)
        assert result.stopped_epoch == 3
        assert len(result.history) == 4

    def test_speaker_count_mismatch_rejected_for_mtl(self):
        records = tiny_corpus(n_podcasts=2)
        model = build_model(make_tiny_arch(n_podcasts=3), seed=0)
        cfg = TrainConfig(objective="mtl", max_epochs=1)
        with pytest.raises(InvalidConfig, match="podcasts"):
            train(model, records, [], cfg)

    def test_baseline_tolerates_speaker_count_mismatch(self):
        records = tiny_corpus(n_podcasts=2)
        model = build_model(make_tiny_arch(n_podcasts=3), seed=0)
        cfg = TrainConfig(objective="baseline", max_epochs=1, batch_size=8)
        result = train(model, records, [], cfg)
        assert result.history[0].l_speaker == 0.0

    def test_empty_training_set_rejected(self):
        model = build_model(make_tiny_arch(), seed=0)
        with pytest.raises(EmptyBatch):
            train(model, [], [], TrainConfig())

    def test_trailing_singleton_batch_dropped(self, caplog):
        records = tiny_corpus(n_podcasts=3, clips_per_class=5)[:17]
        model = build_model(make_tiny_arch(), seed=0)
        cfg = TrainConfig(objective="baseline", max_epochs=1, batch_size=8, seed=0)
        with caplog.at_level("WARNING"):
            train(model, records, [], cfg)
        assert "size-1" in caplog.text

    def test_nan_loss_raises_numeric_error(self):
        records = tiny_corpus()
        records[3].features = records[3].features.copy()
        records[3].features[0, 0] = np.nan
        model = build_model(make_tiny_arch(), seed=0)
        cfg = TrainConfig(objective="baseline", max_epochs=2, batch_size=8, seed=0)
        with pytest.raises(NumericError, match="non-finite"):
            train(model, records, [], cfg)

    def test_no_validation_set_runs_to_max_epochs(self):
        records = tiny_corpus()
        model = build_model(make_tiny_arch(), seed=0)
        cfg = TrainConfig(objective="baseline", max_epochs=3, batch_size=8, seed=0)
        result = train(model, records, [], cfg)
        assert len(result.history) == 3
        assert result.best_epoch is None
        assert np.isnan(result.history[0].valid_stutter_loss)
