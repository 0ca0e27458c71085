"""Confusion metrics, report formatting, embedding export, speaker probe."""

import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from conftest import make_tiny_arch
from stutterkit.data import ClipRecord, SyntheticConfig, generate_synthetic
from stutterkit.errors import EmptyMatrix, InvalidConfig, LengthMismatch, TooFewPodcasts
from stutterkit.evaluate import (
    TABLE_COLUMNS,
    confusion,
    evaluate_model,
    export_embeddings,
    metrics,
    pair_rates,
    read_embeddings,
    speaker_probe,
)
from stutterkit.model import CLASS_NAMES, StutterClass, build_model
from stutterkit.training import Inference, infer, make_batch


class TestConfusion:
    def test_hand_counts(self):
        # truth Fluent, Fluent, Repetition; predictions Fluent, Repetition, Repetition
        m = confusion([0, 0, 1], [0, 1, 1])
        assert m.shape == (5, 5)
        assert m[0, 0] == 1 and m[0, 1] == 1 and m[1, 1] == 1
        assert m.sum() == 3

    def test_permutation_invariant(self, rng):
        truth = rng.integers(0, 5, size=60)
        pred = rng.integers(0, 5, size=60)
        perm = rng.permutation(60)
        assert np.array_equal(confusion(truth, pred), confusion(truth[perm], pred[perm]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(LengthMismatch):
            confusion([], [])
        with pytest.raises(LengthMismatch):
            confusion([0, 1], [0])
        with pytest.raises(LengthMismatch):
            confusion([0, 5], [0, 0])
        with pytest.raises(LengthMismatch):
            confusion([0, -1], [0, 0])


class TestMetrics:
    def test_hand_precision_recall_f1(self):
        # one true Repetition predicted Repetition, one true Prolongation
        # predicted Repetition: precision_R = 1/2, recall_R = 1, F1_R = 2/3
        m = np.zeros((5, 5), dtype=np.int64)
        m[1, 1] = 1
        m[2, 1] = 1
        rep = metrics(m)
        assert rep.precision[1] == pytest.approx(0.5)
        assert rep.recall[1] == pytest.approx(1.0)
        assert rep.f1[1] == pytest.approx(2 / 3)
        assert rep.recall[2] == 0.0 and rep.f1[2] == 0.0
        assert rep.stutter_accuracy == pytest.approx(0.25)  # (1 + 0 + 0 + 0) / 4
        assert rep.total_accuracy == pytest.approx(0.5)
        assert rep.fluent_accuracy == 0.0
        assert rep.undefined_precision == (0, 2, 3, 4)

    def test_perfect_predictions(self):
        labels = [0, 1, 2, 3, 4] * 3
        rep = metrics(confusion(labels, labels))
        assert np.allclose(rep.precision, 1.0)
        assert np.allclose(rep.recall, 1.0)
        assert np.allclose(rep.f1, 1.0)
        assert rep.stutter_accuracy == 1.0 and rep.total_accuracy == 1.0
        assert rep.undefined_precision == ()

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyMatrix):
            metrics(np.zeros((5, 5), dtype=np.int64))

    def test_pair_rates(self):
        m = np.zeros((5, 5), dtype=np.int64)
        m[1, 3] = 1  # one Repetition called Block
        m[1, 1] = 1
        m[0, 0] = 2
        rates = pair_rates(m)
        assert rates["RasB"] == pytest.approx(0.5)
        assert rates["RasF"] == 0.0
        assert rates["PasF"] == 0.0  # empty row reports 0 instead of dividing
        assert "RasR" not in rates


class TestReportFormatting:
    def test_table_column_order(self):
        labels = [0, 1, 2, 3, 4]
        rep = metrics(confusion(labels, labels))
        lines = rep.table().splitlines()
        assert lines[1].split() == list(TABLE_COLUMNS)
        assert lines[2].split() == ["100.00"] * 7
        assert all("S2CA" not in line for line in lines)
        rep.stutter_two_class_accuracy = 0.875
        assert rep.table().splitlines()[-1] == "S2CA 87.50"

    def test_json_fields(self):
        rep = metrics(confusion([0, 1, 2], [0, 1, 1]))
        d = json.loads(rep.to_json())
        assert d["columns"] == list(TABLE_COLUMNS)
        assert np.array(d["confusion"]).shape == (5, 5)
        assert d["class_accuracy"] == d["recall"]
        assert "stutter_two_class_accuracy" not in d
        assert 2 in d["undefined_precision"]
        rep.stutter_two_class_accuracy = 0.5
        assert json.loads(rep.to_json())["stutter_two_class_accuracy"] == 0.5


def small_records(n_podcasts=3, clips_per_class=4, seed=0):
    cfg = SyntheticConfig(
        n_podcasts=n_podcasts, clips_per_class=clips_per_class,
        frames=12, n_mfcc=5, seed=seed,
    )
    return generate_synthetic(cfg)


class TestEvaluateModel:
    def test_matches_manual_two_branch(self):
        records = small_records()
        model = build_model(make_tiny_arch(), seed=1)
        rep = evaluate_model(model, records, batch_size=7)

        x, y, _ = make_batch(records, range(len(records)))
        _, lf, ld, _ = model.forward(x)
        pred = np.where(np.argmax(lf, axis=1) == 0, 0, np.argmax(ld, axis=1) + 1)
        want = metrics(confusion(y, pred))
        assert np.array_equal(rep.confusion, want.confusion)
        dis = y != 0
        s2 = float((np.argmax(lf, axis=1)[dis] == 1).mean())
        assert rep.stutter_two_class_accuracy == pytest.approx(s2)

    def test_s2ca_absent_without_disfluent_clips(self):
        records = [r for r in small_records() if r.label == 0]
        model = build_model(make_tiny_arch(), seed=1)
        rep = evaluate_model(model, records)
        assert rep.stutter_two_class_accuracy is None


class TestEmbeddingExport:
    def test_roundtrip_and_rewrite_stability(self, tmp_path):
        records = small_records()
        model = build_model(make_tiny_arch(), seed=2)
        path = tmp_path / "emb.csv"
        emb = export_embeddings(model, records, path, batch_size=7)
        assert emb.shape == (len(records), make_tiny_arch().embedding_dim)

        x, _, _ = make_batch(records, range(len(records)))
        assert np.array_equal(emb, model.encode(x).astype(np.float32))

        back, clip_ids, podcast_ids, labels = read_embeddings(path)
        assert np.array_equal(back, emb)  # 9 significant digits round-trip f32
        assert clip_ids == [r.clip_id for r in records]
        assert podcast_ids == [r.podcast_id for r in records]
        assert labels[0] == "Fluent"

        first = path.read_bytes()
        export_embeddings(model, records, path, batch_size=64)
        assert path.read_bytes() == first

    def test_writes_given_outputs_without_a_forward(self, tmp_path, monkeypatch):
        records = small_records()
        model = build_model(make_tiny_arch(), seed=2)
        alone = tmp_path / "alone.csv"
        emb = export_embeddings(model, records, alone)
        report = evaluate_model(model, records)

        monkeypatch.setattr(model, "forward", None)  # any forward would now fail
        given = tmp_path / "given.csv"
        assert np.array_equal(export_embeddings(model, records, given,
                                                outputs=report.outputs), emb)
        assert given.read_bytes() == alone.read_bytes()

    def test_rows_match_per_value_csv_formatting(self, tmp_path):
        """Byte for byte what csv.writer made of format(float(v), ".9g") per value."""
        keys = ["plain", "a,comma", 'a "quote"', "new\nline", "cr\rlf", " pad ", ""]
        records = [ClipRecord(f"{keys[i % 7]}{i}", keys[(i + 3) % 7], StutterClass(i % 5))
                   for i in range(14)]
        rng = np.random.default_rng(0)
        scale = 10.0 ** rng.integers(-44, 38, (14, 6))  # float32 subnormals to near its max
        emb = (rng.normal(size=(14, 6)) * scale).astype(np.float32)
        emb[0] = [-0.0, 0.0, 1e-45, -1.1e-42, np.finfo(np.float32).max, 1.17549435e-38]
        emb[1, :3] = [np.inf, -np.inf, np.nan]
        labels = np.array([int(r.label) for r in records])
        out = Inference(labels=labels, predictions=labels, embeddings=emb,
                        fluent_logits=np.zeros((14, 2)), disfluent_logits=np.zeros((14, 4)))
        path = tmp_path / "emb.csv"
        export_embeddings(None, records, path, outputs=out)
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["clip_id", "podcast_id", "class"] + [f"e{k}" for k in range(6)])
        writer.writerows([r.clip_id, r.podcast_id, CLASS_NAMES[r.label]]
                         + [format(float(v), ".9g") for v in z] for r, z in zip(records, emb))
        assert path.read_bytes() == want.getvalue().encode()

    @pytest.mark.parametrize("subset", [lambda r: r[:-1], lambda r: r[::-1]],
                             ids=["one_short", "reordered"])
    def test_outputs_must_cover_the_records(self, tmp_path, subset):
        records = small_records()
        model = build_model(make_tiny_arch(), seed=2)
        path = tmp_path / "emb.csv"
        with pytest.raises(LengthMismatch):
            export_embeddings(model, records, path, outputs=infer(model, subset(records)))
        assert not path.exists()


class TestReportOutputs:
    def test_outputs_kept_but_not_part_of_the_report(self):
        records = small_records()
        model = build_model(make_tiny_arch(), seed=1)
        rep = evaluate_model(model, records)
        assert np.array_equal(rep.outputs.labels, [int(r.label) for r in records])
        assert "outputs" not in json.loads(rep.to_json())
        assert "outputs" not in repr(rep)
        assert not {f.name: f for f in dataclasses.fields(rep)}["outputs"].compare
        assert metrics(rep.confusion).outputs is None


class TestSpeakerProbe:
    def test_identity_embeddings_fully_decodable(self):
        ids = [f"pod{i % 4}" for i in range(40)]
        emb = np.eye(4)[[i % 4 for i in range(40)]].astype(np.float64)
        result = speaker_probe(emb, ids, seed=0)
        assert result.accuracy == 1.0
        assert result.n_speakers == 4

    def test_noise_embeddings_near_chance(self):
        ids = [f"pod{i % 4}" for i in range(100)]
        accs = []
        for seed in range(10):
            emb = np.random.default_rng(100 + seed).normal(size=(100, 16))
            accs.append(speaker_probe(emb, ids, seed=seed).accuracy)
        mean = float(np.mean(accs))
        assert 0.10 <= mean <= 0.40  # 4 speakers -> chance is 0.25

    def test_appending_identity_cannot_hurt(self):
        ids = [f"pod{i % 4}" for i in range(80)]
        rng = np.random.default_rng(5)
        z = rng.normal(size=(80, 8))
        onehot = np.eye(4)[[i % 4 for i in range(80)]]
        base = speaker_probe(z, ids, seed=3).accuracy
        boosted = speaker_probe(np.hstack([z, onehot]), ids, seed=3).accuracy
        assert boosted >= base
        assert boosted >= 0.9  # 200 fixed steps land close to, not at, 1.0

    def test_split_sizes_and_determinism(self):
        ids = [f"pod{i % 4}" for i in range(20)]
        emb = np.random.default_rng(0).normal(size=(20, 6))
        a = speaker_probe(emb, ids, seed=1)
        b = speaker_probe(emb, ids, seed=1)
        assert a.n_train == 16 and a.n_heldout == 4
        assert a.accuracy == b.accuracy

    @pytest.mark.parametrize("seed, hits", [(1, 5), (3, 4)])
    def test_golden_held_out_accuracy(self, seed, hits):
        # Pinned as numpy's default_rng held the samples out: speaker c's single sample
        # stays in training, and a, b and d hold out round(0.2 n) = 3, 2 and 1.
        ids = ["a"] * 15 + ["b"] * 10 + ["c"] + ["d"] * 7
        emb = np.random.default_rng(7).normal(size=(len(ids), 3))
        emb[:15, 0] += 1.0
        emb[15:25, 1] += 1.0
        result = speaker_probe(emb, ids, seed=seed)
        assert (result.n_train, result.n_heldout, result.n_speakers) == (27, 6, 4)
        assert result.accuracy == hits / 6

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(TooFewPodcasts):
            speaker_probe(np.zeros((3, 2)), ["p0", "p0", "p0"])
        with pytest.raises(LengthMismatch):
            speaker_probe(np.zeros((3, 2)), ["p0", "p1"])
        # two speakers with one sample each: nothing can be held out
        with pytest.raises(TooFewPodcasts):
            speaker_probe(np.zeros((2, 2)), ["p0", "p1"])

    @pytest.mark.parametrize("kwargs", [
        {"steps": 0}, {"steps": -3}, {"lr": float("nan")}, {"lr": float("inf")}, {"lr": 0.0},
        {"lr": -1e-2}, {"heldout_fraction": float("nan")}, {"heldout_fraction": -0.1},
        {"heldout_fraction": 1.5},
    ], ids=["steps_0", "steps_-3", "lr_nan", "lr_inf", "lr_0", "lr_negative",
            "heldout_nan", "heldout_negative", "heldout_above_1"])
    def test_rejects_invalid_settings(self, kwargs):
        ids = [f"pod{i % 2}" for i in range(8)]
        with pytest.raises(InvalidConfig):
            speaker_probe(np.random.default_rng(0).normal(size=(8, 3)), ids, **kwargs)
