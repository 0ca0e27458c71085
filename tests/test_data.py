"""Manifests, the annotation-table adapter, splits, and the synthetic corpus."""

import numpy as np
import pytest

from oracles import per_clip_synthetic, ridge_onevsrest_accuracy
from stutterkit.data import (
    ClipRecord,
    SyntheticConfig,
    _largest_remainder,
    _patterns,
    adapt_annotation_table,
    adapt_sep28k,
    features_of,
    generate_synthetic,
    kfold,
    load_manifest,
    parse_label,
    split_by_podcast,
    split_within_podcast,
    write_manifest,
)
from stutterkit.errors import (
    DataError,
    EmptyPodcast,
    InvalidConfig,
    ParseError,
    TooFewPodcasts,
    UnknownLabel,
)
from stutterkit.features import write_fmat
from stutterkit.model import StutterClass


def make_records(n_podcasts=5, per_class_per_podcast=3):
    records = []
    for p in range(n_podcasts):
        for cls in StutterClass:
            for i in range(per_class_per_podcast):
                records.append(
                    ClipRecord(
                        clip_id=f"p{p}_c{int(cls)}_{i}",
                        podcast_id=f"pod{p}",
                        label=cls,
                    )
                )
    return records


class TestClipRecord:
    def test_fluent_pseudo_label(self):
        fluent = ClipRecord("a", "p", StutterClass.FLUENT)
        block = ClipRecord("b", "p", StutterClass.BLOCK)
        assert fluent.fluent_label == 0
        assert block.fluent_label == 1


class TestLabels:
    def test_parse_is_case_insensitive(self):
        assert parse_label("fluent") == StutterClass.FLUENT
        assert parse_label(" Interjection ") == StutterClass.INTERJECTION
        assert parse_label("BLOCK") == StutterClass.BLOCK

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            parse_label("stammer")


class TestManifest:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "m.csv"
        records = [
            ClipRecord("c1", "p1", StutterClass.FLUENT, audio_path="a.wav",
                       start_ms=0.0, stop_ms=3000.0),
            ClipRecord("c2", "p2", StutterClass.PROLONGATION, feature_path="c2.fmat"),
        ]
        write_manifest(path, records)
        back = load_manifest(path)
        assert [(r.clip_id, r.podcast_id, r.label) for r in back] == [
            ("c1", "p1", StutterClass.FLUENT),
            ("c2", "p2", StutterClass.PROLONGATION),
        ]
        assert back[0].audio_path == "a.wav"
        assert back[0].start_ms == 0.0 and back[0].stop_ms == 3000.0
        assert back[0].feature_path is None
        assert back[1].feature_path == "c2.fmat"

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("clip_id,label\nc1,Fluent\n")
        with pytest.raises(ParseError, match="podcast_id"):
            load_manifest(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "clip_id,podcast_id,label,start_ms\nc1,p1,Fluent,0\nc2,p1,Fluent,abc\n"
        )
        with pytest.raises(ParseError, match=r":3:"):
            load_manifest(path)

    def test_unknown_label_passes_through(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("clip_id,podcast_id,label\nc1,p1,Hesitation\n")
        with pytest.raises(UnknownLabel):
            load_manifest(path)

    def test_empty_identifier_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("clip_id,podcast_id,label\n,p1,Fluent\n")
        with pytest.raises(ParseError):
            load_manifest(path)

    def test_empty_file_warns_and_returns_nothing(self, tmp_path, caplog):
        path = tmp_path / "m.csv"
        path.write_text("")
        with caplog.at_level("WARNING"):
            assert load_manifest(path) == []
        assert "empty manifest" in caplog.text


class TestFeaturesOf:
    def test_inline_features_win(self):
        feats = np.ones((2, 3), dtype=np.float32)
        rec = ClipRecord("c", "p", StutterClass.FLUENT, features=feats)
        assert features_of(rec) is feats

    def test_loads_and_caches_from_disk(self, tmp_path, rng):
        feats = rng.normal(size=(4, 6)).astype(np.float32)
        path = tmp_path / "c.fmat"
        write_fmat(path, feats)
        rec = ClipRecord("c", "p", StutterClass.FLUENT, feature_path=str(path))
        first = features_of(rec)
        assert np.array_equal(first, feats)
        path.unlink()
        assert features_of(rec) is first  # cached, no re-read

    def test_no_source_raises(self):
        rec = ClipRecord("c", "p", StutterClass.FLUENT)
        with pytest.raises(DataError, match="no features"):
            features_of(rec)


class TestAnnotationAdapter:
    def test_strict_majority_wins(self):
        rows = [
            {"clip_id": "c1", "podcast_id": "p", "Prolongation": "2", "Block": "1"},
        ]
        records, excl = adapt_annotation_table(rows)
        assert excl == []
        assert records[0].label == StutterClass.PROLONGATION

    def test_repetition_columns_pool(self):
        # SoundRep 2 + WordRep 1 = 3 beats Prolongation 2
        rows = [
            {"clip_id": "c1", "podcast_id": "p", "SoundRep": "2", "WordRep": "1",
             "Prolongation": "2"},
        ]
        records, excl = adapt_annotation_table(rows)
        assert records[0].label == StutterClass.REPETITION and excl == []

    def test_tie_excluded(self):
        rows = [{"clip_id": "c1", "podcast_id": "p", "Block": "2", "Prolongation": "2"}]
        records, excl = adapt_annotation_table(rows)
        assert records == [] and excl == [("c1", "tie")]

    def test_nonstutter_flag_excluded(self):
        rows = [
            {"clip_id": "c1", "podcast_id": "p", "Block": "3", "PoorAudioQuality": "1"},
            {"clip_id": "c2", "podcast_id": "p", "Block": "3", "Music": "0"},
        ]
        records, excl = adapt_annotation_table(rows)
        assert [r.clip_id for r in records] == ["c2"]
        assert excl == [("c1", "non-stuttering annotation")]

    def test_unannotated_excluded(self):
        rows = [{"clip_id": "c1", "podcast_id": "p", "Block": "0"}]
        records, excl = adapt_annotation_table(rows)
        assert records == [] and excl == [("c1", "no annotations")]

    def test_show_episode_clip_identifiers(self):
        rows = [
            {"Show": "HeStutters", "EpId": "12", "ClipId": "7", "Fluent": "3"},
        ]
        records, _ = adapt_annotation_table(rows)
        assert records[0].podcast_id == "HeStutters_12"
        assert records[0].clip_id == "HeStutters_12_7"
        assert records[0].label == StutterClass.FLUENT

    def test_missing_identifiers_rejected(self):
        with pytest.raises(ParseError):
            adapt_annotation_table([{"Fluent": "3"}])

    def test_bad_count_rejected(self):
        rows = [{"clip_id": "c1", "podcast_id": "p", "Block": "lots"}]
        with pytest.raises(ParseError):
            adapt_annotation_table(rows)

    def test_csv_entry_point(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(
            "Show,EpId,ClipId,Fluent,Block,Unsure\n"
            "A,1,0,3,0,0\n"
            "A,1,1,0,2,0\n"
            "A,1,2,1,1,0\n"
            "A,1,3,0,3,1\n"
        )
        records, excl = adapt_sep28k(path)
        assert [(r.clip_id, int(r.label)) for r in records] == [
            ("A_1_0", 0),
            ("A_1_1", 3),
        ]
        assert excl == [("A_1_2", "tie"), ("A_1_3", "non-stuttering annotation")]


class TestLargestRemainder:
    def test_385_podcasts_at_80_10_10(self):
        assert _largest_remainder(385, (0.8, 0.1, 0.1)) == [308, 39, 38]

    def test_remainder_ties_go_to_earlier_entries(self):
        assert _largest_remainder(10, (1 / 3, 1 / 3, 1 / 3)) == [4, 3, 3]

    def test_sums_match_total(self, rng):
        for _ in range(50):
            k = int(rng.integers(2, 6))
            raw = rng.uniform(0.1, 1.0, size=k)
            ratios = raw / raw.sum()
            total = int(rng.integers(1, 500))
            counts = _largest_remainder(total, ratios)
            assert sum(counts) == total
            assert all(c >= 0 for c in counts)


class TestPodcastSplit:
    def test_podcasts_are_disjoint_and_complete(self):
        records = make_records(n_podcasts=10)
        split = split_by_podcast(records, seed=3)
        pods = [sorted({r.podcast_id for r in part}) for part in split]
        flat = [p for part in pods for p in part]
        assert len(flat) == len(set(flat)) == 10
        assert sum(len(part) for part in split) == len(records)
        assert split.mode == "podcast-disjoint"

    def test_sizes_follow_largest_remainder(self):
        records = make_records(n_podcasts=10)
        split = split_by_podcast(records, ratios=(0.8, 0.1, 0.1), seed=0)
        counts = [len({r.podcast_id for r in part}) for part in split]
        assert counts == [8, 1, 1]

    def test_seed_determinism(self):
        records = make_records(n_podcasts=10)
        a = split_by_podcast(records, seed=5)
        b = split_by_podcast(records, seed=5)
        assert [r.clip_id for r in a.train] == [r.clip_id for r in b.train]
        c = split_by_podcast(records, seed=6)
        assert any(
            [r.clip_id for r in pa] != [r.clip_id for r in pc]
            for pa, pc in zip(a, c)
        )

    def test_too_few_podcasts(self):
        records = make_records(n_podcasts=2)
        with pytest.raises(TooFewPodcasts):
            split_by_podcast(records)

    @pytest.mark.parametrize("ratios", [
        (0.5, 0.5), (float("nan"), 0.1, 0.1), (1, 1, 1), (-1, 1, 1), (float("inf"), 0, 0),
    ])
    def test_bad_ratios_rejected(self, ratios):
        with pytest.raises(InvalidConfig, match="ratios"):
            split_by_podcast(make_records(n_podcasts=5), ratios)


class TestWithinPodcastSplit:
    def test_every_cell_present_on_both_sides(self):
        records = make_records(n_podcasts=4, per_class_per_podcast=4)
        split = split_within_podcast(records, valid_fraction=0.25, seed=1)
        assert sorted(r.clip_id for r in split.train + split.valid) == sorted(
            r.clip_id for r in records
        )
        for part in (split.train, split.valid):
            cells = {(r.podcast_id, r.label) for r in part}
            assert cells == {(f"pod{p}", c) for p in range(4) for c in StutterClass}

    def test_valid_fraction_is_clamped_to_keep_train_nonempty(self):
        records = make_records(n_podcasts=3, per_class_per_podcast=2)
        split = split_within_podcast(records, valid_fraction=0.9, seed=0)
        # each 2-clip cell must keep one clip per side
        assert len(split.valid) == len(split.train) == len(records) // 2

    def test_single_clip_cell_warns_into_train(self, caplog):
        # podZ has two clips but each (podcast, class) cell holds only one
        records = make_records(n_podcasts=3, per_class_per_podcast=2) + [
            ClipRecord("lone_b", "podZ", StutterClass.BLOCK),
            ClipRecord("lone_f", "podZ", StutterClass.FLUENT),
        ]
        with caplog.at_level("WARNING"):
            split = split_within_podcast(records, valid_fraction=0.5, seed=0)
        assert "single clip" in caplog.text
        train_ids = {r.clip_id for r in split.train}
        assert {"lone_b", "lone_f"} <= train_ids
        assert all(not r.clip_id.startswith("lone") for r in split.valid)

    def test_test_records_pass_through(self):
        records = make_records(n_podcasts=3)
        held = [ClipRecord("t1", "podX", StutterClass.FLUENT)]
        split = split_within_podcast(records, test=held)
        assert split.test == held

    @pytest.mark.parametrize("fraction", [float("nan"), 2.0, -1.0, float("inf")])
    def test_bad_valid_fraction_rejected(self, fraction):
        with pytest.raises(InvalidConfig, match="valid_fraction"):
            split_within_podcast(make_records(n_podcasts=3), valid_fraction=fraction)

    def test_tiny_podcast_rejected(self):
        records = make_records(n_podcasts=3) + [ClipRecord("x", "podY", StutterClass.FLUENT)]
        with pytest.raises(EmptyPodcast):
            split_within_podcast(records)


class TestKfold:
    def test_podcast_disjoint_folds_cover_everything(self):
        records = make_records(n_podcasts=10)
        splits = kfold(records, k=5, seed=2)
        assert len(splits) == 5
        seen = []
        for split in splits:
            train_pods = {r.podcast_id for r in split.train}
            valid_pods = {r.podcast_id for r in split.valid}
            assert not train_pods & valid_pods
            assert len(split.train) + len(split.valid) == len(records)
            seen.extend(sorted(valid_pods))
        assert sorted(seen) == sorted(f"pod{i}" for i in range(10))

    def test_clip_level_folds(self):
        records = make_records(n_podcasts=3)
        splits = kfold(records, k=5, seed=2, by="clip")
        valid_ids = [r.clip_id for s in splits for r in s.valid]
        assert sorted(valid_ids) == sorted(r.clip_id for r in records)

    def test_needs_enough_podcasts(self):
        records = make_records(n_podcasts=4)
        with pytest.raises(TooFewPodcasts):
            kfold(records, k=5)


class TestSyntheticCorpus:
    def test_deterministic(self):
        cfg = SyntheticConfig(seed=9)
        a, b = generate_synthetic(cfg), generate_synthetic(cfg)
        assert [r.clip_id for r in a] == [r.clip_id for r in b]
        assert all(np.array_equal(x.features, y.features) for x, y in zip(a, b))

    def test_counts_and_round_robin(self):
        cfg = SyntheticConfig(n_podcasts=3, clips_per_class=7)
        records = generate_synthetic(cfg)
        assert len(records) == 7 * len(StutterClass)
        for cls in StutterClass:
            mine = [r for r in records if r.label == cls]
            assert [r.podcast_id for r in mine] == [f"pod{i % 3}" for i in range(7)]
        assert records[0].clip_id == "syn_fluent_0000"

    def test_per_class_count_mapping(self):
        cfg = SyntheticConfig(
            clips_per_class={StutterClass.FLUENT: 16, "Repetition": 12,
                             "Prolongation": 12, "Block": 12, "Interjection": 12}
        )
        records = generate_synthetic(cfg)
        assert len(records) == 64
        assert sum(r.label == StutterClass.FLUENT for r in records) == 16

    def test_pattern_geometry(self):
        cfg = SyntheticConfig(n_podcasts=4, seed=3)
        a, b_perp, b_par = _patterns(cfg, np.random.default_rng(cfg.seed))
        assert np.allclose(a @ a.T, np.eye(5), atol=1e-12)
        assert np.allclose(b_perp @ b_perp.T, np.eye(4), atol=1e-12)
        assert np.allclose(b_perp @ a.T, 0.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(b_par, axis=1), 1.0, atol=1e-12)
        # entangled podcast patterns live inside the class-pattern span
        residual = b_par - (b_par @ a.T) @ a
        assert np.allclose(residual, 0.0, atol=1e-12)

    @staticmethod
    def check_against_per_clip_oracle(cfg):
        records = generate_synthetic(cfg)
        want = per_clip_synthetic(cfg)
        assert [(r.clip_id, r.podcast_id, r.label) for r in records] == [w[:3] for w in want]
        assert all(r.features.tobytes() == w[3].tobytes() for r, w in zip(records, want))
        corpus = records[0].features.base
        assert corpus.dtype == np.float32
        assert corpus.shape == (len(want), cfg.n_mfcc, cfg.frames)
        assert all(r.features.base is corpus and np.shares_memory(r.features, corpus)
                   for r in records)

    def test_features_are_rows_of_one_float32_array(self):
        self.check_against_per_clip_oracle(SyntheticConfig(
            n_podcasts=3, frames=7, n_mfcc=4, rho=0.4, sigma=0.7, seed=5,
            clips_per_class={"Fluent": 5, "Repetition": 2, "Prolongation": 3, "Block": 1,
                             "Interjection": 4}))

    # generate_synthetic draws the noise in blocks of max(1, 8192 // (n_mfcc * frames)) clips
    @pytest.mark.parametrize("kw", [
        # 6000 values a clip: blocks of one clip; train-paper's class map
        dict(n_podcasts=4, frames=300, n_mfcc=20, alpha=2.0, beta=2.0, rho=0.6, sigma=0.3,
             clips_per_class={"Fluent": 12, "Repetition": 12, "Prolongation": 12, "Block": 12,
                              "Interjection": 12}),
        # 60 values a clip: one block of 35 clips, shorter than a whole block
        dict(n_podcasts=3, frames=12, n_mfcc=5, clips_per_class=7, alpha=1.3, beta=0.7, rho=0.4,
             sigma=0.7),
        # 400 values a clip: blocks of 20 across class boundaries, then a ragged 5
        dict(n_podcasts=3, frames=20, n_mfcc=20, clips_per_class=9, rho=0.0, sigma=0.3),
        dict(n_podcasts=3, frames=7, n_mfcc=4, rho=1.0, sigma=0.7,
             clips_per_class={"Fluent": 5, "Repetition": 2, "Prolongation": 3, "Block": 1,
                              "Interjection": 4}),
        dict(n_podcasts=2, frames=12, n_mfcc=5, clips_per_class=3, rho=0.4, sigma=0.0),
    ], ids=["one-clip-blocks", "one-short-block", "ragged-blocks", "rho1", "sigma0"])
    def test_blocks_match_the_per_clip_oracle(self, kw):
        self.check_against_per_clip_oracle(SyntheticConfig(seed=5, **kw))

    def test_feature_shape_and_dtype(self):
        cfg = SyntheticConfig(n_mfcc=6, frames=11, clips_per_class=2)
        rec = generate_synthetic(cfg)[0]
        assert rec.features.shape == (6, 11)
        assert rec.features.dtype == np.float32

    def test_classes_linearly_separable_at_low_noise(self):
        cfg = SyntheticConfig(clips_per_class=30, sigma=0.05, alpha=1.0, beta=0.5, seed=4)
        records = generate_synthetic(cfg)
        x = np.stack([r.features.ravel() for r in records]).astype(np.float64)
        y = np.array([int(r.label) for r in records])
        order = np.random.default_rng(0).permutation(len(records))
        n_train = int(0.8 * len(records))
        tr, te = order[:n_train], order[n_train:]
        acc = ridge_onevsrest_accuracy(x[tr], y[tr], x[te], y[te], n_classes=5)
        assert acc >= 0.95

    @pytest.mark.parametrize("kw", [
        {"rho": 1.5}, {"sigma": -0.1}, {"clips_per_class": 0}, {"n_podcasts": 0},
        {"sigma": float("nan")}, {"alpha": float("inf")}, {"beta": float("nan")},
        {"frames": 0}, {"n_mfcc": 0}, {"n_podcasts": 200, "n_mfcc": 2, "frames": 3},
        {"clips_per_class": {"Foo": 3}},
    ])
    def test_bad_config_rejected(self, kw):
        with pytest.raises(InvalidConfig):
            SyntheticConfig(**kw).validate()

    def test_class_map_without_a_class_names_each_missing_one(self):
        cfg = SyntheticConfig(clips_per_class={"Fluent": 16, StutterClass.BLOCK: 12})
        with pytest.raises(InvalidConfig, match="no count for Repetition, Prolongation, "
                                                "Interjection$"):
            generate_synthetic(cfg)

    @pytest.mark.parametrize("first, second", [("Fluent", "fluent"),
                                               (StutterClass.FLUENT, " FLUENT ")])
    def test_class_given_twice_rejected(self, first, second):
        counts = dict.fromkeys(["Repetition", "Prolongation", "Block", "Interjection"], 2)
        cfg = SyntheticConfig(clips_per_class={first: 3, second: 5, **counts})
        for call in (cfg.class_counts, cfg.validate):
            with pytest.raises(InvalidConfig, match="gives Fluent twice"):
                call()
