"""Command line behaviour: config parsing, the full pipeline, and exit codes."""

import csv
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from conftest import INVALID_ARCHS, MALFORMED_DIRECTORIES, rewrite_header, rewrite_tensor_directory
from stutterkit import training
from stutterkit.checkpoint import load_checkpoint, save_checkpoint
from stutterkit.cli import CONFIG_KEYS, RunConfig, _write_feature_corpus, main
from stutterkit.data import StutterClass, SyntheticConfig, generate_synthetic, load_manifest
from stutterkit.errors import ConfigError
from stutterkit.evaluate import TABLE_COLUMNS, evaluate_model, export_embeddings, read_embeddings
from stutterkit.features import read_fmat
from stutterkit.model import ArchConfig, build_model


class TestRunConfig:
    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            RunConfig.load(overrides=["nosuch.thing=1"])

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            RunConfig.load(overrides=["train.warp_speed=9"])

    def test_bad_value_reports_key(self):
        with pytest.raises(ConfigError, match="train.max_epochs"):
            RunConfig.load(overrides=["train.max_epochs=soon"])

    def test_override_without_equals(self):
        with pytest.raises(ConfigError, match="key=value"):
            RunConfig.load(overrides=["train.lr"])

    def test_typed_parsing(self):
        cfg = RunConfig.load(overrides=[
            "arch.encoder_channels=8,8,8,8,8",
            "arch.contexts=-1,0,1;-1,0,1;-2,0,2;0;0",
            "arch.bn_before_relu=true",
            "synth.clips_per_class=Fluent:16,Block:12",
            "mfcc.fft_size=none",
            "split.ratios=0.8,0.1,0.1",
        ])
        assert cfg["arch"]["encoder_channels"] == (8, 8, 8, 8, 8)
        assert cfg["arch"]["contexts"] == ((-1, 0, 1), (-1, 0, 1), (-2, 0, 2), (0,), (0,))
        assert cfg["arch"]["bn_before_relu"] is True
        assert cfg["synth"]["clips_per_class"] == {StutterClass.FLUENT: 16,
                                                   StutterClass.BLOCK: 12}
        assert cfg["mfcc"]["fft_size"] is None
        assert cfg["split"]["ratios"] == (0.8, 0.1, 0.1)

    @pytest.mark.parametrize("pairs", ["Fluent:3,fluent:5", "Block:1,Fluent:3,FLUENT:3"])
    def test_class_given_twice_in_counts(self, pairs):
        with pytest.raises(ConfigError, match="synth.clips_per_class: .*gives Fluent twice"):
            RunConfig.load(overrides=[f"synth.clips_per_class={pairs}"])

    @pytest.mark.parametrize("pairs", ["Fluent:x", "Fluent:2.5,Block:2", "Fluent:"])
    def test_non_integer_pair_count(self, pairs):
        with pytest.raises(ConfigError, match="synth.clips_per_class: invalid literal for int"):
            RunConfig.load(overrides=[f"synth.clips_per_class={pairs}"])

    def test_scalar_counts(self):
        cfg = RunConfig.load(overrides=["synth.clips_per_class=20"])
        assert cfg["synth"]["clips_per_class"] == 20

    def test_file_parsing_and_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment only\n"
            "\n"
            "train.lr = 0.5   # inline comment\n"
            "train.max_epochs = 7\n"
        )
        cfg = RunConfig.load(path, overrides=["train.max_epochs=2"])
        assert cfg["train"]["lr"] == 0.5
        assert cfg["train"]["max_epochs"] == 2  # --set wins over the file

    def test_file_line_without_equals(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.lr 0.5\n")
        with pytest.raises(ConfigError, match=r":1: expected key = value"):
            RunConfig.load(path)

    def test_every_key_has_a_parser(self):
        # Pinned to the vocabulary of the hand-written table the fields replaced:
        # a new or renamed dataclass field shows up here as a new config key.
        want = {
            "arch": "n_podcasts:int n_mfcc:int encoder_channels:_parse_ints "
                    "contexts:_parse_contexts head_hidden:_parse_ints dropout:float "
                    "bn_before_relu:_parse_bool",
            "train": "objective:str lam:float lambda_schedule:str gamma:float "
                     "max_epochs:int batch_size:int lr:float "
                     "seed:int patience:int min_delta:float stage_bounds:_parse_ints "
                     "stage1_trains_encoder:_parse_bool",
            "mfcc": "n_mfcc:int window_ms:float hop_ms:float n_mels:int fft_size:_opt_int "
                    "log_floor:float",
            "split": "mode:str ratios:_parse_floats valid_fraction:float seed:int",
            "synth": "n_podcasts:int clips_per_class:_parse_counts frames:int n_mfcc:int "
                     "alpha:float beta:float rho:float sigma:float seed:int",
        }
        got = {section: " ".join(f"{key}:{parser.__name__}" for key, parser in keys.items())
               for section, keys in CONFIG_KEYS.items()}
        assert list(got.items()) == list(want.items())

    def test_readme_lists_every_config_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("### Config keys\n", 1)[1].split("\n| section | keys |\n", 1)[1]
        rows = {}
        for line in table.split("\n\n", 1)[0].splitlines()[1:]:
            section, keys = line.strip().strip("|").split("|")
            while re.search(r"\([^()]*\)", keys):  # drop the notes, nested ones too
                keys = re.sub(r"\([^()]*\)", "", keys)
            rows[section.strip().strip("`")] = re.findall(r"`([^`]+)`", keys)
        assert rows == {section: list(keys) for section, keys in CONFIG_KEYS.items()}


SYNTH_ARGS = [
    "--set", "synth.n_podcasts=3",
    "--set", "synth.clips_per_class=6",
    "--set", "synth.frames=16",
    "--set", "synth.n_mfcc=8",
    "--set", "synth.seed=3",
]
ARCH_ARGS = [
    "--set", "arch.n_mfcc=8",
    "--set", "arch.encoder_channels=8,8,8,8,8",
    "--set", "arch.head_hidden=8,8",
]
TRAIN_ARGS = ARCH_ARGS + [
    "--set", "train.max_epochs=2",
    "--set", "train.batch_size=16",
    "--set", "train.lr=0.01",
    "--set", "split.mode=within",
]


# Config values each subcommand must reject as a config error (exit 1), with the
# name its message must carry. TRAIN_ARGS split within podcasts.
MALFORMED_VALUES = [
    (["split.ratios=0.5,0.5", "split.mode=podcast"], "ratios"),
    (["split.ratios=nan,0.1,0.1", "split.mode=podcast"], "ratios"),
    (["split.ratios=1,1,1", "split.mode=podcast"], "ratios"),
    (["split.ratios=-1,1,1", "split.mode=podcast"], "ratios"),
    (["split.valid_fraction=nan"], "valid_fraction"),
    (["split.valid_fraction=2"], "valid_fraction"),
    (["split.valid_fraction=-1"], "valid_fraction"),
    (["mfcc.window_ms=0"], "window_ms"),
    (["mfcc.log_floor=nan"], "log_floor"),
    (["mfcc.n_mfcc=0"], "n_mfcc"),
    (["mfcc.hop_ms=0"], "hop_ms"),
    (["mfcc.hop_ms=nan"], "hop_ms"),
    (["mfcc.window_ms=-5"], "window_ms"),
    (["mfcc.fft_size=0"], "fft_size"),
    # positive, but 0 samples at the 8 kHz WAV these cases extract from
    (["mfcc.hop_ms=0.01"], "hop_ms"),
    (["mfcc.window_ms=0.01"], "window_ms"),
    (["mfcc.fft_size=64"], "fft_size"),  # smaller than the 160-sample window
    (["synth.sigma=nan"], "sigma"),
    (["synth.frames=0"], "frames"),
    (["synth.n_mfcc=0"], "n_mfcc"),
    (["synth.n_podcasts=200", "synth.n_mfcc=2", "synth.frames=3"], "n_mfcc * frames"),
    (["synth.clips_per_class=Foo:3"], "synth.clips_per_class"),
    # README's pair syntax, with the three classes it leaves out named
    (["synth.clips_per_class=Fluent:16,Block:12"], "no count for Repetition, Prolongation, "
                                                   "Interjection"),
    (["synth.clips_per_class=Fluent:3,fluent:5,Repetition:2,Prolongation:2,Block:2,"
      "Interjection:2"], "gives Fluent twice"),
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--out-dir", str(out)] + SYNTH_ARGS) == 0
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, corpus):
    out = tmp_path_factory.mktemp("run")
    ckpt = out / "model.ckpt"
    rc = main(["train", "--manifest", str(corpus / "manifest.csv"),
               "--out", str(ckpt)] + TRAIN_ARGS)
    assert rc == 0
    return ckpt


@pytest.fixture(scope="module")
def mixed_corpus(tmp_path_factory):
    """70 clips of 15-40 frames: two eval batches, each cropped to its shortest clip."""
    records = generate_synthetic(SyntheticConfig(
        n_podcasts=3, clips_per_class=14, frames=40, n_mfcc=8, seed=4))
    rng = np.random.default_rng(4)
    for rec in records:
        rec.features = rec.features[:, :rng.integers(15, 41)]
    out = tmp_path_factory.mktemp("mixed")
    return _write_feature_corpus(records, str(out))


class TestPipeline:
    def test_synth_writes_corpus(self, corpus, capsys):
        records = load_manifest(corpus / "manifest.csv")
        assert len(records) == 30
        assert sorted(r.clip_id for r in records) == sorted(
            p.stem for p in corpus.glob("*.fmat")
        )
        for rec in records:
            assert read_fmat(rec.feature_path).shape == (8, 16)

    def test_synth_is_deterministic(self, corpus, tmp_path):
        again = tmp_path / "again"
        assert main(["synth", "--out-dir", str(again)] + SYNTH_ARGS) == 0
        for path in sorted(corpus.glob("*.fmat")):
            assert (again / path.name).read_bytes() == path.read_bytes()

    def test_train_writes_checkpoint_and_log(self, trained, capsys):
        assert trained.exists()
        log = trained.parent / f"{trained.name}.log.csv"
        with open(log, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "epoch" and len(rows) == 3  # header + 2 epochs

    def test_train_takes_n_mfcc_from_the_features(self, corpus, tmp_path, capsys):
        # the corpus has 8 MFCCs, not ArchConfig's default 20, and no arch.n_mfcc is set
        ckpt = tmp_path / "m.ckpt"
        assert TRAIN_ARGS[:2] == ["--set", "arch.n_mfcc=8"]
        assert main(["train", "--manifest", str(corpus / "manifest.csv"),
                     "--out", str(ckpt)] + TRAIN_ARGS[2:]) == 0
        assert load_checkpoint(ckpt)[0].arch.n_mfcc == 8

    def test_inspect_prints_header_summary(self, trained, capsys):
        assert main(["inspect", "--checkpoint", str(trained)]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["extra"]["objective"] == "baseline"
        assert shown["arch"]["n_podcasts"] == 3  # all podcasts stay in a within split
        assert "tensors" not in shown
        assert shown["n_tensors"] > 0 and shown["n_values"] > shown["n_tensors"]

    def test_eval_table_report_embeddings(self, trained, corpus, tmp_path, capsys):
        report = tmp_path / "report.json"
        emb_csv = tmp_path / "emb.csv"
        rc = main(["eval", "--checkpoint", str(trained),
                   "--manifest", str(corpus / "manifest.csv"),
                   "--report", str(report), "--export-embeddings", str(emb_csv)])
        assert rc == 0
        out = capsys.readouterr().out
        assert list(TABLE_COLUMNS) == out.splitlines()[1].split()

        doc = json.loads(report.read_text())
        assert doc["columns"] == list(TABLE_COLUMNS)
        assert np.asarray(doc["confusion"]).shape == (5, 5)
        assert np.asarray(doc["confusion"]).sum() == 30

        emb, ids, podcasts, labels = read_embeddings(emb_csv)
        assert emb.shape == (30, 16) and len(ids) == 30
        assert set(podcasts) == {"pod0", "pod1", "pod2"}

    def test_eval_is_repeatable(self, trained, corpus, tmp_path, capsys):
        outputs, payloads = [], []
        for i in range(2):
            report = tmp_path / f"r{i}.json"
            assert main(["eval", "--checkpoint", str(trained),
                         "--manifest", str(corpus / "manifest.csv"),
                         "--report", str(report)]) == 0
            outputs.append(capsys.readouterr().out)
            payloads.append(report.read_bytes())
        assert outputs[0] == outputs[1].replace("r1.json", "r0.json")
        assert payloads[0] == payloads[1]

    def test_eval_forwards_each_clip_once(self, trained, mixed_corpus, tmp_path,
                                          monkeypatch, capsys):
        stacked = []
        make_batch = training.make_batch

        def counting(records, indices, *args, **kwargs):
            stacked.extend(indices)
            return make_batch(records, indices, *args, **kwargs)

        monkeypatch.setattr(training, "make_batch", counting)
        report, emb_csv = tmp_path / "report.json", tmp_path / "emb.csv"
        assert main(["eval", "--checkpoint", str(trained), "--manifest", mixed_corpus,
                     "--report", str(report), "--export-embeddings", str(emb_csv)]) == 0
        records = load_manifest(mixed_corpus)
        assert sorted(stacked) == list(range(len(records)))
        monkeypatch.undo()

        model, _ = load_checkpoint(trained)
        want = evaluate_model(model, records)
        assert want.table() in capsys.readouterr().out
        assert report.read_text() == want.to_json() + "\n"
        alone = tmp_path / "alone.csv"
        export_embeddings(model, records, alone)
        assert emb_csv.read_bytes() == alone.read_bytes()

    def test_probe_runs_on_exported_embeddings(self, trained, corpus, tmp_path, capsys):
        emb_csv = tmp_path / "emb.csv"
        assert main(["eval", "--checkpoint", str(trained),
                     "--manifest", str(corpus / "manifest.csv"),
                     "--export-embeddings", str(emb_csv)]) == 0
        capsys.readouterr()
        assert main(["probe", "--embeddings", str(emb_csv), "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("speaker probe accuracy ")
        assert "3 podcasts" in out

    def test_mode_lambda_seed_flags_override_config(self, corpus, tmp_path, capsys):
        ckpt = tmp_path / "mtl.ckpt"
        rc = main(["train", "--manifest", str(corpus / "manifest.csv"),
                   "--out", str(ckpt), "--mode", "mtl", "--lambda", "0.25",
                   "--seed", "5", "--set", "train.objective=baseline"] + TRAIN_ARGS)
        assert rc == 0
        capsys.readouterr()
        assert main(["inspect", "--checkpoint", str(ckpt)]) == 0
        extra = json.loads(capsys.readouterr().out)["extra"]
        assert extra["objective"] == "mtl"
        assert extra["lambda"] == 0.25
        assert extra["seed"] == 5

    def test_config_file_beaten_by_set(self, corpus, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("train.max_epochs = 3\ntrain.batch_size = 16\ntrain.lr = 0.01\n")
        ckpt = tmp_path / "one.ckpt"
        log = tmp_path / "one.log.csv"
        rc = main(["train", "--manifest", str(corpus / "manifest.csv"),
                   "--out", str(ckpt), "--log", str(log), "--config", str(cfg),
                   "--set", "train.max_epochs=1", "--set", "split.mode=within"]
                  + ARCH_ARGS)
        assert rc == 0
        with open(log, newline="") as fh:
            assert len(list(csv.reader(fh))) == 2  # header + exactly 1 epoch


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["synth", "--out-dir", "x", "--frobnicate"]) == 1

    def test_unknown_config_key(self, tmp_path):
        assert main(["synth", "--out-dir", str(tmp_path / "o"),
                     "--set", "synth.volume=11"]) == 1

    def test_removed_paper_sign_key_is_unknown(self, corpus, tmp_path, capsys):
        """train.gamma = -10 replaces train.sigmoid_paper_sign = true."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("train.sigmoid_paper_sign = true\n")
        assert main(["train", "--manifest", str(corpus / "manifest.csv"),
                     "--out", str(tmp_path / "m.ckpt"), "--config", str(cfg)] + TRAIN_ARGS) == 1
        assert "unknown config key 'train.sigmoid_paper_sign'" in capsys.readouterr().err

    def test_invalid_lambda(self, corpus, tmp_path):
        rc = main(["train", "--manifest", str(corpus / "manifest.csv"),
                   "--out", str(tmp_path / "m.ckpt"), "--mode", "mtl",
                   "--lambda", "1.5"] + TRAIN_ARGS)
        assert rc == 1

    def test_bad_split_mode(self, corpus, tmp_path):
        rc = main(["train", "--manifest", str(corpus / "manifest.csv"),
                   "--out", str(tmp_path / "m.ckpt"),
                   "--set", "split.mode=sideways"] + ARCH_ARGS)
        assert rc == 1

    def test_two_stage_bounds_is_config_error(self, corpus, tmp_path, capsys):
        rc = main(["train", "--manifest", str(corpus / "manifest.csv"),
                   "--out", str(tmp_path / "m.ckpt"), "--set", "train.stage_bounds=1,2"]
                  + TRAIN_ARGS)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("sets, name", MALFORMED_VALUES,
                             ids=[sets[0] for sets, _ in MALFORMED_VALUES])
    def test_malformed_value_is_config_error(self, corpus, tmp_path, capsys, sets, name):
        section = sets[0].partition(".")[0]
        if section == "split":
            argv = ["train", "--manifest", str(corpus / "manifest.csv"),
                    "--out", str(tmp_path / "m.ckpt")] + TRAIN_ARGS
        elif section == "mfcc":
            write_wav(tmp_path / "a.wav", 440.0)
            write_audio_manifest(tmp_path / "audio.csv",
                                 [["a", "ep1", "Fluent", str(tmp_path / "a.wav"), "", "", ""]])
            argv = ["features", "--manifest", str(tmp_path / "audio.csv"),
                    "--out-dir", str(tmp_path / "feats")]
        else:
            argv = ["synth", "--out-dir", str(tmp_path / "o")]
        for item in sets:
            argv += ["--set", item]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert len(err.splitlines()) == 1 and name in err

    def test_missing_manifest(self, tmp_path, capsys):
        rc = main(["train", "--manifest", str(tmp_path / "absent.csv"),
                   "--out", str(tmp_path / "m.ckpt")])
        assert rc == 2
        assert "data error:" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["synth", "--out-dir", str(tmp_path / "o"),
                     "--config", str(tmp_path / "absent.cfg")]) == 2

    def test_missing_checkpoint(self, corpus, tmp_path):
        rc = main(["eval", "--checkpoint", str(tmp_path / "absent.ckpt"),
                   "--manifest", str(corpus / "manifest.csv")])
        assert rc == 2

    @pytest.mark.parametrize("text", [
        "",
        "clip_id,podcast_id,class,e0\nc0,pod0,Fluent,0.5\nc1,pod1,Fluent,abc\n",
        "clip_id,podcast_id,class,e0,e1\nc0,pod0,Fluent,0.5,0.1\nc1,pod1,Fluent,0.5\n",
        "clip,speaker,label,e0\n" + "".join(
            f"c{i},pod{i % 2},Fluent,{i}\n" for i in range(6)),
        "clip_id,podcast_id,class\n" + "".join(f"c{i},pod{i % 2},Fluent\n" for i in range(6)),
    ], ids=["empty", "non_numeric", "short_row", "wrong_header", "no_value_columns"])
    def test_malformed_embeddings_csv(self, tmp_path, capsys, text):
        path = tmp_path / "emb.csv"
        path.write_text(text)
        assert main(["probe", "--embeddings", str(path)]) == 2
        assert "data error:" in capsys.readouterr().err

    def test_eval_names_clips_too_short_for_the_encoder(self, tmp_path, capsys):
        records = generate_synthetic(SyntheticConfig(
            n_podcasts=3, clips_per_class=4, frames=30, seed=0))
        short = records[7]
        short.features = short.features[:, :10]
        manifest = _write_feature_corpus(records, tmp_path / "feats")
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, build_model(ArchConfig(n_podcasts=3, encoder_channels=(8,) * 5), 0))
        assert main(["eval", "--checkpoint", str(ckpt), "--manifest", manifest]) == 2
        err = capsys.readouterr().err
        assert "data error:" in err and "15 frames" in err
        assert err.rstrip().endswith(short.clip_id)

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_mixed_coefficient_counts_name_the_clip(self, tmp_path, capsys, command):
        records = generate_synthetic(SyntheticConfig(
            n_podcasts=3, clips_per_class=4, frames=30, n_mfcc=5, seed=0))
        odd = records[7]
        odd.features = odd.features[:4]
        manifest = _write_feature_corpus(records, tmp_path / "feats")
        ckpt = tmp_path / "m.ckpt"
        if command == "train":
            argv = ["train", "--manifest", manifest, "--out", str(ckpt)] + TRAIN_ARGS
        else:
            save_checkpoint(ckpt, build_model(ArchConfig(
                n_podcasts=3, n_mfcc=5, encoder_channels=(8,) * 5), 0))
            argv = ["eval", "--checkpoint", str(ckpt), "--manifest", manifest]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "data error:" in err and "Traceback" not in err
        assert f"clip {odd.clip_id} has 4 feature rows, not 5" in err

    @pytest.mark.parametrize("case", sorted(MALFORMED_DIRECTORIES))
    def test_malformed_checkpoint_directory(self, trained, corpus, tmp_path, capsys, case):
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(trained.read_bytes())
        rewrite_tensor_directory(ckpt, MALFORMED_DIRECTORIES[case])
        rc = main(["eval", "--checkpoint", str(ckpt),
                   "--manifest", str(corpus / "manifest.csv")])
        assert rc == 2
        assert "data error:" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(INVALID_ARCHS))
    def test_invalid_checkpoint_arch(self, trained, corpus, tmp_path, capsys, case):
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(trained.read_bytes())
        rewrite_header(ckpt, lambda header: INVALID_ARCHS[case](header["arch"]))
        rc = main(["eval", "--checkpoint", str(ckpt),
                   "--manifest", str(corpus / "manifest.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "data error:" in err and "header arch is invalid" in err

    @pytest.mark.parametrize("edit", [
        lambda raw: raw[:4] + struct.pack("<II", 0xFFFFFFFF, 0xFFFFFFFF) + raw[12:],
        lambda raw: raw + bytes(4),
    ], ids=["oversized_header", "trailing_bytes"])
    def test_corrupt_feature_file(self, trained, tmp_path, capsys, edit):
        assert main(["synth", "--out-dir", str(tmp_path)] + SYNTH_ARGS) == 0
        fmat = sorted(tmp_path.glob("*.fmat"))[0]
        fmat.write_bytes(edit(fmat.read_bytes()))
        rc = main(["eval", "--checkpoint", str(trained),
                   "--manifest", str(tmp_path / "manifest.csv")])
        assert rc == 2
        assert "data error:" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_training(self, corpus, tmp_path, capsys):
        rc = main(["train", "--manifest", str(corpus / "manifest.csv"),
                   "--out", str(tmp_path / "m.ckpt"),
                   "--set", "train.lr=1e12", "--set", "split.mode=within"]
                  + ARCH_ARGS)
        assert rc == 3
        assert "numeric failure:" in capsys.readouterr().err


def write_wav(path, freq, sample_rate=8000, seconds=0.8):
    t = np.arange(int(sample_rate * seconds)) / sample_rate
    samples = (0.4 * np.sin(2.0 * np.pi * freq * t) * 32767.0).astype(np.int16)
    wavfile.write(path, sample_rate, samples)


def write_audio_manifest(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["clip_id", "podcast_id", "label", "audio_path", "start_ms", "stop_ms",
             "feature_path"]
        )
        writer.writerows(rows)


class TestFeaturesCommand:
    def test_extracts_mfcc_corpus(self, tmp_path, capsys):
        write_wav(tmp_path / "a.wav", 440.0)
        write_wav(tmp_path / "b.wav", 1000.0)
        manifest = tmp_path / "audio.csv"
        write_audio_manifest(manifest, [
            ["clip_a", "ep1", "Fluent", str(tmp_path / "a.wav"), "100", "600", ""],
            ["clip_b", "ep1", "Block", str(tmp_path / "b.wav"), "", "", ""],
        ])
        out = tmp_path / "feats"
        rc = main(["features", "--manifest", str(manifest), "--out-dir", str(out),
                   "--set", "mfcc.n_mfcc=13"])
        assert rc == 0
        assert "wrote 2 feature files" in capsys.readouterr().out

        records = {r.clip_id: r for r in load_manifest(out / "manifest.csv")}
        a = read_fmat(records["clip_a"].feature_path)
        b = read_fmat(records["clip_b"].feature_path)
        assert a.shape[0] == b.shape[0] == 13
        # clip_a covers 500 ms of the 800 ms file, so it has fewer frames
        assert a.shape[1] < b.shape[1]
        assert records["clip_a"].label is StutterClass.FLUENT

    def test_partial_failure_keeps_good_clips(self, tmp_path, capsys):
        write_wav(tmp_path / "ok.wav", 440.0)
        manifest = tmp_path / "audio.csv"
        write_audio_manifest(manifest, [
            ["good", "ep1", "Fluent", str(tmp_path / "ok.wav"), "", "", ""],
            ["gone", "ep1", "Block", str(tmp_path / "missing.wav"), "", "", ""],
            ["blank", "ep1", "Block", "", "", "", ""],
        ])
        out = tmp_path / "feats"
        rc = main(["features", "--manifest", str(manifest), "--out-dir", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "wrote 1 feature files" in captured.out
        assert "failed gone:" in captured.err
        assert "failed blank: no audio_path" in captured.err
        kept = load_manifest(out / "manifest.csv")
        assert [r.clip_id for r in kept] == ["good"]
