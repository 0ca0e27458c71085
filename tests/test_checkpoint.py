"""Checkpoint container format: roundtrip fidelity and corruption handling."""

import json
import struct

import numpy as np
import pytest

from conftest import MALFORMED_DIRECTORIES, make_tiny_arch, rewrite_tensor_directory
from stutterkit import nn
from stutterkit.checkpoint import (
    MAGIC,
    VERSION,
    inspect_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from stutterkit.data import SyntheticConfig, generate_synthetic
from stutterkit.errors import CorruptCheckpoint, InvalidConfig
from stutterkit.model import build_model
from stutterkit.training import TrainConfig, train


@pytest.fixture
def trained(tmp_path):
    """A briefly trained model (moved bn stats) saved to disk."""
    records = generate_synthetic(
        SyntheticConfig(n_podcasts=3, clips_per_class=4, frames=12, n_mfcc=5, seed=0)
    )
    model = build_model(make_tiny_arch(), seed=1)
    train(model, records, [], TrainConfig(objective="baseline", max_epochs=1, batch_size=10))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, speaker_map={"pod0": 0, "pod1": 1, "pod2": 2},
                    extra={"objective": "baseline"})
    return model, path


class TestRoundtrip:
    def test_state_restored_bitwise(self, trained):
        model, path = trained
        loaded, header = load_checkpoint(path)
        for name, arr in model.state_arrays().items():
            assert np.array_equal(arr, loaded.state_arrays()[name]), name
        assert loaded.arch == model.arch
        assert header["speaker_map"] == {"pod0": 0, "pod1": 1, "pod2": 2}
        assert header["extra"] == {"objective": "baseline"}

    def test_load_draws_no_initial_values(self, trained, monkeypatch):
        model, path = trained

        def no_draws(*args):
            raise AssertionError("load_checkpoint drew initial values")

        monkeypatch.setattr(nn, "_uniform_init", no_draws)
        loaded, _ = load_checkpoint(path)
        for name, arr in model.state_arrays().items():
            assert arr.tobytes() == loaded.state_arrays()[name].tobytes(), name

    def test_predictions_survive(self, trained, rng):
        model, path = trained
        loaded, _ = load_checkpoint(path)
        x = rng.normal(size=(4, 5, 12)).astype(np.float32)
        assert np.array_equal(model.predict_batch(x), loaded.predict_batch(x))

    def test_inspect_reads_header_only(self, trained):
        _, path = trained
        header = inspect_checkpoint(path)
        assert header["arch"]["n_podcasts"] == 3
        names = [t["name"] for t in header["tensors"]]
        assert names == sorted(names)
        # inspect must not depend on the payload at all
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 100])
        assert inspect_checkpoint(path) == header

    def test_refuses_float64_models(self, tmp_path):
        model = build_model(make_tiny_arch(), seed=0, dtype=np.float64)
        with pytest.raises(InvalidConfig, match="float32"):
            save_checkpoint(tmp_path / "m.ckpt", model)


class TestCorruption:
    def corrupt(self, path, mutate):
        raw = bytearray(path.read_bytes())
        mutate(raw)
        path.write_bytes(bytes(raw))

    def test_truncated_prefix(self, trained):
        _, path = trained
        path.write_bytes(path.read_bytes()[:7])
        with pytest.raises(CorruptCheckpoint, match="truncated"):
            load_checkpoint(path)

    def test_bad_magic(self, trained):
        _, path = trained
        self.corrupt(path, lambda raw: raw.__setitem__(slice(0, 4), b"NOPE"))
        with pytest.raises(CorruptCheckpoint, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version(self, trained):
        _, path = trained
        self.corrupt(
            path, lambda raw: raw.__setitem__(slice(4, 8), struct.pack("<I", VERSION + 1))
        )
        with pytest.raises(CorruptCheckpoint, match="version"):
            load_checkpoint(path)

    def test_garbled_header_json(self, trained):
        _, path = trained
        self.corrupt(path, lambda raw: raw.__setitem__(slice(12, 20), b"{broken}"))
        with pytest.raises(CorruptCheckpoint, match="unreadable header"):
            load_checkpoint(path)

    def test_truncated_payload(self, trained):
        _, path = trained
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 8])
        with pytest.raises(CorruptCheckpoint, match="payload"):
            load_checkpoint(path)

    def test_header_payload_mismatch(self, trained):
        # same-length edit of the stored arch: tensor shapes no longer match
        _, path = trained
        raw = path.read_bytes()
        assert raw.count(b'"n_podcasts": 3') == 1
        path.write_bytes(raw.replace(b'"n_podcasts": 3', b'"n_podcasts": 4'))
        with pytest.raises(CorruptCheckpoint, match="does not match"):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", sorted(MALFORMED_DIRECTORIES))
    def test_malformed_tensor_directory(self, trained, case):
        _, path = trained
        rewrite_tensor_directory(path, MALFORMED_DIRECTORIES[case])
        with pytest.raises(CorruptCheckpoint, match="tensor entry|tensor '"):
            load_checkpoint(path)

    def test_tensor_past_payload_end(self, trained):
        _, path = trained
        rewrite_tensor_directory(path, lambda tensors: tensors[-1].update(
            offset=tensors[-1]["offset"] + 4))
        with pytest.raises(CorruptCheckpoint, match="past the payload"):
            load_checkpoint(path)

    def test_magic_matches_format_constant(self, trained):
        _, path = trained
        assert path.read_bytes()[:4] == MAGIC == b"SNCK"
        version, header_len = struct.unpack("<II", path.read_bytes()[4:12])
        assert version == VERSION
        header = json.loads(path.read_bytes()[12 : 12 + header_len])
        assert set(header) >= {"arch", "tensors", "speaker_map", "extra"}
