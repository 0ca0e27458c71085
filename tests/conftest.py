import json
import struct

import numpy as np
import pytest

from stutterkit.model import ArchConfig, build_model


def make_tiny_arch(n_podcasts=3, channels=4, heads=(8, 8), dropout=0.2, n_mfcc=5):
    return ArchConfig(
        n_podcasts=n_podcasts,
        n_mfcc=n_mfcc,
        encoder_channels=(channels,) * 5,
        contexts=((-1, 0, 1), (-1, 0, 1), (-2, 0, 2), (0,), (0,)),
        head_hidden=heads,
        dropout=dropout,
    )


@pytest.fixture
def tiny_arch():
    return make_tiny_arch()


def f64_twin(model32):
    """Same architecture and bit-identical state, promoted to float64."""
    twin = build_model(model32.arch, seed=0, dtype=np.float64)
    twin.load_snapshot(
        {name: a.astype(np.float64) for name, a in model32.state_arrays().items()}
    )
    return twin


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _odd_nbytes(tensors):
    # keeps the directory's byte total, so only the per-entry check can catch it
    tensors[0]["nbytes"] -= 2
    tensors[1]["nbytes"] += 2


MALFORMED_DIRECTORIES = {
    "shape_disagrees_with_nbytes": lambda tensors: tensors[0]["shape"].append(2),
    "missing_offset": lambda tensors: tensors[0].pop("offset"),
    "nbytes_not_multiple_of_4": _odd_nbytes,
}


def rewrite_tensor_directory(path, edit):
    """Apply edit(tensors) to a saved checkpoint's tensor directory, keeping the payload."""
    raw = path.read_bytes()
    magic, version, header_len = struct.unpack("<4sII", raw[:12])
    header = json.loads(raw[12 : 12 + header_len])
    edit(header["tensors"])
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(struct.pack("<4sII", magic, version, len(blob)) + blob
                     + raw[12 + header_len :])
