"""Binary model checkpoints: magic 'SNCK', JSON header, raw float32 payload.

Layout (all integers little-endian):

    bytes 0..3    magic b"SNCK"
    bytes 4..7    u32 format version (currently 1)
    bytes 8..11   u32 header length in bytes
    ...           UTF-8 JSON header
    ...           payload: the named tensors, '<f4', back to back

The header records the architecture, the class map, the podcast map used for
speaker targets, free-form run metadata, and a tensor directory of (name,
shape, offset, nbytes). Every parameter and running-statistics buffer appears
exactly once; a save/load round trip is bit-exact. The header can be read
without touching the payload.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .errors import CorruptCheckpoint, InvalidArch, InvalidConfig, ShapeMismatch
from .model import CLASS_NAMES, ArchConfig, MultiBranchModel

MAGIC = b"SNCK"
VERSION = 1
_PREFIX = struct.Struct("<4sII")


def save_checkpoint(path, model: MultiBranchModel, speaker_map=None, extra=None):
    """Serialize a model's parameters and buffers; payload is float32 only."""
    if model.dtype is not np.float32:
        raise InvalidConfig("checkpoints store float32 tensors; train in float32 to save")
    arrays = model.state_arrays()
    directory = []
    offset = 0
    names = sorted(arrays)
    for name in names:
        a = arrays[name]
        nbytes = a.size * 4
        directory.append(
            {"name": name, "shape": list(a.shape), "offset": offset, "nbytes": nbytes}
        )
        offset += nbytes
    header = {
        "arch": model.arch.to_dict(),
        "class_names": list(CLASS_NAMES),
        "speaker_map": dict(speaker_map) if speaker_map else None,
        "extra": dict(extra) if extra else {},
        "tensors": directory,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(MAGIC, VERSION, len(blob)))
        fh.write(blob)
        for name in names:
            fh.write(np.ascontiguousarray(arrays[name], dtype="<f4").data)


def _read_header(fh, path):
    prefix = fh.read(_PREFIX.size)
    if len(prefix) < _PREFIX.size:
        raise CorruptCheckpoint(f"{path}: truncated before header")
    magic, version, header_len = _PREFIX.unpack(prefix)
    if magic != MAGIC:
        raise CorruptCheckpoint(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise CorruptCheckpoint(f"{path}: unsupported format version {version}")
    blob = fh.read(header_len)
    if len(blob) < header_len:
        raise CorruptCheckpoint(f"{path}: truncated header")
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptCheckpoint(f"{path}: unreadable header ({exc})") from exc
    if not isinstance(header.get("tensors"), list) or "arch" not in header:
        raise CorruptCheckpoint(f"{path}: header missing arch or tensor directory")
    return header


def inspect_checkpoint(path) -> dict:
    """Read only the header: arch, maps, metadata, tensor directory."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def _tensor_entry(t, payload_len, path) -> tuple[str, list[int], int, int]:
    """One tensor directory entry as (name, shape, offset, nbytes), or CorruptCheckpoint."""
    try:
        name, shape, offset, nbytes = t["name"], t["shape"], t["offset"], t["nbytes"]
    except (KeyError, TypeError) as exc:
        raise CorruptCheckpoint(f"{path}: malformed tensor entry {t!r} ({exc!r})") from exc
    if not (isinstance(name, str) and isinstance(shape, list)
            and all(type(i) is int and i >= 0 for i in [offset, nbytes, *shape])):
        raise CorruptCheckpoint(f"{path}: malformed tensor entry {t!r}")
    if nbytes != 4 * math.prod(shape):
        raise CorruptCheckpoint(f"{path}: tensor {name!r} of shape {shape} has {nbytes} bytes")
    if offset + nbytes > payload_len:
        raise CorruptCheckpoint(f"{path}: tensor {name!r} ends past the payload")
    return name, shape, offset, nbytes


def load_checkpoint(path) -> tuple[MultiBranchModel, dict]:
    """Rebuild the model a checkpoint describes and restore its exact state."""
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        payload = fh.read()
    entries = [_tensor_entry(t, len(payload), path) for t in header["tensors"]]
    total = sum(nbytes for _, _, _, nbytes in entries)
    if len(payload) != total:
        raise CorruptCheckpoint(
            f"{path}: payload is {len(payload)} bytes, directory says {total}"
        )
    # Read-only views of the payload: load_snapshot copies them into the undrawn model.
    snap = {
        name: np.frombuffer(payload, dtype="<f4", count=nbytes // 4, offset=offset).reshape(shape)
        for name, shape, offset, nbytes in entries
    }
    try:
        arch = ArchConfig.from_dict(header["arch"])
        model = MultiBranchModel(arch)
        model.load_snapshot(snap)
    except InvalidArch as exc:
        raise CorruptCheckpoint(f"{path}: header arch is invalid ({exc})") from exc
    except (KeyError, TypeError, ShapeMismatch) as exc:
        raise CorruptCheckpoint(f"{path}: state does not match header arch ({exc})") from exc
    return model, header
