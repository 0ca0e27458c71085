"""Shared TDNN encoder with fluent / disfluent / speaker classifier branches.

The encoder stacks five time-delay layers (contexts [t-2..t+2], {t-2,t,t+2},
{t-3,t,t+3}, {t}, {t}), each followed by ReLU and 1-D batch norm, then a
statistical pooling layer that produces the fixed-length embedding. Three
independent heads of three fully connected layers each consume the embedding;
the speaker head can be preceded by a gradient reversal layer.

Class indices are fixed: 0=Fluent, 1=Repetition, 2=Prolongation, 3=Block,
4=Interjection. The disfluent head is 4-way over indices 1..4 (head output
j maps to class j+1); the fluent head is binary with 0=fluent, 1=disfluent.

Inference uses the two-branch rule: if the fluent head picks fluent the clip
is fluent, otherwise the disfluent head's argmax decides; the speaker head is
never consulted. Argmax ties break toward the lower index.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, fields
from enum import IntEnum
from types import MappingProxyType

import numpy as np

from . import nn
from .errors import InvalidArch, NoPendingForward, ShapeMismatch


class StutterClass(IntEnum):
    FLUENT = 0
    REPETITION = 1
    PROLONGATION = 2
    BLOCK = 3
    INTERJECTION = 4


CLASS_NAMES = tuple(c.name.capitalize() for c in StutterClass)
CLASS_INITIALS = ("F", "R", "P", "B", "I")

PARTITIONS = ("encoder", "fluent", "disfluent", "speaker")

DEFAULT_CONTEXTS = ((-2, -1, 0, 1, 2), (-2, 0, 2), (-3, 0, 3), (0,), (0,))

# An eval encode runs clip groups whose widest activation fits about one L2 cache;
# every eval op is per clip or elementwise, so grouping changes no output bit.
EVAL_GROUP_BYTES = 2 << 20


@dataclass(frozen=True)
class ArchConfig:
    n_podcasts: int
    n_mfcc: int = 20
    encoder_channels: tuple[int, ...] = (64, 64, 64, 64, 64)
    contexts: tuple[tuple[int, ...], ...] = DEFAULT_CONTEXTS
    head_hidden: tuple[int, ...] = (64, 64)
    dropout: float = 0.2
    bn_before_relu: bool = False  # default order: layer -> ReLU -> batch norm

    def validate(self):
        if len(self.encoder_channels) != 5 or len(self.contexts) != 5:
            raise InvalidArch("encoder must have exactly 5 time-delay layers")
        if self.n_podcasts < 2:
            raise InvalidArch(f"speaker head needs >= 2 podcasts, got {self.n_podcasts}")
        if any(c < 1 for c in self.encoder_channels) or self.n_mfcc < 1:
            raise InvalidArch("channel counts must be positive")
        if not (0.0 <= self.dropout < 1.0):
            raise InvalidArch(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def embedding_dim(self) -> int:
        return 2 * self.encoder_channels[-1]

    @property
    def context_span(self) -> int:
        return sum(max(c) - min(c) for c in self.contexts)

    @property
    def min_frames(self) -> int:
        return self.context_span + 1

    def to_dict(self) -> dict:
        """Every field by name; json writes its tuples as lists."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ArchConfig":
        """Inverse of to_dict, also after a json round trip turned tuples into lists."""
        def frozen(v):
            return tuple(map(frozen, v)) if isinstance(v, list) else v
        return cls(**{f.name: frozen(d[f.name]) for f in fields(cls)})


class _EncoderBlock:
    def __init__(self, c_in, c_out, context, bn_before_relu, dtype):
        self.tdnn = nn.TdnnLayer(c_in, c_out, context, dtype=dtype)
        self.relu = nn.Relu()
        self.bn = nn.BatchNorm1d(c_out, dtype=dtype)
        self.bn_first = bn_before_relu

    def activate(self, y, train):
        """ReLU and batch norm, in the block's order, over its TDNN's output y."""
        if self.bn_first:
            y = self.bn.forward(y, train, out=y)
            return self.relu.forward(y, cache=train, out=y)
        y = self.relu.forward(y, cache=train, out=y)
        return self.bn.forward(y, train, out=y)

    def output(self):
        """The pending train-mode forward's output, rebuilt from batch norm's x-hat by its ops."""
        y = self.bn.output()
        return self.relu.forward(y, cache=False, out=y) if self.bn_first else y

    def backward(self, dy, before=None):
        """Input gradient; before is the block whose output was this one's input (None: first)."""
        # dy is always the model's own: the pool's or the next block's input gradient
        if self.bn_first:
            dy = self.bn.backward(self.relu.backward(dy, out=dy), out=dy)
        else:
            dy = self.relu.backward(self.bn.backward(dy, out=dy), out=dy)
        if before is None:  # the first TDNN cached its input, and no one needs its dX
            return self.tdnn.backward(dy, input_grad=False)
        return self.tdnn.backward(dy, x=before.output())  # rebuilt once bn and ReLU are done

    def layers(self):
        return {"tdnn": self.tdnn, "bn": self.bn}


class _Head:
    """Three fully connected layers; dropout after the first two."""

    def __init__(self, in_dim, hidden, out_dim, dropout, bn_before_relu, dtype):
        self.fcs = []
        self.bns = []
        self.relus = []
        self.drops = []
        d = in_dim
        for h in hidden:
            self.fcs.append(nn.Linear(d, h, dtype=dtype))
            self.relus.append(nn.Relu())
            self.bns.append(nn.BatchNorm1d(h, dtype=dtype))
            self.drops.append(nn.Dropout(dropout))
            d = h
        self.out = nn.Linear(d, out_dim, dtype=dtype)
        self.bn_first = bn_before_relu

    def forward(self, z, train, rng):
        y = z
        for fc, relu, bn, drop in zip(self.fcs, self.relus, self.bns, self.drops):
            y = fc.forward(y, cache=train)
            if self.bn_first:
                y = relu.forward(bn.forward(y, train, out=y), cache=train)
            else:
                y = relu.forward(y, cache=train)
                y = bn.forward(y, train, out=y)
            y = drop.forward(y, train, rng)
        return self.out.forward(y, cache=train)

    def backward(self, dy):
        dy = self.out.backward(dy)
        for fc, relu, bn, drop in zip(
            reversed(self.fcs), reversed(self.relus), reversed(self.bns), reversed(self.drops)
        ):
            dy = drop.backward(dy)
            if self.bn_first:
                dy = bn.backward(relu.backward(dy))
            else:
                dy = relu.backward(bn.backward(dy))
            dy = fc.backward(dy)
        return dy

    def release(self):
        """Drop what a train-mode forward cached, for a backward that skips this head."""
        for layer in self.fcs + self.relus + self.bns + self.drops + [self.out]:
            layer._cache = None

    def layers(self):
        named = {}
        for i, (fc, bn) in enumerate(zip(self.fcs, self.bns), start=1):
            named[f"fc{i}"] = fc
            named[f"bn{i}"] = bn
        named["out"] = self.out
        return named


class MultiBranchModel:
    """Encoder plus the three branches, with named, partitioned parameters.

    Every Param is a view into one value buffer and one grad buffer, owned
    by the `arena` Param and laid out in sorted-name order, so each partition is one
    contiguous slice: `partitions` maps each of PARTITIONS to a Param over it,
    which is what the optimizer steps. The constructor leaves the arena zeroed and
    draws nothing: build_model draws initial values, load_snapshot restores saved ones.
    """

    def __init__(self, arch: ArchConfig, dtype=np.float32):
        arch.validate()
        self.arch = arch
        self.dtype = np.dtype(dtype).type
        self.encoder_blocks = []
        c_in = arch.n_mfcc
        for c_out, context in zip(arch.encoder_channels, arch.contexts):
            self.encoder_blocks.append(
                _EncoderBlock(c_in, c_out, context, arch.bn_before_relu, dtype)
            )
            c_in = c_out
        self.pool = nn.StatPool()
        emb = arch.embedding_dim
        self.heads = {
            name: _Head(emb, arch.head_hidden, n_out, arch.dropout, arch.bn_before_relu, dtype)
            for name, n_out in (("fluent", 2), ("disfluent", 4), ("speaker", arch.n_podcasts))
        }
        self.grl = nn.GradReverse()
        self._grl_active = False
        self._pending = frozenset()  # partitions whose train-mode caches await backward

        named = {
            f"{prefix}.{pname}": p
            for prefix, layer in self._named_layers()
            for pname, p in layer.params().items()
        }
        self._params = MappingProxyType(dict(sorted(named.items())))
        self.arena = nn.arena(self._params.values(), dtype)
        parts, start = {}, 0
        for part in sorted(PARTITIONS):
            stop = start + sum(p.value.size for name, p in self._params.items()
                               if name.startswith(f"{part}."))
            parts[part] = nn.Param(value=self.arena.value[start:stop],
                                   grad=self.arena.grad[start:stop])
            start = stop
        self.partitions = MappingProxyType(parts)

    # -- parameter bookkeeping ------------------------------------------------

    def _named_layers(self):
        for i, block in enumerate(self.encoder_blocks, start=1):
            for lname, layer in block.layers().items():
                yield f"encoder.l{i}.{lname}", layer
        for hname, head in self.heads.items():
            for lname, layer in head.layers().items():
                yield f"{hname}.{lname}", layer

    def named_params(self) -> Mapping[str, nn.Param]:
        """Every Param by name, in sorted-name (arena) order; read-only."""
        return self._params

    def named_buffers(self) -> dict[str, np.ndarray]:
        out = {}
        for prefix, layer in self._named_layers():
            for bname, b in layer.buffers().items():
                out[f"{prefix}.{bname}"] = b
        return out

    def zero_grads(self):
        self.arena.grad.fill(0.0)

    # -- forward / backward ---------------------------------------------------

    def encode(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """Embed a batch (batch, n_mfcc, frames) -> (batch, 2 * last_channels)."""
        if x.ndim != 3 or x.shape[1] != self.arch.n_mfcc:
            raise ShapeMismatch(
                f"expected (batch, {self.arch.n_mfcc}, frames), got {x.shape}"
            )
        x = x.astype(self.dtype, copy=False)
        clip_bytes = max(self.arch.encoder_channels) * x.shape[2] * x.itemsize
        group = len(x) if train else max(1, EVAL_GROUP_BYTES // (clip_bytes or 1))
        if group >= len(x):
            return self._encode_group(x, train)
        return np.concatenate([self._encode_group(x[s : s + group], train)
                               for s in range(0, len(x), group)])

    def _encode_group(self, x, train):
        y = x.transpose(1, 0, 2)  # channels-major up to the pool; l1 unfolds x through this view
        # Only the first TDNN keeps its input: each later one is freed once its TDNN has read it
        for i, block in enumerate(self.encoder_blocks):
            y = block.tdnn.forward(y, train, keep_input=i == 0)
            y = block.activate(y, train)
        return self.pool.forward(y, cache=train)

    def forward(
        self,
        x: np.ndarray,
        train: frozenset | set = frozenset(),
        grl_lambda: float | None = None,
        rng: np.random.Generator | None = None,
    ):
        """Run all branches; returns (z, fluent_logits, disfluent_logits, speaker_logits).

        `train` lists the partitions running in train mode (batch-stat norm,
        stat updates, dropout, caches for backward); everything else runs
        eval semantics and keeps nothing, so a forward with an empty train
        set writes no state and one model can serve concurrent eval callers.
        The gradient reversal layer is wired in front of a train-mode
        speaker head when grl_lambda is given; its forward is the identity.
        """
        z = self.encode(x, train="encoder" in train)
        lf = self.heads["fluent"].forward(z, "fluent" in train, rng)
        ld = self.heads["disfluent"].forward(z, "disfluent" in train, rng)
        grl = grl_lambda is not None and "speaker" in train
        zs = self.grl.forward(z, grl_lambda) if grl else z
        ls = self.heads["speaker"].forward(zs, "speaker" in train, rng)
        if train:
            self._pending = frozenset(train)
            self._grl_active = grl
        return z, lf, ld, ls

    def backward(self, dlf=None, dld=None, dls=None):
        """Backpropagate the last train-mode forward's logit gradients; overwrites all grads.

        Each gradient argument is (batch, head_out) already scaled by its
        loss weight, or None to leave that branch out; a gradient for a head
        that did not run in train mode since the last backward raises
        NoPendingForward, and a train-mode head or encoder that no gradient
        reaches drops its caches. The speaker branch's encoder contribution
        passes through the gradient reversal layer iff it was active in that
        forward. The encoder is entered only if it ran in train mode, and its
        first layer computes no input gradient; frozen encoder grads read zero. The pool's
        input, and each later block's, is rebuilt from x-hat with gamma and beta read now.
        """
        grads = {"fluent": dlf, "disfluent": dld, "speaker": dls}
        for part, grad in grads.items():
            if grad is not None and part not in self._pending:
                raise NoPendingForward(
                    f"backward got a {part} gradient, but no train-mode forward of the "
                    f"{part} head awaits it"
                )
        pending, self._pending = self._pending, frozenset()
        self.zero_grads()
        dz = None
        for part in ("speaker", "disfluent", "fluent"):  # the order dz sums in
            if grads[part] is None:
                if part in pending:
                    self.heads[part].release()
                continue
            dzp = self.heads[part].backward(grads[part])
            if part == "speaker" and self._grl_active:
                dzp = self.grl.backward(dzp)
            dz = dzp if dz is None else dz + dzp
        if dz is None and "encoder" in pending:  # trained, but no gradient reaches it
            for block in self.encoder_blocks:
                block.tdnn._cache = block.relu._cache = block.bn._cache = None
            self.pool._cache = None
        if dz is None or "encoder" not in pending:
            return
        blocks = self.encoder_blocks
        dy = self.pool.backward(dz, blocks[-1].output())
        for before, block in zip(reversed(blocks[:-1]), reversed(blocks[1:])):
            dy = block.backward(dy, before)
        blocks[0].backward(dy)

    # -- snapshots (used by checkpointing and best-epoch tracking) -------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        arrays = {name: p.value for name, p in self.named_params().items()}
        arrays.update(self.named_buffers())
        return arrays

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: a.copy() for name, a in self.state_arrays().items()}

    def load_snapshot(self, snap: dict[str, np.ndarray]):
        arrays = self.state_arrays()
        missing = set(arrays) - set(snap)
        extra = set(snap) - set(arrays)
        if missing or extra:
            raise ShapeMismatch(f"snapshot mismatch: missing {missing}, extra {extra}")
        for name, a in arrays.items():
            if a.shape != snap[name].shape:
                raise ShapeMismatch(f"{name}: shape {snap[name].shape} vs {a.shape}")
            a[...] = snap[name]


def two_branch(fluent_logits: np.ndarray, disfluent_logits: np.ndarray) -> np.ndarray:
    """The two-branch rule on (batch, 2) and (batch, 4) logits -> class indices."""
    fluent_says_fluent = np.argmax(fluent_logits, axis=1) == 0
    disfluent_pick = np.argmax(disfluent_logits, axis=1) + 1
    return np.where(fluent_says_fluent, StutterClass.FLUENT.value, disfluent_pick)


def build_model(arch: ArchConfig, seed: int, dtype=np.float32) -> MultiBranchModel:
    """The seeded constructor: draws initial values layer by layer, in _named_layers order."""
    model = MultiBranchModel(arch, dtype)
    rng = np.random.default_rng(seed)
    for _, layer in model._named_layers():
        layer.init_params(rng)
    return model

