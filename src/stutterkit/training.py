"""Training loops: stutter-only baseline, multi-task, and adversarial.

Objectives differ only in how the three head losses are combined and which
parameter partitions the optimizer may touch. baseline and mtl are one
stage each; adv runs four, with the gradient reversal layer in joint_grl:

    epochs [0, b1) speaker_only, [b1, b2) stutter_only,
           [b2, b3) joint_grl,   [b3, ..) recovery

STAGES is the one table of what each stage trains and descends. l_stutter
is l_fluent + l_disfluent; l_disfluent is averaged over the disfluent clips
in the batch and is 0.0 when there are none. Early stopping watches the
validation stutter loss and, for the adversarial schedule, only arms itself
once the recovery stage begins. Frozen partitions keep their parameter bits,
optimizer moments, and running statistics untouched, and run eval-mode
semantics in the training forward pass.

A partition's Adam moments and step count restart whenever the loss it
descends changes (see descended_loss). Each head always descends its own
loss, so its moments carry across stages, frozen ones included; the
encoder's change as stutter_only and joint_grl begin. A lambda that changes
within a stage is no restart.

Each epoch's valid_stutter_loss and valid_acc come from one eval-mode pass
over the validation set (infer); train_acc is the running accuracy of the
epoch's steps, each clip judged by its own step's forward. The epoch-log CSV
format is unchanged.
"""

from __future__ import annotations

import csv
import logging
import os
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .data import ClipArray, feature_sizes, features_of
from .errors import DataError, EmptyBatch, InputTooShort, InvalidConfig, NumericError
from .model import PARTITIONS, MultiBranchModel, two_branch

log = logging.getLogger(__name__)

OBJECTIVES = ("baseline", "mtl", "adv")
LAMBDA_SCHEDULES = ("fixed", "decay10", "sigmoid_ramp")
ADV_STAGES = ("speaker_only", "stutter_only", "joint_grl", "recovery")

LOG_COLUMNS = (
    "epoch",
    "stage",
    "lambda",
    "l_fluent",
    "l_disfluent",
    "l_speaker",
    "l_total",
    "valid_stutter_loss",
    "train_acc",
    "valid_acc",
)


@dataclass(frozen=True)
class TrainConfig:
    objective: str = "baseline"
    lam: float = 0.5
    lambda_schedule: str = "fixed"
    gamma: float = 10.0  # sigmoid_ramp steepness; -10 gives the paper's printed sign
    max_epochs: int = 100
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0
    patience: int = 7
    min_delta: float = 1e-6
    stage_bounds: tuple[int, ...] = (25, 50, 75)  # adv stage boundaries b1, b2, b3
    stage1_trains_encoder: bool = True  # speaker_only trains {E, S} vs {S}
    log_path: str | None = None

    def validate(self):
        if self.objective not in OBJECTIVES:
            raise InvalidConfig(f"objective must be one of {OBJECTIVES}")
        if self.lambda_schedule not in LAMBDA_SCHEDULES:
            raise InvalidConfig(f"lambda_schedule must be one of {LAMBDA_SCHEDULES}")
        if not (0.0 <= self.lam <= 1.0):
            raise InvalidConfig(f"lambda must be in [0, 1], got {self.lam}")
        if self.max_epochs < 1 or self.batch_size < 1 or self.patience < 1:
            raise InvalidConfig("max_epochs, batch_size and patience must be >= 1")
        if not (0 < self.lr < np.inf and 0 <= self.min_delta < np.inf):
            raise InvalidConfig(f"lr must be finite and > 0 and min_delta finite and >= 0, "
                                f"got lr={self.lr} min_delta={self.min_delta}")
        if not np.isfinite(self.gamma):
            raise InvalidConfig(f"gamma must be finite, got {self.gamma}")
        if len(self.stage_bounds) != 3:
            raise InvalidConfig(f"stage_bounds must be three epochs b1, b2, b3, "
                                f"got {self.stage_bounds}")
        b1, b2, b3 = self.stage_bounds
        if not (0 < b1 < b2 < b3):
            raise InvalidConfig(f"stage bounds must increase, got {self.stage_bounds}")


@dataclass(frozen=True)
class Stage:
    """What one training stage trains and descends.

    trains: the partitions the optimizer steps. Each of them that is a head
    gets its loss's gradient, whatever its weight; no other head gets one.
    encoder_loss: the loss the encoder descends, None where it is frozen.
    weights(lam): (w_stutter, w_speaker) with
    l_total = w_stutter * l_stutter + w_speaker * l_speaker.
    reversal: the speaker head descends l_speaker at unit weight behind the
    gradient reversal layer, which hands w_speaker = -lambda to the encoder.
    """

    trains: frozenset
    encoder_loss: str | None
    weights: Callable[[float], tuple[float, float]]
    reversal: bool = False

    def head_weights(self, lam: float) -> dict[str, float]:
        """Each head's gradient weight: w_stutter, and w_speaker or 1 behind the reversal layer."""
        w_stutter, w_speaker = self.weights(lam)
        return {"fluent": w_stutter, "disfluent": w_stutter,
                "speaker": 1.0 if self.reversal else w_speaker}


_STUTTER_PATH = frozenset({"encoder", "fluent", "disfluent"})

STAGES = {
    "baseline": Stage(_STUTTER_PATH, "l_stutter", lambda lam: (1.0, 0.0)),
    "mtl": Stage(frozenset(PARTITIONS), "(1 - lambda) * l_stutter + lambda * l_speaker",
                 lambda lam: (1.0 - lam, lam)),
    "speaker_only": Stage(frozenset({"encoder", "speaker"}), "l_speaker",
                          lambda lam: (0.0, 1.0)),
    "stutter_only": Stage(_STUTTER_PATH, "l_stutter", lambda lam: (1.0, 0.0)),
    "joint_grl": Stage(frozenset(PARTITIONS), "l_stutter - lambda * l_speaker",
                       lambda lam: (1.0, -lam), reversal=True),
    "recovery": Stage(frozenset({"fluent", "disfluent"}), None, lambda lam: (1.0, 0.0)),
}


def stage_at(cfg: TrainConfig, epoch: int) -> str:
    """Name of the active training stage; non-adversarial runs have one stage."""
    if cfg.objective != "adv":
        return cfg.objective
    return ADV_STAGES[sum(epoch >= b for b in cfg.stage_bounds)]


def lambda_at(cfg: TrainConfig, epoch: int) -> float:
    """Speaker-loss weight at a given epoch, as a Python float.

    fixed: the configured constant. decay10: 10^(-epoch), so 1 at epoch 0.
    sigmoid_ramp: 2 / (1 + exp(-gamma * p)) - 1 with p = epoch / max_epochs,
    rising from 0 toward 1; a negative gamma, the paper's printed sign, decays
    from 0 toward -1 instead. Never a numpy scalar: numpy 2 promotes a float32
    gradient times an np.float64 to float64, so the backward would run in double.
    """
    if cfg.objective == "baseline":
        return 0.0
    if cfg.lambda_schedule == "fixed":
        return float(cfg.lam)
    if cfg.lambda_schedule == "decay10":
        return 10.0 ** (-epoch)
    p = epoch / cfg.max_epochs
    return float(2.0 / (1.0 + np.exp(-cfg.gamma * p)) - 1.0)


def trainable_partitions(cfg: TrainConfig, stage: str) -> frozenset:
    """STAGES' partitions, less the encoder in speaker_only unless stage1_trains_encoder."""
    if stage not in STAGES:
        raise InvalidConfig(f"unknown stage {stage!r}")
    if stage == "speaker_only" and not cfg.stage1_trains_encoder:
        return STAGES[stage].trains - {"encoder"}
    return STAGES[stage].trains


def descended_loss(stage: str, partition: str) -> str | None:
    """The loss a partition descends in a stage: each head its own in every stage."""
    return STAGES[stage].encoder_loss if partition == "encoder" else f"l_{partition}"


def early_stop_active(cfg: TrainConfig, stage: str) -> bool:
    return stage == "recovery" if cfg.objective == "adv" else True


@dataclass
class BatchLosses:
    """Mean head losses for one batch plus gradients of each mean w.r.t. logits.

    The gradients are unweighted; the caller scales them by the objective's
    loss weights before backpropagation. dld covers the whole batch with zero
    rows for fluent clips; l_disfluent averages over disfluent clips only.
    """

    l_fluent: float
    l_disfluent: float
    l_speaker: float
    n: int
    n_disfluent: int
    dlf: np.ndarray
    dld: np.ndarray
    dls: np.ndarray | None


def compute_losses(lf, ld, ls, y_class, y_speaker=None) -> BatchLosses:
    # Each mean is sum / count cast back to the losses' dtype, rounded as np.mean rounds it.
    y_class = np.asarray(y_class)
    n = y_class.shape[0]
    if n == 0:
        raise EmptyBatch("batch has no samples")
    y_fluent = (y_class != 0).astype(np.intp)
    losses_f, grads_f = nn.softmax_cross_entropy(lf, y_fluent)
    dlf = grads_f / n

    idx = np.flatnonzero(y_class != 0)
    dld = np.zeros_like(ld)
    if idx.size:
        losses_d, grads_d = nn.softmax_cross_entropy(ld[idx], y_class[idx] - 1)
        l_disfluent = float(losses_d.dtype.type(losses_d.sum() / idx.size))
        dld[idx] = grads_d / idx.size
    else:
        l_disfluent = 0.0

    l_speaker, dls = 0.0, None
    if y_speaker is not None:
        losses_s, grads_s = nn.softmax_cross_entropy(ls, np.asarray(y_speaker))
        l_speaker = float(losses_s.dtype.type(losses_s.sum() / n))
        dls = grads_s / n

    return BatchLosses(
        l_fluent=float(losses_f.dtype.type(losses_f.sum() / n)),
        l_disfluent=l_disfluent,
        l_speaker=l_speaker,
        n=n,
        n_disfluent=int(idx.size),
        dlf=dlf,
        dld=dld,
        dls=dls,
    )


def loss_total(stage: str, lam: float, l_fluent: float, l_disfluent: float,
               l_speaker: float) -> float:
    """The scalar objective value a stage's weights make of the head losses."""
    w_stutter, w_speaker = STAGES[stage].weights(lam)
    return w_stutter * (l_fluent + l_disfluent) + w_speaker * l_speaker


class EarlyStopper:
    """Stop once the watched loss fails to improve by min_delta for patience epochs."""

    def __init__(self, patience=7, min_delta=1e-6):
        self.patience = patience
        self.min_delta = min_delta
        self.best = np.inf
        self.count = 0

    def update(self, loss: float) -> bool:
        """Record one epoch's loss; returns True when it is a new best."""
        if self.best - loss > self.min_delta:
            self.best = loss
            self.count = 0
            return True
        self.count += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.count >= self.patience


def speaker_index_map(records) -> dict[str, int]:
    """Stable podcast-id -> speaker-target mapping (sorted ids)."""
    return {pid: i for i, pid in enumerate(sorted({r.podcast_id for r in records}))}


def make_batch(records, indices, dtype=np.float32):
    """Stack feature matrices, cropping every clip to the batch's shortest length.

    A ClipArray, which must be of dtype, is gathered by row instead, to the same
    values, and gives the speaker targets it was built with; a plain list gives none.
    """
    if isinstance(records, ClipArray):
        if records.base.dtype != dtype:
            raise DataError(f"a {np.dtype(dtype)} batch needs a ClipArray of that dtype")
        idx = np.asarray(indices)
        x = records.base[records.rows[idx], :, :records.lengths[idx].min()]
        return x, records.labels[idx], None if records.speakers is None else records.speakers[idx]
    feats = [features_of(records[i]) for i in indices]
    t_min = min(f.shape[1] for f in feats)
    x = np.stack([f[:, :t_min] for f in feats]).astype(dtype, copy=False)
    y = np.array([int(records[i].label) for i in indices], dtype=np.intp)
    return x, y, None


def _batch_ranges(n, batch_size):
    return [range(s, min(s + batch_size, n)) for s in range(0, n, batch_size)]


@dataclass(frozen=True)
class Inference:
    """Eval-mode outputs of one pass over a record list, in record order."""

    labels: np.ndarray
    predictions: np.ndarray  # the two-branch rule's class indices
    embeddings: np.ndarray  # pooled, in the model's dtype
    fluent_logits: np.ndarray
    disfluent_logits: np.ndarray

    @property
    def accuracy(self) -> float:
        return int((self.predictions == self.labels).sum()) / len(self.labels)

    @property
    def stutter_loss(self) -> float:
        """l_fluent + l_disfluent, each one float32 sum over its clips."""
        y = self.labels
        dis = y != 0
        sum_f = nn.softmax_cross_entropy(self.fluent_logits, dis.astype(np.intp))[0].sum()
        sum_d = nn.softmax_cross_entropy(self.disfluent_logits[dis], y[dis] - 1)[0].sum()
        n_dis = int(dis.sum())
        return float(sum_f) / len(y) + (float(sum_d) / n_dis if n_dis else 0.0)

    @property
    def stutter_two_class_accuracy(self) -> float | None:
        """S2CA: the fluent head's hit rate on truly disfluent clips; None without any."""
        dis = self.labels != 0
        hits = int((np.argmax(self.fluent_logits[dis], axis=1) == 1).sum())
        return hits / int(dis.sum()) if dis.any() else None


def infer(model: MultiBranchModel, records, batch_size=64) -> Inference:
    """One eval-mode forward pass over records, batch_size clips per make_batch."""
    if not records:
        raise EmptyBatch("no records to evaluate")
    need = model.arch.min_frames
    lengths = records.lengths if isinstance(records, ClipArray) else feature_sizes(records)[1]
    short = [records[i].clip_id for i in np.flatnonzero(np.less(lengths, need))]
    if short:
        raise InputTooShort(f"{len(short)} clip(s) shorter than the {need} frames the "
                            f"encoder needs: {', '.join(short)}")
    outputs = []
    for b in _batch_ranges(len(records), batch_size):
        x, y, _ = make_batch(records, b, dtype=model.dtype)
        z, lf, ld, _ = model.forward(x)
        outputs.append((y, z, lf, ld))
    y, z, lf, ld = (np.concatenate(parts) for parts in zip(*outputs))
    return Inference(labels=y, predictions=two_branch(lf, ld), embeddings=z,
                     fluent_logits=lf, disfluent_logits=ld)


def dataset_stutter_loss(model: MultiBranchModel, records, batch_size=64) -> float:
    """Eval-mode l_fluent + l_disfluent over a whole record list."""
    return infer(model, records, batch_size).stutter_loss


def dataset_accuracy(model: MultiBranchModel, records, batch_size=64) -> float:
    """Five-class accuracy of the two-branch rule over a record list."""
    return infer(model, records, batch_size).accuracy


def train_step(model, opt, stage: str, lam: float, parts, x, y, ys, rng):
    """Forward parts in train mode, backward each trained head's loss at its STAGES[stage]
    weight (reversed at lam where the stage says so), step Adam; returns (lf, ld, losses)."""
    weight = STAGES[stage].head_weights(lam)
    _, lf, ld, ls = model.forward(x, train=parts, rng=rng,
                                  grl_lambda=lam if STAGES[stage].reversal else None)
    losses = compute_losses(lf, ld, ls, y, ys)
    grads = {"fluent": losses.dlf, "disfluent": losses.dld, "speaker": losses.dls}
    model.backward(*(weight[h] * grads[h] if h in parts else None
                     for h in ("fluent", "disfluent", "speaker")))
    opt.step({part: model.partitions[part] for part in PARTITIONS if part in parts})
    return lf, ld, losses


@dataclass
class EpochRecord:
    """One epoch-log row: l_* and train_acc from the epoch's own steps, valid_* from infer."""

    epoch: int
    stage: str
    lam: float
    l_fluent: float
    l_disfluent: float
    l_speaker: float
    l_total: float
    valid_stutter_loss: float
    train_acc: float
    valid_acc: float

    def row(self):
        return [
            self.epoch,
            self.stage,
            format(self.lam, ".6g"),
            format(self.l_fluent, ".6f"),
            format(self.l_disfluent, ".6f"),
            format(self.l_speaker, ".6f"),
            format(self.l_total, ".6f"),
            format(self.valid_stutter_loss, ".6f"),
            format(self.train_acc, ".6f"),
            format(self.valid_acc, ".6f"),
        ]


@dataclass
class TrainResult:
    model: MultiBranchModel
    history: list = field(default_factory=list)
    best_epoch: int | None = None
    best_valid_stutter_loss: float = float("inf")
    stopped_epoch: int | None = None
    speaker_map: dict = field(default_factory=dict)
    optimizer: nn.Adam | None = None


def train(model: MultiBranchModel, train_records, valid_records, cfg: TrainConfig,
          callback=None) -> TrainResult:
    """Run one full training; returns the model restored to its best epoch.

    "Best" means lowest validation stutter loss among the epochs where early
    stopping was armed; if it never armed (adversarial run that ends before
    recovery, or no validation set), the final weights stand.
    """
    cfg.validate()
    if not train_records:
        raise EmptyBatch("no training records")
    smap = speaker_index_map(train_records)
    # Baseline still logs a diagnostic speaker loss when the head size matches.
    track_speaker = len(smap) == model.arch.n_podcasts
    if cfg.objective in ("mtl", "adv") and not track_speaker:
        raise InvalidConfig(
            f"model speaker head has {model.arch.n_podcasts} outputs but the "
            f"training set has {len(smap)} podcasts"
        )
    train_records = ClipArray(train_records, model.dtype, smap if track_speaker else None)
    valid_records = valid_records and ClipArray(valid_records, model.dtype)

    opt = nn.Adam(lr=cfg.lr)
    result = TrainResult(model=model, speaker_map=smap, optimizer=opt)
    last_loss = {}  # partition -> the loss it descended when last trainable
    stopper = EarlyStopper(cfg.patience, cfg.min_delta)
    best_snapshot = None
    n = len(train_records)

    with open(cfg.log_path or os.devnull, "w", newline="") as log_fh:
        writer = csv.writer(log_fh)
        writer.writerow(LOG_COLUMNS)
        for epoch in range(cfg.max_epochs):
            stage = stage_at(cfg, epoch)
            lam = lambda_at(cfg, epoch)
            parts = trainable_partitions(cfg, stage)
            for part in parts:
                loss = descended_loss(stage, part)
                if last_loss.get(part, loss) != loss:
                    opt.reset(part)
                last_loss[part] = loss

            order = np.random.default_rng([cfg.seed, epoch, 0]).permutation(n)
            drop_rng = np.random.default_rng([cfg.seed, epoch, 1])

            sum_f = sum_d = sum_s = 0.0
            seen = seen_dis = hits = 0
            for rng_idx in _batch_ranges(n, cfg.batch_size):
                idx = order[list(rng_idx)]
                if idx.size == 1 and n > 1:
                    log.warning("dropping size-1 trailing batch (batch norm needs >= 2)")
                    continue
                x, y, ys = make_batch(records=train_records, indices=idx, dtype=model.dtype)
                lf, ld, losses = train_step(model, opt, stage, lam, parts, x, y, ys, drop_rng)
                hits += int((two_branch(lf, ld) == y).sum())

                sum_f += losses.l_fluent * losses.n
                sum_d += losses.l_disfluent * losses.n_disfluent
                sum_s += losses.l_speaker * losses.n
                seen += losses.n
                seen_dis += losses.n_disfluent

            if seen == 0:
                raise EmptyBatch("every batch was dropped; use a larger dataset")
            l_fluent = sum_f / seen
            l_disfluent = sum_d / seen_dis if seen_dis else 0.0
            l_speaker = sum_s / seen
            if not np.isfinite(l_fluent + l_disfluent + l_speaker):
                raise NumericError(
                    f"non-finite training loss at epoch {epoch} stage {stage}: "
                    f"l_fluent={l_fluent} l_disfluent={l_disfluent} l_speaker={l_speaker}"
                )

            valid_stutter = valid_acc = float("nan")
            if valid_records:
                valid = infer(model, valid_records, cfg.batch_size)
                valid_stutter, valid_acc = valid.stutter_loss, valid.accuracy
            rec = EpochRecord(
                epoch=epoch, stage=stage, lam=lam, l_fluent=l_fluent, l_disfluent=l_disfluent,
                l_speaker=l_speaker,
                l_total=loss_total(stage, lam, l_fluent, l_disfluent, l_speaker),
                valid_stutter_loss=valid_stutter, train_acc=hits / seen, valid_acc=valid_acc)
            result.history.append(rec)
            writer.writerow(rec.row())
            log_fh.flush()
            if callback:
                callback(rec, model)

            if valid_records and early_stop_active(cfg, stage):
                if stopper.update(valid_stutter):
                    result.best_epoch = epoch
                    result.best_valid_stutter_loss = valid_stutter
                    best_snapshot = model.snapshot()
                if stopper.should_stop:
                    result.stopped_epoch = epoch
                    log.info("early stop at epoch %d (best %d)", epoch, result.best_epoch)
                    break

    if best_snapshot is not None:
        model.load_snapshot(best_snapshot)
    return result
