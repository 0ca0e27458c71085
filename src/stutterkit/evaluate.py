"""Confusion metrics, embedding export, and a linear speaker probe.

Reporting conventions: per-class accuracy means per-class recall (the only
reading under which a one-row-per-class accuracy table is well defined);
stutter accuracy (SA) is the unweighted mean recall of the four disfluent
classes; total accuracy (TA) is trace/total. Tables list columns in the
order R, P, B, I, SA, F, TA. The stutter two-class accuracy (S2CA) is the
fluent head's binary hit rate on truly disfluent clips; it needs model
outputs, not just a confusion matrix.

The speaker probe quantifies how much podcast identity is linearly decodable
from the pooled embeddings: a single softmax layer is trained on frozen
embeddings and scored on a stratified held-out fifth. Lower held-out
accuracy means more speaker-invariant embeddings.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import data, nn
from .errors import EmptyMatrix, LengthMismatch, ParseError, TooFewPodcasts
from .model import CLASS_INITIALS, CLASS_NAMES, MultiBranchModel, StutterClass
from .training import Inference, infer

N_CLASSES = len(CLASS_NAMES)

TABLE_COLUMNS = ("R", "P", "B", "I", "SA", "F", "TA")

EMBEDDING_KEYS = ("clip_id", "podcast_id", "class")  # the CSV's leading columns


def confusion(truth, pred, n_classes=N_CLASSES) -> np.ndarray:
    """Count matrix M[true, predicted]."""
    truth = np.asarray(truth, dtype=np.intp)
    pred = np.asarray(pred, dtype=np.intp)
    if truth.shape != pred.shape or truth.ndim != 1:
        raise LengthMismatch(f"truth {truth.shape} vs pred {pred.shape}")
    if truth.size == 0:
        raise LengthMismatch("empty label vectors")
    if truth.min() < 0 or truth.max() >= n_classes or pred.min() < 0 or pred.max() >= n_classes:
        raise LengthMismatch(f"labels outside [0, {n_classes})")
    m = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(m, (truth, pred), 1)
    return m


def pair_rates(m: np.ndarray) -> dict[str, float]:
    """Misidentification rates keyed 'XasY': fraction of true X predicted as Y."""
    rates = {}
    row_sums = m.sum(axis=1)
    for x in range(m.shape[0]):
        for y in range(m.shape[1]):
            if x == y:
                continue
            key = f"{CLASS_INITIALS[x]}as{CLASS_INITIALS[y]}"
            rates[key] = float(m[x, y] / row_sums[x]) if row_sums[x] else 0.0
    return rates


@dataclass
class MetricsReport:
    confusion: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    stutter_accuracy: float  # SA: mean recall over R, P, B, I
    total_accuracy: float  # TA: trace / total
    fluent_accuracy: float  # F column: recall of the fluent class
    pair_rates: dict = field(default_factory=dict)
    undefined_precision: tuple = ()  # classes never predicted (precision forced to 0)
    stutter_two_class_accuracy: float | None = None  # S2CA, set by evaluate_model
    # The inference evaluate_model scored, for export_embeddings to reuse;
    # not part of the report's value.
    outputs: Inference | None = field(default=None, repr=False, compare=False)

    def table(self) -> str:
        """Aligned text table in the column order R, P, B, I, SA, F, TA."""
        r = self.recall
        values = [
            r[StutterClass.REPETITION],
            r[StutterClass.PROLONGATION],
            r[StutterClass.BLOCK],
            r[StutterClass.INTERJECTION],
            self.stutter_accuracy,
            self.fluent_accuracy,
            self.total_accuracy,
        ]
        lines = [
            "accuracy %  (per-class accuracy = per-class recall)",
            "".join(f"{c:>8}" for c in TABLE_COLUMNS),
            "".join(f"{100.0 * v:8.2f}" for v in values),
        ]
        if self.stutter_two_class_accuracy is not None:
            lines.append(f"S2CA {100.0 * self.stutter_two_class_accuracy:.2f}")
        return "\n".join(lines)

    def to_json(self) -> str:
        d = {
            "columns": list(TABLE_COLUMNS),
            "confusion": self.confusion.tolist(),
            "class_names": list(CLASS_NAMES),
            "precision": [float(v) for v in self.precision],
            "recall": [float(v) for v in self.recall],
            "f1": [float(v) for v in self.f1],
            "class_accuracy": [float(v) for v in self.recall],
            "stutter_accuracy": self.stutter_accuracy,
            "total_accuracy": self.total_accuracy,
            "fluent_accuracy": self.fluent_accuracy,
            "pair_rates": self.pair_rates,
            "undefined_precision": list(self.undefined_precision),
        }
        if self.stutter_two_class_accuracy is not None:
            d["stutter_two_class_accuracy"] = self.stutter_two_class_accuracy
        return json.dumps(d, indent=2, sort_keys=True)


def metrics(m: np.ndarray) -> MetricsReport:
    """Per-class precision/recall/F1 and the summary accuracies from counts."""
    m = np.asarray(m)
    total = int(m.sum())
    if total == 0:
        raise EmptyMatrix("confusion matrix has no counts")
    diag = np.diag(m).astype(np.float64)
    col = m.sum(axis=0).astype(np.float64)
    row = m.sum(axis=1).astype(np.float64)
    undefined = tuple(int(c) for c in np.flatnonzero(col == 0))
    precision = np.divide(diag, col, out=np.zeros_like(diag), where=col > 0)
    recall = np.divide(diag, row, out=np.zeros_like(diag), where=row > 0)
    pr = precision + recall
    f1 = np.divide(2.0 * precision * recall, pr, out=np.zeros_like(diag), where=pr > 0)
    disfluent = [int(c) for c in StutterClass if c != StutterClass.FLUENT]
    return MetricsReport(
        confusion=m,
        precision=precision,
        recall=recall,
        f1=f1,
        stutter_accuracy=float(recall[disfluent].mean()),
        total_accuracy=float(diag.sum() / total),
        fluent_accuracy=float(recall[StutterClass.FLUENT]),
        pair_rates=pair_rates(m),
        undefined_precision=undefined,
    )


def evaluate_model(model: MultiBranchModel, records, batch_size=64) -> MetricsReport:
    """Two-branch predictions over records -> full report including S2CA.

    The inference it scored stays on the report as `outputs`.
    """
    out = infer(model, records, batch_size)
    report = metrics(confusion(out.labels, out.predictions))
    report.stutter_two_class_accuracy = out.stutter_two_class_accuracy
    report.outputs = out
    return report


def export_embeddings(model: MultiBranchModel, records, path, batch_size=64, *,
                      outputs: Inference | None = None) -> np.ndarray:
    """Write pooled embeddings to CSV: clip_id, podcast_id, class, then 2C values.

    `outputs`, an inference already run over exactly these records (such as
    `evaluate_model(...).outputs`), is written as it is; without it the
    records are forwarded here. Values are printed with 9 significant
    digits, which round-trips float32 exactly; rewriting the same records
    yields a byte-identical file.
    """
    if outputs is None:
        outputs = infer(model, records, batch_size)
    elif len(outputs.labels) != len(records):
        raise LengthMismatch(f"outputs cover {len(outputs.labels)} clips, "
                             f"records {len(records)}")
    elif not np.array_equal(outputs.labels, [int(rec.label) for rec in records]):
        raise LengthMismatch("outputs' labels differ from the records' labels")
    emb = outputs.embeddings
    values = ",".join(["%.9g"] * emb.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*EMBEDDING_KEYS] + [f"e{k}" for k in range(emb.shape[1])])
        # csv quotes the keys as in a whole row; the values need no quoting.
        keys = []
        key_writer = csv.writer(SimpleNamespace(write=keys.append))
        for rec, z in zip(records, emb):
            key_writer.writerow([rec.clip_id, rec.podcast_id, CLASS_NAMES[rec.label]])
            fh.write(keys.pop().removesuffix("\r\n") + "," + values % tuple(z.tolist()))
    return emb.astype(np.float32, copy=False)


def read_embeddings(path):
    """Read an embeddings CSV back: (matrix, clip_ids, podcast_ids, labels).

    A missing or wrong header, a row whose width differs from the header's,
    or a non-numeric value raises ParseError with the file and line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header[:3]) != EMBEDDING_KEYS or len(header) < 4:
            raise ParseError(f"{path}:1: expected header {','.join(EMBEDDING_KEYS)},e0,...")
        clip_ids, podcast_ids, labels, rows = [], [], [], []
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != len(header):
                raise ParseError(f"{where}: {len(row)} fields, header has {len(header)}")
            try:
                rows.append([float(v) for v in row[3:]])
            except ValueError as exc:
                raise ParseError(f"{where}: {exc}") from exc
            clip_ids.append(row[0])
            podcast_ids.append(row[1])
            labels.append(row[2])
    dim = len(header) - 3
    return np.asarray(rows, dtype=np.float32).reshape(-1, dim), clip_ids, podcast_ids, labels


@dataclass
class ProbeResult:
    accuracy: float
    n_train: int
    n_heldout: int
    n_speakers: int


def speaker_probe(embeddings, podcast_ids, seed=0, steps=200, lr=1e-2,
                  heldout_fraction=0.2) -> ProbeResult:
    """Held-out accuracy of a linear softmax probe for podcast identity.

    The split is stratified per podcast (every podcast with >= 2 samples
    contributes to both sides) and depends only on (podcast_ids, seed), so
    probes over different embedding spaces see identical splits.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    ids = list(podcast_ids)
    if emb.ndim != 2 or len(ids) != emb.shape[0]:
        raise LengthMismatch(f"{len(ids)} ids for {emb.shape} embeddings")
    speakers = sorted(set(ids))
    if len(speakers) < 2:
        raise TooFewPodcasts(f"probe needs >= 2 podcasts, got {len(speakers)}")
    smap = {p: i for i, p in enumerate(speakers)}
    targets = np.array([smap[p] for p in ids], dtype=np.intp)

    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for s in range(len(speakers)):
        kept, held = data.hold_out(list(np.flatnonzero(targets == s)), heldout_fraction, rng)
        train_idx.extend(kept)
        test_idx.extend(held)
    if not test_idx:
        raise TooFewPodcasts("no podcast has enough samples to hold out")
    train_idx = np.array(sorted(train_idx))
    test_idx = np.array(sorted(test_idx))

    k, d = len(speakers), emb.shape[1]
    w = nn.Param.zeros((k, d), np.float64)
    b = nn.Param.zeros((k,), np.float64)
    opt = nn.Adam(lr=lr)
    x_tr, y_tr = emb[train_idx], targets[train_idx]
    for _ in range(steps):
        logits = x_tr @ w.value.T + b.value
        _, grads = nn.softmax_cross_entropy(logits, y_tr)
        g = grads / x_tr.shape[0]
        w.grad[...] = g.T @ x_tr
        b.grad[...] = g.sum(axis=0)
        opt.step({"w": w, "b": b})

    pred = np.argmax(emb[test_idx] @ w.value.T + b.value, axis=1)
    return ProbeResult(
        accuracy=float((pred == targets[test_idx]).mean()),
        n_train=int(train_idx.size),
        n_heldout=int(test_idx.size),
        n_speakers=k,
    )
