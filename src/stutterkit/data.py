"""Manifest ingestion, split protocols, pseudo-labelling and synthetic data.

A manifest is a CSV with header ``clip_id,podcast_id,label`` plus optional
``audio_path,start_ms,stop_ms`` (audio-backed clips) or ``feature_path``
(precomputed feature matrices). The five accepted labels are the class names
Fluent, Repetition, Prolongation, Block, Interjection; anything else is an
error, non-stuttering annotations are filtered upstream.

The binary pseudo label (fluent vs disfluent) is always derived from the
class label, never stored, so the two can not disagree.
"""

from __future__ import annotations

import csv
import logging
import mmap
from dataclasses import dataclass, field

import numpy as np

from .errors import (DataError, EmptyPodcast, InvalidConfig, ParseError, ShapeMismatch,
                     TooFewPodcasts, UnknownLabel)
from .features import read_fmat
from .model import CLASS_NAMES, StutterClass

log = logging.getLogger(__name__)

_LABEL_BY_NAME = {name.lower(): StutterClass(i) for i, name in enumerate(CLASS_NAMES)}

# Column aliases accepted by the annotation-table adapter. Sound and word
# repetitions both count toward Repetition.
SEP28K_CLASS_COLUMNS = {
    "fluent": StutterClass.FLUENT,
    "nostutteredwords": StutterClass.FLUENT,
    "repetition": StutterClass.REPETITION,
    "soundrep": StutterClass.REPETITION,
    "wordrep": StutterClass.REPETITION,
    "prolongation": StutterClass.PROLONGATION,
    "block": StutterClass.BLOCK,
    "interjection": StutterClass.INTERJECTION,
}
SEP28K_NONSTUTTER_COLUMNS = (
    "unsure",
    "pooraudioquality",
    "difficulttounderstand",
    "nospeech",
    "music",
    "naturalpause",
)


@dataclass
class ClipRecord:
    """One labeled 3-second segment.

    ``fluent_label`` is the derived binary pseudo label: 0 for fluent clips,
    1 for every disfluent class.
    """

    clip_id: str
    podcast_id: str
    label: StutterClass
    audio_path: str | None = None
    start_ms: float | None = None
    stop_ms: float | None = None
    feature_path: str | None = None
    features: np.ndarray | None = field(default=None, repr=False)

    @property
    def fluent_label(self) -> int:
        return 0 if self.label == StutterClass.FLUENT else 1


@dataclass
class DatasetSplit:
    train: list[ClipRecord]
    valid: list[ClipRecord]
    test: list[ClipRecord]
    mode: str = ""

    def __iter__(self):
        return iter((self.train, self.valid, self.test))


def features_of(rec: ClipRecord) -> np.ndarray:
    """Feature matrix (n_mfcc, frames) for a record, loading from disk if needed."""
    if rec.features is not None:
        return rec.features
    if rec.feature_path:
        rec.features = read_fmat(rec.feature_path)
        return rec.features
    raise DataError(
        f"clip {rec.clip_id} carries no features; extract them from audio first"
    )


def shape_of(rec: ClipRecord) -> tuple[int, int]:
    """Shape of a record's feature matrix; of an unloaded one, from its file's header."""
    if rec.features is None and rec.feature_path:
        return read_fmat(rec.feature_path, shape_only=True)
    return features_of(rec).shape


def feature_sizes(records, headers_only=False) -> tuple[int, np.ndarray]:
    """The feature row count every record must share with the first, and each one's frames."""
    shapes = np.array([shape_of(r) if headers_only else features_of(r).shape for r in records])
    for rec, rows in zip(records, shapes[:, 0]):
        if rows != shapes[0, 0]:
            raise ShapeMismatch(f"clip {rec.clip_id} has {rows} feature rows, not {shapes[0, 0]}")
    return shapes[0, 0], shapes[:, 1]


class ClipArray(list):
    """A record list whose feature matrices are rows of one (N, n_mfcc, frames) array.

    Record i's matrix is base[rows[i], :, :lengths[i]]. base is the records' own array when
    each features is a whole row of one array of dtype (as from generate_synthetic), else a
    copy zero-padded to the longest clip, into which each unloaded record's file is read
    without keeping it on the record. labels and speakers (given a speaker_map) are targets.
    """

    def __init__(self, records, dtype=np.float32, speaker_map=None):
        super().__init__(records)
        n_mfcc, self.lengths = feature_sizes(self, headers_only=True)
        self.labels = np.array([int(r.label) for r in self], dtype=np.intp)
        self.speaker_map = speaker_map
        if speaker_map is not None:
            self.speakers = np.array([speaker_map[r.podcast_id] for r in self], dtype=np.intp)
        feats = [r.features for r in self]
        base = getattr(feats[0], "base", None)
        if isinstance(base, np.ndarray) and base.ndim == 3 and base.dtype == dtype and all(
                f is not None and f.base is base and f.shape == base.shape[1:]
                and f.strides == base.strides[1:] for f in feats):
            offsets = np.array([f.ctypes.data for f in feats]) - base.ctypes.data
            if not (offsets % base.strides[0]).any():
                self.base, self.rows = base, offsets // base.strides[0]
                return
        self.base = np.zeros((len(self), n_mfcc, self.lengths.max()), dtype)
        for row, rec, t in zip(self.base, self, self.lengths):
            # shape_of has made sure that each record has its features or a file
            row[:, :t] = rec.features if rec.features is not None else read_fmat(rec.feature_path)
        self.rows = np.arange(len(self))


def parse_label(text: str) -> StutterClass:
    label = _LABEL_BY_NAME.get(text.strip().lower())
    if label is None:
        raise UnknownLabel(f"unknown label {text!r}; expected one of {CLASS_NAMES}")
    return label


def load_manifest(path) -> list[ClipRecord]:
    """Parse a manifest CSV into clip records; labels are validated strictly."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            log.warning("%s: empty manifest", path)
            return records
        required = {"clip_id", "podcast_id", "label"}
        missing = required - set(reader.fieldnames)
        if missing:
            raise ParseError(f"{path}: manifest header missing columns {sorted(missing)}")
        for lineno, row in enumerate(reader, start=2):
            try:
                rec = ClipRecord(
                    clip_id=row["clip_id"].strip(),
                    podcast_id=row["podcast_id"].strip(),
                    label=parse_label(row["label"]),
                    audio_path=(row.get("audio_path") or "").strip() or None,
                    start_ms=float(row["start_ms"]) if row.get("start_ms") else None,
                    stop_ms=float(row["stop_ms"]) if row.get("stop_ms") else None,
                    feature_path=(row.get("feature_path") or "").strip() or None,
                )
            except UnknownLabel:
                raise
            except (KeyError, ValueError, AttributeError) as exc:
                raise ParseError(f"{path}:{lineno}: malformed row ({exc})") from exc
            if not rec.clip_id or not rec.podcast_id:
                raise ParseError(f"{path}:{lineno}: empty clip_id or podcast_id")
            records.append(rec)
    if not records:
        log.warning("%s: manifest has no data rows", path)
    return records


def write_manifest(path, records: list[ClipRecord]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["clip_id", "podcast_id", "label", "audio_path", "start_ms", "stop_ms", "feature_path"]
        )
        for r in records:
            writer.writerow(
                [
                    r.clip_id,
                    r.podcast_id,
                    CLASS_NAMES[r.label],
                    r.audio_path or "",
                    "" if r.start_ms is None else r.start_ms,
                    "" if r.stop_ms is None else r.stop_ms,
                    r.feature_path or "",
                ]
            )


def adapt_annotation_table(rows: list[dict]) -> tuple[list[ClipRecord], list[tuple[str, str]]]:
    """Resolve per-class annotator counts into single labels.

    A row keeps the class with the strictly largest count among the five
    stuttering classes; ties and rows with any non-stuttering flag set are
    excluded. Returns (records, exclusions) where exclusions is a list of
    (clip_id, reason).

    Rows either carry ``clip_id``/``podcast_id`` directly or the SEP-28k
    style ``Show``/``EpId``/``ClipId`` triple (podcast = Show_EpId).
    """
    records = []
    exclusions = []
    for lineno, raw in enumerate(rows, start=2):
        row = {k.strip().lower(): v for k, v in raw.items() if k is not None}
        if "clip_id" in row:
            clip_id = str(row["clip_id"]).strip()
            podcast_id = str(row.get("podcast_id", "")).strip()
        elif {"show", "epid", "clipid"} <= set(row):
            podcast_id = f"{str(row['show']).strip()}_{str(row['epid']).strip()}"
            clip_id = f"{podcast_id}_{str(row['clipid']).strip()}"
        else:
            raise ParseError(f"annotation row {lineno}: no clip identifier columns")
        if not clip_id or not podcast_id:
            raise ParseError(f"annotation row {lineno}: empty identifier")

        try:
            counts = {c: 0 for c in StutterClass}
            for col, cls in SEP28K_CLASS_COLUMNS.items():
                if col in row and str(row[col]).strip() != "":
                    counts[cls] += int(float(row[col]))
            nonstutter = sum(
                int(float(row[col]))
                for col in SEP28K_NONSTUTTER_COLUMNS
                if col in row and str(row[col]).strip() != ""
            )
        except ValueError as exc:
            raise ParseError(f"annotation row {lineno}: bad count ({exc})") from exc

        if nonstutter > 0:
            exclusions.append((clip_id, "non-stuttering annotation"))
            continue
        best = max(counts.values())
        winners = [c for c, n in counts.items() if n == best]
        if best <= 0:
            exclusions.append((clip_id, "no annotations"))
            continue
        if len(winners) > 1:
            exclusions.append((clip_id, "tie"))
            continue
        start = row.get("start")
        stop = row.get("stop")
        records.append(
            ClipRecord(
                clip_id=clip_id,
                podcast_id=podcast_id,
                label=winners[0],
                audio_path=str(row["audio_path"]).strip() if row.get("audio_path") else None,
                start_ms=float(start) if start not in (None, "") else None,
                stop_ms=float(stop) if stop not in (None, "") else None,
            )
        )
    return records, exclusions


def adapt_sep28k(path) -> tuple[list[ClipRecord], list[tuple[str, str]]]:
    """Read a raw annotation CSV and resolve it into a manifest."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return adapt_annotation_table(rows)


def _largest_remainder(total: int, ratios) -> list[int]:
    """Integer seat counts per ratio summing to total; ties go to earlier entries."""
    exact = [total * r for r in ratios]
    counts = [int(np.floor(e)) for e in exact]
    order = sorted(range(len(ratios)), key=lambda i: (-(exact[i] - counts[i]), i))
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _podcast_groups(records):
    groups: dict[str, list[ClipRecord]] = {}
    for r in records:
        groups.setdefault(r.podcast_id, []).append(r)
    return groups


def split_by_podcast(records, ratios=(0.8, 0.1, 0.1), seed=0) -> DatasetSplit:
    """Partition whole podcasts into train/valid/test (largest-remainder sizes)."""
    if len(ratios) != 3 or not all(0 <= r < np.inf for r in ratios) or abs(sum(ratios) - 1) > 1e-6:
        raise InvalidConfig(f"ratios must be three finite values >= 0 summing to 1, got {ratios}")
    groups = _podcast_groups(records)
    podcasts = sorted(groups)
    if len(podcasts) < 3:
        raise TooFewPodcasts(f"need >= 3 podcasts, got {len(podcasts)}")
    rng = np.random.default_rng(seed)
    rng.shuffle(podcasts)
    n_train, n_valid, n_test = _largest_remainder(len(podcasts), ratios)
    buckets = (
        podcasts[:n_train],
        podcasts[n_train : n_train + n_valid],
        podcasts[n_train + n_valid :],
    )
    parts = [[r for p in bucket for r in groups[p]] for bucket in buckets]
    return DatasetSplit(*parts, mode="podcast-disjoint")


def split_within_podcast(records, valid_fraction=0.1, seed=0, test=()) -> DatasetSplit:
    """Stratified per-(podcast, class) train/valid split; test is supplied fixed.

    Every (podcast, class) cell with at least 2 clips contributes at least
    one clip to each side; single-clip cells go to train with a warning.
    """
    if not 0 <= valid_fraction <= 1:
        raise InvalidConfig(f"valid_fraction must be in [0, 1], got {valid_fraction}")
    groups = _podcast_groups(records)
    if not groups:
        raise EmptyPodcast("no records to split")
    for pid, clips in groups.items():
        if len(clips) < 2:
            raise EmptyPodcast(f"podcast {pid} has {len(clips)} clip(s); need >= 2")
    rng = np.random.default_rng(seed)
    train: list[ClipRecord] = []
    valid: list[ClipRecord] = []
    for pid in sorted(groups):
        cells: dict[StutterClass, list[ClipRecord]] = {}
        for r in groups[pid]:
            cells.setdefault(r.label, []).append(r)
        for cls in sorted(cells, key=int):
            cell = sorted(cells[cls], key=lambda r: r.clip_id)
            rng.shuffle(cell)
            if len(cell) < 2:
                log.warning(
                    "podcast %s class %s has a single clip; keeping it in train",
                    pid,
                    CLASS_NAMES[cls],
                )
                train.extend(cell)
                continue
            n_valid = int(round(len(cell) * valid_fraction))
            n_valid = min(max(n_valid, 1), len(cell) - 1)
            valid.extend(cell[:n_valid])
            train.extend(cell[n_valid:])
    return DatasetSplit(train, valid, list(test), mode="within-podcast")


def kfold(records, k=10, seed=0, by="podcast") -> list[DatasetSplit]:
    """k cross-validation splits; folds are podcast-disjoint by default.

    Clip-level folding is available behind ``by="clip"``.
    """
    rng = np.random.default_rng(seed)
    if by == "podcast":
        groups = _podcast_groups(records)
        units = sorted(groups)
        if len(units) < k:
            raise TooFewPodcasts(f"need >= {k} podcasts for {k}-fold, got {len(units)}")
        rng.shuffle(units)
        sizes = _largest_remainder(len(units), [1.0 / k] * k)
        folds, start = [], 0
        for s in sizes:
            folds.append([r for u in units[start : start + s] for r in groups[u]])
            start += s
    elif by == "clip":
        units = sorted(records, key=lambda r: r.clip_id)
        rng.shuffle(units)
        sizes = _largest_remainder(len(units), [1.0 / k] * k)
        folds, start = [], 0
        for s in sizes:
            folds.append(units[start : start + s])
            start += s
    else:
        raise ValueError(f"unknown fold granularity {by!r}")
    splits = []
    for i in range(k):
        train = [r for j, fold in enumerate(folds) if j != i for r in fold]
        splits.append(DatasetSplit(train, folds[i], [], mode=f"fold{i}"))
    return splits


@dataclass(frozen=True)
class SyntheticConfig:
    """Feature-space synthetic corpus with controllable class/podcast signals.

    Each clip is alpha * A[class] + beta * ((1-rho) * Bperp[podcast] +
    rho * Bpar[podcast]) + sigma * noise, where the A patterns are
    orthonormal, the Bperp patterns are orthonormal and orthogonal to every
    A, and the Bpar patterns are unit vectors inside the span of the A
    patterns. rho therefore controls how much podcast identity is entangled
    with the class-discriminative directions.
    """

    n_podcasts: int = 4
    clips_per_class: int | dict = 20  # total per class, spread over podcasts
    frames: int = 20
    n_mfcc: int = 20
    alpha: float = 1.0
    beta: float = 1.0
    rho: float = 0.0
    sigma: float = 0.1
    seed: int = 0

    def validate(self):
        try:
            counts = self.class_counts()
        except UnknownLabel as exc:
            raise InvalidConfig(f"clips_per_class: {exc}") from exc
        missing = [CLASS_NAMES[c] for c in StutterClass if c not in counts]
        if missing:
            raise InvalidConfig(f"clips_per_class has no count for {', '.join(missing)}")
        if min(self.n_podcasts, self.n_mfcc, self.frames, *counts.values()) < 1:
            raise InvalidConfig("n_podcasts, n_mfcc, frames and class counts must be >= 1")
        if not (0.0 <= self.rho <= 1.0):
            raise InvalidConfig(f"rho must be in [0, 1], got {self.rho}")
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta) and 0 <= self.sigma < np.inf):
            raise InvalidConfig(f"alpha and beta must be finite and sigma finite and >= 0, got "
                                f"{self.alpha}, {self.beta}, {self.sigma}")
        patterns = len(StutterClass) + self.n_podcasts
        if self.n_mfcc * self.frames < patterns:
            raise InvalidConfig(f"n_mfcc * frames must be >= {patterns} (one pattern per class "
                                f"and podcast), got {self.n_mfcc * self.frames}")

    def class_counts(self) -> dict[StutterClass, int]:
        if isinstance(self.clips_per_class, dict):
            return count_by_class(self.clips_per_class.items())
        return {c: int(self.clips_per_class) for c in StutterClass}


def count_by_class(pairs) -> dict[StutterClass, int]:
    """{class: count} from (class or class name, count) pairs; a class given twice is an error."""
    counts = {}
    for c, n in pairs:
        cls = c if isinstance(c, StutterClass) else parse_label(str(c))
        if cls in counts:
            raise InvalidConfig(f"clips_per_class gives {CLASS_NAMES[cls]} twice")
        counts[cls] = int(n)
    return counts


def _patterns(cfg: SyntheticConfig, rng):
    # One QR factorization yields the class patterns and the podcast patterns
    # orthogonal to them; the entangled podcast patterns are unit combinations
    # of the class patterns.
    dim = cfg.n_mfcc * cfg.frames
    n_classes = len(StutterClass)
    basis = np.linalg.qr(rng.normal(size=(dim, n_classes + cfg.n_podcasts)))[0]
    class_patterns = basis[:, :n_classes].T
    podcast_perp = basis[:, n_classes:].T
    mix = rng.normal(size=(cfg.n_podcasts, n_classes))
    mix /= np.linalg.norm(mix, axis=1, keepdims=True)
    return class_patterns, podcast_perp, mix @ class_patterns


def generate_synthetic(cfg: SyntheticConfig) -> list[ClipRecord]:
    """Deterministically generate labeled clips, each a row of one float32 feature array."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    class_patterns, podcast_perp, podcast_par = _patterns(cfg, rng)
    counts = cfg.class_counts()
    clips = [(cls, i % cfg.n_podcasts, i) for cls in StutterClass for i in range(counts[cls])]
    shape = (len(clips), cfg.n_mfcc, cfg.frames)
    # Each (class, podcast) pair's noiseless signal, made once by the arithmetic of one clip.
    signals = {(c, p): (cfg.alpha * class_patterns[c] + cfg.beta * (
        (1.0 - cfg.rho) * podcast_perp[p] + cfg.rho * podcast_par[p])).reshape(shape[1:])
        for c, p in {clip[:2] for clip in clips}}
    # Its own anonymous mapping, not one large malloc chunk: freeing it unmaps it at once, and
    # it leaves glibc's dynamic mmap and trim thresholds alone for the rest of the process. For
    # the same reason the noise comes in blocks of at most 64 KiB of float64, below the 128 KiB
    # threshold glibc starts with, so no temporary here is mmapped and freed.
    buf = mmap.mmap(-1, 4 * shape[0] * shape[1] * shape[2], flags=mmap.MAP_PRIVATE)
    corpus = np.ndarray(shape, np.float32, buffer=buf)
    block = max(1, 8192 // (cfg.n_mfcc * cfg.frames))
    for lo in range(0, len(clips), block):
        noise = rng.normal(size=corpus[lo:lo + block].shape)  # each clip's draw, in order
        noise *= cfg.sigma
        for row, (c, p, _) in zip(noise, clips[lo:lo + block]):
            row += signals[c, p]  # addition commutes: signal + sigma * noise, to the bit
        corpus[lo:lo + block] = noise  # rounds as astype(np.float32) does
    return [ClipRecord(clip_id=f"syn_{CLASS_NAMES[c].lower()}_{i:04d}", podcast_id=f"pod{p}",
                       label=c, features=feats) for (c, p, i), feats in zip(clips, corpus)]
