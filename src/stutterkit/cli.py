"""Command-line entry points tying the pipeline together.

Subcommands: features (WAV manifest -> FMAT feature files), synth (generate
a synthetic feature corpus), train (split, fit, checkpoint + epoch log),
eval (metrics report, optional embedding export), probe (speaker probe on an
embeddings CSV), inspect (print a checkpoint header).

Configuration is a flat key=value text file with dotted section keys
(arch.*, train.*, mfcc.*, split.*, synth.*); '#' starts a comment. The
arch, train, mfcc and synth keys are the fields of ArchConfig, TrainConfig,
MfccConfig and SyntheticConfig. Unknown keys are rejected. Repeatable
--set key=value flags override file values, and the shorthand flags (--mode,
--lambda, --seed) override both.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from .checkpoint import inspect_checkpoint, load_checkpoint, save_checkpoint
from .data import (
    SyntheticConfig,
    count_by_class,
    feature_sizes,
    features_of,
    generate_synthetic,
    load_manifest,
    split_by_podcast,
    split_within_podcast,
    write_manifest,
)
from .errors import (ConfigError, DataError, InvalidConfig, NumericError, StutterKitError,
                     UnknownLabel)
from .evaluate import evaluate_model, export_embeddings, read_embeddings, speaker_probe
from .features import AudioClip, MfccConfig, extract_features, read_wav, write_fmat
from .model import ArchConfig, build_model
from .training import TrainConfig, speaker_index_map, train


def _parse_bool(s):
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_ints(s):
    return tuple(int(v) for v in s.split(",") if v.strip())


def _parse_floats(s):
    return tuple(float(v) for v in s.split(",") if v.strip())


def _parse_contexts(s):
    """Semicolon-separated offset groups, e.g. '-2,-1,0,1,2;-2,0,2;-3,0,3;0;0'."""
    return tuple(tuple(int(v) for v in grp.split(",")) for grp in s.split(";"))


def _parse_counts(s):
    """Either one total per class, or Name:count pairs (e.g. Fluent:16,Block:12), one per class."""
    if ":" not in s:
        return int(s)
    pairs = (pair.partition(":")[::2] for pair in s.split(","))
    return count_by_class((c, int(n)) for c, n in pairs)


def _opt_int(s):
    return None if s.strip().lower() in ("", "none", "auto") else int(s)


# annotation -> value parser; a field annotated otherwise fails here at import.
_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool,
            "int | None": _opt_int, "int | dict": _parse_counts,
            "tuple[int, ...]": _parse_ints, "tuple[tuple[int, ...], ...]": _parse_contexts}


def _keys(cls):
    """A section's keys are its dataclass's fields (train.log_path is --log)."""
    return {f.name: _PARSERS[f.type] for f in fields(cls) if f.name != "log_path"}


# section -> field -> value parser; this is the whole config vocabulary. The
# split functions take no config object, so their four keys are listed here.
CONFIG_KEYS = {
    "arch": _keys(ArchConfig),
    "train": _keys(TrainConfig),
    "mfcc": _keys(MfccConfig),
    "split": {"mode": str, "ratios": _parse_floats, "valid_fraction": float, "seed": int},
    "synth": _keys(SyntheticConfig),
}


class RunConfig:
    """Typed key-value configuration shared by all subcommands."""

    def __init__(self):
        self.sections = {name: {} for name in CONFIG_KEYS}

    def set_key(self, key: str, raw: str, where: str):
        section, _, fieldname = key.partition(".")
        parsers = CONFIG_KEYS.get(section)
        if parsers is None or fieldname not in parsers:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        try:
            self.sections[section][fieldname] = parsers[fieldname](raw)
        except (ValueError, UnknownLabel, InvalidConfig) as exc:
            raise ConfigError(f"{where}: bad value for {key}: {exc}") from exc

    @classmethod
    def load(cls, path=None, overrides=()):
        cfg = cls()
        if path:
            with open(path) as fh:
                for lineno, line in enumerate(fh, start=1):
                    line = line.split("#", 1)[0].strip()
                    if not line:
                        continue
                    key, eq, raw = line.partition("=")
                    if not eq:
                        raise ConfigError(f"{path}:{lineno}: expected key = value")
                    cfg.set_key(key.strip(), raw.strip(), f"{path}:{lineno}")
        for item in overrides or ():
            key, eq, raw = item.partition("=")
            if not eq:
                raise ConfigError(f"--set {item!r}: expected key=value")
            cfg.set_key(key.strip(), raw.strip(), "--set")
        return cfg

    def __getitem__(self, section):
        return self.sections[section]


def _write_feature_corpus(records, out_dir, manifest_name="manifest.csv"):
    os.makedirs(out_dir, exist_ok=True)
    for rec in records:
        path = os.path.join(out_dir, f"{rec.clip_id}.fmat")
        write_fmat(path, features_of(rec))
        rec.feature_path = path
        rec.features = None
    manifest_path = os.path.join(out_dir, manifest_name)
    write_manifest(manifest_path, records)
    return manifest_path


def cmd_features(args):
    cfg = RunConfig.load(args.config, args.set)
    mfcc = MfccConfig(**cfg["mfcc"])
    mfcc.validate()
    records = load_manifest(args.manifest)
    os.makedirs(args.out_dir, exist_ok=True)
    failures = []
    kept = []
    for rec in records:
        if not rec.audio_path:
            failures.append((rec.clip_id, "no audio_path in manifest"))
            continue
        try:
            clip = read_wav(rec.audio_path)
            if rec.start_ms is not None and rec.stop_ms is not None:
                lo = int(round(rec.start_ms * clip.sample_rate / 1000.0))
                hi = int(round(rec.stop_ms * clip.sample_rate / 1000.0))
                clip = AudioClip(clip.samples[lo:hi], clip.sample_rate)
            feats = extract_features(clip, mfcc)
        except ConfigError:
            raise  # a bad setting fails every clip alike: exit 1, not a per-clip failure
        except (OSError, StutterKitError, ValueError) as exc:
            failures.append((rec.clip_id, str(exc)))
            continue
        rec.features = feats
        kept.append(rec)
    manifest_path = _write_feature_corpus(kept, args.out_dir)
    print(f"wrote {len(kept)} feature files and {manifest_path}")
    if failures:
        for clip_id, reason in failures:
            print(f"failed {clip_id}: {reason}", file=sys.stderr)
        raise DataError(f"{len(failures)} of {len(records)} clips failed")
    return 0


def cmd_synth(args):
    cfg = RunConfig.load(args.config, args.set)
    records = generate_synthetic(SyntheticConfig(**cfg["synth"]))
    manifest_path = _write_feature_corpus(records, args.out_dir)
    print(f"wrote {len(records)} synthetic clips and {manifest_path}")
    return 0


def _split_records(records, split_cfg):
    mode = split_cfg.get("mode", "podcast")
    seed = split_cfg.get("seed", 0)
    if mode == "podcast":
        return split_by_podcast(records, split_cfg.get("ratios", (0.8, 0.1, 0.1)), seed)
    if mode == "within":
        return split_within_podcast(records, split_cfg.get("valid_fraction", 0.1), seed)
    raise ConfigError(f"split.mode must be 'podcast' or 'within', got {mode!r}")


def cmd_train(args):
    cfg = RunConfig.load(args.config, args.set)
    train_kwargs = dict(cfg["train"])
    if args.mode:
        train_kwargs["objective"] = args.mode
    if args.lam is not None:
        train_kwargs["lam"] = args.lam
    if args.seed is not None:
        train_kwargs["seed"] = args.seed
    log_path = args.log or f"{args.out}.log.csv"
    tc = TrainConfig(**train_kwargs, log_path=log_path)
    tc.validate()

    records = load_manifest(args.manifest)
    if not records:
        raise DataError(f"{args.manifest}: no records")
    split = _split_records(records, cfg["split"])
    smap = speaker_index_map(split.train)

    arch_kwargs = dict(cfg["arch"])
    arch_kwargs.setdefault("n_podcasts", len(smap))
    if split.train:  # an empty one fails on n_podcasts instead
        arch_kwargs.setdefault("n_mfcc", int(feature_sizes(split.train, headers_only=True)[0]))
    arch = ArchConfig(**arch_kwargs)
    model = build_model(arch, seed=tc.seed)

    result = train(model, split.train, split.valid, tc)
    extra = {
        "objective": tc.objective,
        "seed": tc.seed,
        "lambda": tc.lam,
        "lambda_schedule": tc.lambda_schedule,
        "epochs_run": len(result.history),
        "best_epoch": result.best_epoch,
        "stopped_epoch": result.stopped_epoch,
        "best_valid_stutter_loss": result.best_valid_stutter_loss
        if np.isfinite(result.best_valid_stutter_loss)
        else None,
        "split_mode": split.mode,
    }
    save_checkpoint(args.out, model, speaker_map=smap, extra=extra)
    last = result.history[-1]
    print(
        f"{tc.objective}: {len(result.history)} epochs "
        f"(best {result.best_epoch}, stopped {result.stopped_epoch}), "
        f"final valid acc {last.valid_acc:.4f}, checkpoint {args.out}, log {log_path}"
    )
    return 0


def cmd_eval(args):
    model, header = load_checkpoint(args.checkpoint)
    records = load_manifest(args.manifest)
    if not records:
        raise DataError(f"{args.manifest}: no records")
    report = evaluate_model(model, records)
    print(report.table())
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
        print(f"report written to {args.report}")
    if args.export_embeddings:
        export_embeddings(model, records, args.export_embeddings, outputs=report.outputs)
        print(f"embeddings written to {args.export_embeddings}")
    return 0


def cmd_probe(args):
    emb, _, podcast_ids, _ = read_embeddings(args.embeddings)
    result = speaker_probe(emb, podcast_ids, seed=args.seed, steps=args.steps, lr=args.lr)
    print(
        f"speaker probe accuracy {result.accuracy:.4f} "
        f"({result.n_heldout} held out of {result.n_heldout + result.n_train}, "
        f"{result.n_speakers} podcasts)"
    )
    return 0


def cmd_inspect(args):
    header = inspect_checkpoint(args.checkpoint)
    shown = {k: v for k, v in header.items() if k != "tensors"}
    shown["n_tensors"] = len(header["tensors"])
    shown["n_values"] = int(
        sum(int(np.prod(t["shape"])) if t["shape"] else 1 for t in header["tensors"])
    )
    print(json.dumps(shown, indent=2, sort_keys=True))
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stutterkit", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")

    p = sub.add_parser("features", help="extract MFCC matrices from a WAV manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    common(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("synth", help="generate a synthetic feature corpus")
    p.add_argument("--out-dir", required=True)
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="split a manifest, train, write checkpoint + log")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", help="epoch log CSV (default: <out>.log.csv)")
    p.add_argument("--mode", choices=("baseline", "mtl", "adv"),
                   help="training objective (overrides train.objective)")
    p.add_argument("--lambda", dest="lam", type=float,
                   help="speaker loss weight (overrides train.lam)")
    p.add_argument("--seed", type=int, help="overrides train.seed")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="metrics report for a checkpoint on a manifest")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--report", help="write the JSON report here")
    p.add_argument("--export-embeddings", metavar="CSV",
                   help="also write pooled embeddings")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("probe", help="speaker probe on an embeddings CSV")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--lr", type=float, default=1e-2)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("inspect", help="print a checkpoint header (no payload read)")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except StutterKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
