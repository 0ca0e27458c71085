"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Criterion 9 runs on a bundled mock annotation table
by default; point STUTTERKIT_SEP28K_CSV at a real annotation CSV and
STUTTERKIT_SEP28K_FEATURES at a directory of <clip_id>.fmat files to run
the same protocol on the licensed corpus (expect a long run).
"""

import csv
import os
import time
from fractions import Fraction as Fr
from pathlib import Path

import numpy as np

from gradcases import F32_TOL, F64_TOL, run_battery
from oracles import bruteforce_mel_energies, bruteforce_mfcc
from stutterkit.data import (
    ClipRecord,
    StutterClass,
    SyntheticConfig,
    adapt_sep28k,
    generate_synthetic,
    split_by_podcast,
    split_within_podcast,
)
from stutterkit.evaluate import TABLE_COLUMNS, confusion, evaluate_model, metrics, speaker_probe
from stutterkit.features import AudioClip, MfccConfig, compute_mfcc, frame_signal, mel_filterbank, write_fmat
from stutterkit.model import ArchConfig, build_model
from stutterkit.training import (
    TrainConfig,
    compute_losses,
    dataset_accuracy,
    infer,
    loss_total,
    make_batch,
    speaker_index_map,
    train,
)

SR = 16000


def verdict(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def sine(freq, seconds=0.5, rate=SR):
    t = np.arange(int(seconds * rate)) / rate
    return AudioClip(0.5 * np.sin(2.0 * np.pi * freq * t), rate)


# -- 1. gradient suite ---------------------------------------------------------


def test_criterion_1_gradient_suite():
    t0 = time.monotonic()
    reports = run_battery()
    elapsed = time.monotonic() - t0

    required = {
        "tdnn_context_pm2", "tdnn_context_d2", "tdnn_context_d3",
        "linear_relu_chain", "batchnorm_flat", "batchnorm_temporal",
        "statpool_chain", "softmax_ce", "grl_downstream", "grl_upstream",
        "full_model_mtl", "full_model_adv_main", "full_model_adv_speaker",
    }
    names = {key.rsplit(".", 1)[0] for key in reports}
    assert required <= names, required - names

    failed = [key for key, rep in reports.items() if not rep.passed]
    worst32 = max(rep.worst for key, rep in reports.items() if key.endswith(".f32"))
    worst64 = max(rep.worst for key, rep in reports.items() if key.endswith(".f64"))
    ok = (not failed and worst32 <= F32_TOL and worst64 <= F64_TOL
          and elapsed <= 60.0)
    verdict(1, ok,
            f"{len(reports)} checks, worst f32 {worst32:.2e} (tol {F32_TOL}), "
            f"worst f64 {worst64:.2e} (tol {F64_TOL}), {elapsed:.1f}s"
            + (f", failed: {failed}" if failed else ""))


# -- 2. reversal-layer identities ----------------------------------------------


def _identity_model_and_batch():
    arch = ArchConfig(
        n_podcasts=3,
        n_mfcc=4,
        encoder_channels=(4, 4, 4, 4, 4),
        contexts=((-1, 0, 1), (-1, 0, 1), (-2, 0, 2), (0,), (0,)),
        head_hidden=(6, 6),
        dropout=0.0,
    )
    model = build_model(arch, seed=3, dtype=np.float64)
    rng = np.random.default_rng(42)
    x = rng.normal(size=(8, 4, 12))
    y = np.array([0, 1, 2, 3, 4, 0, 2, 3])
    ys = np.array([0, 1, 2, 0, 1, 2, 0, 1])
    return model, x, y, ys


def _encoder_grads(model, x, y, ys, *, grl_lambda, weights):
    parts = frozenset({"encoder", "fluent", "disfluent", "speaker"})
    _, lf, ld, ls = model.forward(x, train=parts, grl_lambda=grl_lambda)
    losses = compute_losses(lf, ld, ls, y, ys)
    wf, wd, ws = weights
    model.backward(
        dlf=None if wf is None else wf * losses.dlf,
        dld=None if wd is None else wd * losses.dld,
        dls=None if ws is None else ws * losses.dls,
    )
    return {n: p.grad.copy() for n, p in model.named_params().items()
            if n.startswith("encoder.")}


def test_criterion_2_reversal_identities():
    model, x, y, ys = _identity_model_and_batch()

    # forward pass is the identity with or without the reversal layer
    plain = model.forward(x)
    wrapped = model.forward(x, grl_lambda=0.7)
    forward_ok = all(np.array_equal(a, b) for a, b in zip(plain, wrapped))

    # encoder speaker-term gradient under the reversal = -lam x the weight-1 term
    lam = 0.4
    g_adv = _encoder_grads(model, x, y, ys, grl_lambda=lam, weights=(None, None, 1.0))
    g_one = _encoder_grads(model, x, y, ys, grl_lambda=None, weights=(None, None, 1.0))
    worst = 0.0
    for name in g_adv:
        want = -lam * g_one[name]
        denom = np.maximum(np.maximum(np.abs(g_adv[name]), np.abs(want)), 1e-8)
        worst = max(worst, float((np.abs(g_adv[name] - want) / denom).max()))
    scale_ok = worst <= 1e-6

    # lam=0 collapses all three objectives to the same encoder gradient
    g_base = _encoder_grads(model, x, y, ys, grl_lambda=None, weights=(1.0, 1.0, None))
    g_mtl0 = _encoder_grads(model, x, y, ys, grl_lambda=None, weights=(1.0, 1.0, 0.0))
    g_adv0 = _encoder_grads(model, x, y, ys, grl_lambda=0.0, weights=(1.0, 1.0, 1.0))
    zero_ok = all(
        np.array_equal(g_base[n], g_mtl0[n]) and np.array_equal(g_base[n], g_adv0[n])
        for n in g_base
    )

    verdict(2, forward_ok and scale_ok and zero_ok,
            f"forward bitwise {forward_ok}, speaker-term worst rel {worst:.2e} "
            f"(tol 1e-6), lam=0 three-way equality {zero_ok}")


# -- 3. loss composition --------------------------------------------------------


def test_criterion_3_loss_composition():
    # hand tables: (l_fluent, l_disfluent, l_speaker) -> lam -> expected total
    mtl_a = {0.1: 1.9, 0.2: 1.8, 0.3: 1.7, 0.4: 1.6, 0.5: 1.5,
             0.6: 1.4, 0.7: 1.3, 0.8: 1.2, 0.9: 1.1}
    mtl_b = {0.1: 1.11, 0.2: 1.32, 0.3: 1.53, 0.4: 1.74, 0.5: 1.95,
             0.6: 2.16, 0.7: 2.37, 0.8: 2.58, 0.9: 2.79}
    adv_a = {0.1: 1.9, 0.2: 1.8, 0.3: 1.7, 0.4: 1.6, 0.5: 1.5,
             0.6: 1.4, 0.7: 1.3, 0.8: 1.2, 0.9: 1.1}
    adv_b = {0.1: 0.6, 0.2: 0.3, 0.3: 0.0, 0.4: -0.3, 0.5: -0.6,
             0.6: -0.9, 0.7: -1.2, 0.8: -1.5, 0.9: -1.8}

    worst = 0.0
    for lam in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        for stage, table, losses in (
            ("mtl", mtl_a, (1.2, 0.8, 1.0)),
            ("mtl", mtl_b, (0.5, 0.4, 3.0)),
            ("joint_grl", adv_a, (1.2, 0.8, 1.0)),
            ("joint_grl", adv_b, (0.5, 0.4, 3.0)),
        ):
            got = loss_total(stage, lam, *losses)
            worst = max(worst, abs(got - table[lam]))
    headline = abs(loss_total("mtl", 0.3, 1.2, 0.8, 1.0) - 1.7)
    ok = worst <= 1e-7 and headline <= 1e-7
    verdict(3, ok, f"36 grid points, worst |err| {worst:.2e} (tol 1e-7), "
                   f"(1-0.3)*2.0 + 0.3*1.0 off by {headline:.2e}")


# -- 4. tiny overfit ------------------------------------------------------------


def test_criterion_4_tiny_overfit():
    t0 = time.monotonic()
    counts = {StutterClass.FLUENT: 16, StutterClass.REPETITION: 12,
              StutterClass.PROLONGATION: 12, StutterClass.BLOCK: 12,
              StutterClass.INTERJECTION: 12}
    records = generate_synthetic(SyntheticConfig(
        n_podcasts=4, clips_per_class=counts, frames=20,
        alpha=1.0, beta=0.0, sigma=0.05, seed=7))
    assert len(records) == 64

    arch = ArchConfig(n_podcasts=4, encoder_channels=(32,) * 5, head_hidden=(32, 32))
    model = build_model(arch, seed=0)
    cfg = TrainConfig(objective="baseline", max_epochs=200, batch_size=32,
                      lr=1e-2, seed=0, patience=200)
    # Eval-mode accuracy on the training set after each epoch (train_acc is the steps' own).
    accuracy = []
    train(model, records, [], cfg,
          callback=lambda rec, m: accuracy.append(infer(m, records, cfg.batch_size).accuracy))
    elapsed = time.monotonic() - t0

    hits = [epoch for epoch, acc in enumerate(accuracy) if acc == 1.0]
    ok = bool(hits) and elapsed < 120.0
    verdict(4, ok,
            f"100% train accuracy on 64 clips "
            + (f"first at epoch {hits[0]}" if hits else "never reached")
            + f" (limit 200), {elapsed:.1f}s (limit 120)")


# -- 5. speaker-invariance effect ------------------------------------------------


def test_criterion_5_invariance_effect():
    t0 = time.monotonic()
    records = generate_synthetic(SyntheticConfig(
        n_podcasts=4, clips_per_class=200, frames=20,
        alpha=2.0, beta=2.0, rho=0.6, sigma=0.3, seed=100))
    split = split_within_podcast(records, 0.15, seed=0)
    arch = ArchConfig(n_podcasts=4, encoder_channels=(32,) * 5, head_hidden=(32, 32))
    podcasts = [r.podcast_id for r in records]

    def config(objective, seed):
        kw = dict(objective=objective, lam=0.3, batch_size=32, lr=3e-3,
                  seed=seed, patience=10)
        if objective == "adv":
            return TrainConfig(max_epochs=45, stage_bounds=(5, 10, 15), **kw)
        return TrainConfig(max_epochs=30, **kw)

    median = {}
    print("\nobjective  seed  probe_acc  valid_acc  best_epoch")
    for objective in ("baseline", "mtl", "adv"):
        probes, vaccs = [], []
        for seed in range(5):
            model = build_model(arch, seed=seed)
            result = train(model, split.train, split.valid, config(objective, seed))
            vaccs.append(dataset_accuracy(model, split.valid))
            probes.append(speaker_probe(infer(model, records).embeddings,
                                        podcasts, seed=0).accuracy)
            print(f"{objective:<9}  {seed:>4}  {probes[-1]:>9.3f}  {vaccs[-1]:>9.3f}  "
                  f"{result.best_epoch!s:>10}")
        median[objective] = (float(np.median(probes)), float(np.median(vaccs)))

    elapsed = time.monotonic() - t0
    gap = median["mtl"][0] - median["adv"][0]
    dvacc = abs(median["adv"][1] - median["baseline"][1])
    ok = gap >= 0.10 and dvacc <= 0.05 and elapsed <= 900.0
    verdict(5, ok,
            f"median probe mtl {median['mtl'][0]:.3f} vs adv {median['adv'][0]:.3f} "
            f"(gap {100 * gap:.1f} pts, need >= 10), adv valid acc "
            f"{median['adv'][1]:.3f} vs baseline {median['baseline'][1]:.3f} "
            f"(|diff| {100 * dvacc:.1f} pts, need <= 5), {elapsed:.0f}s (limit 900)")


# -- 6. metrics oracle -----------------------------------------------------------

# (truth, pred, precision, recall, f1, SA, TA, undefined-precision classes);
# classes F=0 R=1 P=2 B=3 I=4, all expectations hand-derived as exact fractions
CONFUSION_CASES = [
    ([0, 1, 2, 3, 4, 0, 1, 2, 3, 4], [0, 1, 2, 3, 4, 0, 1, 2, 3, 4],
     [1, 1, 1, 1, 1], [1, 1, 1, 1, 1], [1, 1, 1, 1, 1], 1, 1, ()),
    ([0, 0, 0, 0, 0], [0, 0, 0, 0, 0],
     [1, 0, 0, 0, 0], [1, 0, 0, 0, 0], [1, 0, 0, 0, 0], 0, 1, (1, 2, 3, 4)),
    ([0, 1], [1, 1],
     [0, Fr(1, 2), 0, 0, 0], [0, 1, 0, 0, 0], [0, Fr(2, 3), 0, 0, 0],
     Fr(1, 4), Fr(1, 2), (0, 2, 3, 4)),
    ([0, 0, 1], [0, 1, 1],
     [1, Fr(1, 2), 0, 0, 0], [Fr(1, 2), 1, 0, 0, 0],
     [Fr(2, 3), Fr(2, 3), 0, 0, 0], Fr(1, 4), Fr(2, 3), (2, 3, 4)),
    ([1, 1, 2, 2], [2, 2, 1, 1],
     [0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0], 0, 0, (0, 3, 4)),
    ([1, 1, 1, 1, 2, 2, 3, 0], [1, 1, 2, 3, 2, 1, 3, 0],
     [1, Fr(2, 3), Fr(1, 2), Fr(1, 2), 0], [1, Fr(1, 2), Fr(1, 2), 1, 0],
     [1, Fr(4, 7), Fr(1, 2), Fr(2, 3), 0], Fr(1, 2), Fr(5, 8), (4,)),
    ([4, 4, 4, 0], [4, 0, 4, 4],
     [0, 0, 0, 0, Fr(2, 3)], [0, 0, 0, 0, Fr(2, 3)], [0, 0, 0, 0, Fr(2, 3)],
     Fr(1, 6), Fr(1, 2), (1, 2, 3)),
    ([3, 3, 3, 2, 2, 2], [3, 2, 3, 2, 3, 2],
     [0, 0, Fr(2, 3), Fr(2, 3), 0], [0, 0, Fr(2, 3), Fr(2, 3), 0],
     [0, 0, Fr(2, 3), Fr(2, 3), 0], Fr(1, 3), Fr(2, 3), (0, 1, 4)),
    ([1, 1, 1], [0, 0, 0],
     [0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0], 0, 0, (1, 2, 3, 4)),
    ([0, 0, 0, 0, 1, 1, 2, 3, 4, 4], [0, 0, 1, 4, 1, 1, 2, 3, 4, 0],
     [Fr(2, 3), Fr(2, 3), 1, 1, Fr(1, 2)], [Fr(1, 2), 1, 1, 1, Fr(1, 2)],
     [Fr(4, 7), Fr(4, 5), 1, 1, Fr(1, 2)], Fr(7, 8), Fr(7, 10), ()),
]


def test_criterion_6_metrics_oracle():
    worst = 0.0
    for i, (truth, pred, p, r, f1, sa, ta, undef) in enumerate(CONFUSION_CASES):
        rep = metrics(confusion(truth, pred))
        for got, want in (
            (rep.precision, p), (rep.recall, r), (rep.f1, f1),
            ([rep.stutter_accuracy], [sa]), ([rep.total_accuracy], [ta]),
            ([rep.fluent_accuracy], [r[0]]),
        ):
            err = np.abs(np.asarray(got, dtype=float)
                         - np.array([float(w) for w in want])).max()
            worst = max(worst, float(err))
        assert rep.undefined_precision == undef, f"case {i}: {rep.undefined_precision}"

    # table layout: column order and the row mapped onto those columns
    rep = metrics(confusion(*CONFUSION_CASES[9][:2]))
    lines = rep.table().splitlines()
    layout_ok = lines[1].split() == list(TABLE_COLUMNS)
    want_row = [rep.recall[1], rep.recall[2], rep.recall[3], rep.recall[4],
                rep.stutter_accuracy, rep.fluent_accuracy, rep.total_accuracy]
    layout_ok &= lines[2].split() == [f"{100 * v:.2f}" for v in want_row]

    ok = worst <= 1e-12 and layout_ok
    verdict(6, ok, f"10 hand cases, worst |err| {worst:.1e} vs exact fractions, "
                   f"column order {' '.join(TABLE_COLUMNS)} {layout_ok}")


# -- 7. mfcc oracle --------------------------------------------------------------


def test_criterion_7_mfcc_oracle():
    worst_mel, worst_cep = 0.0, 0.0
    for freq in (440.0, 1000.0):
        clip = sine(freq)
        frames = frame_signal(clip, MfccConfig())
        power = np.abs(np.fft.rfft(frames, n=512, axis=1)) ** 2
        mel = power @ mel_filterbank(40, 512, SR).T
        ref = bruteforce_mel_energies(np.asarray(clip.samples), SR)
        rel = np.abs(mel - ref) / np.maximum(np.abs(ref), 1e-12)
        worst_mel = max(worst_mel, float(rel.max()))

        ours = compute_mfcc(clip, MfccConfig())
        ref_c = bruteforce_mfcc(np.asarray(clip.samples), SR)
        worst_cep = max(worst_cep, float(np.abs(ours - ref_c).max()))

    ok = worst_mel < 1e-4 and worst_cep < 1e-3
    verdict(7, ok, f"440/1000 Hz sines: worst mel rel {worst_mel:.2e} (tol 1e-4), "
                   f"worst cepstral |err| {worst_cep:.2e} (tol 1e-3)")


# -- 8. split protocol -----------------------------------------------------------


def test_criterion_8_split_protocol():
    fleet = [ClipRecord(clip_id=f"c{i}", podcast_id=f"pod{i:03d}",
                        label=StutterClass.FLUENT) for i in range(385)]
    split = split_by_podcast(fleet, (0.8, 0.1, 0.1), seed=0)
    sizes = tuple(len({r.podcast_id for r in part})
                  for part in (split.train, split.valid, split.test))
    partition_ok = sizes == (308, 39, 38) and sum(sizes) == 385

    # presence guarantee on uneven per-(podcast, class) cells
    rng = np.random.default_rng(5)
    mock = []
    for p in range(6):
        for c in StutterClass:
            for k in range(1 + (p + int(c)) % 3):
                mock.append(ClipRecord(clip_id=f"m{p}_{int(c)}_{k}",
                                       podcast_id=f"show_{p}",
                                       label=c))
    rng.shuffle(mock)
    within = split_within_podcast(mock, 0.2, seed=3)
    cells = {(r.podcast_id, r.label) for r in mock}
    train_cells = {(r.podcast_id, r.label) for r in within.train}
    valid_cells = {(r.podcast_id, r.label) for r in within.valid}
    multi = {(r.podcast_id, r.label) for r in mock
             if sum(1 for s in mock if (s.podcast_id, s.label)
                    == (r.podcast_id, r.label)) >= 2}
    presence_ok = train_cells == cells and multi <= valid_cells

    verdict(8, partition_ok and presence_ok,
            f"385 podcasts -> {sizes[0]}/{sizes[1]}/{sizes[2]}, within-podcast "
            f"presence: train covers {len(train_cells)}/{len(cells)} cells, "
            f"valid covers all {len(multi)} multi-clip cells")


# -- 9. corpus protocol ----------------------------------------------------------


def _write_mock_sep28k(root: Path):
    """An annotation CSV shaped like the public corpus, plus matching features."""
    csv_path = root / "annotations.csv"
    feat_dir = root / "features"
    feat_dir.mkdir()
    rng = np.random.default_rng(11)
    patterns = rng.normal(size=(5, 20, 16))
    patterns /= np.linalg.norm(patterns, axis=(1, 2), keepdims=True)

    votes = {
        StutterClass.FLUENT: {"NoStutteredWords": 3},
        StutterClass.REPETITION: {"SoundRep": 2, "WordRep": 1},
        StutterClass.PROLONGATION: {"Prolongation": 3},
        StutterClass.BLOCK: {"Block": 3},
        StutterClass.INTERJECTION: {"Interjection": 3},
    }
    columns = ["Show", "EpId", "ClipId", "Start", "Stop", "Prolongation",
               "Block", "SoundRep", "WordRep", "Interjection",
               "NoStutteredWords", "Unsure", "PoorAudioQuality"]
    rows = []
    for show in ("HVSA", "WomenWhoStutter", "MyStutteringLife", "StrongVoices"):
        for ep in range(3):
            for i in range(20):
                cls = StutterClass(i % 5)
                row = dict.fromkeys(columns, "0")
                row.update(Show=show, EpId=str(ep), ClipId=str(i), Start="", Stop="")
                for col, n in votes[cls].items():
                    row[col] = str(n)
                rows.append(row)
                feats = (12.0 * patterns[int(cls)]
                         + rng.normal(scale=0.5, size=(20, 16))).astype(np.float32)
                write_fmat(feat_dir / f"{show}_{ep}_{i}.fmat", feats)
    # rows the adapter must exclude: a tie, an unsure flag, no annotations
    rows.append(dict.fromkeys(columns, "0")
                | {"Show": "HVSA", "EpId": "0", "ClipId": "90", "Start": "",
                   "Stop": "", "Prolongation": "2", "Block": "2"})
    rows.append(dict.fromkeys(columns, "0")
                | {"Show": "HVSA", "EpId": "1", "ClipId": "91", "Start": "",
                   "Stop": "", "Interjection": "3", "Unsure": "1"})
    rows.append(dict.fromkeys(columns, "0")
                | {"Show": "HVSA", "EpId": "2", "ClipId": "92", "Start": "", "Stop": ""})

    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    return csv_path, feat_dir


def test_criterion_9_corpus_protocol(tmp_path):
    t0 = time.monotonic()
    real_csv = os.environ.get("STUTTERKIT_SEP28K_CSV")
    real_feats = os.environ.get("STUTTERKIT_SEP28K_FEATURES")
    if real_csv and real_feats:
        csv_path, feat_dir, desk = Path(real_csv), Path(real_feats), False
    else:
        csv_path, feat_dir = _write_mock_sep28k(tmp_path)
        desk = True

    records, exclusions = adapt_sep28k(csv_path)
    kept = []
    for rec in records:
        path = feat_dir / f"{rec.clip_id}.fmat"
        if path.exists():
            rec.feature_path = str(path)
            kept.append(rec)
    assert kept, "no feature files matched the annotation table"
    if desk:
        assert len(records) == 240 and len(exclusions) == 3

    split = split_by_podcast(kept, (0.8, 0.1, 0.1), seed=0)
    smap = speaker_index_map(split.train)
    n_mfcc = make_batch(kept, [0])[0].shape[1]
    channels = 8 if desk else 64
    arch = ArchConfig(n_podcasts=len(smap), n_mfcc=n_mfcc,
                      encoder_channels=(channels,) * 5,
                      head_hidden=(channels,) * 2)

    def config(objective, seed):
        kw = dict(objective=objective, lam=0.3, batch_size=32, seed=seed)
        if desk:
            if objective == "adv":
                return TrainConfig(max_epochs=4, stage_bounds=(1, 2, 3),
                                   lr=1e-2, patience=10, **kw)
            return TrainConfig(max_epochs=2, lr=1e-2, patience=10, **kw)
        if objective == "adv":
            return TrainConfig(max_epochs=45, stage_bounds=(5, 10, 15),
                               lr=3e-3, patience=10, **kw)
        return TrainConfig(max_epochs=30, lr=3e-3, patience=10, **kw)

    summary = {}
    for objective in ("baseline", "mtl", "adv"):
        tas, sas = [], []
        for seed in range(10):
            model = build_model(arch, seed=seed)
            train(model, split.train, split.valid, config(objective, seed))
            report = evaluate_model(model, split.test)
            tas.append(report.total_accuracy)
            sas.append(report.stutter_accuracy)
        summary[objective] = (np.mean(tas), np.std(tas), np.mean(sas), np.std(sas))

    elapsed = time.monotonic() - t0
    lines = [
        f"{obj}: TA {100 * m:.2f} +/- {100 * s:.2f}, SA {100 * ms:.2f} +/- {100 * ss:.2f}"
        for obj, (m, s, ms, ss) in summary.items()
    ]
    ok = all(np.isfinite(v) for vals in summary.values() for v in vals)
    verdict(9, ok,
            f"{'mock' if desk else 'real'} corpus: {len(kept)} clips "
            f"({len(exclusions)} excluded), podcasts "
            f"{len({r.podcast_id for r in split.train})}/"
            f"{len({r.podcast_id for r in split.valid})}/"
            f"{len({r.podcast_id for r in split.test})}, 10-run averages "
            + "; ".join(lines) + f", {elapsed:.0f}s (no tolerance gate)")
