"""Model assembly: architecture validation, naming, inference rule, state."""

import dataclasses

import numpy as np
import pytest

from stutterkit.checkpoint import load_checkpoint, save_checkpoint
from stutterkit.data import SyntheticConfig, generate_synthetic, split_within_podcast
from stutterkit.errors import InputTooShort, InvalidArch, ShapeMismatch
from conftest import make_tiny_arch, predict
from oracles import per_clip_encode
from stutterkit.model import (
    CLASS_INITIALS,
    CLASS_NAMES,
    DEFAULT_CONTEXTS,
    PARTITIONS,
    ArchConfig,
    MultiBranchModel,
    StutterClass,
    build_model,
)
from stutterkit.training import TrainConfig, infer, make_batch, train


class TestArchConfig:
    def test_tiny_arch_validates(self, tiny_arch):
        tiny_arch.validate()

    def test_default_contexts_span_14_min_frames_15(self):
        arch = ArchConfig(n_podcasts=5)
        assert arch.min_frames == 15

    def test_embedding_is_mean_plus_std_width(self, tiny_arch):
        assert tiny_arch.embedding_dim == 2 * tiny_arch.encoder_channels[-1]

    @pytest.mark.parametrize(
        "kw",
        [
            {"encoder_channels": (8, 8, 8, 8)},
            {"contexts": ((0,),) * 4},
            {"n_podcasts": 1},
            {"encoder_channels": (8, 0, 8, 8, 8)},
            {"n_mfcc": 0},
            {"dropout": 1.0},
            {"dropout": -0.1},
        ],
    )
    def test_bad_config_rejected(self, kw):
        base = dict(n_podcasts=3, n_mfcc=5)
        base.update(kw)
        with pytest.raises(InvalidArch):
            ArchConfig(**base).validate()

    def test_dict_roundtrip(self, tiny_arch):
        assert ArchConfig.from_dict(tiny_arch.to_dict()) == tiny_arch

    def test_class_constants(self):
        assert CLASS_NAMES == ("Fluent", "Repetition", "Prolongation", "Block", "Interjection")
        assert CLASS_INITIALS == ("F", "R", "P", "B", "I")
        assert StutterClass.FLUENT == 0 and StutterClass.INTERJECTION == 4


def partition_sizes(model):
    sizes = dict.fromkeys(PARTITIONS, 0)
    for name, p in model.named_params().items():
        sizes[name.split(".", 1)[0]] += p.value.size
    return sizes


class TestNaming:
    def test_every_param_lives_in_a_partition(self, tiny_arch):
        model = build_model(tiny_arch, seed=0)
        for name in model.named_params():
            assert name.split(".", 1)[0] in PARTITIONS

    def test_expected_names_present(self, tiny_arch):
        model = build_model(tiny_arch, seed=0)
        names = set(model.named_params())
        for want in (
            "encoder.l1.tdnn.weight",
            "encoder.l5.bn.beta",
            "fluent.fc1.weight",
            "disfluent.bn2.gamma",
            "speaker.out.bias",
        ):
            assert want in names
        buffers = set(model.named_buffers())
        assert "encoder.l1.bn.running_mean" in buffers
        assert "fluent.bn1.running_var" in buffers

    def test_partition_sizes_cover_everything(self, tiny_arch):
        model = build_model(tiny_arch, seed=0)
        sizes = partition_sizes(model)
        assert set(sizes) == set(PARTITIONS)
        assert all(n > 0 for n in sizes.values())
        total = sum(p.value.size for p in model.named_params().values())
        assert sum(sizes.values()) == total

    def test_head_output_widths(self, tiny_arch):
        # speaker head has one more output row (3 podcasts) than fluent (2),
        # so it carries exactly hidden+1 = 9 more parameters
        model = build_model(tiny_arch, seed=0)
        sizes = partition_sizes(model)
        hidden = tiny_arch.head_hidden[-1]
        assert sizes["speaker"] - sizes["fluent"] == (tiny_arch.n_podcasts - 2) * (hidden + 1)


class TestDeterminism:
    def test_same_seed_same_bits(self, tiny_arch):
        a = build_model(tiny_arch, seed=11)
        b = build_model(tiny_arch, seed=11)
        for name, p in a.named_params().items():
            q = b.named_params()[name]
            assert np.array_equal(p.value, q.value), name

    def test_different_seed_differs(self, tiny_arch):
        a = build_model(tiny_arch, seed=11)
        b = build_model(tiny_arch, seed=12)
        assert any(
            not np.array_equal(p.value, b.named_params()[name].value)
            for name, p in a.named_params().items()
        )


class TestForward:
    def test_shapes(self, tiny_arch, rng):
        model = build_model(tiny_arch, seed=0)
        x = rng.normal(size=(2, tiny_arch.n_mfcc, 12)).astype(np.float32)
        z, lf, ld, ls = model.forward(x)
        emb = tiny_arch.embedding_dim
        assert z.shape == (2, emb)
        assert lf.shape == (2, 2)
        assert ld.shape == (2, 4)
        assert ls.shape == (2, tiny_arch.n_podcasts)

    def test_min_frames_boundary(self, tiny_arch, rng):
        model = build_model(tiny_arch, seed=0)
        ok = rng.normal(size=(1, tiny_arch.n_mfcc, tiny_arch.min_frames)).astype(np.float32)
        z = model.encode(ok)
        assert z.shape == (1, tiny_arch.embedding_dim)
        for short in (ok[:, :, :-1], ok[:, :, :0]):
            with pytest.raises(InputTooShort):
                model.encode(short)

    def test_wrong_channel_count_rejected(self, tiny_arch, rng):
        model = build_model(tiny_arch, seed=0)
        x = rng.normal(size=(1, tiny_arch.n_mfcc + 1, 12)).astype(np.float32)
        with pytest.raises(ShapeMismatch):
            model.encode(x)

    def test_eval_forward_is_repeatable_and_stateless(self, tiny_arch, rng):
        model = build_model(tiny_arch, seed=0)
        x = rng.normal(size=(3, tiny_arch.n_mfcc, 12)).astype(np.float32)
        before = {k: v.copy() for k, v in model.named_buffers().items()}
        _, lf1, _, _ = model.forward(x)
        _, lf2, _, _ = model.forward(x)
        assert np.array_equal(lf1, lf2)
        for name, buf in model.named_buffers().items():
            assert np.array_equal(buf, before[name]), name

    def test_train_mode_updates_only_listed_partitions(self, tiny_arch, rng):
        model = build_model(tiny_arch, seed=0)
        x = rng.normal(size=(3, tiny_arch.n_mfcc, 12)).astype(np.float32)
        before = {k: v.copy() for k, v in model.named_buffers().items()}
        model.forward(x, train=frozenset({"encoder"}), rng=rng)
        after = model.named_buffers()
        changed = {k for k in after if not np.array_equal(after[k], before[k])}
        assert changed
        assert all(k.startswith("encoder.") for k in changed)


class TestEvalGroups:
    """An eval encode runs its batch in clip groups; no output bit depends on them."""

    def setup_grouped(self, bn_before_relu):
        """20 clips cropped to 20..40 frames, and a 16-channel model with drawn running stats."""
        records = generate_synthetic(SyntheticConfig(
            n_podcasts=3, clips_per_class=4, frames=40, n_mfcc=5, sigma=0.5, seed=0))
        rng = np.random.default_rng(0)
        for rec in records:
            rec.features = rec.features[:, :rng.integers(20, 41)]
        arch = dataclasses.replace(make_tiny_arch(channels=16), bn_before_relu=bn_before_relu)
        model = build_model(arch, seed=1)
        for name, buf in model.named_buffers().items():
            buf[...] = (rng.uniform(0.5, 2.0, buf.shape) if name.endswith("var")
                        else rng.normal(0.0, 0.3, buf.shape))
        return records, model

    @pytest.mark.parametrize("bn_before_relu", [False, True])
    def test_outputs_ignore_the_group_budget(self, monkeypatch, bn_before_relu):
        records, model = self.setup_grouped(bn_before_relu)
        x, _, _ = make_batch(records, range(len(records)))  # cropped to the shortest clip
        assert x.shape[2] < max(r.features.shape[1] for r in records)
        given = x.copy()
        clip_bytes = 16 * x.shape[2] * 4
        pool_forward, groups = model.pool.forward, []
        monkeypatch.setattr(model.pool, "forward",  # y is (channels, clips, frames)
                            lambda y, train: groups.append(y.shape[1])
                            or pool_forward(y, train))
        runs = {}
        for budget, sizes in ((1, [1] * 20), (3 * clip_bytes, [3] * 6 + [2]),
                              (10**9, [20])):
            monkeypatch.setattr("stutterkit.model.EVAL_GROUP_BYTES", budget)
            groups.clear()
            z = model.encode(x)
            assert groups == sizes
            runs[budget] = z, infer(model, records, batch_size=8)
        want_z, want = runs[10**9]
        for z, out in runs.values():
            assert np.array_equal(z, want_z)
            for name in ("embeddings", "fluent_logits", "disfluent_logits", "predictions"):
                assert np.array_equal(getattr(out, name), getattr(want, name)), name
        for i in range(len(records)):  # each cropped clip, encoded on its own
            assert np.array_equal(model.encode(x[i : i + 1])[0], want_z[i])
        assert np.array_equal(x, given)  # the in-place ops wrote only their own arrays

    @pytest.mark.parametrize("bn_before_relu", [False, True])
    @pytest.mark.parametrize("group", [10, 3], ids=["one-group", "groups-of-3"])
    def test_eval_encode_matches_a_per_clip_oracle(self, monkeypatch, bn_before_relu, group):
        """Default contexts on 20 frames: T_out 16, 12 and then 6 at l3-l5."""
        arch = ArchConfig(n_podcasts=3, encoder_channels=(32,) * 5, bn_before_relu=bn_before_relu)
        model = build_model(arch, seed=3)
        rng = np.random.default_rng(4)
        for name, p in model.named_params().items():
            if name.endswith(".gamma"):
                p.value[...] = rng.uniform(0.5, 1.5, p.value.shape)
            elif name.endswith(".beta"):
                p.value[...] = rng.uniform(-0.5, 0.5, p.value.shape)
        for name, buf in model.named_buffers().items():
            buf[...] = (rng.uniform(0.5, 2.0, buf.shape) if name.endswith("var")
                        else rng.normal(0.0, 0.3, buf.shape))
        x = rng.normal(size=(10, arch.n_mfcc, 20)).astype(np.float32)
        monkeypatch.setattr("stutterkit.model.EVAL_GROUP_BYTES", group * 32 * 20 * 4)
        assert model.encode(x).tobytes() == per_clip_encode(model, x).tobytes()


class TestTwoBranchRule:
    def _zero_model(self, tiny_arch):
        model = build_model(tiny_arch, seed=0)
        for p in model.named_params().values():
            p.value[...] = 0.0
        return model

    def test_fluent_tie_resolves_to_fluent(self, tiny_arch, rng):
        # all-zero params give all-zero logits; the tied fluent head picks
        # index 0, so everything is called Fluent
        model = self._zero_model(tiny_arch)
        x = rng.normal(size=(4, tiny_arch.n_mfcc, 12)).astype(np.float32)
        assert np.array_equal(predict(model, x), np.zeros(4, dtype=int))

    def test_disfluent_tie_resolves_to_lowest_class(self, tiny_arch, rng):
        # force the fluent head to say "disfluent"; the tied disfluent head
        # picks its index 0, which maps to class 1 (Repetition)
        model = self._zero_model(tiny_arch)
        model.named_params()["fluent.out.bias"].value[...] = (-1.0, 1.0)
        x = rng.normal(size=(4, tiny_arch.n_mfcc, 12)).astype(np.float32)
        assert np.array_equal(predict(model, x), np.full(4, 1))

    def test_rule_matches_logits(self, tiny_arch, rng):
        model = build_model(tiny_arch, seed=5)
        x = rng.normal(size=(8, tiny_arch.n_mfcc, 12)).astype(np.float32)
        _, lf, ld, _ = model.forward(x)
        expected = np.where(np.argmax(lf, axis=1) == 0, 0, np.argmax(ld, axis=1) + 1)
        assert np.array_equal(predict(model, x), expected)

    def test_speaker_head_never_consulted(self, tiny_arch, rng):
        model = build_model(tiny_arch, seed=5)
        x = rng.normal(size=(8, tiny_arch.n_mfcc, 12)).astype(np.float32)
        before = predict(model, x)
        for name, p in model.named_params().items():
            if name.startswith("speaker."):
                p.value[...] = rng.normal(size=p.value.shape)
        assert np.array_equal(predict(model, x), before)


class TestGradientReversalWiring:
    def test_forward_identical_with_and_without_reversal(self, tiny_arch, rng):
        model = build_model(tiny_arch, seed=3)
        x = rng.normal(size=(4, tiny_arch.n_mfcc, 12)).astype(np.float32)
        plain = model.forward(x)
        wired = model.forward(x, grl_lambda=0.5)
        for a, b in zip(plain, wired):
            assert np.array_equal(a, b)

    def test_encoder_speaker_gradient_scales_by_minus_lambda(self, rng):
        # lambda = 0.5 scales by an exact power of two, so the reversed
        # encoder gradients must match -0.5 times the plain ones bitwise;
        # dropout 0 keeps the two train-mode forwards identical
        arch = make_tiny_arch(dropout=0.0)
        model = build_model(arch, seed=3, dtype=np.float64)
        x = rng.normal(size=(4, arch.n_mfcc, 16))
        dls = rng.normal(size=(4, arch.n_podcasts))

        model.forward(x, train=frozenset(PARTITIONS), grl_lambda=None)
        model.backward(dls=dls)
        plain = {
            n: p.grad.copy()
            for n, p in model.named_params().items()
            if n.startswith("encoder.")
        }
        model.forward(x, train=frozenset(PARTITIONS), grl_lambda=0.5)
        model.backward(dls=dls)
        for name, g in plain.items():
            got = model.named_params()[name].grad
            assert np.array_equal(got, -0.5 * g), name


class TestSnapshots:
    def test_roundtrip_restores_bits(self, tiny_arch, rng):
        model = build_model(tiny_arch, seed=0)
        snap = model.snapshot()
        for p in model.named_params().values():
            p.value += 1.0
        x = rng.normal(size=(3, tiny_arch.n_mfcc, 12)).astype(np.float32)
        model.forward(x, train=frozenset(PARTITIONS), rng=rng)  # moves bn stats
        model.load_snapshot(snap)
        for name, arr in model.state_arrays().items():
            assert np.array_equal(arr, snap[name]), name

    def test_snapshot_is_a_copy(self, tiny_arch):
        model = build_model(tiny_arch, seed=0)
        snap = model.snapshot()
        model.named_params()["fluent.out.bias"].value += 1.0
        assert not np.array_equal(
            snap["fluent.out.bias"], model.named_params()["fluent.out.bias"].value
        )

    def test_mismatched_snapshot_rejected(self, tiny_arch):
        model = build_model(tiny_arch, seed=0)
        snap = model.snapshot()
        del snap["fluent.out.bias"]
        with pytest.raises(ShapeMismatch):
            model.load_snapshot(snap)
        snap = model.snapshot()
        snap["fluent.out.bias"] = np.zeros(7, dtype=np.float32)
        with pytest.raises(ShapeMismatch):
            model.load_snapshot(snap)


def assert_params_in_arena(model):
    """Every Param's value and grad are the arena slices its sorted-name place gives,
    and model.partitions tile the arena in sorted-partition order."""
    def assert_at(name, p, start, stop):
        for view, flat in ((p.value, model.arena.value), (p.grad, model.arena.grad)):
            assert view.flags.c_contiguous and view.base is flat.base, name
            assert view.ctypes.data == flat[start:stop].ctypes.data, name
            assert view.size == stop - start, name

    start = 0
    assert list(model.named_params()) == sorted(model.named_params())
    for name, p in model.named_params().items():
        assert_at(name, p, start, start + p.value.size)
        start += p.value.size
    assert start == model.arena.value.size == model.arena.grad.size
    start, sizes = 0, partition_sizes(model)
    assert list(model.partitions) == sorted(PARTITIONS)
    for part, p in model.partitions.items():
        assert_at(part, p, start, start + sizes[part])
        start += sizes[part]
    assert start == model.arena.value.size


class TestArena:
    def test_params_are_views_after_build_load_and_train(self, tiny_arch, tmp_path):
        model = build_model(tiny_arch, seed=0)
        assert_params_in_arena(model)
        assert not model.arena.grad.any()
        model.load_snapshot(build_model(tiny_arch, seed=1).snapshot())
        assert_params_in_arena(model)
        save_checkpoint(tmp_path / "m.ckpt", model)
        loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
        assert_params_in_arena(loaded)
        records = generate_synthetic(SyntheticConfig(
            n_podcasts=3, clips_per_class=4, frames=12, n_mfcc=5, seed=0))
        split = split_within_podcast(records, 0.25, seed=0)
        for objective in ("baseline", "mtl", "adv"):
            train(loaded, split.train, split.valid, TrainConfig(
                objective=objective, max_epochs=4, batch_size=8, stage_bounds=(1, 2, 3)))
            assert_params_in_arena(loaded)

    def test_zero_grads_zeroes_every_grad(self, tiny_arch):
        model = build_model(tiny_arch, seed=0)
        for p in model.named_params().values():
            p.grad[...] = 1.0
        model.zero_grads()
        for name, p in model.named_params().items():
            assert not p.grad.any(), name
