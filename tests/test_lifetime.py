"""Activation lifetime: eval forwards keep nothing, backward frees as it goes.

An eval-mode forward writes no layer or model state, so one loaded model
serves concurrent callers; backward pairs with the most recent train-mode
forward, frees each layer's cache once used, stops at the pooled embedding
when the encoder ran in eval mode, and raises NoPendingForward otherwise.
A train step reuses the buffers the encoder owns (ReLU, batch norm and
pooling write in place) and never writes an array its caller passed in.
"""

import dataclasses
import gc
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import make_tiny_arch, predict
from gradcases import channels_major
from oracles import tdnn_reference
from stutterkit import nn
from stutterkit.checkpoint import load_checkpoint, save_checkpoint
from stutterkit.data import SyntheticConfig, generate_synthetic
from stutterkit.errors import NoPendingForward, StutterKitError
from stutterkit.evaluate import evaluate_model, export_embeddings
from stutterkit.model import EVAL_GROUP_BYTES, PARTITIONS, ArchConfig, build_model
from stutterkit.training import (TrainConfig, compute_losses, infer, make_batch,
                                 speaker_index_map, train)


def corpus(clips_per_class=6, frames=12, n_mfcc=5, seed=0):
    return generate_synthetic(SyntheticConfig(
        n_podcasts=3, clips_per_class=clips_per_class, frames=frames, n_mfcc=n_mfcc,
        sigma=0.3, seed=seed))


def layers_of(model):
    """Every layer object of a model, the stateless ones included."""
    out = [model.pool, model.grl]
    for block in model.encoder_blocks:
        out += [block.tdnn, block.relu, block.bn]
    for head in model.heads.values():
        out += head.fcs + head.relus + head.bns + head.drops + [head.out]
    return out


def cached_layers(model):
    """Layers still holding backward state (a cache or a dropout mask)."""
    return [layer for layer in layers_of(model)
            if getattr(layer, "_cache", None) is not None]


def attribute_identities(model):
    """(object, attribute) -> id of its value, for the model and every layer."""
    return {(id(obj), name): id(value)
            for obj in [model, *layers_of(model)] for name, value in vars(obj).items()}


def train_step(model, x, y, ys, parts=frozenset(PARTITIONS), grl_lambda=None):
    _, lf, ld, ls = model.forward(x, train=parts, grl_lambda=grl_lambda,
                                  rng=np.random.default_rng(0))
    losses = compute_losses(lf, ld, ls, y, ys)
    grads = {"fluent": losses.dlf, "disfluent": losses.dld, "speaker": losses.dls}
    model.backward(*(grads[head] if head in parts else None for head in grads))


def batch_of(records, n=8):
    return make_batch(records, range(n), speaker_map=speaker_index_map(records))


def with_affine_drawn(model, seed=0):
    """Draw every batch norm's gamma and beta, so that gamma * x-hat + beta rounds."""
    rng = np.random.default_rng(seed)
    for name, p in model.named_params().items():
        if name.endswith((".gamma", ".beta")):
            p.value[...] = rng.normal(1.0 if name.endswith("gamma") else 0.0, 0.5, p.value.shape)
    return model


class TestStatelessInference:
    def test_eval_calls_keep_no_cache_and_change_no_state(self, tmp_path):
        records = corpus()
        model = build_model(make_tiny_arch(), seed=2)
        x, y, ys = batch_of(records)
        train_step(model, x, y, ys)  # every layer has run, and backward freed it all
        assert cached_layers(model) == []
        before = model.snapshot()
        identities = attribute_identities(model)
        infer(model, records, batch_size=7)
        predict(model, x)
        model.forward(x, grl_lambda=0.5)
        evaluate_model(model, records)
        export_embeddings(model, records, tmp_path / "emb.csv")
        assert cached_layers(model) == []
        assert attribute_identities(model) == identities  # no attribute was rebound
        for name, a in model.state_arrays().items():
            assert np.array_equal(a, before[name]), name

    @pytest.mark.parametrize("objective", ["baseline", "mtl", "adv"])
    def test_nothing_cached_after_train(self, objective):
        records = corpus()
        cfg = TrainConfig(objective=objective, max_epochs=4, batch_size=8, lr=1e-2,
                          stage_bounds=(1, 2, 3))
        model = build_model(make_tiny_arch(), seed=1)
        train(model, records[::2], records[1::2], cfg)
        assert cached_layers(model) == []

    def test_eval_pass_between_forward_and_backward_leaves_it_intact(self):
        records = corpus()
        x, y, ys = batch_of(records)
        arch = make_tiny_arch(dropout=0.0)
        plain, interrupted = build_model(arch, seed=4), build_model(arch, seed=4)
        for model in (plain, interrupted):
            _, lf, ld, ls = model.forward(x, train=frozenset(PARTITIONS), grl_lambda=0.5)
            losses = compute_losses(lf, ld, ls, y, ys)
            if model is interrupted:
                infer(model, records, batch_size=5)
                model.forward(x, grl_lambda=0.9)
            model.backward(dlf=losses.dlf, dld=losses.dld, dls=losses.dls)
        assert np.array_equal(plain.arena.grad, interrupted.arena.grad)

    def test_concurrent_infer_on_one_loaded_model_matches_serial(self, tmp_path):
        records = corpus(clips_per_class=10, frames=16)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, build_model(make_tiny_arch(), seed=6))
        model, _ = load_checkpoint(path)
        jobs = [(records[i::3], bs) for i in range(3) for bs in (4, 9)]
        serial = [infer(model, recs, bs) for recs, bs in jobs]
        results = [[] for _ in jobs]

        def work(j):
            recs, bs = jobs[j]
            for _ in range(5):
                results[j].append(infer(model, recs, bs))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(j,)) for j in range(len(jobs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for want, got in zip(serial, results):
            assert len(got) == 5
            for out in got:
                for name in ("labels", "predictions", "embeddings", "fluent_logits",
                             "disfluent_logits"):
                    assert np.array_equal(getattr(out, name), getattr(want, name)), name


class TestBackwardWithoutForward:
    def setup_method(self):
        self.records = corpus()
        self.model = build_model(make_tiny_arch(), seed=3)
        self.x, self.y, self.ys = batch_of(self.records)
        self.dlf = np.ones((len(self.y), 2), dtype=np.float32)

    def test_before_any_forward(self):
        with pytest.raises(NoPendingForward):
            self.model.backward(dlf=self.dlf)
        assert issubclass(NoPendingForward, StutterKitError)

    def test_second_backward(self):
        train_step(self.model, self.x, self.y, self.ys)
        with pytest.raises(NoPendingForward):
            self.model.backward(dlf=self.dlf)

    def test_gradient_for_a_head_that_ran_in_eval_mode(self):
        self.model.forward(self.x, train=frozenset({"encoder", "speaker"}),
                           rng=np.random.default_rng(0))
        with pytest.raises(NoPendingForward):
            self.model.backward(dlf=self.dlf)
        # the refused call consumed nothing: the pending forward still backpropagates
        self.model.backward(dls=np.ones((len(self.y), 3), dtype=np.float32))
        assert cached_layers(self.model) == []
        # with no gradient at all, the train-mode encoder drops its caches too
        self.model.forward(self.x, train=frozenset(PARTITIONS), rng=np.random.default_rng(0))
        self.model.backward()
        assert cached_layers(self.model) == []

    def test_heads_given_no_gradient_drop_their_caches(self):
        self.model.forward(self.x, train=frozenset(PARTITIONS), rng=np.random.default_rng(0))
        self.model.backward(dls=np.ones((len(self.y), 3), dtype=np.float32))
        assert cached_layers(self.model) == []
        # with no gradient at all, the train-mode encoder drops its caches too
        self.model.forward(self.x, train=frozenset(PARTITIONS), rng=np.random.default_rng(0))
        self.model.backward()
        assert cached_layers(self.model) == []

    def test_eval_forward_alone_leaves_nothing_to_backpropagate(self):
        train_step(self.model, self.x, self.y, self.ys)
        self.model.forward(self.x)
        with pytest.raises(NoPendingForward):
            self.model.backward(dlf=self.dlf)


class TestFrozenEncoder:
    @pytest.mark.parametrize("stage1_trains_encoder", [True, False])
    def test_encoder_backward_runs_only_where_the_encoder_trains(
            self, monkeypatch, stage1_trains_encoder):
        records = corpus()
        train_recs = [r for i, r in enumerate(records) if i % 5]
        valid = records[::5]
        calls = {"n": 0}
        tdnn_backward = nn.TdnnLayer.backward

        def counted(self, dy, *args, **kwargs):
            calls["n"] += 1
            return tdnn_backward(self, dy, *args, **kwargs)

        monkeypatch.setattr(nn.TdnnLayer, "backward", counted)
        per_stage, encoder_grad = {}, {}

        def callback(rec, model):
            per_stage[rec.stage] = calls["n"] - sum(per_stage.values())
            encoder_grad[rec.stage] = max(np.abs(p.grad).max() for n, p in
                                          model.named_params().items()
                                          if n.startswith("encoder."))

        cfg = TrainConfig(objective="adv", lam=0.3, max_epochs=4, batch_size=8, lr=1e-2,
                          seed=5, stage_bounds=(1, 2, 3),
                          stage1_trains_encoder=stage1_trains_encoder)
        assert len(train_recs) % cfg.batch_size == 0  # no batch is dropped
        steps = len(train_recs) // cfg.batch_size
        model = build_model(make_tiny_arch(), seed=1)
        train(model, train_recs, valid, cfg, callback=callback)
        full = 5 * steps  # five encoder TDNN layers per step
        assert per_stage == {
            "speaker_only": full if stage1_trains_encoder else 0,
            "stutter_only": full,
            "joint_grl": full,
            "recovery": 0,
        }
        frozen = ["recovery"] + ([] if stage1_trains_encoder else ["speaker_only"])
        for stage, grad in encoder_grad.items():  # after each stage's last step
            assert (grad == 0.0) == (stage in frozen), stage

    def test_frozen_encoder_step_keeps_no_encoder_cache(self):
        records = corpus()
        model = build_model(make_tiny_arch(), seed=3)
        x, y, ys = batch_of(records)
        train_step(model, x, y, ys, parts=frozenset({"fluent", "disfluent"}))
        assert cached_layers(model) == []
        assert all(not p.grad.any() for n, p in model.named_params().items()
                   if n.startswith("encoder."))

    def test_first_layer_computes_no_input_gradient(self, monkeypatch):
        returned = []
        model = build_model(make_tiny_arch(), seed=3)
        l1 = model.encoder_blocks[0].tdnn
        l1_backward = l1.backward
        monkeypatch.setattr(l1, "backward",
                            lambda dy, input_grad=True: returned.append(
                                l1_backward(dy, input_grad)))
        x, y, ys = batch_of(corpus())
        train_step(model, x, y, ys)
        assert returned == [None]

    @pytest.mark.parametrize("offsets", [(0,), (-2, -1, 0, 1, 2), (-3, 0, 3)])
    def test_weight_grads_without_input_grad_match_oracle(self, offsets):
        rng = np.random.default_rng(11)
        layer = nn.TdnnLayer(6, 9, offsets, rng, dtype=np.float32)
        x = rng.normal(size=(5, 6, 17)).astype(np.float32)
        out = layer.forward(channels_major(x), train=True)
        dy = rng.normal(size=(5, *out.shape[::2])).astype(np.float32)
        assert layer.backward(channels_major(dy), input_grad=False) is None
        assert layer._cache is None
        _, d_w, d_b, _ = tdnn_reference(x, layer.weight.value, layer.bias.value, offsets, dy)
        for name, want in (("weight", d_w), ("bias", d_b)):
            got = getattr(layer, name).grad
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5 * np.abs(want).max(),
                                       err_msg=name)


class TestInferMemory:
    def test_infer_holds_few_activations_and_keeps_none(self):
        """tracemalloc over one infer pass: 40 clips, 120 frames, 64 channels, one batch."""
        records = corpus(clips_per_class=8, frames=120, n_mfcc=20)[:40]
        assert len(records) == 40
        model = build_model(ArchConfig(n_podcasts=3, encoder_channels=(64,) * 5), seed=0)
        activation = 40 * 64 * 120 * 4  # one float32 (batch, channels, frames) tensor
        infer(model, records)  # warm-up: numpy's first-call allocations are not the model's
        gc.collect()
        tracemalloc.start()
        try:
            out = infer(model, records)
            del out
            gc.collect()
            peak = tracemalloc.get_traced_memory()[1]
            # numpy array buffers only: the interpreter keeps a few small objects of its own
            arrays = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        finally:
            tracemalloc.stop()
        assert peak <= 7 * activation, f"peak {peak / activation:.2f} activations"
        retained = sum(trace.size for trace in arrays.traces)
        assert retained == 0, f"{retained} bytes of arrays still held after infer"


class TestGroupedInferMemory:
    def test_eval_peak_is_a_few_groups_whatever_the_batch(self):
        """256 channels, 256 frames: one infer pass of g and of 4g clips, g clips per group."""
        model = build_model(ArchConfig(n_podcasts=3, encoder_channels=(256,) * 5), seed=0)
        clip_bytes = 256 * 256 * 4  # one clip's widest float32 activation
        group = EVAL_GROUP_BYTES // clip_bytes
        assert group >= 2
        records = corpus(clips_per_class=-(-4 * group // 5), frames=256, n_mfcc=20)
        peaks = {}
        for n in (group, 4 * group):  # one batch each: one group, then four
            infer(model, records[:n])  # warm-up
            gc.collect()
            tracemalloc.start()
            try:
                infer(model, records[:n])
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        activation = group * clip_bytes
        assert peaks[group] <= 6 * activation, f"peak {peaks[group] / activation:.2f} groups"
        assert peaks[4 * group] <= 1.1 * peaks[group], (
            f"peak grew {peaks[4 * group] / peaks[group]:.2f}x from {group} to {4 * group} clips")


class TestTrainStepBuffers:
    @pytest.mark.parametrize("bn_before_relu", [False, True])
    def test_train_step_peak_in_activations(self, bn_before_relu):
        """tracemalloc over one train-mode forward + backward: 64 channels, 120 frames, 16 clips.

        Batch norm, ReLU and pooling reusing their own buffers read 11.3 activations here;
        each allocating a fresh output and input gradient read 13.0. Rebuilding each
        block's output in backward rather than keeping it, freeing each block's input once
        its TDNN has read it, and an unfold that the dW GEMM reads without a copy read 7.6.
        """
        records = corpus(clips_per_class=4, frames=120, n_mfcc=20)[:16]
        arch = ArchConfig(n_podcasts=3, encoder_channels=(64,) * 5, bn_before_relu=bn_before_relu)
        model = build_model(arch, seed=0)
        x, y, ys = batch_of(records, 16)
        activation = 16 * 64 * 120 * 4  # one float32 (batch, channels, frames) tensor
        train_step(model, x, y, ys)  # warm-up: numpy's first-call allocations are not the step's
        gc.collect()
        tracemalloc.start()
        try:
            train_step(model, x, y, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * activation, f"peak {peak / activation:.2f} activations"

    @pytest.mark.parametrize("offsets", [(-2, 0, 2), (-2, -1, 0, 1, 2), (0,)])
    def test_tdnn_backward_peak_in_inputs(self, offsets):
        """tracemalloc over one TdnnLayer.backward, 64 -> 64 channels, 16 clips of 120 frames.

        At most max(K, 2) + 1/2 input-sized arrays: the K-block unfold during dW (x itself
        when K = 1), then dX and one product. Copying dy for the dW GEMM read about K + 1,
        and an unfold the GEMM has to copy first about 2K + 1.
        """
        rng = np.random.default_rng(3)
        layer = nn.TdnnLayer(64, 64, offsets, rng)
        x = rng.normal(size=(64, 16, 120)).astype(np.float32)
        dy = rng.normal(size=layer.forward(x, train=True).shape).astype(np.float32)
        layer.backward(dy)  # warm-up
        layer.forward(x, train=True)
        gc.collect()
        tracemalloc.start()
        try:
            layer.backward(dy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        k = len(offsets)
        assert peak <= (max(k, 2) + 0.5) * x.nbytes, f"peak {peak / x.nbytes:.2f} inputs, K = {k}"

    @pytest.mark.parametrize("bn_before_relu", [False, True])
    def test_only_the_first_tdnn_keeps_its_input(self, bn_before_relu):
        """The later TDNN layers and the pool keep no input: each block rebuilds its output."""
        x, _, _ = batch_of(corpus(frames=40), n=16)
        arch = dataclasses.replace(make_tiny_arch(channels=32), bn_before_relu=bn_before_relu)
        model = with_affine_drawn(build_model(arch, seed=0))
        outputs = []
        for block in model.encoder_blocks:
            def recording(y, train, _activate=block.activate):
                out = _activate(y, train)
                outputs.append(out.copy())
                return out
            block.activate = recording
        model.forward(x, train=frozenset(PARTITIONS), rng=np.random.default_rng(0))
        first, *rest = model.encoder_blocks
        assert first.tdnn._cache.base is x  # the batch, viewed channels-major
        assert first.tdnn._cache.shape == x.transpose(1, 0, 2).shape
        assert [block.tdnn._cache for block in rest] == [None] * 4
        stats = (arch.encoder_channels[-1], len(x))
        assert [a.shape for a in model.pool._cache] == [stats] * 2  # mean and std
        for block, want in zip(model.encoder_blocks, outputs):
            assert block.output().tobytes() == want.tobytes()

    def test_train_step_leaves_the_callers_batch_unchanged(self):
        x, y, ys = batch_of(corpus())
        before = x.copy()
        train_step(build_model(make_tiny_arch(), seed=0), x, y, ys)
        assert np.array_equal(x, before)

    def test_layer_backward_without_out_leaves_dy_unchanged(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 4, 9)).astype(np.float32)
        dy = rng.normal(size=x.shape).astype(np.float32)
        before = dy.copy()
        bn, relu = nn.BatchNorm1d(3), nn.Relu()
        bn.forward(x, train=True)
        relu.forward(x)
        for backward in (bn.backward, relu.backward):
            dx = backward(dy)
            assert dx is not dy and not np.shares_memory(dx, dy)
            assert np.array_equal(dy, before)

    @pytest.mark.parametrize("bn_before_relu, eval_between",
                             [(False, False), (True, False), (False, True), (True, True)],
                             ids=["False", "True", "False-eval-between", "True-eval-between"])
    def test_grads_match_a_reference_that_copies_every_dy(self, bn_before_relu, eval_between):
        """Each layer backward of the reference gets its own copy of dy and no out=.

        Each TDNN and the pool of the reference also keep a copy of the input their
        forward read and backpropagate through it, where the model rebuilds that input
        from the block before; the model may run eval passes between forward and backward.
        """
        records = corpus()
        x, y, ys = batch_of(records)
        arch = dataclasses.replace(make_tiny_arch(), bn_before_relu=bn_before_relu)
        model, reference = (with_affine_drawn(build_model(arch, seed=7)) for _ in range(2))
        inputs = {}
        for layer in layers_of(reference):
            if isinstance(layer, (nn.TdnnLayer, nn.StatPool)):
                def keeping(x, *args, _forward=layer.forward, _layer=layer, **kwargs):
                    inputs[_layer] = x.copy()
                    return _forward(x, *args, **kwargs)
                layer.forward = keeping

            def copying(dy, *args, _backward=layer.backward, _layer=layer, out=None, **kwargs):
                if _layer is reference.pool:
                    args = (inputs.pop(_layer),)
                elif "x" in kwargs:
                    kwargs["x"] = inputs.pop(_layer)
                return _backward(dy.copy(), *args, **kwargs)
            layer.backward = copying
        for m in (model, reference):
            _, lf, ld, ls = m.forward(x, train=frozenset(PARTITIONS), grl_lambda=0.4,
                                      rng=np.random.default_rng(0))
            losses = compute_losses(lf, ld, ls, y, ys)
            if eval_between and m is model:
                infer(m, records, batch_size=5)
                m.forward(x, grl_lambda=0.9)
            m.backward(dlf=losses.dlf, dld=losses.dld, dls=losses.dls)
        assert list(inputs) == [reference.encoder_blocks[0].tdnn]  # the others were all used
        assert model.arena.grad.any()
        assert np.array_equal(model.arena.grad, reference.arena.grad)
