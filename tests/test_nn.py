import copy

import numpy as np
import pytest

from gradcases import NonDeterministicLoss, channels_major, finite_difference_check
from oracles import (
    ReferenceAdam,
    batchnorm_reference,
    gamma,
    hand_adam_steps,
    pairwise_depth,
    tdnn_broadcast_reference,
    tdnn_reference,
)
from stutterkit import nn
from stutterkit.errors import (
    ConfigError,
    DegenerateBatch,
    IndexOutOfRange,
    InputTooShort,
    InvalidRate,
    ShapeMismatch,
)
from stutterkit.model import PARTITIONS, ArchConfig, build_model


def bits(a):
    return a.dtype, a.shape, a.tobytes()


def channels(shape):
    """The channel count of a (batch, channels) or (channels, batch, frames) shape."""
    return shape[0] if len(shape) == 3 else shape[1]


def softmax(logits):
    """Row-wise softmax, stable for logits of any finite magnitude."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class TestTdnn:
    def test_output_length_drops_span(self, rng):
        layer = nn.TdnnLayer(3, 5, (-2, 0, 2), rng)
        for train in (True, False):
            out = layer.forward(rng.normal(size=(3, 2, 11)).astype(np.float32), train)
            assert out.shape == (5, 2, 7)

    def test_single_tap_is_pointwise_affine(self, rng):
        layer = nn.TdnnLayer(3, 4, (0,), rng, dtype=np.float64)
        x = rng.normal(size=(3, 2, 6))
        out = layer.forward(x, train=True)
        w = layer.weight.value[:, :, 0]
        expected = np.einsum("oc,cbt->obt", w, x) + layer.bias.value[:, None, None]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_dilated_taps_hand_sum(self, rng):
        layer = nn.TdnnLayer(2, 1, (-2, 0, 2), rng, dtype=np.float64)
        x = rng.normal(size=(2, 1, 9))
        out = layer.forward(x, train=True)
        w = layer.weight.value  # (1, 2, 3) taps ordered -2, 0, 2
        for t_out in range(out.shape[2]):
            manual = layer.bias.value[0]
            for k, off in enumerate((-2, 0, 2)):
                manual += float(w[0, :, k] @ x[:, 0, t_out + off + 2])
            assert abs(out[0, 0, t_out] - manual) < 1e-12

    @pytest.mark.parametrize("budget", [None, 1], ids=["default", "one_byte"])
    @pytest.mark.parametrize("c_in, c_out, offsets, b, t", [
        (24, 16, (-2, -1, 0, 1, 2), 16, 40),  # a 276 KB product: 4 GEMMs of 4 clips
        (20, 32, (-3, 0, 3), 7, 25),  # 32 KB: one GEMM, or 3 + 3 + 1 clips at one byte
    ])
    def test_dx_equals_a_per_offset_scatter(self, rng, monkeypatch, budget, c_in, c_out,
                                            offsets, b, t):
        """dX by one GEMM over every offset, for all clips or a chunk of them, keeps the
        bits of K GEMMs, W_k^T dy each, scatter-added offset by offset."""
        if budget is not None:
            monkeypatch.setattr(nn, "TRAIN_BLOCK_BYTES", budget)
        layer = nn.TdnnLayer(c_in, c_out, offsets, rng)
        x = rng.normal(size=(c_in, b, t)).astype(np.float32)
        dy = rng.normal(size=layer.forward(x, train=True).shape).astype(np.float32)
        w = np.ascontiguousarray(layer.weight.value.transpose(2, 0, 1))  # (K, C_out, C_in)
        t_out = dy.shape[2]
        want = np.zeros_like(x)
        for k, s in enumerate(layer.shifts):
            want[:, :, s : s + t_out] += (w[k].T @ dy.reshape(c_out, -1)).reshape(-1, b, t_out)
        assert bits(layer.backward(dy, x)) == bits(want)

    def test_too_few_frames(self, rng):
        layer = nn.TdnnLayer(3, 4, (-3, 0, 3), rng)
        with pytest.raises(InputTooShort):
            layer.forward(np.zeros((3, 1, 6), dtype=np.float32), train=True)

    def test_channel_mismatch(self, rng):
        layer = nn.TdnnLayer(3, 4, (0,), rng)
        with pytest.raises(ShapeMismatch):
            layer.forward(np.zeros((5, 1, 8), dtype=np.float32), train=True)

    def test_offsets_sorted_internally(self, rng):
        a = nn.TdnnLayer(2, 2, (2, -2, 0), np.random.default_rng(3))
        b = nn.TdnnLayer(2, 2, (-2, 0, 2), np.random.default_rng(3))
        x = np.random.default_rng(4).normal(size=(2, 1, 8)).astype(np.float32)
        np.testing.assert_array_equal(a.forward(x, True), b.forward(x, True))

    @pytest.mark.parametrize("offsets", [(0,), (-2, -1, 0, 1, 2), (-2, 0, 2), (-3, 0, 3),
                                         (2, -2, 0)])
    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_matches_per_offset_oracle(self, offsets, batch, dtype, rtol):
        rng = np.random.default_rng(7)
        layer = nn.TdnnLayer(6, 9, offsets, rng, dtype=dtype)
        x = rng.normal(size=(batch, 6, 17)).astype(dtype)
        out = layer.forward(channels_major(x), train=True)
        dy = rng.normal(size=(batch, *out.shape[::2])).astype(dtype)
        dx = layer.backward(channels_major(dy), channels_major(x))
        want = tdnn_reference(x, layer.weight.value, layer.bias.value, offsets, dy)
        eval_out = layer.forward(channels_major(x), train=False)
        got = (out, layer.weight.grad, layer.bias.grad, dx, eval_out)
        out_ref, dw_ref, db_ref, dx_ref = want
        want = (channels_major(out_ref), dw_ref, db_ref, channels_major(dx_ref),
                channels_major(out_ref))
        for name, g, w in zip(("out", "weight.grad", "bias.grad", "dx", "eval out"), got, want):
            assert g.dtype == dtype and g.shape == w.shape, name
            # relative to the tensor's scale, so near-zero sums do not need exact cancellation
            np.testing.assert_allclose(g, w, rtol=rtol, atol=rtol * np.abs(w).max(),
                                       err_msg=name)

    @pytest.mark.parametrize("offsets", [(0,), (-1, 0, 1), (-2, -1, 0, 1, 2)])
    def test_clip_output_ignores_its_batch(self, offsets):
        """In eval mode; train mode contracts the whole batch in one GEMM."""
        rng = np.random.default_rng(11)
        layer = nn.TdnnLayer(48, 40, offsets, rng)
        x = rng.normal(size=(48, 7, 60)).astype(np.float32)
        batched = layer.forward(x, train=False)
        for i in range(x.shape[1]):
            assert np.array_equal(layer.forward(x[:, i : i + 1], train=False),
                                  batched[:, i : i + 1]), i
        assert np.array_equal(layer.forward(x[:, ::-1], train=False)[:, ::-1], batched)


    @pytest.mark.parametrize("offsets", [(0,), (-3, 0, 3), (-2, -1, 0, 1, 2)],
                             ids=["K1", "K3", "K5"])
    @pytest.mark.parametrize("t_out", [1, 6, 16])
    def test_train_and_eval_forward_agree_within_float32_rounding(self, offsets, t_out):
        """Train mode's one GEMM and eval mode's per-clip GEMMs sum the same n = K * C_in
        products and the bias in different orders. Each float32 result lies within
        gamma_(n+1) (|W| |U| + |b|) of the exact sum, whatever the order or blocking
        (Higham 2002, section 3.1), so the two lie within twice that of each other."""
        rng = np.random.default_rng(len(offsets) + t_out)
        layer = nn.TdnnLayer(32, 32, offsets, rng)
        x = rng.normal(size=(32, 32, t_out + layer.span)).astype(np.float32)
        train, evaluated = layer.forward(x, True), layer.forward(x, False)
        n = 32 * len(offsets)
        u = np.concatenate([x[:, :, s : s + t_out] for s in layer.shifts]).astype(np.float64)
        w = np.abs(layer.weight.value.transpose(0, 2, 1).reshape(32, -1).astype(np.float64))
        scale = (w @ np.abs(u).reshape(n, -1)).reshape(train.shape)
        scale += np.abs(layer.bias.value.astype(np.float64))[:, None, None]
        assert np.all(np.abs(train.astype(np.float64) - evaluated) <= 2 * gamma(n + 1) * scale)


class TestPerChannelLayout:
    """The train-mode contraction on (C, B, T): forward as one GEMM over all clips'
    columns plus bias[:, None], dX as the strided W[:, :, k].T times dy viewed as
    (C_out, B * T_out), per offset. Both must round exactly as those formulas do
    (batch norm's operands: TestBatchNorm.test_matches_reference_bitwise)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("channels", [32, 128])
    @pytest.mark.parametrize("offsets", [(0,), (-1, 0, 1), (-2, -1, 0, 1, 2)],
                             ids=["K1", "K3", "K5"])
    @pytest.mark.parametrize("t_out", [1, 2, 6, 16])
    def test_tdnn_matches_broadcast_formulas(self, offsets, channels, t_out, dtype):
        rng = np.random.default_rng(channels + t_out)
        layer = nn.TdnnLayer(channels, channels, offsets, rng, dtype=dtype)
        x = rng.normal(size=(channels, 8, t_out + layer.span)).astype(dtype)
        dy = rng.normal(size=(channels, 8, t_out)).astype(dtype)
        want_out, want_dx = tdnn_broadcast_reference(
            x, layer.weight.value, layer.bias.value, layer.shifts, dy)
        assert bits(layer.forward(x, train=True)) == bits(want_out)
        assert bits(layer.backward(dy, x)) == bits(want_dx)


class TestChannelSums:
    """Each per-channel sum of channels-major (C, B, T) input is one pairwise sum over
    its B * T contiguous values, within pairwise summation's bound of a float64
    reference: |error| <= gamma_d * sum |terms|, d from oracles.pairwise_depth.
    Gradient sums accumulate in float64 and round once, a bound of their own."""

    SHAPES = [(16, 32, 20), (16, 32, 6), (8, 32, 296)]  # bench l1, bench l3-l5, paper

    @pytest.mark.parametrize("loc", [0.0, 1000.0], ids=["centred", "mean-1000-std"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_batch_norm_statistics(self, rng, shape, loc):
        """mean within gamma_(d+1) sum|x| / N (the division rounds once more); the two-pass
        variance within gamma_(d+4) v' + (mean - m)^2, where v' is the float64 mean square
        about the float32 mean m: each centred square rounds three times, the sum d times,
        the division once. A one-pass E[x^2] - E[x]^2 misses that at |mean| >> std."""
        x = (loc + rng.normal(size=shape)).astype(np.float32)
        bn = nn.BatchNorm1d(shape[0], momentum=1.0)  # the running stats are the batch's
        bn.forward(x, train=True)
        n = shape[1] * shape[2]
        d = pairwise_depth(n)
        x64 = x.reshape(len(x), -1).astype(np.float64)
        m = bn.running_mean.astype(np.float64)
        mean = x64.mean(axis=1)
        assert np.all(np.abs(m - mean) <= gamma(d + 1) * np.abs(x64).sum(axis=1) / n)
        about_m = np.square(x64 - m[:, None]).mean(axis=1)
        var = np.square(x64 - mean[:, None]).mean(axis=1)
        bound = gamma(d + 4) * about_m + np.square(mean - m)
        assert np.all(np.abs(bn.running_var - var) <= bound * (1 + 1e-9))  # float64's own rounding

    @pytest.mark.parametrize("loc", [0.0, 1000.0], ids=["centred", "mean-1000-std"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_batch_norm_gradient_sums_and_tdnn_bias_grad(self, rng, shape, loc):
        """Within one float32 rounding of the exact sum, 2^-24 |sum|, plus float64's
        gamma_d on sum|terms| twice (the sum's and the reference's). A float32
        accumulator's gamma_d sum|terms| swamps |sum| where the terms cancel."""
        c, b, t = shape
        bn = nn.BatchNorm1d(c)
        bn.forward(rng.normal(size=shape).astype(np.float32), train=True)
        xhat = bn._cache[0].reshape(c, -1).astype(np.float64)
        dy = (loc + rng.normal(size=shape)).astype(np.float32)
        layer = nn.TdnnLayer(c, c, (0,), rng)
        layer.backward(dy, rng.normal(size=shape).astype(np.float32), input_grad=False)
        bn.backward(dy)
        d64 = gamma(pairwise_depth(b * t), u=2.0 ** -53)
        dy64 = dy.reshape(c, -1).astype(np.float64)
        # gamma's terms, dy * x-hat, round once in float32 before they are summed
        for got, terms, k in ((layer.bias.grad, dy64, 0), (bn.beta.grad, dy64, 0),
                              (bn.gamma.grad, dy64 * xhat, 1)):
            want = terms.sum(axis=1)
            bound = 2.0 ** -24 * np.abs(want) + (gamma(k) + 2 * d64) * np.abs(terms).sum(axis=1)
            assert np.all(np.abs(got - want) <= bound * (1 + 1e-6))  # second-order terms


class TestRowBlocks:
    def test_budget_splits_rows_with_a_shorter_last_block(self, monkeypatch):
        y = np.zeros((7, 4, 9), np.float32)  # 144 bytes a row

        def rows():
            return [range(7)[r] for r in nn.row_blocks(y)]

        assert rows() == [range(7)]  # the default budget: one block
        monkeypatch.setattr(nn, "TRAIN_BLOCK_BYTES", 3 * 144)
        assert rows() == [range(0, 3), range(3, 6), range(6, 7)]
        monkeypatch.setattr(nn, "TRAIN_BLOCK_BYTES", 1)
        assert rows() == [range(i, i + 1) for i in range(7)]  # a row at least


class TestMeanOfSum:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_dividing_by_an_intp(self, rng, dtype):
        """Below 2**24 a Python int divisor (the dtype's own loop) rounds as np.intp's float64
        loop does; at and above 2**24 the intp form itself runs."""
        total = (rng.normal(size=4096) * 10.0 ** rng.uniform(-30, 30, 4096)).astype(dtype)
        for count in (2, 3, 7, 10, 96, 640, 9472, 123457, 2**24 - 1, 2**24, 2**24 + 3, 10**9):
            want = np.true_divide(total, np.intp(count), out=total.copy(), casting="unsafe")
            assert bits(nn._mean_of_sum(total.copy(), count)) == bits(want), count


class TestLinear:
    def test_affine_map(self, rng):
        layer = nn.Linear(3, 2, rng, dtype=np.float64)
        x = rng.normal(size=(4, 3))
        np.testing.assert_allclose(
            layer.forward(x, True), x @ layer.weight.value.T + layer.bias.value, atol=1e-12
        )

    def test_shape_check(self, rng):
        with pytest.raises(ShapeMismatch):
            nn.Linear(3, 2, rng).forward(np.zeros((4, 5), dtype=np.float32), True)


class TestBatchNorm:
    def test_train_mode_normalizes_batch(self, rng):
        bn = nn.BatchNorm1d(4, dtype=np.float64)
        x = rng.normal(loc=3.0, scale=2.0, size=(64, 4))
        y = bn.forward(x, train=True)
        np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.std(axis=0), 1.0, atol=1e-3)

    def test_running_stats_momentum(self, rng):
        bn = nn.BatchNorm1d(2, momentum=0.1, dtype=np.float64)
        x = rng.normal(size=(32, 2))
        bn.forward(x, train=True)
        np.testing.assert_allclose(bn.running_mean, 0.1 * x.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(
            bn.running_var, 0.9 * 1.0 + 0.1 * x.var(axis=0), atol=1e-12
        )

    def test_eval_uses_running_stats(self, rng):
        bn = nn.BatchNorm1d(2, dtype=np.float64)
        bn.running_mean[...] = [1.0, -1.0]
        bn.running_var[...] = [4.0, 0.25]
        x = rng.normal(size=(3, 2))
        y = bn.forward(x, train=False)
        expected = (x - bn.running_mean) / np.sqrt(bn.running_var + bn.eps)
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_eval_mode_leaves_stats_alone(self, rng):
        bn = nn.BatchNorm1d(2)
        before = (bn.running_mean.copy(), bn.running_var.copy())
        bn.forward(rng.normal(size=(8, 2)).astype(np.float32), train=False)
        assert np.array_equal(bn.running_mean, before[0])
        assert np.array_equal(bn.running_var, before[1])

    def test_temporal_axes(self, rng):
        bn = nn.BatchNorm1d(3, dtype=np.float64)
        x = rng.normal(size=(3, 4, 7))  # (channels, batch, frames)
        y = bn.forward(x, train=True)
        np.testing.assert_allclose(y.mean(axis=(1, 2)), 0.0, atol=1e-10)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("shape", [(32, 16), (16, 32, 20), (5, 3, 2), (24, 4, 1),
                                       (24, 4, 2), (24, 4, 6), (24, 4, 16), (24, 3, 300)])
    def test_matches_reference_bitwise(self, rng, shape, train, dtype):
        c = channels(shape)
        state = [rng.normal(1.0, 0.5, size=c), rng.normal(size=c), rng.normal(size=c),
                 rng.uniform(0.5, 2.0, size=c)]
        gamma, beta, running_mean, running_var = (a.astype(dtype) for a in state)
        x = rng.normal(3.0, 2.0, size=shape).astype(dtype)
        dy = rng.normal(size=shape).astype(dtype)
        ref_mean, ref_var = running_mean.copy(), running_var.copy()
        out, d_gamma, d_beta, d_x = batchnorm_reference(
            x, gamma, beta, ref_mean, ref_var, train, dy)

        for into_dy in (False, True):  # backward(dy) and backward(dy, out=dy)
            bn = nn.BatchNorm1d(c, dtype=dtype)
            for a, v in zip((bn.gamma.value, bn.beta.value, bn.running_mean, bn.running_var),
                            (gamma, beta, running_mean, running_var)):
                a[...] = v
            assert bits(bn.forward(x, train)) == bits(out)
            assert bits(bn.running_mean) == bits(ref_mean)
            assert bits(bn.running_var) == bits(ref_var)
            if not train:  # eval mode has no backward
                break
            grad = dy.copy()
            dx = bn.backward(grad, out=grad if into_dy else None)
            assert bits(dx) == bits(d_x) and (dx is grad) == into_dy
            assert into_dy or bits(grad) == bits(dy)
            assert bits(bn.gamma.grad) == bits(d_gamma)
            assert bits(bn.beta.grad) == bits(d_beta)

    @staticmethod
    def _with_state(rng, c, ratio=1.0):
        """A float32 batch norm with drawn gamma, beta and running stats, |mean| = ratio * sigma."""
        bn = nn.BatchNorm1d(c)
        sigma = rng.uniform(0.5, 2.0, size=c)
        state = (rng.normal(1.0, 0.5, size=c), rng.normal(size=c),
                 ratio * sigma * rng.choice([-1.0, 1.0], size=c), sigma ** 2)
        for a, v in zip((bn.gamma.value, bn.beta.value, bn.running_mean, bn.running_var), state):
            a[...] = v
        return bn

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("shape", [(32, 16), (16, 4, 9)])
    def test_forward_without_out_leaves_its_input_untouched(self, rng, shape, train):
        x = rng.normal(3.0, 2.0, size=shape).astype(np.float32)
        given = x.copy()
        bn = self._with_state(rng, channels(shape))
        out = bn.forward(x, train)
        assert out is not x and bits(x) == bits(given)

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("shape", [(32, 16), (16, 4, 9)])
    def test_out_takes_the_same_bits(self, rng, shape, train):
        """With out=x both modes write their output into x, train mode once it has built
        x-hat from x. No bit moves."""
        x = rng.normal(3.0, 2.0, size=shape).astype(np.float32)
        dy = rng.normal(size=shape).astype(np.float32)
        bn = self._with_state(rng, channels(shape))
        into = copy.deepcopy(bn)
        want = bn.forward(x, train)
        buf = x.copy()
        got = into.forward(buf, train, out=buf)
        assert bits(got) == bits(want) and got is buf
        assert bits(into.running_mean) == bits(bn.running_mean)
        assert bits(into.running_var) == bits(bn.running_var)
        if train:
            assert bits(into.backward(dy.copy())) == bits(bn.backward(dy.copy()))
            assert bits(into.gamma.grad) == bits(bn.gamma.grad)

    @pytest.mark.parametrize("ratio", [1.0, 3.0, 30.0])
    def test_eval_within_its_float32_roundings_of_float64(self, rng, ratio):
        """Eval output against gamma * (x - mean) / sqrt(var + eps) + beta in float64.

        Each float32 rounding is at most u = 2**-24 relative. a carries four
        (var + eps, sqrt, 1 /, gamma *) and c two (a * mean, beta -); a * x and
        the final sum one each. To first order that bounds the error by u times
        4|a||x - mean| + |a||x| + 2|a||mean| + |beta| + |y|; the slack 1.01 covers
        the second-order terms. Trained criterion-5-scale models reach |mean| / sigma of 2.4.
        """
        c, shape = 32, (32, 8, 50)
        bn = self._with_state(rng, c, ratio=ratio)
        sigma = np.sqrt(bn.running_var.astype(np.float64))
        x = (bn.running_mean[:, None, None] + sigma[:, None, None] * rng.normal(size=shape)
             ).astype(np.float32)
        got = bn.forward(x, train=False).astype(np.float64)
        gamma, beta, mean, var = (v.astype(np.float64)[:, None, None] for v in
                                  (bn.gamma.value, bn.beta.value, bn.running_mean,
                                   bn.running_var))
        x = x.astype(np.float64)
        a = np.abs(gamma / np.sqrt(var + bn.eps))
        want = gamma * (x - mean) / np.sqrt(var + bn.eps) + beta
        u = 2.0 ** -24
        bound = 1.01 * u * (4 * a * np.abs(x - mean) + a * np.abs(x) + 2 * a * np.abs(mean)
                            + np.abs(beta) + np.abs(want))
        assert np.all(np.abs(got - want) <= bound)

    def test_degenerate_batch(self):
        bn = nn.BatchNorm1d(2)
        with pytest.raises(DegenerateBatch):
            bn.forward(np.zeros((1, 2), dtype=np.float32), train=True)
        # one clip but several frames is fine: count = B * T
        nn.BatchNorm1d(2).forward(np.zeros((2, 1, 4), dtype=np.float32), train=True)


class TestStatPool:
    def test_matches_numpy_formulas(self, rng):
        pool = nn.StatPool()
        x = rng.normal(size=(4, 3, 9))  # (channels, batch, frames)
        out = pool.forward(x, True)
        mu = x.mean(axis=2).T
        std = np.sqrt(x.var(axis=2) + 1e-9).T
        np.testing.assert_allclose(out, np.concatenate([mu, std], axis=1), atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("frames", [1, 6, 16, 300])
    def test_bitwise_equal_to_np_mean(self, rng, dtype, frames):
        x = rng.normal(loc=0.3, size=(7, 5, frames)).astype(dtype)
        mu = x.mean(axis=2)
        std = np.sqrt(np.square(x - mu[:, :, None]).mean(axis=2) + 1e-9)
        want = np.concatenate([mu.T, std.T], axis=1)
        assert nn.StatPool().forward(x, False).tobytes() == want.tobytes()

    def test_constant_input_hits_eps_floor(self):
        out = nn.StatPool().forward(np.ones((2, 1, 5)), True)
        np.testing.assert_allclose(out[0, 2:], np.sqrt(1e-9), atol=1e-15)

    def test_rejects_flat_input(self):
        with pytest.raises(ShapeMismatch):
            nn.StatPool().forward(np.zeros((2, 3)), True)


class TestDropout:
    def test_eval_is_identity(self, rng):
        drop = nn.Dropout(0.5)
        x = rng.normal(size=(4, 6)).astype(np.float32)
        assert np.array_equal(drop.forward(x, train=False), x)

    def test_zero_rate_is_identity_even_in_train(self, rng):
        drop = nn.Dropout(0.0)
        x = rng.normal(size=(4, 6)).astype(np.float32)
        assert np.array_equal(drop.forward(x, train=True, rng=rng), x)

    def test_train_zeroes_and_rescales(self):
        drop = nn.Dropout(0.25)
        x = np.ones((200, 50), dtype=np.float64)
        y = drop.forward(x, train=True, rng=np.random.default_rng(0))
        zero_frac = (y == 0).mean()
        assert abs(zero_frac - 0.25) < 0.02
        survivors = y[y != 0]
        np.testing.assert_allclose(survivors, 1.0 / 0.75, atol=1e-12)

    def test_train_requires_rng(self):
        """A configuration error: the CLI exits 1 on it."""
        with pytest.raises(ConfigError, match="needs an rng"):
            nn.Dropout(0.5).forward(np.ones((2, 2)), train=True)

    def test_invalid_rate(self):
        with pytest.raises(InvalidRate):
            nn.Dropout(1.0)
        with pytest.raises(InvalidRate):
            nn.Dropout(-0.1)


@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("make, shape", [
    (lambda: nn.BatchNorm1d(4), (6, 4)),
    (lambda: nn.BatchNorm1d(4), (4, 6, 5)),
    (lambda: nn.Dropout(0.0), (6, 4)),
    (lambda: nn.Dropout(0.5), (6, 4)),
    (lambda: nn.Linear(4, 3), (6, 4)),
    (lambda: nn.Relu(), (6, 4)),
    (lambda: nn.StatPool(), (4, 6, 5)),
    (lambda: nn.TdnnLayer(4, 3, (-1, 0, 1)), (4, 6, 5)),
], ids=["batchnorm-2d", "batchnorm-3d", "dropout-p0", "dropout-p0.5", "linear", "relu",
        "statpool", "tdnn"])
def test_caches_iff_train(rng, make, shape, train):
    """A layer keeps a cache for backward exactly when it runs in train mode, but a
    TdnnLayer, whose backward is handed its input, never does; backward and release()
    each drop a pending cache."""
    layer = make()
    x = rng.normal(size=shape).astype(np.float32)
    args = (rng,) if isinstance(layer, nn.Dropout) else ()
    y = layer.forward(x, train, *args)
    assert (layer._cache is not None) == (train and not isinstance(layer, nn.TdnnLayer))
    layer.release()
    assert layer._cache is None
    if train:
        layer.forward(x, train, *args)
        given = (x,) if isinstance(layer, (nn.StatPool, nn.TdnnLayer)) else ()
        assert layer.backward(np.ones_like(y), *given).shape == x.shape
        assert layer._cache is None


class TestGradReverse:
    def test_forward_identity_backward_negation(self, rng):
        grl = nn.GradReverse()
        x = rng.normal(size=(3, 4))
        assert np.array_equal(grl.forward(x, lam=0.7), x)
        dy = rng.normal(size=(3, 4))
        np.testing.assert_allclose(grl.backward(dy), -0.7 * dy, atol=1e-15)

    def test_lambda_zero_kills_gradient(self, rng):
        grl = nn.GradReverse()
        grl.forward(np.zeros((2, 2)), lam=0.0)
        out = grl.backward(rng.normal(size=(2, 2)))
        assert (out == 0.0).all()


class TestSoftmaxCrossEntropy:
    def test_softmax_rows_sum_to_one(self, rng):
        p = softmax(rng.normal(size=(5, 7)) * 50)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.isfinite(p).all()

    def test_uniform_logits_hand_value(self):
        (loss,), (grad,) = nn.softmax_cross_entropy(np.zeros((1, 2)), [0])
        assert abs(loss - np.log(2.0)) < 1e-12
        np.testing.assert_allclose(grad, [0.5 - 1.0, 0.5], atol=1e-12)

    def test_hand_computed_asymmetric_case(self):
        logits = np.array([1.0, 2.0, 3.0])
        (loss,), (grad,) = nn.softmax_cross_entropy(logits[None, :], [2])
        p = np.exp(logits) / np.exp(logits).sum()
        assert abs(loss + np.log(p[2])) < 1e-12
        np.testing.assert_allclose(grad, p - np.eye(3)[2], atol=1e-12)

    def test_batched_matches_single(self, rng):
        logits = rng.normal(size=(4, 5))
        targets = np.array([0, 3, 2, 4])
        losses, grads = nn.softmax_cross_entropy(logits, targets)
        for i in range(4):
            (loss_i,), (grad_i,) = nn.softmax_cross_entropy(logits[i : i + 1], targets[i : i + 1])
            assert abs(losses[i] - loss_i) < 1e-12
            np.testing.assert_allclose(grads[i], grad_i, atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        loss, grad = nn.softmax_cross_entropy(np.array([[1e4, -1e4]]), [1])
        assert np.isfinite(loss).all() and np.isfinite(grad).all()

    def test_target_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            nn.softmax_cross_entropy(np.zeros((1, 3)), [3])
        with pytest.raises(IndexOutOfRange):
            nn.softmax_cross_entropy(np.zeros((2, 3)), np.array([0, -1]))


class TestAdam:
    def test_scalar_trajectory_matches_hand_arithmetic(self):
        p = nn.Param(value=np.array([0.0]), grad=np.zeros(1))
        opt = nn.Adam(lr=1e-2)
        grads = [0.3, -0.2, 0.5, 0.1]
        xs = []
        for g in grads:
            p.grad[...] = g
            opt.step({"x": p})
            xs.append(float(p.value[0]))
        np.testing.assert_allclose(xs, hand_adam_steps(grads, lr=1e-2), atol=1e-12)

    def test_first_step_size_is_lr(self):
        # bias correction makes the first update exactly lr * sign(g)
        p = nn.Param(value=np.array([1.0]), grad=np.array([42.0]))
        nn.Adam(lr=0.05).step({"x": p})
        assert abs(p.value[0] - (1.0 - 0.05)) < 1e-9

    def test_frozen_params_keep_bits_and_state(self, rng):
        a = nn.Param(value=rng.normal(size=(3,)), grad=np.zeros(3))
        b = nn.Param(value=rng.normal(size=(3,)), grad=np.zeros(3))
        before = b.value.copy()
        opt = nn.Adam()
        for _ in range(3):
            a.grad[...] = rng.normal(size=3)
            b.grad[...] = rng.normal(size=3)
            opt.step({"a": a})
        assert np.array_equal(b.value, before)
        assert "b" not in opt.state
        assert opt.state["a"]["t"] == 3

    @pytest.mark.parametrize("view", [lambda a: a[:, ::2], lambda a: a.T],
                             ids=["strided", "transposed"])
    def test_standalone_views_update_in_place(self, rng, view):
        # a Param's value may be a view that no flat view covers; it must be
        # updated where it lives
        base = rng.normal(size=(4, 6))
        p = nn.Param(value=view(base), grad=np.empty(view(base).shape))
        ref = nn.Param(value=view(base).copy(), grad=np.empty(view(base).shape))
        opt, ref_opt = nn.Adam(lr=3e-3), ReferenceAdam(lr=3e-3)
        for _ in range(3):
            p.grad[...] = ref.grad[...] = rng.normal(size=p.value.shape)
            opt.step({"p": p})
            ref_opt.step({"p": ref}, lambda name: True)
        assert bits(view(base)) == bits(ref.value)
        assert bits(opt.state["p"]["m"]) == bits(ref_opt.state["p"]["m"])
        assert bits(opt.state["p"]["v"]) == bits(ref_opt.state["p"]["v"])

    def test_shape_guard(self):
        p = nn.Param(value=np.zeros(3), grad=np.zeros(4))
        with pytest.raises(ShapeMismatch):
            nn.Adam().step({"p": p})


class TestAdamOracle:
    """The per-partition update against the per-parameter loop, over adv-like stages."""

    PART = dict(zip("EFDS", PARTITIONS))
    # (trainable partitions, partitions whose moments restart as the stage begins)
    STAGES = [("ES", ""), ("EFD", "E"), ("EFDS", "E"), ("FD", ""), ("EFDS", "ES")]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_reference_loop_bitwise(self, dtype):
        arch = ArchConfig(n_podcasts=4, encoder_channels=(32,) * 5, head_hidden=(32, 32))
        model = build_model(arch, seed=0, dtype=dtype)
        named = model.named_params()
        names_of = {part: [name for name in named if name.startswith(f"{part}.")]
                    for part in PARTITIONS}
        ref_params = {name: nn.Param(value=p.value.copy(), grad=np.empty_like(p.value))
                      for name, p in named.items()}
        opt, ref = nn.Adam(lr=3e-3), ReferenceAdam(lr=3e-3)
        rng = np.random.default_rng(7)
        for trainable, restart in self.STAGES:
            parts = {self.PART[c] for c in trainable}
            restarts = {self.PART[c] for c in restart}
            for part in restarts:
                opt.reset(part)
            ref.reset(lambda name: name.split(".", 1)[0] in restarts)
            for _ in range(4):
                for name, p in named.items():
                    p.grad[...] = rng.normal(scale=0.1, size=p.grad.shape)
                    ref_params[name].grad[...] = p.grad
                opt.step({part: model.partitions[part] for part in parts})
                ref.step(ref_params, lambda name: name.split(".", 1)[0] in parts)
            assert opt.state.keys() == {name.split(".", 1)[0] for name in ref.state}
            for name, p in named.items():
                assert bits(p.value) == bits(ref_params[name].value), name
            for part, st in opt.state.items():
                want = [ref.state[name] for name in names_of[part]]
                assert {w["t"] for w in want} == {st["t"]}, part
                for key in ("m", "v"):
                    flat = np.concatenate([w[key].ravel() for w in want])
                    assert bits(st[key]) == bits(flat), (part, key)
        # the final stage left the encoder and speaker head behind the stutter heads
        assert len({st["t"] for st in opt.state.values()}) == 2


class TestFiniteDifferenceHarness:
    def test_detects_nondeterministic_loss(self):
        p = nn.Param(value=np.zeros(1), grad=np.zeros(1))
        state = {"calls": 0}

        def loss_fn():
            state["calls"] += 1
            return float(state["calls"]), {"p": p.grad}

        with pytest.raises(NonDeterministicLoss):
            finite_difference_check(loss_fn, {"p": p})

    def test_accepts_correct_quadratic_gradient(self):
        p = nn.Param(value=np.array([0.7, -1.2]), grad=np.zeros(2))

        def loss_fn():
            return float((p.value**2).sum()), {"p": 2.0 * p.value}

        report = finite_difference_check(loss_fn, {"p": p})
        assert report.passed and report.worst < 1e-8

    def test_flags_wrong_gradient(self):
        p = nn.Param(value=np.array([0.7, -1.2]), grad=np.zeros(2))

        def loss_fn():
            return float((p.value**2).sum()), {"p": 2.5 * p.value}

        report = finite_difference_check(loss_fn, {"p": p})
        assert not report.passed
