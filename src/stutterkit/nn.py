"""Minimal differentiable kernels: every layer the model needs, nothing more.

The network is a fixed chain with three heads, so each layer carries an
explicit forward/backward pair instead of a general autodiff tape. Every layer's
forward(x, train, ...) caches what backward needs exactly when it trains, and no
layer keeps an input its caller can hand back: TdnnLayer and StatPool backward
take it as an argument, so a TdnnLayer caches nothing. Backward reads the cache,
drops it, returns the input gradient and accumulates parameter gradients in place;
release() drops a cache that no backward will read. Every backward formula here is
validated against central finite differences (see tests/gradcases.py).

Temporal tensors are channels-major, (channels, batch, frames): a channel's
values over the batch are one contiguous row, so a per-channel statistic or bias
gradient is one pairwise sum. Bias-gradient and batch-norm gradient sums, whose
terms cancel, accumulate in float64 and round once. A train-mode TDNN contracts
all clips in one GEMM; an eval-mode one runs a GEMM per clip, so no clip's output
depends on its batch.
Flat tensors are (batch, features). Kernels are deterministic pure functions of
(inputs, params, rng state); parameters are owned by the training loop.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateBatch,
    IndexOutOfRange,
    InputTooShort,
    InvalidRate,
    ShapeMismatch,
)


@dataclass(eq=False)
class Param:
    """A learnable tensor and its accumulated gradient.

    A Param placed by `arena` is a view into the flat value and grad buffers
    the arena owns. Mutate value and grad in place: rebinding either detaches
    it from the buffers its optimizer updates.
    """

    value: np.ndarray
    grad: np.ndarray

    @classmethod
    def zeros(cls, shape, dtype) -> "Param":
        return cls(value=np.zeros(shape, dtype=dtype), grad=np.zeros(shape, dtype=dtype))


def arena(params, dtype) -> Param:
    """Rebind params, in iteration order, to views into one value and one grad buffer.

    Returns the Param that owns both buffers, zeroed. Nothing is copied: the
    caller initialises values through the views.
    """
    params = list(params)
    total = sum(p.value.size for p in params)
    # One allocation for both: rebuilding a model then reuses the pages the
    # previous one freed, where two made the allocator return them to the OS.
    both = np.zeros((2, total), dtype=dtype)
    flat = Param(value=both[0], grad=both[1])
    start = 0
    for p in params:
        stop = start + p.value.size
        p.value = flat.value[start:stop].reshape(p.value.shape)
        p.grad = flat.grad[start:stop].reshape(p.value.shape)
        start = stop
    return flat


def _uniform_init(rng: np.random.Generator, p: Param, fan_in: int) -> None:
    """Draw p's values uniformly from +-sqrt(1 / fan_in)."""
    bound = np.sqrt(1.0 / fan_in)
    p.value[...] = rng.uniform(-bound, bound, size=p.value.shape)


class Layer:
    """Base: a layer owns named Params, optional non-learnable buffers and a backward cache.

    Layers built with rng=None hold zeroed Params until init_params(rng)
    sets their values; that lets an owner place them in an arena first.
    """

    _cache = None

    def release(self) -> None:
        """Drop what a train-mode forward cached, for a backward that will not run."""
        self._cache = None

    def params(self) -> dict[str, Param]:
        return {}

    def buffers(self) -> dict[str, np.ndarray]:
        return {}

    def init_params(self, rng: np.random.Generator) -> None:
        pass


class TdnnLayer(Layer):
    """Time-delay layer: valid 1-D convolution over an explicit offset set.

    out[c, b, t] = bias[c] + sum_k sum_c' W[c, c', k] * x[c', b, t + off_k - off_min]

    Input (C_in, batch, T), any strides; output (C_out, batch, T - span), span =
    max(offsets) - min(offsets). Each contraction is a GEMM by W viewed as (C_out,
    K * C_in) over x unfolded offset-major into U, (K * C_in, batch, T_out) (x when
    K = 1). Train mode contracts all clips at once, U viewed as (K * C_in, batch * T_out)
    (Chellapilla et al. 2006); eval mode runs one GEMM per clip on its strided columns
    of U, so a clip's output never depends on its batch. Backward views dy as (C_out,
    batch * T_out) for dW and the bias sum, float64-accumulated, and scatter-adds dX as
    one GEMM per offset, W_k^T dy; each unfolded copy is freed before the next. The
    layer caches nothing: backward(dy, x) is handed the input the forward read, and
    backward(dy, x, input_grad=False) accumulates dW and db only.
    """

    def __init__(self, in_channels, out_channels, offsets, rng=None, dtype=np.float32):
        self.offsets = tuple(sorted(int(o) for o in offsets))
        self.shifts = [off - self.offsets[0] for off in self.offsets]
        self.span = self.shifts[-1]
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.weight = Param.zeros((out_channels, in_channels, len(self.offsets)), dtype)
        self.bias = Param.zeros((out_channels,), dtype)
        if rng is not None:
            self.init_params(rng)

    def params(self):
        return {"weight": self.weight, "bias": self.bias}

    def init_params(self, rng):
        fan_in = self.in_channels * len(self.offsets)
        _uniform_init(rng, self.weight, fan_in)
        _uniform_init(rng, self.bias, fan_in)

    def _unfold(self, x: np.ndarray, t_out: int) -> np.ndarray:
        """U, (K * C_in, batch, t_out), built C-ordered; x itself when K = 1."""
        if len(self.shifts) == 1:
            return x
        u = np.empty((len(self.shifts) * len(x), x.shape[1], t_out), x.dtype)
        return np.concatenate([x[:, :, s : s + t_out] for s in self.shifts], out=u)

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        if x.ndim != 3 or len(x) != self.in_channels:
            raise ShapeMismatch(f"expected ({self.in_channels}, batch, frames), got {x.shape}")
        t_in = x.shape[2]
        if t_in <= self.span:
            raise InputTooShort(
                f"need more than {self.span} frames for offsets {self.offsets}, got {t_in}"
            )
        u = self._unfold(x, t_in - self.span)
        w = self.weight.value.transpose(0, 2, 1).reshape(self.out_channels, -1)
        if train:
            out = (w @ u.reshape(len(u), -1)).reshape(self.out_channels, *u.shape[1:])
        else:
            out = np.empty((self.out_channels, *u.shape[1:]), x.dtype)
            np.matmul(w, u.transpose(1, 0, 2), out=out.transpose(1, 0, 2))
        out += self.bias.value[:, None, None]
        return out

    def backward(self, dy: np.ndarray, x: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        c_out, b, t_out = dy.shape
        u = self._unfold(x, t_out)
        shape, dtype = x.shape, x.dtype
        del x
        dy = dy.reshape(c_out, -1)
        dw = dy @ u.reshape(len(u), -1).T
        del u
        self.weight.grad += dw.reshape(c_out, len(self.shifts), -1).transpose(0, 2, 1)
        self.bias.grad += dy.sum(axis=1, dtype=np.float64)
        if not input_grad:
            return None
        dx = np.zeros(shape, dtype)
        # each w[k].T is then the Fortran-ordered copy numpy makes of a strided W[:, :, k].T
        w = np.ascontiguousarray(self.weight.value.transpose(2, 0, 1))  # (K, C_out, C_in)
        for k, s in enumerate(self.shifts):
            dx[:, :, s : s + t_out] += (w[k].T @ dy).reshape(-1, b, t_out)
        return dx


class Linear(Layer):
    """Affine map y = x W^T + b on (batch, features)."""

    def __init__(self, in_features, out_features, rng=None, dtype=np.float32):
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Param.zeros((out_features, in_features), dtype)
        self.bias = Param.zeros((out_features,), dtype)
        if rng is not None:
            self.init_params(rng)

    def params(self):
        return {"weight": self.weight, "bias": self.bias}

    def init_params(self, rng):
        _uniform_init(rng, self.weight, self.in_features)
        _uniform_init(rng, self.bias, self.in_features)

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeMismatch(f"expected (batch, {self.in_features}), got {x.shape}")
        if train:
            self._cache = x
        return x @ self.weight.value.T + self.bias.value

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x, self._cache = self._cache, None
        self.weight.grad += dy.T @ x
        self.bias.grad += dy.sum(axis=0, dtype=np.float64)
        return dy @ self.weight.value


class Relu(Layer):
    def forward(self, x: np.ndarray, train: bool, out=None) -> np.ndarray:
        """max(x, 0), into `out` if given (x itself, for an in-place ReLU)."""
        if train:
            self._cache = x > 0
        return np.maximum(x, 0, out=out)

    def backward(self, dy: np.ndarray, out=None) -> np.ndarray:
        """dy where the input was positive, else 0; into `out` if given (dy itself)."""
        mask, self._cache = self._cache, None
        return np.multiply(dy, mask, out=out)


class BatchNorm1d(Layer):
    """Per-channel normalization over batch (and frames, for temporal input).

    Train mode uses batch statistics (population variance, eps=1e-5) and
    updates running statistics with momentum 0.1; eval mode uses the running
    statistics. Input is (batch, channels) or (channels, batch, frames).

    Each batch statistic is one sum per channel, divided as np.mean divides, the
    variance from centred squares (two passes): bitwise np.mean / np.var over the
    channel's values, one contiguous row of temporal input, so one pairwise sum.
    Backward's sums over dy and dy * x-hat accumulate in float64: their terms cancel,
    and the input gradient's per-channel sum, exactly zero, then keeps less rounding.

    Eval mode writes a*x + c, a = gamma / sqrt(running_var + eps), c = beta - a*running_mean,
    from the live parameters. a*x and c cancel when |running_mean| >> sqrt(running_var): at
    1000:1 the worst error is 2.6e-5 of the largest output, against 9e-8 for (x - mean) * a + beta.
    Given out= (x itself, owned by the caller) eval writes its output there; train mode, whose
    x-hat the cache keeps, allocates its own. Without out= x is left untouched.
    """

    def __init__(self, channels, eps=1e-5, momentum=0.1, dtype=np.float32):
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = Param.zeros((channels,), dtype)
        self.beta = Param.zeros((channels,), dtype)
        self.init_params()
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def params(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def buffers(self):
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def init_params(self, rng=None):
        self.gamma.value[...] = 1.0  # beta stays zero

    def forward(self, x: np.ndarray, train: bool, out=None) -> np.ndarray:
        if x.ndim not in (2, 3) or x.shape[0 if x.ndim == 3 else 1] != self.channels:
            raise ShapeMismatch(f"expected channel axis of {self.channels}, got {x.shape}")
        # (channels, batch, frames) reduces its last two axes: one contiguous row per channel
        axes, ch = ((1, 2), np.s_[:, None, None]) if x.ndim == 3 else ((0,), np.s_[:])
        if not train:
            inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
            scale = self.gamma.value * inv_std
            out = np.multiply(x, scale[ch], out=out)
            out += (self.beta.value - scale * self.running_mean)[ch]
            return out
        count = x.size // self.channels
        if count < 2:
            raise DegenerateBatch(f"train-mode batch norm needs 2+ values per channel, got {count}")
        mean = _mean_of_sum(x.sum(axis=axes), count)
        xhat = x - mean[ch]
        y = np.square(xhat)  # this call's own temporary: the output goes here
        var = _mean_of_sum(y.sum(axis=axes), count)
        self.running_mean[...] = (1 - self.momentum) * self.running_mean + self.momentum * mean
        self.running_var[...] = (1 - self.momentum) * self.running_var + self.momentum * var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat *= inv_std[ch]
        self._cache = (xhat, inv_std, axes, ch)
        return self.output(out=y)

    def output(self, out=None) -> np.ndarray:
        """The pending train-mode forward's output, gamma * x-hat + beta, by the forward's ops."""
        xhat, _, _, ch = self._cache
        out = np.multiply(self.gamma.value[ch], xhat, out=out)
        out += self.beta.value[ch]
        return out

    def backward(self, dy: np.ndarray, out=None) -> np.ndarray:
        """Input gradient, into `out` if given (dy itself); consumes the cached x-hat."""
        (xhat, inv_std, axes, ch), self._cache = self._cache, None
        sum_dy_xhat = (dy * xhat).sum(axis=axes, dtype=np.float64)
        sum_dy = dy.sum(axis=axes, dtype=np.float64)
        self.gamma.grad += sum_dy_xhat
        self.beta.grad += sum_dy
        count = dy.size // self.channels
        dx = np.subtract(dy, (sum_dy / count).astype(dy.dtype)[ch], out=out)
        xhat *= (sum_dy_xhat / count).astype(dy.dtype)[ch]
        dx -= xhat
        dx *= (self.gamma.value * inv_std)[ch]
        return dx


def _mean_of_sum(total: np.ndarray, count: int) -> np.ndarray:
    """total / count in place, rounded as np.mean rounds it: it divides by an intp."""
    return np.true_divide(total, np.intp(count), out=total, casting="unsafe")


class StatPool(Layer):
    """Statistical pooling: concat per-channel mean and population std over frames.

    (channels, batch, frames) -> (batch, 2 * channels); std uses
    sqrt(mean((x - mu)^2) + eps) with eps = 1e-9 so silence stays finite.
    """

    def __init__(self, eps=1e-9):
        self.eps = eps

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        if x.ndim != 3:
            raise ShapeMismatch(f"expected (channels, batch, frames), got {x.shape}")
        mu = _mean_of_sum(x.sum(axis=2), x.shape[2])
        sq = x - mu[:, :, None]
        std = np.sqrt(_mean_of_sum(np.square(sq, out=sq).sum(axis=2), x.shape[2]) + self.eps)
        if train:
            self._cache = (mu, std)
        return np.concatenate([mu, std]).T.copy()  # C-ordered, as the heads' GEMMs read it

    def backward(self, dy: np.ndarray, x: np.ndarray) -> np.ndarray:
        (mu, std), self._cache = self._cache, None
        c, t = len(x), x.shape[2]
        dx = x - mu[:, :, None]  # x - mu again, rounded as forward rounded it
        dx *= dy[:, c:].T[:, :, None]
        dx /= t * std[:, :, None]
        dx += dy[:, :c].T[:, :, None] / t
        return dx


class Dropout(Layer):
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p)."""

    def __init__(self, p: float):
        if not (0.0 <= p < 1.0):
            raise InvalidRate(f"dropout rate must be in [0, 1), got {p}")
        self.p = p

    def forward(self, x: np.ndarray, train: bool,
                rng: np.random.Generator | None = None) -> np.ndarray:
        mask = None
        if train and self.p != 0.0:
            if rng is None:
                raise ConfigError("train-mode dropout needs an rng")
            keep = (rng.random(x.shape) >= self.p).astype(x.dtype)
            mask = keep / (1.0 - self.p)
        if train:
            self._cache = (mask,)  # mask is None when p = 0
        return x if mask is None else x * mask

    def backward(self, dy: np.ndarray) -> np.ndarray:
        (mask,), self._cache = self._cache, None
        return dy if mask is None else dy * mask


class GradReverse(Layer):
    """Identity forward that records lambda; backward multiplies the incoming gradient
    by -lambda, or passes it through when lambda is None (no reversal)."""

    _lam = None

    def forward(self, x: np.ndarray, lam: float | None) -> np.ndarray:
        self._lam = lam
        return x

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy if self._lam is None else -self._lam * dy


def softmax_cross_entropy(logits: np.ndarray, target):
    """Cross-entropy loss and its logit gradient.

    (batch, k) logits with an int target vector give per-sample losses
    (batch,) and per-sample grads (batch, k); callers reduce as they see fit.
    grad = softmax(logits) - onehot(target).
    """
    tg = np.asarray(target, dtype=np.intp)
    k = logits.shape[1]
    if tg.min(initial=0) < 0 or tg.max(initial=-1) >= k:
        raise IndexOutOfRange(f"target outside [0, {k})")
    zmax = logits.max(axis=1, keepdims=True)
    z = logits - zmax
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    rows = np.arange(logits.shape[0])
    losses = -logp[rows, tg]
    grads = np.exp(logp)
    grads[rows, tg] -= 1.0
    return losses, grads


class Adam:
    """Bias-corrected Adam (Kingma & Ba 2015) with one state per key.

    step updates every Param it is handed, in place, and keeps one
    {"m", "v", "t"} state per key, its moments shaped like the Param's value.
    A Param left out of a step keeps its bits, and its key its moments and
    step count; reset forgets one key, so its next step starts from t = 1.
    """

    def __init__(self, lr=1e-2, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.state: dict[str, dict] = {}

    def step(self, params: Mapping[str, Param]) -> None:
        """Apply one update to every Param in params, each under its own key's state."""
        for key, p in params.items():
            if p.grad.shape != p.value.shape:
                raise ShapeMismatch(f"{key}: grad shape {p.grad.shape} vs {p.value.shape}")
            st = self.state.get(key)
            if st is None:
                st = self.state[key] = {"m": np.zeros_like(p.value),
                                        "v": np.zeros_like(p.value), "t": 0}
            st["t"] += 1
            self._update(p.value, p.grad, st["m"], st["v"], st["t"])

    def _update(self, value, g, m, v, t) -> None:
        """One update in place; each op rounds as the per-parameter expression does."""
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        gg = (1.0 - self.beta2) * g
        gg *= g
        v += gg
        step = np.divide(m, 1.0 - self.beta1**t, out=gg)
        step *= self.lr
        denom = v / (1.0 - self.beta2**t)
        np.sqrt(denom, out=denom)
        denom += self.eps
        step /= denom
        value -= step

    def reset(self, key: str) -> None:
        """Forget the moments and step count kept under key."""
        self.state.pop(key, None)
