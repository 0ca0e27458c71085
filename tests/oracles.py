"""Independent reference implementations used only by the tests.

Everything here is deliberately written the slow, obvious way (explicit DFT
sums, pointwise triangle construction, scalar optimizer arithmetic, closed
form ridge regression) so that agreement with the package is evidence, not
tautology.
"""

import numpy as np
from scipy.fftpack import dct

from stutterkit.features import mel_filterbank


def hamming_window(n):
    k = np.arange(n)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * k / (n - 1))


def bruteforce_frames(samples, sample_rate, window_ms=20.0, hop_ms=10.0):
    win = int(round(window_ms * sample_rate / 1000.0))
    hop = int(round(hop_ms * sample_rate / 1000.0))
    t = (len(samples) - win) // hop + 1
    w = hamming_window(win)
    return np.array([samples[i * hop : i * hop + win] * w for i in range(t)])


def loop_frames(samples, win, hop):
    """Frames copied one by one in a Python loop, then scaled by np.hamming(win).

    The arithmetic frame_signal does, without its strided view, so the two
    must agree bitwise.
    """
    samples = np.asarray(samples, dtype=np.float64)
    t = (len(samples) - win) // hop + 1
    frames = np.empty((t, win), dtype=np.float64)
    for i in range(t):
        frames[i] = samples[i * hop : i * hop + win]
    return frames * np.hamming(win)


def uncached_features(clip, cfg):
    """extract_features step by step, framing by loop_frames and building a fresh filterbank.

    Same numpy calls in the same order as the package, so it must agree bitwise.
    """
    rate = clip.sample_rate
    frames = loop_frames(clip.samples, cfg.window_samples(rate), cfg.hop_samples(rate))
    nfft = cfg.effective_fft_size(rate)
    power = np.abs(np.fft.rfft(frames, n=nfft, axis=1)) ** 2
    mel_energy = power @ mel_filterbank(cfg.n_mels, nfft, rate).T
    log_mel = np.log(np.maximum(mel_energy, cfg.log_floor))
    coeffs = dct(log_mel, type=2, axis=1, norm="ortho")[:, : cfg.n_mfcc].T.copy()
    return coeffs - coeffs.mean(axis=1, keepdims=True)


def bruteforce_power_spectrum(frame, nfft):
    """|DFT|^2 by the definition, one bin at a time."""
    n = np.arange(nfft)
    padded = np.zeros(nfft)
    padded[: len(frame)] = frame
    bins = nfft // 2 + 1
    power = np.zeros(bins)
    for k in range(bins):
        re = np.sum(padded * np.cos(-2.0 * np.pi * k * n / nfft))
        im = np.sum(padded * np.sin(-2.0 * np.pi * k * n / nfft))
        power[k] = re * re + im * im
    return power


def bruteforce_mel_filters(n_mels, nfft, sample_rate):
    def to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def to_hz(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    edges = [to_hz(m) for m in np.linspace(0.0, to_mel(sample_rate / 2.0), n_mels + 2)]
    bins = nfft // 2 + 1
    fb = np.zeros((n_mels, bins))
    for m in range(n_mels):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        for k in range(bins):
            f = k * sample_rate / nfft
            if lo <= f <= mid:
                fb[m, k] = (f - lo) / (mid - lo)
            elif mid < f <= hi:
                fb[m, k] = (hi - f) / (hi - mid)
    return fb


def bruteforce_dct2_ortho(vec):
    """Orthonormal DCT-II as the explicit cosine sum."""
    m = len(vec)
    out = np.zeros(m)
    for k in range(m):
        scale = np.sqrt(1.0 / m) if k == 0 else np.sqrt(2.0 / m)
        out[k] = scale * np.sum(vec * np.cos(np.pi * k * (2.0 * np.arange(m) + 1) / (2.0 * m)))
    return out


def bruteforce_mel_energies(samples, sample_rate, n_mels=40, window_ms=20.0,
                            hop_ms=10.0, nfft=None):
    frames = bruteforce_frames(samples, sample_rate, window_ms, hop_ms)
    if nfft is None:
        nfft = 1
        while nfft < frames.shape[1]:
            nfft *= 2
    fb = bruteforce_mel_filters(n_mels, nfft, sample_rate)
    return np.array(
        [fb @ bruteforce_power_spectrum(frame, nfft) for frame in frames]
    )  # (T, n_mels)


def bruteforce_mfcc(samples, sample_rate, n_mfcc=20, n_mels=40, window_ms=20.0,
                    hop_ms=10.0, log_floor=1e-10, nfft=None):
    mel = bruteforce_mel_energies(samples, sample_rate, n_mels, window_ms, hop_ms, nfft)
    logmel = np.log(np.maximum(mel, log_floor))
    coeffs = np.array([bruteforce_dct2_ortho(row)[:n_mfcc] for row in logmel])
    return coeffs.T  # (n_mfcc, T)


def hand_adam_steps(g_seq, lr=1e-2, beta1=0.9, beta2=0.999, eps=1e-8, x0=0.0):
    """Scalar Adam trajectory computed step by step from the update equations."""
    x, m, v = float(x0), 0.0, 0.0
    xs = []
    for t, g in enumerate(g_seq, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
        xs.append(x)
    return xs


def ridge_onevsrest_accuracy(x_train, y_train, x_test, y_test, n_classes, lam=1e-2):
    """Closed-form one-vs-rest ridge regression accuracy; no gradient code."""
    xt = np.hstack([x_train, np.ones((x_train.shape[0], 1))])
    xs = np.hstack([x_test, np.ones((x_test.shape[0], 1))])
    targets = -np.ones((xt.shape[0], n_classes))
    targets[np.arange(xt.shape[0]), y_train] = 1.0
    a = xt.T @ xt + lam * np.eye(xt.shape[1])
    w = np.linalg.solve(a, xt.T @ targets)
    pred = np.argmax(xs @ w, axis=1)
    return float((pred == y_test).mean())


def tdnn_reference(x, weight, bias, offsets, dy):
    """TDNN forward and gradients by the per-offset loop, in float64.

    weight[:, :, k] is the tap of the k-th smallest offset. Returns
    (out, d_weight, d_bias, d_x) for the output gradient dy.
    """
    x, w, dy = (np.asarray(a, dtype=np.float64) for a in (x, weight, dy))
    shifts = [off - min(offsets) for off in sorted(offsets)]
    t_out = x.shape[2] - shifts[-1]
    out = np.broadcast_to(np.asarray(bias, np.float64)[None, :, None],
                          (x.shape[0], w.shape[0], t_out)).copy()
    d_w = np.zeros_like(w)
    d_x = np.zeros_like(x)
    for k, s in enumerate(shifts):
        xs = x[:, :, s : s + t_out]
        out += np.einsum("oc,bct->bot", w[:, :, k], xs)
        d_w[:, :, k] = np.einsum("bot,bct->oc", dy, xs)
        d_x[:, :, s : s + t_out] += np.einsum("oc,bot->bct", w[:, :, k], dy)
    return out, d_w, dy.sum(axis=(0, 2)), d_x


def tdnn_broadcast_reference(x, weight, bias, shifts, dy):
    """TDNN output and input gradient with a (C_out, 1) bias and strided per-offset W^T.

    The float-for-float formulas nn.TdnnLayer must match bitwise: the forward
    GEMM on x unfolded offset-major plus bias[:, None], and dX as
    W[:, :, k].T @ dy scatter-added per offset, W[:, :, k] a strided view.
    """
    c_out, t_out = weight.shape[0], dy.shape[2]
    u = np.concatenate([x[:, :, s : s + t_out] for s in shifts], axis=1)
    out = np.matmul(weight.transpose(0, 2, 1).reshape(c_out, -1), u)
    out += bias[:, None]
    dx = np.zeros(x.shape, x.dtype)
    for k, s in enumerate(shifts):
        dx[:, :, s : s + t_out] += np.matmul(weight[:, :, k].T, dy)
    return out, dx


class ReferenceAdam:
    """Adam as one loop over named params, each with its own state dict.

    The optimizer's arithmetic written per parameter, with fresh arrays at
    every step; nn.Adam must match it bit for bit, also when it steps a whole
    partition's arena slice under one key.
    """

    def __init__(self, lr=1e-2, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.state = {}

    def step(self, named_params, trainable):
        for name, p in named_params.items():
            if not trainable(name):
                continue
            st = self.state.setdefault(
                name, {"m": np.zeros_like(p.value), "v": np.zeros_like(p.value), "t": 0}
            )
            st["t"] += 1
            g = p.grad
            st["m"] = self.beta1 * st["m"] + (1.0 - self.beta1) * g
            st["v"] = self.beta2 * st["v"] + (1.0 - self.beta2) * g * g
            m_hat = st["m"] / (1.0 - self.beta1 ** st["t"])
            v_hat = st["v"] / (1.0 - self.beta2 ** st["t"])
            p.value -= (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(
                p.value.dtype, copy=False
            )

    def reset(self, selected):
        for name in [name for name in self.state if selected(name)]:
            del self.state[name]


def batchnorm_reference(x, gamma, beta, running_mean, running_var, train, dy,
                        eps=1e-5, momentum=0.1):
    """Batch norm forward and backward by np.mean / np.var, each where it is used.

    Eval mode's output is a*x + c with a = gamma / sqrt(running_var + eps) and
    c = beta - a * running_mean; eval mode has no backward, so its gradients are None.

    Every per-channel operand is shaped v[None, :, None] (v[None, :] for 2-D
    input), the broadcast nn.BatchNorm1d must round exactly like.
    running_mean and running_var are updated in place in train mode. Returns
    (out, d_gamma, d_beta, d_x) for the output gradient dy.
    """
    axes = (0,) if x.ndim == 2 else (0, 2)

    def shaped(v):
        return v[None, :, None] if x.ndim == 3 else v[None, :]

    if train:
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        running_mean[...] = (1 - momentum) * running_mean + momentum * mean
        running_var[...] = (1 - momentum) * running_var + momentum * var
    else:
        mean, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    if not train:  # the per-channel affine map a*x + c, a = gamma * inv_std
        a = gamma * inv_std
        return shaped(a) * x + shaped(beta - a * mean), None, None, None
    xhat = (x - shaped(mean)) * shaped(inv_std)
    d_gamma = (dy * xhat).sum(axis=axes)
    d_beta = dy.sum(axis=axes)
    g = shaped(gamma * inv_std)
    out = shaped(gamma) * xhat + shaped(beta)
    mean_dy = shaped(dy.mean(axis=axes))
    mean_dy_xhat = shaped((dy * xhat).mean(axis=axes))
    return out, d_gamma, d_beta, g * (dy - mean_dy - xhat * mean_dy_xhat)


def per_clip_synthetic(cfg):
    """generate_synthetic's feature matrices, each made by its own astype(np.float32)."""
    from stutterkit.data import _patterns
    from stutterkit.model import StutterClass

    rng = np.random.default_rng(cfg.seed)
    class_patterns, podcast_perp, podcast_par = _patterns(cfg, rng)
    counts = cfg.class_counts()
    feats = []
    for cls in StutterClass:
        for i in range(counts[cls]):
            p = i % cfg.n_podcasts
            signal = (cfg.alpha * class_patterns[cls]
                      + cfg.beta * ((1.0 - cfg.rho) * podcast_perp[p] + cfg.rho * podcast_par[p])
                      + cfg.sigma * rng.normal(size=cfg.n_mfcc * cfg.frames))
            feats.append(signal.reshape(cfg.n_mfcc, cfg.frames).astype(np.float32))
    return feats
