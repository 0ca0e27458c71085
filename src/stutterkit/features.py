"""MFCC front-end: framing, mel filterbank, DCT and cepstral mean normalization.

The model consumes mean-normalized 20-dimensional MFCC matrices computed on a
20 ms sliding window with a 10 ms hop. All functions here are pure; clips can
be processed in parallel. The only shared state is a cache of read-only mel
filterbanks, one per (n_mels, fft_size, sample_rate).

Conventions (documented because they are choices, not givens):
  * Hamming analysis window.
  * Power spectrum is |rfft(frame)|^2, no 1/N scaling.
  * 40 triangular mel filters spanning 0 Hz to Nyquist, HTK mel scale
    (2595 * log10(1 + f/700)), unit peak height.
  * DCT-II, orthonormal; the energy coefficient c0 is kept, not replaced.
"""

from __future__ import annotations

import functools
import os
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fftpack import dct
from scipy.io import wavfile

from .errors import ClipTooShort, CorruptCheckpoint, DataError, InvalidConfig

SAMPLE_RATE_DEFAULT = 16000

FMAT_MAGIC = b"FMAT"


@dataclass(frozen=True)
class AudioClip:
    """Mono audio segment with amplitudes in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        if len(self.samples) == 0:
            raise DataError("audio clip has no samples")
        if self.sample_rate <= 0:
            raise DataError(f"sample rate must be positive, got {self.sample_rate}")


@dataclass(frozen=True)
class MfccConfig:
    n_mfcc: int = 20
    window_ms: float = 20.0
    hop_ms: float = 10.0
    n_mels: int = 40
    fft_size: int | None = None  # None: smallest power of two >= window length
    log_floor: float = 1e-10

    def validate(self):
        if not (0 < self.window_ms < np.inf and 0 < self.hop_ms < np.inf):
            raise InvalidConfig(f"window_ms and hop_ms must be finite and > 0, "
                                f"got {self.window_ms}, {self.hop_ms}")
        if self.n_mfcc < 1 or self.n_mels < 1 or (self.fft_size is not None and self.fft_size < 1):
            raise InvalidConfig("n_mfcc, n_mels and fft_size must be >= 1")
        if self.n_mfcc > self.n_mels:
            raise InvalidConfig(f"n_mfcc={self.n_mfcc} exceeds n_mels={self.n_mels}")
        if not 0 < self.log_floor < np.inf:
            raise InvalidConfig(f"log_floor must be finite and > 0, got {self.log_floor}")

    def window_samples(self, sample_rate: int) -> int:
        return int(round(self.window_ms * sample_rate / 1000.0))

    def hop_samples(self, sample_rate: int) -> int:
        return int(round(self.hop_ms * sample_rate / 1000.0))

    def effective_fft_size(self, sample_rate: int) -> int:
        win = self.window_samples(sample_rate)
        if self.fft_size is not None:
            if self.fft_size < win:
                raise InvalidConfig(
                    f"fft_size={self.fft_size} smaller than window of {win} samples"
                )
            return self.fft_size
        n = 1
        while n < win:
            n *= 2
        return n


def frame_signal(clip: AudioClip, cfg: MfccConfig) -> np.ndarray:
    """Slice the clip into Hamming-windowed frames, shape (T, window_samples).

    T = floor((N - W) / H) + 1. Raises InvalidConfig when the window or hop
    rounds to 0 samples at the clip's rate, and ClipTooShort when N < W.
    """
    win = cfg.window_samples(clip.sample_rate)
    hop = cfg.hop_samples(clip.sample_rate)
    for key, ms, samples in (("window_ms", cfg.window_ms, win), ("hop_ms", cfg.hop_ms, hop)):
        if samples < 1:
            raise InvalidConfig(f"mfcc.{key}={ms} is 0 samples at {clip.sample_rate} Hz")
    n = len(clip.samples)
    if n < win:
        raise ClipTooShort(f"clip of {n} samples shorter than window of {win}")
    samples = np.asarray(clip.samples, dtype=np.float64)
    return sliding_window_view(samples, win)[::hop] * np.hamming(win)


def mel_filterbank(n_mels: int, fft_size: int, sample_rate: int) -> np.ndarray:
    """Triangular filterbank matrix, shape (n_mels, fft_size // 2 + 1)."""
    def hz_to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def mel_to_hz(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    nyquist = sample_rate / 2.0
    edges_hz = mel_to_hz(np.linspace(0.0, hz_to_mel(nyquist), n_mels + 2))
    bin_freqs = np.arange(fft_size // 2 + 1) * (sample_rate / fft_size)

    fb = np.zeros((n_mels, fft_size // 2 + 1))
    for m in range(n_mels):
        left, center, right = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        rising = (bin_freqs - left) / (center - left)
        falling = (right - bin_freqs) / (right - center)
        fb[m] = np.clip(np.minimum(rising, falling), 0.0, None)
    return fb


@functools.lru_cache(maxsize=16)
def _cached_mel_filterbank(n_mels: int, fft_size: int, sample_rate: int) -> np.ndarray:
    """mel_filterbank, built once per shape and rate; read-only, as callers share it."""
    fb = mel_filterbank(n_mels, fft_size, sample_rate)
    fb.flags.writeable = False
    return fb


def compute_mfcc(clip: AudioClip, cfg: MfccConfig = MfccConfig()) -> np.ndarray:
    """MFCC matrix of shape (n_mfcc, T).

    Per frame: power spectrum via real FFT of the windowed frame, mel
    filterbank energies, log with a floor clamp, orthonormal DCT-II, first
    n_mfcc coefficients kept. Output is finite for any finite input.
    """
    cfg.validate()
    frames = frame_signal(clip, cfg)
    nfft = cfg.effective_fft_size(clip.sample_rate)
    power = np.abs(np.fft.rfft(frames, n=nfft, axis=1)) ** 2
    fb = _cached_mel_filterbank(cfg.n_mels, nfft, clip.sample_rate)
    mel_energy = power @ fb.T
    log_mel = np.log(np.maximum(mel_energy, cfg.log_floor))
    coeffs = dct(log_mel, type=2, axis=1, norm="ortho")[:, : cfg.n_mfcc]
    return coeffs.T.copy()


def cepstral_mean_normalize(m: np.ndarray) -> np.ndarray:
    """Subtract the per-coefficient mean over frames; idempotent."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[1] < 1:
        raise DataError(f"expected a coeffs x frames matrix, got shape {m.shape}")
    return m - m.mean(axis=1, keepdims=True)


def extract_features(clip: AudioClip, cfg: MfccConfig = MfccConfig()) -> np.ndarray:
    """Full front-end: MFCC followed by cepstral mean normalization."""
    return cepstral_mean_normalize(compute_mfcc(clip, cfg))


def read_wav(path) -> AudioClip:
    """Read a mono PCM WAV (16-bit int or 32-bit float) into [-1, 1] floats."""
    rate, data = wavfile.read(path)
    if data.ndim != 1:
        raise DataError(f"{path}: expected mono audio, got {data.ndim} channels")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.float32 or data.dtype == np.float64:
        samples = data.astype(np.float64)
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    else:
        raise DataError(f"{path}: unsupported WAV sample format {data.dtype}")
    return AudioClip(samples=samples, sample_rate=int(rate))


def write_fmat(path, matrix: np.ndarray):
    """Write a feature matrix: magic 'FMAT', u32 rows, u32 cols, f32 LE row-major."""
    m = np.ascontiguousarray(matrix, dtype="<f4")
    if m.ndim != 2:
        raise DataError(f"feature matrix must be 2-D, got shape {m.shape}")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", FMAT_MAGIC, m.shape[0], m.shape[1]))
        fh.write(m.tobytes())


def read_fmat(path) -> np.ndarray:
    """Read a feature matrix; the header's shape must account for the file's exact size."""
    with open(path, "rb") as fh:
        header = fh.read(12)
        if len(header) < 12:
            raise CorruptCheckpoint(f"{path}: truncated FMAT header")
        magic, rows, cols = struct.unpack("<4sII", header)
        if magic != FMAT_MAGIC:
            raise CorruptCheckpoint(f"{path}: bad magic {magic!r}")
        nbytes = 4 * rows * cols
        size = os.fstat(fh.fileno()).st_size
        if size != 12 + nbytes:
            raise CorruptCheckpoint(
                f"{path}: a {rows} x {cols} FMAT file is {12 + nbytes} bytes, this one {size}")
        payload = fh.read(nbytes)
        if len(payload) != nbytes:
            raise CorruptCheckpoint(f"{path}: truncated FMAT payload")
    return np.frombuffer(payload, dtype="<f4").reshape(rows, cols).astype(np.float32)
