import struct

import numpy as np
import pytest
from scipy.io import wavfile

from oracles import (
    bruteforce_mel_energies,
    bruteforce_mfcc,
    hamming_window,
    loop_frames,
    uncached_features,
)
from stutterkit.errors import ClipTooShort, CorruptCheckpoint, DataError, InvalidConfig
from stutterkit import features
from stutterkit.features import (
    AudioClip,
    MfccConfig,
    cepstral_mean_normalize,
    compute_mfcc,
    extract_features,
    frame_signal,
    mel_filterbank,
    read_fmat,
    read_wav,
    write_fmat,
)

SR = 16000


def sine(freq, seconds=0.5, rate=SR, amp=0.5):
    t = np.arange(int(seconds * rate)) / rate
    return AudioClip(amp * np.sin(2.0 * np.pi * freq * t), rate)


class TestConfig:
    def test_window_and_hop_samples(self):
        cfg = MfccConfig()
        assert cfg.window_samples(SR) == 320
        assert cfg.hop_samples(SR) == 160
        assert cfg.effective_fft_size(SR) == 512
        assert cfg.window_samples(8000) == 160
        assert cfg.effective_fft_size(8000) == 256

    def test_explicit_fft_size_must_cover_window(self):
        cfg = MfccConfig(fft_size=256)
        with pytest.raises(InvalidConfig):
            cfg.effective_fft_size(SR)
        assert MfccConfig(fft_size=512).effective_fft_size(SR) == 512

    def test_n_mfcc_capped_by_n_mels(self):
        with pytest.raises(InvalidConfig):
            MfccConfig(n_mfcc=41, n_mels=40).validate()
        with pytest.raises(InvalidConfig):
            MfccConfig(log_floor=0.0).validate()

    @pytest.mark.parametrize("kw", [
        {"window_ms": 0.0}, {"window_ms": -5.0}, {"hop_ms": 0.0}, {"hop_ms": float("nan")},
        {"window_ms": float("inf")}, {"n_mfcc": 0}, {"n_mels": 0}, {"fft_size": 0},
        {"log_floor": float("nan")}, {"log_floor": float("inf")},
    ])
    def test_bad_config_rejected(self, kw):
        with pytest.raises(InvalidConfig):
            MfccConfig(**kw).validate()

    def test_audio_clip_validation(self):
        with pytest.raises(DataError):
            AudioClip(np.zeros(0), SR)
        with pytest.raises(DataError):
            AudioClip(np.zeros(10), 0)


class TestFraming:
    def test_frame_count_formula(self):
        clip = sine(440, seconds=3.0)
        frames = frame_signal(clip, MfccConfig())
        assert frames.shape == ((48000 - 320) // 160 + 1, 320)
        assert frames.shape[0] == 299

    def test_first_frame_is_windowed_head(self):
        clip = sine(300, seconds=0.1)
        frames = frame_signal(clip, MfccConfig())
        expected = np.asarray(clip.samples[:320]) * hamming_window(320)
        np.testing.assert_allclose(frames[0], expected, rtol=0, atol=1e-12)

    def test_hop_offset(self):
        clip = sine(300, seconds=0.1)
        frames = frame_signal(clip, MfccConfig())
        expected = np.asarray(clip.samples[160:480]) * hamming_window(320)
        np.testing.assert_allclose(frames[1], expected, rtol=0, atol=1e-12)

    def test_too_short_clip(self):
        with pytest.raises(ClipTooShort):
            frame_signal(AudioClip(np.zeros(319), SR), MfccConfig())

    def test_exactly_one_window(self):
        frames = frame_signal(AudioClip(np.ones(320), SR), MfccConfig())
        assert frames.shape == (1, 320)


    @pytest.mark.parametrize("kw, key", [({"hop_ms": 0.01}, "hop_ms"),
                                         ({"window_ms": 0.01}, "window_ms")])
    def test_zero_sample_window_or_hop_is_config_error(self, kw, key):
        # both values pass validate(), but round to 0 samples at 8 kHz
        with pytest.raises(InvalidConfig, match=f"mfcc.{key}"):
            frame_signal(sine(440, rate=8000), MfccConfig(**kw))


class TestFrontEndBitwise:
    """Strided framing and the cached filterbank give exactly the loop/uncached bits."""

    @pytest.mark.parametrize("rate, window_ms, hop_ms", [
        (SR, 20.0, 10.0), (8000, 25.0, 10.0), (22050, 20.0, 7.5), (SR, 20.0, 30.0)])
    def test_frames_and_fmat_match_loop_reference(self, tmp_path, rate, window_ms, hop_ms):
        rng = np.random.default_rng(5)
        clip = AudioClip(rng.uniform(-1.0, 1.0, int(0.7 * rate)), rate)
        cfg = MfccConfig(window_ms=window_ms, hop_ms=hop_ms)
        frames = frame_signal(clip, cfg)
        want = loop_frames(clip.samples, cfg.window_samples(rate), cfg.hop_samples(rate))
        assert frames.shape == want.shape and frames.tobytes() == want.tobytes()
        write_fmat(tmp_path / "want.fmat", uncached_features(clip, cfg))
        for _ in range(2):  # the second call reads the filterbank from the cache
            write_fmat(tmp_path / "got.fmat", extract_features(clip, cfg))
            assert (tmp_path / "got.fmat").read_bytes() == (tmp_path / "want.fmat").read_bytes()

    def test_cached_filterbank_is_read_only_and_public_one_is_fresh(self):
        cached = features._cached_mel_filterbank(40, 512, SR)
        assert not cached.flags.writeable
        assert features._cached_mel_filterbank(40, 512, SR) is cached
        fresh = mel_filterbank(40, 512, SR)
        assert fresh.flags.writeable and fresh is not mel_filterbank(40, 512, SR)
        assert np.array_equal(fresh, cached)


class TestFilterbank:
    def test_matches_pointwise_construction(self):
        from oracles import bruteforce_mel_filters

        ours = mel_filterbank(40, 512, SR)
        ref = bruteforce_mel_filters(40, 512, SR)
        assert ours.shape == (40, 257)
        np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-12)

    def test_triangles_are_bounded_and_nonnegative(self):
        fb = mel_filterbank(40, 512, SR)
        assert fb.min() >= 0.0
        assert fb.max() <= 1.0 + 1e-12
        assert (fb.max(axis=1) > 0).all()


class TestMfccOracle:
    @pytest.mark.parametrize("freq", [440.0, 1000.0])
    def test_mel_energies_match_bruteforce_dft(self, freq):
        clip = sine(freq)
        frames = frame_signal(clip, MfccConfig())
        power = np.abs(np.fft.rfft(frames, n=512, axis=1)) ** 2
        ours = power @ mel_filterbank(40, 512, SR).T
        ref = bruteforce_mel_energies(np.asarray(clip.samples), SR)
        assert ours.shape == ref.shape
        denom = np.maximum(np.abs(ref), 1e-12)
        assert (np.abs(ours - ref) / denom).max() < 1e-4

    @pytest.mark.parametrize("freq", [440.0, 1000.0])
    def test_coefficients_match_bruteforce(self, freq):
        clip = sine(freq)
        ours = compute_mfcc(clip, MfccConfig())
        ref = bruteforce_mfcc(np.asarray(clip.samples), SR)
        assert ours.shape == ref.shape == (20, 49)
        assert np.abs(ours - ref).max() < 1e-3

    def test_deterministic(self):
        clip = sine(440)
        a = compute_mfcc(clip, MfccConfig())
        b = compute_mfcc(clip, MfccConfig())
        assert np.array_equal(a, b)

    def test_finite_on_silence(self):
        m = compute_mfcc(AudioClip(np.zeros(SR), SR), MfccConfig())
        assert np.isfinite(m).all()


class TestNormalization:
    def test_zero_row_means(self):
        m = np.random.default_rng(0).normal(size=(20, 30))
        out = cepstral_mean_normalize(m)
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)

    def test_idempotent(self):
        m = np.random.default_rng(1).normal(size=(5, 7))
        once = cepstral_mean_normalize(m)
        np.testing.assert_allclose(cepstral_mean_normalize(once), once, atol=1e-15)

    def test_extract_features_is_normalized_mfcc(self):
        clip = sine(440)
        np.testing.assert_array_equal(
            extract_features(clip), cepstral_mean_normalize(compute_mfcc(clip))
        )

    def test_rejects_bad_shape(self):
        with pytest.raises(DataError):
            cepstral_mean_normalize(np.zeros(5))


class TestFmat:
    def test_roundtrip_bit_exact(self, tmp_path):
        m = np.random.default_rng(2).normal(size=(20, 33)).astype(np.float32)
        path = tmp_path / "x.fmat"
        write_fmat(path, m)
        back = read_fmat(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, m)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "x.fmat"
        write_fmat(path, np.zeros((2, 3), dtype=np.float32))
        raw = path.read_bytes()
        assert raw[:4] == b"FMAT"
        assert len(raw) == 12 + 4 * 6

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.fmat"
        path.write_bytes(b"NOPE" + bytes(8))
        with pytest.raises(CorruptCheckpoint):
            read_fmat(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.fmat"
        write_fmat(path, np.ones((4, 4), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(CorruptCheckpoint):
            read_fmat(path)

    @pytest.mark.parametrize("rows, cols", [(0xFFFFFFFF, 0xFFFFFFFF), (100_000, 100_000)])
    def test_header_larger_than_file(self, tmp_path, rows, cols):
        # the declared size is checked against the file before any payload read
        path = tmp_path / "x.fmat"
        path.write_bytes(struct.pack("<4sII", b"FMAT", rows, cols) + bytes(16))
        with pytest.raises(CorruptCheckpoint, match="this one 28"):
            read_fmat(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "x.fmat"
        write_fmat(path, np.ones((2, 3), dtype=np.float32))
        path.write_bytes(path.read_bytes() + bytes(4))
        with pytest.raises(CorruptCheckpoint, match="this one 40"):
            read_fmat(path)

    def test_rejects_non_matrix(self, tmp_path):
        with pytest.raises(DataError):
            write_fmat(tmp_path / "x.fmat", np.zeros(7))


class TestWav:
    def test_int16_scaling(self, tmp_path):
        path = tmp_path / "a.wav"
        data = (np.array([0, 16384, -32768, 32767])).astype(np.int16)
        wavfile.write(path, SR, data)
        clip = read_wav(path)
        assert clip.sample_rate == SR
        np.testing.assert_allclose(
            clip.samples, [0.0, 0.5, -1.0, 32767 / 32768], atol=1e-9
        )

    def test_float32_passthrough(self, tmp_path):
        path = tmp_path / "b.wav"
        data = np.linspace(-0.5, 0.5, 64).astype(np.float32)
        wavfile.write(path, SR, data)
        np.testing.assert_allclose(read_wav(path).samples, data, atol=1e-7)

    def test_rejects_stereo(self, tmp_path):
        path = tmp_path / "c.wav"
        wavfile.write(path, SR, np.zeros((64, 2), dtype=np.int16))
        with pytest.raises(DataError):
            read_wav(path)
