"""Framing, power spectra, auditory scales, filterbanks, DCT, deltas."""

import tracemalloc

import numpy as np
import pytest
import scipy.fft

from scenefuse.dataio import AudioClip
from scenefuse.spectral import (
    STFT_BLOCK,
    FeatureMatrix,
    apply_filterbank,
    append_deltas,
    bark_to_hz,
    cepstral_dct,
    erb_bandwidth,
    erb_rate_to_hz,
    frame_count,
    frame_signal,
    hamming_periodic,
    hz_to_bark,
    hz_to_erb_rate,
    hz_to_mel,
    make_filterbank,
    mel_to_hz,
    power_spectrum,
)
from conftest import make_noise_clip


def naive_power_spectrum(frame, window):
    """Direct O(n^2) DFT of a windowed frame, one-sided |X_k|^2."""
    x = frame * window
    n = x.size
    k = np.arange(n // 2 + 1)
    basis = np.exp(-2j * np.pi * np.outer(k, np.arange(n)) / n)
    return np.abs(basis @ x) ** 2


def whole_matrix_power_spectrum(frames):
    """The STFT as one whole-matrix step: a contiguous copy of the frames
    times the window, ``rfft``, then ``real**2 + imag**2``."""
    copy = np.ascontiguousarray(frames.frames, dtype=np.float64)
    spectrum = np.fft.rfft(copy * hamming_periodic(frames.frame_len), axis=1)
    return spectrum.real**2 + spectrum.imag**2


def naive_dct2_ortho(row):
    """Orthonormal DCT-II as an explicit cosine sum."""
    n = row.size
    j = np.arange(n)
    out = np.array(
        [np.sum(row * np.cos(np.pi * k * (2 * j + 1) / (2 * n))) for k in range(n)]
    )
    out[0] *= np.sqrt(1.0 / n)
    out[1:] *= np.sqrt(2.0 / n)
    return out


class TestFraming:
    def test_count_formula(self):
        assert frame_count(2048, 2048, 1024) == 1
        assert frame_count(3071, 2048, 1024) == 1
        assert frame_count(3072, 2048, 1024) == 2
        assert frame_count(44100 * 3, 2048, 1024) == 128

    def test_count_matches_frames(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            frame_len = int(rng.integers(4, 400))
            hop = int(rng.integers(1, frame_len + 1))
            length = int(rng.integers(frame_len, 5000))
            clip = AudioClip(rng.standard_normal(length), 16000)
            frames = frame_signal(clip, frame_len, hop)
            assert frames.n_frames == frame_count(length, frame_len, hop)

    def test_frame_content(self):
        clip = AudioClip(np.arange(10000, dtype=np.float64), 16000)
        frames = frame_signal(clip, 2048, 1024)
        assert np.array_equal(frames.frames[0], clip.samples[:2048])
        assert np.array_equal(frames.frames[3], clip.samples[3072 : 3072 + 2048])

    def test_no_padding(self):
        # 2 full frames fit in 3500 samples, the leftover tail is dropped
        clip = AudioClip(np.ones(3500), 16000)
        assert frame_signal(clip, 2048, 1024).n_frames == 2

    def test_frames_are_a_read_only_view_of_the_clip(self):
        clip = make_noise_clip(1.0, 16000, seed=2)
        frames = frame_signal(clip, 512, 256)
        assert not frames.frames.flags.writeable
        assert np.shares_memory(frames.frames, clip.samples)
        with pytest.raises(ValueError, match="read-only"):
            frames.frames[0, 0] = 1.0

    def test_short_clip_rejected(self):
        clip = AudioClip(np.ones(100), 16000)
        with pytest.raises(ValueError, match="shorter than frame_len"):
            frame_signal(clip, 2048, 1024)

    def test_bad_hop_rejected(self):
        clip = AudioClip(np.ones(5000), 16000)
        with pytest.raises(ValueError):
            frame_signal(clip, 1024, 2048)
        with pytest.raises(ValueError):
            frame_signal(clip, 1024, 0)


class TestWindow:
    def test_endpoints_and_mean(self):
        w = hamming_periodic(512)
        assert w[0] == pytest.approx(0.08)
        # periodic window: the cosine sums to zero over a full cycle
        assert w.mean() == pytest.approx(0.54, abs=1e-12)

    def test_periodic_symmetry(self):
        w = hamming_periodic(64)
        assert np.allclose(w[1:], w[1:][::-1])
        # strictly periodic, not symmetric: w[-1] != w[0]
        assert w[-1] != w[0]


class TestPowerSpectrum:
    def test_matches_naive_dft(self):
        rng = np.random.default_rng(3)
        for n in (32, 64, 128, 256):
            clip = AudioClip(rng.standard_normal(n * 3), 8000)
            frames = frame_signal(clip, n, n // 2)
            spec = power_spectrum(frames)
            window = hamming_periodic(n)
            for t in range(frames.n_frames):
                want = naive_power_spectrum(frames.frames[t], window)
                err = np.abs(spec.power[t] - want).max() / max(want.max(), 1e-30)
                assert err < 1e-8

    @pytest.mark.parametrize(
        "n_frames", [1, STFT_BLOCK - 1, STFT_BLOCK, STFT_BLOCK + 1, 2 * STFT_BLOCK + 5, 128]
    )
    def test_blocks_match_the_whole_matrix_bit_for_bit(self, n_frames):
        frame_len, hop = 2048, 1024
        clip = make_noise_clip(3.0, 44100, seed=n_frames)
        clip = AudioClip(clip.samples[: frame_len + (n_frames - 1) * hop], 44100)
        frames = frame_signal(clip, frame_len, hop)
        assert frames.n_frames == n_frames
        got = power_spectrum(frames).power
        assert got.flags.c_contiguous
        assert np.array_equal(got, whole_matrix_power_spectrum(frames))

    @pytest.mark.parametrize("seconds", [3, 30])
    def test_temporaries_stay_bounded(self, seconds):
        # only the returned power grows with the clip; the rest is a few
        # blocks of frames, whatever the clip length
        budget = 3_000_000
        clip = make_noise_clip(seconds, 44100, seed=seconds)
        tracemalloc.start()
        try:
            power = power_spectrum(frame_signal(clip, 2048, 1024)).power
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - power.nbytes < budget

    def test_shape_and_bins(self):
        clip = make_noise_clip(1.0, 16000, seed=4)
        spec = power_spectrum(frame_signal(clip, 512, 256))
        assert spec.power.shape[1] == 257
        assert spec.n_fft == 512

    def test_nonnegative(self):
        clip = make_noise_clip(1.0, 16000, seed=5)
        spec = power_spectrum(frame_signal(clip, 256, 128))
        assert spec.power.min() >= 0.0

    def test_tone_peaks_at_its_bin(self):
        sr, n = 16000, 512
        f0 = 20 * sr / n  # exactly bin 20
        t = np.arange(sr) / sr
        clip = AudioClip(np.sin(2 * np.pi * f0 * t), sr)
        spec = power_spectrum(frame_signal(clip, n, n))
        assert int(np.argmax(spec.power[0])) == 20


class TestScales:
    def test_known_values(self):
        assert hz_to_mel(0) == 0.0
        assert hz_to_mel(700) == pytest.approx(2595 * np.log10(2))
        assert hz_to_bark(0) == 0.0
        assert hz_to_bark(600) == pytest.approx(6 * np.arcsinh(1.0))
        assert hz_to_erb_rate(1000) == pytest.approx(21.4 * np.log10(5.37))
        assert erb_bandwidth(1000) == pytest.approx(24.7 * 5.37)

    def test_round_trips(self):
        f = np.array([10.0, 100.0, 997.0, 4000.0, 15999.0])
        assert np.allclose(mel_to_hz(hz_to_mel(f)), f, rtol=1e-10)
        assert np.allclose(bark_to_hz(hz_to_bark(f)), f, rtol=1e-10)
        assert np.allclose(erb_rate_to_hz(hz_to_erb_rate(f)), f, rtol=1e-10)

    def test_monotonic(self):
        f = np.linspace(0, 20000, 500)
        for fwd in (hz_to_mel, hz_to_bark, hz_to_erb_rate):
            assert np.all(np.diff(fwd(f)) > 0)


class TestFilterbanks:
    def test_unit_peak_rows(self):
        for kind in ("mel-triangular", "bark-trapezoidal", "gammatone-magnitude"):
            fb = make_filterbank(kind, 40, 2048, 44100)
            assert fb.weights.shape == (40, 1025)
            assert np.allclose(fb.weights.max(axis=1), 1.0)
            assert fb.weights.min() >= 0.0

    def test_centers_increase_and_stay_inside(self):
        fb = make_filterbank("mel-triangular", 40, 2048, 44100)
        assert np.all(np.diff(fb.center_freqs) > 0)
        assert fb.center_freqs[0] > 0
        assert fb.center_freqs[-1] < 22050

    def test_mel_triangle_support(self):
        fb = make_filterbank("mel-triangular", 20, 1024, 16000)
        bin_freqs = np.arange(513) * (16000 / 1024)
        mel_points = np.linspace(hz_to_mel(0), hz_to_mel(8000), 22)
        left = mel_to_hz(mel_points[:-2])
        right = mel_to_hz(mel_points[2:])
        for ch in (0, 7, 19):
            outside = (bin_freqs < left[ch] - 1e-9) | (bin_freqs > right[ch] + 1e-9)
            assert np.all(fb.weights[ch][outside] == 0.0)
            assert fb.weights[ch].sum() > 0

    def test_bark_flat_top_and_skirts(self):
        fb = make_filterbank("bark-trapezoidal", 12, 2048, 44100)
        bin_bark = hz_to_bark(np.arange(1025) * (44100 / 2048))
        points = np.linspace(hz_to_bark(0), hz_to_bark(22050), 14)[1:-1]
        for ch in range(12):
            omega = bin_bark - points[ch]
            flat = (omega >= -0.5) & (omega <= 0.5)
            if flat.any():
                assert np.all(fb.weights[ch][flat] == 1.0)
            falling = (omega > 0.5) & (omega <= 2.5)
            assert np.allclose(
                fb.weights[ch][falling], 10.0 ** (-(omega[falling] - 0.5))
            )
            rising = (omega >= -1.3) & (omega < -0.5)
            assert np.allclose(
                fb.weights[ch][rising], 10.0 ** (2.5 * (omega[rising] + 0.5))
            )
            dead = (omega < -1.3) | (omega > 2.5)
            assert np.all(fb.weights[ch][dead] == 0.0)

    def test_gammatone_shape(self):
        fb = make_filterbank("gammatone-magnitude", 30, 2048, 44100)
        bin_freqs = np.arange(1025) * (44100 / 2048)
        for ch in (0, 15, 29):
            fc = fb.center_freqs[ch]
            b = 1.019 * erb_bandwidth(fc)
            want = (1.0 + ((bin_freqs - fc) / b) ** 2) ** -4.0
            want = want / want.max()
            assert np.allclose(fb.weights[ch], want, atol=1e-12)
            # magnitude response never reaches zero
            assert fb.weights[ch].min() > 0.0

    def test_too_few_channels_rejected(self):
        with pytest.raises(ValueError, match="at least 2 channels"):
            make_filterbank("mel-triangular", 1, 1024, 16000)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown filterbank kind"):
            make_filterbank("cochlea", 10, 1024, 16000)

    def test_empty_channel_rejected(self):
        # 60 narrow triangles cannot all land on a 33-bin grid
        with pytest.raises(ValueError, match="no positive weight"):
            make_filterbank("mel-triangular", 60, 64, 16000)

    def test_apply_is_linear(self):
        clip = make_noise_clip(1.0, 16000, seed=6)
        spec = power_spectrum(frame_signal(clip, 512, 256))
        fb = make_filterbank("mel-triangular", 12, 512, 16000)
        one = apply_filterbank(spec, fb)
        import dataclasses

        double = apply_filterbank(dataclasses.replace(spec, power=2.0 * spec.power), fb)
        assert np.allclose(double, 2.0 * one)
        assert one.shape == (spec.n_frames, 12)

    def test_apply_rejects_bin_mismatch(self):
        clip = make_noise_clip(1.0, 16000, seed=7)
        spec = power_spectrum(frame_signal(clip, 512, 256))
        fb = make_filterbank("mel-triangular", 12, 1024, 16000)
        with pytest.raises(ValueError, match="bins"):
            apply_filterbank(spec, fb)


class TestCepstralDct:
    def test_matches_naive_cosine_sum(self):
        rng = np.random.default_rng(8)
        mat = rng.standard_normal((6, 17))
        got = cepstral_dct(mat, 17)
        for t in range(6):
            assert np.allclose(got[t], naive_dct2_ortho(mat[t]), atol=1e-10)

    @pytest.mark.parametrize("shape", [(1, 1), (7, 20), (300, 40), (5, 64)])
    def test_matches_scipy_dct(self, shape):
        # scipy's FFT-based DCT-II is the oracle for the cached matrix basis
        x = 30.0 * np.random.default_rng(shape[1]).standard_normal(shape)
        want = scipy.fft.dct(x, type=2, norm="ortho", axis=1)
        assert np.abs(cepstral_dct(x, shape[1]) - want).max() <= 1e-12 * np.abs(x).max()

    def test_orthonormal_round_trip(self):
        rng = np.random.default_rng(9)
        mat = rng.standard_normal((5, 40))
        coeffs = cepstral_dct(mat, 40)
        back = scipy.fft.idct(coeffs, type=2, norm="ortho", axis=1)
        assert np.abs(back - mat).max() < 1e-10

    def test_constant_row(self):
        row = np.full((1, 16), 3.5)
        coeffs = cepstral_dct(row, 16)
        assert coeffs[0, 0] == pytest.approx(3.5 * np.sqrt(16))
        assert np.abs(coeffs[0, 1:]).max() < 1e-12

    def test_truncation(self):
        rng = np.random.default_rng(10)
        mat = rng.standard_normal((3, 40))
        assert cepstral_dct(mat, 20).shape == (3, 20)
        assert np.array_equal(cepstral_dct(mat, 20), cepstral_dct(mat, 40)[:, :20])

    def test_too_many_coeffs_rejected(self):
        with pytest.raises(ValueError, match="exceeds channel count"):
            cepstral_dct(np.zeros((2, 10)), 11)


class TestDeltas:
    def test_output_dim_triples(self):
        static = FeatureMatrix(np.random.default_rng(0).standard_normal((9, 4)))
        out = append_deltas(static, 2)
        assert out.values.shape == (9, 12)
        assert np.array_equal(out.values[:, :4], static.values)

    def test_constant_input_zero_deltas(self):
        static = FeatureMatrix(np.full((8, 3), 2.5))
        out = append_deltas(static, 2)
        assert np.abs(out.values[:, 3:]).max() == 0.0

    def test_linear_ramp_interior_slope(self):
        slope = 0.7
        vals = slope * np.arange(20, dtype=np.float64)[:, None]
        out = append_deltas(FeatureMatrix(vals), 2)
        # away from the replicated edges the regression recovers the slope
        assert np.allclose(out.values[2:-2, 1], slope)
        # and the acceleration of a line is zero there
        assert np.abs(out.values[4:-4, 2]).max() < 1e-12

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        vals = rng.standard_normal((15, 2))
        window = 2
        padded = np.pad(vals, ((window, window), (0, 0)), mode="edge")
        want = np.zeros_like(vals)
        denom = 2.0 * sum(theta * theta for theta in range(1, window + 1))
        for t in range(15):
            acc = np.zeros(2)
            for theta in range(1, window + 1):
                acc += theta * (padded[t + window + theta] - padded[t + window - theta])
            want[t] = acc / denom
        out = append_deltas(FeatureMatrix(vals), window)
        assert np.allclose(out.values[:, 2:4], want, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 42, 1290])
    @pytest.mark.parametrize("window", [1, 2])
    def test_bit_equal_to_the_padded_fancy_index_form(self, n, window):
        vals = np.random.default_rng(n).standard_normal((n, 20))
        want = [vals]
        for _ in range(2):
            prev = want[-1]
            padded = np.pad(prev, ((window, window), (0, 0)), mode="edge")
            t = np.arange(n) + window
            num = np.zeros_like(prev)
            for theta in range(1, window + 1):
                num += theta * (padded[t + theta] - padded[t - theta])
            want.append(num / (2.0 * sum(k * k for k in range(1, window + 1))))
        out = append_deltas(FeatureMatrix(vals), window)
        assert np.array_equal(out.values, np.hstack(want))

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            append_deltas(FeatureMatrix(np.zeros((3, 2))), 0)
