"""The five cepstral families, and the parts a request for their
concatenation yields."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_toeplitz
from scipy.signal import lfilter

from conftest import make_noise_clip, make_tone_clip
from scenefuse.dataio import AudioClip
from scenefuse.features import (
    CEPSCOM_PARTS,
    EXTRACTOR_NAMES,
    FRAME_LEN,
    HOP,
    N_CHANNELS,
    N_STATIC,
    PNCC_POWER_EXPONENT,
    RCGCC_SEED_FRAMES,
    equal_loudness,
    expected_dim,
    extract_selected,
    levinson_durbin,
    lpc_to_cepstrum,
    medium_time_power,
    pncc_power_stages,
    rcgcc_gains,
    stored_families,
    subspace_project,
    subspace_rank,
)
from scenefuse.spectral import (
    LOG_FLOOR,
    apply_filterbank,
    frame_count,
    frame_signal,
    make_filterbank,
    power_spectrum,
)
from scenefuse.synth import profile_by_name, synth_scene


#: the families extraction yields; cepscom is derived from four of them
FAMILIES = ("mfcc", "plp", "pncc", "rcgcc", "spcc")


def extract(name, clip):
    """One family through the extraction entry point."""
    return extract_selected(clip, [name])[name]


def comb_clip(seconds=3.0, sample_rate=44100, seed=5):
    """Harmonics locked to even FFT bins, so every 1024-hop frame of a
    2048-point analysis sees identical content."""
    rng = np.random.default_rng(seed)
    n = int(seconds * sample_rate)
    t = np.arange(n)
    sig = np.zeros(n)
    for m in (12, 40, 80, 200, 400):
        sig += np.sin(2 * np.pi * m * t / 2048 + rng.uniform(0, 2 * np.pi))
    return AudioClip(0.5 * sig / np.abs(sig).max(), sample_rate, "comb")


class TestConfig:
    def test_defaults_valid(self):
        assert FRAME_LEN == 2048 and HOP == 1024
        assert N_CHANNELS == 40 and N_STATIC == 20

    @pytest.mark.parametrize("kwargs", [{"hop": 4096}, {"hop": 0}])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError, match="need 0 < hop <= frame_len"):
            extract_selected(make_noise_clip(1.0, 16000, seed=4), ["mfcc"], **kwargs)

    def test_expected_dims(self):
        assert expected_dim("mfcc") == 60
        assert expected_dim("plp") == 39
        assert expected_dim("pncc") == 60
        assert expected_dim("rcgcc") == 60
        assert expected_dim("spcc") == 60
        assert expected_dim("cepscom") == 240


#: the fixed recipe's output on the seeded "chime" clip below, recorded once
#: per family: the column means of the first three static dims, and the mean
#: magnitude of the first delta and the first delta-delta dim
RECORDED_FAMILY_VALUES = {
    "mfcc": ([29.21528632514582, -4.993355523440636, -0.1858547230306936],
             [0.23660514193532417, 0.09608897896099175]),
    "plp": ([-0.9644113975352239, -0.2810014763068575, -0.2613050249010923],
            [0.013886103762973587, 0.005690463711253573]),
    "pncc": ([6.951773923282367, 0.25238480272917313, -0.41007182857657576],
             [0.12050089262538205, 0.052727633528516595]),
    "rcgcc": ([15.38405201653244, -4.100359098027967, -0.7784113050657528],
              [0.4407245101145296, 0.18914903021148471]),
    "spcc": ([29.21528632514582, -4.993355523440638, -0.18585472303069214],
             [0.23090877303034643, 0.0956078805719203]),
}


@pytest.fixture(scope="module")
def chime_bundle():
    clip = synth_scene(profile_by_name("chime"), 3.0, 44100, seed=11)
    return len(clip), extract_selected(clip, FAMILIES)


@pytest.mark.parametrize("name", FAMILIES)
def test_default_recipe_reproduces_recorded_values(chime_bundle, name):
    # a mistyped constant (a smoothing of 0.09, a window of 3) moves these;
    # the helper oracles pass their own parameters and would not notice
    n_samples, bundle = chime_bundle
    static_means, delta_magnitudes = RECORDED_FAMILY_VALUES[name]
    values = bundle[name].values
    n_static = values.shape[1] // 3
    assert values.shape == (frame_count(n_samples, FRAME_LEN, HOP), expected_dim(name))
    np.testing.assert_allclose(values[:, :3].mean(axis=0), static_means, rtol=1e-9)
    np.testing.assert_allclose(
        np.abs(values[:, [n_static, 2 * n_static]]).mean(axis=0), delta_magnitudes, rtol=1e-9
    )


@pytest.fixture(scope="module")
def bundle():
    return extract_selected(make_noise_clip(2.0, 44100, seed=1), EXTRACTOR_NAMES)


class TestDimensions:
    def test_all_dims(self, bundle):
        assert list(bundle) == list(FAMILIES)
        for name in FAMILIES:
            mat = bundle[name]
            assert mat.dim == expected_dim(name)
            assert np.all(np.isfinite(mat.values))
        assert expected_dim("cepscom") == sum(bundle[n].dim for n in CEPSCOM_PARTS)

    def test_frame_counts_agree(self, bundle):
        n = frame_count(2 * 44100, 2048, 1024)
        for name in FAMILIES:
            assert bundle[name].n_frames == n

    def test_deterministic(self):
        clip = make_noise_clip(1.0, 16000, seed=2)
        a = extract_selected(clip, EXTRACTOR_NAMES)
        b = extract_selected(clip, EXTRACTOR_NAMES)
        for name in FAMILIES:
            assert np.array_equal(a[name].values, b[name].values)


class TestSelection:
    def test_subset_returns_requested_only(self):
        clip = make_noise_clip(1.0, 16000, seed=3)
        out = extract_selected(clip, ["pncc", "mfcc"])
        assert list(out) == ["mfcc", "pncc"]

    def test_cepscom_pulls_in_parts(self):
        clip = make_noise_clip(1.0, 16000, seed=3)
        out = extract_selected(clip, ["cepscom"])
        assert list(out) == list(CEPSCOM_PARTS) == ["mfcc", "pncc", "rcgcc", "spcc"]
        assert all(out[name].dim == 60 for name in CEPSCOM_PARTS)

    def test_unknown_name_rejected(self):
        clip = make_noise_clip(1.0, 16000, seed=3)
        with pytest.raises(ValueError):
            extract_selected(clip, ["mfcc", "lpcc"])

    def test_stored_families_expand_cepscom_in_canonical_order(self):
        assert stored_families(["spcc", "cepscom", "plp"]) == ["mfcc", "plp", "pncc", "rcgcc", "spcc"]
        assert stored_families(["plp", "plp"]) == ["plp"]
        assert stored_families([]) == []
        with pytest.raises(ValueError, match="lpcc"):
            stored_families(["lpcc"])


class TestMfcc:
    def test_silence(self):
        clip = AudioClip(np.zeros(44100), 44100, "silence")
        mat = extract("mfcc", clip).values
        want_c0 = np.log(LOG_FLOOR) * np.sqrt(40)
        assert np.allclose(mat[:, 0], want_c0, atol=1e-9)
        assert np.abs(mat[:, 1:20]).max() < 1e-9
        # nothing changes over time, so deltas vanish
        assert np.abs(mat[:, 20:]).max() < 1e-9

    def test_amplitude_scaling_shifts_only_c0(self):
        clip = make_noise_clip(1.5, 44100, seed=6, amplitude=0.4)
        scaled = AudioClip(0.5 * clip.samples, clip.sample_rate, "scaled")
        a = extract("mfcc", clip).values
        b = extract("mfcc", scaled).values
        shift = np.sqrt(40) * np.log(0.25)
        assert np.allclose(b[:, 0] - a[:, 0], shift, atol=1e-9)
        assert np.abs(b[:, 1:20] - a[:, 1:20]).max() < 1e-9

    def test_tone_lands_in_matching_mel_channel(self):
        sr = 44100
        bank = make_filterbank("mel-triangular", 40, 2048, sr)
        for f0 in (1000.0, 5000.0):
            clip = make_tone_clip(f0, 1.0, sr)
            sub = apply_filterbank(power_spectrum(frame_signal(clip, 2048, 1024)), bank)
            got = int(np.argmax(sub.mean(axis=0)))
            want = int(np.argmin(np.abs(bank.center_freqs - f0)))
            assert abs(got - want) <= 1

    def test_distinct_tones_distinct_cepstra(self):
        a = extract("mfcc", make_tone_clip(500.0, 1.0, 44100)).values
        b = extract("mfcc", make_tone_clip(4000.0, 1.0, 44100)).values
        assert np.abs(a[:, 1:20].mean(0) - b[:, 1:20].mean(0)).max() > 1.0


class TestEqualLoudness:
    def test_anchor_values(self):
        assert equal_loudness(np.array([0.0]))[0] == 0.0
        assert equal_loudness(np.array([1000.0]))[0] == pytest.approx(
            0.002846801214963536, rel=1e-9
        )

    def test_monotone_rise_in_band(self):
        f = np.linspace(0, 22050, 400)
        e = equal_loudness(f)
        assert np.all(np.diff(e) > 0)
        assert e[-1] < 1.0


class TestLevinsonDurbin:
    def random_autocorr(self, rng, n_lags):
        # any positive spectrum transforms back to a valid autocorrelation
        psd = rng.uniform(0.1, 2.0, size=65)
        return np.fft.irfft(psd)[:n_lags]

    def test_matches_toeplitz_solver(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            order = int(rng.integers(1, 13))
            r = self.random_autocorr(rng, order + 1)
            lpc, err = levinson_durbin(r, order)
            want = solve_toeplitz(r[:order], -r[1 : order + 1]) if order > 1 else np.array(
                [-r[1] / r[0]]
            )
            scale = max(np.abs(want).max(), 1.0)
            assert np.abs(lpc - want).max() / scale < 1e-8
            direct_err = r[0] + lpc @ r[1 : order + 1]
            assert abs(err - direct_err) / max(abs(direct_err), 1e-12) < 1e-8
            assert 0.0 <= err <= r[0] + 1e-12

    def test_recovers_ar2(self):
        phi1, phi2 = 0.9, -0.2
        rng = np.random.default_rng(13)
        e = rng.standard_normal(20000)
        x = np.zeros(20000)
        for i in range(2, 20000):
            x[i] = phi1 * x[i - 1] + phi2 * x[i - 2] + e[i]
        r = np.array([x[: 20000 - k] @ x[k:] / 20000 for k in range(3)])
        lpc, _ = levinson_durbin(r, 2)
        assert np.abs(lpc - np.array([-phi1, -phi2])).max() < 5e-2

    def test_batch_equals_per_row(self):
        rng = np.random.default_rng(14)
        rows = np.stack([self.random_autocorr(rng, 13) for _ in range(6)])
        batch_lpc, batch_err = levinson_durbin(rows, 12)
        for t in range(6):
            lpc, err = levinson_durbin(rows[t], 12)
            assert np.array_equal(batch_lpc[t], lpc)
            assert batch_err[t] == err

    def test_dead_row_is_zero(self):
        rng = np.random.default_rng(15)
        rows = np.stack([self.random_autocorr(rng, 13), np.zeros(13)])
        lpc, err = levinson_durbin(rows, 12)
        assert np.abs(lpc[1]).max() == 0.0
        assert err[1] == 0.0
        assert np.abs(lpc[0]).max() > 0.0

    def test_too_few_lags_rejected(self):
        with pytest.raises(ValueError, match="lags"):
            levinson_durbin(np.ones(5), 5)


class TestLpcToCepstrum:
    def test_single_pole_series(self):
        rho = 0.8
        ceps = lpc_to_cepstrum(np.array([-rho]), 8)
        want = np.array([rho**n / n for n in range(1, 9)])
        assert np.allclose(ceps, want, atol=1e-12)

    def test_pole_power_sums(self):
        poles = np.array([0.9, -0.5, 0.6 * np.exp(1j * np.pi / 3), 0.6 * np.exp(-1j * np.pi / 3)])
        lpc = np.poly(poles).real[1:]
        ceps = lpc_to_cepstrum(lpc, 10)
        want = np.array([(poles**n).sum().real / n for n in range(1, 11)])
        assert np.allclose(ceps, want, atol=1e-9)

    def test_batched(self):
        rng = np.random.default_rng(16)
        lpc = rng.uniform(-0.4, 0.4, size=(4, 6))
        batch = lpc_to_cepstrum(lpc, 6)
        for t in range(4):
            assert np.allclose(batch[t], lpc_to_cepstrum(lpc[t], 6))


class TestPlp:
    def test_dim(self):
        mat = extract("plp", make_noise_clip(1.0, 44100, seed=17))
        assert mat.dim == 39

    def test_silence(self):
        clip = AudioClip(np.zeros(44100), 44100, "silence")
        mat = extract("plp", clip).values
        assert np.abs(mat[:, :12]).max() < 1e-12
        assert np.allclose(mat[:, 12], np.log(LOG_FLOOR))
        assert np.abs(mat[:, 13:]).max() < 1e-9

    def test_energy_column_is_frame_energy(self):
        clip = make_noise_clip(1.0, 44100, seed=18)
        frames = frame_signal(clip, 2048, 1024)
        want = np.log(np.maximum((frames.frames**2).sum(axis=1), LOG_FLOOR))
        mat = extract("plp", clip).values
        assert np.allclose(mat[:, 12], want, atol=1e-12)


class TestPncc:
    def test_dim(self):
        assert extract("pncc", make_noise_clip(1.0, 44100, seed=20)).dim == 60

    def test_medium_time_power_oracle(self):
        rng = np.random.default_rng(21)
        sub = rng.uniform(0.1, 5.0, size=(9, 3))
        got = medium_time_power(sub, 2)
        for t in range(9):
            lo, hi = max(t - 2, 0), min(t + 2, 8)
            assert np.allclose(got[t], sub[lo : hi + 1].mean(axis=0))

    def test_medium_window_zero_is_identity(self):
        sub = np.random.default_rng(22).uniform(0.1, 1.0, size=(5, 2))
        assert np.array_equal(medium_time_power(sub, 0), sub)

    def test_stationary_input_fully_subtracted(self):
        sub = np.full((30, 4), 3.0)
        stages = pncc_power_stages(sub)
        assert np.array_equal(stages.medium, sub)
        assert stages.subtracted.max() == 0.0
        assert stages.normalized.max() == 0.0

    def test_bursts_survive_floor_removed(self):
        sub = np.full((60, 4), 1.0)
        sub[30:33, 2] = 25.0
        stages = pncc_power_stages(sub)
        assert stages.subtracted[30:33, 2].min() > 0.0
        assert stages.subtracted[:20].max() == 0.0
        assert stages.subtracted[45:].max() == 0.0

    def test_rate_restoration_formula(self):
        rng = np.random.default_rng(23)
        sub = rng.uniform(0.5, 4.0, size=(40, 6))
        stages = pncc_power_stages(sub)
        want = stages.subtracted * (sub / stages.medium)
        assert np.allclose(stages.normalized, want, atol=1e-12)

    def test_stationary_comb_is_suppressed(self):
        clip = comb_clip()
        frames = frame_signal(clip, 2048, 1024)
        bank = make_filterbank("gammatone-magnitude", 40, 2048, clip.sample_rate)
        sub = apply_filterbank(power_spectrum(frames), bank)
        stages = pncc_power_stages(sub)
        # a clip with no temporal structure loses essentially all its power
        assert stages.subtracted.mean() <= 0.15 * stages.medium.mean()
        assert np.abs(extract("pncc", clip).values).max() < 1e-8

    def test_power_law_fixed_points(self):
        assert 0.0**PNCC_POWER_EXPONENT == 0.0
        assert 1.0**PNCC_POWER_EXPONENT == 1.0


def lfilter_gains(subband, smoothing):
    """The rcgcc gains as scipy.signal.lfilter computes them: the oracle."""
    q = np.asarray(subband, dtype=np.float64)
    lam = smoothing
    seed = q[: min(RCGCC_SEED_FRAMES, q.shape[0])].mean(axis=0)
    noise, _ = lfilter([1.0 - lam], [1.0, -lam], q, axis=0, zi=(lam * seed)[None, :])
    raw = np.clip(
        np.divide(q - noise, q, out=np.zeros_like(q), where=q > 0.0), 0.1, 1.0
    )
    gains, _ = lfilter([1.0 - lam], [1.0, -lam], raw, axis=0, zi=(lam * raw[0])[None, :])
    return gains


class TestRcgcc:
    @pytest.mark.parametrize("n_frames", [1, 2, 5, 128])
    @pytest.mark.parametrize("smoothing", [0.9, 0.37])
    def test_bit_equal_to_lfilter(self, n_frames, smoothing):
        rng = np.random.default_rng(n_frames)
        for scale in (1e-9, 1.0, 1e6):
            sub = rng.uniform(0.0, 10.0, size=(n_frames, 40)) * scale
            sub[:, [0, 7, 39]] = 0.0  # all-zero channels
            sub[rng.random(sub.shape) < 0.1] = 0.0
            assert np.array_equal(rcgcc_gains(sub, smoothing), lfilter_gains(sub, smoothing))

    def test_dim(self):
        assert extract("rcgcc", make_noise_clip(1.0, 44100, seed=24)).dim == 60

    def test_constant_input_settles_at_floor(self):
        sub = np.full((200, 5), 7.0)
        gains = rcgcc_gains(sub, 0.9)
        assert np.allclose(gains, 0.1, atol=1e-12)

    def test_step_response(self):
        sub = np.ones((300, 3))
        sub[50:] = 100.0
        gains = rcgcc_gains(sub, 0.9)
        # before the step the channel is stationary
        assert np.allclose(gains[:50], 0.1)
        # the onset opens the gain, then the noise tracker catches up
        assert gains[50:80].max() > 0.25
        assert gains[-1].max() < 0.12

    def test_bounds(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            sub = rng.uniform(0.0, 10.0, size=(50, 4))
            gains = rcgcc_gains(sub, 0.9)
            assert gains.min() >= 0.1 - 1e-12
            assert gains.max() <= 1.0 + 1e-12

    def test_gains_scale_invariant(self):
        rng = np.random.default_rng(26)
        sub = rng.uniform(0.1, 5.0, size=(80, 4))
        a = rcgcc_gains(sub, 0.9)
        b = rcgcc_gains(1000.0 * sub, 0.9)
        assert np.allclose(a, b, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(6, 40), st.integers(1, 6))
    def test_bounds_property(self, seed, n_frames, n_channels):
        rng = np.random.default_rng(seed)
        sub = rng.uniform(0.0, 100.0, size=(n_frames, n_channels))
        gains = rcgcc_gains(sub, 0.9)
        assert gains.min() >= 0.1 - 1e-9
        assert gains.max() <= 1.0 + 1e-9


class TestSpcc:
    def test_subspace_rank_examples(self):
        assert subspace_rank(np.array([9.0, 1.0]), 0.9) == 1
        assert subspace_rank(np.array([1.0, 1.0, 1.0, 1.0]), 0.9) == 4
        assert subspace_rank(np.array([5.0, 3.0, 1.0, 1.0]), 0.9) == 3
        assert subspace_rank(np.array([4.0, 0.0]), 1.0) == 1

    def test_subspace_rank_minimality(self):
        rng = np.random.default_rng(27)
        for _ in range(30):
            lam = np.sort(rng.uniform(0.0, 5.0, size=rng.integers(2, 12)))[::-1]
            if lam.sum() == 0:
                continue
            r = subspace_rank(lam, 0.9)
            ratios = np.cumsum(lam) / lam.sum()
            assert ratios[r - 1] >= 0.9
            assert r == 1 or ratios[r - 2] < 0.9

    def test_subspace_rank_rejects_bad_input(self):
        with pytest.raises(ValueError):
            subspace_rank(np.array([1.0, 2.0]), 0.9)
        with pytest.raises(ValueError):
            subspace_rank(np.array([2.0, -1.0]), 0.9)
        with pytest.raises(ValueError):
            subspace_rank(np.array([0.0, 0.0]), 0.9)
        with pytest.raises(ValueError):
            subspace_rank(np.array([]), 0.9)

    def test_project_retains_energy(self):
        rng = np.random.default_rng(28)
        mat = rng.standard_normal((100, 40))
        recon, rank = subspace_project(mat, 0.9)
        centered = mat - mat.mean(axis=0)
        resid = recon - mat
        ratio = (resid**2).sum() / (centered**2).sum()
        assert ratio <= 0.10 + 1e-12
        assert 1 <= rank <= 40

    def test_rank_one_data(self):
        rng = np.random.default_rng(29)
        direction = rng.standard_normal(12)
        coords = rng.standard_normal(50)
        mat = 3.0 + np.outer(coords, direction)
        recon, rank = subspace_project(mat, 0.9)
        assert rank == 1
        assert np.abs(recon - mat).max() < 1e-9

    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match="at least 2 rows"):
            subspace_project(np.ones((1, 5)), 0.9)

    @pytest.mark.parametrize("n_samples", [2048, 2048 + 1023])
    def test_one_frame_clip_is_named(self, n_samples):
        # frame_len to frame_len + hop - 1 samples make exactly one frame
        rng = np.random.default_rng(30)
        clip = AudioClip(rng.standard_normal(n_samples), 44100, "park/short.wav")
        for name in ("spcc", "cepscom"):
            with pytest.raises(
                ValueError,
                match=rf"clip 'park/short.wav' has {n_samples} samples.*"
                r"at least 2 frames \(3072 samples\)",
            ):
                extract(name, clip)
        # the families that do not estimate a covariance over frames still work
        for name in ("mfcc", "plp", "pncc", "rcgcc"):
            assert extract(name, clip).n_frames == 1

    def test_dim(self):
        assert extract("spcc", make_noise_clip(1.0, 44100, seed=31)).dim == 60


class TestCepscom:
    def test_concatenation_order(self):
        # the parts come out in the order the pipeline joins them
        clip = make_noise_clip(1.5, 44100, seed=32)
        parts = extract_selected(clip, ["cepscom"])
        assert list(parts) == list(CEPSCOM_PARTS)
        for name in CEPSCOM_PARTS:
            assert np.array_equal(parts[name].values, extract(name, clip).values)

    def test_bundle_consistency(self):
        clip = make_noise_clip(1.0, 44100, seed=33)
        bundle = extract_selected(clip, EXTRACTOR_NAMES)
        assert "cepscom" not in bundle
        parts = extract_selected(clip, ["cepscom"])
        for name in CEPSCOM_PARTS:
            assert np.array_equal(bundle[name].values, parts[name].values)
