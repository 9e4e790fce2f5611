"""Scene synthesizer: determinism, spectra, dataset output."""

import hashlib
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import signal as sps

import scenefuse
from scenefuse.cli import main
from scenefuse.dataio import load_manifest, read_wav, write_wav
from scenefuse.synth import (
    NoiseBurst,
    SceneProfile,
    TARGET_PEAK,
    ToneBurst,
    benchmark_profiles,
    channel,
    envelope_gain_db,
    profile_by_name,
    soft,
    synth_scene,
    synthesize_dataset,
)


def plain_profile(**kwargs):
    base = dict(name="test", seed=7)
    base.update(kwargs)
    return SceneProfile(**base)


class TestDeterminism:
    def test_bit_identical_repeats(self):
        profile = profile_by_name("chime")
        a = synth_scene(profile, 2.0, 16000, 5)
        b = synth_scene(profile, 2.0, 16000, 5)
        assert np.array_equal(a.samples, b.samples)
        assert a.source_id == "chime:5"

    def test_clip_seed_changes_signal(self):
        # hiss needs the wider band: its emphasis sits at 9 kHz
        profile = profile_by_name("hiss")
        a = synth_scene(profile, 2.0, 32000, 0)
        b = synth_scene(profile, 2.0, 32000, 1)
        assert not np.array_equal(a.samples, b.samples)

    def test_profile_seed_changes_signal(self):
        a = synth_scene(plain_profile(seed=1), 2.0, 16000, 0)
        b = synth_scene(plain_profile(seed=2), 2.0, 16000, 0)
        assert not np.array_equal(a.samples, b.samples)

    def test_length_and_rate(self):
        clip = synth_scene(plain_profile(), 1.25, 16000, 0)
        assert clip.sample_rate == 16000
        assert clip.samples.shape == (20000,)


class TestPeak:
    @pytest.mark.parametrize("name", [p.name for p in benchmark_profiles()])
    def test_every_profile_peaks_at_target(self, name):
        clip = synth_scene(profile_by_name(name), 1.5, 32000, 3)
        assert np.abs(clip.samples).max() == pytest.approx(TARGET_PEAK, abs=1e-12)


class TestValidation:
    def test_duration(self):
        with pytest.raises(ValueError, match="at least 1 s"):
            synth_scene(plain_profile(), 0.5, 16000, 0)

    def test_sample_rate(self):
        with pytest.raises(ValueError, match="at least 8000"):
            synth_scene(plain_profile(), 2.0, 7999, 0)

    def test_clip_seed(self):
        with pytest.raises(ValueError, match="clip seed"):
            synth_scene(plain_profile(), 2.0, 16000, -1)

    def test_profile_seed(self):
        with pytest.raises(ValueError, match="profile seed"):
            synth_scene(plain_profile(seed=-3), 2.0, 16000, 0)

    def test_unnamed_profile(self):
        with pytest.raises(ValueError, match="name"):
            synth_scene(plain_profile(name=""), 2.0, 16000, 0)

    def test_tone_above_nyquist(self):
        profile = plain_profile(tone_bursts=(ToneBurst(5000.0, 1.0, 0.2, 0.0),))
        with pytest.raises(ValueError, match=r"outside \(0, 4000"):
            synth_scene(profile, 2.0, 8000, 0)
        # the same profile is fine at a higher rate
        synth_scene(profile, 1.0, 16000, 0)

    def test_bad_tone_timing(self):
        profile = plain_profile(tone_bursts=(ToneBurst(440.0, 0.0, 0.2, 0.0),))
        with pytest.raises(ValueError, match="positive rate and duration"):
            synth_scene(profile, 2.0, 16000, 0)

    def test_bad_emphasis(self):
        with pytest.raises(ValueError, match="bad emphasis band"):
            synth_scene(plain_profile(emphases=((0.0, 100.0, 3.0),)), 2.0, 16000, 0)
        with pytest.raises(ValueError, match="bad emphasis band"):
            synth_scene(plain_profile(emphases=((500.0, -1.0, 3.0),)), 2.0, 16000, 0)

    def test_bad_noise_burst(self):
        profile = plain_profile(noise_bursts=(NoiseBurst(9000.0, 100.0, 1.0, 0.2, 0.0),))
        with pytest.raises(ValueError, match="noise-burst band"):
            synth_scene(profile, 2.0, 16000, 0)

    def test_negative_transient_rate(self):
        with pytest.raises(ValueError, match="transient rate"):
            synth_scene(plain_profile(transient_rate_hz=-0.5), 2.0, 16000, 0)


class TestEnvelopeGain:
    def test_reference_and_octaves(self):
        profile = plain_profile(tilt_db_per_octave=-6.0)
        assert envelope_gain_db(profile, [1000.0])[0] == 0.0
        assert envelope_gain_db(profile, [2000.0])[0] == pytest.approx(-6.0)
        assert envelope_gain_db(profile, [500.0])[0] == pytest.approx(6.0)

    def test_low_frequency_floor(self):
        profile = plain_profile(tilt_db_per_octave=-6.0)
        floor = envelope_gain_db(profile, [20.0])[0]
        assert envelope_gain_db(profile, [5.0])[0] == floor
        assert envelope_gain_db(profile, [0.0])[0] == floor

    def test_emphasis_peak_value(self):
        profile = plain_profile(emphases=((1000.0, 200.0, 12.0),))
        assert envelope_gain_db(profile, [1000.0])[0] == pytest.approx(12.0)
        # two widths out the bump has decayed below 2 dB
        assert envelope_gain_db(profile, [1400.0])[0] < 2.0


class TestSpectralShape:
    def test_tilt_matches_welch_slope(self):
        clip = synth_scene(plain_profile(tilt_db_per_octave=-6.0, seed=1), 8.0, 32000, 0)
        f, psd = sps.welch(clip.samples, fs=32000, nperseg=4096)
        band = (f >= 100.0) & (f <= 8000.0)
        slope = np.polyfit(np.log2(f[band]), 10.0 * np.log10(psd[band]), 1)[0]
        assert slope == pytest.approx(-6.0, abs=1.0)

    def test_emphasis_bump_measurable(self):
        clip = synth_scene(
            plain_profile(emphases=((1000.0, 200.0, 12.0),), seed=2), 8.0, 32000, 0
        )
        f, psd = sps.welch(clip.samples, fs=32000, nperseg=4096)
        db = 10.0 * np.log10(psd)
        peak = db[(f >= 950.0) & (f <= 1050.0)].mean()
        baseline = db[(f >= 2500.0) & (f <= 6000.0)].mean()
        assert peak - baseline == pytest.approx(12.0, abs=2.5)


class TestBenchmarkProfiles:
    def test_roster(self):
        names = [p.name for p in benchmark_profiles()]
        assert names == ["rumble", "hiss", "chime", "clatter", "drone"]
        assert len({p.seed for p in benchmark_profiles()}) == 5

    def test_envelopes_pairwise_separated(self):
        freqs = np.logspace(np.log10(50.0), np.log10(15000.0), 200)
        profiles = benchmark_profiles()
        gains = {p.name: envelope_gain_db(p, freqs) for p in profiles}
        for i, a in enumerate(profiles):
            for b in profiles[i + 1:]:
                gap = np.abs(gains[a.name] - gains[b.name]).mean()
                assert gap > 2.0, (a.name, b.name, gap)

    def test_rumble_dark_hiss_bright(self):
        rumble = envelope_gain_db(profile_by_name("rumble"), [100.0, 8000.0])
        hiss = envelope_gain_db(profile_by_name("hiss"), [100.0, 8000.0])
        assert rumble[0] > hiss[0]
        assert hiss[1] > rumble[1]

    def test_profile_by_name_error(self):
        with pytest.raises(ValueError, match="unknown profile 'street'"):
            profile_by_name("street")


class TestHardTransforms:
    def test_soft_scales_the_bed_and_shifts_the_events(self):
        base = profile_by_name("chime")
        got = soft(base, 0.5, -10.0)
        assert got.tilt_db_per_octave == 0.5 * base.tilt_db_per_octave
        assert got.emphases == tuple((c, w, 0.5 * g) for c, w, g in base.emphases)
        assert [b.level_db for b in got.tone_bursts] == [
            b.level_db - 10.0 for b in base.tone_bursts
        ]
        assert [b.freq_hz for b in got.tone_bursts] == [b.freq_hz for b in base.tone_bursts]
        assert got.transient_level_db == base.transient_level_db - 10.0
        assert got.transient_rate_hz == base.transient_rate_hz
        noisy = profile_by_name("clatter")
        assert soft(noisy, 1.0, 4.0).noise_bursts[0].level_db == (
            noisy.noise_bursts[0].level_db + 4.0
        )

    def test_soft_identity(self):
        for profile in benchmark_profiles():
            assert soft(profile, 1.0, 0.0) == profile

    def test_channel_draws_one_bump_and_tilt_per_clip(self):
        base = plain_profile(tilt_db_per_octave=-2.0, emphases=((500.0, 100.0, 4.0),))
        for seed in (0, 5):
            rng = np.random.default_rng([base.seed, seed, 99])
            tilt = rng.uniform(-8.0, 8.0)
            center = np.exp(rng.uniform(np.log(200.0), np.log(8000.0)))
            gain = rng.uniform(-12.0, 12.0)
            explicit = plain_profile(
                tilt_db_per_octave=-2.0 + tilt,
                emphases=((500.0, 100.0, 4.0), (center, 0.3 * center, gain)),
            )
            got = synth_scene(channel(base, 8.0, 12.0), 1.0, 32000, seed)
            want = synth_scene(explicit, 1.0, 32000, seed)
            assert np.array_equal(got.samples, want.samples)

    def test_channel_changes_every_clip_and_zero_ranges_change_none(self):
        base = profile_by_name("drone")
        for seed in (0, 1):
            plain = synth_scene(base, 1.0, 32000, seed).samples
            assert not np.array_equal(
                synth_scene(channel(base, 8.0, 12.0), 1.0, 32000, seed).samples, plain
            )
            assert np.array_equal(
                synth_scene(channel(base, 0.0, 0.0), 1.0, 32000, seed).samples, plain
            )

    def test_channel_ranges_must_be_nonnegative(self):
        for ranges in ((-1.0, 12.0), (8.0, -3.0)):
            with pytest.raises(ValueError, match="channel ranges"):
                synth_scene(channel(plain_profile(), *ranges), 1.0, 16000, 0)


class TestSynthesizeDataset:
    def test_layout_and_labels(self, tmp_path):
        profiles = benchmark_profiles()[:2]
        manifest_path = synthesize_dataset(profiles, 3, 1.5, 32000, tmp_path / "d", 10)
        assert manifest_path == tmp_path / "d" / "manifest.tsv"
        manifest = load_manifest(manifest_path)
        assert manifest.class_names == ["rumble", "hiss"]
        assert [e[0] for e in manifest.entries] == [
            "rumble_000.wav", "rumble_001.wav", "rumble_002.wav",
            "hiss_000.wav", "hiss_001.wav", "hiss_002.wav",
        ]
        assert [e[1] for e in manifest.entries] == ["rumble"] * 3 + ["hiss"] * 3
        for filename, _ in manifest.entries:
            clip = read_wav(tmp_path / "d" / filename)
            assert clip.sample_rate == 32000
            assert clip.samples.shape == (48000,)

    def test_byte_determinism(self, tmp_path):
        profiles = benchmark_profiles()[:2]
        first = synthesize_dataset(profiles, 2, 1.0, 32000, tmp_path / "a", 4)
        second = synthesize_dataset(profiles, 2, 1.0, 32000, tmp_path / "b", 4)
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name
        assert first.read_bytes() == second.read_bytes()

    def test_errors(self, tmp_path):
        with pytest.raises(ValueError, match="at least 1 clip"):
            synthesize_dataset(benchmark_profiles()[:1], 0, 1.0, 16000, tmp_path, 0)
        twins = [plain_profile(name="dup"), plain_profile(name="dup", seed=9)]
        with pytest.raises(ValueError, match="unique"):
            synthesize_dataset(twins, 1, 1.0, 16000, tmp_path, 0)

    @pytest.mark.parametrize("profiles, duration, rate, base_seed, match", [
        (benchmark_profiles(), 1.0, 16000, 7,
         r"profile 'hiss' at rate 16000: bad emphasis band \(9000.0, 2500.0\)"),
        (benchmark_profiles(), 0.5, 44100, 7, "at least 1 s"),
        (benchmark_profiles(), 1.0, 4000, 7, "at least 8000"),
        (benchmark_profiles(), 1.0, 44100, -1, "clip seed"),
        # clips 0-2 draw channel bumps below 4 kHz, clip 3 draws one at 4.3 kHz
        ([channel(plain_profile(), 1.0, 1.0)], 1.0, 8000, 0,
         "profile 'test' at rate 8000: bad emphasis band"),
    ], ids=["hiss-at-16k", "duration", "rate", "seed", "fourth-channel-draw"])
    def test_fails_before_writing(self, tmp_path, profiles, duration, rate, base_seed, match):
        with pytest.raises(ValueError, match=match):
            synthesize_dataset(profiles, 4, duration, rate, tmp_path / "d", base_seed)
        assert not (tmp_path / "d").exists()

    def test_cli_fails_before_writing(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["synth", "--profile", "benchmark", "--count", "3", "--duration", "1.0",
                     "--sample-rate", "16000", "--out", str(out)]) == 1
        assert "profile 'hiss' at rate 16000" in capsys.readouterr().err
        assert not out.exists()


#: SHA-256 of PINNED_PROFILES' dataset tree (2 clips x 1.5 s at 44.1 kHz,
#: base seed 7), file names and bytes in name order.  The C2 and C10
#: reference accuracies rest on these bytes: a change to the synthesizer
#: that moves them has to re-record those references too.
PINNED_TREE_SHA256 = "5ceeb9b5444252eddcbe91e417cdbe6aebbf21deb74f8d96649ad07460887a9c"

PINNED_PROFILES = benchmark_profiles() + [
    replace(soft(profile_by_name("hiss"), 0.05, -25.0), name="hiss-soft"),
    replace(channel(soft(profile_by_name("chime"), 1.0, -10.0), 8.0, 12.0),
            name="chime-channel"),
]


class TestPinnedBytes:
    @pytest.fixture(scope="class")
    def tree(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("pinned")
        synthesize_dataset(PINNED_PROFILES, 2, 1.5, 44100, out, 7)
        return out

    def test_tree_digest(self, tree):
        digest = hashlib.sha256()
        for path in sorted(tree.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        assert digest.hexdigest() == PINNED_TREE_SHA256

    @pytest.mark.parametrize("name", [p.name for p in PINNED_PROFILES])
    def test_synth_scene_writes_the_dataset_file(self, tree, tmp_path, name):
        profile = next(p for p in PINNED_PROFILES if p.name == name)
        write_wav(tmp_path / "one.wav", synth_scene(profile, 1.5, 44100, 8))
        assert (tmp_path / "one.wav").read_bytes() == (tree / f"{name}_001.wav").read_bytes()


def one_cpu(monkeypatch):
    """Let the process use one CPU, so ``synthesize_dataset`` runs its jobs inline."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


class TestWorkers:
    def test_worker_count_does_not_change_the_bytes(self, tmp_path, monkeypatch):
        # clatter-channel draws its bed per clip and carries noise bursts and transients
        profiles = PINNED_PROFILES + [
            replace(channel(profile_by_name("clatter"), 8.0, 12.0), name="clatter-channel"),
        ]
        synthesize_dataset(profiles, 2, 1.5, 44100, tmp_path / "as-is", 7)
        one_cpu(monkeypatch)
        synthesize_dataset(profiles, 2, 1.5, 44100, tmp_path / "inline", 7)
        names = sorted(path.name for path in (tmp_path / "inline").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "as-is").iterdir())
        for name in names:
            assert (tmp_path / "as-is" / name).read_bytes() == (
                tmp_path / "inline" / name
            ).read_bytes(), name
        # and both are the bytes of clip j at seed 7 + j
        for profile in profiles:
            for j in range(2):
                write_wav(tmp_path / "one.wav", synth_scene(profile, 1.5, 44100, 7 + j))
                assert (tmp_path / "one.wav").read_bytes() == (
                    tmp_path / "inline" / f"{profile.name}_{j:03d}.wav"
                ).read_bytes(), (profile.name, j)

    def test_no_worker_outlives_a_normal_return(self, tmp_path):
        synthesize_dataset(benchmark_profiles()[:2], 3, 1.0, 44100, tmp_path / "d", 7)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("inline", [True, False], ids=["inline", "as-is"])
    def test_a_failed_job_reaches_the_caller(self, tmp_path, monkeypatch, inline):
        if inline:
            one_cpu(monkeypatch)
        out = tmp_path / "d"
        squatter = out / "hiss_001.wav"
        squatter.mkdir(parents=True)
        with pytest.raises(IsADirectoryError, match="hiss_001.wav") as caught:
            synthesize_dataset(benchmark_profiles()[:2], 3, 1.0, 44100, out, 7)
        assert caught.value.filename == str(squatter)
        assert multiprocessing.active_children() == []
        assert not (out / "manifest.tsv").exists()

    def test_script_without_main_guard(self, tmp_path):
        # spawned workers would re-run this script on import and fail; forked workers
        # that flushed the parent's stdout buffer again would print "start" twice
        script = tmp_path / "make_data.py"
        script.write_text(
            "from scenefuse.synth import benchmark_profiles, synthesize_dataset\n"
            "print('start')\n"
            "synthesize_dataset(benchmark_profiles()[:3], 2, 1.0, 44100, "
            f"{str(tmp_path / 'd')!r}, 7)\n"
            "print('done')\n",
            encoding="utf-8",
        )
        src = str(Path(scenefuse.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, str(script)], env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "start\ndone\n"
        assert len(load_manifest(tmp_path / "d" / "manifest.tsv").entries) == 6
