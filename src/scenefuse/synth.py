"""Synthetic acoustic scenes for dataset-free end-to-end checks.

Every scene mixes three layers: a colored-noise bed (stationary), periodic
tone or band-noise bursts (quasi-stationary), and sparse random transients
(non-stationary).  Generation is bit-reproducible for a given profile and
seed pair.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dataio import AudioClip, DatasetManifest, save_manifest, write_wav

#: final clips are scaled so their absolute peak sits here
TARGET_PEAK = 0.5

#: tilt and emphasis gains reference this frequency
TILT_REFERENCE_HZ = 1000.0

#: bed gain below this frequency is held at the floor's value
TILT_FLOOR_HZ = 20.0

#: a channel bump's centre is log-uniform over this band (Hz)
CHANNEL_BUMP_BAND_HZ = (200.0, 8000.0)

#: a channel bump's width as a fraction of its centre
CHANNEL_BUMP_WIDTH = 0.3


@dataclass(frozen=True)
class ToneBurst:
    """Periodic sine bursts; level is dB relative to the unit-RMS bed."""

    freq_hz: float
    rate_hz: float
    duration_s: float
    level_db: float


@dataclass(frozen=True)
class NoiseBurst:
    """Periodic gaussian-band noise bursts."""

    center_hz: float
    width_hz: float
    rate_hz: float
    duration_s: float
    level_db: float


@dataclass(frozen=True)
class SceneProfile:
    """Statistical recipe for one scene class.

    ``emphases`` are (center_hz, width_hz, gain_db) gaussian bumps added to
    the bed's spectral tilt.  ``channel_tilt_db`` and ``channel_gain_db``
    give each clip its own recording channel (see :func:`channel`).  All
    stochastic choices inside a clip derive from (profile seed, clip seed),
    never from global state.
    """

    name: str
    seed: int
    tilt_db_per_octave: float = 0.0
    emphases: tuple = ()
    tone_bursts: tuple = ()
    noise_bursts: tuple = ()
    transient_rate_hz: float = 0.0
    transient_level_db: float = 0.0
    channel_tilt_db: float = 0.0
    channel_gain_db: float = 0.0


def soft(profile: SceneProfile, alpha: float, delta_db: float) -> SceneProfile:
    """The profile with its bed shape scaled by ``alpha`` and its events
    moved by ``delta_db``: the tilt and every emphasis gain are multiplied by
    ``alpha``, and ``delta_db`` is added to every tone-burst, noise-burst and
    transient level.  Small ``alpha`` and negative ``delta_db`` make classes
    that differ only faintly."""
    return replace(
        profile,
        tilt_db_per_octave=alpha * profile.tilt_db_per_octave,
        emphases=tuple((c, w, alpha * g) for c, w, g in profile.emphases),
        tone_bursts=tuple(
            replace(b, level_db=b.level_db + delta_db) for b in profile.tone_bursts
        ),
        noise_bursts=tuple(
            replace(b, level_db=b.level_db + delta_db) for b in profile.noise_bursts
        ),
        transient_level_db=profile.transient_level_db + delta_db,
    )


def channel(profile: SceneProfile, tilt_db: float, gain_db: float) -> SceneProfile:
    """The profile heard through a different channel in every clip.

    Clip seed ``s`` draws, in this order, from
    ``default_rng([profile.seed, s, 99])``: an extra tilt ~ U(-tilt_db,
    tilt_db) dB/octave, a centre log-uniform over ``CHANNEL_BUMP_BAND_HZ``
    and a gain ~ U(-gain_db, gain_db) dB; the bump (centre,
    ``CHANNEL_BUMP_WIDTH`` * centre, gain) joins the emphases.  So the same
    scene class sounds different from clip to clip, as the same sound heard
    in different places does.
    """
    return replace(profile, channel_tilt_db=tilt_db, channel_gain_db=gain_db)


def _clip_channel(profile: SceneProfile, seed: int) -> SceneProfile:
    """The profile with clip ``seed``'s channel drawn into its tilt and
    emphases (see :func:`channel`)."""
    rng = np.random.default_rng([profile.seed, seed, 99])
    tilt = rng.uniform(-profile.channel_tilt_db, profile.channel_tilt_db)
    center = float(np.exp(rng.uniform(*np.log(CHANNEL_BUMP_BAND_HZ))))
    gain = rng.uniform(-profile.channel_gain_db, profile.channel_gain_db)
    return replace(
        profile,
        tilt_db_per_octave=profile.tilt_db_per_octave + tilt,
        emphases=profile.emphases + ((center, CHANNEL_BUMP_WIDTH * center, gain),),
        channel_tilt_db=0.0,
        channel_gain_db=0.0,
    )


def _validate_profile(profile: SceneProfile, sample_rate: int) -> None:
    if not profile.name:
        raise ValueError("profile needs a name")
    where = f"profile {profile.name!r} at rate {sample_rate}:"
    if profile.seed < 0:
        raise ValueError(f"{where} profile seed must be nonnegative")
    nyquist = sample_rate / 2.0
    for center, width, _ in profile.emphases:
        if not 0.0 < center < nyquist or width <= 0.0:
            raise ValueError(f"{where} bad emphasis band ({center}, {width})")
    for burst in profile.tone_bursts:
        if not 0.0 < burst.freq_hz < nyquist:
            raise ValueError(f"{where} tone frequency {burst.freq_hz} outside (0, {nyquist})")
    for burst in profile.noise_bursts:
        if not 0.0 < burst.center_hz < nyquist or burst.width_hz <= 0.0:
            raise ValueError(f"{where} bad noise-burst band ({burst.center_hz}, {burst.width_hz})")
    for burst in profile.tone_bursts + profile.noise_bursts:
        if burst.rate_hz <= 0.0 or burst.duration_s <= 0.0:
            raise ValueError(f"{where} {type(burst).__name__} needs positive rate and duration")
    if profile.transient_rate_hz < 0.0:
        raise ValueError(f"{where} transient rate must be nonnegative")
    if profile.channel_tilt_db < 0.0 or profile.channel_gain_db < 0.0:
        raise ValueError(f"{where} channel ranges must be nonnegative")


def envelope_gain_db(profile: SceneProfile, freqs_hz) -> np.ndarray:
    """Designed bed gain (dB) at the given frequencies."""
    f = np.maximum(np.asarray(freqs_hz, dtype=np.float64), TILT_FLOOR_HZ)
    gain = profile.tilt_db_per_octave * np.log2(f / TILT_REFERENCE_HZ)
    for center, width, bump_db in profile.emphases:
        gain = gain + bump_db * np.exp(-0.5 * ((f - center) / width) ** 2)
    return gain


def _clip_profile(profile: SceneProfile, duration_s: float, sample_rate: int, seed: int):
    """The profile clip ``seed`` is rendered from, once every check has passed."""
    if duration_s < 1.0:
        raise ValueError(f"duration must be at least 1 s, got {duration_s}")
    if sample_rate < 8000:
        raise ValueError(f"sample_rate must be at least 8000, got {sample_rate}")
    if seed < 0:
        raise ValueError("clip seed must be nonnegative")
    _validate_profile(profile, sample_rate)
    if profile.channel_tilt_db or profile.channel_gain_db:
        profile = _clip_channel(profile, seed)
        _validate_profile(profile, sample_rate)
    return profile


def _bed_gain(profile: SceneProfile, n: int, sample_rate: int) -> np.ndarray:
    return 10.0 ** (envelope_gain_db(profile, np.fft.rfftfreq(n, 1.0 / sample_rate)) / 20.0)


def _tables(profile: SceneProfile, n: int, sample_rate: int) -> tuple:
    """What every clip of ``profile`` with ``n`` samples shares: the bed's linear
    gain (None when each clip draws its own channel) and, tones first, each burst
    with its Hann window times its amplitude and, for noise, its band gain."""
    bursts = []
    for burst in profile.tone_bursts + profile.noise_bursts:
        length = int(round(burst.duration_s * sample_rate))
        band = None
        if isinstance(burst, NoiseBurst):
            freqs = np.fft.rfftfreq(length, d=1.0 / sample_rate)
            band = np.exp(-0.5 * ((freqs - burst.center_hz) / burst.width_hz) ** 2)
        bursts.append((burst, 10.0 ** (burst.level_db / 20.0) * np.hanning(length), band))
    per_clip = profile.channel_tilt_db or profile.channel_gain_db
    return (None if per_clip else _bed_gain(profile, n, sample_rate)), bursts


def _shaped_noise(rng: np.random.Generator, gain: np.ndarray, n: int) -> np.ndarray:
    noise = rng.standard_normal(n)
    spectrum = np.fft.rfft(noise)
    spectrum *= gain
    shaped = np.fft.irfft(spectrum, n)
    shaped /= np.sqrt(np.mean(np.square(shaped, out=noise))) or 1.0
    return shaped


def _render(profile, bed, bursts, duration_s, sample_rate, seed) -> AudioClip:
    """Clip ``seed`` of a checked clip profile, from its base profile's tables."""
    rng = np.random.default_rng([profile.seed, seed])
    n = int(round(duration_s * sample_rate))
    signal = _shaped_noise(rng, _bed_gain(profile, n, sample_rate) if bed is None else bed, n)
    for burst, window, band in bursts:
        period = 1.0 / burst.rate_hz
        start = rng.uniform(0.0, period)
        while start + burst.duration_s <= duration_s:
            i0 = int(round(start * sample_rate))
            i1 = min(i0 + len(window), n)
            if band is None:
                t = np.arange(i0, i1) / sample_rate
                event = np.sin(2.0 * np.pi * burst.freq_hz * t + rng.uniform(0.0, 2.0 * np.pi))
            else:
                event = _shaped_noise(rng, band, len(window))[: i1 - i0]
            event *= window[: i1 - i0]
            signal[i0:i1] += event
            start += period

    if profile.transient_rate_hz > 0.0:
        count = rng.poisson(profile.transient_rate_hz * duration_s)
        length = max(int(round(0.005 * sample_rate)), 8)
        decay = np.exp(-np.arange(length) / (0.001 * sample_rate))
        amp = 10.0 ** (profile.transient_level_db / 20.0)
        for _ in range(count):
            i0 = int(rng.uniform(0.0, n - length))
            click = rng.standard_normal(length) * decay
            peak = np.abs(click).max()
            if peak > 0.0:
                signal[i0 : i0 + length] += amp * click / peak

    peak = max(signal.max(), -signal.min())
    if peak > 0.0:
        signal *= TARGET_PEAK / peak
    return AudioClip(
        samples=signal,
        sample_rate=sample_rate,
        source_id=f"{profile.name}:{seed}",
    )


def synth_scene(
    profile: SceneProfile, duration_s: float, sample_rate: int, seed: int
) -> AudioClip:
    """Render one clip of the profile; identical inputs give identical bytes."""
    clip_profile = _clip_profile(profile, duration_s, sample_rate, seed)
    tables = _tables(profile, int(round(duration_s * sample_rate)), sample_rate)
    return _render(clip_profile, *tables, duration_s, sample_rate, seed)


def benchmark_profiles() -> list:
    """Five well-separated scene classes used by the end-to-end benchmark."""
    return [
        SceneProfile(
            name="rumble",
            seed=101,
            tilt_db_per_octave=-7.0,
            emphases=((55.0, 30.0, 9.0),),
            tone_bursts=(ToneBurst(110.0, 0.8, 0.5, -4.0),),
            transient_rate_hz=0.3,
            transient_level_db=-6.0,
        ),
        SceneProfile(
            name="hiss",
            seed=202,
            tilt_db_per_octave=4.0,
            emphases=((9000.0, 2500.0, 7.0),),
            noise_bursts=(NoiseBurst(5500.0, 900.0, 1.0, 0.4, 3.0),),
        ),
        SceneProfile(
            name="chime",
            seed=303,
            tilt_db_per_octave=0.0,
            emphases=((1200.0, 400.0, 3.0),),
            tone_bursts=(
                ToneBurst(880.0, 2.2, 0.25, 6.0),
                ToneBurst(1760.0, 1.1, 0.2, 3.0),
            ),
            transient_rate_hz=0.5,
            transient_level_db=0.0,
        ),
        SceneProfile(
            name="clatter",
            seed=404,
            tilt_db_per_octave=-1.0,
            emphases=((2400.0, 800.0, 6.0),),
            noise_bursts=(NoiseBurst(3000.0, 1200.0, 2.5, 0.12, 5.0),),
            transient_rate_hz=9.0,
            transient_level_db=6.0,
        ),
        SceneProfile(
            name="drone",
            seed=505,
            tilt_db_per_octave=-3.0,
            emphases=((320.0, 60.0, 10.0), (470.0, 60.0, 8.0)),
            tone_bursts=(ToneBurst(240.0, 1.4, 0.8, 2.0),),
        ),
    ]


def profile_by_name(name: str) -> SceneProfile:
    for profile in benchmark_profiles():
        if profile.name == name:
            return profile
    known = [p.name for p in benchmark_profiles()]
    raise ValueError(f"unknown profile {name!r}; built-in profiles: {known}")


def _write_clips(job: tuple) -> None:
    """Run one job, (profile, clips, duration_s, sample_rate, out_dir): build the
    profile's tables once, then render each (file name, checked clip profile, seed)
    of ``clips`` and write it under ``out_dir``."""
    profile, clips, duration_s, sample_rate, out_dir = job
    tables = _tables(profile, int(round(duration_s * sample_rate)), sample_rate)
    for filename, clip_profile, seed in clips:
        clip = _render(clip_profile, *tables, duration_s, sample_rate, seed)
        write_wav(out_dir / filename, clip)


def synthesize_dataset(
    profiles: list,
    clips_per_class: int,
    duration_s: float,
    sample_rate: int,
    out_dir: str | Path,
    base_seed: int,
) -> Path:
    """Write WAV clips and a manifest.tsv; returns the manifest path.  Every check runs
    before the directory is made.  Each profile's clips are dealt into one job per CPU
    the process may use, and the jobs run in forked worker processes (inline with one
    CPU, or where fork is not a start method); every worker has ended when this
    returns or raises.  Each clip draws only from its own (profile seed, clip seed)
    generator, so each file has the bytes that ``synth_scene`` and ``write_wav`` give
    it, whatever the worker count."""
    if clips_per_class < 1:
        raise ValueError("need at least 1 clip per class")
    names = [p.name for p in profiles]
    if len(set(names)) != len(names):
        raise ValueError("profile names must be unique")
    seeds = range(base_seed, base_seed + clips_per_class)
    plans = [[(f"{p.name}_{j:03d}.wav", _clip_profile(p, duration_s, sample_rate, s), s)
              for j, s in enumerate(seeds)] for p in profiles]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    jobs = [(profile, plan[k::cpus], duration_s, sample_rate, out_dir)
            for profile, plan in zip(profiles, plans) for k in range(min(cpus, len(plan)))]
    workers = min(cpus, len(jobs))
    # imported here, so that a process that never synthesizes (a pipeline run, a
    # stepwise command) does not load their 32 modules
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, not spawn: a spawned pool starts a fresh interpreter per worker (about
    # 0.35 s a pool), and its workers re-run a calling script that has no __main__
    # guard.  A job calls no BLAS routine and takes no lock the parent's threads hold.
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        try:
            for _ in pool.map(_write_clips, jobs):
                pass
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        for job in jobs:
            _write_clips(job)
    entries = [(filename, p.name) for p, plan in zip(profiles, plans) for filename, _, _ in plan]
    manifest = DatasetManifest(entries=entries, class_names=names)
    manifest_path = out_dir / "manifest.tsv"
    save_manifest(manifest, manifest_path)
    return manifest_path
