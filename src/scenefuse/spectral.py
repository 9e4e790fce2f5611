"""Shared DSP primitives: framing, windowed power spectra, auditory
filterbanks, the cepstral DCT, and delta/acceleration appending.

All operations are pure functions over immutable inputs.  Frames are a
read-only strided view of the clip's samples, not a copy; their default
length and hop are ``scenefuse.features.FRAME_LEN`` and ``HOP``.  The power
spectrum windows them with a periodic Hamming window and transforms them a
block of ``STFT_BLOCK`` frames at a time, so the only full-size array it
allocates is the power it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .dataio import AudioClip

#: log() floor applied wherever a subband power logarithm is taken
LOG_FLOOR = 1e-20

FILTERBANK_KINDS = ("mel-triangular", "bark-trapezoidal", "gammatone-magnitude")

#: frames windowed and transformed per step of ``power_spectrum``; bounds its
#: temporaries to about 1.6 MB at frame_len 2048, whatever the clip length
STFT_BLOCK = 32


@dataclass
class FrameSequence:
    """Overlapping signal frames; frame t starts at sample ``t * hop``.

    ``frames`` made by ``frame_signal`` is a read-only view sharing the
    clip's samples.
    """

    frames: np.ndarray
    frame_len: int
    hop: int
    sample_rate: int

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


@dataclass
class Spectrogram:
    """One-sided power spectrum per frame; bin k is ``k * sample_rate / n_fft`` Hz."""

    power: np.ndarray
    n_fft: int
    sample_rate: int

    @property
    def n_frames(self) -> int:
        return self.power.shape[0]


@dataclass
class FilterbankMatrix:
    """Nonnegative channel weights over FFT bins, one row per channel."""

    weights: np.ndarray
    center_freqs: np.ndarray
    kind: str

    @property
    def n_channels(self) -> int:
        return self.weights.shape[0]


@dataclass
class FeatureMatrix:
    """Frames-by-dimensions feature values of one clip and one family."""

    values: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]


def frame_count(signal_len: int, frame_len: int, hop: int) -> int:
    """Number of full frames; trailing partial frames are dropped."""
    return (signal_len - frame_len) // hop + 1


def check_framing(frame_len: int, hop: int) -> None:
    """Raise ``ValueError`` unless ``0 < hop <= frame_len``."""
    if not 0 < hop <= frame_len:
        raise ValueError(f"need 0 < hop <= frame_len, got hop={hop}, frame_len={frame_len}")


def frame_signal(clip: AudioClip, frame_len: int, hop: int) -> FrameSequence:
    """Cut a clip into overlapping frames without padding, as a read-only view."""
    check_framing(frame_len, hop)
    if len(clip) < frame_len:
        raise ValueError(
            f"clip {clip.source_id!r} has {len(clip)} samples, shorter than frame_len {frame_len}"
        )
    return FrameSequence(
        frames=np.lib.stride_tricks.sliding_window_view(clip.samples, frame_len)[::hop],
        frame_len=frame_len,
        hop=hop,
        sample_rate=clip.sample_rate,
    )


def hamming_periodic(n: int) -> np.ndarray:
    """Periodic (DFT-even) Hamming window."""
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(n) / n)


def power_spectrum(frames: FrameSequence) -> Spectrogram:
    """Windowed one-sided power spectrum, |X_k|^2 per frame, n_fft = frame_len.

    Runs ``STFT_BLOCK`` frames at a time into one preallocated array.  Each
    row is transformed on its own and every other step is elementwise, so the
    bits do not depend on the block size.
    """
    n_fft = frames.frame_len
    window = hamming_periodic(n_fft)
    power = np.empty((frames.n_frames, n_fft // 2 + 1))
    for start in range(0, frames.n_frames, STFT_BLOCK):
        stop = start + STFT_BLOCK
        spectrum = np.fft.rfft(frames.frames[start:stop] * window, axis=1)
        # (re, im) pairs squared in place: x*x is what x**2 computes, so the
        # sum below has the bits of real**2 + imag**2
        pairs = spectrum.view(np.float64)
        np.multiply(pairs, pairs, out=pairs)
        np.add(pairs[:, 0::2], pairs[:, 1::2], out=power[start:stop])
    return Spectrogram(power=power, n_fft=n_fft, sample_rate=frames.sample_rate)


# --- frequency scales ---

def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def hz_to_bark(f):
    """Bark rate via 6*asinh(f/600)."""
    return 6.0 * np.arcsinh(np.asarray(f, dtype=np.float64) / 600.0)


def bark_to_hz(b):
    return 600.0 * np.sinh(np.asarray(b, dtype=np.float64) / 6.0)


def hz_to_erb_rate(f):
    return 21.4 * np.log10(1.0 + 0.00437 * np.asarray(f, dtype=np.float64))


def erb_rate_to_hz(e):
    return (10.0 ** (np.asarray(e, dtype=np.float64) / 21.4) - 1.0) / 0.00437


def erb_bandwidth(f):
    """Equivalent rectangular bandwidth at centre frequency f (Hz)."""
    return 24.7 * (4.37 * np.asarray(f, dtype=np.float64) / 1000.0 + 1.0)


def _scale_funcs(kind: str):
    if kind == "mel-triangular":
        return hz_to_mel, mel_to_hz
    if kind == "bark-trapezoidal":
        return hz_to_bark, bark_to_hz
    if kind == "gammatone-magnitude":
        return hz_to_erb_rate, erb_rate_to_hz
    raise ValueError(f"unknown filterbank kind {kind!r}; expected one of {FILTERBANK_KINDS}")


def make_filterbank(kind: str, n_channels: int, n_fft: int, sample_rate: int) -> FilterbankMatrix:
    """Build an auditory filterbank over the one-sided FFT bins.

    Channel centres are spaced uniformly on the kind's frequency scale
    between 0 Hz and the Nyquist frequency.  Shapes: triangles (mel),
    flat-top trapezoids with steep skirts on the bark scale, or 4th-order
    gammatone magnitude-squared envelopes on ERB-rate centres.  Every row
    is normalized to unit peak.
    """
    if n_channels < 2:
        raise ValueError(f"need at least 2 channels, got {n_channels}")

    fwd, inv = _scale_funcs(kind)
    points = np.linspace(fwd(0.0), fwd(sample_rate / 2.0), n_channels + 2)
    centers = inv(points[1:-1])
    bin_freqs = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)

    if kind == "mel-triangular":
        left = inv(points[:-2])
        right = inv(points[2:])
        lo = (bin_freqs[None, :] - left[:, None]) / (centers - left)[:, None]
        hi = (right[:, None] - bin_freqs[None, :]) / (right - centers)[:, None]
        weights = np.maximum(0.0, np.minimum(lo, hi))
    elif kind == "bark-trapezoidal":
        # flat top of one bark, steep exponential skirts truncated at
        # -1.3 and +2.5 bark around each centre
        omega = hz_to_bark(bin_freqs)[None, :] - points[1:-1][:, None]
        weights = np.zeros_like(omega)
        rising = (omega >= -1.3) & (omega < -0.5)
        flat = (omega >= -0.5) & (omega <= 0.5)
        falling = (omega > 0.5) & (omega <= 2.5)
        weights[rising] = 10.0 ** (2.5 * (omega[rising] + 0.5))
        weights[flat] = 1.0
        weights[falling] = 10.0 ** (-(omega[falling] - 0.5))
    else:  # gammatone-magnitude
        bandwidth = 1.019 * erb_bandwidth(centers)
        detune = (bin_freqs[None, :] - centers[:, None]) / bandwidth[:, None]
        weights = (1.0 + detune**2) ** -4.0

    peaks = weights.max(axis=1)
    if np.any(peaks <= 0.0):
        raise ValueError(f"{kind}: a channel has no positive weight on this FFT grid")
    weights = weights / peaks[:, None]
    return FilterbankMatrix(weights=weights, center_freqs=centers, kind=kind)


def apply_filterbank(spec: Spectrogram, fb: FilterbankMatrix) -> np.ndarray:
    """Subband powers: matrix product of power rows with channel weights."""
    if fb.weights.shape[1] != spec.power.shape[1]:
        raise ValueError(
            f"filterbank spans {fb.weights.shape[1]} bins but spectrogram has "
            f"{spec.power.shape[1]}"
        )
    return spec.power @ fb.weights.T


@lru_cache(maxsize=None)
def _dct_basis(n: int) -> np.ndarray:
    """Read-only n x n orthonormal DCT-II basis: ``x @ basis`` transforms the
    rows of x, and column k holds ``s_k cos(π (2m + 1) k / 2n)`` over m."""
    m = np.arange(n)
    basis = np.cos(np.pi * np.outer(2 * m + 1, m) / (2 * n)) * np.sqrt(2.0 / n)
    basis[:, 0] = np.sqrt(1.0 / n)
    basis.setflags(write=False)
    return basis


def cepstral_dct(log_powers: np.ndarray, n_coeffs: int) -> np.ndarray:
    """Orthonormal DCT-II along the channel axis, keeping the first n_coeffs.

    The product is always taken with the full basis and sliced after it, so
    a truncation is exactly the leading columns of the full transform (the
    rounding of a matrix product depends on its output shape).
    """
    log_powers = np.asarray(log_powers, dtype=np.float64)
    if n_coeffs > log_powers.shape[1]:
        raise ValueError(
            f"n_coeffs {n_coeffs} exceeds channel count {log_powers.shape[1]}"
        )
    return (log_powers @ _dct_basis(log_powers.shape[1]))[:, :n_coeffs]


def _regression_delta(values: np.ndarray, window: int) -> np.ndarray:
    """Regression-slope deltas with edge frames replicated."""
    n = values.shape[0]
    padded = np.concatenate([values[:1]] * window + [values] + [values[-1:]] * window)
    num = np.zeros_like(values)
    denom = 0.0
    for theta in range(1, window + 1):
        num += theta * (padded[window + theta : window + theta + n]
                        - padded[window - theta : window - theta + n])
        denom += 2.0 * theta * theta
    return num / denom


def append_deltas(static: FeatureMatrix, window: int) -> FeatureMatrix:
    """Append delta and acceleration blocks: output dim = 3 x static dim."""
    if window < 1:
        raise ValueError(f"delta window must be >= 1, got {window}")
    delta = _regression_delta(static.values, window)
    accel = _regression_delta(delta, window)
    return FeatureMatrix(np.hstack([static.values, delta, accel]))
