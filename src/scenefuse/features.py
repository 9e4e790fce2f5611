"""Cepstral feature extractors for acoustic scenes.

Five families share one framing and power-spectrum front end:

* mfcc    log mel subband power, DCT, 20 static -> 60 with deltas
* plp     bark bank, equal-loudness, cube root, LPC cepstra + energy -> 39
* pncc    gammatone bank, medium-time bias subtraction, x^(1/15) -> 60
* rcgcc   gammatone bank, smoothed noise-suppression gains, cube root -> 60
* spcc    log mel power projected onto its dominant subspace -> 60

The paper's combined family ``cepscom`` is the frame-wise concatenation
[mfcc | pncc | rcgcc | spcc] -> 240.  It is never extracted or stored on its
own: a request for it computes its four parts (``CEPSCOM_PARTS``), and the
pipeline joins them where a system reads cepscom.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .dataio import AudioClip
from .spectral import (
    LOG_FLOOR,
    FeatureMatrix,
    FilterbankMatrix,
    FrameSequence,
    Spectrogram,
    append_deltas,
    apply_filterbank,
    cepstral_dct,
    frame_signal,
    make_filterbank,
    power_spectrum,
)

EXTRACTOR_NAMES = ("mfcc", "plp", "pncc", "rcgcc", "spcc", "cepscom")

#: the stored families whose frame-wise concatenation, in this order, is cepscom
CEPSCOM_PARTS = ("mfcc", "pncc", "rcgcc", "spcc")

#: default analysis frame length and hop, in samples; all families of a clip share one framing
FRAME_LEN = 2048
HOP = 1024

#: filterbank channels of every family
N_CHANNELS = 40

#: static coefficients of the four DCT-based families (PLP has ``PLP_MODEL_ORDER + 1``)
N_STATIC = 20

#: half-width, in frames, of the regression behind deltas and delta-deltas
DELTA_WINDOW = 2

#: eigenvalue-energy fraction the spcc subspace keeps
SPCC_ENERGY_FRACTION = 0.90

#: power-law compression of the pncc bias-subtracted powers
PNCC_POWER_EXPONENT = 1.0 / 15.0

#: half-width, in frames, of the pncc medium-time power average
PNCC_MEDIUM_WINDOW = 2

#: multiplier on the per-channel minimum medium-time power
PNCC_BIAS_SCALE = 1.11

#: smoothing constant of the rcgcc noise estimate and gains
RCGCC_SMOOTHING = 0.9

#: frames averaged to seed the recursive noise estimate
RCGCC_SEED_FRAMES = 5

#: all-pole model order of plp; its static part is the cepstra plus log energy
PLP_MODEL_ORDER = 12


def expected_dim(extractor: str) -> int:
    if extractor == "plp":
        return 3 * (PLP_MODEL_ORDER + 1)
    if extractor == "cepscom":
        return len(CEPSCOM_PARTS) * 3 * N_STATIC
    if extractor in EXTRACTOR_NAMES:
        return 3 * N_STATIC
    raise ValueError(f"unknown extractor {extractor!r}; expected one of {EXTRACTOR_NAMES}")


@lru_cache(maxsize=32)
def _bank(kind: str, n_fft: int, sample_rate: int) -> FilterbankMatrix:
    # cached instances are shared; treat them as read-only
    return make_filterbank(kind, N_CHANNELS, n_fft, sample_rate)


# --- mfcc ---

def _mfcc_from_spec(spec: Spectrogram) -> FeatureMatrix:
    bank = _bank("mel-triangular", spec.n_fft, spec.sample_rate)
    subband = apply_filterbank(spec, bank)
    static = cepstral_dct(np.log(np.maximum(subband, LOG_FLOOR)), N_STATIC)
    return append_deltas(FeatureMatrix(static, "mfcc"), DELTA_WINDOW)


# --- plp ---

def equal_loudness(freqs_hz) -> np.ndarray:
    """Equal-loudness weighting applied to subband powers before compression."""
    f2 = np.asarray(freqs_hz, dtype=np.float64) ** 2
    return ((f2 + 56.8e6) * f2**2) / ((f2 + 6.3e6) ** 2 * (f2 + 0.38e9))


def levinson_durbin(autocorr: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Solve the normal equations for prediction filter A(z) = 1 + sum a_k z^-k.

    Accepts a single autocorrelation sequence or a batch (one per row) and
    returns (lpc, residual_energy) with lpc holding a_1..a_order.  A row whose
    lag-0 value is not positive yields all-zero coefficients and zero energy.
    """
    r = np.asarray(autocorr, dtype=np.float64)
    single = r.ndim == 1
    if single:
        r = r[None, :]
    if r.shape[1] < order + 1:
        raise ValueError(f"need {order + 1} autocorrelation lags, got {r.shape[1]}")
    dead = r[:, 0] <= 0.0
    r = r.copy()
    r[dead] = 0.0
    r[dead, 0] = 1.0
    n = r.shape[0]
    a = np.zeros((n, order + 1))
    a[:, 0] = 1.0
    err = r[:, 0].copy()
    for m in range(1, order + 1):
        acc = r[:, m] + np.einsum("ti,ti->t", a[:, 1:m], r[:, m - 1:0:-1])
        live = err > 0.0
        k = np.where(live, -acc / np.where(live, err, 1.0), 0.0)
        prev = a[:, : m + 1]
        a[:, : m + 1] = prev + k[:, None] * prev[:, ::-1]
        err = np.maximum(err * (1.0 - k * k), 0.0)
    err[dead] = 0.0
    lpc = a[:, 1:]
    if single:
        return lpc[0], err[0]
    return lpc, err


def lpc_to_cepstrum(lpc: np.ndarray, n_ceps: int) -> np.ndarray:
    """Cepstra c_1..c_n of the all-pole model 1/A(z), batched over rows."""
    a = np.atleast_2d(np.asarray(lpc, dtype=np.float64))
    if n_ceps > a.shape[1]:
        pad = np.zeros((a.shape[0], n_ceps - a.shape[1]))
        a = np.hstack([a, pad])
    ceps = np.zeros((a.shape[0], n_ceps))
    for m in range(1, n_ceps + 1):
        acc = a[:, m - 1].copy()
        for k in range(1, m):
            acc += (k / m) * ceps[:, k - 1] * a[:, m - k - 1]
        ceps[:, m - 1] = -acc
    if np.asarray(lpc).ndim == 1:
        return ceps[0]
    return ceps


def _plp_from_spec(frames: FrameSequence, spec: Spectrogram) -> FeatureMatrix:
    bank = _bank("bark-trapezoidal", spec.n_fft, spec.sample_rate)
    subband = apply_filterbank(spec, bank)
    compressed = np.cbrt(subband * equal_loudness(bank.center_freqs)[None, :])
    # the compressed subband profile acts as a power spectrum sampled on
    # [0, pi]; its even extension transforms back to an autocorrelation
    autocorr = np.fft.irfft(compressed, axis=1)[:, : PLP_MODEL_ORDER + 1]
    lpc, _ = levinson_durbin(autocorr, PLP_MODEL_ORDER)
    ceps = lpc_to_cepstrum(lpc, PLP_MODEL_ORDER)
    energy = np.log(np.maximum((frames.frames**2).sum(axis=1), LOG_FLOOR))
    static = np.hstack([ceps, energy[:, None]])
    return append_deltas(FeatureMatrix(static, "plp"), DELTA_WINDOW)


# --- pncc ---

class PnccStages(NamedTuple):
    """Intermediate powers of the bias-subtraction chain."""

    medium: np.ndarray
    subtracted: np.ndarray
    normalized: np.ndarray


def medium_time_power(subband: np.ndarray, window: int) -> np.ndarray:
    """Mean of each channel over frames t-window..t+window, clamped at edges."""
    values = np.asarray(subband, dtype=np.float64)
    if window == 0:
        return values.copy()
    n = values.shape[0]
    csum = np.vstack([np.zeros((1, values.shape[1])), np.cumsum(values, axis=0)])
    t = np.arange(n)
    lo = np.maximum(t - window, 0)
    hi = np.minimum(t + window, n - 1)
    return (csum[hi + 1] - csum[lo]) / (hi - lo + 1)[:, None]


def pncc_power_stages(subband: np.ndarray) -> PnccStages:
    """Medium-time smoothing, floor-at-zero bias subtraction, rate restoration."""
    medium = medium_time_power(subband, PNCC_MEDIUM_WINDOW)
    bias = PNCC_BIAS_SCALE * medium.min(axis=0)
    subtracted = np.maximum(medium - bias[None, :], 0.0)
    ratio = np.divide(
        subband, medium, out=np.zeros_like(subband), where=medium > 0.0
    )
    return PnccStages(medium=medium, subtracted=subtracted, normalized=subtracted * ratio)


def _pncc_from_spec(spec: Spectrogram) -> FeatureMatrix:
    bank = _bank("gammatone-magnitude", spec.n_fft, spec.sample_rate)
    subband = apply_filterbank(spec, bank)
    stages = pncc_power_stages(subband)
    static = cepstral_dct(stages.normalized**PNCC_POWER_EXPONENT, N_STATIC)
    return append_deltas(FeatureMatrix(static, "pncc"), DELTA_WINDOW)


# --- rcgcc ---

def _one_pole(x: np.ndarray, lam: float, carry: np.ndarray) -> np.ndarray:
    """y[t] = (1-lam)*x[t] + carry, then carry = lam*y[t], down the rows.

    These are the direct-form-II-transposed steps of the first-order filter
    b = [1-lam], a = [1, -lam] with initial state ``carry``, in the same
    operations and order, so the result is bit-equal to
    ``scipy.signal.lfilter`` (whose import costs about a second).
    """
    y = (1.0 - lam) * x
    y[0] += carry
    for t in range(1, y.shape[0]):
        y[t] += lam * y[t - 1]
    return y


def rcgcc_gains(subband: np.ndarray, smoothing: float) -> np.ndarray:
    """Smoothed suppression gains in [0.1, 1] tracking a recursive noise floor.

    The noise estimate N[t] = s*N[t-1] + (1-s)*Q[t] is seeded with the mean of
    the first frames; the raw gain (Q-N)/Q is clipped and then smoothed with
    the same constant, so purely stationary channels settle at the lower clip.
    """
    q = np.asarray(subband, dtype=np.float64)
    lam = smoothing
    seed = q[: min(RCGCC_SEED_FRAMES, q.shape[0])].mean(axis=0)
    noise = _one_pole(q, lam, lam * seed)
    raw = np.clip(
        np.divide(q - noise, q, out=np.zeros_like(q), where=q > 0.0), 0.1, 1.0
    )
    return _one_pole(raw, lam, lam * raw[0])


def _rcgcc_from_spec(spec: Spectrogram) -> FeatureMatrix:
    bank = _bank("gammatone-magnitude", spec.n_fft, spec.sample_rate)
    subband = apply_filterbank(spec, bank)
    gains = rcgcc_gains(subband, RCGCC_SMOOTHING)
    static = cepstral_dct(np.cbrt(gains * subband), N_STATIC)
    return append_deltas(FeatureMatrix(static, "rcgcc"), DELTA_WINDOW)


# --- spcc ---

def subspace_rank(eigenvalues, fraction: float) -> int:
    """Smallest r whose leading eigenvalues reach the given energy fraction."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("eigenvalues must be a nonempty 1-D sequence")
    if np.any(lam < 0.0):
        raise ValueError("eigenvalues must be nonnegative")
    if np.any(np.diff(lam) > 0.0):
        raise ValueError("eigenvalues must be sorted descending")
    total = lam.sum()
    if total <= 0.0:
        raise ValueError("eigenvalue spectrum sums to zero")
    # compare ratios, not fraction * total: 9/10 meets 0.9 exactly
    ratios = np.cumsum(lam) / total
    return int(np.searchsorted(ratios, fraction, side="left")) + 1


def subspace_project(matrix: np.ndarray, fraction: float) -> tuple[np.ndarray, int]:
    """Project rows onto the dominant covariance subspace and reconstruct.

    Returns the reconstruction (mean added back) and the retained rank,
    chosen as the smallest one covering the requested eigenvalue-energy
    fraction.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] < 2:
        raise ValueError("subspace projection needs at least 2 rows")
    mean = matrix.mean(axis=0)
    centered = matrix - mean
    cov = centered.T @ centered / (matrix.shape[0] - 1)
    lam, vec = np.linalg.eigh(cov)
    lam = np.maximum(lam[::-1], 0.0)
    vec = vec[:, ::-1]
    rank = subspace_rank(lam, fraction)
    basis = vec[:, :rank]
    return centered @ basis @ basis.T + mean, rank


def _spcc_from_spec(spec: Spectrogram) -> FeatureMatrix:
    bank = _bank("mel-triangular", spec.n_fft, spec.sample_rate)
    logmel = np.log(np.maximum(apply_filterbank(spec, bank), LOG_FLOOR))
    recon, _ = subspace_project(logmel, SPCC_ENERGY_FRACTION)
    static = cepstral_dct(recon, N_STATIC)
    return append_deltas(FeatureMatrix(static, "spcc"), DELTA_WINDOW)


# --- the extraction entry point ---

def stored_families(names) -> list:
    """The stored families behind the named ones, in ``EXTRACTOR_NAMES``
    order: cepscom stands for its parts."""
    wanted = set(names)
    unknown = wanted - set(EXTRACTOR_NAMES)
    if unknown:
        raise ValueError(
            f"unknown extractors {sorted(unknown)}; expected a subset of {EXTRACTOR_NAMES}"
        )
    if "cepscom" in wanted:
        wanted |= set(CEPSCOM_PARTS)
    return [name for name in EXTRACTOR_NAMES if name in wanted and name != "cepscom"]


def extract_selected(
    clip: AudioClip, names, *, frame_len: int = FRAME_LEN, hop: int = HOP
) -> dict[str, FeatureMatrix]:
    """Requested families only, all from one shared framing and spectrum.

    A request for ``cepscom`` yields its parts (``CEPSCOM_PARTS``), not a
    concatenated copy.  The result follows ``EXTRACTOR_NAMES`` order.
    """
    wanted = set(stored_families(names))
    frames = frame_signal(clip, frame_len, hop)
    if "spcc" in wanted and frames.n_frames < 2:
        # the subspace projection estimates a covariance over frames
        raise ValueError(
            f"clip {clip.source_id!r} has {len(clip)} samples, which frame to "
            f"{frames.n_frames} frame; spcc and cepscom need at least 2 frames "
            f"({frame_len + hop} samples)"
        )
    spec = power_spectrum(frames)
    parts: dict[str, FeatureMatrix] = {}
    if "mfcc" in wanted:
        parts["mfcc"] = _mfcc_from_spec(spec)
    if "plp" in wanted:
        parts["plp"] = _plp_from_spec(frames, spec)
    if "pncc" in wanted:
        parts["pncc"] = _pncc_from_spec(spec)
    if "rcgcc" in wanted:
        parts["rcgcc"] = _rcgcc_from_spec(spec)
    if "spcc" in wanted:
        parts["spcc"] = _spcc_from_spec(spec)
    return parts
