"""Per-class diagonal-covariance Gaussian mixtures with EM training.

Each scene class gets its own mixture; a clip is scored per class by the sum
of frame log-likelihoods and labeled by the argmax.  Training is fully
deterministic for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dataio import (
    FeatureStoreError,
    pack_floats,
    pack_model_header,
    pack_u32,
    read_container,
    read_model_header,
    write_container,
)

GMM_BANK_MAGIC = b"SFG1"
GMM_BANK_VERSION = 2

#: responsibility mass below which a component counts as empty
EMPTY_COMPONENT_MASS = 1e-8

#: relative variance floor against the per-dimension global variance
VARIANCE_FLOOR_SCALE = 1e-3

#: absolute variance floor for dimensions that are constant in training data
VARIANCE_FLOOR_ABS = 1e-10

#: log of the smallest normal double; exp of anything below it is subnormal or 0
LOG_TINY = float(np.log(np.finfo(np.float64).tiny))


@dataclass
class GmmModel:
    """Diagonal-covariance mixture; weights sum to 1, variances positive."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    train_log_likelihoods: list = field(default_factory=list, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.variances = np.asarray(self.variances, dtype=np.float64)
        if self.means.ndim != 2:
            raise ValueError("means must be K x dim")
        k = self.means.shape[0]
        if self.weights.shape != (k,) or self.variances.shape != self.means.shape:
            raise ValueError("weights/means/variances shapes disagree")
        if np.any(self.weights < 0.0) or abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        if np.any(self.variances <= 0.0):
            raise ValueError("variances must be positive")

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @cached_property
    def _scoring_terms(self) -> tuple:
        """``(A, B, c)`` with ``A = mean/var``, ``B = -0.5/var`` and ``c = log
        w + log-normaliser - 0.5 * sum(mean^2/var)``, per component, so that
        ``log(w_k N(x | k)) = x . A_k + x^2 . B_k + c_k``.  Built on first use
        and kept, so a scored model's arrays must not change."""
        inv_var = 1.0 / self.variances
        mean_inv_var = self.means * inv_var
        log_norm = -0.5 * (
            self.dim * np.log(2.0 * np.pi) + np.log(self.variances).sum(axis=1)
        )
        const = (
            np.log(self.weights) + log_norm - 0.5 * (self.means * mean_inv_var).sum(axis=1)
        )
        return mean_inv_var, -0.5 * inv_var, const


@dataclass
class GmmBank:
    """One model per class, index-aligned with the training class order."""

    models: list

    def __post_init__(self) -> None:
        dims = {m.dim for m in self.models}
        if len(dims) > 1:
            raise ValueError(f"bank models disagree on dim: {sorted(dims)}")
        counts = {m.n_components for m in self.models}
        if len(counts) > 1:
            raise ValueError(
                f"bank models disagree on component count: {sorted(counts)}"
            )

    @property
    def n_classes(self) -> int:
        return len(self.models)

    @property
    def dim(self) -> int:
        if not self.models:
            raise ValueError("empty bank has no dim")
        return self.models[0].dim

    @cached_property
    def _scoring_terms(self) -> tuple:
        """Every model's ``(A, B, c)`` stacked in bank order, so the terms of
        class ``j`` are rows ``j*K`` to ``(j+1)*K``."""
        return tuple(
            np.concatenate(parts) for parts in zip(*(m._scoring_terms for m in self.models))
        )


def _component_log_likelihoods(
    terms: tuple, features: np.ndarray, sq: np.ndarray
) -> np.ndarray:
    """log(w_k * N(x_t)) as a frames x components matrix, from a model's or a
    bank's ``_scoring_terms``; ``sq`` is features**2."""
    mean_inv_var, neg_half_inv_var, const = terms
    out = features @ mean_inv_var.T
    out += sq @ neg_half_inv_var.T
    out += const
    return out


def _exp_normal(values: np.ndarray, cut: float = LOG_TINY) -> np.ndarray:
    """``np.exp(values)``, exactly 0 where ``values`` is below ``cut``.

    With the default cut every term kept is a normal double.  A subnormal
    result costs ``exp`` over 100x a normal one (``exp(-inf)`` is fast), and
    subnormal operands slow every GEMM that reads them.  A dropped term is
    at most ``exp(cut)`` and is only added into a sum that dwarfs it: a
    log-sum-exp row, which holds exp(0) = 1; a component's responsibility
    mass, which is at least ``EMPTY_COMPONENT_MASS`` or is reseeded with its
    column zeroed; and the M-step sums weighted by that mass.  So models
    and scores are bit-identical to keeping every term unless such a sum
    falls within about 2**-1016 of a rounding midpoint; tests check this
    against a plain-``exp`` copy of the EM loop and of the scoring.
    """
    out = np.where(values < cut, -np.inf, values)
    return np.exp(out, out=out)


def _exp_below_peak(comp: np.ndarray, cut: float = LOG_TINY) -> tuple:
    """``(peak, e)``: each row's largest entry along the last axis, and
    ``e = exp(comp - peak)`` with terms below ``cut`` dropped; ``comp`` is
    overwritten with ``comp - peak``."""
    peak = comp.max(axis=-1)
    comp -= peak[..., None]
    return peak, _exp_normal(comp, cut)


def _check_features(features: np.ndarray, dim: int | None = None) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or 0 in features.shape:
        raise ValueError(
            f"features must be a nonempty frames x dim matrix, got shape {features.shape}"
        )
    if not np.all(np.isfinite(features)):
        raise ValueError("features contain non-finite values")
    if dim is not None and features.shape[1] != dim:
        raise ValueError(f"feature dim {features.shape[1]} does not match model dim {dim}")
    return features


def _kmeanspp_centers(features: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: each further center is a frame drawn with
    probability proportional to its squared distance to the nearest center.

    A distance is expanded as ``|x|² - 2 x·c + |c|²`` over the mean-centered
    frames, one matrix-vector product per center. Where that is within
    rounding of zero, the exact difference form is taken instead, so a
    frame equal to a center keeps a distance of exactly 0. The rest differ
    from the difference form only by rounding, and a center is a frame
    picked by index, so the centers match it unless a draw falls within
    that rounding of a boundary of the cumulative distribution.
    """
    n = features.shape[0]
    mean = features.mean(axis=0)
    # the centered copy is dropped at once: kept through the loop, it made
    # run_c2 land in its high peak-RSS mode about twice as often
    centered = features - mean
    norms = np.einsum("ij,ij->i", centered, centered)
    del centered

    def dist2_to(pick: int) -> np.ndarray:
        center = features[pick] - mean
        # (x - m)·(c - m), as x·(c - m) - m·(c - m)
        dist2 = norms - 2.0 * (features @ center - mean @ center) + norms[pick]
        near = np.flatnonzero(np.abs(dist2) <= 1e-9 * (norms + norms[pick]))
        dist2[near] = ((features[near] - features[pick]) ** 2).sum(axis=1)
        return dist2

    picks = np.empty(k, dtype=np.int64)
    picks[0] = rng.integers(n)
    dist2 = dist2_to(picks[0])
    for j in range(1, k):
        total = dist2.sum()
        if total <= 0.0:
            # remaining mass is zero: every point sits on a chosen center
            picks[j:] = rng.integers(n, size=k - j)
            break
        picks[j] = rng.choice(n, p=dist2 / total)
        dist2 = np.minimum(dist2, dist2_to(picks[j]))
    return features[picks]


def fit_gmm(
    features: np.ndarray,
    n_components: int,
    seed: int,
    max_iters: int = 100,
    tol: float = 1e-5,
) -> GmmModel:
    """EM training with seeded k-means++ means and a global-variance floor.

    Components whose responsibility mass collapses are reseeded at the
    frames the current model likes least.  Stops when the relative
    log-likelihood gain drops below ``tol``.

    Each iteration takes one ``exp`` over the frames x components matrix:
    the responsibilities are its terms divided by their row total.  Terms
    below ``LOG_TINY + log K`` are dropped, so that division (by at most K)
    never makes a responsibility subnormal.
    """
    if n_components < 1:
        raise ValueError(f"n_components must be at least 1, got {n_components}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    features = _check_features(features)
    n_frames, dim = features.shape
    if n_frames < n_components:
        raise ValueError(f"{n_frames} frames cannot support {n_components} components")

    rng = np.random.default_rng(seed)
    global_var = features.var(axis=0)
    floor = np.maximum(VARIANCE_FLOOR_SCALE * global_var, VARIANCE_FLOOR_ABS)

    weights = np.full(n_components, 1.0 / n_components)
    means = _kmeanspp_centers(features, n_components, rng)
    variances = np.maximum(np.tile(global_var, (n_components, 1)), floor)
    model = GmmModel(weights, means, variances)

    trace: list = []
    prev_ll = -np.inf
    sq = features**2
    cut = LOG_TINY + np.log(n_components)
    for _ in range(max_iters):
        comp = _component_log_likelihoods(model._scoring_terms, features, sq)
        peak, resp = _exp_below_peak(comp, cut)
        total = resp.sum(axis=1)
        frame_ll = peak + np.log(total)
        ll = float(frame_ll.sum())
        trace.append(ll)
        if np.isfinite(prev_ll) and ll - prev_ll < tol * abs(prev_ll):
            break
        prev_ll = ll

        resp /= total[:, None]
        mass = resp.sum(axis=0)
        empty = np.flatnonzero(mass < EMPTY_COMPONENT_MASS)
        if empty.size:
            worst = np.argsort(frame_ll)[: empty.size]
            for comp, frame in zip(empty, worst):
                resp[:, comp] = 0.0
                resp[frame, comp] = 1.0
            mass = resp.sum(axis=0)

        weights = mass / mass.sum()
        means = (resp.T @ features) / mass[:, None]
        variances = np.maximum((resp.T @ sq) / mass[:, None] - means**2, floor)
        model = GmmModel(weights, means, variances)

    model.train_log_likelihoods = trace
    return model


def classify_gmm(bank: GmmBank, features: np.ndarray) -> np.ndarray:
    """Raw per-class scores (summed frame log-likelihoods) for one clip,
    from one frames x (classes * components) matrix."""
    if not bank.models:
        raise ValueError("cannot classify with an empty bank")
    features = _check_features(features, bank.dim)
    comp = _component_log_likelihoods(bank._scoring_terms, features, features**2)
    peak, e = _exp_below_peak(comp.reshape(features.shape[0], bank.n_classes, -1))
    return (peak + np.log(e.sum(axis=2))).sum(axis=0)


def save_gmm_bank(path, bank: GmmBank, family: str, class_names) -> None:
    """Write the feature family and class names (one per model, in bank
    order), then the bank, to its checksummed container (bit-exact round-trip)."""
    parts = [pack_model_header(family, class_names, bank.n_classes), pack_u32(bank.n_classes)]
    for model in bank.models:
        parts += [
            pack_u32(model.n_components),
            pack_u32(model.dim),
            pack_floats(model.weights),
            pack_floats(model.means),
            pack_floats(model.variances),
        ]
    with open(path, "wb") as fh:
        write_container(fh, GMM_BANK_MAGIC, GMM_BANK_VERSION, parts)


def _parse_bank(reader) -> tuple:
    family, class_names = read_model_header(reader)
    arrays = []
    for _ in range(reader.u32()):
        k = reader.u32()
        dim = reader.u32()
        weights = reader.floats(k)
        means = reader.floats(k * dim).reshape(k, dim)
        variances = reader.floats(k * dim).reshape(k, dim)
        arrays.append((weights, means, variances))
    try:
        bank = GmmBank([GmmModel(*model) for model in arrays])
    except ValueError as exc:
        raise FeatureStoreError(f"{reader.context}: {exc}") from exc
    return family, class_names, bank


def load_gmm_bank(path) -> tuple:
    """``(family, class_names, bank)`` from a file of :func:`save_gmm_bank`."""
    with open(path, "rb") as fh:
        return read_container(fh, GMM_BANK_MAGIC, GMM_BANK_VERSION, _parse_bank)
