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
        """1/var, mean/var, sum(mean^2/var) and log w + log-normaliser, per
        component; built on first use and kept, so a scored model's arrays
        must not change."""
        inv_var = 1.0 / self.variances
        log_norm = -0.5 * (
            self.dim * np.log(2.0 * np.pi) + np.log(self.variances).sum(axis=1)
        )
        return (
            inv_var,
            self.means * inv_var,
            (self.means**2 * inv_var).sum(axis=1),
            np.log(self.weights) + log_norm,
        )


@dataclass
class GmmBank:
    """One model per class, index-aligned with the training class order."""

    models: list

    def __post_init__(self) -> None:
        dims = {m.dim for m in self.models}
        if len(dims) > 1:
            raise ValueError(f"bank models disagree on dim: {sorted(dims)}")

    @property
    def n_classes(self) -> int:
        return len(self.models)

    @property
    def dim(self) -> int:
        if not self.models:
            raise ValueError("empty bank has no dim")
        return self.models[0].dim


def _component_log_likelihoods(
    model: GmmModel, features: np.ndarray, sq: np.ndarray
) -> np.ndarray:
    """log(w_k * N(x_t)) as a frames x components matrix; ``sq`` is features**2."""
    inv_var, mean_inv_var, mean_sq_inv_var, log_const = model._scoring_terms
    # expand the quadratic form so everything is a frames x K matmul
    quad = (
        sq @ inv_var.T
        - 2.0 * (features @ mean_inv_var.T)
        + mean_sq_inv_var[None, :]
    )
    return log_const[None, :] - 0.5 * quad


def _exp_normal(values: np.ndarray) -> np.ndarray:
    """``np.exp(values)`` where that is a normal double, exactly 0 below
    ``LOG_TINY``.

    A subnormal result costs ``exp`` over 100x a normal one (``exp(-inf)``
    is fast), and subnormal operands slow every GEMM that reads them.
    Dropping them leaves the bytes of every model and score unchanged: each
    dropped term is below 2**-1022 and is only ever added into a sum that
    dwarfs it -- a log-sum-exp row, which holds exp(0) = 1; a component's
    responsibility mass, which is at least ``EMPTY_COMPONENT_MASS`` or is
    reseeded with its column zeroed; and the M-step sums weighted by that
    mass.  Such a sum could change only if it fell within about 2**-1016
    of a rounding midpoint; the artifact digests of the benchmark workloads
    confirm that none does.
    """
    out = np.where(values < LOG_TINY, -np.inf, values)
    return np.exp(out, out=out)


def _logsumexp_rows(values: np.ndarray) -> np.ndarray:
    peak = values.max(axis=1)
    return peak + np.log(_exp_normal(values - peak[:, None]).sum(axis=1))


def frame_log_likelihoods(model: GmmModel, features: np.ndarray) -> np.ndarray:
    """Per-frame mixture log-density."""
    features = _check_features(features, model.dim)
    return _logsumexp_rows(_component_log_likelihoods(model, features, features**2))


def log_likelihood(model: GmmModel, features: np.ndarray) -> float:
    """Total log-likelihood of a feature matrix, summed over frames."""
    return float(frame_log_likelihoods(model, features).sum())


def _check_features(features: np.ndarray, dim: int | None = None) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ValueError("features must be a nonempty frames x dim matrix")
    if not np.all(np.isfinite(features)):
        raise ValueError("features contain non-finite values")
    if dim is not None and features.shape[1] != dim:
        raise ValueError(f"feature dim {features.shape[1]} does not match model dim {dim}")
    return features


def _kmeanspp_centers(features: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = features.shape[0]
    centers = np.empty((k, features.shape[1]))
    centers[0] = features[rng.integers(n)]
    dist2 = ((features - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = dist2.sum()
        if total <= 0.0:
            # remaining mass is zero: every point sits on a chosen center
            centers[j:] = features[rng.integers(n, size=k - j)]
            break
        centers[j] = features[rng.choice(n, p=dist2 / total)]
        dist2 = np.minimum(dist2, ((features - centers[j]) ** 2).sum(axis=1))
    return centers


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
    """
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
    for _ in range(max_iters):
        comp_ll = _component_log_likelihoods(model, features, sq)
        frame_ll = _logsumexp_rows(comp_ll)
        ll = float(frame_ll.sum())
        trace.append(ll)
        if np.isfinite(prev_ll) and ll - prev_ll < tol * abs(prev_ll):
            break
        prev_ll = ll

        resp = _exp_normal(comp_ll - frame_ll[:, None])
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


def fit_gmm_bank(
    class_features: list,
    n_components: int,
    seeds: list,
) -> GmmBank:
    """Train one model per class; seeds are index-aligned with classes."""
    if len(seeds) != len(class_features):
        raise ValueError("need one seed per class")
    return GmmBank(
        [fit_gmm(feats, n_components, seed) for feats, seed in zip(class_features, seeds)]
    )


def classify_gmm(bank: GmmBank, features: np.ndarray) -> np.ndarray:
    """Raw per-class scores (summed frame log-likelihoods) for one clip."""
    if not bank.models:
        raise ValueError("cannot classify with an empty bank")
    features = _check_features(features, bank.dim)
    sq = features**2
    return np.array([
        float(_logsumexp_rows(_component_log_likelihoods(model, features, sq)).sum())
        for model in bank.models
    ])


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
    models = []
    for _ in range(reader.u32()):
        k = reader.u32()
        dim = reader.u32()
        weights = reader.floats(k)
        means = reader.floats(k * dim).reshape(k, dim)
        variances = reader.floats(k * dim).reshape(k, dim)
        models.append(GmmModel(weights, means, variances))
    return family, class_names, GmmBank(models)


def load_gmm_bank(path) -> tuple:
    """``(family, class_names, bank)`` from a file of :func:`save_gmm_bank`."""
    with open(path, "rb") as fh:
        return read_container(fh, GMM_BANK_MAGIC, GMM_BANK_VERSION, _parse_bank)
