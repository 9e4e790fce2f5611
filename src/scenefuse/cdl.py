"""Clip-level covariance descriptors with discriminative projection.

A clip becomes a regularized covariance matrix over its frame features,
mapped to a flat vector through the matrix logarithm, projected by a
Fisher discriminant, and labeled by distance to the class centroids in the
projected space (Wang et al., "Covariance Discriminative Learning", CVPR 2012).

The discriminant is fitted in kernel form, as in that paper: from the
n x n matrix of inner products between the training clips' centered
embeddings, never from a decomposition of the n x dim*(dim+1)/2 stack
itself (see :func:`fit_cdl`). The stack is centred once, in place, and its
Gram matrix formed once (:func:`centre_embeddings`); every fit, the final
one on all rows as each cross-validation fold on a subset of them,
corrects that Gram matrix to its rows' own mean and forms its projection
in one product over the whole stack, so no row of it is ever copied.

Each clip's logarithm is taken the same way. A clip of n frames has a
covariance of rank at most n - 1, and its descriptor Σ = CᵀC/(n - 1) + ρI
adds the ridge ρ on the null space of its centered frames C. So with
fewer frames than dimensions, ``log Σ = log(ρ) I + V diag(log1p(μ/((n-1)ρ))) Vᵀ``
from the eigenpairs μ of the n x n Gram matrix C Cᵀ, and no dim x dim
decomposition runs (see :func:`log_embed`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .dataio import (
    pack_floats,
    pack_model_header,
    pack_u32,
    read_container,
    read_model_header,
    write_container,
)

CDL_MODEL_MAGIC = b"SFC1"
CDL_MODEL_VERSION = 2

#: identity scale used when features are constant and the trace vanishes
CONSTANT_FEATURE_EPS = 1e-6

#: the descriptor's identity ridge, relative to the covariance's mean eigenvalue
DESCRIPTOR_RIDGE_SCALE = 1e-3

#: relative shrinkage added to the within-class scatter
SHRINKAGE_SCALE = 1e-2


@dataclass(eq=False)
class CovarianceDescriptor:
    """Symmetric positive-definite summary of one clip's feature frames,
    kept as the clip's centered frames C (n x dim) and ridge ρ: it stands
    for ``Cᵀ C / (n - 1) + ρ I``, which :func:`log_embed` never forms."""

    centered: np.ndarray
    ridge: float
    source_id: str = ""

    @property
    def dim(self) -> int:
        return self.centered.shape[1]


@dataclass
class CdlProjection:
    """Discriminant projection plus per-class centroids in projected space.

    A fitted model holds exactly what its model file holds; centroid rows
    are index-aligned with the training class order.
    """

    projection: np.ndarray
    class_centroids: np.ndarray
    train_mean: np.ndarray
    dim: int

    def __post_init__(self) -> None:
        # C order, so a fitted model scores exactly as the same model loaded from file
        self.projection = np.ascontiguousarray(self.projection, dtype=np.float64)
        self.class_centroids = np.asarray(self.class_centroids, dtype=np.float64)
        self.train_mean = np.asarray(self.train_mean, dtype=np.float64)
        d_vec = half_vec_length(self.dim)
        if self.projection.shape[1] != d_vec or self.train_mean.shape != (d_vec,):
            raise ValueError("projection width must equal dim*(dim+1)/2")
        if self.class_centroids.shape[1] != self.projection.shape[0]:
            raise ValueError("centroid width must equal projection height")

    @property
    def n_classes(self) -> int:
        return self.class_centroids.shape[0]

    @property
    def d_out(self) -> int:
        return self.projection.shape[0]


def half_vec_length(dim: int) -> int:
    return dim * (dim + 1) // 2


def half_vec_dim(length: int) -> int:
    """Matrix dim whose :func:`half_vec` has the given length."""
    dim = (isqrt(8 * length + 1) - 1) // 2
    if half_vec_length(dim) != length:
        raise ValueError(f"length {length} is not dim*(dim+1)/2 for any dim")
    return dim


@lru_cache(maxsize=16)
def _half_vec_layout(dim: int) -> tuple:
    """Upper-triangle rows, columns and sqrt(2) off-diagonal scale; read-only."""
    rows, cols = np.triu_indices(dim)
    scale = np.where(rows == cols, 1.0, np.sqrt(2.0))
    for arr in (rows, cols, scale):
        arr.setflags(write=False)
    return rows, cols, scale


def half_vec(matrix: np.ndarray) -> np.ndarray:
    """Row-major upper triangle with off-diagonals scaled by sqrt(2).

    The scaling makes Euclidean inner products of vectors equal Frobenius
    inner products of the symmetric matrices they encode.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    rows, cols, scale = _half_vec_layout(matrix.shape[0])
    return matrix[rows, cols] * scale


def half_vec_inverse(vec: np.ndarray, dim: int) -> np.ndarray:
    """Rebuild the symmetric matrix encoded by :func:`half_vec`."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (half_vec_length(dim),):
        raise ValueError(f"expected length {half_vec_length(dim)} for dim {dim}")
    rows, cols, scale = _half_vec_layout(dim)
    out = np.zeros((dim, dim))
    out[rows, cols] = vec / scale
    return out + np.triu(out, 1).T


def covariance_descriptor(features: np.ndarray, source_id: str = "") -> CovarianceDescriptor:
    """Sample covariance over frames plus a trace-scaled identity ridge."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 2:
        raise ValueError(
            f"descriptor {source_id!r}: covariance needs a matrix with at least "
            f"2 frames, got shape {features.shape}"
        )
    if not np.all(np.isfinite(features)):
        raise ValueError(f"descriptor {source_id!r}: features contain non-finite values")
    centered = features - features.mean(axis=0)
    trace = float(np.einsum("ij,ij->", centered, centered)) / (features.shape[0] - 1)
    dim = features.shape[1]
    if trace <= 0.0:
        # constant features carry no covariance structure at all
        return CovarianceDescriptor(np.zeros_like(centered), CONSTANT_FEATURE_EPS, source_id)
    return CovarianceDescriptor(centered, DESCRIPTOR_RIDGE_SCALE * trace / dim, source_id)


def log_embed(desc: CovarianceDescriptor) -> np.ndarray:
    """Half-vectorized matrix logarithm of an SPD descriptor.

    The descriptor is never decomposed at dim x dim size when it has
    fewer frames than dimensions. With C its centered frames
    (n x dim), m = n - 1 and ρ its ridge, Σ = CᵀC/m + ρI, and the nonzero
    eigenvalues μ of CᵀC are those of the n x n Gram matrix C Cᵀ = U M Uᵀ,
    with orthonormal eigenvectors V = Cᵀ U M^(-1/2) (kept under the rank
    rule of :func:`_gram_eigenpairs`). On span(V) Σ has eigenvalues
    μ/m + ρ, and on its orthogonal complement, the null space of the
    frames, only the ridge ρ. So ``log Σ = log(ρ) I + V diag(log1p(μ/(mρ)))
    Vᵀ``, the same matrix the dense decomposition gives; ``log1p`` keeps
    the directions whose μ is small beside mρ exact instead of rounding
    ``log(μ/m + ρ)`` against ``log ρ``. With n >= dim, μ and V are the
    eigenpairs of CᵀC itself, under the same rank rule.
    """
    centered, ridge = desc.centered, desc.ridge
    n, dim = centered.shape
    if n < dim:
        mu, u = _gram_eigenpairs(centered)
        vec = centered.T @ (u / np.sqrt(mu))
    else:
        mu, vec = _gram_eigenpairs(centered.T)
    log_mat = (vec * np.log1p(mu / ((n - 1) * ridge))) @ vec.T
    log_mat[np.diag_indices(dim)] += np.log(ridge)
    return half_vec(0.5 * (log_mat + log_mat.T))


def _class_partitions(labels: np.ndarray, n_classes: int) -> list:
    return [np.flatnonzero(labels == c) for c in range(n_classes)]


def _gram_eigenpairs(rows: np.ndarray) -> tuple:
    """``(lam, u)``: the eigenpairs of the rows' n x n Gram matrix
    ``rows @ rows.T`` that stand above rounding."""
    return _span_eigenpairs(rows @ rows.T, max(rows.shape))


def _span_eigenpairs(gram: np.ndarray, size: int) -> tuple:
    """``(lam, u)``: the eigenpairs of the Gram matrix of n rows that stand
    above rounding, ``size`` being the larger of n and the rows' width."""
    lam, u = np.linalg.eigh(gram)
    # the rank rule is on λ = σ², with a tolerance linear in ε, not the ε²
    # that squaring a rule on σ would give: a Gram eigenvalue carries an
    # absolute rounding error of about n·ε·λ_max, so anything below
    # max(n, width)·ε·λ_max is rounding
    keep = lam > lam.max(initial=0.0) * size * np.finfo(np.float64).eps
    return lam[keep], u[:, keep]


def _generalized_eigh(a: np.ndarray, b: np.ndarray) -> tuple:
    """``(λ, v)`` of ``a v = λ b v`` for symmetric a and positive definite b:
    eigenvalues ascending, eigenvectors b-orthonormal, as ``scipy.linalg.eigh(a, b)``.

    The Cholesky reduction of LAPACK ``sygv``: with ``b = L Lᵀ`` the problem
    becomes the standard one ``(L⁻¹ a L⁻ᵀ) u = λ u``, and ``v = L⁻ᵀ u``.
    """
    lower = np.linalg.cholesky(b)
    reduced = np.linalg.solve(lower, np.linalg.solve(lower, a).T)
    lam, u = np.linalg.eigh((reduced + reduced.T) / 2.0)
    return lam, np.linalg.solve(lower.T, u)


@dataclass(eq=False)
class CentredEmbeddings:
    """Log embeddings centred on their mean, n x d_vec, with that mean and
    their n x n Gram matrix ``centred @ centred.T``: what :func:`fit_cdl`
    fits on, on all n rows or on a subset of them."""

    centred: np.ndarray
    mean: np.ndarray
    gram: np.ndarray


def centre_embeddings(embeddings) -> CentredEmbeddings:
    """Centre the embeddings on their mean and form their Gram matrix.

    Given as an n x d_vec float64 array, the embeddings are centred in
    place, with no copy made, and the array is left holding the centered
    embeddings; any other form is stacked into a new array first.
    """
    centred = np.asarray(embeddings, dtype=np.float64)
    mean = centred.mean(axis=0)
    centred -= mean
    return CentredEmbeddings(centred, mean, centred @ centred.T)


def fit_cdl(
    data: CentredEmbeddings, labels, n_classes: int, *, rows=None
) -> CdlProjection:
    """Fisher discriminant over centered log embeddings (see :func:`log_embed`).

    ``data`` holds one embedding per clip, centred by
    :func:`centre_embeddings`. The fit is on the clips ``rows`` index
    (None: all of them), with one label each in ``range(n_classes)``.

    The fit works in kernel form, with no copy of the rows and no scatter
    matrix at full size. With E the embeddings centred on the mean m of all
    n, the rows S centred on their own mean are ``X = E_S - 1 δᵀ``, where
    ``δ = (1_S / |S|)ᵀ E`` is their mean's offset from m. With ``G = E Eᵀ``,
    ``r`` the row means of ``G_SS`` and ``q`` the mean of ``r``, their Gram
    matrix is ``X Xᵀ = G_SS - r 1ᵀ - 1 rᵀ + q``. Since E is already
    centred, the correction subtracts terms of the size of δ, not of m, so
    a large common offset in the embeddings loses no precision.

    All generalized eigenvectors of interest live in the span of the rows
    of X, so the problem is solved in that span and mapped back. The
    eigenpairs ``X Xᵀ = U Λ Uᵀ`` give the clips' coordinates ``U √Λ`` in an
    orthonormal basis ``(U / √Λ)ᵀ X`` of the span. That is the basis of the
    right singular vectors of X up to a rotation, which rotates both
    scatters (and leaves the γ·I shrinkage as it is), so the generalized
    eigenvectors absorb it: the projection equals the one an SVD of X gives
    up to rounding and a per-axis sign, and neither changes a centroid
    distance. With ``T = (U / √Λ) V``, V the top generalized eigenvectors,
    the projection ``Tᵀ X = (T̃ - 1_S T̄ᵀ)ᵀ E``, with T̃ the coefficients T
    zero-padded to n rows and T̄ their column means, is one product over
    the whole stack, which also gives δ, so the model's mean is ``m + δ``.
    The clips' projections ``X Xᵀ T`` come from the Gram matrix alone.
    """
    labels = np.asarray(labels, dtype=np.int64)
    centred = data.centred
    n, d_vec = centred.shape
    dim = half_vec_dim(d_vec)
    rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
    if rows.size != labels.shape[0]:
        raise ValueError("need one label per embedding")
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    if np.any(labels < 0) or np.any(labels >= n_classes):
        raise ValueError("labels out of range")
    parts = _class_partitions(labels, n_classes)
    for c, idx in enumerate(parts):
        if idx.size < 2:
            raise ValueError(f"class {c} has {idx.size} embeddings, need at least 2")

    # the Gram matrix of the rows centred on their own mean
    gram = data.gram[np.ix_(rows, rows)]
    row_means = gram.mean(axis=1)
    gram -= row_means[:, None]
    gram -= row_means[None, :]
    gram += row_means.mean()

    lam, u = _span_eigenpairs(gram, max(gram.shape[0], d_vec))
    root = np.sqrt(lam)
    rank = root.size
    if rank == 0:
        raise ValueError("all embeddings are identical; scatter is degenerate")

    # the clips' coordinates in the span basis (u / root)ᵀ @ centered
    reduced = u * root
    class_means = np.stack([reduced[idx].mean(axis=0) for idx in parts])
    within = reduced - class_means[labels]
    scatter_w = within.T @ within
    counts = np.array([idx.size for idx in parts], dtype=np.float64)
    between_rows = class_means * np.sqrt(counts)[:, None]
    scatter_b = between_rows.T @ between_rows

    # within-class rows stay inside the span, so this trace equals the
    # full-dimensional one and the shrinkage level is unchanged
    gamma = SHRINKAGE_SCALE * float(np.trace(scatter_w)) / d_vec
    if gamma <= 0.0:
        gamma = 1e-12
    _, eigvecs = _generalized_eigh(scatter_b, scatter_w + gamma * np.eye(rank))
    d_out = min(n_classes - 1, rank)
    top = eigvecs[:, ::-1][:, :d_out]
    coef = (u / root) @ top

    # (T̃ - 1_S T̄ᵀ) and 1_S / |S| side by side: Tᵀ X and δ in one product;
    # T̄ is 0 in exact arithmetic (u ⟂ 1, as X Xᵀ 1 = 0), and subtracting
    # it keeps its rounding, times δ, out of the projection
    weights = np.zeros((n, d_out + 1))
    weights[rows, :d_out] = coef - coef.mean(axis=0)
    weights[rows, d_out] = 1.0 / rows.size
    product = weights.T @ centred
    projected = gram @ coef
    centroids = np.stack([projected[idx].mean(axis=0) for idx in parts])
    return CdlProjection(
        projection=product[:d_out],
        class_centroids=centroids,
        train_mean=data.mean + product[d_out],
        dim=dim,
    )


def project_embedding(proj: CdlProjection, embedding: np.ndarray) -> np.ndarray:
    embedding = np.asarray(embedding, dtype=np.float64)
    if embedding.shape != proj.train_mean.shape:
        raise ValueError(
            f"embedding of shape {embedding.shape} does not match model dim {proj.dim}"
        )
    return proj.projection @ (embedding - proj.train_mean)


def classify_cdl(proj: CdlProjection, query: np.ndarray) -> np.ndarray:
    """Raw per-class scores of a query's log embedding: negated distances to
    the class centroids in the projected space."""
    point = project_embedding(proj, query)
    return -np.linalg.norm(proj.class_centroids - point[None, :], axis=1)


def save_cdl_model(path, proj: CdlProjection, family: str, class_names) -> None:
    """Write the feature family and class names (one per centroid row, in
    row order), then the projection, centroids and mean (bit-exact round-trip)."""
    parts = [
        pack_model_header(family, class_names, proj.n_classes),
        pack_u32(proj.dim),
        pack_u32(proj.d_out),
        pack_u32(proj.n_classes),
        pack_floats(proj.projection),
        pack_floats(proj.class_centroids),
        pack_floats(proj.train_mean),
    ]
    with open(path, "wb") as fh:
        write_container(fh, CDL_MODEL_MAGIC, CDL_MODEL_VERSION, parts)


def _parse_model(reader) -> tuple:
    family, class_names = read_model_header(reader)
    dim = reader.u32()
    d_out = reader.u32()
    n_classes = reader.u32()
    d_vec = half_vec_length(dim)
    projection = reader.floats(d_out * d_vec).reshape(d_out, d_vec)
    centroids = reader.floats(n_classes * d_out).reshape(n_classes, d_out)
    mean = reader.floats(d_vec)
    return family, class_names, CdlProjection(
        projection=projection, class_centroids=centroids, train_mean=mean, dim=dim
    )


def load_cdl_model(path) -> tuple:
    """``(family, class_names, projection)`` from a file of :func:`save_cdl_model`."""
    with open(path, "rb") as fh:
        return read_container(fh, CDL_MODEL_MAGIC, CDL_MODEL_VERSION, _parse_model)
