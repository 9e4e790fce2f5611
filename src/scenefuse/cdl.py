"""Clip-level covariance descriptors with discriminative projection.

A clip becomes a regularized covariance matrix over its frame features,
mapped to a flat vector through the matrix logarithm, projected by a
Fisher discriminant, and labeled by distance to the class centroids in the
projected space (Wang et al., "Covariance Discriminative Learning", CVPR 2012).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np
import scipy.linalg

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


@dataclass
class CovarianceDescriptor:
    """Symmetric positive-definite summary of one clip's feature frames."""

    matrix: np.ndarray
    source_id: str = ""

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError(f"descriptor {self.source_id!r}: matrix must be square")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError(f"descriptor {self.source_id!r}: matrix contains non-finite values")
        if np.abs(self.matrix - self.matrix.T).max() > 1e-10:
            raise ValueError(f"descriptor {self.source_id!r}: matrix is not symmetric")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


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
    cov = centered.T @ centered / (features.shape[0] - 1)
    cov = 0.5 * (cov + cov.T)
    trace = float(np.trace(cov))
    dim = cov.shape[0]
    if trace <= 0.0:
        # constant features carry no covariance structure at all
        return CovarianceDescriptor(CONSTANT_FEATURE_EPS * np.eye(dim), source_id)
    eps = DESCRIPTOR_RIDGE_SCALE * trace / dim
    return CovarianceDescriptor(cov + eps * np.eye(dim), source_id)


def log_embed(desc: CovarianceDescriptor) -> np.ndarray:
    """Half-vectorized matrix logarithm of an SPD descriptor."""
    lam, vec = np.linalg.eigh(desc.matrix)
    if lam[0] <= 0.0:
        raise ValueError(
            f"descriptor {desc.source_id!r} is not positive definite "
            f"(smallest eigenvalue {lam[0]:.3e})"
        )
    log_mat = (vec * np.log(lam)[None, :]) @ vec.T
    return half_vec(0.5 * (log_mat + log_mat.T))


def _class_partitions(labels: np.ndarray, n_classes: int) -> list:
    return [np.flatnonzero(labels == c) for c in range(n_classes)]


def fit_cdl(embeddings, labels, n_classes: int | None = None) -> CdlProjection:
    """Fisher discriminant over centered log embeddings (see :func:`log_embed`).

    The scatter matrices are never materialized at full size: all
    generalized eigenvectors of interest live in the span of the training
    embeddings, so the problem is solved in that span and mapped back.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if len(embeddings) != labels.shape[0]:
        raise ValueError("need one label per embedding")
    if n_classes is None:
        n_classes = int(labels.max()) + 1 if labels.size else 0
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    if np.any(labels < 0) or np.any(labels >= n_classes):
        raise ValueError("labels out of range")
    parts = _class_partitions(labels, n_classes)
    for c, idx in enumerate(parts):
        if idx.size < 2:
            raise ValueError(f"class {c} has {idx.size} embeddings, need at least 2")
    dims = {half_vec_dim(len(e)) for e in embeddings}
    if len(dims) != 1:
        raise ValueError(f"embeddings disagree on dim: {sorted(dims)}")
    dim = dims.pop()

    # a fresh stack, centered in place: the callers' embeddings stay as they are
    centered = np.array(embeddings, dtype=np.float64)
    d_vec = centered.shape[1]
    train_mean = centered.mean(axis=0)
    centered -= train_mean

    # basis of the span of the centered embeddings
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    tol = svals.max(initial=0.0) * max(centered.shape) * np.finfo(np.float64).eps
    rank = int((svals > tol).sum())
    if rank == 0:
        raise ValueError("all embeddings are identical; scatter is degenerate")
    basis = vt[:rank]

    reduced = centered @ basis.T
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
    eigvals, eigvecs = scipy.linalg.eigh(
        scatter_b, scatter_w + gamma * np.eye(rank)
    )
    d_out = min(n_classes - 1, rank)
    top = eigvecs[:, ::-1][:, :d_out]
    projection = (basis.T @ top).T

    projected = centered @ projection.T
    centroids = np.stack([projected[idx].mean(axis=0) for idx in parts])
    return CdlProjection(
        projection=projection, class_centroids=centroids, train_mean=train_mean, dim=dim
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
