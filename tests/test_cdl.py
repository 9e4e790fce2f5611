"""Covariance descriptors, log embedding, discriminant projection."""

import numpy as np
import pytest
import scipy.linalg

from scenefuse import cdl as cdl_mod
from scenefuse.cdl import (
    CdlProjection,
    CovarianceDescriptor,
    centre_embeddings,
    classify_cdl,
    covariance_descriptor,
    fit_cdl,
    half_vec,
    half_vec_inverse,
    half_vec_length,
    load_cdl_model,
    log_embed,
    project_embedding,
    save_cdl_model,
)
from scenefuse.fusion import stratified_folds


def dense_matrix(desc):
    """The matrix a descriptor stands for, ``Cᵀ C / (n - 1) + ρ I``, formed densely."""
    cov = desc.centered.T @ desc.centered / (desc.centered.shape[0] - 1)
    return 0.5 * (cov + cov.T) + desc.ridge * np.eye(desc.dim)


def dense_log_embed(matrix):
    """The dense oracle for :func:`log_embed`: the half-vectorized logarithm
    of a symmetric positive-definite matrix, from its full ``eigh``."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix contains non-finite values")
    if np.abs(matrix - matrix.T).max() > 1e-10:
        raise ValueError("matrix is not symmetric")
    lam, vec = np.linalg.eigh(matrix)
    if lam[0] <= 0.0:
        raise ValueError(f"matrix is not positive definite (smallest eigenvalue {lam[0]:.3e})")
    log_mat = (vec * np.log(lam)[None, :]) @ vec.T
    return half_vec(0.5 * (log_mat + log_mat.T))


def ridge_only(dim):
    """A descriptor of frames that carry no covariance at all, standing for
    the identity: two all-zero centered frames with ridge 1."""
    return CovarianceDescriptor(np.zeros((2, dim)), 1.0)


def random_descriptor(rng, dim, frames=None):
    frames = frames or (dim + 10)
    return covariance_descriptor(rng.standard_normal((frames, dim)))


def embed(descriptors):
    return [log_embed(d) for d in descriptors]


def class_descriptors(rng, scales, count, frames=200):
    """Descriptors of Gaussian frames with a per-dimension scale pattern."""
    out = []
    for _ in range(count):
        feats = rng.standard_normal((frames, len(scales))) * np.asarray(scales)
        out.append(covariance_descriptor(feats))
    return out


class TestHalfVec:
    def test_length(self):
        assert half_vec_length(1) == 1
        assert half_vec_length(4) == 10
        assert half_vec_length(40) == 820

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for dim in (1, 2, 5, 9):
            m = rng.standard_normal((dim, dim))
            sym = 0.5 * (m + m.T)
            vec = half_vec(sym)
            assert vec.shape == (half_vec_length(dim),)
            assert np.allclose(half_vec_inverse(vec, dim), sym, atol=1e-12)

    def test_norm_preserved(self):
        # the sqrt(2) off-diagonal scaling makes the map an isometry
        rng = np.random.default_rng(1)
        m = rng.standard_normal((6, 6))
        sym = 0.5 * (m + m.T)
        assert np.linalg.norm(half_vec(sym)) == pytest.approx(
            np.linalg.norm(sym, ord="fro"), rel=1e-12
        )

    def test_ordering(self):
        sym = np.array([[1.0, 2.0], [2.0, 3.0]])
        vec = half_vec(sym)
        assert vec[0] == 1.0
        assert vec[1] == pytest.approx(2.0 * np.sqrt(2))
        assert vec[2] == 3.0

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            half_vec_inverse(np.zeros(4), 2)


class TestCovarianceDescriptor:
    def test_two_frame_hand_value(self):
        desc = covariance_descriptor(np.array([[0.0], [2.0]]))
        # variance 2 plus ridge 1e-3 * 2 / 1
        assert dense_matrix(desc)[0, 0] == pytest.approx(2.002, rel=1e-12)

    def test_white_frames_near_identity(self):
        rng = np.random.default_rng(2)
        desc = covariance_descriptor(rng.standard_normal((10000, 4)))
        assert np.abs(dense_matrix(desc) - np.eye(4)).max() < 0.1

    def test_positive_definite(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            feats = rng.standard_normal((8, 6))  # fewer frames than needed for full rank
            desc = covariance_descriptor(feats)
            lam = np.linalg.eigvalsh(dense_matrix(desc))
            trace = np.trace(np.cov(feats.T, bias=False))
            assert lam.min() >= 1e-3 * trace / 6 * (1 - 1e-9)

    def test_frame_order_invariant(self):
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((30, 5))
        shuffled = feats[rng.permutation(30)]
        a = covariance_descriptor(feats)
        b = covariance_descriptor(shuffled)
        assert np.allclose(dense_matrix(a), dense_matrix(b), atol=1e-12)

    def test_constant_features(self):
        desc = covariance_descriptor(np.full((10, 3), 2.0))
        assert np.array_equal(dense_matrix(desc), 1e-6 * np.eye(3))

    def test_too_few_frames_rejected(self):
        with pytest.raises(ValueError, match="at least 2 frames"):
            covariance_descriptor(np.ones((1, 3)))

    @pytest.mark.parametrize(
        "feats",
        [np.ones((1, 3)), np.array([[np.inf, 0.0], [1.0, 1.0]])],
        ids=["one-frame", "non-finite"],
    )
    def test_errors_name_the_clip(self, feats):
        with pytest.raises(ValueError, match="descriptor 'beach/a.wav'"):
            covariance_descriptor(feats, source_id="beach/a.wav")

    def test_nonfinite_rejected(self):
        feats = np.ones((5, 2))
        feats[0, 0] = np.inf
        with pytest.raises(ValueError):
            covariance_descriptor(feats)

    def test_descriptor_validation(self):
        # the dense oracle takes a matrix, and refuses what no descriptor stands for
        with pytest.raises(ValueError, match="square"):
            dense_log_embed(np.ones((2, 3)))
        with pytest.raises(ValueError, match="symmetric"):
            dense_log_embed(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestLogEmbed:
    def test_identity_maps_to_zero(self):
        assert np.abs(log_embed(ridge_only(3))).max() == 0.0

    def test_diagonal_hand_value(self):
        # frames (±a, 0) with ridge 1 stand for diag(2a² + 1, 1) = diag(e², 1)
        a = np.sqrt((np.e**2 - 1.0) / 2.0)
        desc = CovarianceDescriptor(np.array([[a, 0.0], [-a, 0.0]]), 1.0)
        assert np.allclose(log_embed(desc), [2.0, 0.0, 0.0], atol=1e-12)

    def test_round_trip_through_expm(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            desc = random_descriptor(rng, dim)
            vec = log_embed(desc)
            back = scipy.linalg.expm(half_vec_inverse(vec, dim))
            rel = np.linalg.norm(back - dense_matrix(desc), "fro") / np.linalg.norm(
                dense_matrix(desc), "fro"
            )
            assert rel < 1e-8

    def test_embedding_distance_is_log_frobenius(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            dim = int(rng.integers(2, 7))
            d1 = random_descriptor(rng, dim)
            d2 = random_descriptor(rng, dim)
            got = np.linalg.norm(log_embed(d1) - log_embed(d2))
            want = np.linalg.norm(
                scipy.linalg.logm(dense_matrix(d1)) - scipy.linalg.logm(dense_matrix(d2)), "fro"
            )
            assert abs(got - want) < 1e-10 * max(want, 1.0)

    def test_non_spd_rejected(self):
        with pytest.raises(ValueError, match="not positive definite"):
            dense_log_embed(np.diag([1.0, -0.5]))


class TestFrameLogEmbed:
    """A descriptor built from frames is log-embedded from the eigenpairs of
    its frames' Gram matrix; the dense ``eigh`` of the matrix it stands for
    is the reference."""

    @staticmethod
    def dense(desc):
        return dense_log_embed(dense_matrix(desc))

    def assert_matches_dense(self, feats):
        desc = covariance_descriptor(feats)
        want = self.dense(desc)
        got = log_embed(desc)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
        return desc, got

    @pytest.mark.parametrize("dim", [3, 12, 240])
    @pytest.mark.parametrize("frames", ["2", "d-1", "d", "d+1", "3d"])
    def test_matches_dense(self, dim, frames):
        n = {"2": 2, "d-1": dim - 1, "d": dim, "d+1": dim + 1, "3d": 3 * dim}[frames]
        rng = np.random.default_rng(dim * 1000 + n)
        feats = rng.standard_normal((max(n, 2), dim)) + rng.standard_normal(dim)
        self.assert_matches_dense(feats)

    @pytest.mark.parametrize("dim", [3, 12, 240])
    @pytest.mark.parametrize("frames", [2, 40, 1000])
    def test_scales_spanning_1e6(self, dim, frames):
        rng = np.random.default_rng(dim + frames)
        scales = np.logspace(-3, 3, dim)[rng.permutation(dim)]
        self.assert_matches_dense(rng.standard_normal((frames, dim)) * scales)

    @pytest.mark.parametrize("frames", [2, 5, 40])
    def test_constant_features(self, frames):
        desc, got = self.assert_matches_dense(np.full((frames, 12), 2.0))
        assert np.array_equal(got, half_vec(np.log(1e-6) * np.eye(12)))

    def test_constant_column_matches_dense(self):
        rng = np.random.default_rng(40)
        feats = rng.standard_normal((30, 12))
        feats[:, 4] = 3.0
        self.assert_matches_dense(feats)

    @pytest.mark.parametrize("dim,frames", [(12, 5), (240, 42), (240, 128)])
    def test_null_space_holds_log_ridge(self, dim, frames):
        # directions orthogonal to every centered frame carry only the ridge
        rng = np.random.default_rng(dim + frames)
        desc = covariance_descriptor(rng.standard_normal((frames, dim)))
        log_mat = half_vec_inverse(log_embed(desc), dim)
        null = scipy.linalg.null_space(desc.centered)
        assert null.shape[1] == dim - frames + 1
        along = null.T @ log_mat @ null
        want = np.log(desc.ridge) * np.eye(null.shape[1])
        assert np.abs(along - want).max() <= 1e-12 * abs(np.log(desc.ridge))

    def test_descriptor_holds_centered_frames_and_ridge(self):
        rng = np.random.default_rng(41)
        feats = rng.standard_normal((20, 6))
        desc = covariance_descriptor(feats, source_id="park/a.wav")
        centered = feats - feats.mean(axis=0)
        assert desc.source_id == "park/a.wav"
        assert np.array_equal(desc.centered, centered)
        cov = centered.T @ centered / 19
        assert desc.ridge == pytest.approx(1e-3 * np.trace(cov) / 6, rel=1e-14)


class TestFitCdl:
    def test_projection_aligns_with_discriminative_axis(self):
        # large per-class samples so the within-class scatter estimate is
        # tight; small samples legitimately tilt the discriminant toward
        # whatever noise correlation the draw happened to contain
        rng = np.random.default_rng(7)
        embeddings, labels = [], []
        for cls, mean_a in enumerate((0.0, 5.0)):
            for _ in range(200):
                a = mean_a + 0.1 * rng.standard_normal()
                b = 0.1 * rng.standard_normal()
                embeddings.append(dense_log_embed(np.diag([np.exp(a), np.exp(b)])))
                labels.append(cls)
        proj = fit_cdl(centre_embeddings(np.array(embeddings)), labels, 2)
        assert proj.d_out == 1
        direction = proj.projection[0] / np.linalg.norm(proj.projection[0])
        # embedding component 0 carries the class separation; the
        # off-diagonal slot is constant zero and must get no weight
        assert abs(direction[0]) > np.cos(np.deg2rad(5))
        assert direction[1] == 0.0

    def test_output_dimension_cap(self):
        rng = np.random.default_rng(8)
        descriptors, labels = [], []
        for cls in range(15):
            for _ in range(3):
                descriptors.append(random_descriptor(rng, 5))
                labels.append(cls)
        proj = fit_cdl(centre_embeddings(np.array(embed(descriptors))), labels, 15)
        assert proj.d_out == 14
        assert proj.class_centroids.shape == (15, 14)
        assert proj.projection.shape == (14, half_vec_length(5))

    def test_train_mean_projects_to_zero(self):
        rng = np.random.default_rng(9)
        descriptors = [random_descriptor(rng, 4) for _ in range(8)]
        labels = [0, 0, 0, 0, 1, 1, 1, 1]
        embeddings = embed(descriptors)
        proj = fit_cdl(centre_embeddings(np.array(embeddings)), labels, 2)
        mean_matrix = scipy.linalg.expm(half_vec_inverse(proj.train_mean, 4))
        query = dense_log_embed(0.5 * (mean_matrix + mean_matrix.T))
        point = project_embedding(proj, query)
        scale = max(np.abs(project_embedding(proj, e)).max() for e in embeddings)
        assert np.abs(point).max() < 1e-8 * scale

    def test_three_class_accuracy(self):
        rng = np.random.default_rng(10)
        patterns = [(1, 1, 1, 1, 1), (3, 1, 1, 1, 1), (1, 3, 1, 1, 1)]
        train_desc, train_labels, test_desc, test_labels = [], [], [], []
        for cls, scales in enumerate(patterns):
            descs = class_descriptors(rng, scales, 12)
            train_desc += descs[:9]
            train_labels += [cls] * 9
            test_desc += descs[9:]
            test_labels += [cls] * 3
        proj = fit_cdl(centre_embeddings(np.array(embed(train_desc))), train_labels, 3)
        hits = sum(
            int(np.argmax(classify_cdl(proj, log_embed(d))) == want)
            for d, want in zip(test_desc, test_labels)
        )
        assert hits == len(test_desc)

    def test_label_permutation_permutes_predictions(self):
        rng = np.random.default_rng(11)
        patterns = [(1, 1, 1), (4, 1, 1), (1, 4, 1)]
        descriptors, labels = [], []
        for cls, scales in enumerate(patterns):
            descriptors += class_descriptors(rng, scales, 4)
            labels += [cls] * 4
        perm = [2, 0, 1]
        base = fit_cdl(centre_embeddings(np.array(embed(descriptors))), labels, 3)
        swapped = fit_cdl(
            centre_embeddings(np.array(embed(descriptors))), [perm[c] for c in labels], 3
        )
        queries = [class_descriptors(rng, p, 1)[0] for p in patterns]
        for q in queries:
            want = int(np.argmax(classify_cdl(base, log_embed(q))))
            got = int(np.argmax(classify_cdl(swapped, log_embed(q))))
            assert got == perm[want]

    def test_rejects_single_class(self):
        rng = np.random.default_rng(12)
        descs = [random_descriptor(rng, 3) for _ in range(4)]
        with pytest.raises(ValueError, match="at least 2 classes"):
            fit_cdl(centre_embeddings(np.array(embed(descs))), [0, 0, 0, 0], 1)

    def test_rejects_small_class(self):
        rng = np.random.default_rng(13)
        descs = [random_descriptor(rng, 3) for _ in range(3)]
        with pytest.raises(ValueError, match="at least 2"):
            fit_cdl(centre_embeddings(np.array(embed(descs))), [0, 0, 1], 2)

    def test_rejects_label_count_mismatch(self):
        rng = np.random.default_rng(14)
        descs = [random_descriptor(rng, 3) for _ in range(4)]
        with pytest.raises(ValueError, match="one label per embedding"):
            fit_cdl(centre_embeddings(np.array(embed(descs))), [0, 0, 1], 2)

    def test_rejects_identical_embeddings(self):
        desc = ridge_only(3)
        with pytest.raises(ValueError, match="degenerate"):
            fit_cdl(centre_embeddings(np.array(embed([desc, desc, desc, desc]))), [0, 0, 1, 1], 2)


def svd_eigenpairs(centered):
    """The span step in SVD form, as ``(sigma**2, u)`` of the centered
    stack, with the rank rule on the singular values: the reference that
    :func:`fit_cdl`'s Gram-matrix eigenpairs must match."""
    u, svals, _ = np.linalg.svd(centered, full_matrices=False)
    tol = svals.max(initial=0.0) * max(centered.shape) * np.finfo(np.float64).eps
    keep = svals > tol
    return svals[keep] ** 2, u[:, keep]


class TestGramSpan:
    """The Gram-matrix span gives the model that an SVD of the stack gives:
    the same rank, and scores equal up to rounding."""

    def assert_matches_svd(self, monkeypatch, embeddings, labels, queries):
        centered = np.array(embeddings) - np.mean(embeddings, axis=0)
        n_classes = len(set(labels))
        assert cdl_mod._gram_eigenpairs(centered)[0].size == svd_eigenpairs(centered)[0].size
        gram = fit_cdl(centre_embeddings(np.array(embeddings)), labels, n_classes)
        with monkeypatch.context() as patched:
            # the span step from an SVD of the stack the fit centres
            patched.setattr(cdl_mod, "_span_eigenpairs", lambda *_: svd_eigenpairs(centered))
            reference = fit_cdl(centre_embeddings(np.array(embeddings)), labels, n_classes)
        assert not np.array_equal(gram.projection, reference.projection)
        assert gram.d_out == reference.d_out
        got = np.array([classify_cdl(gram, q) for q in queries])
        want = np.array([classify_cdl(reference, q) for q in queries])
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
        assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))

    def problem(self, rng, dim, count, n_classes=3, frames=200):
        patterns = np.ones((n_classes, dim))
        patterns[np.arange(n_classes), np.arange(n_classes) % dim] = 3.0
        descriptors, labels = [], []
        for cls, scales in enumerate(patterns):
            descriptors += class_descriptors(rng, scales, count, frames)
            labels += [cls] * count
        queries = [class_descriptors(rng, p, 2, frames) for p in patterns]
        return embed(descriptors), labels, embed(sum(queries, []))

    def test_random_embeddings(self, monkeypatch):
        embeddings, labels, queries = self.problem(np.random.default_rng(30), 5, 6)
        self.assert_matches_svd(monkeypatch, embeddings, labels, queries)

    def test_duplicated_embedding(self, monkeypatch):
        embeddings, labels, queries = self.problem(np.random.default_rng(31), 5, 6)
        embeddings[1] = embeddings[0].copy()
        self.assert_matches_svd(monkeypatch, embeddings, labels, queries + embeddings[:1])

    def test_more_clips_than_embedding_length(self, monkeypatch):
        embeddings, labels, queries = self.problem(np.random.default_rng(32), 3, 10)
        assert len(embeddings) > half_vec_length(3)
        self.assert_matches_svd(monkeypatch, embeddings, labels, queries)

    def test_cepscom_width(self, monkeypatch):
        # the width of the cepscom descriptors: 240 x 240, 28,920 per embedding
        embeddings, labels, queries = self.problem(
            np.random.default_rng(33), 240, 10, n_classes=4, frames=300
        )
        self.assert_matches_svd(monkeypatch, embeddings, labels, queries)


class TestGeneralizedEigh:
    """fit_cdl's Cholesky-reduced solve against scipy.linalg.eigh(a, b)."""

    def scatters(self, rng, rank, n_between):
        rows = rng.standard_normal((n_between, rank)) * 10.0 ** rng.uniform(-3, 3, rank)
        within = rng.standard_normal((3 * rank, rank)) * 10.0 ** rng.uniform(-3, 3, rank)
        scatter_w = within.T @ within
        gamma = 1e-2 * np.trace(scatter_w) / rank
        return rows.T @ rows, scatter_w + gamma * np.eye(rank)

    @pytest.mark.parametrize("rank, n_between", [(1, 1), (4, 2), (30, 4), (120, 4)])
    def test_matches_scipy(self, rank, n_between):
        a, b = self.scatters(np.random.default_rng(rank), rank, n_between)
        lam, vecs = cdl_mod._generalized_eigh(a, b)
        want = scipy.linalg.eigh(a, b, eigvals_only=True)
        assert np.abs(lam - want).max() <= 1e-10 * np.abs(want).max()
        assert np.abs(vecs.T @ b @ vecs - np.eye(rank)).max() <= 1e-10
        assert np.abs(a @ vecs - (b @ vecs) * lam).max() <= 1e-10 * np.abs(a).max()

    def test_fit_cdl_scores_match_scipy_solve(self, monkeypatch):
        rng = np.random.default_rng(34)
        embeddings, labels, queries = TestGramSpan().problem(rng, 8, 6, n_classes=4)
        got = fit_cdl(centre_embeddings(np.array(embeddings)), labels, 4)
        monkeypatch.setattr(cdl_mod, "_generalized_eigh", scipy.linalg.eigh)
        reference = fit_cdl(centre_embeddings(np.array(embeddings)), labels, 4)
        got_scores = np.array([classify_cdl(got, q) for q in queries])
        want_scores = np.array([classify_cdl(reference, q) for q in queries])
        assert np.abs(got_scores - want_scores).max() <= 1e-10 * np.abs(want_scores).max()
        assert np.array_equal(got_scores.argmax(axis=1), want_scores.argmax(axis=1))


class TestFoldFit:
    """A fit on some rows of centred embeddings, in kernel form as each CV
    fold is, against fit_cdl on a copy of those rows."""

    @pytest.mark.parametrize(
        "dim, offset",
        # a large common offset would show cancellation in the Gram correction
        [(8, 0.0), (8, 1e4), (240, 1e4)],
    )
    def test_held_out_scores_match_a_fit_on_the_rows(self, dim, offset):
        rng = np.random.default_rng(35)
        embeddings, labels, _ = TestGramSpan().problem(rng, dim, 8, frames=300)
        embeddings = np.array(embeddings) + offset * rng.standard_normal(len(embeddings[0]))
        labels = np.array(labels)
        data = centre_embeddings(embeddings.copy())
        centred, gram = data.centred.copy(), data.gram.copy()
        fold_of = stratified_folds(labels, 4, seed=0)
        for fold in range(4):
            rows, held = np.flatnonzero(fold_of != fold), np.flatnonzero(fold_of == fold)
            got_model = fit_cdl(data, labels[rows], 3, rows=rows)
            want_model = fit_cdl(centre_embeddings(embeddings[rows]), labels[rows], 3)
            # held-out rows are scored as the pipeline scores them
            got = np.array([classify_cdl(got_model, data.centred[i] + data.mean) for i in held])
            want = np.array([classify_cdl(want_model, embeddings[i]) for i in held])
            assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()
            assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))
        # the folds leave the centred rows and their Gram matrix as they were
        assert np.array_equal(data.centred, centred) and np.array_equal(data.gram, gram)

    def test_the_default_fit_is_the_fit_on_every_row(self, tmp_path):
        # one algorithm: the final fit is the fold fit with S = all rows
        rng = np.random.default_rng(38)
        embeddings, labels, _ = TestGramSpan().problem(rng, 8, 8, frames=300)
        data = centre_embeddings(np.array(embeddings) + 1e4)
        blobs = []
        for rows in (None, np.arange(len(labels))):
            path = tmp_path / "model.sfc"
            save_cdl_model(path, fit_cdl(data, labels, 3, rows=rows), "cepscom", ["a", "b", "c"])
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_rows_need_one_label_each(self):
        rng = np.random.default_rng(37)
        embeddings, labels, _ = TestGramSpan().problem(rng, 3, 4)
        data = centre_embeddings(np.array(embeddings))
        with pytest.raises(ValueError, match="one label per embedding"):
            fit_cdl(data, labels[:6], 3, rows=np.arange(5))


class TestClassify:
    def test_duplicated_training_descriptor_scores_zero(self):
        rng = np.random.default_rng(16)
        shared = random_descriptor(rng, 3)
        descs = [shared, shared, random_descriptor(rng, 3), random_descriptor(rng, 3)]
        proj = fit_cdl(centre_embeddings(np.array(embed(descs))), [0, 0, 1, 1], 2)
        scores = classify_cdl(proj, log_embed(shared))
        # the class-0 centroid sits exactly on the query's projection
        assert scores[0] == pytest.approx(0.0, abs=1e-8)
        assert scores[1] < scores[0]
        assert int(np.argmax(scores)) == 0

    def test_equidistant_tie_breaks_low(self):
        proj = CdlProjection(
            projection=np.array([[1.0]]),
            class_centroids=np.array([[1.0], [-1.0]]),
            train_mean=np.array([0.0]),
            dim=1,
        )
        scores = classify_cdl(proj, log_embed(ridge_only(1)))
        assert scores[0] == scores[1] == -1.0
        assert int(np.argmax(scores)) == 0

    def test_monotone_transform_keeps_argmax(self):
        rng = np.random.default_rng(17)
        patterns = [(1, 1, 1), (3, 1, 1)]
        descriptors, labels = [], []
        for cls, scales in enumerate(patterns):
            descriptors += class_descriptors(rng, scales, 3)
            labels += [cls] * 3
        proj = fit_cdl(centre_embeddings(np.array(embed(descriptors))), labels, 2)
        for _ in range(5):
            q = random_descriptor(rng, 3)
            scores = classify_cdl(proj, log_embed(q))
            transformed = 3.0 * scores - 7.0
            assert int(np.argmax(scores)) == int(np.argmax(transformed))

    def test_dim_mismatch_rejected(self):
        rng = np.random.default_rng(20)
        descs = [random_descriptor(rng, 3) for _ in range(4)]
        proj = fit_cdl(centre_embeddings(np.array(embed(descs))), [0, 0, 1, 1], 2)
        with pytest.raises(ValueError, match="does not match model dim"):
            project_embedding(proj, log_embed(random_descriptor(rng, 4)))


class TestModelFile:
    def build(self):
        rng = np.random.default_rng(21)
        patterns = [(1, 1, 1, 1), (3, 1, 1, 1), (1, 3, 1, 1)]
        descriptors, labels = [], []
        for cls, scales in enumerate(patterns):
            descriptors += class_descriptors(rng, scales, 4)
            labels += [cls] * 4
        return fit_cdl(centre_embeddings(np.array(embed(descriptors))), labels, 3), descriptors

    def test_round_trip(self, tmp_path):
        proj, descs = self.build()
        path = tmp_path / "model.sfc"
        save_cdl_model(path, proj, "cepscom", ["a", "b", "c"])
        family, class_names, back = load_cdl_model(path)
        assert (family, class_names) == ("cepscom", ["a", "b", "c"])
        assert back.dim == proj.dim and back.d_out == proj.d_out
        assert np.array_equal(back.projection, proj.projection)
        assert np.array_equal(back.class_centroids, proj.class_centroids)
        assert np.array_equal(back.train_mean, proj.train_mean)
        for d in descs[:3]:
            assert np.array_equal(classify_cdl(back, log_embed(d)), classify_cdl(proj, log_embed(d)))
        path2 = tmp_path / "model2.sfc"
        save_cdl_model(path2, back, family, class_names)
        assert path.read_bytes() == path2.read_bytes()

    def test_class_names_must_match_centroids(self, tmp_path):
        proj, _ = self.build()
        with pytest.raises(ValueError, match="2 class names for a 3-class model"):
            save_cdl_model(tmp_path / "model.sfc", proj, "cepscom", ["a", "b"])
