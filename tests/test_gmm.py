"""EM training, likelihood evaluation, and the model bank container."""

import numpy as np
import pytest

from scenefuse.dataio import FeatureStoreError
from scenefuse.gmm import (
    EMPTY_COMPONENT_MASS,
    GmmBank,
    GmmModel,
    VARIANCE_FLOOR_ABS,
    VARIANCE_FLOOR_SCALE,
    _exp_normal,
    _kmeanspp_centers,
    classify_gmm,
    fit_gmm,
    load_gmm_bank,
    save_gmm_bank,
)

TINY = np.finfo(np.float64).tiny


def count_subnormal(values):
    return int(np.count_nonzero((values != 0.0) & (np.abs(values) < TINY)))


def naive_log_likelihood(model, features):
    """Loop-and-logsumexp reference evaluation."""
    total = 0.0
    for x in features:
        comps = []
        for w, mu, var in zip(model.weights, model.means, model.variances):
            ll = np.log(w) - 0.5 * np.sum(
                np.log(2 * np.pi * var) + (x - mu) ** 2 / var
            )
            comps.append(ll)
        comps = np.array(comps)
        peak = comps.max()
        total += peak + np.log(np.exp(comps - peak).sum())
    return total


def stacked_terms(models):
    """Every model's (mean/var, -0.5/var, log w + log-normaliser -
    0.5 sum(mean^2/var)), rebuilt from its arrays and stacked in order."""
    parts = []
    for model in models:
        inv_var = 1.0 / model.variances
        mean_inv_var = model.means * inv_var
        log_norm = -0.5 * (
            model.dim * np.log(2.0 * np.pi) + np.log(model.variances).sum(axis=1)
        )
        const = (
            np.log(model.weights) + log_norm - 0.5 * (model.means * mean_inv_var).sum(axis=1)
        )
        parts.append((mean_inv_var, -0.5 * inv_var, const))
    return [np.concatenate(stack) for stack in zip(*parts)]


def inline_exp_terms(models, features):
    """exp(component ll - peak) over each model's components, from the
    stacked terms and a plain ``np.exp``, which keeps subnormal terms;
    returns ``(peak, terms)`` as frames x models (x components)."""
    mean_inv_var, neg_half_inv_var, const = stacked_terms(models)
    comp = features @ mean_inv_var.T
    comp += features**2 @ neg_half_inv_var.T
    comp += const
    comp = comp.reshape(features.shape[0], len(models), -1)
    peak = comp.max(axis=2)
    return peak, np.exp(comp - peak[:, :, None])


def inline_formula_scores(bank, features):
    """The bit-for-bit oracle for classify_gmm: one stacked pass per clip,
    every term kept."""
    peak, terms = inline_exp_terms(bank.models, features)
    return (peak + np.log(terms.sum(axis=2))).sum(axis=0)


def two_pass_component_ll(model, features):
    """Component log-likelihoods as they read before the terms were folded
    into one constant: five frames x K passes."""
    inv_var = 1.0 / model.variances
    quad = (
        features**2 @ inv_var.T
        - 2.0 * (features @ (model.means * inv_var).T)
        + (model.means**2 * inv_var).sum(axis=1)[None, :]
    )
    log_norm = -0.5 * (
        model.dim * np.log(2.0 * np.pi) + np.log(model.variances).sum(axis=1)
    )
    return np.log(model.weights)[None, :] + log_norm[None, :] - 0.5 * quad


def per_model_scores(bank, features):
    """classify_gmm as it read before one pass scored every class: each
    model's frames summed on their own, with a plain ``np.exp``."""
    out = []
    for model in bank.models:
        comp = two_pass_component_ll(model, features)
        peak = comp.max(axis=1)
        out.append(float((peak + np.log(np.exp(comp - peak[:, None]).sum(axis=1))).sum()))
    return np.array(out)


#: distance allowed, relative to the largest entry, between fit_gmm's model
#: arrays and the two-exp EM's: the formulas round differently, and up to
#: 100 EM iterations carry the differences (1.5e-12 seen in the tests here)
EM_RTOL = 1e-9

#: distance allowed, relative to the largest score, between classify_gmm
#: and the per-model formula: a few roundings over one clip (7e-16 seen)
SCORE_RTOL = 1e-12


def em_start(features, n_components, seed):
    rng = np.random.default_rng(seed)
    global_var = features.var(axis=0)
    floor = np.maximum(VARIANCE_FLOOR_SCALE * global_var, VARIANCE_FLOOR_ABS)
    means = _kmeanspp_centers(features, n_components, rng)
    variances = np.maximum(np.tile(global_var, (n_components, 1)), floor)
    return GmmModel(np.full(n_components, 1.0 / n_components), means, variances), floor


def m_step(resp, frame_ll, features, sq, floor):
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
    return GmmModel(weights, means, variances)


def plain_exp_fit(features, n_components, seed, max_iters=100, tol=1e-5):
    """fit_gmm's one-exp EM loop with a plain ``np.exp``, which keeps the
    terms fit_gmm drops; returns the model and how many nonzero terms fell
    below fit_gmm's cut, exp(LOG_TINY) * K."""
    model, floor = em_start(features, n_components, seed)
    trace, dropped = [], 0
    prev_ll = -np.inf
    sq = features**2
    for _ in range(max_iters):
        peak, terms = inline_exp_terms([model], features)
        peak, terms = peak[:, 0], terms[:, 0]
        dropped += int(np.count_nonzero((terms != 0.0) & (terms < TINY * n_components)))
        total = terms.sum(axis=1)
        frame_ll = peak + np.log(total)
        ll = float(frame_ll.sum())
        trace.append(ll)
        if np.isfinite(prev_ll) and ll - prev_ll < tol * abs(prev_ll):
            break
        prev_ll = ll
        model = m_step(terms / total[:, None], frame_ll, features, sq, floor)
    model.train_log_likelihoods = trace
    return model, dropped


def two_exp_fit(features, n_components, seed, max_iters=100, tol=1e-5):
    """fit_gmm's EM loop as it read with one ``exp`` for the log-sum-exp and
    a second for the responsibilities, both plain."""
    model, floor = em_start(features, n_components, seed)
    trace = []
    prev_ll = -np.inf
    sq = features**2
    for _ in range(max_iters):
        comp_ll = two_pass_component_ll(model, features)
        peak = comp_ll.max(axis=1)
        frame_ll = peak + np.log(np.exp(comp_ll - peak[:, None]).sum(axis=1))
        ll = float(frame_ll.sum())
        trace.append(ll)
        if np.isfinite(prev_ll) and ll - prev_ll < tol * abs(prev_ll):
            break
        prev_ll = ll
        model = m_step(np.exp(comp_ll - frame_ll[:, None]), frame_ll, features, sq, floor)
    model.train_log_likelihoods = trace
    return model


def two_blobs(rng, separation=100.0, n=200, dim=3):
    a = rng.standard_normal((n, dim))
    b = rng.standard_normal((n, dim)) + separation
    return np.vstack([a, b]), a, b


def difference_form_centers(features, k, rng):
    """k-means++ seeding with one exact N x D difference per center, as
    _kmeanspp_centers read before it expanded the distances: the oracle."""
    n = features.shape[0]
    centers = np.empty((k, features.shape[1]))
    centers[0] = features[rng.integers(n)]
    dist2 = ((features - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = dist2.sum()
        if total <= 0.0:
            centers[j:] = features[rng.integers(n, size=k - j)]
            break
        centers[j] = features[rng.choice(n, p=dist2 / total)]
        dist2 = np.minimum(dist2, ((features - centers[j]) ** 2).sum(axis=1))
    return centers


class TestKmeansppSeeding:
    def assert_same_centers(self, features, k, seed):
        got = _kmeanspp_centers(features, k, np.random.default_rng(seed))
        want = difference_form_centers(features, k, np.random.default_rng(seed))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dim", [3, 39, 240])
    def test_same_centers_as_difference_form(self, seed, dim):
        rng = np.random.default_rng(100 + seed)
        # an offset far from the origin and per-dimension scales over 1e4
        features = rng.standard_normal((400, dim)) * np.logspace(-2, 2, dim) + 50.0
        self.assert_same_centers(features, 64, seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_duplicate_frames(self, seed):
        rng = np.random.default_rng(200 + seed)
        distinct = rng.standard_normal((5, 4)) + 1e3
        features = distinct[rng.integers(5, size=300)]
        # more centers than distinct frames: the mass runs out exactly
        self.assert_same_centers(features, 8, seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_all_identical_frames(self, seed):
        features = np.full((50, 6), 0.1)
        self.assert_same_centers(features, 4, seed)


class TestModelValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GmmModel(np.array([0.6, 0.6]), np.zeros((2, 1)), np.ones((2, 1)))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            GmmModel(np.array([1.5, -0.5]), np.zeros((2, 1)), np.ones((2, 1)))

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            GmmModel(np.array([1.0]), np.zeros((1, 2)), np.array([[1.0, 0.0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GmmModel(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 3)))

    def test_bank_dim_agreement(self):
        m1 = GmmModel(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
        m2 = GmmModel(np.array([1.0]), np.zeros((1, 3)), np.ones((1, 3)))
        with pytest.raises(ValueError, match="disagree on dim"):
            GmmBank([m1, m2])
        with pytest.raises(ValueError):
            GmmBank([]).dim

    def test_bank_component_count_agreement(self):
        two = GmmModel(np.full(2, 0.5), np.zeros((2, 3)), np.ones((2, 3)))
        three = GmmModel(np.full(3, 1.0 / 3.0), np.zeros((3, 3)), np.ones((3, 3)))
        with pytest.raises(ValueError, match=r"disagree on component count: \[2, 3\]"):
            GmmBank([two, three])


def log_likelihood(model, features):
    """A clip's total log-likelihood under one model, as ``classify_gmm``
    scores it in a one-model bank."""
    return classify_gmm(GmmBank([model]), features)[0]


class TestLikelihood:
    def test_standard_normal_value(self):
        model = GmmModel(np.array([1.0]), np.zeros((1, 1)), np.ones((1, 1)))
        assert log_likelihood(model, np.array([[0.0]])) == pytest.approx(
            -0.5 * np.log(2 * np.pi), abs=1e-12
        )
        assert log_likelihood(model, np.array([[1.0]])) == pytest.approx(
            -0.5 * np.log(2 * np.pi) - 0.5, abs=1e-12
        )

    def test_matches_naive_evaluation(self):
        rng = np.random.default_rng(1)
        model = GmmModel(
            np.array([0.2, 0.5, 0.3]),
            rng.standard_normal((3, 4)),
            rng.uniform(0.5, 2.0, size=(3, 4)),
        )
        feats = rng.standard_normal((20, 4))
        want = naive_log_likelihood(model, feats)
        assert log_likelihood(model, feats) == pytest.approx(want, rel=1e-9)

    def test_duplicating_frames_doubles_total(self):
        rng = np.random.default_rng(2)
        model = GmmModel(
            np.array([0.4, 0.6]),
            rng.standard_normal((2, 3)),
            rng.uniform(0.5, 1.5, size=(2, 3)),
        )
        feats = rng.standard_normal((10, 3))
        one = log_likelihood(model, feats)
        two = log_likelihood(model, np.vstack([feats, feats]))
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_component_permutation_invariant(self):
        rng = np.random.default_rng(3)
        weights = np.array([0.1, 0.3, 0.6])
        means = rng.standard_normal((3, 2))
        variances = rng.uniform(0.5, 2.0, size=(3, 2))
        feats = rng.standard_normal((15, 2))
        base = log_likelihood(GmmModel(weights, means, variances), feats)
        perm = [2, 0, 1]
        shuffled = log_likelihood(
            GmmModel(weights[perm], means[perm], variances[perm]), feats
        )
        assert abs(base - shuffled) <= 1e-12 * abs(base)

    def test_rejects_bad_features(self):
        model = GmmModel(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
        with pytest.raises(ValueError):
            log_likelihood(model, np.zeros((0, 2)))
        with pytest.raises(ValueError):
            log_likelihood(model, np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError, match="dim"):
            log_likelihood(model, np.zeros((3, 5)))


class TestExpNormal:
    def test_equals_exp_in_the_normal_range_and_zero_below(self):
        edge = np.log(TINY)
        # the seven doubles around the edge, then a sweep across it
        near = edge + np.spacing(edge) * np.arange(-3, 4)
        values = np.concatenate([
            np.linspace(-800.0, 5.0, 4001), near, [-np.inf, 0.0, -745.2, -708.0]
        ]).reshape(-1, 4)
        want = np.exp(values)
        got = _exp_normal(values)
        normal = want >= TINY
        assert np.array_equal(got[normal], want[normal])
        assert np.all(got[~normal] == 0.0)
        assert count_subnormal(got) == 0
        # the inputs do reach the subnormal range, so the check is not vacuous
        assert count_subnormal(want) > 0 and 0 < normal.sum() < normal.size

    def test_nan_goes_through_exp(self):
        got = _exp_normal(np.array([[np.nan, -1000.0, 0.0]]))
        assert np.isnan(got[0, 0]) and got[0, 1] == 0.0 and got[0, 2] == 1.0


class TestFitGmm:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((500, 6)) * 2.0 + 1.0
        model = fit_gmm(feats, 1, seed=0)
        assert model.weights[0] == 1.0
        assert np.abs(model.means[0] - feats.mean(axis=0)).max() < 1e-9
        assert np.abs(model.variances[0] - feats.var(axis=0)).max() < 1e-9

    def test_separated_clusters_recovered(self):
        rng = np.random.default_rng(5)
        feats, a, b = two_blobs(rng)
        model = fit_gmm(feats, 2, seed=1)
        order = np.argsort(model.means[:, 0])
        assert np.abs(model.means[order[0]] - a.mean(axis=0)).max() < 1e-3
        assert np.abs(model.means[order[1]] - b.mean(axis=0)).max() < 1e-3
        assert np.abs(model.weights - 0.5).max() < 1e-3

    def test_monotone_log_likelihood(self):
        rng = np.random.default_rng(6)
        for run in range(10):
            feats = rng.standard_normal((80, 3)) + rng.integers(0, 4, size=(80, 1))
            model = fit_gmm(feats, int(rng.integers(1, 5)), seed=run)
            trace = np.array(model.train_log_likelihoods)
            assert trace.size >= 1
            gaps = np.diff(trace)
            assert np.all(gaps >= -1e-8 * np.maximum(np.abs(trace[:-1]), 1.0))

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(7)
        feats = rng.standard_normal((120, 4))
        a = fit_gmm(feats, 3, seed=9)
        b = fit_gmm(feats, 3, seed=9)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.variances, b.variances)

    def test_variance_floor_applied(self):
        rng = np.random.default_rng(8)
        feats = rng.standard_normal((60, 3))
        # one dimension is constant, so only the absolute floor can hold it up
        feats[:, 2] = 5.0
        model = fit_gmm(feats, 2, seed=0)
        floor = np.maximum(VARIANCE_FLOOR_SCALE * feats.var(axis=0), VARIANCE_FLOOR_ABS)
        assert np.all(model.variances >= floor - 1e-18)
        assert np.all(model.variances[:, 2] >= VARIANCE_FLOOR_ABS)

    def test_weights_sum_exactly_one(self):
        rng = np.random.default_rng(9)
        feats = rng.standard_normal((100, 2))
        model = fit_gmm(feats, 4, seed=3)
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_more_components_than_frames_rejected(self):
        with pytest.raises(ValueError, match="cannot support"):
            fit_gmm(np.zeros((3, 2)), 4, seed=0)

    @pytest.mark.parametrize("n_components", [0, -1])
    def test_component_count_must_be_positive(self, n_components):
        with pytest.raises(ValueError, match=f"n_components must be at least 1, got {n_components}"):
            fit_gmm(np.ones((10, 2)), n_components, seed=0)

    def test_max_iters_must_be_positive(self):
        with pytest.raises(ValueError, match="max_iters must be at least 1, got 0"):
            fit_gmm(np.random.default_rng(0).standard_normal((10, 2)), 2, seed=0, max_iters=0)

    def test_zero_width_features_rejected(self):
        with pytest.raises(ValueError, match=r"features must be .* got shape \(5, 0\)"):
            fit_gmm(np.zeros((5, 0)), 1, seed=0)

    @pytest.mark.parametrize("n_components", [2, 4])
    def test_equals_plain_exp_em_bit_for_bit(self, n_components):
        # clusters 38 sd apart put many terms below the cut, which fit_gmm
        # drops and the plain-exp copy of its loop keeps
        feats, _, _ = two_blobs(np.random.default_rng(0), separation=22.0)
        want, dropped = plain_exp_fit(feats, n_components, seed=1)
        got = fit_gmm(feats, n_components, seed=1)
        assert dropped > 0
        assert np.array_equal(got.weights, want.weights)
        assert np.array_equal(got.means, want.means)
        assert np.array_equal(got.variances, want.variances)
        assert got.train_log_likelihoods == want.train_log_likelihoods

    @pytest.mark.parametrize(
        "shifted, n_components", [(False, 2), (False, 4), (True, 8)],
        ids=["blobs-2", "blobs-4", "shifted-8"],
    )
    def test_near_two_exp_em(self, shifted, n_components):
        if shifted:
            rng = np.random.default_rng(15)
            feats = rng.standard_normal((800, 24)) * rng.uniform(0.5, 3.0, 24)
            feats += rng.integers(0, 4, size=(800, 1))
        else:
            feats, _, _ = two_blobs(np.random.default_rng(0), separation=22.0)
        want = two_exp_fit(feats, n_components, seed=1)
        got = fit_gmm(feats, n_components, seed=1)
        assert len(got.train_log_likelihoods) == len(want.train_log_likelihoods)
        for name in ("weights", "means", "variances", "train_log_likelihoods"):
            a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
            assert np.abs(a - b).max() <= EM_RTOL * np.abs(b).max(), name

    def test_duplicate_frames_fit(self):
        # all-identical data collapses every component onto one point
        feats = np.tile(np.array([[1.0, -2.0]]), (50, 1))
        model = fit_gmm(feats, 3, seed=0)
        assert np.abs(model.means - feats[0]).max() < 1e-9


class TestClassification:
    def train_bank(self, rng):
        a = rng.standard_normal((300, 3))
        b = rng.standard_normal((300, 3)) + 4.0
        return GmmBank([fit_gmm(a, 2, 0), fit_gmm(b, 2, 1)])

    def test_two_class_accuracy(self):
        rng = np.random.default_rng(10)
        bank = self.train_bank(rng)
        correct = 0
        for _ in range(100):
            which = rng.integers(2)
            clip = rng.standard_normal((30, 3)) + (4.0 if which else 0.0)
            scores = classify_gmm(bank, clip)
            assert scores.shape == (2,)
            correct += int(np.argmax(scores) == which)
        assert correct >= 99

    def test_tie_breaks_to_lowest_index(self):
        model = GmmModel(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
        twin = GmmModel(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
        bank = GmmBank([model, twin])
        scores = classify_gmm(bank, np.ones((5, 2)))
        assert scores[0] == scores[1]
        assert np.argmax(scores) == 0

    def test_empty_bank_rejected(self):
        with pytest.raises(ValueError, match="empty bank"):
            classify_gmm(GmmBank([]), np.ones((2, 2)))


class TestBankFile:
    def build_bank(self):
        rng = np.random.default_rng(11)
        feats = [rng.standard_normal((100, 4)), rng.standard_normal((100, 4)) + 2]
        return GmmBank([fit_gmm(f, 3, seed) for f, seed in zip(feats, [5, 6])])

    def test_round_trip_bit_exact(self, tmp_path):
        bank = self.build_bank()
        path = tmp_path / "bank.sfg"
        save_gmm_bank(path, bank, "mfcc", ["hum", "rain"])
        family, class_names, back = load_gmm_bank(path)
        assert (family, class_names) == ("mfcc", ["hum", "rain"])
        assert back.n_classes == bank.n_classes
        for got, want in zip(back.models, bank.models):
            assert np.array_equal(got.weights, want.weights)
            assert np.array_equal(got.means, want.means)
            assert np.array_equal(got.variances, want.variances)
        path2 = tmp_path / "again.sfg"
        save_gmm_bank(path2, back, family, class_names)
        assert path.read_bytes() == path2.read_bytes()

    def test_scores_survive_round_trip(self, tmp_path):
        bank = self.build_bank()
        path = tmp_path / "bank.sfg"
        save_gmm_bank(path, bank, "mfcc", ["hum", "rain"])
        _, _, back = load_gmm_bank(path)
        clip = np.random.default_rng(12).standard_normal((20, 4))
        assert np.array_equal(classify_gmm(bank, clip), classify_gmm(back, clip))

    def test_scores_equal_inline_formula_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(13)
        feats = [rng.standard_normal((400, 24)) + shift for shift in (0.0, 0.5, 1.0)]
        bank = GmmBank([fit_gmm(f, 8, seed) for f, seed in zip(feats, [1, 2, 3])])
        path = tmp_path / "bank.sfg"
        save_gmm_bank(path, bank, "cepscom", ["a", "b", "c"])
        _, _, back = load_gmm_bank(path)
        for trial in range(3):
            clip = rng.standard_normal((40 + trial, 24)) + 0.5
            want = inline_formula_scores(bank, clip)
            # a second call reads the terms the first one kept
            for scored in (bank, back, bank, back):
                assert np.array_equal(classify_gmm(scored, clip), want)

    def test_scores_with_subnormal_terms_equal_inline_formula(self):
        # each model spans both blobs, so a frame near one blob gives the
        # far component a subnormal exp term
        rng = np.random.default_rng(14)
        bank = GmmBank(
            [fit_gmm(two_blobs(rng, separation=22.0)[0], 2, seed) for seed in [1, 2]]
        )
        clip = two_blobs(rng, separation=22.0, n=30)[0]
        single = GmmBank(bank.models[:1])
        _, terms = inline_exp_terms(single.models, clip)
        assert count_subnormal(terms) > 0
        assert np.array_equal(classify_gmm(single, clip), inline_formula_scores(single, clip))
        assert np.array_equal(classify_gmm(bank, clip), inline_formula_scores(bank, clip))

    def test_scores_near_per_model_formula(self):
        rng = np.random.default_rng(16)
        feats = [rng.standard_normal((400, 24)) + shift for shift in (0.0, 0.5, 1.0)]
        bank = GmmBank([fit_gmm(f, 8, seed) for f, seed in zip(feats, [1, 2, 3])])
        for frames in (1, 40, 1290):
            clip = rng.standard_normal((frames, 24)) + 0.5
            want = per_model_scores(bank, clip)
            got = classify_gmm(bank, clip)
            assert np.abs(got - want).max() <= SCORE_RTOL * np.abs(want).max()

    def test_mixed_component_counts_fail_to_load_naming_the_file(self, tmp_path):
        bank = self.build_bank()
        bank.models[1] = GmmModel(np.full(2, 0.5), np.zeros((2, 4)), np.ones((2, 4)))
        path = tmp_path / "mixed.sfg"
        save_gmm_bank(path, bank, "mfcc", ["hum", "rain"])
        with pytest.raises(FeatureStoreError, match=f"{path}: .*component count: \\[2, 3\\]"):
            load_gmm_bank(path)

    def test_invalid_model_fails_to_load_naming_the_file(self, tmp_path):
        bank = self.build_bank()
        bank.models[0].variances[1, 2] = 0.0
        path = tmp_path / "flat.sfg"
        save_gmm_bank(path, bank, "mfcc", ["hum", "rain"])
        with pytest.raises(FeatureStoreError, match=f"{path}: variances must be positive"):
            load_gmm_bank(path)
