"""Score normalization, reliability weights, fusion, and CV protocol."""

import re

import numpy as np
import pytest

from scenefuse.fusion import (
    ConfusionMatrix,
    FusionWeights,
    ScoreMatrix,
    confusion_weights,
    cross_validated_confusion,
    fuse,
    fusion_weights,
    load_score_csv,
    load_weights_csv,
    normalize_scores,
    save_score_csv,
    save_weights_csv,
    stratified_folds,
    tally_confusion,
)


def make_scores(values, system_id="sys", normalized=False, class_names=None):
    values = np.asarray(values, dtype=np.float64)
    class_names = class_names or [f"c{j}" for j in range(values.shape[1])]
    clip_ids = [f"clip{i}" for i in range(values.shape[0])]
    return ScoreMatrix(system_id, clip_ids, class_names, values, normalized)


def oracle_fuse(weight_rows, value_blocks):
    """Plain-python weighted sum and first-max argmax."""
    n, c = value_blocks[0].shape
    fused = [[0.0] * c for _ in range(n)]
    for w_row, block in zip(weight_rows, value_blocks):
        for i in range(n):
            for j in range(c):
                fused[i][j] += w_row[j] * block[i][j]
    predicted = [max(range(c), key=lambda j: fused[i][j]) for i in range(n)]
    return np.array(fused), np.array(predicted)


class TestScoreMatrix:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            ScoreMatrix("s", ["a"], ["x", "y"], np.zeros((2, 2)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            make_scores([[0.0, np.nan]])

    def test_normalized_flag_enforced(self):
        with pytest.raises(ValueError, match="row max 1"):
            make_scores([[0.2, 0.9]], normalized=True)
        with pytest.raises(ValueError, match="row max 1"):
            make_scores([[1.5, 1.0]], normalized=True)
        make_scores([[0.0, 1.0]], normalized=True)  # fine


class TestNormalize:
    def test_hand_values(self):
        out = normalize_scores(make_scores([[-10.0, -5.0, 0.0]]))
        assert np.array_equal(out.values, [[0.0, 0.5, 1.0]])
        assert out.normalized

    def test_constant_row_becomes_ones(self):
        out = normalize_scores(make_scores([[3.0, 3.0, 3.0], [0.0, 1.0, 2.0]]))
        assert np.array_equal(out.values[0], [1.0, 1.0, 1.0])
        assert np.array_equal(out.values[1], [0.0, 0.5, 1.0])

    def test_idempotent(self):
        once = normalize_scores(make_scores(np.random.default_rng(0).normal(size=(6, 4))))
        twice = normalize_scores(once)
        assert np.array_equal(once.values, twice.values)

    def test_row_range(self):
        rng = np.random.default_rng(1)
        out = normalize_scores(make_scores(rng.normal(size=(20, 5))))
        assert out.values.min() >= 0.0
        assert np.array_equal(out.values.max(axis=1), np.ones(20))

    def test_argmax_preserved(self):
        rng = np.random.default_rng(2)
        raw = rng.normal(size=(30, 6))
        out = normalize_scores(make_scores(raw))
        assert np.array_equal(np.argmax(raw, axis=1), np.argmax(out.values, axis=1))

    def test_metadata_carried(self):
        out = normalize_scores(make_scores([[1.0, 2.0]], system_id="plp-gmm"))
        assert out.system_id == "plp-gmm"
        assert out.clip_ids == ["clip0"]


class TestConfusionMatrix:
    def test_validation(self):
        with pytest.raises(ValueError, match="square"):
            ConfusionMatrix(np.zeros((2, 3), dtype=int))
        with pytest.raises(ValueError, match="nonnegative"):
            ConfusionMatrix(np.array([[1, -1], [0, 2]]))

    def test_properties(self):
        cm = ConfusionMatrix(np.array([[3, 1], [0, 4]]))
        assert cm.n_classes == 2
        assert cm.total == 8

    def test_tally(self):
        cm = tally_confusion([0, 0, 1, 2, 2], [0, 1, 1, 2, 0], 3)
        assert np.array_equal(
            cm.counts, [[1, 1, 0], [0, 1, 0], [1, 0, 1]]
        )

    def test_tally_errors(self):
        with pytest.raises(ValueError, match="lengths differ"):
            tally_confusion([0, 1], [0], 2)
        with pytest.raises(ValueError, match="out of range"):
            tally_confusion([0, 3], [0, 0], 2)
        with pytest.raises(ValueError, match="prediction index out of range"):
            tally_confusion([0, 1], [0, -1], 2)


class TestConfusionWeights:
    def test_perfect_system_gets_ones(self):
        cm = ConfusionMatrix(np.diag([5, 3, 7]))
        assert np.array_equal(confusion_weights(cm), [1.0, 1.0, 1.0])

    def test_hand_example(self):
        # column sums 12 and 8: of 12 times the system said class 0 it was
        # right 8; of 8 times it said class 1 it was right 6
        cm = ConfusionMatrix(np.array([[8, 2], [4, 6]]))
        assert np.allclose(confusion_weights(cm), [8 / 12, 6 / 8], atol=1e-15)

    def test_never_predicted_class_weighs_zero(self):
        cm = ConfusionMatrix(np.array([[4, 0], [2, 0]]))
        w = confusion_weights(cm)
        assert w[0] == pytest.approx(4 / 6)
        assert w[1] == 0.0

    def test_stacking(self):
        fw = fusion_weights(
            [ConfusionMatrix(np.diag([2, 2])), ConfusionMatrix(np.array([[1, 1], [1, 1]]))],
            ["a", "b"],
            ["x", "y"],
        )
        assert np.allclose(fw.values, [[1.0, 1.0], [0.5, 0.5]])

    def test_stacking_errors(self):
        with pytest.raises(ValueError, match="one confusion matrix per system"):
            fusion_weights([ConfusionMatrix(np.diag([1, 1]))], ["a", "b"], ["x", "y"])
        with pytest.raises(ValueError, match="2-class, expected 3"):
            fusion_weights(
                [ConfusionMatrix(np.diag([1, 1]))], ["a"], ["x", "y", "z"]
            )

    def test_weight_bounds_enforced(self):
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            FusionWeights(["a"], ["x", "y"], np.array([[0.5, 1.5]]))
        with pytest.raises(ValueError, match="does not match"):
            FusionWeights(["a"], ["x"], np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match=r"finite and lie in \[0,1\]"):
            FusionWeights(["a"], ["x", "y"], np.array([[bad, 0.5]]))

    def test_repeated_system_rejected(self):
        # library callers bypass the CLI's name parsing
        with pytest.raises(ValueError, match="'a' has more than one row of weights"):
            FusionWeights(["a", "b", "a"], ["x"], np.full((3, 1), 0.5))


class TestFuse:
    def random_instance(self, rng):
        n = int(rng.integers(1, 12))
        c = int(rng.integers(2, 8))
        n_sys = int(rng.integers(1, 5))
        systems = [f"s{k}" for k in range(n_sys)]
        names = [f"c{j}" for j in range(c)]
        scores = [
            normalize_scores(
                make_scores(rng.normal(size=(n, c)), system_id=sid, class_names=names)
            )
            for sid in systems
        ]
        weights = FusionWeights(systems, names, rng.uniform(0.0, 1.0, size=(n_sys, c)))
        return scores, weights

    def test_matches_oracle_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            scores, weights = self.random_instance(rng)
            fused = fuse(scores, weights)
            want_fused, want_pred = oracle_fuse(
                weights.values, [s.values for s in scores]
            )
            assert fused.system_id == "fusion"
            assert fused.clip_ids == scores[0].clip_ids
            assert fused.class_names == weights.class_names
            assert np.array_equal(fused.values, want_fused)
            assert np.array_equal(np.argmax(fused.values, axis=1), want_pred)

    def test_single_system_identity(self):
        scores = normalize_scores(make_scores([[0.0, 1.0, 0.4], [1.0, 0.2, 0.0]]))
        weights = FusionWeights(["sys"], scores.class_names, np.ones((1, 3)))
        assert np.array_equal(fuse([scores], weights).values, scores.values)

    def test_tie_breaks_to_lowest_index(self):
        # the fused row ties exactly, so the argmax takes the lowest index
        scores = make_scores([[1.0, 0.2, 1.0]], normalized=True)
        weights = FusionWeights(["sys"], scores.class_names, np.full((1, 3), 0.5))
        fused = fuse([scores], weights)
        assert fused.values[0, 0] == fused.values[0, 2]
        assert np.argmax(fused.values[0]) == 0

    def test_second_best_rescue(self):
        # no single system ranks class 3 first, fusion does
        names = ["a", "b", "c", "d"]
        blocks = []
        for k in range(3):
            row = [0.1, 0.1, 0.1, 0.9]
            row[k] = 1.0
            blocks.append(
                ScoreMatrix(f"s{k}", ["clip"], names, np.array([row]), normalized=True)
            )
        weights = FusionWeights([f"s{k}" for k in range(3)], names, np.ones((3, 4)))
        for block in blocks:
            assert int(np.argmax(block.values)) != 3
        assert np.argmax(fuse(blocks, weights).values[0]) == 3

    def test_finds_systems_by_id_and_normalizes_raw_scores(self):
        weights = FusionWeights(["a", "b"], ["x", "y"], [[1.0, 0.5], [0.25, 1.0]])
        raw_a = make_scores([[3.0, 1.0], [0.0, 4.0]], "a", class_names=["x", "y"])
        norm_b = make_scores(
            [[0.0, 1.0], [1.0, 0.0]], "b", normalized=True, class_names=["x", "y"]
        )
        unweighted = make_scores([[9.0, 0.0], [9.0, 0.0]], "c", class_names=["x", "y"])
        fused = fuse([unweighted, norm_b, raw_a], weights)
        # a min-max normalizes to [[1, 0], [0, 1]]; b is used as given
        assert np.array_equal(fused.values, [[1.0, 1.0], [0.25, 0.5]])
        assert not fused.normalized

    def test_repeated_system_rejected(self):
        a = make_scores([[1.0, 0.0]], "a")
        b = make_scores([[1.0, 0.0]], "b")
        weights = FusionWeights(["a", "b"], a.class_names, np.ones((2, 2)))
        with pytest.raises(ValueError, match="duplicate scores for system 'a'"):
            fuse([a, b, a], weights)

    def test_weighted_system_without_scores_rejected(self):
        a = make_scores([[1.0, 0.0]], "a")
        weights = FusionWeights(["a", "b"], a.class_names, np.ones((2, 2)))
        with pytest.raises(ValueError, match="no scores supplied for weighted system 'b'"):
            fuse([a], weights)

    def test_class_order_mismatch_names_both_lists(self):
        # a model and the weights made from training lists in other orders
        scores = make_scores([[1.0, 0.0]], "plp-gmm", class_names=["park", "bus"])
        weights = FusionWeights(["plp-gmm"], ["bus", "park"], np.ones((1, 2)))
        with pytest.raises(ValueError, match=re.escape(
            "system 'plp-gmm' class names ['park', 'bus'] do not match "
            "the weights' ['bus', 'park']"
        )):
            fuse([scores], weights)

    def test_error_paths(self):
        scores = normalize_scores(make_scores([[0.0, 1.0]]))
        weights = FusionWeights(["sys"], scores.class_names, np.ones((1, 2)))
        with pytest.raises(ValueError, match="nothing to fuse"):
            fuse([scores], FusionWeights([], scores.class_names, np.zeros((0, 2))))
        moved = ScoreMatrix("other", ["elsewhere"], scores.class_names,
                            scores.values, normalized=True)
        pair_weights = FusionWeights(
            ["sys", "other"], scores.class_names, np.ones((2, 2))
        )
        with pytest.raises(ValueError, match="clip ids"):
            fuse([scores, moved], pair_weights)
        renamed = ScoreMatrix("sys", scores.clip_ids, ["p", "q"],
                              scores.values, normalized=True)
        with pytest.raises(ValueError, match="class names"):
            fuse([renamed], weights)


class TestStratifiedFolds:
    def test_balance_within_one(self):
        labels = [0] * 10 + [1] * 7 + [2] * 5
        fold_of = stratified_folds(labels, 3, seed=0)
        labels = np.asarray(labels)
        for cls in range(3):
            counts = np.bincount(fold_of[labels == cls], minlength=3)
            assert counts.max() - counts.min() <= 1
            assert counts.sum() == (labels == cls).sum()

    def test_deterministic(self):
        labels = [0] * 8 + [1] * 8
        a = stratified_folds(labels, 4, seed=9)
        b = stratified_folds(labels, 4, seed=9)
        assert np.array_equal(a, b)

    def test_seed_changes_assignment(self):
        labels = [0] * 24 + [1] * 24
        base = stratified_folds(labels, 3, seed=0)
        assert any(
            not np.array_equal(base, stratified_folds(labels, 3, seed=s))
            for s in (1, 2, 3)
        )


class TestConfusionProtocols:
    def test_cross_validated_total_and_diagonal(self):
        # features equal the label; 1-NN on the training fold is perfect
        rng = np.random.default_rng(4)
        labels = np.array([0] * 9 + [1] * 9 + [2] * 9)
        feats = labels.astype(np.float64) + 0.01 * rng.standard_normal(27)

        def fit_and_classify(train_idx, test_idx):
            return [
                labels[train_idx[np.argmin(np.abs(feats[train_idx] - feats[t]))]]
                for t in test_idx
            ]

        cm = cross_validated_confusion(labels, 3, stratified_folds(labels, 3, seed=1),
                                       fit_and_classify=fit_and_classify)
        assert cm.total == 27
        assert np.array_equal(cm.counts, np.diag([9, 9, 9]))

    def test_out_of_range_prediction_rejected(self):
        # -1 would index the last column
        with pytest.raises(ValueError, match="prediction index out of range for 2 classes"):
            cross_validated_confusion(
                [0, 0, 1, 1], 2, stratified_folds([0, 0, 1, 1], 2, seed=0),
                fit_and_classify=lambda tr, te: [-1] * len(te),
            )

    def test_wrong_length_rejected(self):
        labels = [0] * 4 + [1] * 4
        with pytest.raises(ValueError, match="wrong number"):
            cross_validated_confusion(
                labels, 2, stratified_folds(labels, 2, seed=0),
                fit_and_classify=lambda tr, te: [0],
            )


class TestScoreCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        scores = normalize_scores(make_scores(rng.normal(size=(7, 4)), system_id="mfcc-gmm"))
        path = tmp_path / "scores.csv"
        save_score_csv(path, scores)
        (back,) = load_score_csv(path)
        assert back.system_id == "mfcc-gmm"
        assert back.clip_ids == scores.clip_ids
        assert back.class_names == scores.class_names
        assert back.normalized
        # repr round-trips doubles exactly
        assert np.array_equal(back.values, scores.values)

    def test_raw_flag_round_trip(self, tmp_path):
        scores = make_scores([[(2.0 / 3.0), -1e-17]])
        path = tmp_path / "raw.csv"
        save_score_csv(path, scores)
        (back,) = load_score_csv(path)
        assert not back.normalized
        assert np.array_equal(back.values, scores.values)

    def test_multiple_systems_grouped(self, tmp_path):
        path = tmp_path / "both.csv"
        path.write_text(
            "#normalized=true\n"
            "clip_id,system_id,x,y\n"
            "c0,alpha,1.0,0.0\n"
            "c0,beta,0.5,1.0\n"
            "c1,alpha,0.0,1.0\n"
            "c1,beta,1.0,0.25\n"
        )
        loaded = load_score_csv(path)
        assert [s.system_id for s in loaded] == ["alpha", "beta"]
        alpha, beta = loaded
        assert alpha.clip_ids == ["c0", "c1"]
        assert np.array_equal(alpha.values, [[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(beta.values, [[0.5, 1.0], [1.0, 0.25]])

    def test_missing_preamble(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("clip_id,system_id,x\nc0,s,1.0\n")
        with pytest.raises(ValueError, match="missing #normalized preamble"):
            load_score_csv(path)

    def test_bad_flag(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("#normalized=maybe\nclip_id,system_id,x\n")
        with pytest.raises(ValueError, match="bad #normalized value"):
            load_score_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("#normalized=false\nname,system_id,x\nc0,s,1.0\n")
        with pytest.raises(ValueError, match="bad or missing header"):
            load_score_csv(path)

    def test_no_class_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("#normalized=false\nclip_id,system_id\n")
        with pytest.raises(ValueError, match="no class columns"):
            load_score_csv(path)

    def test_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "#normalized=false\nclip_id,system_id,x,y\nc0,s,1.0\n"
        )
        with pytest.raises(ValueError, match=":3: expected 4 fields"):
            load_score_csv(path)

    def test_blank_line_names_its_line(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("#normalized=false\nclip_id,system_id,x,y\nc0,s,1.0,0.0\n\n")
        with pytest.raises(ValueError, match="scores.csv:4: expected 4 fields"):
            load_score_csv(path)

    def test_repeated_clip_of_a_system_names_both_lines(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "#normalized=true\n"
            "clip_id,system_id,x,y\n"
            "c1.wav,alpha,1.0,0.0\n"
            "c1.wav,beta,1.0,0.0\n"
            "c1.wav,alpha,0.0,1.0\n"
        )
        with pytest.raises(
            ValueError, match=r":5: clip 'c1.wav' of system 'alpha' repeats line 3"
        ):
            load_score_csv(path)

    @pytest.mark.parametrize("bad", ["abc", "nan", "-inf", ""])
    def test_value_that_is_not_a_finite_number_names_its_line(self, tmp_path, bad):
        path = tmp_path / "bad.csv"
        path.write_text(
            f"#normalized=false\nclip_id,system_id,x,y\nc0,s,1.0,2.0\nc1,s,0.5,{bad}\n"
        )
        with pytest.raises(ValueError, match=rf"bad.csv:4: '{bad}' is not a finite number"):
            load_score_csv(path)

    def test_comma_in_fields_rejected(self, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="system id"):
            save_score_csv(path, make_scores([[1.0]], system_id="a,b"))
        with pytest.raises(ValueError, match="class name"):
            save_score_csv(
                path, make_scores([[1.0]], class_names=["x,y"])
            )
        # every field is checked before the file is opened
        bad_clip = ScoreMatrix("s", ["a", "b,c"], ["x"], np.ones((2, 1)))
        with pytest.raises(ValueError, match="clip id 'b,c'"):
            save_score_csv(path, bad_clip)
        assert not path.exists()

    @pytest.mark.parametrize("body, where", [
        ('c0,s,1.0,0.0\n"c1,b",s,0.0,1.0\n', ":4: clip id 'c1,b'"),
        ('"c0\nc1",s,1.0,0.0\n', ":4: clip id 'c0\\nc1'"),
        ('c0,"s,t",1.0,0.0\n', ":3: system id 's,t'"),
    ], ids=["clip", "newline", "system"])
    def test_loads_only_fields_the_writer_accepts(self, tmp_path, body, where):
        path = tmp_path / "scores.csv"
        path.write_text("#normalized=false\nclip_id,system_id,x,y\n" + body)
        message = re.escape(f"scores.csv{where} may not contain commas")
        with pytest.raises(ValueError, match=message):
            load_score_csv(path)
        path.write_text('#normalized=false\nclip_id,system_id,x,"y,z"\nc0,s,1.0,0.0\n')
        with pytest.raises(ValueError, match="scores.csv:2: class name 'y,z'"):
            load_score_csv(path)


class TestWeightsCsv:
    def test_round_trip_exact(self, tmp_path):
        fw = FusionWeights(
            ["alpha", "beta"], ["x", "y", "z"],
            np.array([[1.0, 2.0 / 3.0, 0.0], [0.125, 1.0, 0.9999999999999999]]),
        )
        path = tmp_path / "weights.csv"
        save_weights_csv(path, fw)
        back = load_weights_csv(path)
        assert back.system_ids == fw.system_ids
        assert back.class_names == fw.class_names
        assert np.array_equal(back.values, fw.values)

    def test_comma_in_fields_rejected(self, tmp_path):
        path = tmp_path / "weights.csv"
        for weights, what in (
            (FusionWeights(["s"], ["x,y"], [[1.0]]), "class name 'x,y'"),
            (FusionWeights(["s", "t,u"], ["x"], [[1.0], [0.5]]), "system id 't,u'"),
        ):
            with pytest.raises(ValueError, match=what):
                save_weights_csv(path, weights)
            assert not path.exists()
        path.write_text('system_id,x\ns,1.0\n"t,u",0.5\n')
        with pytest.raises(ValueError, match="weights.csv:3: system id 't,u' may not contain"):
            load_weights_csv(path)
        path.write_text('system_id,"x,y"\ns,1.0\n')
        with pytest.raises(ValueError, match="weights.csv:1: class name 'x,y' may not contain"):
            load_weights_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("system,x\n")
        with pytest.raises(ValueError, match="bad or missing header"):
            load_weights_csv(path)

    def test_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("system_id,x,y\nalpha,1.0\n")
        with pytest.raises(ValueError, match=":2: expected 3 fields"):
            load_weights_csv(path)

    def test_blank_line_names_its_line(self, tmp_path):
        path = tmp_path / "weights.csv"
        path.write_text("system_id,x,y\nalpha,0.5,0.5\n\nbeta,1.0,1.0\n")
        with pytest.raises(ValueError, match="weights.csv:3: expected 3 fields"):
            load_weights_csv(path)

    def test_repeated_system_names_both_lines(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("system_id,x\nalpha,1.0\nbeta,0.5\nalpha,0.25\n")
        with pytest.raises(ValueError, match=r":4: system 'alpha' repeats line 2"):
            load_weights_csv(path)

    @pytest.mark.parametrize("bad", ["nan", "abc", "inf"])
    def test_value_that_is_not_a_finite_number_names_its_line(self, tmp_path, bad):
        path = tmp_path / "weights.csv"
        path.write_text(f"system_id,x,y\ns0,1.0,1.0\ns1,{bad},0.5\n")
        with pytest.raises(ValueError, match=rf"weights.csv:3: '{bad}' is not a finite number"):
            load_weights_csv(path)
