"""Accuracy reports on score matrices, and confusion rendering."""

import re

import numpy as np
import pytest

from scenefuse.dataio import DatasetManifest
from scenefuse.evaluation import (
    evaluate,
    render_confusion,
    render_report,
    save_report,
)
from scenefuse.fusion import ScoreMatrix


def report_of(predictions, truths, class_names, system_id=""):
    """The report on one-hot scores that predict ``predictions`` for clips
    labelled ``truths`` (both class indices)."""
    clip_ids = [f"clip{i}.wav" for i in range(len(truths))]
    manifest = DatasetManifest(
        entries=[(clip_id, class_names[t]) for clip_id, t in zip(clip_ids, truths)],
        class_names=list(class_names),
    )
    values = np.eye(len(class_names))[list(predictions)]
    return evaluate(ScoreMatrix(system_id, clip_ids, list(class_names), values), manifest)


class TestEvaluate:
    manifest = DatasetManifest(
        entries=[("p.wav", "x"), ("q.wav", "y"), ("r.wav", "y")], class_names=["x", "y"]
    )

    def test_perfect_predictions(self):
        report = report_of([0, 1, 2, 1], [0, 1, 2, 1], ["a", "b", "c"], "sys")
        assert np.array_equal(report.per_class_accuracy, [1.0, 1.0, 1.0])
        assert report.average_accuracy == 1.0
        assert report.n_clips == 4
        assert report.system_id == "sys"

    def test_two_class_hand_values(self):
        # class a: 1 of 2 right; class b: 2 of 2 right
        report = report_of([0, 1, 1, 1], [0, 0, 1, 1], ["a", "b"])
        assert np.array_equal(report.per_class_accuracy, [0.5, 1.0])
        assert report.average_accuracy == pytest.approx(0.75)

    def test_average_is_unweighted_mean(self):
        # 9 clips of class a at 1/9, 1 clip of class b at 1/1; the mean
        # ignores class sizes
        truths = [0] * 9 + [1]
        preds = [0] + [1] * 9
        report = report_of(preds, truths, ["a", "b"])
        assert report.average_accuracy == pytest.approx((1 / 9 + 1.0) / 2)

    def test_tie_counts_as_the_lowest_class_index(self):
        manifest = DatasetManifest(
            entries=[("p.wav", "a"), ("q.wav", "c"), ("r.wav", "b")],
            class_names=["a", "b", "c"],
        )
        values = [[0.7, 0.2, 0.7], [0.3, 0.3, 0.3], [0.0, 1.0, 0.0]]
        scores = ScoreMatrix("s", ["p.wav", "q.wav", "r.wav"], ["a", "b", "c"], values)
        report = evaluate(scores, manifest)
        # p's tie goes to a, its label; q's three-way tie goes to a, not c
        assert report.per_class_accuracy.tolist() == [1.0, 1.0, 0.0]
        assert report.confusion.counts[2].tolist() == [1, 0, 0]

    def test_labels_found_by_clip_id(self):
        scores = ScoreMatrix("s", ["r.wav", "p.wav"], ["x", "y"], [[0.0, 1.0], [0.0, 1.0]])
        report = evaluate(scores, self.manifest)
        assert report.system_id == "s"
        assert report.per_class_accuracy.tolist() == [0.0, 1.0]
        assert report.n_clips == 2

    def test_unknown_clip_rejected(self):
        scores = ScoreMatrix("s", ["p.wav", "z.wav"], ["x", "y"], np.zeros((2, 2)))
        with pytest.raises(ValueError, match="clip 'z.wav' is not in the manifest"):
            evaluate(scores, self.manifest)

    def test_class_names_must_match(self):
        # the manifest's classes in another order: labels are found by name,
        # and the report keeps the scores' order
        scores = ScoreMatrix("s", ["p.wav", "q.wav"], ["y", "x"], [[0.0, 1.0], [0.0, 1.0]])
        report = evaluate(scores, self.manifest)
        assert report.class_names == ["y", "x"]
        assert report.per_class_accuracy.tolist() == [0.0, 1.0]
        assert report.confusion.counts.tolist() == [[0, 1], [0, 1]]
        # another class set, and a repeated column, are refused
        for names, only_manifest, only_scores in ((["x", "z"], ["y"], ["z"]),
                                                  (["x", "y", "x"], [], ["x"])):
            scores = ScoreMatrix("s", ["p.wav"], names, np.zeros((1, len(names))))
            with pytest.raises(ValueError, match=re.escape(
                f"'s' and the manifest disagree on class names; only in the manifest: "
                f"{only_manifest}, only in the scores: {only_scores}"
            )):
                evaluate(scores, self.manifest)

    def test_class_without_clips_rejected(self):
        # it would average in as 0%: a perfect classifier of class a alone
        # would report 33.33
        with pytest.raises(ValueError, match="system 'sys' have no clip of class 'b', 'c'"):
            report_of([0, 0, 1], [0, 0, 0], ["a", "b", "c"], "sys")

    def test_no_clips_rejected(self):
        scores = ScoreMatrix("s", [], ["x", "y"], np.zeros((0, 2)))
        with pytest.raises(ValueError, match="nothing to evaluate"):
            evaluate(scores, self.manifest)


class TestRenderConfusion:
    def test_diagonal_shows_hundreds(self):
        report = report_of([0, 1], [0, 1], ["left", "right"])
        text = render_confusion(report)
        lines = text.splitlines()
        assert "left" in lines[0] and "right" in lines[0]
        assert "100.00" in lines[1]
        assert lines[1].startswith("left")
        assert text.endswith("\n")

    def test_rows_sum_to_hundred(self):
        rng = np.random.default_rng(0)
        truths = rng.integers(0, 3, size=60)
        preds = rng.integers(0, 3, size=60)
        report = report_of(preds, truths, ["a", "b", "c"])
        for line in render_confusion(report).splitlines()[1:]:
            percents = [float(tok) for tok in line.split()[1:]]
            assert sum(percents) == pytest.approx(100.0, abs=0.02)

    def test_stable_output(self):
        report = report_of([0, 1, 0], [0, 1, 1], ["a", "b"])
        assert render_confusion(report) == render_confusion(report)


class TestRenderReport:
    def build(self):
        return report_of([0, 1, 1, 1], [0, 0, 1, 1], ["alpha", "beta"], "demo")

    def test_header_lines(self):
        lines = render_report(self.build()).splitlines()
        assert lines[0] == "system: demo"
        assert lines[1] == "clips evaluated: 4"
        assert lines[2].startswith("average accuracy: 75.00%")

    def test_per_class_lines(self):
        text = render_report(self.build())
        assert "  alpha   50.00%  (1/2)" in text
        assert "  beta   100.00%  (2/2)" in text

    def test_embeds_confusion(self):
        report = self.build()
        text = render_report(report)
        for line in render_confusion(report).splitlines():
            assert "  " + line in text

    def test_save(self, tmp_path):
        report = self.build()
        path = tmp_path / "report.txt"
        save_report(path, report)
        assert path.read_text() == render_report(report)
