"""Accuracy reports and text confusion tables.

:func:`evaluate` reads one system's scores (a ``ScoreMatrix``, per-system
or fused), takes each clip's argmax as its label and checks it against the
manifest.  The headline number is the unweighted mean of per-class
accuracies, which coincides with overall accuracy when classes are equally
sized.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .dataio import DatasetManifest
from .fusion import ConfusionMatrix, ScoreMatrix, tally_confusion


@dataclass
class EvaluationReport:
    system_id: str
    class_names: list
    per_class_accuracy: np.ndarray
    average_accuracy: float
    confusion: ConfusionMatrix

    @property
    def n_clips(self) -> int:
        return self.confusion.total


def evaluate(scores: ScoreMatrix, manifest: DatasetManifest) -> EvaluationReport:
    """Report one system's argmax labels, a tie to the first tied score
    column, against the labels the manifest gives its clips.

    The scores must have one column per class of the manifest, in any
    order: each clip's label is found by name among the score columns, and
    the report follows the scores' class order.  Every class must have a
    clip among the scores: a class without clips would average in as 0%
    accuracy.
    """
    system_id = scores.system_id
    in_scores, in_manifest = Counter(scores.class_names), Counter(manifest.class_names)
    if in_scores != in_manifest:
        raise ValueError(
            f"scores of system {system_id!r} and the manifest disagree on class names; "
            f"only in the manifest: {list((in_manifest - in_scores).elements())}, "
            f"only in the scores: {list((in_scores - in_manifest).elements())}"
        )
    column = {name: j for j, name in enumerate(scores.class_names)}
    label_of = {path: column[label] for path, label in manifest.entries}
    truths = []
    for clip_id in scores.clip_ids:
        if clip_id not in label_of:
            raise ValueError(f"clip {clip_id!r} is not in the manifest")
        truths.append(label_of[clip_id])
    if not truths:
        raise ValueError("nothing to evaluate")
    confusion = tally_confusion(
        truths, np.argmax(scores.values, axis=1), len(scores.class_names)
    )
    row_sums = confusion.counts.sum(axis=1)
    missing = [name for name, total in zip(scores.class_names, row_sums) if total == 0]
    if missing:
        raise ValueError(
            f"scores of system {system_id!r} have no clip of class "
            + ", ".join(repr(name) for name in missing)
        )
    per_class = np.diag(confusion.counts) / row_sums
    return EvaluationReport(
        system_id=system_id,
        class_names=list(scores.class_names),
        per_class_accuracy=per_class,
        average_accuracy=float(per_class.mean()),
        confusion=confusion,
    )


def render_confusion(report: EvaluationReport) -> str:
    """Row-normalized percentage table, classes in score-column order."""
    names = report.class_names
    label_w = max(len(n) for n in names)
    col_w = max(6, max(len(n) for n in names))
    lines = [
        " " * (label_w + 2)
        + "  ".join(f"{n:>{col_w}}" for n in names)
    ]
    counts = report.confusion.counts
    for name, row in zip(names, counts):
        percents = 100.0 * row / row.sum()
        cells = "  ".join(f"{p:>{col_w}.2f}" for p in percents)
        lines.append(f"{name:<{label_w}}  {cells}")
    return "\n".join(lines) + "\n"


def render_report(report: EvaluationReport) -> str:
    names = report.class_names
    label_w = max(len(n) for n in names)
    counts = report.confusion.counts
    row_sums = counts.sum(axis=1)
    lines = [
        f"system: {report.system_id}",
        f"clips evaluated: {report.n_clips}",
        f"average accuracy: {100.0 * report.average_accuracy:.2f}%"
        "  (unweighted mean over classes)",
        "per-class accuracy:",
    ]
    for name, acc, correct, total in zip(
        names, report.per_class_accuracy, np.diag(counts), row_sums
    ):
        lines.append(f"  {name:<{label_w}}  {100.0 * acc:>6.2f}%  ({correct}/{total})")
    lines.append("confusion matrix (rows: truth, columns: output, row %):")
    body = render_confusion(report)
    lines.extend("  " + line for line in body.splitlines())
    return "\n".join(lines) + "\n"


def save_report(path, report: EvaluationReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_report(report))
