"""Score normalization, confusion-derived reliability weights, and fusion.

Per-system scores are min-max normalized per clip, weighted by how often a
system's output for a class really was that class in a stratified k-fold
cross-validation on the training clips, and summed by :func:`fuse` into the
scores of one more system, ``fusion``.  Its argmax, which
``evaluation.evaluate`` takes, is the final label.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .dataio import check_csv_field


@dataclass
class ScoreMatrix:
    """Per-clip class scores from one system, raw or normalized."""

    system_id: str
    clip_ids: list
    class_names: list
    values: np.ndarray
    normalized: bool = False

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.clip_ids), len(self.class_names)):
            raise ValueError(
                f"score shape {self.values.shape} does not match "
                f"{len(self.clip_ids)} clips x {len(self.class_names)} classes"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("scores contain non-finite values")
        if self.normalized and self.values.size:
            inside = (self.values >= -1e-12) & (self.values <= 1.0 + 1e-12)
            if not inside.all() or np.any(np.abs(self.values.max(axis=1) - 1.0) > 1e-12):
                raise ValueError("normalized scores must lie in [0,1] with row max 1")

    @property
    def n_clips(self) -> int:
        return len(self.clip_ids)


@dataclass
class ConfusionMatrix:
    """Counts with ground truth on rows and system output on columns."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ValueError("confusion counts must be square")
        if np.any(self.counts < 0):
            raise ValueError("confusion counts must be nonnegative")

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass
class FusionWeights:
    """Per-system, per-class reliabilities in [0,1]."""

    system_ids: list
    class_names: list
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.system_ids), len(self.class_names)):
            raise ValueError(
                f"weight shape {self.values.shape} does not match "
                f"{len(self.system_ids)} systems x {len(self.class_names)} classes"
            )
        if not np.all((self.values >= 0.0) & (self.values <= 1.0)):
            raise ValueError("weights must be finite and lie in [0,1]")
        repeated = [s for i, s in enumerate(self.system_ids) if s in self.system_ids[:i]]
        if repeated:
            raise ValueError(f"system {repeated[0]!r} has more than one row of weights")


def normalize_scores(raw: ScoreMatrix) -> ScoreMatrix:
    """Min-max normalize each clip row; a constant row becomes all ones."""
    values = raw.values
    lo = values.min(axis=1, keepdims=True)
    hi = values.max(axis=1, keepdims=True)
    span = hi - lo
    flat = span[:, 0] == 0.0
    safe = np.where(span == 0.0, 1.0, span)
    normalized = (values - lo) / safe
    normalized[flat] = 1.0
    return replace(raw, values=normalized, normalized=True)


def tally_confusion(truths, predictions, n_classes: int) -> ConfusionMatrix:
    truths = np.asarray(truths, dtype=np.int64)
    predictions = np.asarray(predictions, dtype=np.int64)
    if truths.shape != predictions.shape:
        raise ValueError("truth and prediction lengths differ")
    for arr, what in ((truths, "truth"), (predictions, "prediction")):
        if arr.size and (arr.min() < 0 or arr.max() >= n_classes):
            raise ValueError(f"{what} index out of range for {n_classes} classes")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (truths, predictions), 1)
    return ConfusionMatrix(counts)


def confusion_weights(confusion: ConfusionMatrix) -> np.ndarray:
    """Column-normalized diagonal: the chance an output of class c was right."""
    counts = confusion.counts.astype(np.float64)
    col_sums = counts.sum(axis=0)
    diag = np.diag(counts)
    return np.divide(
        diag, col_sums, out=np.zeros_like(diag, dtype=np.float64), where=col_sums > 0.0
    )


def fusion_weights(
    confusions: list, system_ids: list, class_names: list
) -> FusionWeights:
    """Stack per-system reliability rows; shapes must agree across systems."""
    if len(confusions) != len(system_ids):
        raise ValueError("need one confusion matrix per system")
    n_classes = len(class_names)
    for system_id, confusion in zip(system_ids, confusions):
        if confusion.n_classes != n_classes:
            raise ValueError(
                f"system {system_id!r} confusion is {confusion.n_classes}-class, "
                f"expected {n_classes}"
            )
    values = np.stack([confusion_weights(c) for c in confusions])
    return FusionWeights(list(system_ids), list(class_names), values)


def fuse(scores, weights: FusionWeights) -> ScoreMatrix:
    """The scores of system ``fusion``: per class, the weighted sum of the
    weighted systems' scores, found by system id among ``scores``.

    Scores of systems without weights are ignored; a system given twice, or
    a weighted system given none, is an error.  Raw scores are min-max
    normalized first.  The sum runs in the weights' system order.
    """
    by_system: dict = {}
    for matrix in scores:
        if matrix.system_id in by_system:
            raise ValueError(f"duplicate scores for system {matrix.system_id!r}")
        by_system[matrix.system_id] = matrix
    ordered = []
    for system_id in weights.system_ids:
        if system_id not in by_system:
            raise ValueError(f"no scores supplied for weighted system {system_id!r}")
        matrix = by_system[system_id]
        ordered.append(matrix if matrix.normalized else normalize_scores(matrix))
    if not ordered:
        raise ValueError("nothing to fuse")
    first = ordered[0]
    for matrix in ordered:
        if matrix.clip_ids != first.clip_ids:
            raise ValueError("systems disagree on clip ids or their order")
        if matrix.class_names != list(weights.class_names):
            raise ValueError(
                f"system {matrix.system_id!r} class names {matrix.class_names} do not "
                f"match the weights' {list(weights.class_names)}"
            )
    fused = np.zeros_like(first.values)
    for row, matrix in zip(weights.values, ordered):
        fused += row[None, :] * matrix.values
    return ScoreMatrix("fusion", list(first.clip_ids), list(weights.class_names), fused)


def stratified_folds(labels, n_folds: int, seed: int) -> np.ndarray:
    """Per-class shuffled round-robin fold assignment.

    The caller checks that there are at least 2 folds and that every class
    has at least ``n_folds`` members, so that each fold holds every class.
    """
    labels = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(seed)
    fold_of = np.empty(labels.shape[0], dtype=np.int64)
    for cls in np.unique(labels):
        order = rng.permutation(np.flatnonzero(labels == cls))
        fold_of[order] = np.arange(order.size) % n_folds
    return fold_of


def cross_validated_confusion(
    labels,
    n_classes: int,
    fold_of,
    fit_and_classify,
) -> ConfusionMatrix:
    """Pool held-out predictions from k folds into one matrix.

    ``fold_of`` gives each clip's fold, as :func:`stratified_folds` does;
    each fold is held out in turn, in fold order.
    ``fit_and_classify(train_idx, test_idx)`` must train on the first index
    set and return predicted class indices for the second.
    """
    labels = np.asarray(labels, dtype=np.int64)
    fold_of = np.asarray(fold_of, dtype=np.int64)
    truths, predictions = [], []
    for fold in np.unique(fold_of):
        test_idx = np.flatnonzero(fold_of == fold)
        train_idx = np.flatnonzero(fold_of != fold)
        predicted = np.asarray(fit_and_classify(train_idx, test_idx), dtype=np.int64)
        if predicted.shape != test_idx.shape:
            raise ValueError("fit_and_classify returned the wrong number of labels")
        truths.append(labels[test_idx])
        predictions.append(predicted)
    return tally_confusion(np.concatenate(truths), np.concatenate(predictions), n_classes)


# --- CSV interfaces ---
# the writers refuse, before they open the file, any name that
# ``check_csv_field`` refuses, and the loaders refuse it naming the line

def _csv_records(path) -> list:
    """The file's CSV records as (line number, fields); a record that
    spans lines is numbered by its last."""
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        return [(reader.line_num, row) for row in reader]


def _csv_numbers(path, lineno: int, fields) -> list:
    """The fields of one CSV line as floats; anything but a finite number
    fails, naming the file and line."""
    values = []
    for text in fields:
        try:
            value = float(text)
        except ValueError:
            value = float("nan")
        if not np.isfinite(value):
            raise ValueError(f"{path}:{lineno}: {text!r} is not a finite number")
        values.append(value)
    return values


def save_score_csv(path, scores: ScoreMatrix) -> None:
    """One row per clip: clip_id, system_id, then per-class scores."""
    check_csv_field(scores.system_id, "system id")
    for name in scores.class_names:
        check_csv_field(name, "class name")
    for clip_id in scores.clip_ids:
        check_csv_field(clip_id, "clip id")
    with open(path, "w", newline="") as fh:
        fh.write(f"#normalized={'true' if scores.normalized else 'false'}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["clip_id", "system_id"] + list(scores.class_names))
        for clip_id, row in zip(scores.clip_ids, scores.values):
            writer.writerow([clip_id, scores.system_id] + [repr(float(v)) for v in row])


def load_score_csv(path) -> list:
    """Read score matrices grouped by system id, preserving row order."""
    records = _csv_records(path)
    preamble = records[0][1] if records else []
    if len(preamble) != 1 or not preamble[0].startswith("#normalized="):
        raise ValueError(f"{path}: missing #normalized preamble")
    flag = preamble[0].split("=", 1)[1]
    if flag not in ("true", "false"):
        raise ValueError(f"{path}: bad #normalized value {flag!r}")
    normalized = flag == "true"
    if len(records) < 2 or records[1][1][:2] != ["clip_id", "system_id"]:
        raise ValueError(f"{path}: bad or missing header")
    header_line, header = records[1]
    class_names = [check_csv_field(c, "class name", f"{path}:{header_line}: ") for c in header[2:]]
    if not class_names:
        raise ValueError(f"{path}: no class columns")
    by_system: dict = {}
    seen: dict = {}
    for lineno, row in records[2:]:
        if len(row) != 2 + len(class_names):
            raise ValueError(f"{path}:{lineno}: expected {2 + len(class_names)} fields")
        clip_id = check_csv_field(row[0], "clip id", f"{path}:{lineno}: ")
        system_id = check_csv_field(row[1], "system id", f"{path}:{lineno}: ")
        first = seen.setdefault((system_id, clip_id), lineno)
        if first != lineno:
            raise ValueError(
                f"{path}:{lineno}: clip {clip_id!r} of system {system_id!r} "
                f"repeats line {first}"
            )
        entry = by_system.setdefault(system_id, ([], []))
        entry[0].append(clip_id)
        entry[1].append(_csv_numbers(path, lineno, row[2:]))
    return [
        ScoreMatrix(
            system_id=system_id,
            clip_ids=clip_ids,
            class_names=list(class_names),
            values=np.array(values, dtype=np.float64),
            normalized=normalized,
        )
        for system_id, (clip_ids, values) in by_system.items()
    ]


def save_weights_csv(path, weights: FusionWeights) -> None:
    for name in weights.class_names:
        check_csv_field(name, "class name")
    for system_id in weights.system_ids:
        check_csv_field(system_id, "system id")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["system_id"] + list(weights.class_names))
        for system_id, row in zip(weights.system_ids, weights.values):
            writer.writerow([system_id] + [repr(float(v)) for v in row])


def load_weights_csv(path) -> FusionWeights:
    records = _csv_records(path)
    if not records or records[0][1][:1] != ["system_id"]:
        raise ValueError(f"{path}: bad or missing header")
    header_line, header = records[0]
    class_names = [check_csv_field(c, "class name", f"{path}:{header_line}: ") for c in header[1:]]
    first_line: dict = {}
    values = []
    for lineno, row in records[1:]:
        if len(row) != 1 + len(class_names):
            raise ValueError(f"{path}:{lineno}: expected {1 + len(class_names)} fields")
        check_csv_field(row[0], "system id", f"{path}:{lineno}: ")
        first = first_line.setdefault(row[0], lineno)
        if first != lineno:
            raise ValueError(f"{path}:{lineno}: system {row[0]!r} repeats line {first}")
        values.append(_csv_numbers(path, lineno, row[1:]))
    return FusionWeights(list(first_line), class_names, np.array(values, dtype=np.float64))
