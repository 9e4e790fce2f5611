"""Score normalization, confusion-derived reliability weights, and fusion.

A score file holds one system's raw scores.  :func:`fuse` alone scales
each clip's scores to [0, 1] with :func:`normalize_scores`, weights them by
how often a system's output for a class really was that class in a
stratified k-fold cross-validation on the training clips, and sums them
into the scores of one more system, ``fusion``.  Its argmax, which
``evaluation.evaluate`` takes, is the final label.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .dataio import check_csv_field


#: the first line of every score file, which holds one system's raw scores
SCORE_PREAMBLE = "#normalized=false"


@dataclass
class ScoreMatrix:
    """Per-clip class scores from one system."""

    system_id: str
    clip_ids: list
    class_names: list
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.clip_ids), len(self.class_names)):
            raise ValueError(
                f"score shape {self.values.shape} does not match "
                f"{len(self.clip_ids)} clips x {len(self.class_names)} classes"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("scores contain non-finite values")

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
    return replace(raw, values=normalized)


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
    """Per class c, the diagonal over its column: the chance an output of c was right."""
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
    a weighted system given none, is an error.  Each system's scores pass
    through :func:`normalize_scores` first.  The sum runs in the weights'
    system order.
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
        ordered.append(normalize_scores(by_system[system_id]))
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
    with open(path, "r", encoding="utf-8", newline="") as fh:
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
    """``SCORE_PREAMBLE``, a header, then one row per clip: clip_id,
    system_id, then per-class scores."""
    if not scores.clip_ids:
        raise ValueError(f"scores of system {scores.system_id!r} have no clips to write")
    check_csv_field(scores.system_id, "system id")
    for name in scores.class_names:
        check_csv_field(name, "class name")
    for clip_id in scores.clip_ids:
        check_csv_field(clip_id, "clip id")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(SCORE_PREAMBLE + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["clip_id", "system_id"] + list(scores.class_names))
        for clip_id, row in zip(scores.clip_ids, scores.values):
            writer.writerow([clip_id, scores.system_id] + [repr(float(v)) for v in row])


def load_score_csv(path) -> ScoreMatrix:
    """Read the one system's scores a score file holds, in row order."""
    records = _csv_records(path)
    preamble = records[0][1] if records else []
    key = SCORE_PREAMBLE.split("=")[0]
    if len(preamble) != 1 or not preamble[0].startswith(key + "="):
        raise ValueError(f"{path}: missing {key} preamble")
    if preamble[0] != SCORE_PREAMBLE:
        raise ValueError(
            f"{path}: bad {key} value {preamble[0].split('=', 1)[1]!r}; a score "
            f"file holds raw scores and opens with {SCORE_PREAMBLE!r}"
        )
    if len(records) < 2 or records[1][1][:2] != ["clip_id", "system_id"]:
        raise ValueError(f"{path}: bad or missing header")
    header_line, header = records[1]
    class_names = [check_csv_field(c, "class name", f"{path}:{header_line}: ") for c in header[2:]]
    if not class_names:
        raise ValueError(f"{path}: no class columns")
    if len(records) < 3:
        raise ValueError(f"{path}: no score rows")
    system_id, first_line, values = None, {}, []
    for lineno, row in records[2:]:
        if len(row) != 2 + len(class_names):
            raise ValueError(f"{path}:{lineno}: expected {2 + len(class_names)} fields")
        clip_id = check_csv_field(row[0], "clip id", f"{path}:{lineno}: ")
        if system_id is None:
            system_id = check_csv_field(row[1], "system id", f"{path}:{lineno}: ")
        elif row[1] != system_id:
            raise ValueError(
                f"{path}:{lineno}: system {row[1]!r}, but line {records[2][0]} "
                f"has {system_id!r}; a score file holds one system"
            )
        first = first_line.setdefault(clip_id, lineno)
        if first != lineno:
            raise ValueError(
                f"{path}:{lineno}: clip {clip_id!r} of system {system_id!r} "
                f"repeats line {first}"
            )
        values.append(_csv_numbers(path, lineno, row[2:]))
    return ScoreMatrix(system_id, list(first_line), class_names, np.array(values, dtype=np.float64))


def save_weights_csv(path, weights: FusionWeights) -> None:
    for name in weights.class_names:
        check_csv_field(name, "class name")
    for system_id in weights.system_ids:
        check_csv_field(system_id, "system id")
    with open(path, "w", encoding="utf-8", newline="") as fh:
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
