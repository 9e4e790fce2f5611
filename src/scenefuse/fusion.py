"""Score normalization, confusion-derived reliability weights, and fusion.

Per-system scores are min-max normalized per clip, weighted by how often a
system's output for a class really was that class on training data, and
summed.  The fused argmax is the final label.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np


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


@dataclass
class FusionDecision:
    """Fused score vectors and the argmax label per clip."""

    clip_ids: list
    class_names: list
    fused: np.ndarray
    predicted: np.ndarray

    def __post_init__(self) -> None:
        self.fused = np.asarray(self.fused, dtype=np.float64)
        self.predicted = np.asarray(self.predicted, dtype=np.int64)


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


def fuse(normalized: list, weights: FusionWeights) -> FusionDecision:
    """Weighted score sum per class; argmax with lowest-index tie-break."""
    if not normalized:
        raise ValueError("nothing to fuse")
    if [s.system_id for s in normalized] != list(weights.system_ids):
        raise ValueError(
            f"score systems {[s.system_id for s in normalized]} do not match "
            f"weight systems {list(weights.system_ids)}"
        )
    first = normalized[0]
    for scores in normalized:
        if not scores.normalized:
            raise ValueError(f"system {scores.system_id!r} scores are not normalized")
        if scores.clip_ids != first.clip_ids:
            raise ValueError("systems disagree on clip ids or their order")
        if scores.class_names != list(weights.class_names):
            raise ValueError(f"system {scores.system_id!r} class names do not match weights")
    fused = np.zeros_like(first.values)
    for row, scores in zip(weights.values, normalized):
        fused += row[None, :] * scores.values
    return FusionDecision(
        clip_ids=list(first.clip_ids),
        class_names=list(weights.class_names),
        fused=fused,
        predicted=np.argmax(fused, axis=1).astype(np.int64),
    )


def stratified_folds(labels, n_folds: int, seed: int) -> np.ndarray:
    """Per-class shuffled round-robin fold assignment; every class needs
    at least n_folds members."""
    labels = np.asarray(labels, dtype=np.int64)
    if n_folds < 2:
        raise ValueError(f"need at least 2 folds, got {n_folds}")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(labels.shape[0], dtype=np.int64)
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        if members.size < n_folds:
            raise ValueError(
                f"class {cls} has {members.size} clips, fewer than {n_folds} folds"
            )
        order = rng.permutation(members)
        fold_of[order] = np.arange(order.size) % n_folds
    return fold_of


def cross_validated_confusion(
    labels,
    n_classes: int,
    n_folds: int,
    seed: int,
    fit_and_classify,
) -> ConfusionMatrix:
    """Pool held-out predictions from a stratified k-fold into one matrix.

    ``fit_and_classify(train_idx, test_idx)`` must train on the first index
    set and return predicted class indices for the second.
    """
    labels = np.asarray(labels, dtype=np.int64)
    fold_of = stratified_folds(labels, n_folds, seed)
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    for fold in range(n_folds):
        test_idx = np.flatnonzero(fold_of == fold)
        train_idx = np.flatnonzero(fold_of != fold)
        predicted = np.asarray(fit_and_classify(train_idx, test_idx), dtype=np.int64)
        if predicted.shape != test_idx.shape:
            raise ValueError("fit_and_classify returned the wrong number of labels")
        np.add.at(counts, (labels[test_idx], predicted), 1)
    return ConfusionMatrix(counts)


def resubstitution_confusion(
    labels, n_classes: int, fit_and_classify
) -> ConfusionMatrix:
    """Train and evaluate on the same clips; optimistic but protocol-simple."""
    labels = np.asarray(labels, dtype=np.int64)
    everything = np.arange(labels.shape[0])
    predicted = np.asarray(fit_and_classify(everything, everything), dtype=np.int64)
    return tally_confusion(labels, predicted, n_classes)


# --- CSV interfaces ---

def _check_csv_field(value: str, what: str) -> str:
    if "," in value or "\n" in value or "\r" in value:
        raise ValueError(f"{what} {value!r} may not contain commas or newlines")
    return value


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
    _check_csv_field(scores.system_id, "system id")
    with open(path, "w", newline="") as fh:
        fh.write(f"#normalized={'true' if scores.normalized else 'false'}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["clip_id", "system_id"]
            + [_check_csv_field(c, "class name") for c in scores.class_names]
        )
        for clip_id, row in zip(scores.clip_ids, scores.values):
            writer.writerow(
                [_check_csv_field(clip_id, "clip id"), scores.system_id]
                + [repr(float(v)) for v in row]
            )


def load_score_csv(path) -> list:
    """Read score matrices grouped by system id, preserving row order."""
    with open(path, "r", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("#normalized="):
        raise ValueError(f"{path}: missing #normalized preamble")
    flag = lines[0].split("=", 1)[1]
    if flag not in ("true", "false"):
        raise ValueError(f"{path}: bad #normalized value {flag!r}")
    normalized = flag == "true"
    rows = list(csv.reader(lines[1:]))
    if not rows or rows[0][:2] != ["clip_id", "system_id"]:
        raise ValueError(f"{path}: bad or missing header")
    class_names = rows[0][2:]
    if not class_names:
        raise ValueError(f"{path}: no class columns")
    by_system: dict = {}
    seen: dict = {}
    for lineno, row in enumerate(rows[1:], start=3):
        if len(row) != 2 + len(class_names):
            raise ValueError(f"{path}:{lineno}: expected {2 + len(class_names)} fields")
        clip_id, system_id = row[0], row[1]
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["system_id"]
            + [_check_csv_field(c, "class name") for c in weights.class_names]
        )
        for system_id, row in zip(weights.system_ids, weights.values):
            writer.writerow(
                [_check_csv_field(system_id, "system id")]
                + [repr(float(v)) for v in row]
            )


def load_weights_csv(path) -> FusionWeights:
    with open(path, "r", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:1] != ["system_id"]:
        raise ValueError(f"{path}: bad or missing header")
    class_names = rows[0][1:]
    first_line: dict = {}
    values = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 1 + len(class_names):
            raise ValueError(f"{path}:{lineno}: expected {1 + len(class_names)} fields")
        first = first_line.setdefault(row[0], lineno)
        if first != lineno:
            raise ValueError(f"{path}:{lineno}: system {row[0]!r} repeats line {first}")
        values.append(_csv_numbers(path, lineno, row[1:]))
    return FusionWeights(list(first_line), class_names, np.array(values, dtype=np.float64))
