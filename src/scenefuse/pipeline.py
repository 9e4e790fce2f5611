"""End-to-end orchestration: extract, train, weight, classify, fuse, report.

A run is driven by a small key-value config file and writes a fixed artifact
tree under its output directory.  Every stage is deterministic for fixed
seeds, so a rerun reproduces all artifacts byte for byte.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import cdl as cdl_mod
from . import gmm as gmm_mod
from .dataio import (
    AudioClip,
    DatasetManifest,
    FeatureStore,
    load_manifest,
    read_wav,
    resolve_clip_path,
    save_manifest,
    split_dataset,
)
from .evaluation import EvaluationReport, evaluate, save_report
from .features import (
    CEPSCOM_PARTS,
    DELTA_WINDOW,
    FRAME_LEN,
    HOP,
    extract_selected,
    frame_clip,
    stored_families,
)
from .fusion import (
    FusionWeights,
    ScoreMatrix,
    cross_validated_confusion,
    fuse,
    fusion_weights,
    save_score_csv,
    save_weights_csv,
    stratified_folds,
)
from .spectral import FeatureMatrix, append_deltas, check_framing

class SystemSpec(NamedTuple):
    family: str  # the feature family the system consumes
    backend: str  # "gmm" or "cdl"


#: system id -> what it is built from, in canonical order
SYSTEMS = {
    "mfcc-gmm": SystemSpec("mfcc", "gmm"),
    "pncc-gmm": SystemSpec("pncc", "gmm"),
    "rcgcc-gmm": SystemSpec("rcgcc", "gmm"),
    "spcc-gmm": SystemSpec("spcc", "gmm"),
    "cepscom-gmm": SystemSpec("cepscom", "gmm"),
    "plp-gmm": SystemSpec("plp", "gmm"),
    "cepscom-cdl": SystemSpec("cepscom", "cdl"),
}

ALL_SYSTEMS = tuple(SYSTEMS)
DEFAULT_FUSED = ("cepscom-gmm", "cepscom-cdl", "plp-gmm")


def check_names(names, universe, what: str) -> tuple:
    """``names`` as a tuple, if it is a nonempty list of distinct members of
    ``universe``; ``what`` is what one name is called in the errors."""
    names = tuple(names)
    if not names:
        raise ValueError(f"empty {what} list")
    for i, name in enumerate(names):
        if name not in universe:
            raise ValueError(f"unknown {what} {name!r}; expected one of {tuple(universe)}")
        if name in names[:i]:
            raise ValueError(f"{what} {name!r} is named more than once")
    return names


def check_fold_count(folds: int) -> None:
    """Refuse fewer than 2 cross-validation folds."""
    if folds < 2:
        raise ValueError(f"need at least 2 folds, got {folds}")


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message carries the stage tag."""


@contextmanager
def _stage(name: str):
    try:
        yield
    except PipelineError:
        raise
    except (ValueError, OSError, KeyError) as exc:
        raise PipelineError(f"[{name}] {exc}") from exc


@dataclass(kw_only=True)
class TrainOptions:
    """Knobs shared by system training inside and outside full runs.

    Their defaults are declared here only; :class:`PipelineConfig` inherits
    them and the CLI reads them off this class.
    """

    mixtures_cepstral: int = 64
    mixtures_plp: int = 4
    gmm_seed: int = 23

    def __post_init__(self) -> None:
        if self.mixtures_cepstral < 1 or self.mixtures_plp < 1:
            raise ValueError("mixture counts must be positive")


@dataclass
class PipelineConfig(TrainOptions):
    """Run parameters: the training options plus paths, split, weights and
    framing; paths are resolved by the config parser."""

    manifest: Path
    out_dir: Path
    train_fraction: float = 0.25
    split_seed: int = 17
    weights_folds: int = 4
    weights_seed: int = 29
    frame_len: int = FRAME_LEN
    hop: int = HOP
    systems: tuple = ALL_SYSTEMS
    fused: tuple = DEFAULT_FUSED

    def __post_init__(self) -> None:
        self.manifest = Path(self.manifest)
        self.out_dir = Path(self.out_dir)
        self.systems = check_names(self.systems, ALL_SYSTEMS, "system")
        self.fused = check_names(self.fused, self.systems, "fused system")
        check_fold_count(self.weights_folds)
        check_framing(self.frame_len, self.hop)
        super().__post_init__()


#: numeric keys -> (parser, the type an error names)
_CONFIG_NUMBER_KEYS = {
    **dict.fromkeys(
        ("split_seed", "gmm_seed", "weights_folds", "weights_seed",
         "mixtures_cepstral", "mixtures_plp", "frame_len", "hop"),
        (int, "an integer"),
    ),
    "train_fraction": (float, "a number"),
}
_CONFIG_LIST_KEYS = {"systems", "fused"}
_CONFIG_PATH_KEYS = {"manifest", "out_dir"}


def parse_config(path: str | Path) -> PipelineConfig:
    """Read ``key = value`` lines; relative paths are config-file relative."""
    path = Path(path)
    base = path.parent
    values: dict = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        if key in _CONFIG_NUMBER_KEYS:
            convert, kind = _CONFIG_NUMBER_KEYS[key]
            try:
                values[key] = convert(value)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: key {key!r} expects {kind}, got {value!r}"
                ) from None
        elif key in _CONFIG_LIST_KEYS:
            values[key] = tuple(v.strip() for v in value.split(",") if v.strip())
        elif key in _CONFIG_PATH_KEYS:
            p = Path(value)
            values[key] = p if p.is_absolute() else base / p
        else:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    for required in ("manifest", "out_dir"):
        if required not in values:
            raise ValueError(f"{path}: missing required key {required!r}")
    try:
        return PipelineConfig(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@dataclass
class SystemModel:
    """A trained classifier of one ``SYSTEMS`` entry, which names its
    feature family and back-end, with its classes in score-column order."""

    system_id: str
    class_names: list
    model: gmm_mod.GmmBank | cdl_mod.CdlProjection


def required_extractors(system_ids) -> list:
    """The stored families the systems read, cepscom as its parts."""
    return stored_families(SYSTEMS[s].family for s in system_ids)


def _read_clip(manifest_path: str | Path, entry_path: str) -> AudioClip:
    """A manifest entry's clip, decoded and named by its entry path."""
    return replace(read_wav(resolve_clip_path(manifest_path, entry_path)), source_id=entry_path)


def extract_for_manifest(
    manifest: DatasetManifest,
    manifest_path: str | Path,
    extractors,
    *,
    frame_len: int = FRAME_LEN,
    hop: int = HOP,
) -> FeatureStore:
    """Decode and extract every clip; records are keyed by manifest path."""
    store = FeatureStore()
    for entry_path, _ in manifest.entries:
        clip = _read_clip(manifest_path, entry_path)
        for name, mat in extract_selected(clip, extractors, frame_len=frame_len, hop=hop).items():
            store.add(entry_path, name, mat.values)
    return store


def _clip_stores(
    manifest: DatasetManifest, manifest_path: str | Path, extractors, *, frame_len: int, hop: int
):
    """Each clip of the manifest in turn, as ``(entry path, store)``: the
    store, made by :func:`extract_for_manifest`, holds that clip's records
    alone."""
    for i, (entry_path, _) in enumerate(manifest.entries):
        yield entry_path, extract_for_manifest(
            manifest.subset([i]), manifest_path, extractors, frame_len=frame_len, hop=hop
        )


def _gmm_seed(base: int, system_id: str, class_index: int) -> int:
    system_index = ALL_SYSTEMS.index(system_id)
    return (base * 1000003 + system_index * 101 + class_index) & 0x7FFFFFFF


def clip_features(store: FeatureStore, entry_path: str, family: str) -> np.ndarray:
    """A clip's frames x dims matrix of one family as a system reads it,
    ``[static | delta | delta-delta]``; cepscom is joined, frame by frame,
    from its parts, each in that layout.

    The store holds static columns only, and this is the one place their
    deltas are derived, at ``DELTA_WINDOW``: in one call over the joined
    static columns, since a column's deltas depend on that column alone.
    """
    parts = [store.get(entry_path, name) for name in stored_families([family])]
    for what, sizes in (("frames", [p.shape[0] for p in parts]),
                        ("columns", [p.shape[1] for p in parts])):
        if len(set(sizes)) != 1:
            raise ValueError(
                f"clip {entry_path!r}: the cepscom parts {CEPSCOM_PARTS} have "
                f"{sizes} {what}; they must agree"
            )
    static = parts[0] if len(parts) == 1 else np.hstack(parts)
    derived = append_deltas(FeatureMatrix(static), DELTA_WINDOW).values
    # [static | delta | delta-delta] of the joined columns, regrouped per part
    n = static.shape[0]
    return derived.reshape(n, 3, len(parts), -1).transpose(0, 2, 1, 3).reshape(n, -1)


def _clip_embedding(store: FeatureStore, entry_path: str, family: str) -> np.ndarray:
    """A clip's CDL log-embedding."""
    return cdl_mod.log_embed(
        cdl_mod.covariance_descriptor(
            clip_features(store, entry_path, family), source_id=entry_path
        )
    )


class TrainingSet:
    """The training clips, which every fit reads by row: the feature store,
    the clips' paths, class names and class indices, and per feature family
    the clips' CDL log-embeddings as one clips x d_vec float64 matrix whose
    row i is clip i's, centred in place on the mean of all rows, with its
    Gram matrix (:class:`cdl.CentredEmbeddings`), made whole when first read.

    A run shares one set between its weight estimation and its final CDL
    fits, so each training clip is embedded once per run: every fit is on
    rows of the matrix in kernel form, with no copy of them (see
    :func:`cdl.fit_cdl`), and held-out clips are scored from their rows.
    The store is write-once, so a row never goes stale.
    """

    def __init__(self, store: FeatureStore, train: DatasetManifest) -> None:
        self.store = store
        self.paths = [entry_path for entry_path, _ in train.entries]
        self.class_names = list(train.class_names)
        self.labels = train.label_indices()
        self._embeddings: dict = {}  # family -> its CentredEmbeddings

    def embeddings(self, family: str) -> cdl_mod.CentredEmbeddings:
        """The clips' centred log-embeddings of one family, made on first use."""
        if family not in self._embeddings:
            matrix = None
            for i, path in enumerate(self.paths):
                embedding = _clip_embedding(self.store, path, family)
                if matrix is None:
                    matrix = np.empty((len(self.paths), embedding.size))
                matrix[i] = embedding
            self._embeddings[family] = cdl_mod.centre_embeddings(matrix)
        return self._embeddings[family]


def _mixtures(extractor: str, opts: TrainOptions) -> int:
    return opts.mixtures_plp if extractor == "plp" else opts.mixtures_cepstral


def _check_trainable(
    system_id: str,
    data: TrainingSet,
    rows,
    opts: TrainOptions,
    context: str = "",
) -> None:
    """Raise ``ValueError`` naming the system, and the class at fault, if
    the clips ``rows`` of ``data`` cannot fit the system: CDL needs 2
    classes and 2 clips of each, a GMM as many frames of each class as it
    has components.  ``context`` follows the count in the message."""
    extractor, backend = SYSTEMS[system_id]
    labels = data.labels[rows]
    n_classes = len(data.class_names)
    if backend == "cdl":
        if n_classes < 2:
            raise ValueError(
                f"{system_id}: the training clips have {n_classes} classes{context}, "
                "need at least 2"
            )
        for class_name, count in zip(data.class_names, np.bincount(labels, minlength=n_classes)):
            if count < 2:
                raise ValueError(
                    f"{system_id}: class {class_name!r} has {count} training clips"
                    f"{context}, need at least 2"
                )
        return
    n_components = _mixtures(extractor, opts)
    # a cepscom clip has the frame count of each of its stored parts
    stored = stored_families([extractor])[0]
    frames = np.zeros(n_classes, dtype=np.int64)
    for i, label in zip(rows, labels):
        frames[label] += data.store.get(data.paths[i], stored).shape[0]
    for class_name, count in zip(data.class_names, frames):
        if count < n_components:
            raise ValueError(
                f"{system_id}: class {class_name!r} has {count} frames{context}, "
                f"fewer than {n_components} mixture components"
            )


def _class_matrix(store: FeatureStore, paths, family: str) -> np.ndarray:
    """The clips' frames of one family as one matrix, preallocated to their
    frame count, with each clip's rows written into it in turn."""
    stored = stored_families([family])
    frames = [store.get(entry_path, stored[0]).shape[0] for entry_path in paths]
    stops = np.cumsum(frames)
    # [static | delta | delta-delta] of each stored part
    width = 3 * sum(store.get(paths[0], name).shape[1] for name in stored)
    matrix = np.empty((stops[-1], width))
    for entry_path, start, stop in zip(paths, stops - frames, stops):
        matrix[start:stop] = clip_features(store, entry_path, family)
    return matrix


def fit_system(system_id: str, data: TrainingSet, opts: TrainOptions, rows=None) -> SystemModel:
    """Train one system on the clips ``rows`` indexes in ``data`` (None:
    all of them).

    A CDL system fits on those rows of the set's embedding matrix.  A GMM
    system builds each class's frames as the argument of that class's EM,
    so only one class's matrix is alive at a time.
    """
    rows = np.arange(len(data.paths)) if rows is None else np.asarray(rows, dtype=np.intp)
    _check_trainable(system_id, data, rows, opts)
    family, backend = SYSTEMS[system_id]
    labels = data.labels[rows]
    if backend == "cdl":
        model = cdl_mod.fit_cdl(
            data.embeddings(family), labels, n_classes=len(data.class_names), rows=rows
        )
    else:
        model = gmm_mod.GmmBank([
            gmm_mod.fit_gmm(
                _class_matrix(data.store, [data.paths[i] for i in rows[labels == c]], family),
                _mixtures(family, opts),
                _gmm_seed(opts.gmm_seed, system_id, c),
            )
            for c in range(len(data.class_names))
        ])
    return SystemModel(system_id, list(data.class_names), model)


def _clip_scores(model: SystemModel, store: FeatureStore, entry_path: str) -> np.ndarray:
    family, backend = SYSTEMS[model.system_id]
    if backend == "gmm":
        return gmm_mod.classify_gmm(model.model, clip_features(store, entry_path, family))
    return cdl_mod.classify_cdl(model.model, _clip_embedding(store, entry_path, family))


def _score_clips(models, clip_stores) -> list:
    """Raw per-class scores of each model, one :class:`ScoreMatrix` each,
    for the clips ``clip_stores`` yields as ``(entry path, store)``, in
    that order.  Every model scores a clip before the next is read."""
    clip_ids, rows = [], [[] for _ in models]
    for entry_path, store in clip_stores:
        clip_ids.append(entry_path)
        for model, model_rows in zip(models, rows):
            model_rows.append(_clip_scores(model, store, entry_path))
        # let a one-clip store go before the next clip's is made
        del store
    return [
        ScoreMatrix(
            system_id=model.system_id,
            clip_ids=list(clip_ids),
            class_names=list(model.class_names),
            values=np.vstack(model_rows) if model_rows else np.zeros((0, len(model.class_names))),
            normalized=False,
        )
        for model, model_rows in zip(models, rows)
    ]


def score_system(model: SystemModel, store: FeatureStore, clips: DatasetManifest) -> ScoreMatrix:
    """Raw per-class scores for every clip in the manifest."""
    (scores,) = _score_clips([model], ((entry_path, store) for entry_path, _ in clips.entries))
    return scores


def _fold_runner(system_id: str, data: TrainingSet, opts: TrainOptions):
    family, backend = SYSTEMS[system_id]

    def run(train_idx, test_idx):
        model = fit_system(system_id, data, opts, train_idx)
        if backend == "cdl":
            # held out of this fold, but training clips of the run
            embeddings = data.embeddings(family)
            scores = (cdl_mod.classify_cdl(model.model, embeddings.centred[i] + embeddings.mean)
                      for i in test_idx)
        else:
            scores = (_clip_scores(model, data.store, data.paths[i]) for i in test_idx)
        return [int(np.argmax(row)) for row in scores]

    return run


def estimate_weights(
    data: TrainingSet, system_ids, opts: TrainOptions, *, folds: int, seed: int
) -> FusionWeights:
    """Reliability weights for the given systems from their stratified
    ``folds``-fold cross-validated confusions on the training clips: at
    least 2 folds, and no more than any class has clips.

    The CDL folds fill ``data``'s embeddings, which a later
    :func:`fit_system` on ``data`` then takes whole."""
    check_fold_count(folds)
    n_classes = len(data.class_names)
    counts = np.bincount(data.labels, minlength=n_classes)
    for class_name, count in zip(data.class_names, counts):
        if count < folds:
            raise ValueError(
                f"class {class_name!r} has {count} training clips, fewer than {folds} folds"
            )
    # every fold's training part must fit every system, checked before any fit
    fold_of = stratified_folds(data.labels, folds, seed)
    for fold in range(folds):
        rows = np.flatnonzero(fold_of != fold)
        for system_id in system_ids:
            _check_trainable(
                system_id, data, rows, opts, f" with fold {fold + 1} of {folds} held out"
            )
    confusions = [
        cross_validated_confusion(
            data.labels, n_classes, fold_of, _fold_runner(system_id, data, opts)
        )
        for system_id in system_ids
    ]
    return fusion_weights(confusions, list(system_ids), list(data.class_names))


@dataclass
class RunResult:
    """Everything a run produced, with the paths it was written to."""

    config: PipelineConfig
    class_names: list
    reports: dict
    fusion_report: EvaluationReport
    weights: FusionWeights
    artifact_paths: dict = field(default_factory=dict)


def _model_path(out_dir: Path, system_id: str) -> Path:
    suffix = {"gmm": ".sfg", "cdl": ".sfc"}[SYSTEMS[system_id].backend]
    return out_dir / "models" / f"{system_id}{suffix}"


def save_system_model(path: str | Path, model: SystemModel) -> None:
    family, backend = SYSTEMS[model.system_id]
    save = gmm_mod.save_gmm_bank if backend == "gmm" else cdl_mod.save_cdl_model
    save(path, model.model, family, model.class_names)


def load_system_model(path: str | Path) -> SystemModel:
    """Read a model written by :func:`save_system_model`, its classes in the
    order it was trained with.

    The back-end is read off the file's magic, the feature family and the
    model's class names off its header; the ``SYSTEMS`` entry built from
    that family and back-end names the model.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == gmm_mod.GMM_BANK_MAGIC:
        backend, (family, class_names, model) = "gmm", gmm_mod.load_gmm_bank(path)
    elif magic == cdl_mod.CDL_MODEL_MAGIC:
        backend, (family, class_names, model) = "cdl", cdl_mod.load_cdl_model(path)
    else:
        raise ValueError(f"{path}: unrecognized model magic {magic!r}")
    spec = SystemSpec(family, backend)
    system_id = next((name for name, built in SYSTEMS.items() if built == spec), None)
    if system_id is None:
        raise ValueError(
            f"{path}: no system is built from {family} features with a {backend} back-end"
        )
    return SystemModel(system_id, class_names, model)


def _write_summary(path: Path, result: RunResult, train_count: int, test_count: int) -> None:
    lines = [
        f"clips: {train_count + test_count} (train {train_count}, test {test_count})",
        "classes: " + ", ".join(result.class_names),
        "average accuracy (%):",
    ]
    for system_id in result.config.systems:
        report = result.reports[system_id]
        lines.append(f"  {system_id:<12} {100.0 * report.average_accuracy:6.2f}")
    lines.append(f"  {'fusion':<12} {100.0 * result.fusion_report.average_accuracy:6.2f}")
    lines.append("fused systems: " + ", ".join(result.config.fused))
    lines.append(f"weights method: cv ({result.config.weights_folds} folds)")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_pipeline(config: PipelineConfig | str | Path) -> RunResult:
    """Execute the full chain and write all artifacts under ``out_dir``.

    The feature store holds the training clips only, and lives until the
    final fits are done.  ``classify`` then decodes, extracts and scores
    one test clip at a time, with every system, and keeps only its scores.
    """
    if not isinstance(config, PipelineConfig):
        with _stage("config"):
            config = parse_config(config)

    with _stage("load"):
        manifest = load_manifest(config.manifest)
    with _stage("split"):
        train, test = split_dataset(manifest, config.train_fraction, config.split_seed)
        out = config.out_dir
        out.mkdir(parents=True, exist_ok=True)
        save_manifest(train, out / "train_manifest.tsv")
        save_manifest(test, out / "test_manifest.tsv")

    with _stage("extract"):
        extractors = required_extractors(config.systems)
        framing = {"frame_len": config.frame_len, "hop": config.hop}
        # classify decodes and extracts the test clips one at a time; each is
        # decoded and framed here first, keeping nothing, so a bad one fails
        # before any fit
        for entry_path, _ in test.entries:
            frame_clip(_read_clip(config.manifest, entry_path), extractors, **framing)
        store = extract_for_manifest(train, config.manifest, extractors, **framing)

    # the training clips with their CDL embeddings, from the CV folds to the final fit
    data = TrainingSet(store, train)
    with _stage("weights"):
        weights = estimate_weights(
            data, config.fused, config, folds=config.weights_folds, seed=config.weights_seed
        )
        (out / "models").mkdir(exist_ok=True)
        save_weights_csv(out / "weights.csv", weights)

    with _stage("train"):
        models = {system_id: fit_system(system_id, data, config)
                  for system_id in config.systems if SYSTEMS[system_id].backend == "cdl"}
        # the CDL fits were the embeddings' last use: no GMM fit runs beside
        # them, so the GMM fits read a set that holds none
        data = TrainingSet(store, train)
        for system_id in config.systems:
            if SYSTEMS[system_id].backend == "gmm":
                models[system_id] = fit_system(system_id, data, config)
        for system_id in config.systems:
            save_system_model(_model_path(out, system_id), models[system_id])
    # no stage after train reads a training clip's records
    del store, data

    with _stage("classify"):
        (out / "scores").mkdir(exist_ok=True)
        raw_scores = {}
        for scores in _score_clips(
            [models[system_id] for system_id in config.systems],
            _clip_stores(test, config.manifest, extractors, **framing),
        ):
            save_score_csv(out / "scores" / f"{scores.system_id}.csv", scores)
            raw_scores[scores.system_id] = scores

    with _stage("fuse"):
        fused = fuse(raw_scores.values(), weights)
        save_score_csv(out / "scores" / "fusion.csv", fused)

    with _stage("evaluate"):
        (out / "reports").mkdir(exist_ok=True)
        reports = {}
        for system_id, scores in raw_scores.items():
            report = evaluate(scores, test)
            save_report(out / "reports" / f"{system_id}.txt", report)
            reports[system_id] = report
        fusion_report = evaluate(fused, test)
        save_report(out / "reports" / "fusion.txt", fusion_report)

        result = RunResult(
            config=config,
            class_names=list(manifest.class_names),
            reports=reports,
            fusion_report=fusion_report,
            weights=weights,
            artifact_paths={
                "out_dir": out,
                "weights": out / "weights.csv",
                "summary": out / "summary.txt",
            },
        )
        _write_summary(out / "summary.txt", result, len(train), len(test))
    return result
