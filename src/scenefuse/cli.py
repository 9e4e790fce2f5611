"""Command-line entry points for extraction, training, fusion, and full runs."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .dataio import load_features, load_manifest, save_features
from .evaluation import evaluate, save_report
from .features import EXTRACTOR_NAMES, FRAME_LEN, HOP, stored_families
from .fusion import (
    fuse,
    load_score_csv,
    load_weights_csv,
    normalize_scores,
    save_score_csv,
    save_weights_csv,
    ScoreMatrix,
)
from .pipeline import (
    ALL_SYSTEMS,
    WEIGHT_METHODS,
    PipelineConfig,
    PipelineError,
    TrainOptions,
    estimate_weights,
    extract_for_manifest,
    fit_system,
    load_system_model,
    required_extractors,
    run_pipeline,
    save_system_model,
    score_system,
)
from .synth import benchmark_profiles, profile_by_name, synthesize_dataset


def _parse_names(raw: str, universe, what: str) -> list:
    if raw == "all":
        return list(universe)
    names = [part.strip() for part in raw.split(",") if part.strip()]
    if not names:
        raise ValueError(f"empty {what} list")
    for name in names:
        if name not in universe:
            raise ValueError(f"unknown {what} {name!r}; expected one of {tuple(universe)}")
    return names


def _mixture_counts(args) -> dict:
    """``--mixtures`` sets both counts; unset, TrainOptions' defaults hold."""
    if args.mixtures is None:
        return {}
    return {"mixtures_cepstral": args.mixtures, "mixtures_plp": args.mixtures}


def _cmd_extract(args) -> None:
    manifest = load_manifest(args.manifest)
    names = _parse_names(args.features, EXTRACTOR_NAMES, "extractor")
    store = extract_for_manifest(
        manifest, args.manifest, names, frame_len=args.frame_len, hop=args.hop
    )
    save_features(store, args.out)
    print(f"wrote {len(store)} feature matrices for {len(manifest)} clips to {args.out}")


def _cmd_train(args) -> None:
    store = load_features(args.features, stored_families(required_extractors([args.system])))
    manifest = load_manifest(args.manifest)
    opts = TrainOptions(gmm_seed=args.gmm_seed, **_mixture_counts(args))
    model = fit_system(args.system, store, manifest, opts)
    save_system_model(args.out, model)
    print(f"trained {args.system} on {len(manifest)} clips; model written to {args.out}")


def _cmd_weights(args) -> None:
    systems = _parse_names(args.systems, ALL_SYSTEMS, "system")
    store = load_features(args.features, stored_families(required_extractors(systems)))
    manifest = load_manifest(args.manifest)
    opts = TrainOptions(gmm_seed=args.gmm_seed, **_mixture_counts(args))
    weights = estimate_weights(
        store,
        manifest,
        systems,
        opts,
        method=args.method,
        folds=args.folds,
        seed=args.seed,
    )
    save_weights_csv(args.out, weights)
    print(f"estimated weights for {len(systems)} systems; written to {args.out}")


def _cmd_classify(args) -> None:
    manifest = load_manifest(args.manifest)
    # the model's feature family decides which records to read
    model = load_system_model(args.model, args.system_id, manifest.class_names)
    store = load_features(args.features, stored_families([model.extractor]))
    scores = score_system(model, store, manifest)
    save_score_csv(args.out, scores)
    print(f"scored {scores.n_clips} clips with {model.system_id}; written to {args.out}")


def _cmd_fuse(args) -> None:
    weights = load_weights_csv(args.weights)
    by_system: dict = {}
    for path in args.scores:
        for matrix in load_score_csv(path):
            if matrix.system_id in by_system:
                raise ValueError(f"duplicate scores for system {matrix.system_id!r}")
            by_system[matrix.system_id] = matrix
    ordered = []
    for system_id in weights.system_ids:
        if system_id not in by_system:
            raise ValueError(f"no scores supplied for weighted system {system_id!r}")
        matrix = by_system[system_id]
        ordered.append(matrix if matrix.normalized else normalize_scores(matrix))
    decision = fuse(ordered, weights)
    fused_matrix = ScoreMatrix(
        system_id="fusion",
        clip_ids=decision.clip_ids,
        class_names=decision.class_names,
        values=decision.fused,
        normalized=False,
    )
    save_score_csv(args.out, fused_matrix)
    print(f"fused {len(ordered)} systems over {len(decision.clip_ids)} clips; "
          f"written to {args.out}")


def _cmd_evaluate(args) -> None:
    matrices = load_score_csv(args.pred)
    if len(matrices) != 1:
        raise ValueError(
            f"{args.pred}: expected scores for exactly one system, found "
            f"{[m.system_id for m in matrices]}"
        )
    matrix = matrices[0]
    manifest = load_manifest(args.manifest)
    if matrix.class_names != list(manifest.class_names):
        raise ValueError("score file and manifest disagree on class names")
    label_of = {path: idx for (path, _), idx in
                zip(manifest.entries, manifest.label_indices())}
    truths = []
    for clip_id in matrix.clip_ids:
        if clip_id not in label_of:
            raise ValueError(f"clip {clip_id!r} is not in the manifest")
        truths.append(label_of[clip_id])
    predictions = np.argmax(matrix.values, axis=1)
    report = evaluate(predictions, truths, manifest.class_names, matrix.system_id)
    save_report(args.report, report)
    print(f"{matrix.system_id}: average accuracy "
          f"{100.0 * report.average_accuracy:.2f}% ({report.n_clips} clips); "
          f"report written to {args.report}")


def _cmd_synth(args) -> None:
    if args.profile == "benchmark":
        profiles = benchmark_profiles()
    else:
        profiles = [profile_by_name(args.profile)]
    manifest_path = synthesize_dataset(
        profiles, args.count, args.duration, args.sample_rate, args.out, args.seed
    )
    n = len(profiles) * args.count
    print(f"wrote {n} clips and {manifest_path}")


def _cmd_run(args) -> None:
    result = run_pipeline(args.config)
    summary = result.artifact_paths["summary"]
    sys.stdout.write(summary.read_text(encoding="utf-8"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenefuse",
        description="Acoustic scene classification with cepstral features, "
        "per-class mixtures, covariance descriptors, and weighted score fusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    mixtures_help = (
        "override the mixture count of every system (default "
        f"{TrainOptions.mixtures_cepstral}, plp {TrainOptions.mixtures_plp})"
    )

    p = sub.add_parser("extract", help="decode clips and write a feature file")
    p.add_argument("--manifest", required=True)
    p.add_argument("--features", default="all",
                   help="comma-separated extractor names, or 'all'")
    p.add_argument("--out", required=True)
    p.add_argument("--frame-len", type=int, default=FRAME_LEN)
    p.add_argument("--hop", type=int, default=HOP)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("train", help="train one system on a (training) manifest")
    p.add_argument("--features", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--system", required=True, choices=ALL_SYSTEMS)
    p.add_argument("--out", required=True)
    p.add_argument("--mixtures", type=int, default=None, help=mixtures_help)
    p.add_argument("--gmm-seed", type=int, default=TrainOptions.gmm_seed)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("weights", help="estimate fusion weights on training data")
    p.add_argument("--manifest", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--systems", required=True,
                   help="comma-separated system ids, or 'all'")
    p.add_argument("--folds", type=int, default=PipelineConfig.weights_folds)
    p.add_argument("--seed", type=int, default=PipelineConfig.weights_seed)
    p.add_argument("--method", default=PipelineConfig.weights_method, choices=WEIGHT_METHODS)
    p.add_argument("--out", required=True)
    p.add_argument("--mixtures", type=int, default=None, help=mixtures_help)
    p.add_argument("--gmm-seed", type=int, default=TrainOptions.gmm_seed)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("classify", help="score a manifest's clips with one model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--manifest", required=True,
                   help="supplies class names and the clips to score")
    p.add_argument("--out", required=True)
    p.add_argument("--system-id", default=None,
                   help="system id for the score rows (default: the system "
                   "built from the model's feature family and back-end)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("fuse", help="weighted fusion of per-system score files")
    p.add_argument("--scores", required=True, nargs="+")
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("evaluate", help="report accuracy of a score file")
    p.add_argument("--pred", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("synth", help="generate synthetic scene clips")
    p.add_argument("--profile", required=True,
                   help="a built-in profile name, or 'benchmark' for all five")
    p.add_argument("--count", type=int, required=True, help="clips per class")
    p.add_argument("--out", required=True)
    p.add_argument("--duration", type=float, default=3.0)
    p.add_argument("--sample-rate", type=int, default=44100)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("run", help="full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (PipelineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
