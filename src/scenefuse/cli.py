"""Command-line entry points for extraction, training, fusion, and full runs."""

from __future__ import annotations

import argparse
import sys

from .dataio import load_features, load_manifest, save_features
from .evaluation import evaluate, save_report
from .features import EXTRACTOR_NAMES
from .fusion import fuse, load_score_csv, load_weights_csv, save_score_csv, save_weights_csv
from .pipeline import (
    ALL_SYSTEMS,
    PipelineConfig,
    PipelineError,
    TrainOptions,
    TrainingSet,
    check_names,
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


def _parse_names(raw: str, universe, what: str) -> tuple:
    if raw == "all":
        return tuple(universe)
    return check_names((part.strip() for part in raw.split(",") if part.strip()), universe, what)


def _mixture_counts(args) -> dict:
    """``--mixtures`` sets both counts; unset, TrainOptions' defaults hold."""
    if args.mixtures is None:
        return {}
    return {"mixtures_cepstral": args.mixtures, "mixtures_plp": args.mixtures}


def _cmd_extract(args) -> None:
    manifest = load_manifest(args.manifest)
    names = _parse_names(args.features, EXTRACTOR_NAMES, "extractor")
    store = extract_for_manifest(manifest, args.manifest, names)
    save_features(store, args.out)
    print(f"wrote {len(store)} feature matrices for {len(manifest)} clips to {args.out}")


def _cmd_train(args) -> None:
    store = load_features(args.features, required_extractors([args.system]))
    manifest = load_manifest(args.manifest)
    opts = TrainOptions(**_mixture_counts(args))
    model = fit_system(args.system, TrainingSet(store, manifest), opts)
    save_system_model(args.out, model)
    print(f"trained {args.system} on {len(manifest)} clips; model written to {args.out}")


def _cmd_weights(args) -> None:
    systems = _parse_names(args.systems, ALL_SYSTEMS, "system")
    store = load_features(args.features, required_extractors(systems))
    manifest = load_manifest(args.manifest)
    opts = TrainOptions(**_mixture_counts(args))
    weights = estimate_weights(TrainingSet(store, manifest), systems, opts, folds=args.folds)
    save_weights_csv(args.out, weights)
    print(f"estimated weights for {len(systems)} systems; written to {args.out}")


def _cmd_classify(args) -> None:
    manifest = load_manifest(args.manifest)
    # the system the model file holds decides which records to read
    model = load_system_model(args.model)
    store = load_features(args.features, required_extractors([model.system_id]))
    scores = score_system(model, store, manifest)
    save_score_csv(args.out, scores)
    print(f"scored {scores.n_clips} clips with {model.system_id}; written to {args.out}")


def _cmd_fuse(args) -> None:
    weights = load_weights_csv(args.weights)
    fused = fuse([load_score_csv(path) for path in args.scores], weights)
    save_score_csv(args.out, fused)
    print(f"fused {len(weights.system_ids)} systems over {fused.n_clips} clips; "
          f"written to {args.out}")


def _cmd_evaluate(args) -> None:
    report = evaluate(load_score_csv(args.pred), load_manifest(args.manifest))
    save_report(args.report, report)
    print(f"{report.system_id}: average accuracy "
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
    summary = run_pipeline(args.config).config.out_dir / "summary.txt"
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
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("train", help="train one system on a (training) manifest")
    p.add_argument("--features", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--system", required=True, choices=ALL_SYSTEMS)
    p.add_argument("--out", required=True)
    p.add_argument("--mixtures", type=int, default=None, help=mixtures_help)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("weights", help="estimate fusion weights on training data")
    p.add_argument("--manifest", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--systems", required=True,
                   help="comma-separated system ids, or 'all'")
    p.add_argument("--folds", type=int, default=PipelineConfig.weights_folds)
    p.add_argument("--out", required=True)
    p.add_argument("--mixtures", type=int, default=None, help=mixtures_help)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("classify", help="score a manifest's clips with one model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--manifest", required=True,
                   help="the clips to score; the model gives the class columns")
    p.add_argument("--out", required=True)
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
