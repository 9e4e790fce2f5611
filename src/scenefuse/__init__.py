"""Acoustic scene classification toolkit.

Cepstral feature families (mfcc, plp, pncc, rcgcc, spcc, and their
concatenation), per-class Gaussian mixture classifiers, covariance
descriptors with discriminative projection, and confusion-weighted score
fusion, wired together by a deterministic pipeline and CLI.
"""

from .cdl import (
    CdlProjection,
    CovarianceDescriptor,
    classify_cdl,
    covariance_descriptor,
    fit_cdl,
    load_cdl_model,
    log_embed,
    save_cdl_model,
)
from .dataio import (
    AudioClip,
    DatasetManifest,
    FeatureStore,
    load_features,
    load_manifest,
    read_wav,
    save_features,
    save_manifest,
    split_dataset,
    write_wav,
)
from .evaluation import EvaluationReport, evaluate, render_confusion, render_report
from .features import (
    EXTRACTOR_NAMES,
    extract_selected,
    subspace_project,
    subspace_rank,
)
from .fusion import (
    ConfusionMatrix,
    FusionWeights,
    ScoreMatrix,
    cross_validated_confusion,
    fuse,
    fusion_weights,
    normalize_scores,
)
from .gmm import (
    GmmBank,
    GmmModel,
    classify_gmm,
    fit_gmm,
    load_gmm_bank,
    save_gmm_bank,
)
from .pipeline import (
    ALL_SYSTEMS,
    DEFAULT_FUSED,
    PipelineConfig,
    RunResult,
    run_pipeline,
)
from .synth import SceneProfile, benchmark_profiles, synth_scene, synthesize_dataset

__version__ = "0.1.0"
