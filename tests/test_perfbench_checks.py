"""The benchmark's output check passes on the trees the program writes.

``perfbench/workloads.py`` recomputes each pass's fusion and accuracy from
its score files and marks a pass whose files disagree as incorrect.  The
same check runs here on a small full run and on a small stepwise chain, so
a change to the score files, fusion or the reports that the benchmark would
mark incorrect fails these tests first.
"""

import importlib.util
import sys
from pathlib import Path

from scenefuse import cli
from scenefuse.dataio import load_manifest, save_manifest, split_dataset
from scenefuse.pipeline import DEFAULT_FUSED, PipelineConfig, run_pipeline
from scenefuse.synth import profile_by_name, synthesize_dataset


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks the module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def test_full_run_passes_the_output_check(mini_dataset, tmp_path):
    run_pipeline(PipelineConfig(
        manifest=mini_dataset,
        out_dir=tmp_path / "out",
        train_fraction=0.5,
        weights_folds=2,
        mixtures_cepstral=4,
        mixtures_plp=2,
        systems=DEFAULT_FUSED,
    ))
    # the check also refuses a fused accuracy below twice chance
    _, problems = workloads.check_outputs("pipeline", tmp_path)
    assert problems == []


def test_stepwise_chain_passes_the_output_check(tmp_path):
    # the mini dataset, laid out as the stepwise workload reads it
    data = tmp_path / "data"
    profiles = [profile_by_name(n) for n in ("rumble", "chime", "drone")]
    manifest = load_manifest(synthesize_dataset(profiles, 8, 1.5, 16000, data, 42))
    train, test = split_dataset(manifest, 0.5, seed=17)
    save_manifest(train, data / "train.tsv")
    save_manifest(test, data / "test.tsv")
    (tmp_path / "out").mkdir()
    for argv in workloads.stepwise_commands(tmp_path):
        assert cli.main(argv) == 0, argv[0]
    _, problems = workloads.check_outputs("stepwise", tmp_path)
    assert problems == []
