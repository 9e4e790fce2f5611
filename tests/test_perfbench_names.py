"""The names the benchmark binds in the package must stay put.

``perfbench/tracing.py`` wraps functions by module and attribute name, and
its fact readers read arguments by name; a renamed one would make a metric
read 0 without failing any test under ``tests/``.  ``perfbench/workloads.py``
and ``perfbench/child.py`` also call the package directly; a changed
signature or flag there would fail the benchmark, not a test.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from scenefuse import cli
from scenefuse.features import extract_selected
from scenefuse.gmm import GmmModel
from scenefuse.pipeline import PipelineConfig
from scenefuse.spectral import FeatureMatrix
from scenefuse.synth import synthesize_dataset


def _load_perfbench(name):
    """A ``perfbench`` module, loaded by path; its top-level imports are stdlib only."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


#: "module.attribute" -> (module, attribute), as the tracer binds them
TARGETS = {
    f"{module}.{attr}": (module, attr) for module, attr, _ in _load_perfbench("tracing").TARGETS
}

#: traced function -> the arguments its fact reader binds by name
READ_ARGUMENTS = {
    "scenefuse.dataio.save_features": ("path",),
    "scenefuse.dataio.load_features": ("path",),
    "scenefuse.dataio.fnv1a64": ("data",),
    "scenefuse.gmm.fit_gmm": ("max_iters", "tol"),
    "scenefuse.gmm.save_gmm_bank": ("path",),
    "scenefuse.gmm.load_gmm_bank": ("path",),
    "scenefuse.pipeline.fit_system": ("system_id",),
}


def _resolve(target: str):
    module, attr = TARGETS[target]
    owner = importlib.import_module(module)
    for name in attr.split("."):
        owner = vars(owner)[name]
    return owner


@pytest.mark.parametrize("target", TARGETS)
def test_traced_name_resolves(target):
    assert callable(_resolve(target))


@pytest.mark.parametrize("target", sorted(READ_ARGUMENTS))
def test_fact_reader_arguments_exist(target):
    assert target in TARGETS
    params = inspect.signature(_resolve(target)).parameters
    for name in READ_ARGUMENTS[target]:
        assert name in params, f"{target} has no argument {name!r}"


def test_fact_reader_result_fields_exist():
    # the frame count of an extraction, the EM trace of a fit
    assert isinstance(inspect.getattr_static(FeatureMatrix, "n_frames"), property)
    assert "train_log_likelihoods" in {f.name for f in dataclasses.fields(GmmModel)}


def test_stepwise_commands_parse():
    parser = cli.build_parser()
    for argv in _load_perfbench("workloads").stepwise_commands(Path("w")):
        parser.parse_args(argv)


def test_direct_calls_bind():
    # child.py times one family per call; workloads.setup synthesizes with
    # six positional arguments and reads the split and fold defaults
    inspect.signature(extract_selected).bind(object(), ["mfcc"])
    inspect.signature(synthesize_dataset).bind(*range(6))
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    assert {"train_fraction", "split_seed", "weights_folds"} <= fields
