"""The names the benchmark's tracer binds in the package must stay put.

``perfbench/tracing.py`` wraps functions by module and attribute name, and
its fact readers read arguments by name; a renamed one would make a metric
read 0 without failing any test under ``tests/``.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from scenefuse.gmm import GmmModel
from scenefuse.spectral import FeatureMatrix


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: "module.attribute" -> (module, attribute), as the tracer binds them
TARGETS = {f"{module}.{attr}": (module, attr) for module, attr, _ in _load_tracing().TARGETS}

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
