"""Spans recorded from outside the program, and the per-layer metrics they give.

A traced pass replaces the public functions at each scenefuse module
boundary with thin wrappers, in every namespace that binds them (``fnv1a64``
is bound in ``dataio``, ``gmm`` and ``cdl``; ``extract_selected`` in
``features``, ``pipeline`` and the package), runs the workload, and puts the
originals back.  Spans carry a name, start, end, parent and a few facts read
off the call; they stay in memory until the pass ends.  No file under
``src/`` is touched.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from contextlib import contextmanager

#: the stages of ``run_pipeline`` that get their own span; the config, load
#: and split stages fall into ``pipeline.other_s``
PIPELINE_STAGES = ("extract", "weights", "train", "classify", "fuse", "evaluate")

#: stepwise CLI subcommands, in the order the stepwise workload runs them
CLI_COMMANDS = ("extract", "train", "weights", "classify", "fuse", "evaluate")

FAMILIES = ("mfcc", "plp", "pncc", "rcgcc", "spcc")
GMM_SYSTEMS = ("mfcc-gmm", "pncc-gmm", "rcgcc-gmm", "spcc-gmm", "cepscom-gmm", "plp-gmm")
FUSED_SYSTEMS = ("cepscom-gmm", "cepscom-cdl", "plp-gmm")

#: counts that must repeat exactly from run to run; later changes may claim on them
EXACT_COUNTS = (
    "gmm.em_iters",
    "gmm.fit_calls",
    "cdl.log_embed_calls",
    "dataio.fnv_bytes",
    "dataio.store_add_calls",
    "fusion.cv_fold_fits",
)

_MARK = "__perfbench_span__"


class Tracer:
    """Flat list of spans; ``parent`` is an index into the same list, or -1."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, "attrs": {}})
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)


# --- facts read off a call after it returns (outside the span's interval) ---

def _arg(sig, args, kwargs, name):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _file_bytes(param):
    def facts(sig, args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(sig, args, kwargs, param))}
    return facts


def _fnv_facts(sig, args, kwargs, result):
    return {"bytes": len(_arg(sig, args, kwargs, "data"))}


def _frame_facts(sig, args, kwargs, result):
    return {"frames": next(iter(result.values())).n_frames if result else 0}


def _em_facts(sig, args, kwargs, result):
    max_iters, tol = (_arg(sig, args, kwargs, key) for key in ("max_iters", "tol"))
    trace = result.train_log_likelihoods
    # the EM loop breaks on a relative gain below tol; a fit that ran
    # max_iters E-steps without meeting that test hit the cap
    converged = len(trace) >= 2 and trace[-1] - trace[-2] < tol * abs(trace[-2])
    return {"iters": len(trace), "capped": len(trace) >= max_iters and not converged}


def _system_facts(sig, args, kwargs, result):
    return {"system": _arg(sig, args, kwargs, "system_id")}


def call(name: str, facts=None):
    """Wrapper factory: one span per call; ``facts`` runs after the call returns."""

    def make(tracer: Tracer, fn):
        sig = inspect.signature(fn) if facts else None

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if facts:
                tracer.spans[idx]["attrs"] = facts(sig, args, kwargs, result)
            return result

        return wrapper

    return make


def _stage(tracer: Tracer, fn):
    # pipeline._stage is the one place run_pipeline marks each stage
    @contextmanager
    def wrapper(name):
        if name not in PIPELINE_STAGES:
            with fn(name):
                yield
            return
        with tracer.span("pipeline." + name), fn(name):
            yield

    return wrapper


def _cli_main(tracer: Tracer, fn):
    def wrapper(argv=None):
        with tracer.span("cli." + (argv[0] if argv else "main")):
            return fn(argv)

    return wrapper


STFT_TARGETS = (
    ("scenefuse.spectral", "frame_signal", call("spectral.stft")),
    ("scenefuse.spectral", "power_spectrum", call("spectral.stft")),
)

#: (module, attribute, wrapper factory)
TARGETS = STFT_TARGETS + (
    ("scenefuse.dataio", "read_wav", call("dataio.read_wav")),
    ("scenefuse.dataio", "FeatureStore.add", call("dataio.store_add")),
    ("scenefuse.dataio", "save_features", call("dataio.sfs_save", _file_bytes("path"))),
    ("scenefuse.dataio", "load_features", call("dataio.sfs_load", _file_bytes("path"))),
    ("scenefuse.dataio", "fnv1a64", call("dataio.fnv", _fnv_facts)),
    ("scenefuse.features", "extract_selected", call("features.extract", _frame_facts)),
    ("scenefuse.gmm", "fit_gmm", call("gmm.fit", _em_facts)),
    ("scenefuse.gmm", "classify_gmm", call("gmm.score")),
    ("scenefuse.gmm", "save_gmm_bank", call("gmm.model_save", _file_bytes("path"))),
    ("scenefuse.gmm", "load_gmm_bank", call("gmm.model_load", _file_bytes("path"))),
    ("scenefuse.cdl", "covariance_descriptor", call("cdl.descriptor")),
    ("scenefuse.cdl", "log_embed", call("cdl.log_embed")),
    ("scenefuse.cdl", "fit_cdl", call("cdl.fit")),
    ("scenefuse.cdl", "classify_cdl", call("cdl.score")),
    ("scenefuse.cdl", "save_cdl_model", call("cdl.model_save")),
    ("scenefuse.fusion", "cross_validated_confusion", call("fusion.cv")),
    ("scenefuse.fusion", "fuse", call("fusion.fuse")),
    ("scenefuse.fusion", "save_score_csv", call("fusion.csv_write")),
    ("scenefuse.fusion", "save_weights_csv", call("fusion.csv_write")),
    ("scenefuse.fusion", "load_score_csv", call("fusion.csv_read")),
    ("scenefuse.fusion", "load_weights_csv", call("fusion.csv_read")),
    ("scenefuse.evaluation", "evaluate", call("evaluation.report")),
    ("scenefuse.evaluation", "save_report", call("evaluation.report")),
    ("scenefuse.pipeline", "fit_system", call("pipeline.fit_system", _system_facts)),
    ("scenefuse.pipeline", "run_pipeline", call("pipeline.run")),
    ("scenefuse.pipeline", "_stage", _stage),
    ("scenefuse.cli", "main", _cli_main),
)


def _scenefuse_namespaces() -> list:
    return [mod for key, mod in sorted(sys.modules.items())
            if key == "scenefuse" or key.startswith("scenefuse.")]


class Instrumentation:
    """Installs the wrappers on enter and puts every original back on exit."""

    def __init__(self, tracer: Tracer, targets=TARGETS) -> None:
        self.tracer = tracer
        self.targets = targets
        self.bindings: list = []  # (owner, attribute, original)
        self.missing: list = []

    def __enter__(self) -> "Instrumentation":
        try:
            for module, attr, make in self.targets:
                self._install(module, attr, make)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _install(self, module: str, attr: str, make) -> None:
        owner = importlib.import_module(module)
        path = attr.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        leaf = path[-1]
        if owner is None or leaf not in vars(owner):
            # a later version may drop a name; its metrics then read 0
            self.missing.append(f"{module}.{attr}")
            return
        original = vars(owner)[leaf]
        wrapper = functools.update_wrapper(make(self.tracer, original), original)
        setattr(wrapper, _MARK, True)
        owners = [owner] if len(path) > 1 else _scenefuse_namespaces()
        for ns in owners:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
                    self.bindings.append((ns, key, original))

    def restore(self) -> None:
        while self.bindings:
            owner, key, original = self.bindings.pop()
            setattr(owner, key, original)


def leftover_wrappers() -> list:
    """Names in scenefuse namespaces (and their classes) still bound to a wrapper."""
    found = []
    for ns in _scenefuse_namespaces():
        for key, value in vars(ns).items():
            if getattr(value, _MARK, False):
                found.append(f"{ns.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == ns.__name__:
                for member, inner in vars(value).items():
                    if getattr(inner, _MARK, False):
                        found.append(f"{ns.__name__}.{key}.{member}")
    return found


# --- per-layer metrics ---

def duration(span) -> float:
    return span["end"] - span["start"]


def self_times(spans) -> list:
    """Each span's duration minus the part its direct children cover."""
    out = [duration(s) for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            out[s["parent"]] -= duration(s)
    return out


def _ancestor(spans, span, name):
    idx = span["parent"]
    while idx >= 0:
        if spans[idx]["name"] == name:
            return spans[idx]
        idx = spans[idx]["parent"]
    return None


def layer_metrics(spans, n_clips: int, family_s: dict) -> dict:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    Times are busy time summed over a layer's spans, each span counted with
    its children (``dataio.sfs_save_s`` includes ``dataio.fnv_s``);
    ``pipeline.other_s`` is the self time of ``run_pipeline``.
    """
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def busy(name):
        return sum(duration(s) for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name, attr):
        return sum(s["attrs"].get(attr, 0) for s in by_name.get(name, ()))

    m: dict = {}
    m["dataio.read_wav_s"] = (busy("dataio.read_wav"), "s")
    m["dataio.read_wav_calls"] = (calls("dataio.read_wav"), "count")
    m["dataio.store_add_s"] = (busy("dataio.store_add"), "s")
    m["dataio.store_add_calls"] = (calls("dataio.store_add"), "count")
    m["dataio.sfs_save_s"] = (busy("dataio.sfs_save"), "s")
    m["dataio.sfs_load_s"] = (busy("dataio.sfs_load"), "s")
    m["dataio.sfs_bytes"] = (total("dataio.sfs_save", "bytes")
                             + total("dataio.sfs_load", "bytes"), "bytes")
    m["dataio.fnv_s"] = (busy("dataio.fnv"), "s")
    m["dataio.fnv_bytes"] = (total("dataio.fnv", "bytes"), "bytes")

    m["spectral.stft_s"] = (busy("spectral.stft"), "s")
    m["features.extract_s"] = (busy("features.extract"), "s")
    m["features.extract_calls"] = (calls("features.extract"), "count")
    m["features.frames"] = (total("features.extract", "frames"), "count")
    for family in FAMILIES:
        m[f"features.family_s.{family}"] = (family_s.get(family, 0.0), "s")

    fit_by_system = {system: 0.0 for system in GMM_SYSTEMS}
    for s in by_name.get("gmm.fit", ()):
        owner = _ancestor(spans, s, "pipeline.fit_system")
        system = owner["attrs"].get("system") if owner else None
        if system in fit_by_system:
            fit_by_system[system] += duration(s)
    for system in GMM_SYSTEMS:
        m[f"gmm.fit_s.{system}"] = (fit_by_system[system], "s")
    fits = calls("gmm.fit")
    m["gmm.fit_calls"] = (fits, "count")
    m["gmm.em_iters"] = (total("gmm.fit", "iters"), "count")
    m["gmm.em_capped"] = (sum(1 for s in by_name.get("gmm.fit", ())
                              if s["attrs"].get("capped")), "count")
    m["gmm.em_iters_per_fit"] = (m["gmm.em_iters"][0] / fits if fits else 0.0, "ratio")
    m["gmm.score_s"] = (busy("gmm.score"), "s")
    m["gmm.score_calls"] = (calls("gmm.score"), "count")
    m["gmm.model_save_s"] = (busy("gmm.model_save"), "s")
    m["gmm.model_load_s"] = (busy("gmm.model_load"), "s")
    m["gmm.model_bytes"] = (total("gmm.model_save", "bytes")
                            + total("gmm.model_load", "bytes"), "bytes")

    m["cdl.descriptor_s"] = (busy("cdl.descriptor"), "s")
    m["cdl.descriptor_calls"] = (calls("cdl.descriptor"), "count")
    m["cdl.log_embed_s"] = (busy("cdl.log_embed"), "s")
    m["cdl.log_embed_calls"] = (calls("cdl.log_embed"), "count")
    # attempted embeddings per manifest clip; one per clip suffices
    m["cdl.log_embed_per_clip"] = (calls("cdl.log_embed") / n_clips, "ratio")
    m["cdl.fit_s"] = (busy("cdl.fit"), "s")
    m["cdl.score_s"] = (busy("cdl.score"), "s")
    m["cdl.model_save_s"] = (busy("cdl.model_save"), "s")

    weights_by_system = {system: 0.0 for system in FUSED_SYSTEMS}
    fold_fits = 0
    cv_system: dict = {}
    for s in by_name.get("pipeline.fit_system", ()):
        cv_span = _ancestor(spans, s, "fusion.cv")
        if cv_span is not None:
            fold_fits += 1
            cv_system[id(cv_span)] = s["attrs"].get("system")
    for cv_span in by_name.get("fusion.cv", ()):
        system = cv_system.get(id(cv_span))
        if system in weights_by_system:
            weights_by_system[system] += duration(cv_span)
    m["fusion.cv_fold_fits"] = (fold_fits, "count")
    for system in FUSED_SYSTEMS:
        m[f"fusion.weights_s.{system}"] = (weights_by_system[system], "s")
    m["fusion.fuse_s"] = (busy("fusion.fuse"), "s")
    m["fusion.csv_write_s"] = (busy("fusion.csv_write"), "s")
    m["fusion.csv_read_s"] = (busy("fusion.csv_read"), "s")

    m["evaluation.report_s"] = (busy("evaluation.report"), "s")

    for stage in PIPELINE_STAGES:
        m[f"pipeline.{stage}_s"] = (busy(f"pipeline.{stage}"), "s")
    selfs = self_times(spans)
    m["pipeline.other_s"] = (sum(selfs[i] for i, s in enumerate(spans)
                                 if s["name"] == "pipeline.run"), "s")
    for command in CLI_COMMANDS:
        m[f"cli.{command}_s"] = (busy(f"cli.{command}"), "s")
    return m
