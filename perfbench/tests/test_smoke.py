"""Smoke-size self-test of the benchmark: ``python -m pytest perfbench/tests``.

Runs every code path of ``perfbench/run.py`` on tiny inputs (14 clips per
class) and checks the output contract, the span arithmetic, and that every
wrapped attribute is put back.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, run_pass, setup  # noqa: E402

#: the smallest inputs the default config accepts: 4 training clips per class
#: cover 4 CV folds, and 3 one-second clips give the 64 GMM components enough frames
TINY = {"clips_per_class": 14, "duration_s": 1.0}


def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _run(capsys, name: str, trace: int) -> tuple:
    workload = dataclasses.replace(WORKLOADS[name], **TINY)
    code = run.main(["--workload", name, "--seconds", "1", "--trace", str(trace)],
                    workload=workload)
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("name", ["run_c2", "stepwise_io"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_printed_with_its_unit(capsys, name, trace):
    lines, result = _run(capsys, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1 + 2 * trace
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    # readable lines: "  <name> <value> <unit> [note]"
    printed = {parts[0]: parts[2] for parts in (line.split() for line in lines[:-1])
               if len(parts) >= 3}
    for metric, unit in declared.items():
        assert printed.get(metric) == unit, metric
    if not trace:
        assert printed["ops_failed_frac"] == "frac"
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _traced_pass(work: Path, kind: str) -> tuple:
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer) as inst:
        with tracer.span("pass"):
            run_pass(kind, work)
    shutil.rmtree(work / "out")
    return tracer.spans, inst.missing


def _namespaces() -> dict:
    import scenefuse.cli  # noqa: F401
    from scenefuse.dataio import FeatureStore

    spaces = {m.__name__: dict(vars(m)) for m in tracing._scenefuse_namespaces()}
    spaces["FeatureStore"] = dict(vars(FeatureStore))
    return spaces


@pytest.fixture(scope="module")
def pipeline_work(tmp_path_factory):
    work = tmp_path_factory.mktemp("pipeline")
    setup(dataclasses.replace(WORKLOADS["run_c2"], **TINY), 7, work)
    return work


def test_spans_add_up_and_originals_come_back(pipeline_work):
    before = _namespaces()
    spans, missing = _traced_pass(pipeline_work, "pipeline")
    assert missing == []
    after = _namespaces()
    assert after.keys() == before.keys()
    for space, members in before.items():
        for key, value in members.items():
            assert after[space][key] is value, f"{space}.{key} not restored"
    assert tracing.leftover_wrappers() == []

    assert all(own >= -1e-9 for own in tracing.self_times(spans))
    metrics = tracing.layer_metrics(spans, 70, {})
    stages = sum(metrics[f"pipeline.{s}_s"][0] for s in tracing.PIPELINE_STAGES)
    (run_span,) = [s for s in spans if s["name"] == "pipeline.run"]
    (pass_span,) = [s for s in spans if s["name"] == "pass"]
    assert stages + metrics["pipeline.other_s"][0] == pytest.approx(
        tracing.duration(run_span), abs=1e-9)
    assert tracing.duration(run_span) <= tracing.duration(pass_span)
    assert tracing.duration(run_span) == pytest.approx(tracing.duration(pass_span), rel=0.01)


def test_exact_counts_repeat(pipeline_work):
    counts = []
    for _ in range(2):
        spans, _ = _traced_pass(pipeline_work, "pipeline")
        metrics = tracing.layer_metrics(spans, 70, {})
        counts.append({name: metrics[name][0] for name in tracing.EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert all(counts[0][name] > 0 for name in tracing.EXACT_COUNTS)


def test_refuses_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run_c2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
