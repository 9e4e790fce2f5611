"""scenefuse benchmark: ``python3 perfbench/run.py --workload NAME [--seed N]
[--seconds S] [--trace 0|1]``, run from anywhere inside a checkout.

The benchmark synthesizes the workload's inputs from the seed (timed as
``setup_s``, several times, median reported), then runs passes of the
workload one after another, each in a fresh child process, for about
``--seconds`` seconds (at least one pass).  Every pass's artifact tree is
hashed and its fused scores and accuracy are recomputed from the score
files.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it adds two traced passes and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report with the machine facts.

Seeds: the default 7 is the acceptance C2 data.  Check a claimed gain also
on ``--seed 90001`` (HOLDOUT_SEED): its clips (synthesizer seeds 90001 to
90100) share no seed with runs that use seeds below 89900.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, artifact_digest, check_outputs, setup

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

DEFAULT_SEED = 7
HOLDOUT_SEED = 90001
SETUP_REPEATS = 3
TRACED_PASSES = 2
#: every run ends within this many seconds of starting, passes included
RUN_DEADLINE_S = 170.0
PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def machine_facts() -> dict:
    """Core count, BLAS build and threads, library versions, CPU model."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                threads[Path(lib_path).name] = fn()
                break
    cpu = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _percentile_note(values: list) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10.0:
            q = statistics.quantiles(values, n=1000, method="inclusive")
            return f"p{p:g} {q[int(round(p * 10)) - 1]:.4f} s"
    return "no percentile has ten samples beyond it"


class Run:
    """One benchmark invocation: a work directory, its passes and their checks."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.perf_counter()
        self.work = ROOT / ".perfbench_work" / f"{workload.name}-{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.passes: list = []
        self.problems: list = []

    def _child(self, spec: dict, tag: str) -> tuple:
        """Run child.py; returns (wall seconds, result dict or None)."""
        result_path = self.work / f"{tag}.json"
        log_path = self.work / f"{tag}.log"
        spec = dict(spec, root=str(ROOT), work=str(self.work), result=str(result_path))
        remaining = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                    stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=self.work,
                    timeout=max(remaining, 1.0),
                )
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
            wall = time.perf_counter() - t0
        if code != 0:
            tail = log_path.read_text(errors="replace").splitlines()[-15:]
            self.problems.append(f"{tag}: child exited with {code}")
            print(f"{tag} failed ({code}):\n  " + "\n  ".join(tail), file=sys.stderr)
            return wall, None
        return wall, json.loads(result_path.read_text())

    def one_pass(self, traced: bool, families: bool = False) -> dict:
        index = len(self.passes)
        shutil.rmtree(self.work / "out", ignore_errors=True)
        spec = {"kind": self.workload.kind, "trace": traced, "families": families}
        wall, result = self._child(spec, f"pass{index}")
        record = {"traced": traced, "wall": wall, "ok": result is not None, "result": result}
        if result is not None:
            record["digest"] = artifact_digest(self.work / "out")
            try:
                record["acc"], problems = check_outputs(self.workload.kind, self.work)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"outputs unreadable: {exc!r}"]
            for problem in problems:
                self.problems.append(f"pass{index}: {problem}")
            record["ok"] = not problems
        self.passes.append(record)
        return record

    @property
    def failed(self) -> int:
        return sum(not p["ok"] for p in self.passes)

    def measure(self) -> dict:
        import scenefuse.pipeline  # noqa: F401  (imports are not set-up work)

        self.work.mkdir(parents=True, exist_ok=True)
        setups = []
        for _ in range(1 if self.trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            self.n_clips = setup(self.workload, self.seed, self.work)
            setups.append(time.perf_counter() - t0)
        self.setups = setups
        # compile bytecode once so that no pass pays for it
        self._child({}, "warmup")

        loop_start = time.perf_counter()
        while True:
            self.one_pass(traced=False)
            walls = [p["wall"] for p in self.passes]
            elapsed = time.perf_counter() - loop_start
            if elapsed + statistics.median(walls) > self.seconds:
                break
        if self.trace:
            for i in range(TRACED_PASSES):
                self.one_pass(traced=True, families=(i == 0))

        digests = {p["digest"] for p in self.passes if "digest" in p}
        if len(digests) > 1:
            majority = max(digests, key=lambda d: sum(p.get("digest") == d for p in self.passes))
            for i, p in enumerate(self.passes):
                if p.get("digest") not in (None, majority):
                    p["ok"] = False
                    self.problems.append(f"pass{i}: artifact digest differs from the other passes")
        self.digest = digests.pop() if len(digests) == 1 else "differs"
        return self.trace_metrics() if self.trace else self.end_to_end()

    def end_to_end(self) -> dict:
        # a pass that ran to the end is measured even if its outputs failed a check
        done = [p for p in self.passes if "acc" in p]
        if not done:
            raise RuntimeError("no pass ran to the end with readable outputs")
        walls = [p["wall"] for p in done]
        self.notes = {
            "wall_s": f"median of {len(walls)} passes; {_percentile_note(walls)}",
            "setup_s": f"median of {len(self.setups)}: "
                       + ", ".join(f"{s:.3f}" for s in self.setups),
            "ops_failed_frac": f"{self.failed} of {len(self.passes)} passes failed",
        }
        return {
            "wall_s": (statistics.median(walls), "s"),
            "clips_per_s": (statistics.median(self.n_clips / w for w in walls), "1/s"),
            "peak_rss_mb": (statistics.median(p["result"]["maxrss_kb"] * 1024 / 1e6
                                              for p in done), "MB"),
            "setup_s": (statistics.median(self.setups), "s"),
            "fused_acc_pct": (statistics.median(p["acc"] for p in done), "%"),
            "ops_ok_frac": (1.0 - self.failed / len(self.passes), "frac"),
        }

    def trace_metrics(self) -> dict:
        from tracing import EXACT_COUNTS, layer_metrics, self_times

        traced = [p for p in self.passes if p["traced"] and "acc" in p]
        plain = [p["wall"] for p in self.passes if not p["traced"] and "acc" in p]
        if len(traced) != TRACED_PASSES or not plain:
            raise RuntimeError("a traced or untraced pass did not run to the end")
        first = traced[0]["result"]
        per_pass = []
        for p in traced:
            result = p["result"]
            if result["leftover"]:
                self.problems.append(f"wrappers left bound: {result['leftover']}")
            if min(self_times(result["spans"])) < -1e-9:
                self.problems.append("a span's self time is negative")
            per_pass.append(layer_metrics(result["spans"], self.n_clips, first["family_s"]))
        counts = [{name: m[name][0] for name in EXACT_COUNTS} for m in per_pass]
        if any(c != counts[0] for c in counts):
            self.problems.append(f"exact counts differ between traced passes: {counts}")
        # times are the median over the traced passes; counts and ratios repeat
        metrics = {name: (statistics.median(m[name][0] for m in per_pass) if unit == "s"
                          else value, unit)
                   for name, (value, unit) in per_pass[0].items()}
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall"] for p in traced) - statistics.median(plain), "s")
        self.notes = {"exact counts (repeat in both traced passes)": json.dumps(counts[0])}
        if first["missing"]:
            self.notes["names not found, their metrics read 0"] = ", ".join(first["missing"])
        trace_file = self.work.parent / f"last-trace-{self.workload.name}.json"
        trace_file.write_text(json.dumps(first["spans"]), encoding="utf-8")
        self.notes["spans of the first traced pass"] = str(trace_file.relative_to(ROOT))
        return metrics


def report(run: Run, metrics: dict, facts: dict) -> list:
    w = run.workload
    lines = [
        f"workload {w.name}: {run.n_clips} clips ({w.clips_per_class} per class, "
        f"{w.duration_s:g} s, 44.1 kHz), seed {run.seed} (hold-out seed for claims: "
        f"{HOLDOUT_SEED}), trace {int(run.trace)}",
        "machine " + json.dumps(facts, sort_keys=True),
        f"artifact digest sha256:{run.digest}",
    ]
    if not run.trace:
        metrics = dict(metrics, ops_failed_frac=(run.failed / len(run.passes), "frac"))
    for name, (value, unit) in metrics.items():
        note = run.notes.get(name, "")
        lines.append(f"  {name:<34} {value:>14.6g} {unit:<6} {note}".rstrip())
    lines.extend(f"{key}: {value}" for key, value in run.notes.items() if key not in metrics)
    lines.extend(f"problem: {p}" for p in run.problems)
    return lines


def main(argv=None, workload=None) -> int:
    parser = argparse.ArgumentParser(description="scenefuse benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "scenefuse" / "__init__.py").is_file():
        print(f"error: no scenefuse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    run = Run(workload or WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    try:
        facts = machine_facts()
        metrics = run.measure()
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        for problem in run.problems:
            print(f"problem: {problem}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    for line in report(run, metrics, facts):
        print(line)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": len(run.passes),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
