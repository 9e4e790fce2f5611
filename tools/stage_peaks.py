"""Peak resident set per pipeline stage and per system fit, sampled in process.

    python3 tools/stage_peaks.py --workload many_short [--seed 7] [--runs 5]
        [--root CHECKOUT] [--work DIR]
    python3 tools/stage_peaks.py --clips-per-class 117 --seconds 30 [--seed 7] ...

Synthesizes the inputs with perfbench's own set-up into ``--work`` (by
default ``.perfbench_work/stage-peaks-<workload>-<seed>`` under the
checkout), unless it already holds them, and prints how long that took.  By
default they are a pipeline workload's.  With ``--clips-per-class`` and
``--seconds`` they are that many clips of that length per built-in
``benchmark`` profile at 44.1 kHz, with ``--seed`` as the synthesizer's base
seed, run with the default config; ``<workload>`` in the default directory is
then ``benchmark-<N>x<S>s``.  It then runs one ``pipeline.run_pipeline`` pass
per fresh process, ``--runs`` times, importing scenefuse from ``--root``'s
``src/`` (default: this checkout), so that two checkouts can be compared on
the same inputs.

In each pass a daemon thread reads ``/proc/self/statm`` every millisecond
(with the interpreter's switch interval at 0.5 ms) and keeps, per label, the
largest resident set seen.  The label is the pipeline stage, read off
``pipeline._stage``; while ``pipeline.fit_system`` runs it is
``<stage>/<system id>``, so ``weights/cepscom-cdl`` is a CV fold fit and
``train/cepscom-cdl`` the final fit.  ``start`` covers the imports and
everything outside a stage.  A sampler misses any peak shorter than its
period, so the table is a lower bound; the pass's ``ru_maxrss`` is printed
beside it.  The last line of standard output is one JSON object: per label
the median over runs, in MB (1e6 bytes), the label of the highest median,
and each run's wall time and ``ru_maxrss``.  A label missing from some
runs, such as a stage too short to be sampled, takes the median of the
runs that have it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
PAGE = os.sysconf("SC_PAGE_SIZE")


def _resident_bytes() -> int:
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * PAGE


def child(root: Path, work: Path) -> dict:
    """One labelled pass: peak bytes per label, wall time, ``ru_maxrss``."""
    import resource

    sys.path.insert(0, str(root / "src"))
    from scenefuse import pipeline

    label = ["start"]
    peaks: dict = {}
    done = threading.Event()

    def sample() -> None:
        while not done.is_set():
            rss, now = _resident_bytes(), label[-1]
            if rss > peaks.get(now, 0):
                peaks[now] = rss
            time.sleep(0.001)

    stage, fit_system = pipeline._stage, pipeline.fit_system

    @contextmanager
    def labelled_stage(name):
        label.append(name)
        try:
            with stage(name):
                yield
        finally:
            label.pop()

    def labelled_fit(system_id, *args, **kwargs):
        label.append(f"{label[-1]}/{system_id}")
        try:
            return fit_system(system_id, *args, **kwargs)
        finally:
            label.pop()

    pipeline._stage, pipeline.fit_system = labelled_stage, labelled_fit
    sys.setswitchinterval(0.0005)
    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    started = time.perf_counter()
    pipeline.run_pipeline(work / "run.cfg")
    wall = time.perf_counter() - started
    done.set()
    sampler.join()
    return {
        "peak_mb": {name: round(rss / 1e6, 2) for name, rss in peaks.items()},
        "wall_s": round(wall, 2),
        "maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, 2),
    }


def prepare(workload_name: str, seed: int, work: Path,
            clips_per_class: int | None = None, seconds: float | None = None) -> float | None:
    """Perfbench's set-up of the inputs into ``work`` unless it has them (see the
    module docstring); returns the synthesis time in seconds, or None on reuse."""
    sys.path.insert(0, str(HERE / "src"))
    sys.path.insert(0, str(HERE / "perfbench"))
    from workloads import WORKLOADS, Workload, setup

    if clips_per_class is None:
        workload = WORKLOADS[workload_name]
        if workload.kind != "pipeline":
            raise SystemExit(f"{workload_name} runs no pipeline.run_pipeline pass")
    else:
        workload = Workload(workload_name, "pipeline", clips_per_class, seconds)
    if (work / "run.cfg").is_file():
        return None
    work.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    setup(workload, seed, work)
    return time.perf_counter() - started


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="many_short")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--root", type=Path, default=HERE)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--clips-per-class", type=int,
                        help="benchmark profiles, this many clips each, in place of --workload")
    parser.add_argument("--seconds", type=float, help="clip length with --clips-per-class")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if (args.clips_per_class is None) != (args.seconds is None):
        parser.error("--clips-per-class and --seconds go together")
    if args.clips_per_class is not None:
        args.workload = f"benchmark-{args.clips_per_class}x{args.seconds:g}s"
    work = (args.work or HERE / ".perfbench_work" /
            f"stage-peaks-{args.workload}-{args.seed}").resolve()
    if args.child:
        print(json.dumps(child(args.root.resolve(), work)))
        return
    synth_s = prepare(args.workload, args.seed, work, args.clips_per_class, args.seconds)
    print(f"inputs in {work}: " + ("reused" if synth_s is None else
                                   f"synthesized in {synth_s:.2f} s"), flush=True)
    runs = []
    for _ in range(args.runs):
        out = subprocess.run(
            [sys.executable, __file__, "--child", "--root", str(args.root.resolve()),
             "--work", str(work)],
            check=True, capture_output=True, text=True, cwd=work,
        )
        runs.append(json.loads(out.stdout.splitlines()[-1]))
        print(f"run {len(runs)}: {runs[-1]['wall_s']} s, ru_maxrss "
              f"{runs[-1]['maxrss_mb']} MB", flush=True)
    labels = sorted({name for run in runs for name in run["peak_mb"]})
    median = {name: statistics.median(run["peak_mb"][name] for run in runs
                                      if name in run["peak_mb"])
              for name in labels}
    table = dict(sorted(median.items(), key=lambda item: -item[1]))
    for name, mb in table.items():
        print(f"{name:<24} {mb:8.2f} MB")
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "root": str(args.root.resolve()),
        "synth_s": None if synth_s is None else round(synth_s, 2),
        "runs": len(runs),
        "peak_rss_mb_by_label_median": table,
        "peak_label": next(iter(table)),
        "wall_s": [run["wall_s"] for run in runs],
        "maxrss_mb": [run["maxrss_mb"] for run in runs],
    }))


if __name__ == "__main__":
    main()
