"""The benchmark's workloads: their inputs, one pass over them, and output checks.

Every workload is a closed loop with one client: the next pass starts only
after the previous one has finished, in a single process tree.  The inputs
are synthesized from the five built-in ``benchmark`` scene profiles at
44.1 kHz; the workload seed is the synthesizer's base seed (7 reproduces the
acceptance C2 data).  The program receives only the generated files.

Why each workload was chosen (README.md has the full reasoning):

* run_c2 -- the acceptance C2 run (5 x 40 clips x 3 s); per-frame work,
  GMM EM and CDL, dominates.
* many_short -- about the same EM frame volume over 2.5x the clips
  (5 x 100 x 1 s), so per-clip fixed costs dominate: WAV opens, CDL
  ``eigh`` calls, ``FeatureStore.add`` scans.
* stepwise_io -- the stepwise CLI through a ~42 MB ``.sfs`` (5 x 16 x 3 s):
  one store write beside three reads, trivial EM and no CDL; the target
  for codec and store changes and the bypass for EM and CDL changes.
"""

from __future__ import annotations

import csv
import hashlib
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

SAMPLE_RATE = 44100


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "pipeline" (run_pipeline) or "stepwise" (cli.main per step)
    clips_per_class: int
    duration_s: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("run_c2", "pipeline", 40, 3.0),
        Workload("many_short", "pipeline", 100, 1.0),
        Workload("stepwise_io", "stepwise", 16, 3.0),
    )
}


# --- set-up (runs in the benchmark process, timed as setup_s) ---

def setup(workload: Workload, seed: int, work: Path) -> int:
    """Synthesize the WAVs, manifests and config; returns the clip count."""
    from scenefuse.dataio import load_manifest, save_manifest, split_dataset
    from scenefuse.pipeline import PipelineConfig
    from scenefuse.synth import benchmark_profiles, synthesize_dataset

    data = work / "data"
    shutil.rmtree(data, ignore_errors=True)
    manifest_path = synthesize_dataset(
        benchmark_profiles(), workload.clips_per_class, workload.duration_s,
        SAMPLE_RATE, data, seed,
    )
    if workload.kind == "pipeline":
        (work / "run.cfg").write_text(
            "manifest = data/manifest.tsv\nout_dir = out\n", encoding="utf-8"
        )
    else:
        defaults = PipelineConfig(manifest=manifest_path, out_dir=work / "out")
        manifest = load_manifest(manifest_path)
        train, test = split_dataset(manifest, defaults.train_fraction, defaults.split_seed)
        per_class = [sum(1 for _, label in train.entries if label == name)
                     for name in train.class_names]
        if min(per_class) < defaults.weights_folds:
            raise ValueError(f"{workload.name}: {min(per_class)} training clips in a class, "
                             f"fewer than {defaults.weights_folds} folds")
        save_manifest(train, data / "train.tsv")
        save_manifest(test, data / "test.tsv")
    return len(load_manifest(manifest_path))


# --- one pass (runs in a fresh child process) ---

def stepwise_commands(work: Path) -> list:
    data, out = work / "data", work / "out"
    return [
        ["extract", "--manifest", f"{data}/manifest.tsv", "--features", "all",
         "--out", f"{out}/feats.sfs"],
        ["train", "--features", f"{out}/feats.sfs", "--manifest", f"{data}/train.tsv",
         "--system", "plp-gmm", "--out", f"{out}/plp-gmm.sfg"],
        ["weights", "--features", f"{out}/feats.sfs", "--manifest", f"{data}/train.tsv",
         "--systems", "plp-gmm", "--out", f"{out}/weights.csv"],
        ["classify", "--model", f"{out}/plp-gmm.sfg", "--features", f"{out}/feats.sfs",
         "--manifest", f"{data}/test.tsv", "--out", f"{out}/scores.csv"],
        ["fuse", "--scores", f"{out}/scores.csv", "--weights", f"{out}/weights.csv",
         "--out", f"{out}/fused.csv"],
        ["evaluate", "--pred", f"{out}/fused.csv", "--manifest", f"{data}/test.tsv",
         "--report", f"{out}/report.txt"],
    ]


def run_pass(kind: str, work: Path) -> None:
    """One pass; writes every artifact under ``work/out``."""
    # module attributes are looked up at call time, so a traced pass sees
    # the wrapped functions
    if kind == "pipeline":
        from scenefuse import pipeline

        pipeline.run_pipeline(work / "run.cfg")
        return
    from scenefuse import cli

    (work / "out").mkdir(parents=True, exist_ok=True)
    for argv in stepwise_commands(work):
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"scenefuse {argv[0]} exited with code {code}")


# --- output checks (run in the benchmark process, outside the timed region) ---

def artifact_digest(out: Path) -> str:
    """SHA-256 over every file of the artifact tree: relative path, size, bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out).as_posix().encode()
        h.update(rel + b"\0" + str(path.stat().st_size).encode() + b"\0")
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def _read_scores(path: Path) -> tuple:
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    rows = list(csv.reader(lines[1:]))
    header = rows[0]
    return header[2:], {row[0]: [float(v) for v in row[2:]] for row in rows[1:]}


def _minmax(row: list) -> list:
    lo, hi = min(row), max(row)
    if hi == lo:
        return [1.0] * len(row)
    return [(v - lo) / (hi - lo) for v in row]


def check_outputs(kind: str, work: Path) -> tuple:
    """Recompute fusion and accuracy from the score files; returns (acc %, problems).

    The fused scores must equal the min-max normalized per-system scores
    weighted by ``weights.csv``, and the report's average accuracy must
    equal the one recomputed from the fused argmax and the test labels.
    """
    out = work / "out"
    if kind == "pipeline":
        fused_path, report_path = out / "scores" / "fusion.csv", out / "reports" / "fusion.txt"
        truth_path = out / "test_manifest.tsv"
    else:
        fused_path, report_path = out / "fused.csv", out / "report.txt"
        truth_path = work / "data" / "test.tsv"
    problems = []

    with open(out / "weights.csv", newline="") as fh:
        weight_rows = list(csv.reader(fh))
    class_names = weight_rows[0][1:]
    weights = {row[0]: [float(v) for v in row[1:]] for row in weight_rows[1:]}
    if any(not 0.0 <= v <= 1.0 for row in weights.values() for v in row):
        problems.append("weights outside [0, 1]")

    fused_classes, fused = _read_scores(fused_path)
    expected = {clip: [0.0] * len(class_names) for clip in fused}
    for system, row_weights in weights.items():
        path = out / "scores" / f"{system}.csv" if kind == "pipeline" else out / "scores.csv"
        _, raw = _read_scores(path)
        if set(raw) != set(fused):
            problems.append(f"{system}: scored clips differ from fused clips")
            continue
        for clip, values in raw.items():
            norm = _minmax(values)
            expected[clip] = [e + w * n for e, w, n in zip(expected[clip], row_weights, norm)]
    worst = max((abs(a - b) for clip in fused for a, b in zip(fused[clip], expected[clip])),
                default=0.0)
    if fused_classes != class_names or worst > 1e-9:
        problems.append(f"fused scores differ from the weighted sum (max error {worst:.3e})")

    truth = {}
    for line in truth_path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            clip, label = line.split("\t")
            truth[clip] = label
    hits = {name: [0, 0] for name in class_names}
    for clip, values in fused.items():
        label = truth[clip]
        predicted = class_names[values.index(max(values))]
        hits[label][0] += predicted == label
        hits[label][1] += 1
    acc = 100.0 * sum(h / n for h, n in hits.values() if n) / len(class_names)
    match = re.search(r"average accuracy: ([0-9.]+)%", report_path.read_text(encoding="utf-8"))
    if match is None or abs(float(match.group(1)) - acc) > 0.005:
        problems.append(f"report accuracy does not match recomputed {acc:.2f}%")
    if acc < 200.0 / len(class_names):
        problems.append(f"fused accuracy {acc:.2f}% is below twice chance")
    return acc, problems
