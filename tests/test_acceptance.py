"""Release gate: ten criteria, each announcing PASS or FAIL on its own line.

The announcements bypass pytest's capture so the verdicts always reach the
terminal.  Everything here runs from synthesized audio except the first
criterion, which needs an external recordings manifest and is skipped when
none is configured.
"""

import os
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft
import scipy.linalg

from scenefuse.cdl import covariance_descriptor, half_vec_inverse, log_embed
from scenefuse.features import (
    EXTRACTOR_NAMES,
    SPCC_ENERGY_FRACTION,
    expected_dim,
    subspace_project,
)
from scenefuse.fusion import (
    ConfusionMatrix,
    FusionWeights,
    ScoreMatrix,
    confusion_weights,
    fuse,
    normalize_scores,
)
from scenefuse.gmm import fit_gmm
from scenefuse.pipeline import (
    PipelineConfig,
    clip_features,
    required_extractors,
    extract_for_manifest,
    run_pipeline,
)
from scenefuse.dataio import AudioClip, load_manifest
from scenefuse.spectral import (
    cepstral_dct,
    frame_count,
    frame_signal,
    hamming_periodic,
    power_spectrum,
)
from scenefuse.synth import benchmark_profiles, channel, soft, synthesize_dataset

EXTERNAL_MANIFEST_VAR = "SCENEFUSE_DCASE_MANIFEST"

#: published average accuracies (percent) the external run must land near
EXTERNAL_REFERENCE = {
    "mfcc-gmm": 66.83,
    "pncc-gmm": 63.59,
    "rcgcc-gmm": 63.65,
    "spcc-gmm": 71.51,
    "cepscom-gmm": 73.99,
    "plp-gmm": 68.43,
    "cepscom-cdl": 74.62,
    "fusion": 76.36,
}
EXTERNAL_TOLERANCE_PTS = 5.0

#: two transforms of the benchmark profiles that no system gets all right,
#: and that fail in opposite directions: on "channel" every clip has its own
#: tilt and spectral bump, which a covariance ignores and the GMMs do not;
#: on "soft" the classes differ only in a faint bed shape and quiet events
HARD_SETS = {
    "channel 8/12/1/-10": lambda p: channel(soft(p, 1.0, -10.0), 8.0, 12.0),
    "soft 0.05/-25": lambda p: soft(p, 0.05, -25.0),
}

#: average accuracies (percent) on the hard sets (40 clips x 3 s per class
#: at 44.1 kHz, seed 7, default config), so one test clip is 0.67 points
HARD_SET_REFERENCE = {
    "channel 8/12/1/-10": {
        "mfcc-gmm": 71.33,
        "pncc-gmm": 60.67,
        "rcgcc-gmm": 81.33,
        "spcc-gmm": 72.67,
        "cepscom-gmm": 74.67,
        "plp-gmm": 75.33,
        "cepscom-cdl": 96.67,
        "fusion": 89.33,
    },
    "soft 0.05/-25": {
        "mfcc-gmm": 80.67,
        "pncc-gmm": 28.00,
        "rcgcc-gmm": 75.33,
        "spcc-gmm": 79.33,
        "cepscom-gmm": 80.67,
        "plp-gmm": 69.33,
        "cepscom-cdl": 30.67,
        "fusion": 68.00,
    },
}

#: each hard-set accuracy stays within this many points (three clips) of its
#: reference; a value outside either regressed or changed for a reason that
#: has to be stated and re-recorded
HARD_SET_TOLERANCE_PTS = 2.0


_CAPTURE = None


@pytest.fixture(autouse=True)
def _route_announcements(capfd):
    # verdict lines must reach the terminal even under fd-level capture
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _announce(tag, status, detail=""):
    line = f"[{tag}] {status}" + (f"  {detail}" if detail else "")
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


@contextmanager
def criterion(tag):
    state = {"ok": False, "detail": ""}
    try:
        yield state
    except BaseException:
        _announce(tag, "FAIL", state["detail"] or "exception during check")
        raise
    _announce(tag, "PASS" if state["ok"] else "FAIL", state["detail"])
    assert state["ok"], f"{tag}: {state['detail']}"


@pytest.fixture(scope="module")
def benchmark_run(tmp_path_factory):
    """Synthesize the five-class benchmark and run the full default pipeline."""
    root = tmp_path_factory.mktemp("bench")
    manifest = synthesize_dataset(
        benchmark_profiles(), 40, 3.0, 44100, root / "data", 7
    )
    config = PipelineConfig(manifest=manifest, out_dir=root / "run1")
    start = time.perf_counter()
    result = run_pipeline(config)
    elapsed = time.perf_counter() - start
    return root, manifest, config, result, elapsed


def test_c1_external_dataset_reproduction(tmp_path):
    manifest = os.environ.get(EXTERNAL_MANIFEST_VAR)
    if not manifest:
        _announce(
            "C1", "SKIP",
            f"{EXTERNAL_MANIFEST_VAR} not set; external recordings unavailable",
        )
        pytest.skip("no external dataset manifest configured")
    with criterion("C1") as c:
        config = PipelineConfig(manifest=manifest, out_dir=tmp_path / "external")
        result = run_pipeline(config)
        gaps = {}
        for system_id, want in EXTERNAL_REFERENCE.items():
            if system_id == "fusion":
                got = 100.0 * result.fusion_report.average_accuracy
            else:
                got = 100.0 * result.reports[system_id].average_accuracy
            gaps[system_id] = abs(got - want)
        worst = max(gaps, key=gaps.get)
        c["ok"] = all(g <= EXTERNAL_TOLERANCE_PTS for g in gaps.values())
        c["detail"] = (
            f"worst gap {gaps[worst]:.2f} pts ({worst}), "
            f"tolerance {EXTERNAL_TOLERANCE_PTS}"
        )


def test_c2_benchmark_accuracy(benchmark_run):
    _, _, config, result, elapsed = benchmark_run
    with criterion("C2") as c:
        singles = {
            sid: result.reports[sid].average_accuracy for sid in config.systems
        }
        fused = result.fusion_report.average_accuracy
        best = max(singles.values())
        weights_ok = bool(
            np.all((result.weights.values >= 0.0) & (result.weights.values <= 1.0))
        )
        c["ok"] = (
            min(singles.values()) >= 0.85
            and fused >= best - 0.02
            and weights_ok
            and elapsed < 300.0
        )
        c["detail"] = (
            f"single systems {100 * min(singles.values()):.1f}"
            f"-{100 * best:.1f}%, fusion {100 * fused:.1f}%, "
            f"{elapsed:.0f} s"
        )


def test_c3_fusion_matches_brute_force():
    with criterion("C3") as c:
        rng = np.random.default_rng(12345)
        worst_weight_err = 0.0
        for case in range(1000):
            n = int(rng.integers(1, 51))
            n_classes = int(rng.integers(2, 16))
            n_systems = int(rng.integers(1, 6))
            ids = [f"s{k}" for k in range(n_systems)]
            names = [f"c{j}" for j in range(n_classes)]
            clip_ids = [f"clip{i}" for i in range(n)]
            blocks = [
                normalize_scores(
                    ScoreMatrix(sid, clip_ids, names, rng.normal(size=(n, n_classes)))
                )
                for sid in ids
            ]
            counts = rng.integers(0, 30, size=(n_classes, n_classes))
            weight_row = confusion_weights(ConfusionMatrix(counts))
            hand = np.array([
                (counts[j, j] / counts[:, j].sum()) if counts[:, j].sum() else 0.0
                for j in range(n_classes)
            ])
            worst_weight_err = max(worst_weight_err, np.abs(weight_row - hand).max())
            weights = FusionWeights(
                ids, names, rng.uniform(0.0, 1.0, size=(n_systems, n_classes))
            )
            fused_scores = fuse(blocks, weights)
            fused = [[0.0] * n_classes for _ in range(n)]
            for w_row, block in zip(weights.values, blocks):
                for i in range(n):
                    for j in range(n_classes):
                        fused[i][j] += w_row[j] * block.values[i][j]
            predicted = [
                max(range(n_classes), key=lambda j: fused[i][j]) for i in range(n)
            ]
            if not (
                np.array_equal(fused_scores.values, np.array(fused))
                and np.array_equal(np.argmax(fused_scores.values, axis=1), predicted)
            ):
                c["detail"] = f"case {case} diverged from the brute-force fold"
                return
        c["ok"] = worst_weight_err <= 1e-15
        c["detail"] = (
            f"1000 random instances exact; weight arithmetic off by "
            f"{worst_weight_err:.1e}"
        )


def test_c4_em_behaves():
    with criterion("C4") as c:
        rng = np.random.default_rng(77)
        worst_drop = 0.0
        for _ in range(100):
            k = int(rng.integers(2, 5))
            dim = int(rng.integers(2, 5))
            n = int(rng.integers(30, 81))
            centers = 3.0 * rng.standard_normal((k, dim))
            feats = centers[rng.integers(0, k, size=n)] + rng.standard_normal((n, dim))
            model = fit_gmm(feats, k, seed=int(rng.integers(0, 2**31)))
            trace = np.asarray(model.train_log_likelihoods)
            worst_drop = min(worst_drop, float(np.diff(trace).min()))
        monotone_ok = worst_drop >= -1e-8

        feats = 1.0 + 2.0 * np.random.default_rng(78).standard_normal((120, 3))
        single = fit_gmm(feats, 1, seed=0)
        single_ok = (
            single.weights[0] == 1.0
            and np.abs(single.means[0] - feats.mean(axis=0)).max() < 1e-9
            and np.abs(single.variances[0] - feats.var(axis=0)).max() < 1e-9
        )

        blob_rng = np.random.default_rng(79)
        a = blob_rng.standard_normal((150, 2))
        b = blob_rng.standard_normal((150, 2)) + 100.0
        both = np.vstack([a, b])
        model = fit_gmm(both, 2, seed=3)
        order = np.argsort(model.means[:, 0])
        recovered = model.means[order]
        want = np.stack([a.mean(axis=0), b.mean(axis=0)])
        cluster_ok = np.abs(recovered - want).max() < 1e-3

        c["ok"] = monotone_ok and single_ok and cluster_ok
        c["detail"] = (
            f"100 EM traces monotone (worst step {worst_drop:.1e}); "
            "K=1 closed form and blob recovery hold"
        )


def descriptor_matrix(desc):
    """The matrix a descriptor stands for, ``Cᵀ C / (n - 1) + ρ I``, formed densely."""
    cov = desc.centered.T @ desc.centered / (desc.centered.shape[0] - 1)
    return 0.5 * (cov + cov.T) + desc.ridge * np.eye(desc.dim)


def test_c5_descriptor_geometry():
    with criterion("C5") as c:
        rng = np.random.default_rng(5)
        descriptors = []
        sym_ok = eig_ok = round_ok = True
        for _ in range(500):
            dim = int(rng.integers(2, 13))
            frames = int(rng.integers(dim + 2, dim + 40))
            feats = rng.standard_normal((frames, dim)) * rng.uniform(0.5, 2.0, dim)
            desc = covariance_descriptor(feats)
            descriptors.append(desc)
            matrix = descriptor_matrix(desc)
            sym_ok &= np.abs(matrix - matrix.T).max() <= 1e-10
            centered = feats - feats.mean(axis=0)
            cov = centered.T @ centered / (frames - 1)
            eps = 1e-3 * float(np.trace(0.5 * (cov + cov.T))) / dim
            eig_ok &= float(np.linalg.eigvalsh(matrix).min()) >= eps - 1e-9
            vec = log_embed(desc)
            back = scipy.linalg.expm(half_vec_inverse(vec, dim))
            rel = np.linalg.norm(back - matrix, "fro") / np.linalg.norm(matrix, "fro")
            round_ok &= rel <= 1e-8

        dist_ok = True
        for _ in range(50):
            d1, d2 = rng.choice(100, size=2, replace=False)
            d1, d2 = descriptors[d1], descriptors[d2]
            if d1.dim != d2.dim:
                continue
            got = np.linalg.norm(log_embed(d1) - log_embed(d2))
            want = np.linalg.norm(
                scipy.linalg.logm(descriptor_matrix(d1))
                - scipy.linalg.logm(descriptor_matrix(d2)),
                "fro",
            )
            dist_ok &= abs(got - want) <= 1e-10

        c["ok"] = bool(sym_ok and eig_ok and round_ok and dist_ok)
        c["detail"] = (
            "500 descriptors: symmetric, ridge-bounded spectra, "
            "log/exp round trips, distances match dense logm"
        )


def test_c6_spectral_primitives():
    with criterion("C6") as c:
        rng = np.random.default_rng(6)

        dft_ok = True
        for n in (32, 64, 128, 256):
            for _ in range(10):
                samples = rng.standard_normal(n)
                clip = AudioClip(samples, 16000, "dft")
                got = power_spectrum(frame_signal(clip, n, n)).power[0]
                window = hamming_periodic(n)
                k = np.arange(n // 2 + 1)
                basis = np.exp(-2j * np.pi * np.outer(k, np.arange(n)) / n)
                ref = np.abs(basis @ (samples * window)) ** 2
                dft_ok &= np.abs(got - ref).max() <= 1e-8 * max(ref.max(), 1.0)

        dct_ok = True
        for _ in range(20):
            rows = rng.standard_normal((int(rng.integers(1, 9)), 40))
            ceps = cepstral_dct(rows, 40)
            back = scipy.fft.idct(ceps, type=2, norm="ortho", axis=1)
            dct_ok &= np.abs(back - rows).max() <= 1e-10

        frames_ok = True
        for _ in range(200):
            flen = int(rng.integers(8, 513))
            hop = int(rng.integers(1, flen + 1))
            length = int(rng.integers(flen, flen + 5000))
            clip = AudioClip(rng.standard_normal(length), 16000, "frames")
            got = frame_signal(clip, flen, hop).frames.shape[0]
            want = (length - flen) // hop + 1
            frames_ok &= got == want == frame_count(length, flen, hop)

        subspace_ok = True
        fraction = SPCC_ENERGY_FRACTION
        for _ in range(100):
            frames = int(rng.integers(10, 81))
            dim = int(rng.integers(2, 31))
            data = rng.standard_normal((frames, dim)) * rng.uniform(0.2, 3.0, dim)
            projected, rank = subspace_project(data, fraction)
            centered = data - data.mean(axis=0)
            lam = np.linalg.eigvalsh(centered.T @ centered / (frames - 1))[::-1]
            lam = np.maximum(lam, 0.0)
            ratios = np.cumsum(lam) / lam.sum()
            residual = (
                np.linalg.norm(data - projected, "fro") ** 2
                / np.linalg.norm(centered, "fro") ** 2
            )
            minimal = ratios[rank - 1] >= fraction and (
                rank == 1 or ratios[rank - 2] < fraction
            )
            subspace_ok &= residual <= (1.0 - fraction) + 1e-12 and minimal

        c["ok"] = bool(dft_ok and dct_ok and frames_ok and subspace_ok)
        c["detail"] = (
            "windows/DFT vs direct sums, DCT inverts, 200 framing layouts, "
            "100 minimal energy-capped subspaces"
        )


def test_c7_feature_dimensions(benchmark_run):
    _, manifest_path, _, _, _ = benchmark_run
    with criterion("C7") as c:
        manifest = load_manifest(manifest_path)
        store = extract_for_manifest(manifest, manifest_path, list(EXTRACTOR_NAMES))
        ok = True
        for entry_path, _ in manifest.entries:
            for name in EXTRACTOR_NAMES:
                mat = clip_features(store, entry_path, name)
                ok &= mat.shape == (128, expected_dim(name))
                ok &= bool(np.all(np.isfinite(mat)))
        c["ok"] = ok
        c["detail"] = (
            f"{len(manifest)} clips x {len(EXTRACTOR_NAMES)} extractors, "
            "128 frames each, widths as configured"
        )


def test_c8_rerun_is_byte_identical(benchmark_run):
    root, _, config, _, _ = benchmark_run
    with criterion("C8") as c:
        second = replace(config, out_dir=root / "run2")
        run_pipeline(second)
        first_files = sorted(
            p.relative_to(config.out_dir)
            for p in config.out_dir.rglob("*") if p.is_file()
        )
        second_files = sorted(
            p.relative_to(second.out_dir)
            for p in second.out_dir.rglob("*") if p.is_file()
        )
        if first_files != second_files:
            c["detail"] = "artifact trees list different files"
            return
        for rel in first_files:
            if (config.out_dir / rel).read_bytes() != (second.out_dir / rel).read_bytes():
                c["detail"] = f"{rel} differs between runs"
                return
        c["ok"] = True
        c["detail"] = f"{len(first_files)} artifacts identical across reruns"


def test_c9_fusion_rescues_unanimous_second_choice():
    with criterion("C9") as c:
        names = ["a", "b", "c", "d"]
        clip_ids = [f"clip{i}" for i in range(3)]
        blocks = []
        for k in range(3):
            rows = []
            for i in range(3):
                row = [0.05, 0.05, 0.05, 0.9]
                row[(k + i) % 3] = 1.0
                rows.append(row)
            blocks.append(ScoreMatrix(f"s{k}", clip_ids, names, np.array(rows)))
        weights = FusionWeights([f"s{k}" for k in range(3)], names, np.ones((3, 4)))
        no_single_winner = all(
            int(np.argmax(block.values[i])) != 3
            for block in blocks
            for i in range(3)
        )
        fused = fuse(blocks, weights)
        c["ok"] = no_single_winner and bool(np.all(np.argmax(fused.values, axis=1) == 3))
        c["detail"] = (
            "class ranked second by every system wins all 3 fused clips"
        )


def test_c10_hard_sets_hold_their_accuracies(tmp_path_factory):
    with criterion("C10") as c:
        gaps = {}
        for set_name, transform in HARD_SETS.items():
            root = tmp_path_factory.mktemp("hard")
            profiles = [transform(p) for p in benchmark_profiles()]
            manifest = synthesize_dataset(profiles, 40, 3.0, 44100, root / "data", 7)
            result = run_pipeline(PipelineConfig(manifest=manifest, out_dir=root / "run"))
            for system_id, want in HARD_SET_REFERENCE[set_name].items():
                report = (
                    result.fusion_report if system_id == "fusion"
                    else result.reports[system_id]
                )
                got = 100.0 * report.average_accuracy
                gaps[f"{set_name} {system_id}"] = (got - want, got, want)
        worst = max(gaps, key=lambda key: abs(gaps[key][0]))
        gap, got, want = gaps[worst]
        c["ok"] = all(abs(g) <= HARD_SET_TOLERANCE_PTS for g, _, _ in gaps.values())
        c["detail"] = (
            f"{len(gaps)} accuracies on {len(HARD_SETS)} hard sets; worst gap "
            f"{gap:+.2f} pts ({worst}: {got:.2f} against {want:.2f}), "
            f"tolerance {HARD_SET_TOLERANCE_PTS}"
        )
