"""Command-line interface, exercised end to end through main()."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scenefuse.cli import main
from scenefuse.dataio import load_features, load_manifest
from scenefuse.fusion import load_score_csv, load_weights_csv


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


def test_full_chain(work, capsys):
    # synth: five classes, 1 s clips, wide enough band for every profile
    rc = main([
        "synth", "--profile", "benchmark", "--count", "3",
        "--duration", "1.0", "--sample-rate", "32000",
        "--seed", "11", "--out", str(work / "data"),
    ])
    assert rc == 0
    assert "wrote 15 clips" in capsys.readouterr().out
    manifest_path = work / "data" / "manifest.tsv"
    manifest = load_manifest(manifest_path)
    assert len(manifest) == 15

    rc = main([
        "extract", "--manifest", str(manifest_path),
        "--features", "mfcc", "--frame-len", "512", "--hop", "256",
        "--out", str(work / "feats.sfs"),
    ])
    assert rc == 0
    assert "15 feature matrices" in capsys.readouterr().out
    store = load_features(work / "feats.sfs")
    assert store.extractors() == ["mfcc"]

    model_path = work / "mfcc-gmm.sfg"
    rc = main([
        "train", "--features", str(work / "feats.sfs"),
        "--manifest", str(manifest_path),
        "--system", "mfcc-gmm", "--mixtures", "2",
        "--out", str(model_path),
    ])
    assert rc == 0
    assert model_path.is_file()
    assert "trained mfcc-gmm" in capsys.readouterr().out

    rc = main([
        "weights", "--manifest", str(manifest_path),
        "--features", str(work / "feats.sfs"),
        "--systems", "mfcc-gmm", "--folds", "3", "--mixtures", "2",
        "--out", str(work / "weights.csv"),
    ])
    assert rc == 0
    capsys.readouterr()
    weights = load_weights_csv(work / "weights.csv")
    assert weights.system_ids == ["mfcc-gmm"]
    assert weights.values.shape == (1, 5)

    rc = main([
        "classify", "--model", str(model_path),
        "--features", str(work / "feats.sfs"),
        "--manifest", str(manifest_path),
        "--out", str(work / "scores.csv"),
    ])
    assert rc == 0
    assert "scored 15 clips with mfcc-gmm" in capsys.readouterr().out
    (scores,) = load_score_csv(work / "scores.csv")
    assert scores.system_id == "mfcc-gmm"
    assert scores.values.shape == (15, 5)

    rc = main([
        "fuse", "--scores", str(work / "scores.csv"),
        "--weights", str(work / "weights.csv"),
        "--out", str(work / "fused.csv"),
    ])
    assert rc == 0
    capsys.readouterr()
    (fused,) = load_score_csv(work / "fused.csv")
    assert fused.system_id == "fusion"
    assert fused.values.shape == (15, 5)

    rc = main([
        "evaluate", "--pred", str(work / "fused.csv"),
        "--manifest", str(manifest_path),
        "--report", str(work / "report.txt"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "average accuracy" in out
    assert (work / "report.txt").read_text().startswith("system: fusion")


def test_run_subcommand(work, mini_dataset, capsys):
    cfg = work / "run.cfg"
    cfg.write_text(
        f"manifest = {mini_dataset}\n"
        f"out_dir = {work / 'run-out'}\n"
        "train_fraction = 0.5\n"
        "weights_folds = 2\n"
        "mixtures_cepstral = 2\n"
        "mixtures_plp = 2\n"
        "systems = plp-gmm\n"
        "fused = plp-gmm\n"
    )
    rc = main(["run", "--config", str(cfg)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "clips: 24 (train 12, test 12)" in out
    assert (work / "run-out" / "summary.txt").is_file()


def test_stepwise_chain_reproduces_run(mini_dataset, tmp_path):
    systems = "cepscom-gmm, cepscom-cdl, plp-gmm"
    run_dir, step = tmp_path / "run", tmp_path / "step"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"manifest = {mini_dataset}\n"
        f"out_dir = {run_dir}\n"
        "train_fraction = 0.5\n"
        "weights_folds = 2\n"
        "mixtures_cepstral = 2\n"
        "mixtures_plp = 2\n"
        f"systems = {systems}\n"
        f"fused = {systems}\n"
    )
    assert main(["run", "--config", str(cfg)]) == 0

    (step / "models").mkdir(parents=True)
    (step / "scores").mkdir()
    feats = str(step / "feats.sfs")
    train = str(run_dir / "train_manifest.tsv")
    test = str(run_dir / "test_manifest.tsv")
    chain = [["extract", "--manifest", str(mini_dataset), "--out", feats]]
    models = sorted(p.name for p in (run_dir / "models").iterdir())
    assert len(models) == 3
    for name in models:
        system = Path(name).stem
        chain += [
            ["train", "--features", feats, "--manifest", train, "--system", system,
             "--mixtures", "2", "--out", str(step / "models" / name)],
            ["classify", "--model", str(step / "models" / name), "--features", feats,
             "--manifest", test, "--out", str(step / "scores" / f"{system}.csv")],
        ]
    chain += [
        ["weights", "--features", feats, "--manifest", train,
         "--systems", systems.replace(" ", ""), "--folds", "2", "--mixtures", "2",
         "--out", str(step / "weights.csv")],
        ["fuse", "--weights", str(step / "weights.csv"), "--out", str(step / "scores" / "fusion.csv"),
         "--scores", *(str(step / "scores" / f"{Path(n).stem}.csv") for n in models)],
    ]
    for argv in chain:
        assert main(argv) == 0, argv[0]

    compared = [f"models/{name}" for name in models] + ["weights.csv"]
    compared += [f"scores/{Path(n).stem}.csv" for n in models] + ["scores/fusion.csv"]
    for rel in compared:
        assert (step / rel).read_bytes() == (run_dir / rel).read_bytes(), rel


def test_classify_with_explicit_system_id(work, capsys):
    rc = main([
        "classify", "--model", str(work / "mfcc-gmm.sfg"),
        "--features", str(work / "feats.sfs"),
        "--manifest", str(work / "data" / "manifest.tsv"),
        "--system-id", "renamed",
        "--out", str(work / "renamed.csv"),
    ])
    assert rc == 0
    capsys.readouterr()
    (scores,) = load_score_csv(work / "renamed.csv")
    assert scores.system_id == "renamed"


def test_classify_names_scores_by_the_system_the_model_holds(work, capsys):
    # whatever the model file is called, its family and back-end name the
    # system, so the weighted fusion finds its scores
    features, manifest = str(work / "feats.sfs"), str(work / "data" / "manifest.tsv")
    model, scores, fused = (
        str(work / name) for name in ("model.sfg", "model.csv", "fused-model.csv")
    )
    for argv in (
        ["train", "--features", features, "--manifest", manifest,
         "--system", "mfcc-gmm", "--mixtures", "2", "--out", model],
        ["classify", "--model", model, "--features", features, "--manifest", manifest,
         "--out", scores],
        ["fuse", "--scores", scores, "--weights", str(work / "weights.csv"), "--out", fused],
    ):
        assert main(argv) == 0, argv[0]
    assert "scored 15 clips with mfcc-gmm" in capsys.readouterr().out
    assert load_score_csv(scores)[0].system_id == "mfcc-gmm"
    assert load_score_csv(fused)[0].values.shape == (15, 5)


def test_error_exit_codes(work, capsys, tmp_path):
    rc = main(["run", "--config", str(tmp_path / "missing.cfg")])
    assert rc == 1
    assert "[config]" in capsys.readouterr().err

    rc = main([
        "extract", "--manifest", str(work / "data" / "manifest.tsv"),
        "--features", "mfcc,bogus", "--out", str(tmp_path / "x.sfs"),
    ])
    assert rc == 1
    assert "unknown extractor 'bogus'" in capsys.readouterr().err

    # the file names its own feature family, whatever the file is called
    opaque = tmp_path / "mystery.bin"
    opaque.write_bytes((work / "mfcc-gmm.sfg").read_bytes())
    rc = main([
        "classify", "--model", str(opaque),
        "--features", str(work / "feats.sfs"),
        "--manifest", str(work / "data" / "manifest.tsv"),
        "--out", str(tmp_path / "y.csv"),
    ])
    assert rc == 0
    assert "scored 15 clips with mfcc-gmm" in capsys.readouterr().out


def test_fuse_rejects_repeated_rows(capsys, tmp_path):
    scores, weights = tmp_path / "scores.csv", tmp_path / "weights.csv"
    argv = ["fuse", "--scores", str(scores), "--weights", str(weights),
            "--out", str(tmp_path / "fused.csv")]
    header = "#normalized=true\nclip_id,system_id,a,b\n"
    scores.write_text(header + "c1.wav,x,1.0,0.0\nc2.wav,x,0.0,1.0\n")
    weights.write_text("system_id,a,b\nx,1.0,1.0\nx,0.5,0.5\n")
    assert main(argv) == 1
    assert "weights.csv:3: system 'x' repeats line 2" in capsys.readouterr().err

    weights.write_text("system_id,a,b\nx,1.0,1.0\n")
    scores.write_text(header + "c1.wav,x,1.0,0.0\nc1.wav,x,0.0,1.0\n")
    assert main(argv) == 1
    assert "scores.csv:4: clip 'c1.wav' of system 'x' repeats line 3" in capsys.readouterr().err
    assert not (tmp_path / "fused.csv").exists()


def test_weights_rejects_a_repeated_system(work, capsys):
    out = work / "twice.csv"
    rc = main([
        "weights", "--manifest", str(work / "data" / "manifest.tsv"),
        "--features", str(work / "feats.sfs"), "--systems", "mfcc-gmm,mfcc-gmm",
        "--folds", "3", "--mixtures", "2", "--out", str(out),
    ])
    assert rc == 1
    assert "system 'mfcc-gmm' has more than one row of weights" in capsys.readouterr().err
    assert not out.exists()


def test_fuse_rejects_a_blank_weights_line(capsys, tmp_path):
    scores, weights = tmp_path / "scores.csv", tmp_path / "weights.csv"
    scores.write_text("#normalized=true\nclip_id,system_id,a,b\nc1.wav,plp-gmm,1.0,0.0\n")
    weights.write_text("system_id,a,b\nplp-gmm,0.5,0.5\n\n")
    argv = ["fuse", "--scores", str(scores), "--weights", str(weights),
            "--out", str(tmp_path / "fused.csv")]
    assert main(argv) == 1
    assert "weights.csv:3: expected 3 fields" in capsys.readouterr().err
    assert not (tmp_path / "fused.csv").exists()


def test_fuse_rejects_a_weight_that_is_not_a_number(capsys, tmp_path):
    scores, weights = tmp_path / "scores.csv", tmp_path / "weights.csv"
    scores.write_text("#normalized=true\nclip_id,system_id,a,b\nc1.wav,x,1.0,0.0\n")
    weights.write_text("system_id,a,b\nx,nan,0.5\n")
    argv = ["fuse", "--scores", str(scores), "--weights", str(weights),
            "--out", str(tmp_path / "fused.csv")]
    assert main(argv) == 1
    assert "weights.csv:2: 'nan' is not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "fused.csv").exists()


def test_missing_feature_family_is_named(work, capsys, tmp_path):
    # feats.sfs holds mfcc only; a plp system has no records to read, and
    # the store says so as it is loaded
    manifest = str(work / "data" / "manifest.tsv")
    feats = str(work / "feats.sfs")
    rc = main([
        "train", "--features", str(work / "feats.sfs"), "--manifest", manifest,
        "--system", "plp-gmm", "--out", str(tmp_path / "plp-gmm.sfg"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: no 'plp' features in {feats}" in err
    assert "holds: mfcc" in err

    # cepscom is joined from its parts; the first one the store lacks is named
    rc = main([
        "train", "--features", str(work / "feats.sfs"), "--manifest", manifest,
        "--system", "cepscom-gmm", "--out", str(tmp_path / "cepscom-gmm.sfg"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: no 'pncc' features in {feats}" in err
    assert "holds: mfcc" in err

    # a real plp model, trained on a plp store, then pointed at the mfcc one
    model = tmp_path / "plp-gmm.sfg"
    plp_feats = str(tmp_path / "plp.sfs")
    for argv in (
        ["extract", "--manifest", manifest, "--features", "plp",
         "--frame-len", "512", "--hop", "256", "--out", plp_feats],
        ["train", "--features", plp_feats, "--manifest", manifest,
         "--system", "plp-gmm", "--mixtures", "2", "--out", str(model)],
    ):
        assert main(argv) == 0, argv[0]
    capsys.readouterr()
    rc = main([
        "classify", "--model", str(model), "--features", str(work / "feats.sfs"),
        "--manifest", manifest, "--out", str(tmp_path / "plp.csv"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: no 'plp' features in {feats}" in err
    assert "holds: mfcc" in err


def test_each_step_reads_only_the_families_its_system_uses(work, capsys, tmp_path):
    manifest = str(work / "data" / "manifest.tsv")
    feats = tmp_path / "two.sfs"
    assert main(["extract", "--manifest", manifest, "--features", "mfcc,plp",
                 "--frame-len", "512", "--hop", "256", "--out", str(feats)]) == 0
    # plp's block comes last; break its final payload byte
    blob = bytearray(feats.read_bytes())
    blob[-9] ^= 0x01
    feats.write_bytes(bytes(blob))
    model = str(tmp_path / "mfcc-gmm.sfg")
    for argv in (
        ["train", "--features", str(feats), "--manifest", manifest,
         "--system", "mfcc-gmm", "--mixtures", "2", "--out", model],
        ["weights", "--features", str(feats), "--manifest", manifest, "--systems", "mfcc-gmm",
         "--folds", "3", "--mixtures", "2", "--out", str(tmp_path / "weights.csv")],
        ["classify", "--model", model, "--features", str(feats), "--manifest", manifest,
         "--out", str(tmp_path / "scores.csv")],
    ):
        assert main(argv) == 0, argv[0]
    capsys.readouterr()
    rc = main(["train", "--features", str(feats), "--manifest", manifest,
               "--system", "plp-gmm", "--mixtures", "2", "--out", str(tmp_path / "plp.sfg")])
    assert rc == 1
    assert f"{feats}, 'plp' block: checksum mismatch" in capsys.readouterr().err


def _classify(work, manifest, out):
    return main([
        "classify", "--model", str(work / "mfcc-gmm.sfg"),
        "--features", str(work / "feats.sfs"), "--manifest", str(manifest), "--out", str(out),
    ])


def test_classify_matches_classes_by_name(work, capsys):
    # the same clips, listed by label, so classes first appear in another order
    lines = (work / "data" / "manifest.tsv").read_text().splitlines()
    by_label = work / "data" / "by_label.tsv"
    by_label.write_text("\n".join(sorted(lines, key=lambda l: (l.split("\t")[1], l))) + "\n")
    accuracies = []
    for manifest, out in ((work / "data" / "manifest.tsv", work / "listed.csv"),
                          (by_label, work / "by_label.csv")):
        assert _classify(work, manifest, out) == 0
        assert main(["evaluate", "--pred", str(out), "--manifest", str(manifest),
                     "--report", str(out.with_suffix(".txt"))]) == 0
        accuracies.append(capsys.readouterr().out.split("average accuracy ")[1].split("%")[0])
    assert accuracies[0] == accuracies[1]
    assert float(accuracies[0]) > 50.0

    (listed,) = load_score_csv(work / "listed.csv")
    (sorted_,) = load_score_csv(work / "by_label.csv")
    assert sorted_.class_names == load_manifest(by_label).class_names != listed.class_names
    rows = [listed.clip_ids.index(clip) for clip in sorted_.clip_ids]
    cols = [listed.class_names.index(name) for name in sorted_.class_names]
    assert np.array_equal(sorted_.values, listed.values[rows][:, cols])


def test_classify_names_a_class_the_model_lacks(work, capsys):
    manifest = load_manifest(work / "data" / "manifest.tsv")
    old = manifest.class_names[0]
    renamed = work / "data" / "renamed.tsv"
    renamed.write_text("".join(
        f"{path}\t{'gone-' + label if label == old else label}\n"
        for path, label in manifest.entries
    ))
    assert _classify(work, renamed, work / "renamed-class.csv") == 1
    err = capsys.readouterr().err
    assert f"only in the manifest: ['gone-{old}']" in err
    assert f"only in the model: ['{old}']" in err


def test_importing_the_cli_leaves_scipy_signal_out():
    import scenefuse

    src = str(Path(scenefuse.__file__).resolve().parents[1])
    probe = "import sys, scenefuse.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "False"


def test_bad_subcommand_arguments_exit_two(capsys):
    for argv in (
        ["train", "--system", "made-up"],
        # one CDL scoring rule, and the model file names its feature family
        ["weights", "--manifest", "m.tsv", "--features", "f.sfs", "--systems", "all",
         "--out", "w.csv", "--cdl-mode", "centroid"],
        ["classify", "--model", "m.sfg", "--features", "f.sfs", "--manifest", "m.tsv",
         "--out", "s.csv", "--extractor", "mfcc"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
    capsys.readouterr()
