"""Command-line interface, exercised end to end through main()."""

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
        "--system-id", "renamed", "--extractor", "mfcc",
        "--out", str(work / "renamed.csv"),
    ])
    assert rc == 0
    capsys.readouterr()
    (scores,) = load_score_csv(work / "renamed.csv")
    assert scores.system_id == "renamed"


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

    # a model file whose stem names no built-in system needs --extractor
    opaque = tmp_path / "mystery.bin"
    opaque.write_bytes((work / "mfcc-gmm.sfg").read_bytes())
    rc = main([
        "classify", "--model", str(opaque),
        "--features", str(work / "feats.sfs"),
        "--manifest", str(work / "data" / "manifest.tsv"),
        "--out", str(tmp_path / "y.csv"),
    ])
    assert rc == 1
    assert "cannot infer" in capsys.readouterr().err


def test_missing_feature_family_is_named(work, capsys, tmp_path):
    # feats.sfs holds mfcc only; a plp system has no records to read
    manifest = str(work / "data" / "manifest.tsv")
    rc = main([
        "train", "--features", str(work / "feats.sfs"), "--manifest", manifest,
        "--system", "plp-gmm", "--out", str(tmp_path / "plp-gmm.sfg"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: no 'plp' features for clip '" in err
    assert "holds: mfcc" in err

    model = tmp_path / "plp-gmm.sfg"
    model.write_bytes((work / "mfcc-gmm.sfg").read_bytes())
    rc = main([
        "classify", "--model", str(model), "--features", str(work / "feats.sfs"),
        "--manifest", manifest, "--out", str(tmp_path / "plp.csv"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: no 'plp' features for clip '" in err
    assert "holds: mfcc" in err


def test_bad_subcommand_arguments_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["train", "--system", "made-up"])
    assert err.value.code == 2
    capsys.readouterr()
