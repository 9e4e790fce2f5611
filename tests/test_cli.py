"""Command-line interface, exercised end to end through main()."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scenefuse.cli
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
        "--features", "mfcc",
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
    scores = load_score_csv(work / "scores.csv")
    assert scores.system_id == "mfcc-gmm"
    assert scores.values.shape == (15, 5)

    rc = main([
        "fuse", "--scores", str(work / "scores.csv"),
        "--weights", str(work / "weights.csv"),
        "--out", str(work / "fused.csv"),
    ])
    assert rc == 0
    capsys.readouterr()
    fused = load_score_csv(work / "fused.csv")
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
    # run writes a report per score file; one system and the fusion stand for all
    reported = ["fusion", Path(models[0]).stem]
    (step / "reports").mkdir()
    for system in reported:
        chain.append(["evaluate", "--pred", str(step / "scores" / f"{system}.csv"),
                      "--manifest", test, "--report", str(step / "reports" / f"{system}.txt")])
    for argv in chain:
        assert main(argv) == 0, argv[0]

    compared = [f"models/{name}" for name in models] + ["weights.csv"]
    compared += [f"scores/{Path(n).stem}.csv" for n in models] + ["scores/fusion.csv"]
    compared += [f"reports/{system}.txt" for system in reported]
    for rel in compared:
        assert (step / rel).read_bytes() == (run_dir / rel).read_bytes(), rel


def _write_list(path, entries):
    path.write_text("".join(f"{clip}\t{label}\n" for clip, label in entries))


def test_stepwise_chain_takes_a_test_list_in_any_class_order(mini_dataset, tmp_path):
    # the same test clips, once with their last class first: models, scores
    # and weights keep the training list's class order, and evaluate finds
    # each test clip's class by name
    entries = load_manifest(mini_dataset).entries
    test = entries[1::2]
    last = test[-1][1]
    reordered = [e for e in test if e[1] == last] + [e for e in test if e[1] != last]
    for name, listed in (("train", entries[::2]), ("test", test), ("reordered", reordered)):
        _write_list(tmp_path / f"{name}.tsv", listed)
    assert load_manifest(tmp_path / "reordered.tsv").class_names[0] == last != test[0][1]

    feats, weights = str(tmp_path / "feats.sfs"), str(tmp_path / "weights.csv")
    train = str(tmp_path / "train.tsv")
    systems = ("mfcc-gmm", "plp-gmm")
    chain = [
        ["extract", "--manifest", str(mini_dataset), "--features", "mfcc,plp", "--out", feats],
        *(["train", "--features", feats, "--manifest", train, "--system", system,
           "--mixtures", "2", "--out", str(tmp_path / f"{system}.sfg")] for system in systems),
        ["weights", "--features", feats, "--manifest", train, "--systems", ",".join(systems),
         "--folds", "2", "--mixtures", "2", "--out", weights],
    ]
    for name in ("test", "reordered"):
        test_list, out = str(tmp_path / f"{name}.tsv"), tmp_path / name
        out.mkdir()
        chain += [
            *(["classify", "--model", str(tmp_path / f"{system}.sfg"), "--features", feats,
               "--manifest", test_list, "--out", str(out / f"{system}.csv")]
              for system in systems),
            ["fuse", "--weights", weights, "--out", str(out / "fusion.csv"),
             "--scores", *(str(out / f"{system}.csv") for system in systems)],
            ["evaluate", "--pred", str(out / "fusion.csv"), "--manifest", test_list,
             "--report", str(out / "report.txt")],
        ]
    for argv in chain:
        assert main(argv) == 0, argv[0]
    report = (tmp_path / "test" / "report.txt").read_bytes()
    assert report == (tmp_path / "reordered" / "report.txt").read_bytes()
    assert b"clips evaluated: 12" in report


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
    assert load_score_csv(scores).system_id == "mfcc-gmm"
    assert load_score_csv(fused).values.shape == (15, 5)


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
    header = "#normalized=false\nclip_id,system_id,a,b\n"
    scores.write_text(header + "c1.wav,x,1.0,0.0\nc2.wav,x,0.0,1.0\n")
    weights.write_text("system_id,a,b\nx,1.0,1.0\nx,0.5,0.5\n")
    assert main(argv) == 1
    assert "weights.csv:3: system 'x' repeats line 2" in capsys.readouterr().err

    weights.write_text("system_id,a,b\nx,1.0,1.0\n")
    scores.write_text(header + "c1.wav,x,1.0,0.0\nc1.wav,x,0.0,1.0\n")
    assert main(argv) == 1
    assert "scores.csv:4: clip 'c1.wav' of system 'x' repeats line 3" in capsys.readouterr().err
    assert not (tmp_path / "fused.csv").exists()


def test_fuse_and_evaluate_take_one_system_per_file(capsys, tmp_path):
    scores, weights = tmp_path / "scores.csv", tmp_path / "weights.csv"
    manifest = tmp_path / "test.tsv"
    scores.write_text("#normalized=false\nclip_id,system_id,a,b\n"
                      "c1.wav,x,1.0,0.0\nc1.wav,y,0.0,1.0\n")
    weights.write_text("system_id,a,b\nx,1.0,1.0\ny,1.0,1.0\n")
    manifest.write_text("c1.wav\ta\n")
    for argv in (["fuse", "--scores", str(scores), "--weights", str(weights),
                  "--out", str(tmp_path / "fused.csv")],
                 ["evaluate", "--pred", str(scores), "--manifest", str(manifest),
                  "--report", str(tmp_path / "report.txt")]):
        assert main(argv) == 1
        assert ("scores.csv:4: system 'y', but line 3 has 'x'; a score file holds one system"
                in capsys.readouterr().err)
    assert not (tmp_path / "fused.csv").exists()
    assert not (tmp_path / "report.txt").exists()


def test_fuse_rejects_a_field_it_could_not_write(capsys, tmp_path):
    # a quoted comma used to load, then fail the fused file part-way through
    scores, weights = tmp_path / "scores.csv", tmp_path / "weights.csv"
    scores.write_text('#normalized=false\nclip_id,system_id,a,b\n'
                      'a.wav,x,1.0,0.0\n"b,c.wav",x,0.0,1.0\n')
    weights.write_text("system_id,a,b\nx,1.0,1.0\n")
    fused = tmp_path / "fused.csv"
    assert main(["fuse", "--scores", str(scores), "--weights", str(weights),
                 "--out", str(fused)]) == 1
    assert ("scores.csv:4: clip id 'b,c.wav' may not contain commas"
            in capsys.readouterr().err)
    assert not fused.exists()


def test_evaluate_rejects_scores_that_leave_a_class_out(capsys, tmp_path):
    # a perfect classifier on the clips of 'b' alone used to report 50.0,
    # its 100% on 'b' averaged with 0% for the 'a' it was never shown
    manifest, pred = tmp_path / "test.tsv", tmp_path / "pred.csv"
    manifest.write_text("a/1.wav\ta\na/2.wav\ta\nb/1.wav\tb\nb/2.wav\tb\n")
    pred.write_text("#normalized=false\nclip_id,system_id,a,b\n"
                    "b/1.wav,fusion,0.0,1.0\nb/2.wav,fusion,0.0,1.0\n")
    report = tmp_path / "report.txt"
    argv = ["evaluate", "--pred", str(pred), "--manifest", str(manifest),
            "--report", str(report)]
    assert main(argv) == 1
    assert "scores of system 'fusion' have no clip of class 'a'" in capsys.readouterr().err
    assert not report.exists()

    pred.write_text(pred.read_text() + "a/1.wav,fusion,1.0,0.0\n")
    assert main(argv) == 0
    assert "average accuracy 100.00% (3 clips)" in capsys.readouterr().out


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the names were checked")


def test_weights_rejects_a_repeated_system(work, capsys, monkeypatch):
    # the repeat is refused while parsing: no store is read and no fold runs
    monkeypatch.setattr(scenefuse.cli, "load_features", _no_work)
    monkeypatch.setattr(scenefuse.cli, "estimate_weights", _no_work)
    out = work / "twice.csv"
    rc = main([
        "weights", "--manifest", str(work / "data" / "manifest.tsv"),
        "--features", str(work / "feats.sfs"), "--systems", "mfcc-gmm,plp-gmm,mfcc-gmm",
        "--folds", "3", "--mixtures", "2", "--out", str(out),
    ])
    assert rc == 1
    assert "system 'mfcc-gmm' is named more than once" in capsys.readouterr().err
    assert not out.exists()


def test_extract_rejects_a_repeated_family(work, capsys, monkeypatch):
    monkeypatch.setattr(scenefuse.cli, "extract_for_manifest", _no_work)
    out = work / "twice.sfs"
    rc = main([
        "extract", "--manifest", str(work / "data" / "manifest.tsv"),
        "--features", "mfcc, mfcc", "--out", str(out),
    ])
    assert rc == 1
    assert "extractor 'mfcc' is named more than once" in capsys.readouterr().err
    assert not out.exists()


def test_cdl_train_names_a_class_with_one_clip(work, capsys, monkeypatch):
    # the first class keeps one clip; the count is checked before any clip is embedded
    lines = (work / "data" / "manifest.tsv").read_text().splitlines()
    first = lines[0].split("\t")[1]
    kept = [line for line in lines if line.split("\t")[1] != first] + lines[:1]
    manifest = work / "data" / "one_clip.tsv"
    manifest.write_text("\n".join(kept) + "\n")
    feats = work / "cepscom.sfs"
    assert main(["extract", "--manifest", str(manifest), "--features", "mfcc,pncc,rcgcc,spcc",
                 "--out", str(feats)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(scenefuse.cdl, "log_embed", _no_work)
    out = work / "cepscom-cdl.sfc"
    rc = main(["train", "--features", str(feats), "--manifest", str(manifest),
               "--system", "cepscom-cdl", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: cepscom-cdl: class {first!r} has 1 training clips, need at least 2" in err
    assert not out.exists()


def test_fuse_rejects_a_blank_weights_line(capsys, tmp_path):
    scores, weights = tmp_path / "scores.csv", tmp_path / "weights.csv"
    scores.write_text("#normalized=false\nclip_id,system_id,a,b\nc1.wav,plp-gmm,1.0,0.0\n")
    weights.write_text("system_id,a,b\nplp-gmm,0.5,0.5\n\n")
    argv = ["fuse", "--scores", str(scores), "--weights", str(weights),
            "--out", str(tmp_path / "fused.csv")]
    assert main(argv) == 1
    assert "weights.csv:3: expected 3 fields" in capsys.readouterr().err
    assert not (tmp_path / "fused.csv").exists()


def test_fuse_rejects_a_weight_that_is_not_a_number(capsys, tmp_path):
    scores, weights = tmp_path / "scores.csv", tmp_path / "weights.csv"
    scores.write_text("#normalized=false\nclip_id,system_id,a,b\nc1.wav,x,1.0,0.0\n")
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
        ["extract", "--manifest", manifest, "--features", "plp", "--out", plp_feats],
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
                 "--out", str(feats)]) == 0
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

    # both score files keep the model's columns; only the clips' order differs
    listed = load_score_csv(work / "listed.csv")
    sorted_ = load_score_csv(work / "by_label.csv")
    model_order = load_manifest(work / "data" / "manifest.tsv").class_names
    assert sorted_.class_names == listed.class_names == model_order
    assert load_manifest(by_label).class_names != model_order
    rows = [listed.clip_ids.index(clip) for clip in sorted_.clip_ids]
    assert np.array_equal(sorted_.values, listed.values[rows])


def test_classify_names_a_class_the_model_lacks(work, capsys):
    # classify scores the clips with the model's classes; evaluate then
    # meets the manifest's and names what differs
    manifest = load_manifest(work / "data" / "manifest.tsv")
    old = manifest.class_names[0]
    renamed = work / "data" / "renamed.tsv"
    renamed.write_text("".join(
        f"{path}\t{'gone-' + label if label == old else label}\n"
        for path, label in manifest.entries
    ))
    scores, report = work / "renamed-class.csv", work / "renamed-class.txt"
    assert _classify(work, renamed, scores) == 0
    capsys.readouterr()
    assert main(["evaluate", "--pred", str(scores), "--manifest", str(renamed),
                 "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert f"only in the manifest: ['gone-{old}']" in err
    assert f"only in the scores: ['{old}']" in err
    assert not report.exists()


def test_cli_and_a_run_load_no_scipy(mini_dataset, tmp_path):
    # WAV decoding, the cepstral DCT and the CDL eigensolve are numpy's own
    import scenefuse

    src = str(Path(scenefuse.__file__).resolve().parents[1])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"manifest = {mini_dataset}\n"
        f"out_dir = {tmp_path / 'out'}\n"
        "train_fraction = 0.5\n"
        "weights_folds = 2\n"
        "mixtures_cepstral = 2\n"
        "mixtures_plp = 2\n"
    )
    probe = (
        "import sys, scenefuse.cli\n"
        "from scenefuse.pipeline import run_pipeline\n"
        f"run_pipeline({str(cfg)!r})\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"
    assert (tmp_path / "out" / "weights.csv").is_file()


@pytest.fixture(scope="module")
def two_clip_store(tmp_path_factory):
    """Five classes of two 1 s clips at 32 kHz (30 frames each), cepscom extracted."""
    work = tmp_path_factory.mktemp("two-clip")
    assert main(["synth", "--profile", "benchmark", "--count", "2", "--duration", "1.0",
                 "--sample-rate", "32000", "--seed", "5", "--out", str(work / "data")]) == 0
    manifest = work / "data" / "manifest.tsv"
    feats = work / "cepscom.sfs"
    assert main(["extract", "--manifest", str(manifest), "--features", "cepscom",
                 "--out", str(feats)]) == 0
    return manifest, feats


@pytest.mark.parametrize("system, shortfall", [
    ("cepscom-cdl", "has 1 training clips with fold 1 of 2 held out, need at least 2"),
    ("cepscom-gmm", "has 30 frames with fold 1 of 2 held out, fewer than 64 mixture components"),
], ids=["cdl", "gmm"])
def test_weights_checks_every_fold_before_any_fit(
    two_clip_store, capsys, monkeypatch, tmp_path, system, shortfall
):
    # two clips a class pass the fold count, but each fold trains on one
    manifest, feats = two_clip_store
    capsys.readouterr()
    monkeypatch.setattr(scenefuse.cdl, "log_embed", _no_work)
    monkeypatch.setattr(scenefuse.gmm, "fit_gmm", _no_work)
    out = tmp_path / "weights.csv"
    rc = main(["weights", "--features", str(feats), "--manifest", str(manifest),
               "--systems", system, "--folds", "2", "--out", str(out)])
    assert rc == 1
    first = load_manifest(manifest).class_names[0]
    assert f"error: {system}: class {first!r} {shortfall}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("folds, shortfall", [
    ("1", "need at least 2 folds, got 1"),
    ("4", "class {!r} has 3 training clips, fewer than 4 folds"),
], ids=["one-fold", "small-class"])
def test_weights_checks_the_folds_before_dealing_them(
    work, capsys, monkeypatch, tmp_path, folds, shortfall
):
    # every class of the manifest has 3 clips
    monkeypatch.setattr(scenefuse.pipeline, "stratified_folds", _no_work)
    manifest = work / "data" / "manifest.tsv"
    out = tmp_path / "weights.csv"
    rc = main(["weights", "--features", str(work / "feats.sfs"), "--manifest", str(manifest),
               "--systems", "mfcc-gmm", "--folds", folds, "--mixtures", "2", "--out", str(out)])
    assert rc == 1
    first = load_manifest(manifest).class_names[0]
    assert f"error: {shortfall.format(first)}" in capsys.readouterr().err
    assert not out.exists()


def test_cdl_train_names_the_system_on_one_class(two_clip_store, capsys, monkeypatch):
    # refused before any clip is embedded, with the system named
    manifest, feats = two_clip_store
    entries = load_manifest(manifest).entries
    one_class = manifest.parent / "one_class.tsv"
    _write_list(one_class, [e for e in entries if e[1] == entries[0][1]])
    monkeypatch.setattr(scenefuse.cdl, "log_embed", _no_work)
    out = manifest.parent / "one_class.sfc"
    rc = main(["train", "--features", str(feats), "--manifest", str(one_class),
               "--system", "cepscom-cdl", "--out", str(out)])
    assert rc == 1
    assert ("error: cepscom-cdl: the training clips have 1 classes, need at least 2"
            in capsys.readouterr().err)
    assert not out.exists()


def test_bad_subcommand_arguments_exit_two(capsys):
    for argv in (
        ["train", "--system", "made-up"],
        # every clip is framed at FRAME_LEN and HOP
        ["extract", "--manifest", "m.tsv", "--out", "f.sfs", "--hop", "512"],
        ["extract", "--manifest", "m.tsv", "--out", "f.sfs", "--frame-len", "1024"],
        # mixtures start from GMM_SEED and folds are dealt at WEIGHTS_SEED
        ["train", "--features", "f.sfs", "--manifest", "m.tsv", "--system", "mfcc-gmm",
         "--out", "m.sfg", "--gmm-seed", "5"],
        ["weights", "--manifest", "m.tsv", "--features", "f.sfs", "--systems", "all",
         "--out", "w.csv", "--gmm-seed", "5"],
        ["weights", "--manifest", "m.tsv", "--features", "f.sfs", "--systems", "all",
         "--out", "w.csv", "--seed", "3"],
        # one CDL scoring rule, and the model file names its feature family
        ["weights", "--manifest", "m.tsv", "--features", "f.sfs", "--systems", "all",
         "--out", "w.csv", "--cdl-mode", "centroid"],
        # cross-validation is the one weights rule
        ["weights", "--manifest", "m.tsv", "--features", "f.sfs", "--systems", "all",
         "--out", "w.csv", "--method", "cv"],
        ["classify", "--model", "m.sfg", "--features", "f.sfs", "--manifest", "m.tsv",
         "--out", "s.csv", "--extractor", "mfcc"],
        # the model file's family and back-end name its system
        ["classify", "--model", "m.sfg", "--features", "f.sfs", "--manifest", "m.tsv",
         "--out", "s.csv", "--system-id", "renamed"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
    capsys.readouterr()
