"""``tools/stage_peaks.py`` synthesizes its inputs once and reuses them."""

import importlib.util
import sys
from pathlib import Path

import pytest

from scenefuse.dataio import load_manifest
from scenefuse.synth import benchmark_profiles, synthesize_dataset

TOOL = Path(__file__).resolve().parents[1] / "tools" / "stage_peaks.py"


@pytest.fixture
def stage_peaks(monkeypatch):
    # the tool puts the checkout's src/ and perfbench/ on sys.path
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("stage_peaks", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_profiles_at_a_chosen_size(stage_peaks, tmp_path):
    work = tmp_path / "work"
    synth_s = stage_peaks.prepare("many_short", 3, work, clips_per_class=2, seconds=1.0)
    assert synth_s > 0.0
    assert (work / "run.cfg").read_text() == "manifest = data/manifest.tsv\nout_dir = out\n"
    manifest = load_manifest(work / "data" / "manifest.tsv")
    assert manifest.class_names == [p.name for p in benchmark_profiles()]
    assert len(manifest) == 10
    direct = synthesize_dataset(benchmark_profiles(), 2, 1.0, 44100, tmp_path / "direct", 3)
    for name in [entry for entry, _ in manifest.entries] + ["manifest.tsv"]:
        assert (work / "data" / name).read_bytes() == (direct.parent / name).read_bytes()
    # a second call finds the inputs and synthesizes nothing
    (work / "data" / "rumble_000.wav").unlink()
    assert stage_peaks.prepare("many_short", 3, work, clips_per_class=2, seconds=1.0) is None
    assert not (work / "data" / "rumble_000.wav").exists()


def test_size_options_go_together(stage_peaks, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["stage_peaks.py", "--seconds", "30"])
    with pytest.raises(SystemExit) as exc:
        stage_peaks.main()
    assert exc.value.code == 2
    assert "--clips-per-class and --seconds go together" in capsys.readouterr().err
