"""``tools/compare_trees.py`` compares score files by argmax, the rest by bytes."""

import importlib.util
import shutil
from pathlib import Path

import numpy as np
import pytest

from scenefuse.fusion import ScoreMatrix, save_score_csv

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_trees.py"


@pytest.fixture(scope="module")
def compare_trees():
    spec = importlib.util.spec_from_file_location("compare_trees", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root: Path, values) -> Path:
    """A run's tree in miniature: one score file and one report."""
    (root / "scores").mkdir(parents=True)
    scores = ScoreMatrix("plp-gmm", ["a.wav", "b.wav"], ["bus", "park"], values)
    save_score_csv(root / "scores" / "plp-gmm.csv", scores)
    (root / "report.txt").write_text("average accuracy 100.00%\n")
    return root


@pytest.fixture
def trees(tmp_path):
    values = np.array([[-3.25, -7.5], [-9.0, -1.125]])
    return write_tree(tmp_path / "a", values), tmp_path / "b", values


def test_equal_trees_pass(compare_trees, trees, capsys):
    a, b, values = trees
    write_tree(b, values)
    assert compare_trees.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "scores/plp-gmm.csv: byte-equal" in out
    assert "every other artifact byte-equal: yes" in out


def test_last_digits_pass_and_are_named(compare_trees, trees, capsys):
    a, b, values = trees
    write_tree(b, values + [[1e-13, 0.0], [0.0, -1e-13]])
    assert compare_trees.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "scores/plp-gmm.csv: bytes differ" in out
    assert "argmax agrees on every clip" in out


def test_moved_argmax_fails(compare_trees, trees, capsys):
    a, b, values = trees
    write_tree(b, values[:, ::-1])
    assert compare_trees.main([str(a), str(b)]) == 1
    assert "argmax differs on 2 clips" in capsys.readouterr().out


def test_changed_other_file_fails(compare_trees, trees, capsys):
    a, b, values = trees
    write_tree(b, values)
    (b / "report.txt").write_text("average accuracy 50.00%\n")
    assert compare_trees.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "report.txt: bytes differ" in out
    assert "every other artifact byte-equal: no" in out


def test_file_in_one_tree_only_fails(compare_trees, trees, capsys):
    a, b, _ = trees
    shutil.copytree(a, b)
    (b / "extra.txt").write_text("x\n")
    assert compare_trees.main([str(a), str(b)]) == 1
    assert f"extra.txt: only in {b}" in capsys.readouterr().out
