"""Compare two run artifact trees: score files by value, the rest by bytes.

    python3 tools/compare_trees.py A B

For each score CSV (a file that opens with the ``#normalized=`` preamble)
present in both trees, prints whether its bytes are equal, the largest
change of any score relative to the largest score magnitude in ``A``'s
file, and whether every clip's argmax agrees.  Then says whether every
other artifact is byte-equal, naming the files that are not and those
found in one tree only.  Exits 0 when every argmax agrees and every other
artifact is byte-equal, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

SCORE_PREAMBLE = b"#normalized="


def _scores(path: Path) -> tuple:
    """``(labels, scores)`` of a score CSV: the header, then each row's clip
    and system id, in file order; and the clips x classes scores."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh.read().splitlines()[1:])
    labels = [header] + [row[:2] for row in rows]
    return labels, np.array([[float(v) for v in row[2:]] for row in rows]).reshape(len(rows), -1)


def compare(a: Path, b: Path) -> bool:
    files = {}
    for root in (a, b):
        for path in root.rglob("*"):
            if path.is_file():
                files.setdefault(path.relative_to(root).as_posix(), []).append(root)
    same, others_equal = True, True
    for rel in sorted(files):
        if len(files[rel]) == 1:
            print(f"{rel}: only in {files[rel][0]}")
            others_equal = False
            continue
        left, right = (a / rel).read_bytes(), (b / rel).read_bytes()
        if left.startswith(SCORE_PREAMBLE) and right.startswith(SCORE_PREAMBLE):
            (labels_a, va), (labels_b, vb) = _scores(a / rel), _scores(b / rel)
            if labels_a != labels_b:
                print(f"{rel}: the clips or classes differ")
                same = False
                continue
            scale = np.abs(va).max(initial=0.0)
            change = np.abs(va - vb).max(initial=0.0) / scale if scale else 0.0
            moved = int((va.argmax(axis=1) != vb.argmax(axis=1)).sum())
            same &= moved == 0
            verdict = "agrees on every clip" if moved == 0 else f"differs on {moved} clips"
            print(f"{rel}: {'byte-equal' if left == right else 'bytes differ'}, "
                  f"largest change {change:.3g} of the largest score, argmax {verdict}")
        elif left != right:
            print(f"{rel}: bytes differ")
            others_equal = False
    print(f"every other artifact byte-equal: {'yes' if others_equal else 'no'}")
    return same and others_equal


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    for root in (args.a, args.b):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    return 0 if compare(args.a, args.b) else 1


if __name__ == "__main__":
    sys.exit(main())
