"""``benchmarks/ab_cells.py``: a tree timed against itself must report
identical SimStats on every cell and print both ratio tables."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import ab_cells  # noqa: E402


def test_tree_against_itself(capsys):
    code = ab_cells.main(["--base-dir", str(ROOT), "--workloads",
                          "rawcaudio", "--configs", "2", "--length", "300"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "SimStats identical on every cell" in out
    assert "| 1c none/baseline |" in out
    assert "| 1c stride/baseline |" in out
    assert "| decode |" in out
    assert out.count("| total |") == 2
