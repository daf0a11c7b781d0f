"""tools/artifact_diff.py: the parent-against-change artifact comparison."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "artifact_diff", ROOT / "tools" / "artifact_diff.py")
artifact_diff = importlib.util.module_from_spec(_SPEC)
sys.modules["artifact_diff"] = artifact_diff  # dataclasses look their module up
_SPEC.loader.exec_module(artifact_diff)


def test_one_tree_against_itself_has_no_difference(tmp_path, capsys):
    work = tmp_path / "work"
    table = [c for c in artifact_diff.TABLE if c.name == "sweep-fig2-all-failing"]
    assert artifact_diff.diff(ROOT, ROOT, work, [1], table, expect=[]) == 0
    out = capsys.readouterr().out.splitlines()
    # the config, sweep.csv, template.txt and the command's three streams
    assert "identical: 6" in out
    assert "differing: 0" in out and "unexpected: 0" in out
    run = work / "change" / "t1" / "sweep-fig2-all-failing"
    assert (run / "cmd0.exit").read_text(encoding="utf-8") == "2\n"
    assert (run / "out" / "sweep.csv").exists()


def test_compare_counts_empty_directories_and_honours_expect(tmp_path):
    parent, change = tmp_path / "p", tmp_path / "c"
    for root in (parent, change):
        (root / "run").mkdir(parents=True)
        (root / "run" / "same.txt").write_text("a\n", encoding="utf-8")
    (parent / "run" / "changed.txt").write_text("1\n", encoding="utf-8")
    (change / "run" / "changed.txt").write_text("2\n", encoding="utf-8")
    (parent / "run" / "out" / "snapshots").mkdir(parents=True)
    (change / "run" / "new.txt").write_text("n\n", encoding="utf-8")
    result = artifact_diff.compare(parent, change)
    assert result == {"identical": ["run/same.txt"],
                      "differing": ["run/changed.txt"],
                      "only-parent": ["run/out/snapshots"],
                      "only-change": ["run/new.txt"]}
    assert artifact_diff.expected("run/out/snapshots", ["*/out"])
    assert not artifact_diff.expected("run/new.txt", ["*/out"])


def _write_grid(path, amplitudes):
    ny, nx = amplitudes.shape
    header = f"NEDIFF1 {nx} {ny} 0.5 0.5 0.0 0.0 0.0 51.0 100.0"
    path.write_bytes(header.encode("ascii") + b"\n"
                     + np.ascontiguousarray(amplitudes, dtype="<c16").tobytes())


def test_magnitude_of_differing_grids_and_tables(tmp_path):
    a = np.array([[1.0 + 0.0j, 0.0], [0.0, 1.0j]])
    b = a.copy()
    b[1, 1] += 3e-16
    _write_grid(tmp_path / "p.grid", a)
    _write_grid(tmp_path / "c.grid", b)
    assert artifact_diff.magnitude(tmp_path / "p.grid", tmp_path / "c.grid") == (
        f"rel L2 {3e-16 / math.sqrt(2.0):.3g}, max |d| 3e-16")
    _write_grid(tmp_path / "small.grid", a[:1])
    assert artifact_diff.magnitude(tmp_path / "p.grid", tmp_path / "small.grid") is None

    table = "# model: {}\norder,population,error\n0,0.5,\n1,0.25,x\n"
    (tmp_path / "p.csv").write_text(table.format("a"), encoding="utf-8")
    (tmp_path / "c.csv").write_text(table.format("b").replace("0.25,x", "0.5,y"),
                                    encoding="utf-8")
    (tmp_path / "same.csv").write_text(table.format("b"), encoding="utf-8")
    (tmp_path / "short.csv").write_text(table.format("a")[:-9], encoding="utf-8")
    assert artifact_diff.magnitude(tmp_path / "p.csv", tmp_path / "c.csv") == (
        "max |d| population 0.25")
    assert artifact_diff.magnitude(tmp_path / "p.csv", tmp_path / "same.csv") == (
        "numeric cells identical")
    assert artifact_diff.magnitude(tmp_path / "p.csv", tmp_path / "short.csv") is None


def test_repeated_expect_flags_add_up(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(artifact_diff, "diff", lambda *args: seen.append(args) or 0)
    argv = ["p", "c", "--work", str(tmp_path / "w"),
            "--expect", "a", "--expect", "b", "c"]
    assert artifact_diff.main(argv) == 0
    assert seen[0][-1] == ["a", "b", "c"]
