"""tools/artifact_diff.py: the parent-against-change artifact comparison."""

import importlib.util
import sys
from pathlib import Path

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
