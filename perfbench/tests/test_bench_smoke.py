"""Smoke runs of every workload and the benchmark's contract with
BENCHMARK.json.  Each run uses tiny inputs and takes a few seconds."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(root: Path, *args):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=root, timeout=170, check=False)
    return proc.returncode, proc.stdout


def test_metric_tables_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == tracing.LAYER_METRICS


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    rc, out = bench(run.ROOT, "--workload", workload, "--seed", "3",
                    "--seconds", "1", "--trace", trace, "--smoke")
    result = json.loads(out.strip().splitlines()[-1])
    assert rc == 0, out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in table}


def test_same_seed_same_inputs(tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.make_plan(workload, 7, tmp_path / "a", 2)
        b = workloads.make_plan(workload, 7, tmp_path / "b", 2)
        c = workloads.make_plan(workload, 8, tmp_path / "c", 2)
        for ja, jb, jc in zip(a.jobs, b.jobs, c.jobs):
            text = Path(ja.argv[1]).read_text()
            assert text == Path(jb.argv[1]).read_text()
            assert workload == "numeric-slice" or text != Path(jc.argv[1]).read_text()


def test_sweep_energies_stay_increasing_and_span_the_range():
    import random
    for seed in range(50):
        e = workloads.sweep_energies(random.Random(seed), 42, 50.0, 1e4, 0.4)
        assert e[0] == 50.0 and e[-1] == 1e4 and len(e) == 42
        assert all(b > a for a, b in zip(e, e[1:]))


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, out = bench(tmp_path, "--workload", "energy-sweep", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert rc != 0
    assert out == ""
