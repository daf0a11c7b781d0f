"""nediff benchmark: seeded inputs, timed CLI runs, checked outputs.

    python3 perfbench/run.py --workload numeric-slice --seed 1 --seconds 42 --trace 0

Load model: a closed loop with one client.  This process starts one program
process at a time (`child.py`, which imports `nediff.cli` and calls its
`main` for each CLI command of one iteration), waits for it, checks what it
wrote and starts the next, until the `--seconds` budget, which counts from
the start of the run with the set-up samples, is spent.  Every command gets
`--threads` equal to the number of usable cores.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates untraced
and traced iterations and prints the per-layer metrics; the traced ones wrap
the calls between nediff modules (see tracing.py).  `--smoke` runs each
workload's code path on tiny inputs in seconds.  The last stdout line is the
JSON result; the exit code is 0 only when every output passed its checks.
See README.md for the metric list.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference_numeric.json"

#: Set-up-only program processes per timed run, on top of the iterations.
SETUP_SAMPLES = 3
#: Every run must end within this many seconds, the first build included.
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


@dataclass
class Iteration:
    traced: bool
    cli_s: float | None = None
    setup_s: float | None = None
    peak_rss_mb: float | None = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    spans: list[tracing.Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    versions: dict[str, str] = field(default_factory=dict)


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def launch(commands, traced: bool, workdir: Path, tag: str, timeout: float) -> dict:
    """Run one program process; returns its result record.

    Raises RuntimeError when the process fails or writes no result.
    """
    spec_path = workdir / f"{tag}.spec.json"
    result_path = workdir / f"{tag}.result.json"
    log_path = workdir / f"{tag}.log"
    result_path.unlink(missing_ok=True)
    spec_path.write_text(json.dumps({"trace": traced, "commands": commands}),
                         encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), repr(start), str(ROOT),
                 str(spec_path), str(result_path)],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
                timeout=max(timeout, 1.0), check=False)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"program process exceeded {timeout:.0f} s") from None
    if proc.returncode != 0 or not result_path.exists():
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise RuntimeError(f"program process exited {proc.returncode}:\n{tail}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def check_job(job: workloads.Job, smoke: bool, references: dict) -> list:
    try:
        if job.kind == "numeric":
            ref = None
            if not smoke:
                key = checks.reference_key(job.params["field"], job.params["phase"])
                if key not in references:
                    return [(None, f"no stored reference for {key}")]
                ref = references[key]
            return checks.check_numeric_slice(job.out, job.params["steps"], ref)
        if job.kind == "sweep":
            return checks.check_energy_sweep(job.out, job.params["energies"])
        return checks.check_scenario_bundle(job.out)
    except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        return [(None, f"unreadable output in {job.out.name}: {exc!r}")]


def run_iteration(plan: workloads.Plan, traced: bool, workdir: Path, tag: str,
                  deadline: float, smoke: bool, references: dict) -> Iteration:
    it = Iteration(traced=traced, attempted=sum(j.ops for j in plan.jobs))
    for job in plan.jobs:
        shutil.rmtree(job.out, ignore_errors=True)
    try:
        res = launch([list(j.argv) for j in plan.jobs], traced, workdir, tag,
                     deadline - time.monotonic())
    except RuntimeError as exc:
        it.failed = it.attempted
        it.problems.append(str(exc))
        return it
    it.cli_s = sum(c["seconds"] for c in res["commands"])
    it.setup_s = res["setup_s"]
    it.peak_rss_mb = res["peak_rss_mb"]
    it.versions = res["versions"]
    if traced:
        it.spans = [tracing.Span(*s) for s in res["spans"]]
        it.counts = res["counts"]
    for job, cmd in zip(plan.jobs, res["commands"]):
        if cmd["rc"] != 0:
            it.failed += job.ops
            it.problems.append(f"{' '.join(job.argv[:2])} exited {cmd['rc']}")
            continue
        problems = check_job(job, smoke, references)
        if any(op is None for op, _ in problems):
            it.failed += job.ops
        else:
            it.failed += len({op for op, _ in problems})
        it.problems.extend(msg for _, msg in problems)
        shutil.rmtree(job.out, ignore_errors=True)
    return it


def tail_latency(samples: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it (max if fewer)."""
    ordered = sorted(samples)
    return ordered[max(len(ordered) - 11, 0)] if len(ordered) > 10 else ordered[-1]


def per_layer(iters: list[Iteration]) -> tuple[dict[str, float], list[str]]:
    traced = [it for it in iters if it.traced and it.cli_s is not None]
    plain = [it for it in iters if not it.traced and it.cli_s is not None]
    rows = [tracing.layer_metrics(it.spans, it.counts) for it in traced]
    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    points = [s.duration for it in traced for s in it.spans
              if s.name == "scenario.run_sweep_point"]
    metrics["scenario.run_sweep_point.p50_s"] = statistics.median(points) if points else 0.0
    metrics["scenario.run_sweep_point.tail_s"] = tail_latency(points) if points else 0.0
    metrics["trace.overhead_s"] = (statistics.median(it.cli_s for it in traced)
                                   - statistics.median(it.cli_s for it in plain))
    notes = [f"traced iterations: {len(traced)}, untraced: {len(plain)}"]
    if points:
        pct = 100.0 * (1.0 - 10.0 / len(points)) if len(points) > 10 else 100.0
        notes.append(f"sweep point latency: {len(points)} samples, tail = "
                     f"p{pct:.0f}")
    span, own, fft, pot = tracing.evolve_accounting(traced[0].spans)
    if span:
        notes.append(f"split_step_evolve {span:.4f} s = numeric self {own:.4f} + "
                     f"fft {fft:.4f} + nearfield.potential {pot:.4f} "
                     f"(accounted {(own + fft + pot) / span:.6f})")
    return {k: metrics[k] for k in tracing.LAYER_METRICS}, notes


def end_to_end(plan: workloads.Plan, iters: list[Iteration],
               setups: list[float]) -> tuple[dict[str, float], list[str]]:
    done = [it for it in iters if it.cli_s is not None]
    metrics = {
        "setup_s": statistics.median(setups + [it.setup_s for it in done]),
        "wall_s": statistics.median(it.cli_s for it in done),
        "ops_per_s": statistics.median(plan.work / it.cli_s for it in done),
        "peak_rss_mb": statistics.median(it.peak_rss_mb for it in done),
    }
    notes = [f"iterations: {len(done)}, set-up samples: {len(setups) + len(done)}",
             "iteration wall_s: " + " ".join(f"{it.cli_s:.3f}" for it in done),
             f"ops_per_s counts {plan.work_unit} ({plan.work} per iteration): "
             f"{plan.work_unit}_per_s = {metrics['ops_per_s']:.6g}"]
    return metrics, notes


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_info() -> dict:
    cpu = "unknown"
    for line in _read_text(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read_text(index / "level"), _read_text(index / "type")
        if kind != "Instruction":
            caches[f"L{level}"] = _read_text(index / "size")
    return {"nproc": usable_cores(), "cpu": cpu, "caches": caches,
            "commit": git_commit()}


def _size_bytes(text: str) -> int:
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    digits = text.rstrip("KMG")
    return int(digits) * scale if digits.isdigit() else 0


def run_notes(caches: dict[str, str]) -> list[str]:
    state = 2048 * 1024 * 16
    llc = max(caches, default="L?")
    size = caches.get(llc, "unknown")
    fits = "fits in" if state <= _size_bytes(size) else "does not fit in"
    return [
        f"The 2048 x 1024 complex128 state is {state >> 20} MiB, which {fits} the "
        f"{size} {llc} cache; any bytes-moved figure is computed from array "
        "sizes, not measured.",
        "Not measurable here: no hardware counters; the machine is shared with "
        "other tenants; pyfftw and numba are not installed.",
        "fft.gflop_per_s counts 5 N log2 N flop per transform of N points.",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs that run each code path in seconds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nediff" / "cli.py").is_file():
        print(f"error: no nediff sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + DEADLINE_S
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        plan = workloads.make_plan(args.workload, args.seed, workdir,
                                   usable_cores(), smoke=args.smoke)
        references = json.loads(REFERENCE.read_text(encoding="utf-8"))
        setups: list[float] = []
        if not args.trace:
            for i in range(SETUP_SAMPLES):
                try:
                    setups.append(launch([], False, workdir, f"setup{i}",
                                         deadline - time.monotonic())["setup_s"])
                except RuntimeError as exc:
                    print(f"set-up process failed: {exc}", file=sys.stderr)
        iters: list[Iteration] = []
        first_iter = time.monotonic()

        def want_more() -> bool:
            """Start another iteration while the mean one still fits in the
            budget, which counts from the start of the run (set-up included)."""
            if args.trace and not ({True, False} <= {it.traced for it in iters}):
                return True
            if not iters:
                return True
            now = time.monotonic()
            per_iter = (now - first_iter) / len(iters)
            return (now - start + per_iter <= args.seconds
                    and now + per_iter <= deadline)

        while want_more():
            traced = bool(args.trace) and len(iters) % 2 == 1
            iters.append(run_iteration(plan, traced, workdir, f"iter{len(iters)}",
                                       deadline, args.smoke, references))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(it.attempted for it in iters)
    failed = sum(it.failed for it in iters)
    problems = [p for it in iters for p in it.problems]
    measured = [it for it in iters if it.cli_s is not None]
    versions = measured[0].versions if measured else {}
    machine = machine_info()
    meta = dict(workload=args.workload, seed=args.seed, threads=usable_cores(),
                seconds=args.seconds, trace=args.trace, smoke=args.smoke,
                **machine, versions=versions, notes=run_notes(machine["caches"]))
    print("meta: " + json.dumps(meta))
    for p in problems:
        print(f"FAILED: {p}")
    print(f"failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} "
          f"operations failed)")

    metrics, units = {}, {}
    if args.trace and any(it.traced for it in measured) and any(
            not it.traced for it in measured):
        metrics, notes = per_layer(iters)
        units = tracing.LAYER_METRICS
    elif not args.trace and measured:
        metrics, notes = end_to_end(plan, iters, setups)
        units = END_TO_END
    else:
        notes = ["no iteration produced timings"]
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
