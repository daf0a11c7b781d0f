"""Regenerate reference_numeric.json, the numeric-slice reference values.

    python3 perfbench/make_reference.py

Runs the numeric-slice config for every (field, phase) pair the workload
can draw and stores its sideband populations and final mean momenta.  Run
it only when the numeric engine's physics changes on purpose; about three
minutes on two cores.
"""

import json
import shutil
import sys

import checks
import run
import workloads


def main() -> int:
    workdir = run.WORK / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    cases, commands = [], []
    for field in workloads.SLICE_FIELDS:
        for phase in workloads.SLICE_PHASES:
            key = checks.reference_key(field, phase)
            cfg = workdir / f"{key}.ini"
            cfg.write_text(workloads.numeric_slice_config(field, phase),
                           encoding="utf-8")
            out = workdir / key
            cases.append((key, out))
            commands.append(["run", str(cfg), "--out", str(out)])
    try:
        res = run.launch(commands, False, workdir, "reference", timeout=1800.0)
        reference = _collect(cases, res)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if reference is None:
        return 1
    path = run.REFERENCE
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {len(reference)} references to {path}")
    return 0


def _collect(cases, res):
    reference = {}
    for (key, out), cmd in zip(cases, res["commands"]):
        problems = checks.check_numeric_slice(out, workloads.SLICE_STEPS, None)
        if cmd["rc"] != 0 or problems:
            print(f"{key}: exit {cmd['rc']}, {problems}", file=sys.stderr)
            return None
        reference[key] = checks.numeric_observables(out)
    return reference


if __name__ == "__main__":
    sys.exit(main())
