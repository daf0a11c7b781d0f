"""Run one fixed table of nediff commands in two source trees and compare
everything they leave behind, byte for byte.

    python tools/artifact_diff.py PARENT CHANGE --work DIR [--expect PATTERN ...]

PARENT and CHANGE are source trees, say a `git worktree` of the parent
commit and the working tree; each runs the nediff of its own `src/`.  Every
command of `TABLE` runs in both trees at each `--threads` value of
`THREADS`, in its own directory DIR/<side>/t<threads>/<name> and with
relative paths, so no path differs between the sides.  Beside the artifacts,
each command's stdout, stderr and exit code are saved as cmd<i>.stdout,
cmd<i>.stderr and cmd<i>.exit.

An entry is a file or an empty directory, named by its path under
DIR/<side>.  The report gives the identical, differing and one-side-only
counts and every entry that is not identical.  Under a differing grid dump
it gives the relative L2 distance and the largest |difference| of the
amplitudes; under a differing CSV pair with the same header and row count,
the largest |difference| of each numeric column that differs.  The exit
code is 0 when every such entry matches an `--expect` pattern (fnmatch,
against the entry or any of its parent directories), 1 otherwise.  DIR must
not exist yet.
"""

from __future__ import annotations

import argparse
import filecmp
import fnmatch
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (perfbench/workloads.py writes the smoke plans)

#: Seed of the benchmark workloads' smoke plans.
SMOKE_SEED = 7
#: Each command runs at these --threads values: results may not depend on them.
THREADS = (1, 2)

#: A 512x256 wire run on both engines, with trace, compare and a snapshot
#: every 7 steps.
SMALL_WIRE = """[scenario]
engine = both
outputs = grids,density,crosscuts,populations,profile,trace,compare,summary,snapshots

[electron]
energy_ev = 100.0
fwhm_x_nm = 40.0
fwhm_y_nm = 16.0

[laser]
wavelength_nm = 2000.0
field_v_per_nm = 0.2

[model]
type = wire
radius_nm = 10.0

[grid]
nx = 512
ny = 256
dx_nm = 0.5
dy_nm = 0.5

[numeric]
window_fs = 20.0
snapshot_stride = 7
"""

#: The same wire 150 nm along x, on the analytic engine alone: the coupling
#: turns by delta_k * center_x.
WIRE_OFF_CENTRE = (SMALL_WIRE.split("[numeric]")[0]
                   .replace("engine = both", "engine = analytic")
                   .replace(",trace,compare,summary,snapshots", ",summary")
                   .replace("radius_nm = 10.0\n", "radius_nm = 10.0\ncenter_x_nm = 150.0\n"))

#: The same 512x256 run on both engines after 200 fs of free flight in x and y.
SMALL_WIRE_FLOWN = SMALL_WIRE.replace(
    "fwhm_y_nm = 16.0\n",
    "fwhm_y_nm = 16.0\nprepropagation_fs = 200.0\nprepropagation_axes = xy\n")

#: The fig4-limited gap 37 nm along x at laser phase 0.9, on the analytic
#: engine: the coupling turns by delta_k * center_x + phase.
GAP_OFF_CENTRE = """[scenario]
preset = fig4-limited
engine = analytic
outputs = grids,density,crosscuts,populations,profile,summary

[laser]
phase_rad = 0.9

[model]
center_x_nm = 37.0
"""

#: A strong numeric run that leaves the grid at t = 12.1 fs (exit 2).
FAILING_NUMERIC = """[scenario]
engine = numeric
outputs = trace,snapshots,summary

[electron]
energy_ev = 100.0
fwhm_x_nm = 20.0
fwhm_y_nm = 4.0

[laser]
wavelength_nm = 2000.0
field_v_per_nm = 1.0

[model]
type = wire
radius_nm = 5.0

[grid]
nx = 1024
ny = 64
dx_nm = 0.5
dy_nm = 0.5

[numeric]
window_fs = 80.0
"""

#: The same run started 8 nm off axis: it fails the border check at the
#: first record (t = -40 fs), before any snapshot.
BORDER_NUMERIC = FAILING_NUMERIC.replace("fwhm_y_nm = 4.0\n",
                                         "fwhm_y_nm = 4.0\ncenter_y_nm = 8.0\n")


@dataclass(frozen=True)
class Command:
    """One table entry: config files and the CLI argvs that read them, or a
    benchmark workload whose smoke plan writes both."""

    name: str
    files: dict[str, str] = field(default_factory=dict)
    argvs: tuple[tuple[str, ...], ...] = ()
    workload: str | None = None

    def prepare(self, where: Path, threads: int) -> list[tuple[str, ...]]:
        """Write the inputs under `where`; return the argvs, relative to it."""
        where.mkdir(parents=True)
        for name, text in self.files.items():
            (where / name).write_text(text, encoding="utf-8")
        if self.workload is None:
            return [(*argv, "--threads", str(threads)) for argv in self.argvs]
        plan = workloads.make_plan(self.workload, SMOKE_SEED, where, threads, smoke=True)
        return [tuple(os.path.relpath(a, where) if a.startswith(str(where)) else a
                      for a in job.argv) for job in plan.jobs]


def _run(name: str, config_text: str) -> Command:
    return Command(name, {"run.cfg": config_text}, (("run", "run.cfg", "--out", "out"),))


def _sweep(name: str, values: str, preset: str = "fig2", overlay: str = "") -> Command:
    text = f"[sweep]\npreset = {preset}\nvalues = {values}\n{overlay}"
    return Command(name, {"sweep.cfg": text}, (("sweep", "sweep.cfg", "--out", "out"),))


#: The fixed command table; names are directory names.
TABLE = (
    *(Command(f"smoke-{w}", workload=w) for w in workloads.WORKLOADS),
    *(Command(f"preset-{name}", argvs=(("preset", name, "--out", "out"),))
      for name in ("fig2", "fig4-limited", "fig4-chirped")),
    _run("both-512x256", SMALL_WIRE),
    _run("both-512x256-prepropagated", SMALL_WIRE_FLOWN),
    _run("wire-off-centre", WIRE_OFF_CENTRE),
    _run("gap-off-centre", GAP_OFF_CENTRE),
    _sweep("sweep-fig2-one-error", "1000,60000"),
    _sweep("sweep-fig2-all-failing", "40000,60000"),
    # Points that build their own initial packet: a width that follows the
    # radius, and a packet after a free flight.
    _sweep("sweep-fig3-two-radii", "8,12", preset="fig3"),
    _sweep("sweep-fig2-prepropagated", "100,400",
           overlay="\n[electron]\nprepropagation_fs = 100.0\n"),
    # Photon orders turned by theta = phase + delta_k * center_x, and the
    # gap's erfc/erfcx coupling, on the sweep path.
    _sweep("sweep-fig2-phase-off-centre", "100,577",
           overlay="\n[laser]\nphase_rad = 0.7\n\n[model]\ncenter_x_nm = 150.0\n"),
    # fig2's lowest and highest photon-order limits, N = 19 at 10 keV and 27
    # at 577 eV, and N = 23 at 50 eV.
    _sweep("sweep-fig2-order-range", "50,577,10000"),
    # The split step on the sweep pool's threads, at one FFT worker each.
    Command("sweep-numeric-two-radii",
            {"sweep.cfg": SMALL_WIRE.replace("engine = both\n", "")
                          + "\n[sweep]\nengine = numeric\naxis = radius_nm\nvalues = 8,12\n"},
            (("sweep", "sweep.cfg", "--out", "out"),)),
    Command("sweep-gap-two-energies",
            {"sweep.cfg": "[scenario]\npreset = fig4-limited\n\n"
                          "[sweep]\naxis = energy_ev\nvalues = 100,150\n"},
            (("sweep", "sweep.cfg", "--out", "out"),)),
    _run("numeric-fails-mid-run", FAILING_NUMERIC),
    _run("numeric-fails-at-first-record", BORDER_NUMERIC),
)


def run_side(tree: Path, root: Path, threads: list[int], commands) -> None:
    """Run every command with the nediff of tree/src; outputs go under root."""
    env = {k: v for k, v in os.environ.items() if k != "NEDIFF_OUT"}
    env["PYTHONPATH"] = str(tree.resolve() / "src")
    for n in threads:
        for command in commands:
            where = root / f"t{n}" / command.name
            for i, argv in enumerate(command.prepare(where, n)):
                proc = subprocess.run([sys.executable, "-m", "nediff.cli", *argv],
                                      cwd=where, env=env, capture_output=True)
                (where / f"cmd{i}.stdout").write_bytes(proc.stdout)
                (where / f"cmd{i}.stderr").write_bytes(proc.stderr)
                (where / f"cmd{i}.exit").write_text(f"{proc.returncode}\n",
                                                    encoding="utf-8")


def entries(root: Path) -> set[str]:
    """Every file and every empty directory under root, as a relative path."""
    found = set()
    for dirpath, dirnames, filenames in os.walk(root):
        rel = Path(dirpath).relative_to(root)
        if not dirnames and not filenames and rel != Path("."):
            found.add(rel.as_posix())
        found.update((rel / name).as_posix() for name in filenames)
    return found


def compare(parent: Path, change: Path) -> dict[str, list[str]]:
    """Entries by outcome: identical, differing, only-parent, only-change."""
    a, b = entries(parent), entries(change)

    def same(rel: str) -> bool:
        left, right = parent / rel, change / rel
        if left.is_dir() or right.is_dir():
            return left.is_dir() and right.is_dir()
        return filecmp.cmp(left, right, shallow=False)

    result = {"identical": [], "differing": [],
              "only-parent": sorted(a - b), "only-change": sorted(b - a)}
    for rel in sorted(a & b):
        result["identical" if same(rel) else "differing"].append(rel)
    return result


def _grid_amplitudes(path: Path) -> np.ndarray:
    """The amplitudes of a NEDIFF1 grid dump: a header line `NEDIFF1 nx ny
    ...`, then little-endian complex128 values, row-major over y then x."""
    with open(path, "rb") as fh:
        header = fh.readline().split()
        payload = fh.read()
    return np.frombuffer(payload, dtype="<c16").reshape(int(header[2]), int(header[1]))


def _csv_table(path: Path) -> tuple[str, list[list[str]]]:
    """Header line and cell rows of a CSV artifact, `# ` comments dropped."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if not ln.startswith("#")]
    return lines[0], [ln.split(",") for ln in lines[1:]]


def _float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def magnitude(left: Path, right: Path) -> str | None:
    """How far two differing grid dumps or CSV tables are apart, or None
    when they cannot be compared value by value."""
    if left.suffix == ".grid":
        a, b = _grid_amplitudes(left), _grid_amplitudes(right)
        if a.shape != b.shape:
            return None
        d = np.abs(a - b)
        return (f"rel L2 {np.linalg.norm(d) / np.linalg.norm(a):.3g}, "
                f"max |d| {d.max():.3g}")
    if left.suffix != ".csv":
        return None
    (head_a, rows_a), (head_b, rows_b) = _csv_table(left), _csv_table(right)
    if head_a != head_b or len(rows_a) != len(rows_b):
        return None
    names = head_a.split(",")
    worst = {}
    for row_a, row_b in zip(rows_a, rows_b):
        for name, x, y in zip(names, row_a, row_b):
            fx, fy = _float(x), _float(y)
            if x != y and fx is not None and fy is not None:
                worst[name] = max(worst.get(name, 0.0), abs(fx - fy))
    if not worst:
        return "numeric cells identical"
    return "max |d| " + ", ".join(f"{n} {worst[n]:.3g}" for n in names if n in worst)


def expected(path: str, patterns) -> bool:
    """Whether a pattern matches the path or one of its parent directories."""
    parts = path.split("/")
    prefixes = ["/".join(parts[:i]) for i in range(1, len(parts) + 1)]
    return any(fnmatch.fnmatchcase(p, pat) for p in prefixes for pat in patterns)


def diff(parent: Path, change: Path, work: Path, threads, commands, expect) -> int:
    """Run the commands in both trees, print the report and return the exit
    code: 1 if an entry that is not identical matches no `expect` pattern."""
    work.mkdir(parents=True)
    for side, tree in (("parent", parent), ("change", change)):
        run_side(tree, work / side, threads, commands)
    result = compare(work / "parent", work / "change")
    for outcome, paths in result.items():
        print(f"{outcome}: {len(paths)}")
    unexpected = 0
    for outcome in ("differing", "only-parent", "only-change"):
        for path in result[outcome]:
            ok = expected(path, expect)
            unexpected += not ok
            print(f"{outcome} {path}" + (" (expected)" if ok else ""))
            if outcome == "differing":
                size = magnitude(work / "parent" / path, work / "change" / path)
                if size is not None:
                    print(f"  {size}")
    print(f"unexpected: {unexpected}")
    return 1 if unexpected else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--work", type=Path, required=True,
                        help="new directory for the outputs of both sides")
    parser.add_argument("--expect", nargs="+", action="extend", default=[],
                        metavar="PATTERN",
                        help="entries allowed to differ, as fnmatch patterns; "
                             "repeated flags add up")
    args = parser.parse_args(argv)
    if args.work.exists():
        parser.error(f"{args.work} exists; the outputs need a new directory")
    return diff(args.parent, args.change, args.work, THREADS, TABLE, args.expect)


if __name__ == "__main__":
    sys.exit(main())
