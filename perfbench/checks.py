"""Correctness checks on the artifacts the program writes.

The checks test physics, not bytes, so a change that only alters rounding
still passes.  Every checker returns a list of problems; an empty list means
the output is correct.  A problem is ``(op, message)`` where ``op`` is the
index of the failed operation inside the command (a sweep row) or ``None``
when the whole command failed.

Tolerances:

* NORM_TOL = 1e-9: norm drift of the split-step trace (acceptance criterion
  11) and norm kept by the unimodular analytic mask.  Rounding over a
  31-step slice moves the norm by about 1e-14.
* REFERENCE_TOL = 1e-9: numeric-slice sideband populations and final mean
  momenta (1/nm) against the stored reference.  Rounding changes move them
  by about 1e-13; a wrong step count, sign or potential moves them by more
  than 1e-4.
* MASS_SLACK = 1e-12: sideband populations may sum to at most 1 + slack.
* Sweep sideband spacing: within one momentum cell 2 pi / (nx dx) of
  omega / v0 (acceptance criterion 2); depletion minimum in [500, 800] eV
  (criterion 8).
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from workloads import C0, ELECTRON_MASS

NORM_TOL = 1e-9
REFERENCE_TOL = 1e-9
MASS_SLACK = 1e-12
DEPLETION_WINDOW_EV = (500.0, 800.0)
# The fig2 preset's laser and grid, which every sweep point runs on.
SWEEP_WAVELENGTH_NM = 2000.0
SWEEP_NX = 8192
SWEEP_DX_NM = 0.5
REFERENCE_ORDERS = range(-3, 4)


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _populations(path: Path) -> dict[int, float]:
    return {int(r["order"]): float(r["population"]) for r in _rows(path)}


def numeric_observables(outdir: Path) -> dict:
    """Populations of orders -3..3 and the final mean momenta of a slice."""
    pops = _populations(outdir / "populations_numeric.csv")
    last = _rows(outdir / "trace.csv")[-1]
    return {"populations": {str(n): pops[n] for n in REFERENCE_ORDERS},
            "kx_mean_per_nm": float(last["kx_mean_per_nm"]),
            "ky_mean_per_nm": float(last["ky_mean_per_nm"])}


def reference_key(field: float, phase: float) -> str:
    return f"field={field:.2f},phase={phase:.4f}"


def check_numeric_slice(outdir: Path, steps: int, reference: dict | None) -> list:
    """Norm drift, step count, total mass and (when given) reference values."""
    problems = []
    trace = _rows(outdir / "trace.csv")
    norms = [float(r["norm"]) for r in trace]
    drift = max(abs(n - 1.0) for n in norms)
    if not drift <= NORM_TOL:
        problems.append((None, f"trace norm drift {drift:.3g} > {NORM_TOL:g}"))
    t = [float(r["t_fs"]) for r in trace]
    # The last two rows are the final step's midpoint and the window end.
    dt = 2.0 * (t[-1] - t[-2])
    taken = round((t[-1] - t[0]) / dt) if dt > 0.0 else 0
    if taken != steps:
        problems.append((None, f"trace implies {taken} steps, expected {steps}"))
    pops = _populations(outdir / "populations_numeric.csv")
    if not sum(pops.values()) <= 1.0 + MASS_SLACK:
        problems.append((None, f"populations sum to {sum(pops.values())!r} > 1"))
    if reference is not None:
        got = numeric_observables(outdir)
        for n, want in reference["populations"].items():
            have = got["populations"][n]
            if not abs(have - want) <= REFERENCE_TOL:
                problems.append((None, f"P_{n} = {have!r}, reference {want!r}"))
        for key in ("kx_mean_per_nm", "ky_mean_per_nm"):
            if not abs(got[key] - reference[key]) <= REFERENCE_TOL:
                problems.append(
                    (None, f"{key} = {got[key]!r}, reference {reference[key]!r}"))
    return problems


def check_energy_sweep(outdir: Path, energies) -> list:
    """No failed rows, sideband spacing omega/v0, depletion minimum window."""
    rows = _rows(outdir / "sweep.csv")
    if len(rows) != len(energies):
        return [(None, f"sweep wrote {len(rows)} rows for {len(energies)} energies")]
    problems = []
    omega = 2.0 * math.pi * C0 / SWEEP_WAVELENGTH_NM
    dkx = 2.0 * math.pi / (SWEEP_NX * SWEEP_DX_NM)
    for i, (row, energy) in enumerate(zip(rows, energies)):
        if row["error"]:
            problems.append((i, f"{energy:g} eV failed: {row['error']}"))
            continue
        if not math.isclose(float(row["energy_ev"]), energy, rel_tol=1e-12):
            problems.append((i, f"row {i} is {row['energy_ev']} eV, expected {energy!r}"))
            continue
        expected = omega / math.sqrt(2.0 * energy / ELECTRON_MASS)
        err = abs(float(row["delta_kx_per_nm"]) - expected)
        if not err <= dkx:
            problems.append((i, f"{energy:g} eV: delta_kx off omega/v0 by {err:.3g}/nm"))
    depletion = [float(r["depletion"]) for r in rows]
    valid = [(d, e) for d, e in zip(depletion, energies) if not math.isnan(d)]
    lo, hi = DEPLETION_WINDOW_EV
    if not valid:
        problems.append((None, "no sweep point produced a depletion"))
    else:
        at = min(valid)[1]
        if not lo <= at <= hi:
            problems.append((None, f"depletion minimum at {at:g} eV, outside [{lo:g}, {hi:g}]"))
    return problems


def _grid_header(path: Path) -> tuple[list[str], int]:
    with open(path, "rb") as fh:
        header = fh.readline()
    return header.decode("ascii").split(), len(header)


def grid_norm(path: Path) -> float:
    """L2 norm of a NEDIFF1 grid dump, sqrt(sum |psi|^2 dx dy)."""
    header, offset = _grid_header(path)
    dx, dy = float(header[3]), float(header[4])
    data = np.fromfile(path, dtype="<f8", offset=offset)
    return math.sqrt(float(np.dot(data, data)) * dx * dy)


def check_scenario_bundle(outdir: Path) -> list:
    """Unimodular mask keeps the norm, masses sum to <= 1, PGM matches grid."""
    problems = []
    header, _ = _grid_header(outdir / "initial.grid")
    nx, ny = int(header[1]), int(header[2])
    n0 = grid_norm(outdir / "initial.grid")
    na = grid_norm(outdir / "analytic.grid")
    if not abs(n0 - 1.0) <= NORM_TOL:
        problems.append((None, f"initial norm {n0!r} is not 1"))
    if not abs(na - n0) <= NORM_TOL:
        problems.append((None, f"analytic norm {na!r} differs from initial {n0!r}"))
    pops = _populations(outdir / "populations_analytic.csv")
    if not sum(pops.values()) <= 1.0 + MASS_SLACK:
        problems.append((None, f"populations sum to {sum(pops.values())!r} > 1"))
    pgm = outdir / "density_analytic.pgm"
    expected = f"P5\n{nx} {ny}\n65535\n".encode("ascii")
    with open(pgm, "rb") as fh:
        head = fh.read(len(expected))
    size = pgm.stat().st_size
    if head != expected or size != len(expected) + 2 * nx * ny:
        problems.append((None, f"PGM header {head!r} / {size} bytes does not match "
                               f"the {nx} x {ny} grid"))
    return problems
