"""Seeded inputs for the three benchmark workloads.

`make_plan(workload, seed, workdir)` writes the config files that the
program reads and returns the CLI commands of one iteration.  The same seed
always gives the same files.  Configs are written as text here, without
importing nediff, so the program sees nothing but its own input format.

Why these workloads:

* numeric-slice: a slice of the fig1 split-step run centred on t = 0.  The
  split-step loop (FFT pair, potential kick, elementwise multiplies) does
  almost all the work, so per-step changes show here and nowhere else.
* energy-sweep: the fig2 energy scan on the analytic engine.  Many short
  points run on the sweep thread pool; coupling quadrature, momentum
  density and the phase mask dominate and no split step runs.
* scenario-bundle: single analytic runs with the full artifact bundle:
  wire scenarios plus a transform-limited and a chirped gap scenario.  It
  covers grid dumps, heatmaps, gap calibration and free flight, which no
  other workload reaches.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

# CODATA 2018 values in nm / fs / eV, as in the program's unit system.
HBAR = 0.6582119569
C0 = 299.792458
ELECTRON_MASS = 510998.95 / (C0 * C0)

WORKLOADS = ("numeric-slice", "energy-sweep", "scenario-bundle")

#: Field amplitudes and laser phases the numeric slice draws from.  Every
#: pair has stored reference observables (reference_numeric.json), and every
#: field keeps the kinetic bound in charge of dt, so the step count is fixed.
SLICE_FIELDS = (0.10, 0.15, 0.20, 0.25, 0.30)
SLICE_PHASES = (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)
SLICE_STEPS = 31
SLICE_SAFETY = 0.9

SWEEP_POINTS = 42


@dataclass(frozen=True)
class Job:
    """One CLI command; `ops` operations can fail inside it."""

    kind: str
    argv: tuple[str, ...]
    out: Path
    ops: int
    params: dict


@dataclass(frozen=True)
class Plan:
    """The commands of one iteration; `work` counts steps, points or scenarios."""

    workload: str
    jobs: tuple[Job, ...]
    work: int
    work_unit: str


def kinetic_dt(dx: float, dy: float, safety: float) -> float:
    """The program's kinetic phase bound on dt (0.5 rad at the grid corner)."""
    kmax_sq = (math.pi / dx) ** 2 + (math.pi / dy) ** 2
    return safety * 0.5 * 2.0 * ELECTRON_MASS / (HBAR * kmax_sq)


def _ini(sections: dict[str, dict[str, object]]) -> str:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"
                  for key, value in keys.items()]
        lines.append("")
    return "\n".join(lines)


def _run_argv(config: Path, out: Path, threads: int, engine: str):
    return ("run", str(config), "--out", str(out), "--engine", engine,
            "--threads", str(threads))


#: Smoke-mode overrides: small grids that still resolve the sidebands.
_SMOKE_WIRE = {"grid": {"nx": 1024, "ny": 256},
               "electron": {"fwhm_x_nm": 20.0, "fwhm_y_nm": 10.0}}


def numeric_slice_config(field: float, phase: float, smoke: bool = False) -> str:
    """The fig1 preset cut to a window of SLICE_STEPS steps around t = 0."""
    steps = 5 if smoke else SLICE_STEPS
    # A window of (steps - 1/2) kinetic steps makes the program pick exactly
    # `steps` steps of the fig1 dt (dx = dy = 0.25 nm).
    window = (steps - 0.5) * kinetic_dt(0.25, 0.25, SLICE_SAFETY)
    return _ini({
        "scenario": {"preset": "fig1", "engine": "numeric",
                     "outputs": "populations,trace,summary"},
        "laser": {"field_v_per_nm": field, "phase_rad": phase},
        "numeric": {"window_fs": window, "safety": SLICE_SAFETY},
        **(_SMOKE_WIRE if smoke else {}),
    })


def sweep_energies(rng: random.Random, n: int, lo: float, hi: float,
                   jitter: float) -> list[float]:
    """Geometric grid from lo to hi with interior points moved by up to
    `jitter` of a log step; stays strictly increasing for jitter < 0.5."""
    step = math.log(hi / lo) / (n - 1)
    out = [lo]
    for i in range(1, n - 1):
        out.append(lo * math.exp(step * (i + rng.uniform(-jitter, jitter))))
    out.append(hi)
    return out


def energy_sweep_config(energies) -> str:
    """The fig2 preset sweep at the given energies."""
    return _ini({"sweep": {"preset": "fig2",
                           "values": ",".join(repr(float(e)) for e in energies)}})


def wire_config(radius: float, field: float, phase: float, smoke: bool = False) -> str:
    """The fig1 preset on the analytic engine with another wire and drive."""
    return _ini({
        "scenario": {"preset": "fig1", "engine": "analytic"},
        "laser": {"field_v_per_nm": field, "phase_rad": phase},
        "model": {"radius_nm": radius},
        **(_SMOKE_WIRE if smoke else {}),
    })


def gap_config(chirped: bool, peak_field: float, phase: float,
               smoke: bool = False) -> str:
    """The fig4 nanogap preset (transform-limited or chirped) with another
    calibrated gap field; the nominal incident field stays peak / 20."""
    sections = {
        "scenario": {"preset": "fig4-chirped" if chirped else "fig4-limited",
                     "engine": "analytic"},
        "laser": {"field_v_per_nm": peak_field / 20.0, "phase_rad": phase},
        "model": {"peak_field_v_per_nm": peak_field},
    }
    if smoke:
        sections["grid"] = {"ny": 128}
    return _ini(sections)


def make_plan(workload: str, seed: int, workdir: Path, threads: int,
              smoke: bool = False) -> Plan:
    """Write the seeded configs under workdir and return one iteration's jobs."""
    rng = random.Random(f"{workload}:{seed}")
    cfg_dir = workdir / "configs"
    out_dir = workdir / "out"
    cfg_dir.mkdir(parents=True, exist_ok=True)

    if workload == "numeric-slice":
        field = rng.choice(SLICE_FIELDS)
        phase = rng.choice(SLICE_PHASES)
        path = cfg_dir / "slice.ini"
        path.write_text(numeric_slice_config(field, phase, smoke), encoding="utf-8")
        steps = 5 if smoke else SLICE_STEPS
        job = Job("numeric", _run_argv(path, out_dir / "slice", threads, "numeric"),
                  out_dir / "slice", 1,
                  {"field": field, "phase": phase, "steps": steps})
        return Plan(workload, (job,), steps, "steps")

    if workload == "energy-sweep":
        if smoke:
            energies = sweep_energies(rng, 8, 300.0, 1500.0, 0.1)
        else:
            energies = sweep_energies(rng, SWEEP_POINTS, 50.0, 10000.0, 0.4)
        path = cfg_dir / "sweep.ini"
        path.write_text(energy_sweep_config(energies), encoding="utf-8")
        out = out_dir / "sweep"
        job = Job("sweep", ("sweep", str(path), "--out", str(out), "--threads",
                            str(threads)),
                  out, len(energies), {"energies": energies})
        return Plan(workload, (job,), len(energies), "points")

    if workload == "scenario-bundle":
        texts = []
        for i in range(1 if smoke else 3):
            params = {"radius": rng.uniform(8.0, 12.0), "field": rng.uniform(0.1, 0.3),
                      "phase": rng.uniform(0.0, 2.0 * math.pi)}
            texts.append((f"wire{i}", wire_config(**params, smoke=smoke), params))
        for chirped in (False, True):
            params = {"chirped": chirped, "peak_field": rng.uniform(0.4, 0.6),
                      "phase": rng.uniform(0.0, 2.0 * math.pi)}
            name = "gap_chirped" if chirped else "gap_limited"
            texts.append((name, gap_config(**params, smoke=smoke), params))
        jobs = []
        for name, text, params in texts:
            path = cfg_dir / f"{name}.ini"
            path.write_text(text, encoding="utf-8")
            out = out_dir / name
            jobs.append(Job("scenario", _run_argv(path, out, threads, "analytic"),
                            out, 1, params))
        return Plan(workload, tuple(jobs), len(jobs), "scenarios")

    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
