"""Each checker accepts a correct output and rejects a corrupted one."""

import math

import numpy as np
import pytest

import checks
from workloads import ELECTRON_MASS

STEPS = 31
DT = 0.02


def write_slice(d, drift=0.0, steps=STEPS, p1=0.01):
    t0 = -0.5 * steps * DT
    times = [t0, t0 + (steps - 0.5) * DT, t0 + steps * DT]
    norms = [1.0, 1.0 + drift, 1.0 + drift]
    lines = ["t_fs,norm,x_mean_nm,kx_mean_per_nm,ky_mean_per_nm,energy_mean_ev"]
    lines += [f"{t!r},{n!r},0.0,51.2,0.05,100.0" for t, n in zip(times, norms)]
    (d / "trace.csv").write_text("\n".join(lines) + "\n")
    pops = {n: 0.0 for n in range(-5, 6)}
    pops.update({-1: p1, 0: 0.97, 1: p1})
    (d / "populations_numeric.csv").write_text(
        "order,population,ky_spread_per_nm\n"
        + "".join(f"{n},{p!r},0.1\n" for n, p in pops.items()))


def test_numeric_slice(tmp_path):
    write_slice(tmp_path)
    reference = checks.numeric_observables(tmp_path)
    assert checks.check_numeric_slice(tmp_path, STEPS, reference) == []

    write_slice(tmp_path, drift=1e-6)
    assert any("drift" in m for _, m in
               checks.check_numeric_slice(tmp_path, STEPS, reference))

    write_slice(tmp_path, steps=STEPS + 1)
    assert any("steps" in m for _, m in
               checks.check_numeric_slice(tmp_path, STEPS, None))

    write_slice(tmp_path, p1=0.0100001)
    assert any("P_1" in m for _, m in
               checks.check_numeric_slice(tmp_path, STEPS, reference))

    write_slice(tmp_path, p1=0.1)
    assert any("sum" in m for _, m in
               checks.check_numeric_slice(tmp_path, STEPS, None))


def write_sweep(d, energies, error_at=None, dkx_off_at=None, min_at=650.0):
    omega = 2.0 * math.pi * checks.C0 / checks.SWEEP_WAVELENGTH_NM
    header = ("energy_ev,depletion,alpha_max_deg,delta_kx_per_nm,"
              "delta_ky_per_nm,depletion_min_flag,error")
    lines = [header]
    for i, e in enumerate(energies):
        dkx = omega / math.sqrt(2.0 * e / ELECTRON_MASS)
        if i == dkx_off_at:
            dkx += 0.01
        dep = 1.0 + abs(math.log(e / min_at))
        err = "NumericalError: boom" if i == error_at else ""
        lines.append(f"{e!r},{dep!r},1.0,{dkx!r},0.1,0,{err}")
    (d / "sweep.csv").write_text("\n".join(lines) + "\n")


ENERGIES = [50.0, 200.0, 450.0, 650.0, 900.0, 5000.0, 10000.0]


def test_energy_sweep(tmp_path):
    write_sweep(tmp_path, ENERGIES)
    assert checks.check_energy_sweep(tmp_path, ENERGIES) == []

    write_sweep(tmp_path, ENERGIES, error_at=2)
    assert [op for op, _ in checks.check_energy_sweep(tmp_path, ENERGIES)] == [2]

    write_sweep(tmp_path, ENERGIES, dkx_off_at=5)
    assert [op for op, _ in checks.check_energy_sweep(tmp_path, ENERGIES)] == [5]

    write_sweep(tmp_path, ENERGIES, min_at=200.0)
    assert [op for op, _ in checks.check_energy_sweep(tmp_path, ENERGIES)] == [None]

    assert checks.check_energy_sweep(tmp_path, ENERGIES[:-1])[0][0] is None


def write_grid(path, amps, dx=0.5, dy=0.5):
    ny, nx = amps.shape
    header = f"NEDIFF1 {nx} {ny} {dx!r} {dy!r} 0.0 0.0 0.0 51.2 100.0\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(amps, dtype="<c16").tobytes())


def write_bundle(d, nx=16, ny=8, phase_scale=1.0, pgm_shape=None, p0=0.9):
    rng = np.random.default_rng(0)
    amps = rng.normal(size=(ny, nx)) + 1j * rng.normal(size=(ny, nx))
    amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)) * 0.25)
    write_grid(d / "initial.grid", amps)
    mask = np.exp(1j * rng.normal(size=(ny, nx)))
    write_grid(d / "analytic.grid", amps * mask * phase_scale)
    (d / "populations_analytic.csv").write_text(
        f"order,population,ky_spread_per_nm\n-1,0.04,0.1\n0,{p0!r},0.1\n1,0.04,0.1\n")
    w, h = pgm_shape or (nx, ny)
    (d / "density_analytic.pgm").write_bytes(
        f"P5\n{w} {h}\n65535\n".encode("ascii") + bytes(2 * w * h))


def test_scenario_bundle(tmp_path):
    write_bundle(tmp_path)
    assert checks.check_scenario_bundle(tmp_path) == []

    write_bundle(tmp_path, phase_scale=1.0 + 1e-6)
    assert any("analytic norm" in m for _, m in checks.check_scenario_bundle(tmp_path))

    write_bundle(tmp_path, p0=0.95)
    assert any("sum" in m for _, m in checks.check_scenario_bundle(tmp_path))

    write_bundle(tmp_path, pgm_shape=(8, 16))
    assert any("PGM" in m for _, m in checks.check_scenario_bundle(tmp_path))


def test_grid_norm_matches_numpy(tmp_path):
    amps = np.full((4, 8), 0.5 + 0.5j)
    write_grid(tmp_path / "g.grid", amps, dx=0.25, dy=2.0)
    assert checks.grid_norm(tmp_path / "g.grid") == pytest.approx(
        math.sqrt(32 * 0.5 * 0.5))
