"""Acceptance gate: every shipped claim runs here at its stated tolerance.

Each criterion registers a one-line pass/fail entry that the terminal summary
prints at the end of the session (see conftest).  The fig-1 two-engine run
dominates the wall time; everything downstream of it shares the fixture.
"""

import math
import os
import time

import numpy as np
import pytest
import scipy.fft
import scipy.special

from conftest import record_criterion, uniform_profile

from nediff.analysis import (Crosscut, crosscut, find_peaks, max_deflection,
                             momentum_density, peak_spacing, rel_l2,
                             sideband_populations, transverse_splitting)
from nediff.analytic import (apply_interaction, build_phase_mask,
                             order_amplitudes_exact, order_series_taylor,
                             vacuum_propagate, weak_field_order)
from nediff.core import Grid2D, gaussian_wavepacket, temporal_spread, to_momentum
from nediff.nearfield import LaserParams, WireModel, coupling_profile
from nediff.numeric import (EvolutionParams, NumericSpec, choose_steps,
                            split_step_evolve)
from nediff.config import build_preset
from nediff.scenario import (build_initial_state, initial_factors, run_scenario,
                             run_sweep)
from nediff.units import HBAR, electron_kinematics

pytestmark = pytest.mark.acceptance


# ----------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def fig1():
    """Full fig-1 preset with both engines; the expensive ground-truth run."""
    cfg = build_preset("fig1")
    t0 = time.perf_counter()
    with scipy.fft.set_workers(os.cpu_count()):
        result = run_scenario(cfg)
    elapsed = time.perf_counter() - t0
    return cfg, result, elapsed


@pytest.fixture(scope="module")
def fig2_sweep():
    spec = build_preset("fig2")
    t0 = time.perf_counter()
    result = run_sweep(spec, threads=os.cpu_count())
    return spec, result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def fig3_sweep():
    spec = build_preset("fig3")
    result = run_sweep(spec, threads=os.cpu_count())
    return spec, result


# -------------------------------------------------------------- criterion 1

@pytest.mark.slow
def test_criterion_01_analytic_numeric_agreement(fig1):
    cfg, result, elapsed = fig1
    distance = result.rel_l2_densities
    steps_ok = True
    detail = f"rel L2 = {distance:.4f}, wall {elapsed:.0f}s"
    ok = distance is not None and distance <= 0.05 and steps_ok
    record_criterion(1, "fig1 analytic vs numeric momentum densities agree "
                        "within 5% relative L2", bool(ok), detail)
    assert distance is not None
    assert distance <= 0.05, f"relative L2 {distance:.4f} exceeds 5%"


@pytest.mark.slow
def test_criterion_01_step_budget(fig1):
    cfg, result, _ = fig1
    params = choose_steps(cfg.numeric, cfg.laser, cfg.model, cfg.grid)
    assert params.n_steps <= 3000
    assert (cfg.grid.nx, cfg.grid.ny) == (2048, 1024)


# -------------------------------------------------------------- criterion 2

@pytest.mark.slow
def test_criterion_02_sideband_spacing(fig1, fig2_sweep):
    cfg, result, _ = fig1
    dmap = result.analytic.density
    marginal = Crosscut(axis="kx", value=math.nan, coords=dmap.kx,
                        density=dmap.values.sum(axis=0) * dmap.dky)
    spacing = peak_spacing(marginal)
    ok_fig1 = abs(spacing - result.profile.delta_k) <= cfg.grid.dkx

    spec, sweep, _ = fig2_sweep
    errs = []
    for p in sweep.points:
        assert not p.error, f"sweep point {p.parameter} failed: {p.error}"
        _, v0 = electron_kinematics(p.parameter)
        expected = spec.template.laser.omega / v0
        errs.append(abs(p.delta_kx - expected))
    ok_fig2 = max(errs) <= spec.template.grid.dkx
    record_criterion(
        2, "extracted sideband spacing equals omega/v0 within one grid cell "
           "(fig1 and all fig2 energies)",
        bool(ok_fig1 and ok_fig2),
        f"fig1 |err| = {abs(spacing - result.profile.delta_k):.2e}, "
        f"fig2 max |err| = {max(errs):.2e}")
    assert ok_fig1
    assert ok_fig2


# -------------------------------------------------------------- criterion 3

def test_criterion_03_pinem_limit():
    grid = Grid2D.centered(2048, 256, 0.25, 0.5)
    psi = gaussian_wavepacket(grid, 100.0, 100.0, 20.0)
    laser = LaserParams(wavelength_nm=2000.0, field_v_per_nm=0.2)
    _, v0 = electron_kinematics(100.0)
    worst = 0.0
    for coupling in (0.5, 1.0, 2.0):
        profile = uniform_profile(coupling, -60.0, 60.0, laser, v0, grid.y)
        out = apply_interaction(psi, build_phase_mask(profile, grid))
        table = sideband_populations(momentum_density(out), psi.k0,
                                     profile.delta_k)
        for n in range(-4, 5):
            expected = scipy.special.jv(abs(n), coupling) ** 2
            worst = max(worst, abs(table.population(n) - expected))
    ok = worst <= 1e-6
    record_criterion(3, "uniform-coupling sidebands match squared Bessel "
                        "weights within 1e-6", bool(ok), f"worst |err| = {worst:.2e}")
    assert ok


# -------------------------------------------------------------- criterion 4

def test_criterion_04_series_identity():
    worst = 0.0
    for coupling in np.linspace(-5.0, 5.0, 41):
        for n in range(0, 9):
            got = order_series_taylor(float(coupling), n, 30)
            expected = (1j**n) * scipy.special.jv(n, float(coupling))
            worst = max(worst, abs(got - expected))
    single_ok = True
    for n in range(0, 7):
        for coupling in (0.3, 1.0, 4.0):
            got = order_series_taylor(coupling, n, n)
            expected = (1j**n) * (coupling / 2.0) ** n / math.factorial(n)
            if not math.isclose(abs(got - expected), 0.0, abs_tol=1e-15 * max(1.0, abs(expected))):
                single_ok = False
    ok = worst <= 1e-10 and single_ok
    record_criterion(4, "excitation-path series converges to the Bessel "
                        "amplitude (1e-10, depth 30) and depth |n| gives the "
                        "single-path term", bool(ok),
                     f"worst series |err| = {worst:.2e}")
    assert worst <= 1e-10
    assert single_ok


# -------------------------------------------------------------- criterion 5

@pytest.mark.slow
def test_criterion_05_weak_field_limit(fig1):
    cfg, _, _ = fig1
    gy, _ = initial_factors(cfg)
    _, v0 = electron_kinematics(cfg.electron.energy_ev)
    gaps = []
    for divisor in (1.0, 2.0, 4.0, 8.0):
        laser = LaserParams(wavelength_nm=cfg.laser.wavelength_nm,
                            field_v_per_nm=cfg.laser.field_v_per_nm / divisor)
        profile = coupling_profile(laser=laser, model=cfg.model, v0=v0,
                                   y_grid=cfg.grid.y)
        exact = order_amplitudes_exact(profile, gy, n_max=8)
        a1 = exact.spectra[exact.order_index(1)]
        _, weak = weak_field_order(profile, gy, 1)
        gaps.append(float(np.linalg.norm(weak - a1) / np.linalg.norm(a1)))
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    ok = decreasing and gaps[-1] < 0.01
    record_criterion(5, "single-path order-1 spectrum converges to the exact "
                        "one as the field weakens (< 1% at 1/8 drive)",
                     bool(ok),
                     "gaps = " + ", ".join(f"{g:.4f}" for g in gaps))
    assert decreasing, f"gaps not monotone: {gaps}"
    assert gaps[-1] < 0.01


# -------------------------------------------------------------- criterion 6

def test_criterion_06_wire_coupling_oracle():
    wire = WireModel(radius_nm=10.0, response=0.5)
    laser = LaserParams(wavelength_nm=2000.0, field_v_per_nm=0.2)
    r = wire.radius_nm
    ys = np.linspace(r + 0.5, 10.0 * r, 25)
    worst_rel = 0.0
    worst_sin = 0.0
    _, v0_fig1 = electron_kinematics(100.0)
    for v0 in (laser.omega / 0.02, v0_fig1):
        delta_k = laser.omega / v0
        profile = coupling_profile(wire, laser, v0, ys)
        c = math.cos(profile.theta) * profile.coupling
        s = math.sin(profile.theta) * profile.coupling
        scale = (laser.field_v_per_nm * wire.response * r**2 * math.pi
                 / (HBAR * v0))
        oracle = np.sign(ys) * scale * np.exp(-delta_k * np.abs(ys))
        worst_rel = max(worst_rel, float(np.max(np.abs(c - oracle) / np.abs(oracle))))
        worst_sin = max(worst_sin, float(np.max(np.abs(s))))
    ok = worst_rel <= 1e-8 and worst_sin <= 1e-10
    record_criterion(6, "the engine's wire coupling matches the closed-form "
                        "image-dipole oracle within 1e-8; sine coupling vanishes",
                     bool(ok),
                     f"worst rel = {worst_rel:.2e}, worst |sin| = {worst_sin:.2e}")
    assert worst_rel <= 1e-8
    assert worst_sin <= 1e-10


# -------------------------------------------------------------- criterion 7

@pytest.mark.slow
def test_criterion_07_parity_and_fringe_shift(fig1):
    cfg, result, _ = fig1
    dmap = result.analytic.density
    k0 = result.analytic.psi.k0
    dk = result.profile.delta_k

    # Odd orders carry a node on the axis.
    node_ok = True
    node_worst = 0.0
    izero = int(np.argmin(np.abs(dmap.ky)))
    for n in (1, 3):
        cut = crosscut(dmap, "ky", k0 + n * dk)
        frac = cut.density[izero] / float(cut.density.max())
        node_worst = max(node_worst, frac)
        if frac > 1e-6:
            node_ok = False

    # Consecutive orders interleave: their fringes sit half a period apart.
    delta_ky = transverse_splitting(result.profile)
    cut1 = crosscut(dmap, "ky", k0 + dk)
    cut2 = crosscut(dmap, "ky", k0 + 2 * dk)
    pos1, _ = find_peaks(cut1.coords, cut1.density, threshold=0.01)
    pos2, _ = find_peaks(cut2.coords, cut2.density, threshold=0.01)
    offsets = [float(np.min(np.abs(pos1 - p))) for p in pos2]
    offset = float(np.median(offsets))
    shift_ok = abs(offset - delta_ky) <= 0.15 * delta_ky
    ok = node_ok and shift_ok
    record_criterion(7, "odd orders vanish on the axis; consecutive-order "
                        "fringes interleave with the transverse splitting "
                        "(15%)", bool(ok),
                     f"axis node <= {node_worst:.1e} of max, offset "
                     f"{offset:.4f} vs delta_ky {delta_ky:.4f}")
    assert node_ok, f"axis density fraction {node_worst:.2e} above 1e-6"
    assert shift_ok, f"fringe offset {offset:.4f} vs {delta_ky:.4f}"


# -------------------------------------------------------------- criterion 8

@pytest.mark.slow
def test_criterion_08_energy_sweep(fig2_sweep):
    spec, result, elapsed = fig2_sweep
    assert len(spec.values) >= 40
    minimum_at = result.ground_state_minimum()
    in_window = 500.0 <= minimum_at <= 800.0
    point_100 = next(p for p in result.points if p.parameter == 100.0)
    deflection_ok = point_100.alpha_max_deg >= 0.8
    ok = in_window and deflection_ok and elapsed < 600.0
    record_criterion(8, "energy scan: initial-state depletion bottoms in "
                        "[500, 800] eV and 100 eV deflection reaches 0.8 deg",
                     bool(ok),
                     f"min at {minimum_at:.0f} eV, alpha(100 eV) = "
                     f"{point_100.alpha_max_deg:.2f} deg, {len(spec.values)} "
                     f"energies in {elapsed:.0f}s")
    assert in_window, f"depletion minimum at {minimum_at} eV"
    assert deflection_ok
    assert elapsed < 600.0


# -------------------------------------------------------------- criterion 9

@pytest.mark.slow
def test_criterion_09_radius_sweep(fig3_sweep):
    spec, result = fig3_sweep
    params = result.parameters()
    pops = np.array([p.populations.population(0) for p in result.points])
    coupling_strength = 1.0 - pops
    best = float(params[int(np.argmax(coupling_strength))])
    peak_ok = 7.5 <= best <= 12.5
    _, v0 = electron_kinematics(spec.template.electron.energy_ev)
    transit_scale = math.pi / (spec.template.laser.omega / v0)
    transit_ok = abs(2.0 * best - transit_scale) <= 5.0

    sel = params >= 10.0
    dky = np.array([p.delta_ky for p in result.points])[sel]
    monotone = bool(np.all(np.diff(dky) < 0.0))
    ok = peak_ok and transit_ok and monotone
    record_criterion(9, "radius scan: coupling peaks at R = 10 +- 2.5 nm "
                        "(half-period transit) and the transverse splitting "
                        "decreases monotonically over 10..40 nm", bool(ok),
                     f"peak at R = {best:g} nm, 2R = {2*best:g} vs "
                     f"pi/delta_k = {transit_scale:.1f} nm")
    assert peak_ok, f"coupling maximum at R = {best}"
    assert transit_ok
    assert monotone, f"delta_ky not monotone: {dky}"


# ------------------------------------------------------------- criterion 10

@pytest.mark.slow
def test_criterion_10_gap_resonator_scenarios():
    limited_cfg = build_preset("fig4-limited")
    psi_limited = build_initial_state(limited_cfg)
    from nediff.analysis import energy_bandwidth_fwhm
    bw_limited = energy_bandwidth_fwhm(psi_limited)
    spread_limited = bw_limited / 2.0  # half width at half maximum
    spread_ok = 0.04 <= spread_limited <= 0.06
    t_limited = temporal_spread(psi_limited)

    chirped_cfg = build_preset("fig4-chirped")
    flight = chirped_cfg.electron.prepropagation_fs
    flight_ok = 1600.0 <= flight <= 2400.0
    psi_chirped = build_initial_state(chirped_cfg)
    bw_chirped = energy_bandwidth_fwhm(psi_chirped)
    bw_ok = abs(bw_chirped - 2.0) <= 0.1
    t_chirped = temporal_spread(psi_chirped)
    t_ok = abs(t_chirped - 20.0) <= 1.0 and abs(t_limited - 20.0) <= 1.0

    result = run_scenario(chirped_cfg)
    deflection = max_deflection(result.primary().density)
    deflection_ok = deflection > 1.0

    ok = spread_ok and flight_ok and bw_ok and t_ok and deflection_ok
    record_criterion(10, "gap scenarios: 20 fs packet has ~0.05 eV energy "
                         "spread; the chirped packet reaches 2 eV at 20 fs "
                         "via ~2 ps flight and deflects beyond 1 deg",
                     bool(ok),
                     f"spread = {spread_limited:.4f} eV, flight = "
                     f"{flight:.0f} fs, bw = {bw_chirped:.3f} eV, deflection "
                     f"= {deflection:.2f} deg")
    assert spread_ok, f"energy half-spread {spread_limited:.4f} eV"
    assert flight_ok
    assert bw_ok, f"chirped bandwidth {bw_chirped:.3f} eV"
    assert t_ok, f"temporal spreads {t_limited:.2f} / {t_chirped:.2f} fs"
    assert deflection_ok, f"deflection {deflection:.2f} deg"


# ------------------------------------------------------------- criterion 11

@pytest.mark.slow
def test_criterion_11_conservation_suite(fig1):
    cfg, result, _ = fig1
    norm_drift = float(np.max(np.abs(result.trace["norm"] - 1.0)))
    norm_ok = norm_drift <= 1e-9
    analytic_norm_ok = abs(result.analytic.psi.norm() - 1.0) <= 1e-9

    # dt-halving self-convergence at order 2 on a reduced scenario.
    grid = Grid2D.centered(256, 128, 0.5, 0.5)
    psi = gaussian_wavepacket(grid, 100.0, 18.0, 10.0)
    laser = LaserParams(wavelength_nm=2000.0, field_v_per_nm=0.2)
    wire = WireModel(radius_nm=10.0, response=0.5)

    def run(dt):
        n = int(round(16.0 / dt))
        params = EvolutionParams(n_steps=n, t_start=-8.0, t_end=8.0,
                                 laser=laser, model=wire,
                                 include_vector_potential=True,
                                 snapshot_stride=50)
        out, _, _ = split_step_evolve(psi, params)
        return momentum_density(out).values

    ref = run(0.008)
    err1 = rel_l2(run(0.064), ref)
    err2 = rel_l2(run(0.032), ref)
    ratio = err1 / err2
    order2_ok = 2.0 < ratio < 8.0

    free_wire = WireModel(radius_nm=10.0, response=0.0)
    spec = NumericSpec(window_fs=20.0, safety=0.9, vector_potential=False)
    params = choose_steps(spec, laser, free_wire, grid)
    psi_free, trace_free, _ = split_step_evolve(psi, params)
    psi_vac = vacuum_propagate(psi, 20.0)
    free_err = float(np.max(np.abs(to_momentum(psi_free).values
                                   - to_momentum(psi_vac).values)))
    free_ok = free_err <= 1e-10

    ok = norm_ok and analytic_norm_ok and order2_ok and free_ok
    record_criterion(11, "norm conserved to 1e-9; dt-halving shows order-2 "
                         "convergence; laser-off run matches the free "
                         "propagator to 1e-10 per cell", bool(ok),
                     f"drift = {norm_drift:.1e}, convergence ratio = "
                     f"{ratio:.1f}, free-particle err = {free_err:.1e}")
    assert norm_ok, f"norm drift {norm_drift:.2e}"
    assert analytic_norm_ok
    assert order2_ok, f"convergence ratio {ratio:.2f}"
    assert free_ok, f"free-particle error {free_err:.2e}"
