"""Scenario orchestration: build, run, analyze, write artifacts and sweep."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import gridio
from .analysis import (Crosscut, DensityMap, SidebandTable, bin_sidebands,
                       check_sideband_spacing, crosscut, density_map,
                       marginal_deflection, max_deflection, momentum_density,
                       peak_spacing, rel_l2, sideband_populations,
                       transverse_splitting)
from .analytic import (apply_interaction, build_phase_mask, interaction_factors,
                       vacuum_propagate_factors)
# Unused here; kept because the benchmark tracer patches scenario.vacuum_propagate.
from .analytic import vacuum_propagate
from .config import ScenarioConfig, SweepSpec, serialize_config
from .core import (Grid2D, Wavepacket, bandwidth_to_fwhm_x, check_coverage,
                   gaussian_factors, gaussian_wavepacket, separable_packet)
from .errors import AnalysisError, NediffError
from .nearfield import (CouplingProfile, GapResonatorModel,
                        calibrate_gap_amplitude, coupling_profile)
from .numeric import (TRACE_COLUMNS, EvolutionTrace, choose_steps,
                      split_step_evolve)
from .render import render_heatmap
from .units import electron_kinematics

#: Sweep results report the populations of photon orders -6..6.
ORDER_RANGE = 6


@dataclass(frozen=True)
class EngineOutput:
    """Final state and observables for one engine."""

    psi: Wavepacket
    density: DensityMap
    sidebands: SidebandTable


@dataclass(frozen=True)
class ScenarioResult:
    """Everything a single run produces."""

    config: ScenarioConfig
    psi_initial: Wavepacket
    profile: CouplingProfile
    analytic: EngineOutput | None
    numeric: EngineOutput | None
    trace: EvolutionTrace | None
    rel_l2_densities: float | None

    def primary(self) -> EngineOutput:
        out = self.analytic if self.analytic is not None else self.numeric
        assert out is not None
        return out


def resolve_model(cfg: ScenarioConfig):
    model = cfg.model
    if isinstance(model, GapResonatorModel) and not model.calibrated:
        model = calibrate_gap_amplitude(model)
    return model


def _checked_setup(cfg: ScenarioConfig):
    """(v0, model) after the checks every run makes before its initial packet."""
    _, v0 = electron_kinematics(cfg.electron.energy_ev)
    # Unbinnable photon orders fail the run before any engine work or file.
    check_sideband_spacing(cfg.laser.omega / v0, cfg.grid.dkx, cfg.grid.nx)
    return v0, resolve_model(cfg)


def _gaussian_inputs(cfg: ScenarioConfig) -> tuple[Grid2D, float, float,
                                                    tuple[float, float]]:
    """What the initial Gaussian's amplitudes depend on: grid, FWHMs, center."""
    e = cfg.electron
    if e.fwhm_x_nm is not None:
        fwhm_x = e.fwhm_x_nm
    else:
        fwhm_x = bandwidth_to_fwhm_x(e.bandwidth_ev, e.energy_ev)
    if e.fwhm_y_nm is not None:
        fwhm_y = e.fwhm_y_nm
    else:
        fwhm_y = e.fwhm_y_radius_scale * cfg.model.radius_nm
    return cfg.grid, fwhm_x, fwhm_y, (e.center_x_nm, e.center_y_nm)


def build_initial_state(cfg: ScenarioConfig) -> Wavepacket:
    """The initial packet, after its coverage check and free flight.

    The checks and the flight act on `initial_factors`; the 2D packet is
    then formed once.  Without a flight it is `gaussian_wavepacket`, bit for
    bit; after one it is the outer product of the flown factors.
    """
    e = cfg.electron
    gy, gx = initial_factors(cfg)
    if e.prepropagation_fs > 0.0:
        k0, _ = electron_kinematics(e.energy_ev)
        return separable_packet(cfg.grid, k0, gy, gx, t=e.prepropagation_fs)
    grid, fwhm_x, fwhm_y, center = _gaussian_inputs(cfg)
    return gaussian_wavepacket(grid, e.energy_ev, fwhm_x, fwhm_y, center=center)


def initial_factors(cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """The factors (g_y, g_x) of the initial packet, each normalized in 1D:
    the width checks, the coverage check on their marginals, then the free
    flight, one factor at a time."""
    e = cfg.electron
    grid, fwhm_x, fwhm_y, center = _gaussian_inputs(cfg)
    gy, gx = gaussian_factors(grid, fwhm_x, fwhm_y, center=center)
    check_coverage(grid, (gx**2, gy**2))
    if e.prepropagation_fs > 0.0:
        gy, gx = vacuum_propagate_factors(grid, gy, gx, e.prepropagation_fs,
                                          axes=e.prepropagation_axes)
    return gy, gx


def _engine_output(psi: Wavepacket, dmap: DensityMap,
                   delta_k: float) -> EngineOutput:
    return EngineOutput(psi=psi, density=dmap,
                        sidebands=sideband_populations(dmap, psi.k0, delta_k))


def run_scenario(cfg: ScenarioConfig, outdir=None) -> ScenarioResult:
    """Execute one scenario; optionally write the artifact bundle.

    The outputs are resolved against the engine first
    (`ScenarioConfig.resolve_outputs`), so a kind the engine cannot produce
    fails the run before any work or file.
    """
    cfg = cfg.resolve_outputs()
    v0, model = _checked_setup(cfg)
    psi0 = build_initial_state(cfg)
    profile = coupling_profile(model, cfg.laser, v0, cfg.grid.y)
    delta_k = profile.delta_k

    analytic_out = None
    numeric_out = None
    trace = None
    if cfg.engine in ("analytic", "both"):
        mask = build_phase_mask(profile, cfg.grid)
        psi_a = apply_interaction(psi0, mask)
        analytic_out = _engine_output(psi_a, momentum_density(psi_a), delta_k)
    if cfg.engine in ("numeric", "both"):
        params = choose_steps(cfg.numeric, cfg.laser, model, cfg.grid)
        snapshot_callback = None
        if outdir is not None and "snapshots" in cfg.outputs:
            snap_dir = Path(outdir) / "snapshots"
            counter = iter(range(10**6))

            def snapshot_callback(t, psi_snap):
                # Made here, so a run failing before its first snapshot leaves none.
                snap_dir.mkdir(parents=True, exist_ok=True)
                gridio.write_grid(
                    snap_dir / f"snap_{next(counter):06d}.grid", psi_snap)

        psi_n, trace, rho = split_step_evolve(
            psi0, params, snapshot_callback=snapshot_callback)
        numeric_out = _engine_output(psi_n, density_map(psi_n, rho), delta_k)

    distance = None
    if analytic_out is not None and numeric_out is not None:
        distance = rel_l2(numeric_out.density.values, analytic_out.density.values)

    result = ScenarioResult(
        config=cfg, psi_initial=psi0, profile=profile,
        analytic=analytic_out, numeric=numeric_out, trace=trace,
        rel_l2_densities=distance,
    )
    if outdir is not None:
        write_artifacts(result, outdir)
    return result


def write_artifacts(result: ScenarioResult, outdir) -> None:
    """Write the configured artifact bundle."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = result.config
    wanted = set(cfg.outputs)

    def write_cut(cut: Crosscut, name: str) -> None:
        gridio.write_csv(outdir / name, ("k_per_nm", "density"),
                         zip(cut.coords, cut.density),
                         comments=(f"axis: {cut.axis}",
                                   f"fixed_value_per_nm: {float(cut.value)!r}"))

    gridio.write_lines(outdir / "config.txt", serialize_config(cfg).splitlines())
    if "profile" in wanted:
        p = result.profile
        laser = p.laser
        gridio.write_csv(
            outdir / "profile.csv", ("y_nm", "I1_rad", "I2_rad"),
            zip(p.y, math.cos(p.theta) * p.coupling, math.sin(p.theta) * p.coupling),
            comments=(f"model: {p.model!r}",
                      f"laser: wavelength_nm={float(laser.wavelength_nm)!r} "
                      f"field_v_per_nm={float(laser.field_v_per_nm)!r} "
                      f"phase_rad={float(laser.phase_rad)!r}",
                      f"v0_nm_fs: {float(p.v0)!r}",
                      f"delta_k_per_nm: {float(p.delta_k)!r}"))
    if "grids" in wanted:
        gridio.write_grid(outdir / "initial.grid", result.psi_initial)
    for label, out in (("analytic", result.analytic), ("numeric", result.numeric)):
        if out is None:
            continue
        if "grids" in wanted:
            gridio.write_grid(outdir / f"{label}.grid", out.psi)
        if "density" in wanted:
            render_heatmap(out.density, outdir / f"density_{label}.pgm",
                           colormap="log")
        if "populations" in wanted:
            table = out.sidebands
            gridio.write_csv(
                outdir / f"populations_{label}.csv",
                ("order", "population", "ky_spread_per_nm"),
                ((str(int(n)), pop, spread) for n, pop, spread in
                 zip(table.orders, table.populations, table.ky_spread)))
        if "crosscuts" in wanted:
            write_cut(crosscut(out.density, "kx", 0.0),
                      f"crosscut_{label}_kx_ky0.csv")
            for n in (0, 1, 2):
                kxn = out.psi.k0 + n * result.profile.delta_k
                if out.density.kx[0] <= kxn <= out.density.kx[-1]:
                    write_cut(crosscut(out.density, "ky", kxn),
                              f"crosscut_{label}_ky_n{n}.csv")
    if result.trace is not None and "trace" in wanted:
        gridio.write_csv(outdir / "trace.csv", TRACE_COLUMNS, result.trace.rows)
    if result.rel_l2_densities is not None and "compare" in wanted:
        gridio.write_lines(outdir / "compare.txt", [
            f"relative_l2_momentum_density = {float(result.rel_l2_densities)!r}"])
    if "summary" in wanted:
        gridio.write_lines(outdir / "summary.txt", _summary_lines(result))


def _summary_lines(result: ScenarioResult) -> list[str]:
    cfg = result.config
    k0, v0 = electron_kinematics(cfg.electron.energy_ev)
    lines = [
        f"engine = {cfg.engine}",
        f"k0_per_nm = {k0!r}",
        f"v0_nm_fs = {v0!r}",
        f"delta_k_per_nm = {float(result.profile.delta_k)!r}",
    ]
    out = result.primary()
    lines.append(f"max_deflection_deg = {max_deflection(out.density)!r}")
    lines.append(f"p0 = {out.sidebands.population(0)!r}")
    if result.rel_l2_densities is not None:
        lines.append(f"rel_l2_densities = {float(result.rel_l2_densities)!r}")
    return lines


@dataclass(frozen=True)
class SweepPoint:
    """Metrics collected for one swept parameter value."""

    parameter: float
    populations: SidebandTable | None
    depletion: float
    alpha_max_deg: float
    delta_kx: float
    delta_ky: float
    error: str = ""


@dataclass(frozen=True)
class SweepResult:
    """Parameter scan summary, ordered by parameter value."""

    axis: str
    points: list[SweepPoint]

    def parameters(self) -> np.ndarray:
        return np.array([p.parameter for p in self.points])

    def population_matrix(self) -> np.ndarray:
        """Populations P_n for n in [-ORDER_RANGE, ORDER_RANGE], one row per point."""
        m = np.zeros((len(self.points), 2 * ORDER_RANGE + 1))
        for i, p in enumerate(self.points):
            if p.populations is None:
                m[i] = np.nan
                continue
            for j, n in enumerate(range(-ORDER_RANGE, ORDER_RANGE + 1)):
                sel = np.nonzero(p.populations.orders == n)[0]
                m[i, j] = p.populations.populations[sel[0]] if len(sel) else 0.0
        return m

    def ground_state_minimum(self) -> float:
        """Parameter value at which the initial-state occupation is smallest.

        The ground state here is the initial momentum state (k0, 0); its
        occupation is the central density, not the binned n=0 population,
        which bottoms out at a different drive mismatch.  NaN when no
        point has a depletion.
        """
        dep = np.array([p.depletion for p in self.points])
        ok = ~np.isnan(dep)
        if not ok.any():
            return math.nan
        params = self.parameters()
        return float(params[ok][int(np.argmin(dep[ok]))])

    def write_csv(self, path) -> None:
        ns = range(-ORDER_RANGE, ORDER_RANGE + 1)
        header = [self.axis] + [f"P_{n}" for n in ns] + [
            "depletion", "alpha_max_deg", "delta_kx_per_nm", "delta_ky_per_nm",
            "depletion_min_flag", "error"]
        pops = self.population_matrix()
        argmin = self.ground_state_minimum()
        rows = [[p.parameter, *pops[i], p.depletion, p.alpha_max_deg,
                 p.delta_kx, p.delta_ky, "1" if p.parameter == argmin else "0",
                 p.error.replace(",", ";")]
                for i, p in enumerate(self.points)]
        gridio.write_csv(path, header, rows)


def run_sweep_point(spec: SweepSpec, value: float) -> SweepPoint:
    """Run one sweep point and extract the scan metrics.

    An analytic point builds no array of the grid's shape: its initial
    packet is two 1D factors (`initial_factors`), and every metric comes
    from the `OrderFactors` of the interacted packet, through their k_x and
    k_y marginals and their value at (k0, 0).  A numeric point runs its
    scenario and reduces the final density.  Both weight the transverse
    splitting by the g_y of `initial_factors`.
    """
    cfg = spec.point(value)
    k0, _ = electron_kinematics(cfg.electron.energy_ev)
    kx, ky = k0 + cfg.grid.kx, cfg.grid.ky
    # The grid point of the initial momentum state (k0, 0).
    ix, iy = int(np.argmin(np.abs(kx - k0))), int(np.argmin(np.abs(ky)))
    if cfg.engine == "analytic":
        v0, model = _checked_setup(cfg)
        envelope, gx = initial_factors(cfg)
        profile = coupling_profile(model, cfg.laser, v0, cfg.grid.y)
        factors = interaction_factors(profile, cfg.grid, envelope, gx)
        kx_marginal = factors.kx_marginal()
        ky_marginal = factors.ky_marginal()
        center = factors.value(iy, ix)
        depletion = center.real**2 + center.imag**2
        sidebands = bin_sidebands(kx, k0, profile.delta_k,
                                  kx_marginal * cfg.grid.dkx)
    else:
        # A point writes no artifacts, so the template's outputs do not apply.
        result = run_scenario(replace(cfg, outputs=None))
        profile = result.profile
        envelope, _ = initial_factors(cfg)
        out = result.primary()
        rho = out.density.values
        kx_marginal = rho.sum(axis=0) * out.density.dky
        ky_marginal = rho.sum(axis=1)
        depletion = float(rho[iy, ix])
        sidebands = out.sidebands
    try:
        dkx_measured = peak_spacing(Crosscut(axis="kx", value=math.nan, coords=kx,
                                             density=kx_marginal))
    except AnalysisError:
        dkx_measured = math.nan
    try:
        dky = transverse_splitting(profile, envelope=envelope)
    except AnalysisError:
        dky = math.nan
    return SweepPoint(
        parameter=value,
        populations=sidebands,
        depletion=depletion,
        alpha_max_deg=marginal_deflection(ky, ky_marginal, k0),
        delta_kx=dkx_measured,
        delta_ky=dky,
    )


def run_sweep(spec: SweepSpec, threads: int = 1) -> SweepResult:
    """Run `run_sweep_point` per parameter value and collect scan metrics.

    Points run on a pool of `threads` threads (numpy and the FFTs release
    the GIL), each on its own arrays, and are assembled in parameter order.
    A point failing with a nediff error is recorded and the sweep continues;
    any other exception is a bug and propagates.
    """
    def one(value: float) -> SweepPoint:
        try:
            return run_sweep_point(spec, value)
        except NediffError as exc:
            return SweepPoint(parameter=value, populations=None,
                              depletion=math.nan, alpha_max_deg=math.nan,
                              delta_kx=math.nan, delta_ky=math.nan,
                              error=f"{type(exc).__name__}: {exc}")

    with ThreadPoolExecutor(max_workers=threads) as pool:
        points = list(pool.map(one, spec.values))
    return SweepResult(axis=spec.axis, points=points)
