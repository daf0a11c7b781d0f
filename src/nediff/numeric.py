"""Direct split-step integration of the 2D time-dependent Schrodinger equation.

The solver works on the carrier-factored envelope in the frame comoving with
the electron: the kinetic operator is diagonal in the envelope momenta and
the structure potential sweeps through the box at -v0.  Strang splitting
alternates exact kinetic segments with midpoint-sampled potential kicks; the
spatially uniform laser vector potential (dipole approximation) enters the
kinetic segments through an exactly integrated momentum-space phase, with
its A^2 part dropped as a global phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft as _fft

from .core import (Grid2D, Wavepacket, _run_blocks, block_pool, density_moments,
                   fft2_copy, row_blocks)
from .errors import ConfigurationError, NumericalError
from .nearfield import LaserParams, NearFieldModel
from .units import ELECTRON_CHARGE, ELECTRON_MASS, HBAR

#: Invariant bounds on the per-step phases, in rad.
PHASE_BOUNDS = {"potential": 0.1, "kinetic": 0.5}

#: Mass fraction tolerated within the outer 10% border of the grid.
EDGE_MASS_TOL = 1e-6

#: The trace.csv header, and the order in which `record` fills a row.
TRACE_COLUMNS = ("t_fs", "norm", "x_mean_nm", "kx_mean_per_nm",
                 "ky_mean_per_nm", "energy_mean_ev")


@dataclass(frozen=True)
class NumericSpec:
    """Options for the split-step engine: the [numeric] config section."""

    window_fs: float
    dt_fs: float | None = None
    safety: float = 0.5
    vector_potential: bool = True
    snapshot_stride: int = 50

    def __post_init__(self):
        if not self.window_fs > 0.0:
            raise ConfigurationError("numeric.window_fs must be positive")
        if self.dt_fs is not None and not self.dt_fs > 0.0:
            raise ConfigurationError("numeric.dt_fs must be positive")
        if not 0.0 < self.safety <= 1.0:
            raise ConfigurationError("numeric.safety must be in (0, 1]")
        if self.snapshot_stride < 1:
            raise ConfigurationError("numeric.snapshot_stride must be >= 1")


@dataclass(frozen=True)
class EvolutionParams:
    """Time stepping description for one interaction run."""

    n_steps: int
    t_start: float
    t_end: float
    laser: LaserParams
    model: NearFieldModel
    include_vector_potential: bool
    snapshot_stride: int

    def __post_init__(self):
        if self.n_steps < 1:
            raise ConfigurationError("need at least one step")
        if self.t_end == self.t_start:
            raise ConfigurationError("evolution window must have nonzero length")
        if self.snapshot_stride < 1:
            raise ConfigurationError("snapshot stride must be >= 1")

    @property
    def dt(self) -> float:
        """Signed step; t_end < t_start runs the conjugated steps backward."""
        return (self.t_end - self.t_start) / self.n_steps


@dataclass(frozen=True)
class EvolutionTrace:
    """Per-snapshot observables: one row per snapshot, in TRACE_COLUMNS order."""

    rows: np.ndarray

    def __getitem__(self, column: str) -> np.ndarray:
        return self.rows[:, TRACE_COLUMNS.index(column)]


def _phase_bounds(laser: LaserParams, model: NearFieldModel, grid: Grid2D
                  ) -> dict[str, float]:
    """The step at which each per-step phase reaches its bound: the
    potential phase at the peak interaction energy and the kinetic phase at
    the grid corner."""
    v_peak = abs(ELECTRON_CHARGE) * model.peak_potential(laser.field_v_per_nm)
    kmax_sq = (math.pi / grid.dx) ** 2 + (math.pi / grid.dy) ** 2
    return {
        "potential": (PHASE_BOUNDS["potential"] * HBAR / v_peak
                      if v_peak > 0.0 else math.inf),
        "kinetic": PHASE_BOUNDS["kinetic"] * 2.0 * ELECTRON_MASS / (HBAR * kmax_sq),
    }


def validate_evolution(params: EvolutionParams, grid: Grid2D) -> None:
    """Check the per-step phase bounds before any stepping happens."""
    for name, dt_max in _phase_bounds(params.laser, params.model, grid).items():
        if abs(params.dt) > dt_max * (1.0 + 1e-12):
            bound = PHASE_BOUNDS[name]
            raise ConfigurationError(
                f"{name} phase per step {bound * abs(params.dt) / dt_max:.3g} "
                f"rad exceeds the {bound} rad bound; reduce dt"
            )


def choose_steps(spec: NumericSpec, laser: LaserParams, model: NearFieldModel,
                 grid: Grid2D) -> EvolutionParams:
    """Steps over the window centred on t = 0: the largest time step that
    satisfies both phase bounds, times the safety factor, then shrunk so an
    integer number of steps covers the window.

    A requested `dt_fs` instead splits the window into the nearest whole
    number of steps of that size; the phase bounds are then checked, not
    imposed.
    """
    window = spec.window_fs
    if spec.dt_fs is None:
        dt0 = spec.safety * min(_phase_bounds(laser, model, grid).values())
        if not dt0 > 0.0 or not math.isfinite(window / dt0):
            raise ConfigurationError("cannot choose a positive time step")
        n = max(1, int(math.ceil(window / dt0 - 1e-12)))
    else:
        n = max(1, int(round(window / spec.dt_fs)))
    half = 0.5 * window
    params = EvolutionParams(
        n_steps=n, t_start=-half, t_end=half, laser=laser, model=model,
        include_vector_potential=spec.vector_potential,
        snapshot_stride=spec.snapshot_stride,
    )
    validate_evolution(params, grid)
    return params


def _vector_potential_integral(laser: LaserParams, ta: float, tb: float) -> float:
    """Integral of A_L(t) = -(E_L/omega) sin(omega t) over [ta, tb]."""
    w = laser.omega
    return laser.field_v_per_nm / (w * w) * (math.cos(w * tb) - math.cos(w * ta))


def split_step_evolve(psi0: Wavepacket, params: EvolutionParams,
                      snapshot_callback=None
                      ) -> tuple[Wavepacket, EvolutionTrace]:
    """Strang-split evolution over the window; returns final state and trace.

    The incoming amplitudes are taken as the envelope at t_start.  Each step
    applies the exact kinetic (and gauge) phase between potential midpoints
    and the potential phase sampled at the midpoint time.  When given,
    snapshot_callback(t, Wavepacket) fires at every trace snapshot.

    The elementwise work of each step runs in row blocks on the block pool
    (`core.block_pool`), so one setting sizes both the FFTs and the blocks;
    every block computes the same expressions as the whole grid.  Each kick
    block also sums its mass in the outer 10% border, and every step checks
    the total against EDGE_MASS_TOL of the initial mass.

    The final amplitudes are a `core.fft_buffer` view: their rows lie
    nx + FFT_ROW_PAD cells apart.
    """
    grid = psi0.grid
    validate_evolution(params, grid)
    model, laser = params.model, params.laser
    dt = params.dt
    n = params.n_steps
    v0 = psi0.velocity
    q = ELECTRON_CHARGE
    field = laser.field_v_per_nm

    kx1 = 2.0 * np.pi * np.fft.fftfreq(grid.nx, grid.dx)
    ky1 = 2.0 * np.pi * np.fft.fftfreq(grid.ny, grid.dy)
    ksq = kx1[None, :] ** 2 + ky1[:, None] ** 2
    kin_full = np.exp(-1j * (HBAR * dt / (2.0 * ELECTRON_MASS)) * ksq)
    kin_half = np.exp(-1j * (HBAR * 0.5 * dt / (2.0 * ELECTRON_MASS)) * ksq)
    del ksq

    x = grid.x
    y_col = grid.y[:, None]
    cell = grid.cell_area
    n_border_x = max(1, grid.nx // 10)
    n_border_y = max(1, grid.ny // 10)
    blocks = row_blocks(grid)

    def border_mass(rows, a) -> float:
        # Mass of a = psi[rows] in the outer 10% strips: whole rows within
        # n_border_y of the top or bottom edge, the edge columns elsewhere.
        h = rows.stop - rows.start
        top = min(max(n_border_y - rows.start, 0), h)
        bottom = max(min(grid.ny - n_border_y - rows.start, h), top)
        mass = 0.0
        for part in (a[:top], a[bottom:], a[top:bottom, :n_border_x],
                     a[top:bottom, -n_border_x:]):
            re_im = part.view(np.float64)  # (re, im) pairs; no temporary
            mass += float(np.einsum("ij,ij->", re_im, re_im))
        return mass

    def kick(rows, psi, x_t, scale) -> float:
        theta = model.potential(x_t, y_col[rows], field)
        theta *= scale
        factor = np.empty(theta.shape, dtype=np.complex128)
        np.cos(theta, out=factor.real)
        np.sin(theta, out=factor.imag)
        psi[rows] *= factor
        return border_mass(rows, psi[rows])

    def drift(rows, spec, kin, gauge):
        spec[rows] *= kin[rows]
        if gauge is not None:
            spec[rows] *= gauge[rows]

    def segment(pool, spec, kin, ta: float, tb: float) -> None:
        # Kinetic phase, then the vector-potential phase over [ta, tb]: one
        # factor per k_y row.
        gauge = None
        if params.include_vector_potential:
            integral = _vector_potential_integral(laser, ta, tb)
            gauge = np.exp(1j * (q / ELECTRON_MASS) * integral * ky1)[:, None]
        _run_blocks(pool, blocks, drift, spec, kin, gauge)

    snaps: list[tuple[float, ...]] = []

    def check_border(t, border: float, mass: float) -> None:
        # A NaN or inf anywhere reaches every cell after one transform, so
        # the border sum catches non-finite amplitudes too.
        if border <= EDGE_MASS_TOL * mass:
            return
        if not math.isfinite(border):
            raise NumericalError(f"non-finite amplitudes at t={t:g} fs",
                                 partial=_trace_from(snaps))
        raise NumericalError(
            f"wavepacket reached the outer 10% grid border at t={t:g} fs "
            f"(border mass fraction {border / mass:.3g})",
            partial=_trace_from(snaps),
        )

    def record(t, psi_r, spec_raw) -> float:
        rho = psi_r.real**2 + psi_r.imag**2
        mass, (x_mean, _), _ = density_moments(rho, x, grid.y)
        norm = math.sqrt(mass * cell)
        if not math.isfinite(norm):
            raise NumericalError(
                f"non-finite amplitudes at t={t:g} fs",
                partial=_trace_from(snaps),
            )
        check_border(t, border_mass(slice(0, grid.ny), psi_r), mass)
        rho_k = spec_raw.real**2 + spec_raw.imag**2
        mass_k, (kx_mean, ky_mean), _ = density_moments(rho_k, kx1, ky1)
        e_mean = (HBAR**2 / (2.0 * ELECTRON_MASS)) * float(
            (rho_k * ((psi0.k0 + kx1[None, :]) ** 2 + ky1[:, None] ** 2)).sum()
        ) / mass_k
        # One trace row, in TRACE_COLUMNS order.
        snaps.append((t, norm, x_mean, psi0.k0 + kx_mean, ky_mean, e_mean))
        if snapshot_callback is not None:
            snapshot_callback(t, Wavepacket(grid=grid, amplitudes=psi_r.copy(),
                                            t=t, k0=psi0.k0))
        return mass

    t0 = params.t_start
    t_end = params.t_end
    phase_sign = -q / HBAR  # exp(-i q Phi dt / hbar) = exp(i phase_sign * Phi * dt)
    with block_pool() as pool:
        # Every transform runs in place on padded rows (`core.fft_buffer`):
        # psi and spec share one buffer, and a snapshot transforms a copy.
        spec = fft2_copy(grid, psi0.amplitudes)
        mass0 = record(t0, psi0.amplitudes, spec)
        # Leading half segment [t0, t0 + dt/2].
        segment(pool, spec, kin_half, t0, t0 + 0.5 * dt)
        for k in range(n):
            t_mid = t0 + (k + 0.5) * dt
            psi = _fft.ifft2(spec, overwrite_x=True)
            scale = phase_sign * dt * math.cos(laser.omega * t_mid + laser.phase_rad)
            border = _run_blocks(pool, blocks, kick, psi, x[None, :] + v0 * t_mid,
                                 scale)
            # Every step, not only at snapshots: wrap-around between two
            # snapshots would otherwise go unseen.
            check_border(t_mid, sum(border), mass0)
            take_snap = ((k + 1) % params.snapshot_stride == 0) or (k == n - 1)
            if take_snap:
                spec = fft2_copy(grid, psi)  # record still needs psi
                record(t_mid, psi, spec)
            else:
                spec = _fft.fft2(psi, overwrite_x=True)
            if k < n - 1:
                segment(pool, spec, kin_full, t_mid, t_mid + dt)
        segment(pool, spec, kin_half, t0 + (n - 0.5) * dt, t_end)
    psi = _fft.ifft2(spec, overwrite_x=True)
    final = Wavepacket(grid=grid, amplitudes=psi, t=t_end, k0=psi0.k0)
    record(t_end, psi, fft2_copy(grid, psi))
    return final, _trace_from(snaps)


def _trace_from(snaps) -> EvolutionTrace:
    return EvolutionTrace(
        rows=np.array(snaps, dtype=float).reshape(-1, len(TRACE_COLUMNS)))
