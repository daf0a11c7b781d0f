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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft as _fft

from .core import Grid2D, Wavepacket, density_moments
from .errors import ConfigurationError, NumericalError
from .nearfield import LaserParams, NearFieldModel, UniformStripeModel
from .units import ELECTRON_CHARGE, ELECTRON_MASS, HBAR

#: Invariant bounds on the per-step phases.
POTENTIAL_PHASE_BOUND = 0.1
KINETIC_PHASE_BOUND = 0.5

#: Mass fraction tolerated within the outer 10% border of the grid.
EDGE_MASS_TOL = 1e-6

#: Size of one complex128 row block of the split step's elementwise work;
#: the block height follows from the row length (32 rows at nx = 2048).
BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class EvolutionParams:
    """Time stepping description for one interaction run."""

    n_steps: int
    t_start: float
    t_end: float
    laser: LaserParams
    model: NearFieldModel
    include_vector_potential: bool = True
    snapshot_stride: int = 50

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

    def reversed(self) -> "EvolutionParams":
        """Parameters retracing this window backward (conjugated steps)."""
        return replace(self, t_start=self.t_end, t_end=self.t_start)


@dataclass(frozen=True)
class EvolutionTrace:
    """Per-snapshot observables recorded during the evolution."""

    t: np.ndarray
    norm: np.ndarray
    x_mean: np.ndarray
    kx_mean: np.ndarray
    ky_mean: np.ndarray
    energy_ev: np.ndarray


def _phase_bounds(laser: LaserParams, model: NearFieldModel, grid: Grid2D):
    """Peak interaction energy, k^2 at the grid corner, and the steps dt_pot
    and dt_kin at which the potential and kinetic phases reach their bounds."""
    if isinstance(model, UniformStripeModel):
        raise ConfigurationError(
            "the uniform stripe model is synthetic and has no potential; "
            "run it through the analytic engine"
        )
    v_peak = abs(ELECTRON_CHARGE) * model.peak_potential(laser.field_v_per_nm)
    kmax_sq = (math.pi / grid.dx) ** 2 + (math.pi / grid.dy) ** 2
    dt_pot = POTENTIAL_PHASE_BOUND * HBAR / v_peak if v_peak > 0.0 else math.inf
    dt_kin = KINETIC_PHASE_BOUND * 2.0 * ELECTRON_MASS / (HBAR * kmax_sq)
    return v_peak, kmax_sq, dt_pot, dt_kin


def validate_evolution(params: EvolutionParams, grid: Grid2D) -> None:
    """Check the per-step phase bounds before any stepping happens."""
    v_peak, kmax_sq, _, _ = _phase_bounds(params.laser, params.model, grid)
    v_phase = abs(params.dt) * v_peak / HBAR
    if v_phase > POTENTIAL_PHASE_BOUND * (1.0 + 1e-12):
        raise ConfigurationError(
            f"potential phase per step {v_phase:.3g} rad exceeds the "
            f"{POTENTIAL_PHASE_BOUND} rad bound; reduce dt"
        )
    k_phase = abs(params.dt) * HBAR * kmax_sq / (2.0 * ELECTRON_MASS)
    if k_phase > KINETIC_PHASE_BOUND * (1.0 + 1e-12):
        raise ConfigurationError(
            f"kinetic phase per step {k_phase:.3g} rad exceeds the "
            f"{KINETIC_PHASE_BOUND} rad bound; reduce dt"
        )


def choose_steps(laser: LaserParams, model: NearFieldModel, grid: Grid2D,
                 t_start: float, t_end: float, safety: float = 0.5,
                 include_vector_potential: bool = True,
                 snapshot_stride: int = 50,
                 dt: float | None = None) -> EvolutionParams:
    """Largest time step satisfying both phase bounds, with a safety factor.

    The step is then shrunk so an integer number of steps covers the window.
    A requested `dt` instead splits the window into the nearest whole number
    of steps of that size; the phase bounds are then checked, not imposed.
    """
    if not 0.0 < safety <= 1.0:
        raise ConfigurationError("safety factor must be in (0, 1]")
    window = t_end - t_start
    if not window > 0.0:
        raise ConfigurationError("evolution window must have positive length")
    _, _, dt_pot, dt_kin = _phase_bounds(laser, model, grid)
    if dt is None:
        dt0 = safety * min(dt_pot, dt_kin)
        if not dt0 > 0.0 or not math.isfinite(window / dt0):
            raise ConfigurationError("cannot choose a positive time step")
        n = max(1, int(math.ceil(window / dt0 - 1e-12)))
    else:
        n = max(1, int(round(window / dt)))
    params = EvolutionParams(
        n_steps=n, t_start=t_start, t_end=t_end,
        laser=laser, model=model,
        include_vector_potential=include_vector_potential,
        snapshot_stride=snapshot_stride,
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

    The elementwise work of each step runs in row blocks on a thread pool of
    `scipy.fft.get_workers()` threads, so one setting sizes both the FFTs and
    the blocks; every block computes the same expressions as the whole grid.
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

    x = grid.x
    y_col = grid.y[:, None]
    cell = grid.cell_area
    n_border_x = max(1, grid.nx // 10)
    n_border_y = max(1, grid.ny // 10)
    height = max(1, BLOCK_BYTES // (16 * grid.nx))
    blocks = [slice(r, r + height) for r in range(0, grid.ny, height)]

    def kick(rows, psi, x_t, scale):
        theta = model.potential(x_t, y_col[rows], field)
        theta *= scale
        factor = np.empty(theta.shape, dtype=np.complex128)
        np.cos(theta, out=factor.real)
        np.sin(theta, out=factor.imag)
        psi[rows] *= factor

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

    snaps: list[tuple[float, float, float, float, float, float]] = []

    def record(t, psi_r, spec_raw):
        rho = psi_r.real**2 + psi_r.imag**2
        mass, (x_mean, _), _ = density_moments(rho, x, grid.y)
        norm = math.sqrt(mass * cell)
        if not math.isfinite(norm):
            raise NumericalError(
                f"non-finite amplitudes at t={t:g} fs",
                partial=_trace_from(snaps),
            )
        border = (float(rho[:, :n_border_x].sum()) + float(rho[:, -n_border_x:].sum())
                  + float(rho[:n_border_y, n_border_x:-n_border_x].sum())
                  + float(rho[-n_border_y:, n_border_x:-n_border_x].sum()))
        if border / mass > EDGE_MASS_TOL:
            raise NumericalError(
                f"wavepacket reached the outer 10% grid border at t={t:g} fs "
                f"(border mass fraction {border / mass:.3g})",
                partial=_trace_from(snaps),
            )
        rho_k = spec_raw.real**2 + spec_raw.imag**2
        mass_k, (kx_mean, ky_mean), _ = density_moments(rho_k, kx1, ky1)
        e_mean = (HBAR**2 / (2.0 * ELECTRON_MASS)) * float(
            (rho_k * ((psi0.k0 + kx1[None, :]) ** 2 + ky1[:, None] ** 2)).sum()
        ) / mass_k
        snaps.append((t, norm, x_mean, psi0.k0 + kx_mean, ky_mean, e_mean))
        if snapshot_callback is not None:
            snapshot_callback(t, Wavepacket(grid=grid, amplitudes=psi_r.copy(),
                                            t=t, k0=psi0.k0))

    t0 = params.t_start
    t_end = params.t_end
    psi = np.array(psi0.amplitudes, dtype=np.complex128, copy=True)
    phase_sign = -q / HBAR  # exp(-i q Phi dt / hbar) = exp(i phase_sign * Phi * dt)
    with ThreadPoolExecutor(max_workers=_fft.get_workers()) as pool:
        spec = _fft.fft2(psi)
        record(t0, psi, spec)
        # Leading half segment [t0, t0 + dt/2].
        segment(pool, spec, kin_half, t0, t0 + 0.5 * dt)
        for k in range(n):
            t_mid = t0 + (k + 0.5) * dt
            psi = _fft.ifft2(spec, overwrite_x=True)
            scale = phase_sign * dt * math.cos(laser.omega * t_mid + laser.phase_rad)
            _run_blocks(pool, blocks, kick, psi, x[None, :] + v0 * t_mid, scale)
            take_snap = ((k + 1) % params.snapshot_stride == 0) or (k == n - 1)
            # Transform in place except where record still needs psi.
            spec = _fft.fft2(psi, overwrite_x=not take_snap)
            if take_snap:
                record(t_mid, psi, spec)
            if k < n - 1:
                segment(pool, spec, kin_full, t_mid, t_mid + dt)
        segment(pool, spec, kin_half, t0 + (n - 0.5) * dt, t_end)
    psi = _fft.ifft2(spec, overwrite_x=True)
    final = Wavepacket(grid=grid, amplitudes=psi, t=t_end, k0=psi0.k0)
    record(t_end, psi, _fft.fft2(psi))
    return final, _trace_from(snaps)


def _run_blocks(pool, blocks, fn, *args) -> None:
    """Run fn(rows, *args) for every row block; re-raises a block's error."""
    for _ in pool.map(lambda rows: fn(rows, *args), blocks):
        pass


def _trace_from(snaps) -> EvolutionTrace:
    arr = np.array(snaps, dtype=float).reshape(-1, 6)
    return EvolutionTrace(
        t=arr[:, 0], norm=arr[:, 1], x_mean=arr[:, 2], kx_mean=arr[:, 3],
        ky_mean=arr[:, 4], energy_ev=arr[:, 5],
    )
