"""Grids, wavepackets and momentum transforms.

Wavepacket amplitudes hold the slowly varying envelope g(x, y); the carrier
exp(i k0 x - i E0 t / hbar) is kept analytically and never sampled, because
the carrier wavelength (~0.12 nm at 100 eV) is far below practical grid
spacings.  Momentum axes are therefore reported as absolute wavenumbers
k_x = k0 + kappa_x, where kappa is the envelope frequency.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.fft as _fft

from .errors import ConfigurationError, DomainError
from .units import ELECTRON_MASS, HBAR, electron_kinematics, kinetic_energy

_SQRT8LN2 = math.sqrt(8.0 * math.log(2.0))  # FWHM / sigma for a Gaussian density
_FOUR_LN2 = 4.0 * math.log(2.0)
#: A packet must fit inside its grid to this many standard deviations.
COVERAGE_SIGMAS = 4.0
#: Size of one complex128 row block of grid-wide elementwise work; the block
#: height follows from the row length (32 rows at nx = 2048).
BLOCK_BYTES = 1 << 20
#: Cells of padding at the end of each row of a full-grid FFT buffer: 64
#: bytes, one cache line.  A power-of-two row stride maps every row to the
#: same cache sets, so the column pass of a 2D FFT evicts its own lines.
FFT_ROW_PAD = 4


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid2D:
    """Uniform real-space grid with power-of-two cell counts.

    x0, y0 are the coordinates of the first cell center; cell j sits at
    x0 + j*dx.  The implied momentum grid has spacing 2*pi/(n*d) per axis.
    """

    nx: int
    ny: int
    dx: float
    dy: float
    x0: float
    y0: float

    def __post_init__(self):
        if not (_is_power_of_two(self.nx) and _is_power_of_two(self.ny)):
            raise DomainError(
                f"grid counts must be powers of two, got {self.nx} x {self.ny}"
            )
        if not (self.dx > 0.0 and self.dy > 0.0):
            raise DomainError("grid spacings must be positive")

    @classmethod
    def centered(cls, nx: int, ny: int, dx: float, dy: float) -> "Grid2D":
        """Grid whose cell centers include the origin, spanning ~[-L/2, L/2)."""
        return cls(nx, ny, dx, dy, -(nx // 2) * dx, -(ny // 2) * dy)

    @cached_property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.nx)

    @cached_property
    def y(self) -> np.ndarray:
        return self.y0 + self.dy * np.arange(self.ny)

    @cached_property
    def kx(self) -> np.ndarray:
        """Envelope momentum axis along x, ascending (fftshifted)."""
        return 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(self.nx, self.dx))

    @cached_property
    def ky(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(self.ny, self.dy))

    @property
    def dkx(self) -> float:
        return 2.0 * np.pi / (self.nx * self.dx)

    @property
    def dky(self) -> float:
        return 2.0 * np.pi / (self.ny * self.dy)

    @property
    def extent_x(self) -> float:
        return self.nx * self.dx

    @property
    def extent_y(self) -> float:
        return self.ny * self.dy

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy


@dataclass(frozen=True)
class Wavepacket:
    """Envelope samples on a grid, tagged with time and carrier wavenumber.

    amplitudes has shape (ny, nx); axis 0 runs over y, axis 1 over x.
    """

    grid: Grid2D
    amplitudes: np.ndarray
    t: float
    k0: float

    def __post_init__(self):
        if self.amplitudes.shape != (self.grid.ny, self.grid.nx):
            raise ConfigurationError(
                f"amplitude shape {self.amplitudes.shape} does not match grid "
                f"({self.grid.ny}, {self.grid.nx})"
            )

    @property
    def energy_ev(self) -> float:
        """Carrier kinetic energy E0 = (hbar k0)^2 / 2m."""
        return kinetic_energy(self.k0)

    @property
    def velocity(self) -> float:
        return HBAR * self.k0 / ELECTRON_MASS

    def norm(self) -> float:
        """L2 norm, sqrt(sum |g|^2 dx dy)."""
        a = self.amplitudes
        return math.sqrt(float(np.sum(a.real**2 + a.imag**2)) * self.grid.cell_area)

    def density(self) -> np.ndarray:
        a = self.amplitudes
        return a.real**2 + a.imag**2

    def with_amplitudes(self, amplitudes: np.ndarray, t: float | None = None) -> "Wavepacket":
        return replace(self, amplitudes=amplitudes, t=self.t if t is None else t)


@dataclass(frozen=True)
class MomentumSpectrum:
    """Complex momentum-space field over absolute wavenumbers (k_x, k_y).

    Normalized so that sum |values|^2 dkx dky equals the real-space norm
    squared (Parseval), i.e. the continuum unitary convention with a
    symmetric 1/(2 pi) split.
    """

    values: np.ndarray
    kx: np.ndarray
    ky: np.ndarray
    dkx: float
    dky: float
    k0: float
    t: float
    grid: Grid2D

    def density(self) -> np.ndarray:
        v = self.values
        return v.real**2 + v.imag**2

def _axis_phases(grid: Grid2D) -> tuple[np.ndarray, np.ndarray]:
    # Phase factors referencing the DFT to the physical cell-center coordinates.
    px = np.exp(-1j * grid.kx * grid.x0)
    py = np.exp(-1j * grid.ky * grid.y0)
    return px, py


def row_blocks(grid: Grid2D) -> list[slice]:
    """Row slices of about BLOCK_BYTES of complex128 each, covering the grid."""
    height = max(1, BLOCK_BYTES // (16 * grid.nx))
    return [slice(r, min(r + height, grid.ny)) for r in range(0, grid.ny, height)]


@contextmanager
def block_pool():
    """Thread pool for row-block work, sized by `scipy.fft.get_workers()`.

    With one worker it yields None and the blocks run inline, so a sweep
    point (one FFT worker on a sweep pool thread) starts no nested pool.
    """
    workers = _fft.get_workers()
    if workers == 1:
        yield None
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield pool


def _run_blocks(pool, blocks, fn, *args) -> list:
    """fn(rows, *args) for every row block, inline when pool is None;
    returns the results in block order and re-raises a block's error."""
    if pool is None:
        return [fn(rows, *args) for rows in blocks]
    return list(pool.map(lambda rows: fn(rows, *args), blocks))


def fft_buffer(grid: Grid2D) -> np.ndarray:
    """An uninitialized (ny, nx) complex128 view whose rows lie
    nx + FFT_ROW_PAD cells apart, for a full-grid transform in place."""
    return np.empty((grid.ny, grid.nx + FFT_ROW_PAD), dtype=np.complex128)[:, :grid.nx]


def fft2_copy(grid: Grid2D, a: np.ndarray) -> np.ndarray:
    """fft2 of a, transformed in place in a new `fft_buffer`; a is kept."""
    buf = fft_buffer(grid)
    buf[...] = a
    return _fft.fft2(buf, overwrite_x=True)


def _half_swaps(n: int) -> tuple[tuple[slice, slice], ...]:
    """(destination, source) halves of the shift by n // 2 along an axis of
    even length n: fftshift and ifftshift both swap the two halves."""
    h = n // 2
    return (slice(0, h), slice(h, n)), (slice(h, n), slice(0, h))


def momentum_blocks(psi: Wavepacket, fn, out: np.ndarray | None = None) -> None:
    """Transform the envelope and hand each row block of the spectrum, in
    the normalization of :func:`to_momentum`, to fn(rows, block).

    The block is out[rows], or a scratch buffer when out is None: fftshift
    by index copies, then the scale, the x phases and the y phases, each
    applied in place in the order of the full-grid expression.
    """
    g = psi.grid
    raw = fft2_copy(g, psi.amplitudes)
    scale = g.cell_area / (2.0 * np.pi)
    px, py = _axis_phases(g)
    hy = g.ny // 2  # power-of-two counts: shifts by half

    def shifted(rows):
        if out is None:
            block = np.empty((rows.stop - rows.start, g.nx), dtype=np.complex128)
        else:
            block = out[rows]
        # Output row i holds input row (i + hy) mod ny; split where that wraps.
        for lo, hi in ((rows.start, min(rows.stop, hy)),
                       (max(rows.start, hy), rows.stop)):
            if lo < hi:
                src = lo + hy if lo < hy else lo - hy
                dst = block[lo - rows.start:hi - rows.start]
                for to, frm in _half_swaps(g.nx):
                    dst[:, to] = raw[src:src + hi - lo, frm]
        block *= scale
        block *= px[None, :]
        block *= py[rows, None]
        fn(rows, block)

    with block_pool() as pool:
        _run_blocks(pool, row_blocks(g), shifted)


def to_momentum(psi: Wavepacket) -> MomentumSpectrum:
    """Forward transform of the envelope, x -> k with an exp(-i k x) kernel.

    The returned k_x axis is shifted by the carrier, so a plane-wave envelope
    peaks at k_x = k0.
    """
    g = psi.grid
    vals = np.empty((g.ny, g.nx), dtype=np.complex128)
    momentum_blocks(psi, lambda rows, block: None, out=vals)
    return MomentumSpectrum(
        values=vals,
        kx=psi.k0 + g.kx,
        ky=g.ky.copy(),
        dkx=g.dkx,
        dky=g.dky,
        k0=psi.k0,
        t=psi.t,
        grid=g,
    )


def from_momentum(spectrum: MomentumSpectrum) -> Wavepacket:
    """Inverse of :func:`to_momentum`; round trips to machine precision.
    The amplitudes are a :func:`fft_buffer` view."""
    g = spectrum.grid
    px, py = _axis_phases(g)
    cx, cy = np.conj(px), np.conj(py)
    # ifftshift a quadrant at a time into the transform's buffer, each
    # quadrant phased in place: the bits of the full-grid expression.
    raw = fft_buffer(g)
    for to_y, frm_y in _half_swaps(g.ny):
        for to_x, frm_x in _half_swaps(g.nx):
            quad = raw[to_y, to_x]
            np.multiply(spectrum.values[frm_y, frm_x], cx[None, frm_x], out=quad)
            quad *= cy[frm_y, None]
    raw /= g.cell_area / (2.0 * np.pi)
    amps = _fft.ifft2(raw, overwrite_x=True)
    return Wavepacket(grid=g, amplitudes=amps, t=spectrum.t, k0=spectrum.k0)


def _gaussian_profiles(grid: Grid2D, fwhm_x: float, fwhm_y: float,
                       center: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """The unnormalized 1D Gaussians along y and x, after the width checks."""
    if not (fwhm_x > 0.0 and fwhm_y > 0.0):
        raise DomainError("FWHM values must be positive")
    if grid.extent_x < 4.0 * fwhm_x or grid.extent_y < 4.0 * fwhm_y:
        raise ConfigurationError(
            f"grid extent ({grid.extent_x:g} x {grid.extent_y:g} nm) must be "
            f">= 4x FWHM ({fwhm_x:g} x {fwhm_y:g} nm)"
        )
    cx, cy = center
    sx = fwhm_x / _SQRT8LN2
    sy = fwhm_y / _SQRT8LN2
    # |g|^2 is Gaussian with std sigma, so the amplitude carries 1/(4 sigma^2).
    gx = np.exp(-((grid.x - cx) ** 2) / (4.0 * sx * sx))
    gy = np.exp(-((grid.y - cy) ** 2) / (4.0 * sy * sy))
    return gy, gx


def gaussian_wavepacket(
    grid: Grid2D,
    energy_ev: float,
    fwhm_x: float,
    fwhm_y: float,
    center: tuple[float, float] = (0.0, 0.0),
) -> Wavepacket:
    """Normalized Gaussian envelope with carrier along +x.

    Widths are FWHM of the probability density |psi|^2.  The grid extent must
    be at least four times each FWHM so the envelope is well contained.
    """
    gy, gx = _gaussian_profiles(grid, fwhm_x, fwhm_y, center)
    k0, _ = electron_kinematics(energy_ev)
    return separable_packet(grid, k0, gy, gx)


def separable_packet(grid: Grid2D, k0: float, gy: np.ndarray, gx: np.ndarray,
                     t: float = 0.0) -> Wavepacket:
    """The packet gy(y) gx(x) on the grid, normalized in 2D, formed once.

    Real factors have their product written into the real part of a zeroed
    complex array, which is then scaled by 1 / norm: the bits of dividing
    the complex product by the norm, which numpy does by multiplying with
    the reciprocal and leaves the imaginary parts +0.
    """
    if np.iscomplexobj(gy) or np.iscomplexobj(gx):
        amps = gy[:, None] * gx[None, :]
        amps *= 1.0 / math.sqrt(float(np.vdot(amps, amps).real) * grid.cell_area)
    else:
        amps = np.zeros((grid.ny, grid.nx), dtype=np.complex128)
        np.multiply(gy[:, None], gx[None, :], out=amps.real)
        amps.real *= 1.0 / math.sqrt(float(np.sum(amps.real**2)) * grid.cell_area)
    return Wavepacket(grid=grid, amplitudes=amps, t=t, k0=k0)


def gaussian_factors(grid: Grid2D, fwhm_x: float, fwhm_y: float,
                     center: tuple[float, float] = (0.0, 0.0)
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The factors (g_y, g_x) of `gaussian_wavepacket`'s envelope
    g_y(y) g_x(x), each normalized in 1D: sum |g|^2 d = 1 on its axis."""
    gy, gx = _gaussian_profiles(grid, fwhm_x, fwhm_y, center)
    gx /= math.sqrt(float(np.sum(gx**2)) * grid.dx)
    gy /= math.sqrt(float(np.sum(gy**2)) * grid.dy)
    return gy, gx


def bandwidth_to_fwhm_x(bandwidth_ev: float, energy_ev: float) -> float:
    """Longitudinal density FWHM of a transform-limited packet with the given
    kinetic-energy FWHM."""
    _, v0 = electron_kinematics(energy_ev)
    fwhm_k = bandwidth_ev / (HBAR * v0)
    return _FOUR_LN2 / fwhm_k


def chirp_flight_time(bandwidth_ev: float, energy_ev: float,
                      target_temporal_fwhm_fs: float) -> float:
    """Free-flight time stretching a transform-limited packet to the target
    temporal spread while keeping its energy bandwidth."""
    _, v0 = electron_kinematics(energy_ev)
    fwhm_k = bandwidth_ev / (HBAR * v0)
    sigma_k = fwhm_k / _SQRT8LN2
    sigma_x0 = 1.0 / (2.0 * sigma_k)
    sigma_xt = v0 * target_temporal_fwhm_fs / _SQRT8LN2
    if sigma_xt <= sigma_x0:
        raise ConfigurationError(
            "target temporal spread is below the transform limit")
    return math.sqrt(sigma_xt**2 - sigma_x0**2) * ELECTRON_MASS / (HBAR * sigma_k)


def axis_moments(marg: np.ndarray, coords: np.ndarray,
                 mass: float) -> tuple[float, float]:
    """Mean and standard deviation of coords weighted by marg / mass."""
    mean = float((marg * coords).sum()) / mass
    var = float((marg * (coords - mean) ** 2).sum()) / mass
    return mean, math.sqrt(max(var, 0.0))


def axis_marginals(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The x and y marginals of a density sampled on (y, x), unscaled."""
    return rho.sum(axis=0), rho.sum(axis=1)


def check_coverage(grid: Grid2D, marginals, tau: float = 0.0, spectral=None,
                   axes: str = "xy") -> None:
    """Require a packet's +-COVERAGE_SIGMAS support to fit inside the grid on
    each of the given axes, after tau fs of free flight.

    marginals are the packet's x and y density marginals on grid.x and
    grid.y, in any scale; spectral, required when tau is nonzero, are those of
    its momentum density on grid.kx and grid.ky.  The width after the flight
    is hypot(sigma, hbar sigma_k tau / m).
    """
    if not tau:
        spectral = (None, None)
    for name, coords, d, k, marg, spec in zip(axes, (grid.x, grid.y), (grid.dx, grid.dy),
                                              (grid.kx, grid.ky), marginals, spectral):
        mean, sig = axis_moments(marg, coords, float(marg.sum()))
        sig_k = 0.0 if spec is None else axis_moments(spec, k, float(spec.sum()))[1]
        width = math.hypot(sig, HBAR * sig_k * tau / ELECTRON_MASS)
        if not (mean - COVERAGE_SIGMAS * width >= coords[0]
                and mean + COVERAGE_SIGMAS * width <= coords[-1]):
            # The centre to a thousandth of a cell, so that the rounding noise
            # of a centred packet prints as 0 (round gives an int: never -0).
            centre = round(mean / (1e-3 * d)) * (1e-3 * d)
            raise ConfigurationError(
                f"grid does not cover the wavepacket to {COVERAGE_SIGMAS:g} "
                f"sigma along {name} after {tau:g} fs of free flight (center "
                f"{centre:.3g} nm, sigma {width:.3g} nm)")


def fwhm_interpolated(coords: np.ndarray, values: np.ndarray) -> float:
    """Full width at half maximum with linear interpolation at the crossings."""
    values = np.asarray(values, dtype=float)
    imax = int(np.argmax(values))
    half = values[imax] / 2.0
    if values[imax] <= 0.0:
        raise DomainError("profile has no positive maximum")
    above = values >= half
    idx = np.nonzero(above)[0]
    i_lo, i_hi = idx[0], idx[-1]

    def _cross(i_in, i_out):
        # linear interpolation between the inside and outside samples
        if i_out < 0 or i_out >= len(values):
            return coords[i_in]
        f = (values[i_in] - half) / (values[i_in] - values[i_out])
        return coords[i_in] + f * (coords[i_out] - coords[i_in])

    left = _cross(i_lo, i_lo - 1)
    right = _cross(i_hi, i_hi + 1)
    return float(abs(right - left))


def temporal_spread(psi: Wavepacket) -> float:
    """Temporal FWHM in fs: longitudinal density FWHM divided by v0."""
    g = psi.grid
    profile = psi.density().sum(axis=0) * g.dy
    width = fwhm_interpolated(g.x, profile)
    return width / psi.velocity


def unitary_transform_1d(values: np.ndarray, y: np.ndarray):
    """Unitary continuum Fourier transform over the last axis, y -> k_y.

    `values` is sampled on the uniform grid `y`; returns the ascending k_y
    axis and the transform, phase-referenced to the physical coordinates.
    """
    steps = np.diff(y)
    if not np.allclose(steps, steps[0], rtol=1e-12, atol=0.0):
        raise ConfigurationError("profile must be sampled on a uniform y grid")
    dy = float(steps[0])
    ky = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(len(y), dy))
    out = _fft.fft(values, axis=-1)
    # fftshift in place, a row at a time through a copy of its tail.  The
    # halves of one row of even length do not overlap, so numpy needs no
    # buffer of its own, as it would for the halves of a whole 2D array.
    n, s = out.shape[-1], out.shape[-1] // 2
    for row in out.reshape(-1, n):
        tail = row[n - s:].copy()
        row[s:] = row[:n - s]
        row[:s] = tail
    out *= dy / math.sqrt(2.0 * math.pi)
    out *= np.exp(-1j * ky * y[0])
    return ky, out


def flight_phasor(n: int, d: float, tau: float) -> np.ndarray:
    """exp(-i hbar k^2 tau / 2m) on the unshifted FFT frequencies of n cells."""
    k = 2.0 * np.pi * np.fft.fftfreq(n, d)
    return np.exp(-1j * HBAR * tau / (2.0 * ELECTRON_MASS) * k**2)
