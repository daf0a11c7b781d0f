"""Observables: densities, crosscuts, sideband populations, scan metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (Wavepacket, fft2_copy, fwhm_interpolated, momentum_squared,
                   to_momentum)
from .errors import AnalysisError, ConfigurationError, DomainError
from .nearfield import CouplingProfile
from .units import ELECTRON_MASS, HBAR

#: A sideband bin must span at least this many k_x cells.
SIDEBAND_MIN_CELLS = 6
#: max_deflection counts k_y rows down to this fraction of the peak marginal.
DEFLECTION_LEVEL = 0.01


@dataclass(frozen=True)
class DensityMap:
    """Momentum-space probability density with absolute wavenumber axes."""

    values: np.ndarray
    kx: np.ndarray
    ky: np.ndarray
    dkx: float
    dky: float
    k0: float


def momentum_density(psi: Wavepacket) -> DensityMap:
    """|to_momentum(psi)|^2, squared a row block at a time; the complex
    spectrum is never kept."""
    g = psi.grid
    return density_map(psi, momentum_squared(g, fft2_copy(g, psi.amplitudes)))


def density_map(psi: Wavepacket, values: np.ndarray) -> DensityMap:
    """The DensityMap of values, a momentum density of psi on its grid."""
    g = psi.grid
    return DensityMap(values=values, kx=psi.k0 + g.kx, ky=g.ky.copy(),
                      dkx=g.dkx, dky=g.dky, k0=psi.k0)


@dataclass(frozen=True)
class Crosscut:
    """1D section through a density map.

    axis "kx" varies k_x at fixed k_y = value; axis "ky" varies k_y at
    fixed k_x = value.
    """

    axis: str
    value: float
    coords: np.ndarray
    density: np.ndarray


def crosscut(dmap: DensityMap, axis: str, value: float) -> Crosscut:
    """Extract a section, linearly interpolating between adjacent rows."""
    if axis == "kx":
        fixed, coords, data = dmap.ky, dmap.kx, dmap.values
    elif axis == "ky":
        fixed, coords, data = dmap.kx, dmap.ky, dmap.values.T
    else:
        raise DomainError(f"axis must be 'kx' or 'ky', got {axis!r}")
    if value < fixed[0] or value > fixed[-1]:
        raise DomainError(
            f"cut position {value:g} outside [{fixed[0]:g}, {fixed[-1]:g}]")
    pos = (value - fixed[0]) / (fixed[1] - fixed[0])
    i0 = min(int(math.floor(pos)), len(fixed) - 2)
    frac = pos - i0
    cut = (1.0 - frac) * data[i0] + frac * data[i0 + 1]
    return Crosscut(axis=axis, value=value, coords=coords.copy(), density=cut)


@dataclass(frozen=True)
class SidebandTable:
    """Populations binned by photon order, and each bin's rms k_y when the
    density it came from was at hand."""

    orders: np.ndarray
    populations: np.ndarray
    ky_spread: np.ndarray | None

    def population(self, n: int) -> float:
        idx = np.nonzero(self.orders == n)[0]
        if len(idx) != 1:
            raise DomainError(f"order {n} not in table")
        return float(self.populations[idx[0]])


def check_sideband_spacing(delta_k: float, dkx: float, nx: int) -> None:
    """Reject a sideband spacing that spans fewer than SIDEBAND_MIN_CELLS
    k_x cells, which no bin of `sideband_populations` could resolve, or more
    than nx - 2 cells, which leaves the nx-cell k_x window no complete bin
    of order 0 (see `bin_sidebands`)."""
    if delta_k < SIDEBAND_MIN_CELLS * dkx:
        raise ConfigurationError(
            f"sideband spacing {delta_k:g} spans fewer than {SIDEBAND_MIN_CELLS} grid "
            f"cells (dkx = {dkx:g}); refine the momentum grid"
        )
    if delta_k > (nx - 2) * dkx:
        raise ConfigurationError(
            f"sideband spacing {delta_k:g} is wider than the k_x window allows "
            f"({(nx - 2) * dkx:g} = (nx - 2) dkx), so order 0 has no complete bin; "
            f"check the wavelength or refine the spatial grid"
        )


def sideband_populations(dmap: DensityMap, k0: float, delta_k: float) -> SidebandTable:
    """Integrate k_x bins of width delta_k centered on k0 + n delta_k, with
    each bin's rms k_y (see `bin_sidebands`)."""
    check_sideband_spacing(delta_k, dmap.dkx, len(dmap.kx))
    mass_x = dmap.values.sum(axis=0) * dmap.dky * dmap.dkx
    # Summed over k_y rows in order, as sum(axis=0) of the weighted grid,
    # without forming that grid.
    ky2_x = np.einsum("y,yx->x", dmap.ky**2, dmap.values) * dmap.dky * dmap.dkx
    return bin_sidebands(dmap.kx, k0, delta_k, mass_x, ky2_x)


def bin_sidebands(kx: np.ndarray, k0: float, delta_k: float, mass_x: np.ndarray,
                  ky2_x: np.ndarray | None = None) -> SidebandTable:
    """Sum the k_x marginal of the mass, mass_x on the absolute axis kx, over
    bins of width delta_k centered on k0 + n delta_k.

    Only complete bins inside the grid are reported, so the populations sum
    to at most the total mass.  ky2_x, the same marginal weighted by k_y^2,
    gives each bin's rms k_y; without it the table has no spreads.
    """
    offs = kx - k0
    n_lo = int(math.ceil((offs[0] + 0.5 * delta_k) / delta_k))
    n_hi = int(math.floor((offs[-1] - 0.5 * delta_k) / delta_k))
    orders = np.arange(n_lo, n_hi + 1)
    # idx never decreases along the ascending kx: each bin is one slice.
    idx = np.floor(offs / delta_k + 0.5).astype(int)
    edges = np.searchsorted(idx, np.arange(n_lo, n_hi + 2))
    bins = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    pops = np.array([mass_x[b].sum() for b in bins], dtype=float)
    spread = None if ky2_x is None else np.array(
        [math.sqrt(ky2_x[b].sum() / m) if m > 0.0 else 0.0 for b, m in zip(bins, pops)])
    return SidebandTable(orders=orders, populations=pops, ky_spread=spread)


def find_peaks(coords: np.ndarray, values: np.ndarray,
               threshold: float = 0.01) -> tuple[np.ndarray, np.ndarray]:
    """Local maxima above threshold*max, refined by 3-point parabolas.

    Returns (positions, heights) in ascending position order.
    """
    v = np.asarray(values, dtype=float)
    if len(v) < 3:
        raise AnalysisError("profile too short for peak detection")
    vmax = float(v.max())
    if vmax <= 0.0:
        raise AnalysisError("profile has no positive values")
    level = threshold * vmax
    inner = v[1:-1]
    is_peak = (inner >= v[:-2]) & (inner > v[2:]) & (inner >= level)
    idx = np.nonzero(is_peak)[0] + 1
    positions = []
    heights = []
    for i in idx:
        y0, y1, y2 = v[i - 1], v[i], v[i + 1]
        denom = y0 - 2.0 * y1 + y2
        shift = 0.5 * (y0 - y2) / denom if denom != 0.0 else 0.0
        shift = float(np.clip(shift, -0.5, 0.5))
        positions.append(coords[i] + shift * (coords[1] - coords[0]))
        heights.append(y1 - 0.25 * (y0 - y2) * shift)
    return np.array(positions), np.array(heights)


def peak_spacing(cut: Crosscut) -> float:
    """Median spacing of adjacent local maxima above 1% of the maximum."""
    positions, _ = find_peaks(cut.coords, cut.density)
    if len(positions) < 2:
        raise AnalysisError(
            f"need at least two peaks to measure a spacing, found {len(positions)}")
    return float(np.median(np.diff(positions)))


def energy_axis(kx: np.ndarray, k0: float) -> tuple[np.ndarray, np.ndarray]:
    """Energy change per k_x column: exact and first order in (k_x - k0)."""
    kx = np.asarray(kx, dtype=float)
    exact = HBAR**2 * (kx**2 - k0**2) / (2.0 * ELECTRON_MASS)
    first = HBAR**2 * k0 * (kx - k0) / ELECTRON_MASS
    return exact, first


def deflection_angle(ky, k0: float):
    """Transverse scattering angle atan(k_y / k0) in degrees."""
    if not k0 > 0.0:
        raise DomainError("carrier wavenumber must be positive")
    return np.degrees(np.arctan(np.asarray(ky, dtype=float) / k0))


def max_deflection(dmap: DensityMap) -> float:
    """Largest |deflection| carrying at least DEFLECTION_LEVEL*max marginal density."""
    return marginal_deflection(dmap.ky, dmap.values.sum(axis=1), dmap.k0)


def marginal_deflection(ky: np.ndarray, marginal: np.ndarray, k0: float) -> float:
    """`max_deflection` from the k_y marginal of the density, in any scale."""
    level = DEFLECTION_LEVEL * float(marginal.max())
    sel = np.nonzero(marginal >= level)[0]
    ky_max = max(abs(ky[sel[0]]), abs(ky[sel[-1]]))
    return float(deflection_angle(ky_max, k0))


def energy_bandwidth_fwhm(psi: Wavepacket) -> float:
    """FWHM of the kinetic-energy density, in eV.

    Maps the longitudinal momentum marginal onto the exact energy axis; the
    half-width (fwhm/2) is the conventional single-sided energy spread.
    """
    spec = to_momentum(psi)
    marg = spec.density().sum(axis=0)
    e_exact, _ = energy_axis(spec.kx, psi.k0)
    return fwhm_interpolated(e_exact, marg)


def transverse_splitting(profile: CouplingProfile, envelope=None) -> float:
    """Transverse diffraction scale delta_ky of a coupling profile.

    Locates the maximum y_slit of the coupling magnitude |P| (weighted
    by the transverse envelope when given) and returns pi / (2 y_slit), the
    fringe half-spacing of an effective double slit at +-y_slit.  Unlike the
    separation of the lobes of the coupling transform, this measure stays
    single-valued through the coupling recurrences where lobes come and go.
    """
    mag = np.abs(profile.coupling)
    if envelope is not None:
        mag = mag * np.abs(np.asarray(envelope))
    if float(mag.max()) <= 0.0:
        raise AnalysisError("coupling profile carries no weight")
    positions, heights = find_peaks(profile.y, mag, threshold=0.5)
    if len(positions) == 0:
        raise AnalysisError("coupling profile has no interior maximum")
    y_slit = float(np.abs(positions[int(np.argmax(heights))]))
    if y_slit <= 0.0:
        raise AnalysisError("degenerate coupling geometry")
    return float(math.pi / (2.0 * y_slit))


def rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    """Relative L2 distance ||a - b|| / ||b||, with b as the reference."""
    ref = math.sqrt(float(np.sum(np.asarray(b, dtype=float) ** 2)))
    if ref == 0.0:
        raise DomainError("reference field is identically zero")
    return math.sqrt(float(np.sum((np.asarray(a, float) - np.asarray(b, float)) ** 2))) / ref
