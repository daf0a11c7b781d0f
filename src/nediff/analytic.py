"""Closed-form interaction engine: phase masks, photon orders, free flight.

The near-field interaction multiplies the envelope by exp(i dphi) with
dphi(x, y) = C(y) cos(dk x) + S(y) sin(dk x).  For S = 0 the Jacobi-Anger
identity resolves the result into photon orders n with transverse
amplitudes i^n J_n(C(y)) g_perp(y), which this module evaluates exactly,
as a truncated power series, and in the single-path weak-field limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.special

from .core import (Grid2D, Wavepacket, _run_blocks, block_pool, check_coverage,
                   from_momentum, row_blocks, to_momentum, unitary_transform_1d)
from .errors import ConfigurationError, DomainError, UnsupportedPathError
from .nearfield import CouplingProfile
from .units import ELECTRON_MASS, HBAR


@dataclass(frozen=True)
class PhaseMask:
    """Interaction phase C(y) cos(dk x) + S(y) sin(dk x) on a grid, kept as
    its 1D factors and evaluated a row block at a time."""

    coupling_cos: np.ndarray
    coupling_sin: np.ndarray
    cos_x: np.ndarray
    sin_x: np.ndarray
    grid: Grid2D

    def phase(self, rows: slice) -> np.ndarray:
        """The phase on the given grid rows, shape (rows, nx)."""
        return (self.coupling_cos[rows, None] * self.cos_x[None, :]
                + self.coupling_sin[rows, None] * self.sin_x[None, :])

def build_phase_mask(profile: CouplingProfile, grid: Grid2D) -> PhaseMask:
    """The interaction phase on the grid; no full-grid array is built."""
    if len(profile.y) != grid.ny or not np.allclose(
            profile.y, grid.y, rtol=0.0, atol=1e-12):
        raise ConfigurationError(
            "coupling profile is not sampled on the grid's y axis")
    arg = profile.delta_k * grid.x
    return PhaseMask(coupling_cos=profile.coupling_cos,
                     coupling_sin=profile.coupling_sin,
                     cos_x=np.cos(arg), sin_x=np.sin(arg), grid=grid)


def apply_interaction(psi: Wavepacket, mask: PhaseMask) -> Wavepacket:
    """Multiply the envelope by the unimodular interaction factor, by row block."""
    if mask.grid != psi.grid:
        raise ConfigurationError("mask and wavepacket live on different grids")
    amps = psi.amplitudes
    out = np.empty(amps.shape, dtype=np.complex128)

    def interact(rows):
        # exp first, then psi in place: the factor must be the left operand of
        # the in-place multiply to keep the bits (signed zeros included) of
        # psi * exp(1j * phase); np.multiply(psi, e, out=e) flips some.
        factor = out[rows]
        np.exp(1j * mask.phase(rows), out=factor)
        factor *= amps[rows]

    with block_pool() as pool:
        _run_blocks(pool, row_blocks(psi.grid), interact)
    return psi.with_amplitudes(out)


@dataclass(frozen=True)
class OrderDecomposition:
    """Per-photon-order transverse amplitudes and their spectra.

    orders runs over [-n_max, n_max]; amplitudes[i] is a_n(y) for
    orders[i] and spectra[i] its unitary transform over k_y.
    """

    orders: np.ndarray
    y: np.ndarray
    amplitudes: np.ndarray
    ky: np.ndarray
    spectra: np.ndarray

    def order_index(self, n: int) -> int:
        idx = np.nonzero(self.orders == n)[0]
        if len(idx) != 1:
            raise DomainError(f"order {n} not present in decomposition")
        return int(idx[0])


def transverse_envelope(psi: Wavepacket) -> np.ndarray:
    """Normalized transverse slice through the packet's center column.

    Valid for envelopes that factorize into longitudinal and transverse
    parts, which holds for Gaussian construction and stays true under free
    dispersion.
    """
    rho_x = psi.density().sum(axis=0)
    ix = int(np.argmax(rho_x))
    gy = psi.amplitudes[:, ix].astype(np.complex128)
    dy = psi.grid.dy
    nrm = math.sqrt(float(np.sum(np.abs(gy) ** 2)) * dy)
    if nrm == 0.0:
        raise DomainError("wavepacket has an empty center column")
    return gy / nrm


def order_amplitudes_exact(psi: Wavepacket, profile: CouplingProfile,
                           n_max: int) -> OrderDecomposition:
    """Exact photon-order amplitudes for a pure cosine coupling.

    Requires the sine coupling to vanish (odd-potential symmetry with zero
    near-field phase); otherwise the order structure is not a plain Bessel
    ladder and the caller should apply the full mask instead.
    """
    if profile.max_sin > 1e-9:
        raise UnsupportedPathError(
            "sine coupling is nonzero; photon orders are not Bessel-resolved. "
            "Use build_phase_mask + apply_interaction and bin the spectrum."
        )
    gy = transverse_envelope(psi)
    c = profile.coupling_cos
    orders = np.arange(-n_max, n_max + 1)
    amps = np.empty((len(orders), len(gy)), dtype=np.complex128)
    for i, n in enumerate(orders):
        # i^n J_n = i^|n| J_|n| for both signs of n.
        amps[i] = (1j ** abs(n)) * scipy.special.jv(abs(n), c) * gy
    ky, spectra = unitary_transform_1d(amps, profile.y)
    return OrderDecomposition(orders=orders, y=profile.y.copy(), amplitudes=amps,
                              ky=ky, spectra=spectra)


def order_series_taylor(coupling: float, n: int, l_max: int) -> complex:
    """Partial sum of the excitation-path series for one photon order.

    Sums paths with l = |n| .. l_max photon exchanges in powers
    coupling^(2l - |n|).  The power/factorial bookkeeping follows the Bessel
    expansion, i.e. each power of the coupling carries a factor 1/2
    (coefficient i^(2l-|n|) / (2^(2l-|n|) (l-|n|)! l!)); with all powers of
    two collected as 2^(2l) the partial sums do not converge to the Bessel
    limit, so that variant is not used.  Converges to i^n J_n(coupling).
    """
    n_abs = abs(int(n))
    if l_max < n_abs:
        raise DomainError(f"series depth {l_max} is below the order |n|={n_abs}")
    half = coupling / 2.0
    total = 0.0
    for l in range(n_abs, l_max + 1):
        j = l - n_abs
        term = ((-1.0) ** j) * half ** (2 * j + n_abs) / (
            math.factorial(j) * math.factorial(l))
        total += term
    return (1j ** n_abs) * total


@dataclass(frozen=True)
class OrderSpectrum:
    """Transverse spectrum of a single photon order."""

    order: int
    ky: np.ndarray
    values: np.ndarray


def weak_field_order(psi: Wavepacket, profile: CouplingProfile, n: int) -> OrderSpectrum:
    """Single-path (weak-field) transverse spectrum of order n.

    Keeps only the most direct path, a_n = i^n (C/2)^n / n! g_perp, whose
    spectrum is the (n-fold) convolution of the initial transverse spectrum
    with the coupling transform.
    """
    if n < 0:
        raise DomainError("weak-field orders are indexed by n >= 0")
    gy = transverse_envelope(psi)
    amp = (1j ** n) * (profile.coupling_cos / 2.0) ** n / math.factorial(n) * gy
    ky, vals = unitary_transform_1d(amp, profile.y)
    return OrderSpectrum(order=n, ky=ky, values=vals)


def vacuum_propagate(psi: Wavepacket, tau: float, axes: str = "xy") -> Wavepacket:
    """Free flight for tau fs in the frame comoving with the carrier.

    Multiplies each momentum component by the dispersion phase
    exp(-i hbar (kappa_x^2 + kappa_y^2) tau / 2m), where kappa is measured
    from the carrier; the packet disperses in place instead of translating
    across the periodic grid.  axes "x" restricts the dispersion to the
    longitudinal axis, modelling a long flight whose transverse state is
    re-prepared by an aperture.
    """
    if axes not in ("xy", "x"):
        raise DomainError(f"axes must be 'xy' or 'x', got {axes!r}")
    spec = to_momentum(psi)
    check_coverage(psi, tau, spec, axes)
    kp_x = spec.kx - psi.k0
    phase = kp_x[None, :] ** 2
    if axes == "xy":
        phase = phase + spec.ky[:, None] ** 2
    phase *= -HBAR * tau / (2.0 * ELECTRON_MASS)
    # Rebinding spec frees the unpropagated spectrum before the inverse.
    spec = replace(spec, values=spec.values * np.exp(1j * phase), t=psi.t + tau)
    return from_momentum(spec)
