"""Closed-form interaction engine: phase masks, photon orders, free flight.

The near-field interaction multiplies the envelope by exp(i dphi) with
dphi(x, y) = P(y) cos(dk x - theta), one real coupling profile turned by one
phase.  At any laser phase the Jacobi-Anger identity resolves the result into
photon orders n with transverse amplitudes
i^|n| J_|n|(P(y)) e^{-i n theta} g_perp(y), which this module evaluates
exactly, as a truncated power series, and in the single-path weak-field limit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.special

from .core import (Grid2D, Wavepacket, _run_blocks, block_pool, check_coverage,
                   from_momentum, row_blocks, to_momentum, unitary_transform_1d)
from .errors import ConfigurationError, DomainError
from .nearfield import CouplingProfile
from .units import ELECTRON_MASS, HBAR


@dataclass(frozen=True)
class PhaseMask:
    """Interaction phase P(y) cos(dk x - theta) on a grid, kept as its 1D
    factors and evaluated a row block at a time."""

    coupling: np.ndarray
    cos_x: np.ndarray
    grid: Grid2D

    def phase(self, rows: slice) -> np.ndarray:
        """The phase on the given grid rows, shape (rows, nx)."""
        return self.coupling[rows, None] * self.cos_x[None, :]

def build_phase_mask(profile: CouplingProfile, grid: Grid2D) -> PhaseMask:
    """The interaction phase on the grid; no full-grid array is built."""
    if len(profile.y) != grid.ny or not np.allclose(
            profile.y, grid.y, rtol=0.0, atol=1e-12):
        raise ConfigurationError(
            "coupling profile is not sampled on the grid's y axis")
    return PhaseMask(coupling=profile.coupling,
                     cos_x=np.cos(profile.delta_k * grid.x - profile.theta), grid=grid)


def apply_interaction(psi: Wavepacket, mask: PhaseMask) -> Wavepacket:
    """Multiply the envelope by the unimodular interaction factor, by row block."""
    if mask.grid != psi.grid:
        raise ConfigurationError("mask and wavepacket live on different grids")
    amps = psi.amplitudes
    out = np.empty(amps.shape, dtype=np.complex128)

    def interact(rows):
        # cos(phase) + i sin(phase) is exp(1j * phase) bit for bit except at
        # phase -0: 1j * phase has imaginary part 0 + (-0) = +0 there, while
        # sin(-0) is -0, and that sign reaches the product where an amplitude
        # has a -0 part.  phase += 0.0 turns -0 into +0 and changes nothing
        # else.  The factor must be the left operand of the in-place multiply
        # to keep the bits (signed zeros included) of psi * exp(1j * phase);
        # np.multiply(psi, e, out=e) flips some.
        factor = out[rows]
        phase = mask.phase(rows)
        phase += 0.0
        np.cos(phase, out=factor.real)
        np.sin(phase, out=factor.imag)
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
    """Exact photon-order amplitudes a_n = i^|n| J_|n|(P) e^{-i n theta} g_perp.

    P is signed: J_m(-x) = (-1)^m J_m(x) carries its sign into every order.
    """
    gy = transverse_envelope(psi)
    orders = np.arange(-n_max, n_max + 1)
    amps = np.empty((len(orders), len(gy)), dtype=np.complex128)
    for i, n in enumerate(orders):
        amps[i] = (1j ** abs(n) * cmath.exp(-1j * n * profile.theta)
                   * scipy.special.jv(abs(n), profile.coupling) * gy)
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

    Keeps only the most direct path,
    a_n = i^|n| (P/2)^|n| / |n|! e^{-i n theta} g_perp, whose spectrum is the
    |n|-fold convolution of the initial transverse spectrum with the coupling
    transform.
    """
    gy = transverse_envelope(psi)
    amp = (1j ** abs(n) * cmath.exp(-1j * n * profile.theta) / math.factorial(abs(n))
           * (profile.coupling / 2.0) ** abs(n) * gy)
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
