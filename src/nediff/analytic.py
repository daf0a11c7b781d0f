"""Closed-form interaction engine: phase masks, photon orders, free flight.

The near-field interaction multiplies the envelope by exp(i dphi) with
dphi(x, y) = P(y) cos(dk x - theta), one real coupling profile turned by one
phase.  At any laser phase the Jacobi-Anger identity resolves the result into
photon orders n with transverse amplitudes
i^|n| J_|n|(P(y)) e^{-i n theta} g_y(y), which this module evaluates
exactly, as a truncated power series, and in the single-path weak-field limit,
each from the packet's transverse factor g_y.  For a packet g_y(y) g_x(x),
`interaction_factors` keeps the interacted spectrum as the 1D factors of its
N + 1 cosine orders and their real Gram matrices; the exact orders -N..N are
the same N + 1 Bessel rows, each turned by i^|n| e^{-i n theta}.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft as _fft
import scipy.special

from .core import (Grid2D, Wavepacket, _run_blocks, axis_marginals, block_pool,
                   check_coverage, flight_phasor, from_momentum, row_blocks,
                   to_momentum, unitary_transform_1d)
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

def _check_profile_axis(profile: CouplingProfile, grid: Grid2D) -> None:
    if len(profile.y) != grid.ny or not np.allclose(
            profile.y, grid.y, rtol=0.0, atol=1e-12):
        raise ConfigurationError(
            "coupling profile is not sampled on the grid's y axis")


def build_phase_mask(profile: CouplingProfile, grid: Grid2D) -> PhaseMask:
    """The interaction phase on the grid; no full-grid array is built."""
    _check_profile_axis(profile, grid)
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


def _bessel_rows(coupling: np.ndarray, gy: np.ndarray, y: np.ndarray, n_max: int):
    """J_j(P) for j = 0..n_max, one row each, with the k_y axis and the 1D
    transforms of J_j(P) gy."""
    bessel = scipy.special.jv(np.arange(n_max + 1)[:, None], coupling)
    ky, rows = unitary_transform_1d(bessel * gy, y)
    return bessel, ky, rows


def order_amplitudes_exact(profile: CouplingProfile, gy: np.ndarray,
                           n_max: int) -> OrderDecomposition:
    """Exact photon-order amplitudes a_n = i^|n| J_|n|(P) e^{-i n theta} gy for
    |n| <= n_max, and their spectra; gy is the transverse factor on profile.y.

    Order n is i^|n| e^{-i n theta} times the Bessel row |n| of
    `interaction_factors`, so N + 1 transforms give all 2N + 1 spectra.  P is
    signed: J_m(-x) = (-1)^m J_m(x) carries its sign into every order.
    """
    orders = np.arange(-n_max, n_max + 1)
    bessel, ky, rows = _bessel_rows(profile.coupling, gy, profile.y, n_max)
    turn = np.array([1j ** abs(n) * cmath.exp(-1j * n * profile.theta)
                     for n in orders])[:, None]
    m = np.abs(orders)
    return OrderDecomposition(orders=orders, y=profile.y.copy(),
                              amplitudes=turn * bessel[m] * gy, ky=ky,
                              spectra=turn * rows[m])


#: The Jacobi-Anger sum of `interaction_factors` stops at the first order
#: N >= max|P| with (max|P|/2)^N / N! below this, which bounds |J_N(P)| on
#: every row.
ORDER_TAIL = 1e-18


def order_limit(coupling: np.ndarray) -> int:
    """The highest photon order N that `interaction_factors` keeps."""
    p = float(np.max(np.abs(coupling)))
    n = max(1, math.ceil(p))
    # log((p/2)^n / n!), so that nothing overflows; p <= ORDER_TAIL keeps N = 1.
    while p > ORDER_TAIL and (n * math.log(p / 2.0) - math.lgamma(n + 1)
                              >= math.log(ORDER_TAIL)):
        n += 1
    return n


@dataclass(frozen=True)
class OrderFactors:
    """psi(k_y, k_x) = sum_j a[j](k_y) b[j](k_x) over the cosine orders
    j = 0..N of an interacted packet g_y(y) g_x(x), never formed.

    By Jacobi-Anger, exp(i P cos phi) = sum_j w_j J_j(P) cos(j phi) with
    phi = dk x - theta, w_0 = 1 and w_j = 2 i^j (`weights`); a[j] and b[j]
    are the 1D transforms of J_j(P) g_y and w_j cos(j phi) g_x, as in
    `to_momentum`.  By Parseval the a have the real Gram matrix gram_y = K,
    K_jl = sum_y J_j J_l |g_y|^2 dy, and the b have w_j conj(w_l) C_jl, with
    gram_x = C, C_jl = sum_x cos(j phi) cos(l phi) |g_x|^2 dx.
    """

    a: np.ndarray
    b: np.ndarray
    weights: np.ndarray
    gram_y: np.ndarray
    gram_x: np.ndarray

    def kx_marginal(self) -> np.ndarray:
        """sum over k_y of |psi|^2 dky: sum_jl K_jl Re(b[j] conj(b[l]))."""
        return _real_quadratic_form(self.gram_y, self.b)

    def ky_marginal(self) -> np.ndarray:
        """sum over k_x of |psi|^2 dkx: the same form of C and the w_j a[j]."""
        return _real_quadratic_form(self.gram_x, self.weights[:, None] * self.a)

    def value(self, iy: int, ix: int) -> complex:
        """psi at the grid point (k_y[iy], k_x[ix])."""
        return complex((self.a[:, iy] * self.b[:, ix]).sum())


def _real_quadratic_form(gram: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_jl gram[j, l] Re(z[j] conj(z[l])) per column, for a real symmetric
    gram.  np.einsum calls no BLAS, whose threads would compete with a sweep's."""
    zr = z.view(np.float64)  # (re, im) pairs, summed last
    return np.einsum("jk,jk->k", np.einsum("jl,lk->jk", gram, zr), zr).reshape(-1, 2).sum(1)


def interaction_factors(profile: CouplingProfile, grid: Grid2D,
                        gy: np.ndarray, gx: np.ndarray) -> OrderFactors:
    """The packet gy(y) gx(x) after the interaction with profile, as
    `OrderFactors` for j <= `order_limit`, with no array of the grid's shape."""
    _check_profile_axis(profile, grid)
    n_max = order_limit(profile.coupling)
    j = np.arange(n_max + 1)
    bessel, _, a = _bessel_rows(profile.coupling, gy, grid.y, n_max)
    root = bessel * (np.abs(gy) * math.sqrt(grid.dy))  # so K[j, l] is K[l, j]
    # cos(d phi) = Re e^{i d phi} by powers, off by about d eps; np.cos(d * phi)
    # would round d phi (1e4 rad on fig2).  h[d] = sum_x cos(d phi) |g_x|^2 dx.
    mass_x = (gx.real**2 + gx.imag**2) * grid.dx
    step = np.exp(1j * (profile.delta_k * grid.x - profile.theta))
    power = np.ones_like(step)
    h = np.empty(2 * n_max + 1)
    weights = np.where(j == 0, 1.0, 2.0 * np.array((1.0, 1j, -1.0, -1j))[j % 4])
    beta = np.empty((n_max + 1, grid.nx), dtype=np.complex128)
    for d in range(2 * n_max + 1):
        h[d] = np.einsum("k,k->", power.real, mass_x)
        if d <= n_max:
            np.multiply(power.real, weights[d] * gx, out=beta[d])
        power *= step
    _, b = unitary_transform_1d(beta, grid.x)
    return OrderFactors(a=a, b=b, weights=weights, gram_y=np.einsum("jy,ly->jl", root, root),
                        gram_x=0.5 * (h[np.abs(j[:, None] - j)] + h[j[:, None] + j]))


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


def weak_field_order(profile: CouplingProfile, gy: np.ndarray,
                     n: int) -> tuple[np.ndarray, np.ndarray]:
    """Single-path (weak-field) transverse spectrum of order n, as (ky, values).

    Keeps only the most direct path,
    a_n = i^|n| (P/2)^|n| / |n|! e^{-i n theta} gy, whose spectrum is the
    |n|-fold convolution of the initial transverse spectrum with the coupling
    transform; gy is the transverse factor on profile.y.
    """
    amp = (1j ** abs(n) * cmath.exp(-1j * n * profile.theta) / math.factorial(abs(n))
           * (profile.coupling / 2.0) ** abs(n) * gy)
    return unitary_transform_1d(amp, profile.y)


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
    check_coverage(psi.grid, axis_marginals(psi.density()), tau,
                   axis_marginals(spec.density()), axes)
    kp_x = spec.kx - psi.k0
    phase = kp_x[None, :] ** 2
    if axes == "xy":
        phase = phase + spec.ky[:, None] ** 2
    phase *= -HBAR * tau / (2.0 * ELECTRON_MASS)
    # Rebinding spec frees the unpropagated spectrum before the inverse.
    spec = replace(spec, values=spec.values * np.exp(1j * phase), t=psi.t + tau)
    return from_momentum(spec)


def vacuum_propagate_factors(grid: Grid2D, gy: np.ndarray, gx: np.ndarray,
                             tau: float, axes: str = "xy"
                             ) -> tuple[np.ndarray, np.ndarray]:
    """`vacuum_propagate` of the packet gy(y) gx(x), one 1D factor at a time;
    returns the flown (gy, gx)."""
    if axes not in ("xy", "x"):
        raise DomainError(f"axes must be 'xy' or 'x', got {axes!r}")
    sx, sy = _fft.fft(gx), _fft.fft(gy)
    check_coverage(grid, (gx.real**2 + gx.imag**2, gy.real**2 + gy.imag**2), tau,
                   (np.fft.fftshift(sx.real**2 + sx.imag**2),
                    np.fft.fftshift(sy.real**2 + sy.imag**2)), axes)
    gx = _fft.ifft(sx * flight_phasor(grid.nx, grid.dx, tau))
    if axes == "xy":
        gy = _fft.ifft(sy * flight_phasor(grid.ny, grid.dy, tau))
    return gy, gx

