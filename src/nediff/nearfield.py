"""Scalar near-field models and the coupling integrals they induce.

A monochromatic near field Phi0(x, y) cos(omega t + phase) imprints on a
passing electron a phase set entirely by two transverse profiles: the cosine
and sine Fourier components of Phi0 along the trajectory at the spatial
frequency delta_k = omega / v0 (the wavevector mismatch).  This module
computes those components along the whole straight line: by adaptive
quadrature over a window about the structure, and in closed form beyond it,
where every model is exactly a sum of 2D line dipoles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import _SQRT8LN2
from .errors import DomainError
from .quadrature import adaptive_quad
from .units import C0, ELECTRON_CHARGE, HBAR

#: Absolute tolerance of the coupling integrals, in rad.
COUPLING_TOL = 1e-10


@dataclass(frozen=True)
class LaserParams:
    """Monochromatic, y-polarized excitation."""

    wavelength_nm: float
    field_v_per_nm: float
    phase_rad: float = 0.0

    def __post_init__(self):
        if not self.wavelength_nm > 0.0:
            raise DomainError("wavelength must be positive")
        if self.field_v_per_nm < 0.0:
            raise DomainError("field amplitude must be nonnegative")

    @property
    def omega(self) -> float:
        """Angular frequency in rad/fs."""
        return 2.0 * math.pi * C0 / self.wavelength_nm


@dataclass(frozen=True)
class WireModel:
    """Infinite wire of radius R perpendicular to the simulation plane.

    `response` is the magnitude |(eps-1)/(eps+1)| of the quasi-static
    polarizability ratio; the induced surface field enhancement is
    1 + response at the poles.
    """

    radius_nm: float
    response: float = 0.5
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not self.radius_nm > 0.0:
            raise DomainError("wire radius must be positive")
        if not 0.0 <= self.response <= 1.0:
            raise DomainError("response factor must be in [0, 1]")

    def potential(self, x, y, field_v_per_nm: float):
        """Static envelope of the near-field potential, in volts.

        Inside the wire the potential is linear in y; outside it carries the
        R^2/r^2 image decay.  Both branches meet continuously at r = R, which
        the single max(r^2, R^2) expression exploits.
        """
        cx, cy = self.center
        xs = np.asarray(x, dtype=float) - cx
        ys = np.asarray(y, dtype=float) - cy
        r2 = xs * xs + ys * ys
        r2 = np.maximum(r2, self.radius_nm**2)
        return field_v_per_nm * self.response * self.radius_nm**2 * ys / r2

    def far_field_dipoles(self, field_v_per_nm: float):
        """((weight, y_c),): the potential outside r = R, weight * (y - y_c) / r^2."""
        return ((field_v_per_nm * self.response * self.radius_nm**2, self.center[1]),)

    def peak_potential(self, field_v_per_nm: float) -> float:
        return field_v_per_nm * self.response * self.radius_nm

    @property
    def extent_hint(self) -> float:
        return self.radius_nm


def _smoothing_ratio(u):
    # (1 - exp(-u)) / u, finite at u = 0 (limit 1).
    with np.errstate(invalid="ignore"):
        return np.where(u > 1e-14, -np.expm1(-u) / np.where(u > 1e-14, u, 1.0), 1.0)


@dataclass(frozen=True)
class GapResonatorModel:
    """Pair of Gaussian-smoothed in-plane dipoles forming a nanogap.

    Two identical dipoles oriented along +y sit at (0, +-s/2); their fields
    add along y inside the gap and the combined potential is odd in y and
    even in x.  Smoothing a 2D point dipole p*r/r^2 with an isotropic
    Gaussian of std sigma has the closed form

        Phi(r) = p . r / r^2 * (1 - exp(-r^2 / (2 sigma^2)))

    which is what `potential` evaluates (singularity-free via expm1).
    The dipole moment is fixed by `calibrate`, which rescales it so the peak
    |E_y| on the gap axis equals `peak_field_v_per_nm`.
    """

    separation_nm: float
    smoothing_fwhm_nm: float
    peak_field_v_per_nm: float
    center: tuple[float, float] = (0.0, 0.0)
    moment: float | None = None
    peak_potential_v: float | None = None

    def __post_init__(self):
        if not self.separation_nm > 0.0:
            raise DomainError("dipole separation must be positive")
        if not self.smoothing_fwhm_nm > 0.0:
            raise DomainError("smoothing FWHM must be positive")
        if not self.peak_field_v_per_nm > 0.0:
            raise DomainError("peak gap field must be positive")
        if self.smoothing_fwhm_nm >= self.separation_nm:
            raise DomainError(
                "smoothing FWHM must be smaller than the separation, "
                "otherwise no open gap remains"
            )

    @property
    def sigma(self) -> float:
        return self.smoothing_fwhm_nm / _SQRT8LN2

    @property
    def calibrated(self) -> bool:
        return self.moment is not None

    def _dipole_y(self):
        s = self.separation_nm
        return (self.center[1] + 0.5 * s, self.center[1] - 0.5 * s)

    def _potential_unit(self, x, y):
        # Potential for unit dipole moment on each site.
        cx, _ = self.center
        xs = np.asarray(x, dtype=float) - cx
        ys = np.asarray(y, dtype=float)
        sig2 = self.sigma**2
        out = 0.0
        for yc in self._dipole_y():
            eta = ys - yc
            rho2 = xs * xs + eta * eta
            fac = _smoothing_ratio(rho2 / (2.0 * sig2))
            out = out + eta * fac / (2.0 * sig2)
        return out

    def _axis_field_unit(self, y):
        # -dPhi/dy on the x = center_x axis for unit moment; closed form.
        ys = np.asarray(y, dtype=float)
        sig2 = self.sigma**2
        out = 0.0
        for yc in self._dipole_y():
            eta = ys - yc
            u = eta * eta / (2.0 * sig2)
            fac = _smoothing_ratio(u)
            fprime = (2.0 * np.exp(-u) - fac) / (2.0 * sig2)
            out = out - fprime
        return out

    def potential(self, x, y, field_v_per_nm: float | None = None):
        """Calibrated gap potential in volts; the laser field amplitude is
        not used because the in-gap amplitude is fixed by calibration."""
        if self.moment is None:
            raise RuntimeError("gap resonator must be calibrated before use")
        return self.moment * self._potential_unit(x, y)

    def far_field_dipoles(self, field_v_per_nm: float | None = None):
        """((moment, y_c), ...), one line dipole moment * (y - y_c) / r^2 per
        site: the potential where exp(-r^2 / (2 sigma^2)) underflows to 0."""
        if self.moment is None:
            raise RuntimeError("gap resonator must be calibrated before use")
        return tuple((self.moment, y_c) for y_c in self._dipole_y())

    def peak_potential(self, field_v_per_nm: float | None = None) -> float:
        if self.peak_potential_v is None:
            raise RuntimeError("gap resonator must be calibrated before use")
        return self.peak_potential_v

    @property
    def extent_hint(self) -> float:
        return 0.5 * self.separation_nm + 2.0 * self.smoothing_fwhm_nm


def calibrate_gap_amplitude(model: GapResonatorModel) -> GapResonatorModel:
    """Rescale the dipole moments so the in-gap peak |E_y| equals the target.

    The field is linear in the moment, so the rescaling is exact and
    deterministic.  The gap interior is the region between the smoothing
    clouds, |y - cy| <= (s - w)/2 on the gap axis.
    """
    half_open = 0.5 * (model.separation_nm - model.smoothing_fwhm_nm)
    ys = model.center[1] + np.linspace(-half_open, half_open, 2001)
    ey_unit = model._axis_field_unit(ys)
    peak = float(np.max(np.abs(ey_unit)))
    if peak <= 0.0:
        raise DomainError("degenerate geometry: no field on the gap axis")
    moment = model.peak_field_v_per_nm / peak
    # Record the global potential maximum for time-step bounds; the extremes
    # sit on the gap axis where the dipole fields align.
    probe_y = model.center[1] + np.linspace(
        -model.extent_hint - 2 * model.smoothing_fwhm_nm,
        model.extent_hint + 2 * model.smoothing_fwhm_nm, 4001)
    probe_x = model.center[0] + np.linspace(0.0, 3.0 * model.smoothing_fwhm_nm, 61)
    pot = model._potential_unit(probe_x[None, :], probe_y[:, None])
    peak_pot = moment * float(np.max(np.abs(pot)))
    return replace(model, moment=moment, peak_potential_v=peak_pot)


NearFieldModel = WireModel | GapResonatorModel


@dataclass(frozen=True)
class CouplingProfile:
    """Sampled coupling integrals for one (model, laser, velocity) triple.

    coupling_cos multiplies cos(delta_k x') in the interaction phase and
    coupling_sin multiplies sin(delta_k x'); |C - iS| sets the order weights.
    """

    y: np.ndarray
    coupling_cos: np.ndarray
    coupling_sin: np.ndarray
    delta_k: float
    model: NearFieldModel
    laser: LaserParams
    v0: float


def default_x_bounds(model: NearFieldModel, delta_k: float) -> tuple[float, float]:
    """Quadrature window of the trajectory integral, centred on the structure.

    Beyond 40 * extent_hint every model is exactly its `far_field_dipoles`,
    and `_dipole_tail` needs delta_k * half >= 10.
    """
    half = max(40.0 * model.extent_hint, 10.0 / delta_k)
    cx = model.center[0]
    return (cx - half, cx + half)


# Gauss-Laguerre rule for integral_0^inf e^-t g(t) dt.
_LAGUERRE_T, _LAGUERRE_W = np.polynomial.laguerre.laggauss(32)


def _dipole_tail(eta, delta_k: float, half: float):
    """eta * integral_half^inf cos(delta_k u) / (u^2 + eta^2) du, elementwise.

    On the rotated contour u = half + i s the integral is
    Re[i e^{i delta_k half} integral_0^inf e^{-delta_k s} eta / ((half + i s)^2
    + eta^2) ds].  Its poles lie delta_k * half from the real axis of
    t = delta_k s, so the 32-node rule is exact to rounding when
    delta_k * half >= 10, which `default_x_bounds` guarantees.
    """
    eta = np.asarray(eta, dtype=float)[..., None]
    u = half + 1j * _LAGUERRE_T / delta_k
    laplace = np.sum(_LAGUERRE_W * eta / (u * u + eta * eta), axis=-1) / delta_k
    return (1j * np.exp(1j * delta_k * half) * laplace).real


def coupling_integrals(model: NearFieldModel, laser: LaserParams, v0: float,
                       ys: np.ndarray):
    """Cosine and sine coupling integrals at the transverse positions ys, in rad.

    Integrates Phi0(x, y) against cos/sin(delta_k x + phase), scaled by
    -q/(hbar v0), along the whole straight trajectory.  The window of
    `default_x_bounds` runs by adaptive quadrature.  Beyond it the potential
    is exactly the sum of the model's `far_field_dipoles`, which is even in
    x - cx, so both tails fold onto one closed-form term per dipole:
    2 e^{i(delta_k cx + phase)} w eta integral_half^inf cos(delta_k u) /
    (u^2 + eta^2) du.
    """
    if not v0 > 0.0:
        raise DomainError("electron velocity must be positive")
    delta_k = laser.omega / v0
    ys = np.asarray(ys, dtype=float)

    prefactor = -ELECTRON_CHARGE / (HBAR * v0)
    phase = laser.phase_rad
    field = laser.field_v_per_nm
    x_lo, x_hi = default_x_bounds(model, delta_k)
    max_panel = math.pi / (4.0 * delta_k)

    def integrand(xs):
        pot = model.potential(xs[:, None], ys[None, :], field)
        arg = delta_k * xs + phase
        return pot * np.cos(arg)[:, None], pot * np.sin(arg)[:, None]

    # The tolerance is on the coupling in rad; the quadrature runs on the
    # bare potential integral, so rescale by the prefactor magnitude.
    (c_core, s_core), _ = adaptive_quad(integrand, x_lo, x_hi,
                                        COUPLING_TOL / abs(prefactor), max_panel)

    cx = model.center[0]
    tail = 2.0 * sum(w * _dipole_tail(ys - y_c, delta_k, x_hi - cx)
                     for w, y_c in model.far_field_dipoles(field))
    turn = delta_k * cx + phase
    return (prefactor * (c_core + math.cos(turn) * tail),
            prefactor * (s_core + math.sin(turn) * tail))


def coupling_profile(model: NearFieldModel, laser: LaserParams, v0: float,
                     y_grid: np.ndarray) -> CouplingProfile:
    """Sample the coupling integrals on a uniform transverse grid."""
    ys = np.asarray(y_grid, dtype=float)
    c, s = coupling_integrals(model, laser, v0, ys)
    return CouplingProfile(
        y=ys, coupling_cos=c, coupling_sin=s,
        delta_k=laser.omega / v0, model=model, laser=laser, v0=v0,
    )

