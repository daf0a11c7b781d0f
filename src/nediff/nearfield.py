"""Scalar near-field models and the coupling profile they induce.

A monochromatic near field Phi0(x, y) cos(omega t + phase) imprints on a
passing electron a phase set by one real transverse profile P(y), the
Fourier transform of Phi0 along the trajectory at the spatial frequency
delta_k = omega / v0 (the wavevector mismatch), turned by one phase theta.
Both models have P in closed form along the whole straight line, exact to
rounding (`coupling_profile`), so no trajectory is ever sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import erfc, erfcx, exp1

from .core import _SQRT8LN2
from .errors import DomainError
# Unused here; kept because the benchmark tracer patches nearfield.adaptive_quad.
from .quadrature import adaptive_quad
from .units import C0, ELECTRON_CHARGE, HBAR


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

    def cosine_transform(self, y, delta_k: float, field_v_per_nm: float):
        """F(y) = integral of the potential at (cx + u, y) times cos(delta_k u)
        over all u, in V nm; the closed forms are in `coupling_profile`."""
        k, r = delta_k, self.radius_nm
        amp = field_v_per_nm * self.response
        eta = np.asarray(y, dtype=float) - self.center[1]
        dist = np.abs(eta)
        out = math.pi * amp * r * r * np.exp(-k * dist)
        inside = dist < r
        d = dist[inside]
        a = np.sqrt((r - d) * (r + d))
        # 2 A R^2 d J = A R^2 Im[e^{i k a} (g(z1) - g(z2))] with g(z) = e^z E1(z).
        ka = k * a
        g = _exp_e1((-k * d) - 1j * ka) - _exp_e1((k * d) - 1j * ka)
        out[inside] = (2.0 * amp * d * np.sin(ka) / k
                       + amp * r * r * (np.exp(1j * ka) * g).imag)
        return np.sign(eta) * out

    def peak_potential(self, field_v_per_nm: float) -> float:
        return field_v_per_nm * self.response * self.radius_nm

    @property
    def extent_hint(self) -> float:
        return self.radius_nm


def _exp_e1(z):
    """e^z E1(z), elementwise, for complex z off the negative real axis: from
    scipy's E1, except where Re z >= 1 (its series cancels) or |z| >= 100 (a
    factor overflows), where 120 steps of the continued fraction
    1 / (z + 1 - 1 / (z + 3 - 4 / (z + 5 - ...))) give it to rounding."""
    frac = (z.real >= 1.0) | (np.abs(z) >= 100.0)
    out = np.empty_like(z)
    out[~frac] = np.exp(z[~frac]) * exp1(z[~frac])
    zf, tail = z[frac], 0.0
    for n in range(120, 0, -1):
        tail = n * n / (zf + (2 * n + 1) - tail)
    out[frac] = 1.0 / (zf + 1.0 - tail)
    return out


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

    def cosine_transform(self, y, delta_k: float, field_v_per_nm: float | None = None):
        """F(y) = integral of the potential at (cx + u, y) times cos(delta_k u)
        over all u, in V nm; the closed forms are in `coupling_profile`."""
        if self.moment is None:
            raise RuntimeError("gap resonator must be calibrated before use")
        c = delta_k * self.sigma / math.sqrt(2.0)
        out = 0.0
        for yc in self._dipole_y():
            eta = np.asarray(y, dtype=float) - yc
            dist = np.abs(eta)
            b = dist / (math.sqrt(2.0) * self.sigma)
            damp = np.exp(-b * b - c * c)
            near = np.exp(-delta_k * dist)
            # abs keeps erfcx finite on the rows where the other branch is taken.
            t1 = np.where(b > c, damp * erfcx(np.abs(b - c)), near * erfc(b - c))
            t2 = damp * erfcx(b + c)
            out = out + np.sign(eta) * (near - 0.5 * (t1 + t2))
        return self.moment * math.pi * out

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
    with np.errstate(all="ignore"):  # a NaN or inf peak is rejected below
        ey_unit = model._axis_field_unit(ys)
    peak = float(np.max(np.abs(ey_unit)))
    if not (peak > 0.0 and math.isfinite(peak)):
        raise DomainError("degenerate geometry: no finite field on the gap axis")
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
    """Sampled coupling for one (model, laser, velocity) triple.

    The interaction phase is coupling(y) cos(delta_k x - theta): `coupling`
    is the real profile P(y) and `theta` the phase that turns it, both in rad.
    """

    y: np.ndarray
    coupling: np.ndarray
    theta: float
    delta_k: float
    model: NearFieldModel
    laser: LaserParams
    v0: float


def coupling_profile(model: NearFieldModel, laser: LaserParams, v0: float,
                     y_grid: np.ndarray) -> CouplingProfile:
    """The coupling profile at the transverse positions y_grid.

    Integrates Phi0(x, y) cos(delta_k x + phase) along the whole straight
    trajectory, scaled by pref = -q/(hbar v0).  Both potentials are even in
    u = x - cx, so with k = delta_k, theta = phase + k cx and the model's
    `cosine_transform` F(y) = integral Phi0(cx + u, y) cos(k u) du, the phase
    is P cos(k x - theta) with P = pref F.  With eta = y - y_c:

    Wire, A = field * response, d = |eta| and a = sqrt(R^2 - d^2):
      d >= R:      F = pi A R^2 sgn(eta) e^{-k d};
      0 < d < R:   F = sgn(eta) [2 A d sin(k a) / k + 2 A R^2 d J], with
        J = integral_a^inf cos(k u) / (u^2 + d^2) du  (partial fractions at u = +-i d)
          = Re[(e^{-k d} E1(-k d - i k a) - e^{k d} E1(k d - i k a)) / (2 i d)];
      d = 0:       F = 0.
    Gap, summed over its two sites, b = d / (sqrt(2) sigma) and c = k sigma / sqrt(2):
      F = moment pi sgn(eta) [e^{-k d} - (T1 + T2) / 2], T2 = e^{-b^2 - c^2} erfcx(b + c),
      T1 = e^{-b^2 - c^2} erfcx(b - c) if b > c, else e^{-k d} erfc(b - c).
    A profile that is not finite (a model whose transform overflows, say a
    radius of 1e300 nm) is a DomainError.
    """
    if not v0 > 0.0:
        raise DomainError("electron velocity must be positive")
    ys = np.asarray(y_grid, dtype=float)
    delta_k = laser.omega / v0
    with np.errstate(all="ignore"):  # an overflow is rejected below
        coupling = (-ELECTRON_CHARGE / (HBAR * v0)
                    * model.cosine_transform(ys, delta_k, laser.field_v_per_nm))
    if not np.isfinite(coupling).all():
        raise DomainError("the near field's coupling profile is not finite")
    return CouplingProfile(
        y=ys, coupling=coupling,
        theta=delta_k * model.center[0] + laser.phase_rad,
        delta_k=delta_k, model=model, laser=laser, v0=v0,
    )
