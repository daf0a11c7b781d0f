"""Unit system: lengths in nm, times in fs, energies in eV.

With these units a potential of 1 volt corresponds to 1 eV for an
elementary charge, so the electron charge is q = -1 and no conversion
factors appear in the interaction terms.
"""

from __future__ import annotations

import math

from .errors import DomainError

#: Reduced Planck constant [eV fs] (CODATA 2018).
HBAR = 0.6582119569

#: Vacuum speed of light [nm/fs] (exact).
C0 = 299.792458

#: Electron rest energy [eV] (CODATA 2018).
ELECTRON_REST_EV = 510998.95

#: Electron mass [eV fs^2 / nm^2], from m c0^2 = 510 998.95 eV.
ELECTRON_MASS = ELECTRON_REST_EV / (C0 * C0)

#: Elementary charge in these units: 1 eV per volt.
ELEMENTARY_CHARGE = 1.0

#: Electron charge in units of e.
ELECTRON_CHARGE = -ELEMENTARY_CHARGE


def electron_kinematics(energy_ev: float) -> tuple[float, float]:
    """Carrier wavenumber and group velocity of a nonrelativistic electron.

    Parameters
    ----------
    energy_ev : float
        Kinetic energy in eV, strictly positive.

    Returns
    -------
    (k0, v0) : tuple of float
        Wavenumber in nm^-1 and velocity in nm/fs, related by
        k0 = sqrt(2 m E)/hbar and v0 = hbar k0 / m.
    """
    if not energy_ev > 0.0:
        raise DomainError(f"kinetic energy must be positive, got {energy_ev}")
    k0 = math.sqrt(2.0 * ELECTRON_MASS * energy_ev) / HBAR
    v0 = HBAR * k0 / ELECTRON_MASS
    return k0, v0


def kinetic_energy(k0: float) -> float:
    """Kinetic energy in eV for a carrier wavenumber in nm^-1."""
    return (HBAR * k0) ** 2 / (2.0 * ELECTRON_MASS)
