"""Near-field models and coupling profiles."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate

from nediff.config import build_preset
from nediff.core import unitary_transform_1d
from nediff.errors import ConfigurationError, DomainError, NediffError
from nediff.nearfield import (GapResonatorModel, LaserParams, WireModel,
                              calibrate_gap_amplitude, coupling_profile)
from nediff.scenario import ScenarioResult, write_artifacts
from nediff.units import C0, HBAR, electron_kinematics

FIG1_LASER = LaserParams(wavelength_nm=2000.0, field_v_per_nm=0.2)
FIG1_WIRE = WireModel(radius_nm=10.0, response=0.5)


def closed_form_wire_coupling(y, laser, wire, v0):
    """Independent oracle for |y| > R from the Fourier transform of the
    exterior image potential: integral cos(kx)/(x^2+y^2) dx = pi/|y| e^{-k|y|}."""
    delta_k = laser.omega / v0
    scale = (laser.field_v_per_nm * wire.response * wire.radius_nm**2
             * math.pi / (HBAR * v0))
    y = np.asarray(y, dtype=float)
    return np.sign(y) * scale * np.exp(-delta_k * np.abs(y))


def cos_sin_couplings(model, laser, v0, ys):
    """C = cos(theta) P and S = sin(theta) P: the profile's cosine and sine
    couplings, which multiply cos(delta_k x) and sin(delta_k x) in the phase."""
    profile = coupling_profile(model, laser, v0, ys)
    return (math.cos(profile.theta) * profile.coupling,
            math.sin(profile.theta) * profile.coupling)


def test_laser_frequency_identity():
    assert FIG1_LASER.omega * FIG1_LASER.wavelength_nm == pytest.approx(
        2.0 * math.pi * C0, rel=1e-12)


def test_laser_validation():
    with pytest.raises(DomainError):
        LaserParams(wavelength_nm=-1.0, field_v_per_nm=0.2)
    with pytest.raises(DomainError):
        LaserParams(wavelength_nm=2000.0, field_v_per_nm=-0.2)


class TestWirePotential:
    def test_vanishes_on_axis(self):
        xs = np.linspace(-50.0, 50.0, 101)
        assert np.all(FIG1_WIRE.potential(xs, 0.0, 0.2) == 0.0)

    def test_even_in_x(self):
        pot_p = FIG1_WIRE.potential(7.3, 4.0, 0.2)
        pot_m = FIG1_WIRE.potential(-7.3, 4.0, 0.2)
        assert pot_p == pytest.approx(pot_m, rel=1e-15)

    def test_odd_in_y(self):
        assert FIG1_WIRE.potential(3.0, 6.0, 0.2) == pytest.approx(
            -FIG1_WIRE.potential(3.0, -6.0, 0.2), rel=1e-15)

    def test_continuous_at_surface(self):
        r = FIG1_WIRE.radius_nm
        for ang in (0.3, 1.1, 2.0):
            x_in, y_in = 0.999 * r * math.cos(ang), 0.999 * r * math.sin(ang)
            x_out, y_out = 1.001 * r * math.cos(ang), 1.001 * r * math.sin(ang)
            vin = FIG1_WIRE.potential(x_in, y_in, 0.2)
            vout = FIG1_WIRE.potential(x_out, y_out, 0.2)
            assert vin == pytest.approx(vout, rel=5e-3)

    def test_surface_pole_field_enhancement(self):
        # -dPhi/dy just outside the pole equals E_L * response; total
        # enhancement with the incident field is 1 + response = 1.5.
        e_l, h = 0.2, 1e-5
        y = FIG1_WIRE.radius_nm * (1.0 + 1e-4)
        grad = (FIG1_WIRE.potential(0.0, y + h, e_l)
                - FIG1_WIRE.potential(0.0, y - h, e_l)) / (2.0 * h)
        induced = -grad
        assert induced == pytest.approx(e_l * FIG1_WIRE.response, rel=1e-3)
        assert (e_l + induced) / e_l == pytest.approx(1.5, rel=1e-3)

    def test_validation(self):
        with pytest.raises(DomainError):
            WireModel(radius_nm=0.0)
        with pytest.raises(DomainError):
            WireModel(radius_nm=5.0, response=1.5)


class TestGapResonator:
    def make(self):
        return GapResonatorModel(separation_nm=23.0, smoothing_fwhm_nm=13.0,
                                 peak_field_v_per_nm=0.5)

    def test_requires_calibration(self):
        # Using an uncalibrated gap is a bug (exit 3), not a bad request.
        model = self.make()
        for use in (lambda: model.potential(1.0, 2.0), model.peak_potential,
                    lambda: coupling_profile(model, FIG1_LASER, 5.0, np.zeros(3))):
            with pytest.raises(RuntimeError, match="calibrated") as info:
                use()
            assert not isinstance(info.value, NediffError)

    def test_validation(self):
        with pytest.raises(DomainError):
            GapResonatorModel(separation_nm=0.0, smoothing_fwhm_nm=13.0,
                              peak_field_v_per_nm=0.5)
        with pytest.raises(DomainError):
            GapResonatorModel(separation_nm=10.0, smoothing_fwhm_nm=13.0,
                              peak_field_v_per_nm=0.5)

    def test_odd_in_y_even_in_x(self):
        gap = calibrate_gap_amplitude(self.make())
        xs = np.linspace(-30, 30, 7)
        assert np.allclose(gap.potential(xs, 0.0), 0.0, atol=1e-15)
        v = gap.potential(5.0, 8.0)
        assert v == pytest.approx(-gap.potential(5.0, -8.0), rel=1e-14)
        assert v == pytest.approx(gap.potential(-5.0, 8.0), rel=1e-14)

    def test_calibrated_peak_field(self):
        gap = calibrate_gap_amplitude(self.make())
        half_open = 0.5 * (gap.separation_nm - gap.smoothing_fwhm_nm)
        ys = np.linspace(-half_open, half_open, 4001)
        pot = np.asarray(gap.potential(0.0, ys))
        ey = -np.gradient(pot, ys)
        assert float(np.max(np.abs(ey))) == pytest.approx(0.5, abs=1e-6)

    def test_amplitude_linearity(self):
        gap1 = calibrate_gap_amplitude(self.make())
        gap2 = calibrate_gap_amplitude(
            GapResonatorModel(separation_nm=23.0, smoothing_fwhm_nm=13.0,
                              peak_field_v_per_nm=1.0))
        pts = [(3.0, 7.0), (0.0, 4.0), (10.0, -9.0)]
        for x, y in pts:
            assert gap2.potential(x, y) == pytest.approx(
                2.0 * gap1.potential(x, y), rel=1e-12)

    def test_implied_incident_field_below_limit(self):
        gap = self.make()
        assert gap.peak_field_v_per_nm / 20.0 == pytest.approx(0.025, rel=1e-12)
        assert gap.peak_field_v_per_nm / 20.0 < 0.03

    def test_far_field_monotone_decay(self):
        gap = calibrate_gap_amplitude(self.make())
        ys = np.linspace(3 * gap.separation_nm, 10 * gap.separation_nm, 200)
        vals = np.abs(np.asarray(gap.potential(0.0, ys)))
        assert np.all(np.diff(vals) < 0.0)

    def test_smoothed_dipole_against_convolution_oracle(self):
        # Convolve the bare dipole pair with the Gaussian by direct quadrature
        # in polar coordinates about each dipole (the 1/rho singularity is
        # cancelled by the Jacobian) and compare to the closed form.
        gap = calibrate_gap_amplitude(self.make())
        sigma = gap.sigma
        centers = (0.5 * gap.separation_nm, -0.5 * gap.separation_nm)

        def oracle(x, y):
            total = 0.0
            for yc in centers:
                def integrand(theta, rho):
                    gx = x - rho * math.cos(theta)
                    gy = (y - yc) - rho * math.sin(theta)
                    gauss = math.exp(-(gx * gx + gy * gy) / (2 * sigma * sigma))
                    return gauss / (2 * math.pi * sigma * sigma) * math.sin(theta)
                val, _ = scipy.integrate.dblquad(
                    integrand, 0.0, 10.0 * sigma + math.hypot(x, y - yc),
                    0.0, 2.0 * math.pi, epsabs=1e-10)
                total += val
            return gap.moment * total

        for x, y in ((3.0, 6.0), (0.0, 14.0), (7.0, -3.0)):
            assert gap.potential(x, y) == pytest.approx(
                oracle(x, y), rel=1e-6, abs=1e-9)


class TestCouplingIntegrals:
    def test_wire_on_axis_is_zero(self):
        _, v0 = electron_kinematics(100.0)
        c, s = cos_sin_couplings(FIG1_WIRE, FIG1_LASER, v0, np.array([0.0]))
        assert c[0] == 0.0 and s[0] == 0.0

    def test_wire_closed_form_oracle_infinite_bounds(self):
        # Moderate phase mismatch keeps the oracle's dynamic range benign.
        v0 = FIG1_LASER.omega / 0.02
        ys = np.linspace(10.5, 100.0, 25)
        c, s = cos_sin_couplings(FIG1_WIRE, FIG1_LASER, v0, ys)
        oracle = closed_form_wire_coupling(ys, FIG1_LASER, FIG1_WIRE, v0)
        assert np.max(np.abs(c - oracle) / np.abs(oracle)) < 1e-8
        assert np.max(np.abs(s)) < 1e-10

    def test_wire_sine_coupling_vanishes_fig1(self):
        _, v0 = electron_kinematics(100.0)
        ys = np.linspace(-40.0, 40.0, 17)
        _, s = cos_sin_couplings(FIG1_WIRE, FIG1_LASER, v0, ys)
        assert np.max(np.abs(s)) < 1e-10

    def test_antisymmetry(self):
        _, v0 = electron_kinematics(100.0)
        ys = np.array([-25.0, -12.0, 12.0, 25.0])
        c = coupling_profile(FIG1_WIRE, FIG1_LASER, v0, ys).coupling
        assert abs(c[0] + c[3]) < 1e-9
        assert abs(c[1] + c[2]) < 1e-9

    def test_linear_in_field(self):
        _, v0 = electron_kinematics(100.0)
        laser2 = LaserParams(wavelength_nm=2000.0, field_v_per_nm=0.4)
        c1 = coupling_profile(FIG1_WIRE, FIG1_LASER, v0, np.array([15.0])).coupling
        c2 = coupling_profile(FIG1_WIRE, laser2, v0, np.array([15.0])).coupling
        assert c2 == pytest.approx(2.0 * c1, rel=1e-14)


def _rotated(c, s, delta_k, model, laser):
    """C + iS turned back by the laser phase and the structure's x centre."""
    return (c + 1j * s) * np.exp(-1j * (delta_k * model.center[0] + laser.phase_rad))


@pytest.mark.parametrize("phase", [0.0, 0.9])
@pytest.mark.parametrize("center_x", [0.0, 150.0, 1000.0])
def test_off_centre_wire_against_closed_forms(center_x, phase):
    # Moving the wire along the infinite trajectory only turns C - iS by
    # delta_k * center_x.  Rows that miss the wire have the image-dipole
    # closed form; rows through it are the linear interior over |u| < a plus
    # the exterior branch, a = sqrt(R^2 - eta^2), by QAWF.
    wire = replace(FIG1_WIRE, center=(center_x, 0.0))
    laser = replace(FIG1_LASER, phase_rad=phase)
    r = wire.radius_nm
    ys = np.linspace(-40.0, 40.0, 33)
    inside = np.abs(ys) < r
    for v0 in (electron_kinematics(100.0)[1], laser.omega / 0.02):
        delta_k = laser.omega / v0
        c, s = cos_sin_couplings(wire, laser, v0, ys)
        z = _rotated(c, s, delta_k, wire, laser)
        oracle = closed_form_wire_coupling(ys, laser, wire, v0)
        assert np.max(np.abs(z - oracle)[~inside]) <= 1e-11
        scale = laser.field_v_per_nm * wire.response / (HBAR * v0)
        for eta, got in zip(ys[inside], z[inside]):
            a = math.sqrt(r * r - eta * eta)
            ext, _ = scipy.integrate.quad(lambda u: r * r / (u * u + eta * eta), a,
                                          np.inf, weight="cos", wvar=delta_k,
                                          epsabs=1e-10, limlst=200)
            ref = 2.0 * scale * eta * (math.sin(delta_k * a) / delta_k + ext)
            assert abs(got - ref) <= 5e-9


def _folded_gap_coupling(gap, y, delta_k, v0):
    """C + iS of one row by QAWF, turned back by the structure's x centre.

    Folded about the structure's centre, the even part of the potential
    carries the cosine transform and the odd part the sine transform."""
    cx = gap.center[0]

    def folded(u, sign):
        return gap.potential(cx + u, y) + sign * gap.potential(cx - u, y)

    even, _ = scipy.integrate.quad(folded, 0.0, np.inf, args=(1.0,), weight="cos",
                                   wvar=delta_k, epsabs=1e-10, limlst=200)
    odd, _ = scipy.integrate.quad(folded, 0.0, np.inf, args=(-1.0,), weight="sin",
                                  wvar=delta_k, epsabs=1e-10, limlst=200)
    return (even + 1j * odd) / (HBAR * v0)


@pytest.mark.parametrize("center_x", [0.0, 37.0])
def test_off_centre_gap_against_fourier_quadrature(center_x):
    cfg = build_preset("fig4-limited")
    gap = calibrate_gap_amplitude(replace(cfg.model, center=(center_x, 0.0)))
    laser = replace(cfg.laser, phase_rad=0.9)
    _, v0 = electron_kinematics(cfg.electron.energy_ev)
    delta_k = laser.omega / v0
    ys = np.linspace(-59.5, 60.5, 13)
    c, s = cos_sin_couplings(gap, laser, v0, ys)
    z = _rotated(c, s, delta_k, gap, laser)
    for y, got in zip(ys, z):
        assert abs(got - _folded_gap_coupling(gap, y, delta_k, v0)) <= 1e-11


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_gap_rows_on_both_sides_of_the_erfcx_switch(side):
    # T1 switches form at b = c, that is |eta| = delta_k sigma^2 from a site.
    # Rows just inside and outside the switch, on each side of each site,
    # against the folded quadrature; the two forms meet smoothly there.
    cfg = build_preset("fig4-limited")
    gap = calibrate_gap_amplitude(replace(cfg.model, center=(37.0, -2.0)))
    laser = replace(cfg.laser, phase_rad=0.9)
    _, v0 = electron_kinematics(cfg.electron.energy_ev)
    delta_k = laser.omega / v0
    switch = delta_k * gap.sigma**2
    steps = np.array([-1e-3, -1e-9, 0.0, 1e-9, 1e-3])
    for y_c in gap.center[1] + np.array([0.5, -0.5]) * gap.separation_nm:
        ys = y_c + side * switch * (1.0 + steps)
        c, s = cos_sin_couplings(gap, laser, v0, ys)
        z = _rotated(c, s, delta_k, gap, laser)
        for y, got in zip(ys, z):
            assert abs(got - _folded_gap_coupling(gap, y, delta_k, v0)) <= 1e-11
        assert abs(z[1] - 2.0 * z[2] + z[3]) <= 1e-12


def _laplace_wire_coupling(wire, laser, v0, eta):
    """C + iS of a row through the wire, 0 < |eta| < R, turned back by the
    laser phase and the x centre: 2 A eta [sin(k a) / k + R^2 J], with
    J = pi e^{-k|eta|} / (2|eta|) - integral_0^a cos(k u) / (u^2 + eta^2) du."""
    k = laser.omega / v0
    r, e = wire.radius_nm, abs(eta)
    a = math.sqrt((r - e) * (r + e))
    near, _ = scipy.integrate.quad(lambda u: 1.0 / (u * u + e * e), 0.0, a,
                                   weight="cos", wvar=k, epsabs=1e-15, epsrel=1e-13)
    j = math.pi * math.exp(-k * e) / (2.0 * e) - near
    scale = laser.field_v_per_nm * wire.response / (HBAR * v0)
    return 2.0 * scale * eta * (math.sin(k * a) / k + r * r * j)


@pytest.mark.parametrize("center_x", [0.0, 150.0])
@pytest.mark.parametrize("energy_ev", [60.0, 100.0, 10000.0])
@pytest.mark.parametrize("radius", [10.0, 30.0])
def test_wire_interior_rows_against_laplace_reference(radius, energy_ev, center_x):
    # Every fig1 grid row that passes through the wire: the fig1 wire, and
    # one from the fig3 radius scan whose delta_k R lies in (2, 5).
    wire = replace(FIG1_WIRE, radius_nm=radius, center=(center_x, 0.0))
    ys = build_preset("fig1").grid.y
    ys = ys[(ys != 0.0) & (np.abs(ys) < wire.radius_nm)]
    _, v0 = electron_kinematics(energy_ev)
    c, s = cos_sin_couplings(wire, FIG1_LASER, v0, ys)
    z = _rotated(c, s, FIG1_LASER.omega / v0, wire, FIG1_LASER)
    ref = np.array([_laplace_wire_coupling(wire, FIG1_LASER, v0, y) for y in ys])
    assert np.max(np.abs(z - ref)) <= 1e-13


def test_wire_rows_through_the_centre_and_the_surface():
    # F = 0 on the row through the centre.  At |eta| = R the interior and
    # exterior forms meet with a common slope: over 1e-9 nm about the
    # surface the second difference is rounding.
    wire = replace(FIG1_WIRE, center=(150.0, 3.0))
    r, eps = wire.radius_nm, 1e-9
    ys = 3.0 + np.array([0.0, r - eps, r, r + eps, -r + eps, -r, -r - eps])
    for energy_ev in (60.0, 100.0, 10000.0):
        _, v0 = electron_kinematics(energy_ev)
        c, s = cos_sin_couplings(wire, FIG1_LASER, v0, ys)
        assert c[0] == 0.0 and s[0] == 0.0
        z = _rotated(c, s, FIG1_LASER.omega / v0, wire, FIG1_LASER)
        for i in (1, 4):
            assert abs(z[i] - 2.0 * z[i + 1] + z[i + 2]) <= 1e-12
            ref = _laplace_wire_coupling(wire, FIG1_LASER, v0, ys[i] - 3.0)
            assert abs(z[i] - ref) <= 1e-13
        oracle = closed_form_wire_coupling(ys[[2, 5]] - 3.0, FIG1_LASER, wire, v0)
        assert np.max(np.abs(z[[2, 5]] - oracle)) <= 1e-14


def test_wire_centred_at_a_subnormal_y():
    # On the row y = 0, eta is subnormal: its coupling is a finite, tiny
    # negative number, and every other row is the centred wire's.
    tiny = replace(FIG1_WIRE, center=(0.0, 1.1125369292536007e-308))
    ys = np.linspace(-20.0, 20.0, 41)
    axis = ys == 0.0
    _, v0 = electron_kinematics(60.0)
    c, s = cos_sin_couplings(tiny, FIG1_LASER, v0, ys)
    centred = coupling_profile(FIG1_WIRE, FIG1_LASER, v0, ys).coupling
    assert np.array_equal(c[~axis], centred[~axis]) and np.all(s == 0.0)
    assert -1e-300 <= c[axis][0] < 0.0


def test_wire_interior_beyond_the_exponential_range():
    # At delta_k R = 1000 the factors e^{k|eta|} of the E1 form overflow;
    # rows through the wire stay exact.
    v0 = FIG1_LASER.omega / 100.0
    ys = np.array([-9.99, -7.5, -0.5, 0.5, 3.0, 7.5, 9.9])
    c, s = cos_sin_couplings(FIG1_WIRE, FIG1_LASER, v0, ys)
    ref = np.array([_laplace_wire_coupling(FIG1_WIRE, FIG1_LASER, v0, y) for y in ys])
    assert np.max(np.abs(c - ref)) <= 1e-13 and np.all(s == 0.0)


@pytest.fixture(scope="module")
def fig1_profile():
    _, v0 = electron_kinematics(100.0)
    ys = np.linspace(-128.0, 127.5, 512)
    return coupling_profile(FIG1_WIRE, FIG1_LASER, v0, ys)


class TestCouplingProfile:
    def test_wavevector_mismatch_value(self, fig1_profile):
        _, v0 = electron_kinematics(100.0)
        assert fig1_profile.delta_k == FIG1_LASER.omega / v0
        assert fig1_profile.delta_k == pytest.approx(0.159, abs=5e-4)

    def test_profile_antisymmetric(self, fig1_profile):
        c = fig1_profile.coupling
        assert np.max(np.abs(c + c[::-1])) < 1e-9 or \
            np.max(np.abs(c[1:] + c[1:][::-1])) < 1e-9

    def test_peak_near_surface(self, fig1_profile):
        y = fig1_profile.y
        c = np.abs(fig1_profile.coupling)
        y_star = abs(y[int(np.argmax(c))])
        r = FIG1_WIRE.radius_nm
        assert 0.6 * r <= y_star <= 1.4 * r

    def test_exponential_decay_beyond_surface(self):
        _, v0 = electron_kinematics(100.0)
        r = FIG1_WIRE.radius_nm
        ys = np.linspace(2 * r, 6 * r, 33)
        c = coupling_profile(FIG1_WIRE, FIG1_LASER, v0, ys).coupling
        delta_k = FIG1_LASER.omega / v0
        slope = np.polyfit(ys, np.log(np.abs(c)), 1)[0]
        assert slope == pytest.approx(-delta_k, rel=0.02)

    def test_transform_odd_imaginary(self):
        _, v0 = electron_kinematics(100.0)
        # Wide enough that the exponential tail at the one unpaired edge cell
        # sits below the 1e-9 parity target.
        ys = np.linspace(-160.0, 158.75, 256)
        c = coupling_profile(FIG1_WIRE, FIG1_LASER, v0, ys).coupling
        ky, vals = unitary_transform_1d(c, ys)
        scale = float(np.max(np.abs(vals)))
        assert float(np.max(np.abs(vals.real))) < 1e-9 * scale
        assert float(np.max(np.abs(vals[1:] + vals[1:][::-1]))) < 1e-9 * scale
        izero = int(np.argmin(np.abs(ky)))
        assert abs(vals[izero]) < 1e-9 * scale

    def test_transform_parseval(self, fig1_profile):
        ky, vals = unitary_transform_1d(fig1_profile.coupling, fig1_profile.y)
        dy = fig1_profile.y[1] - fig1_profile.y[0]
        lhs = float(np.sum(np.abs(vals) ** 2)) * (ky[1] - ky[0])
        rhs = float(np.sum(fig1_profile.coupling ** 2)) * dy
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_transform_has_two_symmetric_lobes(self, fig1_profile):
        from nediff.analysis import find_peaks
        ky, vals = unitary_transform_1d(fig1_profile.coupling, fig1_profile.y)
        pos, heights = find_peaks(ky, np.abs(vals) ** 2, threshold=0.2)
        top = pos[np.argsort(heights)[::-1][:2]]
        assert top.min() < 0.0 < top.max()
        assert abs(top.max() + top.min()) < 2 * (ky[1] - ky[0])

    def test_csv_export(self, fig1_profile, tmp_path):
        cfg = replace(build_preset("fig1"), outputs=("profile",))
        result = ScenarioResult(
            config=cfg, psi_initial=None, profile=fig1_profile, analytic=None,
            numeric=None, trace=None, rel_l2_densities=None)
        write_artifacts(result, tmp_path)
        path = tmp_path / "profile.csv"
        lines = path.read_text().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        assert any("delta_k" in ln for ln in comments)
        assert any("v0" in ln for ln in comments)
        header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        assert lines[header_idx] == "y_nm,I1_rad,I2_rad"
        data = np.genfromtxt(path, delimiter=",", skip_header=header_idx + 1)
        assert np.allclose(data[:, 0], fig1_profile.y)
        assert np.allclose(data[:, 1], fig1_profile.coupling)

    def test_nonuniform_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            unitary_transform_1d(np.zeros(3), np.array([0.0, 1.0, 3.0]))
