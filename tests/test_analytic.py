"""Phase-mask engine, photon orders, series identities, free flight."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import uniform_profile

from nediff.analysis import momentum_density, rel_l2
from nediff.analytic import (ORDER_TAIL, PhaseMask, apply_interaction,
                             build_phase_mask, interaction_factors, order_limit,
                             order_amplitudes_exact, order_series_taylor,
                             vacuum_propagate, vacuum_propagate_factors,
                             weak_field_order)
from nediff.config import build_preset
from nediff.core import (BLOCK_BYTES, Grid2D, bandwidth_to_fwhm_x, chirp_flight_time,
                         Wavepacket, gaussian_factors, gaussian_wavepacket,
                         separable_packet, temporal_spread, to_momentum,
                         unitary_transform_1d)
from nediff.errors import ConfigurationError, DomainError
from nediff.nearfield import (GapResonatorModel, LaserParams, WireModel,
                             calibrate_gap_amplitude, coupling_profile)
from nediff.units import ELECTRON_MASS, HBAR, electron_kinematics

LASER = LaserParams(wavelength_nm=2000.0, field_v_per_nm=0.2)
WIRE = WireModel(radius_nm=10.0, response=0.5)


@pytest.fixture(scope="module")
def small_grid():
    return Grid2D.centered(512, 256, 0.5, 0.5)


@pytest.fixture(scope="module")
def packet(small_grid):
    return gaussian_wavepacket(small_grid, 100.0, 40.0, 16.0)


@pytest.fixture(scope="module")
def gy(small_grid):
    """The transverse factor of `packet`, normalized in 1D."""
    return gaussian_factors(small_grid, 40.0, 16.0)[0]


@pytest.fixture(scope="module")
def wire_profile(small_grid):
    _, v0 = electron_kinematics(100.0)
    return coupling_profile(WIRE, LASER, v0, small_grid.y)


@pytest.fixture(scope="module")
def stripe_profile(small_grid):
    _, v0 = electron_kinematics(100.0)
    return uniform_profile(1.0, -60.0, 60.0, LASER, v0, small_grid.y)


class TestPhaseMask:
    def test_zero_profile_zero_mask(self, small_grid):
        _, v0 = electron_kinematics(100.0)
        prof = uniform_profile(0.0, -1.0, 1.0, LASER, v0, small_grid.y)
        mask = build_phase_mask(prof, small_grid)
        assert np.all(mask.phase(slice(None)) == 0.0)

    def test_pointwise_factorization(self, wire_profile, small_grid):
        mask = build_phase_mask(wire_profile, small_grid)
        arg = wire_profile.delta_k * small_grid.x - wire_profile.theta
        expected = wire_profile.coupling[:, None] * np.cos(arg)[None, :]
        assert np.max(np.abs(mask.phase(slice(None)) - expected)) < 1e-12

    def test_periodicity(self, wire_profile, small_grid):
        period = 2.0 * math.pi / wire_profile.delta_k
        g = small_grid
        shifted = Grid2D(g.nx, g.ny, g.dx, g.dy, g.x0 + period, g.y0)
        a = build_phase_mask(wire_profile, g).phase(slice(None))
        b = build_phase_mask(wire_profile, shifted).phase(slice(None))
        assert np.max(np.abs(a - b)) < 1e-12

    def test_odd_under_y_reflection(self, wire_profile, small_grid):
        mask = build_phase_mask(wire_profile, small_grid)
        v = mask.phase(slice(None))
        assert np.max(np.abs(v[1:] + v[1:][::-1])) < 1e-9

    def test_grid_mismatch_rejected(self, wire_profile):
        other = Grid2D.centered(256, 128, 0.5, 0.5)
        with pytest.raises(ConfigurationError):
            build_phase_mask(wire_profile, other)


class TestApplyInteraction:
    def test_zero_mask_identity(self, packet, small_grid):
        _, v0 = electron_kinematics(100.0)
        prof = uniform_profile(0.0, -1.0, 1.0, LASER, v0, small_grid.y)
        out = apply_interaction(packet, build_phase_mask(prof, small_grid))
        assert np.array_equal(out.amplitudes, packet.amplitudes)

    def test_norm_preserved(self, packet, wire_profile, small_grid):
        out = apply_interaction(packet, build_phase_mask(wire_profile, small_grid))
        assert out.norm() == pytest.approx(packet.norm(), abs=1e-12)

    def test_sidebands_appear_at_wavevector_mismatch(self, packet, wire_profile,
                                                     small_grid):
        out = apply_interaction(packet, build_phase_mask(wire_profile, small_grid))
        spec = to_momentum(out)
        marg = spec.density().sum(axis=0)
        dk_cells = wire_profile.delta_k / spec.dkx
        i0 = int(np.argmin(np.abs(spec.kx - packet.k0)))
        for n in (-1, 1, 2):
            target = i0 + n * dk_cells
            window = marg[int(target) - 2:int(target) + 3]
            assert window.max() > 0.01 * marg.max()

    def test_bits_equal_full_grid_expression(self, small_grid):
        # A wire driven at a nonzero laser phase has a sine coupling, and a
        # narrow packet's tails underflow to zero, where the operand order of
        # the complex multiply decides the sign of zero imaginary parts.
        g = small_grid
        _, v0 = electron_kinematics(100.0)
        laser = LaserParams(wavelength_nm=2000.0, field_v_per_nm=0.2, phase_rad=0.7)
        profile = coupling_profile(WIRE, laser, v0, g.y)
        assert abs(math.sin(profile.theta)) * np.abs(profile.coupling).max() > 0.1
        psi = gaussian_wavepacket(g, 100.0, 4.0, 2.0)
        assert np.count_nonzero(psi.amplitudes == 0.0) > g.nx * g.ny // 4
        assert 16 * g.nx * g.ny > BLOCK_BYTES  # several row blocks
        phase = profile.coupling[:, None] * np.cos(profile.delta_k * g.x - profile.theta)
        expected = psi.amplitudes * np.exp(1j * phase)
        for workers in (1, 2):
            with scipy.fft.set_workers(workers):
                out = apply_interaction(psi, build_phase_mask(profile, g))
            assert np.array_equal(out.amplitudes.view(np.uint64),
                                  expected.view(np.uint64))

    FACTOR_GRID = Grid2D.centered(2, 8, 1.0, 1.0)
    #: Finite phases, +-0 and subnormals included, up to |phase| = 1e308.
    PHASES = st.lists(st.floats(min_value=-1e308, max_value=1e308),
                      min_size=8, max_size=8)
    #: Amplitudes whose parts are +-0, subnormal or normal.
    PARTS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -1e-310]),
                      st.floats(min_value=-1e-308, max_value=1e-308),
                      st.floats(min_value=-1e3, max_value=1e3))
    AMPS = st.lists(st.builds(complex, PARTS, PARTS), min_size=16, max_size=16)

    @settings(max_examples=300, deadline=None)
    @given(PHASES, AMPS)
    # sin(-0) is -0 where exp(1j * -0) has a +0 imaginary part; the product
    # keeps that sign on an amplitude with a -0 real part.
    @example([-0.0] * 8, [complex(-0.0, 0.7)] * 16)
    def test_bits_equal_exp_factor_at_any_phase(self, phases, amps):
        g = self.FACTOR_GRID
        mask = PhaseMask(coupling=np.array(phases), cos_x=np.array([1.0, -1.0]), grid=g)
        psi = Wavepacket(grid=g, amplitudes=np.array(amps).reshape(g.ny, g.nx),
                         t=0.0, k0=1.0)
        expected = np.exp(1j * mask.phase(slice(None))) * psi.amplitudes
        out = apply_interaction(psi, mask)
        assert np.array_equal(out.amplitudes.view(np.uint64), expected.view(np.uint64))

    def test_wrong_grid_rejected(self, packet, wire_profile, small_grid):
        mask = build_phase_mask(wire_profile, small_grid)
        other = gaussian_wavepacket(Grid2D.centered(256, 128, 0.5, 0.5),
                                    100.0, 20.0, 10.0)
        with pytest.raises(ConfigurationError):
            apply_interaction(other, mask)


def populations(dec):
    """Weight of each photon order, sum |a_n(y)|^2 dy."""
    return np.sum(np.abs(dec.amplitudes) ** 2, axis=1) * (dec.y[1] - dec.y[0])


class TestOrderDecomposition:
    def test_zero_coupling_keeps_ground_state(self, gy, small_grid):
        _, v0 = electron_kinematics(100.0)
        prof = uniform_profile(0.0, -1.0, 1.0, LASER, v0, small_grid.y)
        dec = order_amplitudes_exact(prof, gy, n_max=3)
        i0 = dec.order_index(0)
        assert np.max(np.abs(dec.amplitudes[i0] - gy)) < 1e-12
        for n in (-3, -2, -1, 1, 2, 3):
            assert np.max(np.abs(dec.amplitudes[dec.order_index(n)])) < 1e-12

    def test_stripe_bessel_weights(self, gy, stripe_profile):
        dec = order_amplitudes_exact(stripe_profile, gy, n_max=8)
        pops = populations(dec)
        for n in range(0, 4):
            expected = scipy.special.jv(n, 1.0) ** 2
            assert pops[dec.order_index(n)] == pytest.approx(expected, abs=1e-10)
            assert pops[dec.order_index(-n)] == pytest.approx(expected, abs=1e-10)

    def test_completeness(self, gy, wire_profile):
        dec = order_amplitudes_exact(wire_profile, gy, n_max=8)
        assert float(populations(dec).sum()) == pytest.approx(1.0, abs=1e-6)

    def test_odd_orders_vanish_on_axis(self, gy, wire_profile, small_grid):
        dec = order_amplitudes_exact(wire_profile, gy, n_max=8)
        iy0 = small_grid.ny // 2
        scale = float(np.max(np.abs(dec.amplitudes)))
        for n in (-3, -1, 1, 3):
            assert abs(dec.amplitudes[dec.order_index(n)][iy0]) < 1e-12 * scale

    def test_order_parity(self, gy, wire_profile):
        dec = order_amplitudes_exact(wire_profile, gy, n_max=8)
        for n in (-2, -1, 0, 1, 2):
            a = dec.amplitudes[dec.order_index(n)]
            sign = (-1.0) ** abs(n)
            assert np.max(np.abs(a[1:] - sign * a[1:][::-1])) < 1e-9

    def test_transverse_spectra_parity(self, gy, wire_profile):
        # Even |spectrum| in k_y for every order; odd orders vanish at k_y=0.
        dec = order_amplitudes_exact(wire_profile, gy, n_max=8)
        for n in (0, 1, 2, 3):
            s = np.abs(dec.spectra[dec.order_index(n)])
            assert np.max(np.abs(s[1:] - s[1:][::-1])) < 1e-9 * s.max()
        izero = int(np.argmin(np.abs(dec.ky)))
        for n in (-1, 1, 3):
            s = np.abs(dec.spectra[dec.order_index(n)])
            assert s[izero] < 1e-9 * s.max()

    def test_ladder_at_sine_coupling(self, gy, wire_profile, small_grid):
        # With C = P cos(theta) and S = P sin(theta), C - iS = R e^{-i phi}:
        # order n carries i^|n| J_|n|(R) e^{-i n phi}, and a laser phase
        # turns order n by e^{-i n phase}.
        _, v0 = electron_kinematics(100.0)
        tilted = LaserParams(wavelength_nm=2000.0, field_v_per_nm=0.2,
                             phase_rad=0.7)
        prof = coupling_profile(WIRE, tilted, v0, small_grid.y)
        assert abs(math.sin(prof.theta)) * np.abs(prof.coupling).max() > 0.1
        dec = order_amplitudes_exact(prof, gy, n_max=8)
        flat = order_amplitudes_exact(wire_profile, gy, n_max=8)
        c, s = math.cos(prof.theta) * prof.coupling, math.sin(prof.theta) * prof.coupling
        r, phi = np.hypot(c, s), np.arctan2(s, c)
        scale = float(np.max(np.abs(dec.amplitudes)))
        for n in range(-8, 9):
            a = dec.amplitudes[dec.order_index(n)]
            expected = (1j ** abs(n)) * scipy.special.jv(abs(n), r) * np.exp(
                -1j * n * phi) * gy
            assert np.max(np.abs(a - expected)) < 1e-12 * scale
            turned = np.exp(-0.7j * n) * flat.amplitudes[flat.order_index(n)]
            assert np.max(np.abs(a - turned)) < 1e-9 * scale
        assert float(populations(dec).sum()) == pytest.approx(1.0, abs=1e-6)


@st.composite
def ladder_cases(draw):
    """A wire or a calibrated gap, anywhere near the beam, at any laser phase."""
    center = (draw(st.floats(-20.0, 20.0)), draw(st.floats(-5.0, 5.0)))
    if draw(st.booleans()):
        model = WireModel(radius_nm=draw(st.floats(4.0, 15.0)), response=0.5,
                          center=center)
        field = draw(st.floats(0.05, 0.5))
    else:
        separation = draw(st.floats(15.0, 30.0))
        model = calibrate_gap_amplitude(GapResonatorModel(
            separation_nm=separation,
            smoothing_fwhm_nm=draw(st.floats(0.3, 0.7)) * separation,
            peak_field_v_per_nm=draw(st.floats(0.1, 0.6)), center=center))
        field = model.peak_field_v_per_nm / 20.0
    laser = LaserParams(wavelength_nm=2000.0, field_v_per_nm=field,
                        phase_rad=draw(st.floats(0.0, 2.0 * math.pi,
                                                 exclude_max=True)))
    return model, laser, draw(st.floats(60.0, 150.0))


class TestLadderOracle:
    """The analytic engine against the Jacobi-Anger ladder built here from
    scipy's Bessel functions: with C = P cos(theta), S = P sin(theta),
    R = |C - iS| and phi = arg(C + iS),
    exp(i R cos(dk x - phi)) = sum_n i^|n| J_|n|(R) e^{-i n phi} e^{i n dk x}."""

    GRID = Grid2D.centered(1024, 256, 0.25, 0.5)

    @settings(max_examples=15, deadline=None)
    @given(ladder_cases())
    # A subnormal centre makes P subnormal on the beam axis, where a division
    # by |P| would overflow.
    @example((WireModel(radius_nm=4.0, response=0.5, center=(0.0, 1.1125369292536007e-308)),
              LaserParams(wavelength_nm=2000.0, field_v_per_nm=0.25), 60.0))
    def test_mask_and_orders_equal_the_ladder(self, case):
        model, laser, energy = case
        grid = self.GRID
        _, v0 = electron_kinematics(energy)
        profile = coupling_profile(model, laser, v0, grid.y)
        psi = gaussian_wavepacket(grid, energy, 30.0, 12.0)
        iy, ix = np.unravel_index(np.argmax(np.abs(psi.amplitudes)),
                                  psi.amplitudes.shape)
        g_y = psi.amplitudes[:, ix]
        g_x = psi.amplitudes[iy, :] / psi.amplitudes[iy, ix]
        c = math.cos(profile.theta) * profile.coupling
        s = math.sin(profile.theta) * profile.coupling
        r, phi = np.hypot(c, s), np.arctan2(s, c)
        r_max = float(r.max())
        n_max = math.ceil(r_max + 8.0 * r_max ** (1.0 / 3.0) + 25.0)
        orders = range(-n_max, n_max + 1)
        a = {n: (1j ** abs(n)) * scipy.special.jv(abs(n), r) * np.exp(-1j * n * phi)
             * g_y for n in orders}
        ladder = np.zeros_like(psi.amplitudes)
        for n in orders:
            ladder += np.outer(a[n], g_x * np.exp(1j * n * profile.delta_k * grid.x))

        out = apply_interaction(psi, build_phase_mask(profile, grid))
        assert np.linalg.norm(out.amplitudes - ladder) <= 1e-12 * np.linalg.norm(ladder)
        expected = momentum_density(psi.with_amplitudes(ladder)).values
        assert rel_l2(momentum_density(out).values, expected) <= 1e-12

        norm = math.sqrt(float(np.sum(np.abs(g_y) ** 2)) * grid.dy)
        dec = order_amplitudes_exact(profile, g_y / norm, n_max=n_max)
        scale = max(float(np.max(np.abs(a[n]))) for n in orders) / norm
        for n in orders:
            got = dec.amplitudes[dec.order_index(n)]
            assert np.max(np.abs(got - a[n] / norm)) <= 1e-13 * scale


class TestOrderSeries:
    def test_depth_below_order_rejected(self):
        with pytest.raises(DomainError):
            order_series_taylor(1.0, 3, 2)

    def test_zero_coupling_ground_state(self):
        assert order_series_taylor(0.0, 0, 0) == pytest.approx(1.0 + 0.0j)

    def test_single_path_term(self):
        for n in range(0, 5):
            for c in (0.3, 1.0, 2.5):
                got = order_series_taylor(c, n, n)
                expected = (1j**n) * (c / 2.0) ** n / math.factorial(n)
                assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("coupling", [-5.0, -3.0, -1.0, 0.3, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("n", [0, 1, 2, 4, 6, -2])
    def test_converges_to_bessel(self, coupling, n):
        got = order_series_taylor(coupling, n, 30)
        expected = (1j ** abs(n)) * scipy.special.jv(abs(n), coupling)
        assert abs(got - expected) < 1e-10

    def test_partial_sums_converge_monotonically_in_depth(self):
        target = (1j**2) * scipy.special.jv(2, 3.0)
        errs = [abs(order_series_taylor(3.0, 2, l) - target) for l in (4, 8, 16, 30)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[3] < 1e-10


class TestWeakFieldOrder:
    def test_order_zero_matches_initial_spectrum(self, gy, small_grid, wire_profile):
        ky_got, values = weak_field_order(wire_profile, gy, 0)
        dy = small_grid.dy
        ky = 2 * np.pi * np.fft.fftshift(np.fft.fftfreq(len(gy), dy))
        ref = np.fft.fftshift(np.fft.fft(gy)) * dy / math.sqrt(2 * math.pi)
        ref *= np.exp(-1j * ky * small_grid.y[0])
        assert np.array_equal(ky_got, ky)
        assert np.max(np.abs(values - ref)) < 1e-12

    def test_order_one_matches_convolution_oracle(self, gy, small_grid, wire_profile):
        # Brute-force circular convolution of the transverse spectrum with the
        # coupling transform.  With the unitary convention used throughout,
        # FT[f g] = dky/sqrt(2 pi) * (FT[f] conv FT[g]); on the centered grid
        # the transform is exactly periodic over the momentum window, so the
        # convolution wraps in DFT index order.
        _, values = weak_field_order(wire_profile, gy, 1)
        grid = small_grid
        ky = 2 * np.pi * np.fft.fftshift(np.fft.fftfreq(grid.ny, grid.dy))

        def uft(f):
            out = np.fft.fftshift(np.fft.fft(f)) * grid.dy / math.sqrt(2 * math.pi)
            return out * np.exp(-1j * ky * grid.y[0])

        a = np.fft.ifftshift(uft(gy))
        b = np.fft.ifftshift(uft(wire_profile.coupling / 2.0))
        n = grid.ny
        conv = np.zeros(n, dtype=complex)
        for j in range(n):
            acc = 0.0 + 0.0j
            for m in range(n):
                acc += a[(j - m) % n] * b[m]
            conv[j] = acc
        expected = 1j * np.fft.fftshift(conv) * grid.dky / math.sqrt(2.0 * math.pi)
        assert np.max(np.abs(values - expected)) < 1e-12 * np.max(np.abs(values))

    def test_negative_order_uses_the_conjugate_coupling(self, gy, small_grid,
                                                          stripe_profile):
        for n in (1, 2, 3):
            _, plus = weak_field_order(stripe_profile, gy, n)
            _, minus = weak_field_order(stripe_profile, gy, -n)
            assert np.max(np.abs(minus - plus)) <= 1e-15 * np.max(np.abs(plus))
        _, v0 = electron_kinematics(100.0)
        tilted = LaserParams(wavelength_nm=2000.0, field_v_per_nm=0.2,
                             phase_rad=0.7)
        prof = coupling_profile(WIRE, tilted, v0, small_grid.y)
        k_bar = prof.coupling * np.exp(1j * prof.theta)
        for n in (1, 2):
            _, values = weak_field_order(prof, gy, -n)
            _, expected = unitary_transform_1d(
                (1j ** n) * (k_bar / 2.0) ** n / math.factorial(n) * gy, prof.y)
            assert np.max(np.abs(values - expected)) < 1e-12 * np.max(
                np.abs(expected))

    @pytest.mark.parametrize("phase", [0.0, 1.0, 0.5 * math.pi],
                             ids=["phase0", "phase1", "phase_pi_2"])
    def test_approaches_exact_order_as_field_weakens(self, gy, small_grid, phase):
        _, v0 = electron_kinematics(100.0)
        gaps = []
        for scale in (1.0, 0.25):
            laser = LaserParams(wavelength_nm=2000.0,
                                field_v_per_nm=0.2 * scale, phase_rad=phase)
            prof = coupling_profile(WIRE, laser, v0, small_grid.y)
            exact = order_amplitudes_exact(prof, gy, n_max=6)
            a1 = exact.spectra[exact.order_index(1)]
            _, weak = weak_field_order(prof, gy, 1)
            gaps.append(np.linalg.norm(weak - a1) / np.linalg.norm(a1))
        assert gaps[1] < gaps[0]


class TestOrderFactors:
    @pytest.mark.parametrize("p", [0.0, 5e-324, 1e-18, 0.5, 1.72, 3.01, 4.36, 11.9, 40.0])
    def test_order_limit_bounds_the_bessel_tail(self, p):
        n = order_limit(np.array([0.25 * p, -p]))
        assert n >= p
        assert (p / 2.0) ** n / math.factorial(n) < ORDER_TAIL
        if n > max(1, math.ceil(p)):
            assert (p / 2.0) ** (n - 1) / math.factorial(n - 1) >= ORDER_TAIL
        assert abs(scipy.special.jv(n, p)) < ORDER_TAIL

    def test_fig2_order_limits(self):
        spec = build_preset("fig2")
        limits = {}
        for energy in (50.0, 577.0, 10000.0):
            cfg = spec.point(energy)
            _, v0 = electron_kinematics(energy)
            limits[energy] = order_limit(
                coupling_profile(cfg.model, cfg.laser, v0, cfg.grid.y).coupling)
        assert limits == {50.0: 23, 577.0: 27, 10000.0: 19}

    @pytest.mark.parametrize("phase", [0.0, 0.7, 2.0])
    def test_order_sum_is_the_interacted_spectrum(self, small_grid, phase):
        # sum_n a[n] b[n] against the 2D mask, factor and transform, for a
        # packet off the x axis origin.
        laser = LaserParams(wavelength_nm=2000.0, field_v_per_nm=0.2, phase_rad=phase)
        _, v0 = electron_kinematics(100.0)
        profile = coupling_profile(WireModel(radius_nm=10.0, center=(150.0, 0.0)),
                                   laser, v0, small_grid.y)
        psi = gaussian_wavepacket(small_grid, 100.0, 40.0, 16.0, center=(20.0, 5.0))
        gy, gx = gaussian_factors(small_grid, 40.0, 16.0, center=(20.0, 5.0))
        factors = interaction_factors(profile, small_grid, gy, gx)
        spectrum = np.einsum("nk,nj->kj", factors.a, factors.b)
        expected = to_momentum(apply_interaction(
            psi, build_phase_mask(profile, small_grid))).values
        assert np.linalg.norm(spectrum - expected) <= 1e-13 * np.linalg.norm(expected)
        assert factors.value(3, 7) == pytest.approx(expected[3, 7], rel=1e-13)

    @settings(max_examples=40, deadline=None)
    @example(theta=0.0, wire_y=0.0, centre=(0.0, 0.0), flight=None, p_max=4.36)
    @example(theta=0.7, wire_y=5.0, centre=(20.0, 5.0), flight="xy", p_max=11.9)
    @example(theta=2.0, wire_y=-9.0, centre=(-25.0, -4.0), flight="x", p_max=11.9)
    @given(theta=st.floats(-2.0 * math.pi, 2.0 * math.pi),
           wire_y=st.floats(-12.0, 12.0),
           centre=st.tuples(st.floats(-30.0, 30.0), st.floats(-6.0, 6.0)),
           flight=st.sampled_from([None, "xy", "x"]),
           p_max=st.floats(0.0, 11.9))
    def test_cosine_orders_against_the_grid(self, theta, wire_y, centre, flight, p_max):
        # The cosine-order factors of a flown or unflown packet, off centre,
        # at couplings up to fig4-limited's max |P| of 11.9, against the 2D
        # mask, factor and transform, and the marginals against sums over
        # that density.
        grid = Grid2D.centered(512, 128, 0.5, 0.5)
        _, v0 = electron_kinematics(100.0)
        profile = coupling_profile(WireModel(radius_nm=5.0, center=(0.0, wire_y)),
                                   LASER, v0, grid.y)
        peak = float(np.max(np.abs(profile.coupling)))
        profile = dataclasses.replace(profile, theta=theta,
                                      coupling=profile.coupling * (p_max / peak))
        gy, gx = gaussian_factors(grid, 40.0, 12.0, center=centre)
        if flight:
            gy, gx = vacuum_propagate_factors(grid, gy, gx, 150.0, axes=flight)
        factors = interaction_factors(profile, grid, gy, gx)
        spectrum = np.einsum("jk,jl->kl", factors.a, factors.b)
        psi = separable_packet(grid, 1.0, gy, gx)
        expected = to_momentum(apply_interaction(psi, build_phase_mask(profile, grid))).values
        assert np.linalg.norm(spectrum - expected) <= 1e-13 * np.linalg.norm(expected)
        rho = expected.real**2 + expected.imag**2
        for got, want in ((factors.kx_marginal(), rho.sum(axis=0) * grid.dky),
                          (factors.ky_marginal(), rho.sum(axis=1) * grid.dkx)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)
        assert np.array_equal(factors.gram_y, factors.gram_y.T)
        assert np.array_equal(factors.gram_x, factors.gram_x.T)
        # C directly, with each cos(j phi) in extended precision so that the
        # rounding of j phi does not enter.
        phi = (profile.delta_k * grid.x - profile.theta).astype(np.longdouble)
        cosines = np.cos(np.arange(len(factors.a))[:, None] * phi)
        direct = np.einsum("jx,lx,x->jl", cosines, cosines,
                           (gx.real**2 + gx.imag**2) * grid.dx).astype(float)
        assert np.max(np.abs(factors.gram_x - direct)) <= 1e-14

    @settings(max_examples=25, deadline=None)
    @example(theta=0.0, wire_y=0.0, centre_y=0.0, tau=1.0, p_max=0.0)
    @example(theta=0.7, wire_y=5.0, centre_y=5.0, tau=150.0, p_max=11.9)
    @given(theta=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
           wire_y=st.floats(-12.0, 12.0), centre_y=st.floats(-6.0, 6.0),
           tau=st.floats(1.0, 150.0), p_max=st.floats(0.0, 11.9))
    def test_exact_orders_are_the_turned_bessel_rows(self, theta, wire_y, centre_y,
                                                     tau, p_max):
        # Order n of order_amplitudes_exact is i^|n| e^{-i n theta} times the
        # transform a[|n|] of J_|n|(P) g_y that the cosine factors keep, for a
        # complex g_y after a flight.
        grid = Grid2D.centered(256, 128, 0.5, 0.5)
        _, v0 = electron_kinematics(100.0)
        profile = coupling_profile(WireModel(radius_nm=5.0, center=(0.0, wire_y)),
                                   LASER, v0, grid.y)
        peak = float(np.max(np.abs(profile.coupling)))
        profile = dataclasses.replace(profile, theta=theta,
                                      coupling=profile.coupling * (p_max / peak))
        gy, gx = vacuum_propagate_factors(
            grid, *gaussian_factors(grid, 30.0, 12.0, center=(0.0, centre_y)), tau)
        assert np.max(np.abs(gy.imag)) > 0.0
        a = interaction_factors(profile, grid, gy, gx).a
        dec = order_amplitudes_exact(profile, gy, n_max=len(a) - 1)
        assert np.array_equal(dec.orders, np.arange(1 - len(a), len(a)))
        scale = float(np.max(np.abs(a)))
        for n in dec.orders:
            turned = 1j ** abs(n) * np.exp(-1j * n * theta) * a[abs(n)]
            got = dec.spectra[dec.order_index(n)]
            assert np.max(np.abs(got - turned)) <= 1e-15 * scale

    def test_profile_off_the_grid_rejected(self, small_grid, wire_profile):
        gy, gx = gaussian_factors(small_grid, 40.0, 16.0)
        with pytest.raises(ConfigurationError):
            interaction_factors(wire_profile, Grid2D.centered(512, 128, 0.5, 0.5),
                                gy[:128], gx)


class TestVacuumPropagate:
    def test_norm_preserved(self, packet):
        out = vacuum_propagate(packet, 37.0)
        assert out.norm() == pytest.approx(packet.norm(), abs=1e-12)

    def test_momentum_density_invariant(self, packet):
        before = to_momentum(packet).density()
        after = to_momentum(vacuum_propagate(packet, 25.0)).density()
        assert np.max(np.abs(after - before)) < 1e-12 * before.max()

    def test_gaussian_dispersion_width_oracle(self):
        grid = Grid2D.centered(1024, 64, 0.5, 1.0)
        psi = gaussian_wavepacket(grid, 100.0, 20.0, 10.0)
        tau = 120.0
        out = vacuum_propagate(psi, tau)
        rho = out.density().sum(axis=0)
        x = grid.x
        mass = rho.sum()
        mean = (rho * x).sum() / mass
        sig = math.sqrt(float((rho * (x - mean) ** 2).sum() / mass))
        sig0 = 20.0 / math.sqrt(8 * math.log(2))
        sig_k = 1.0 / (2.0 * sig0)
        expected = math.hypot(sig0, HBAR * sig_k * tau / ELECTRON_MASS)
        assert sig == pytest.approx(expected, rel=1e-3)

    def test_chirp_reaches_target_temporal_spread(self):
        grid = Grid2D.centered(1024, 64, 0.25, 1.0)
        energy, bandwidth, target = 100.0, 2.0, 8.0
        fwhm_x = bandwidth_to_fwhm_x(bandwidth, energy)
        psi = gaussian_wavepacket(grid, energy, fwhm_x, 10.0)
        tau = chirp_flight_time(bandwidth, energy, target)
        out = vacuum_propagate(psi, tau, axes="x")
        assert temporal_spread(out) == pytest.approx(target, rel=1e-3)

    def test_outgrowing_grid_rejected(self):
        grid = Grid2D.centered(128, 64, 0.5, 0.5)
        psi = gaussian_wavepacket(grid, 100.0, 10.0, 6.0)
        with pytest.raises(ConfigurationError):
            vacuum_propagate(psi, 5000.0)

    def test_axes_validation(self, packet):
        with pytest.raises(DomainError):
            vacuum_propagate(packet, 10.0, axes="y")

    @pytest.mark.parametrize("axes", ["x", "xy"])
    def test_bits_equal_full_grid_expression(self, packet, axes):
        # The grid is large enough for NumPy to reuse temporaries, which
        # reorders the operands of a complex multiply and so its bits.
        g = packet.grid
        assert 16 * g.nx * g.ny > 256 * 1024
        tau = 30.0
        spec = to_momentum(packet)
        ksq = (spec.kx - packet.k0)[None, :] ** 2
        if axes == "xy":
            ksq = ksq + spec.ky[:, None] ** 2
        vals = spec.values * np.exp(1j * ((-HBAR * tau / (2.0 * ELECTRON_MASS)) * ksq))
        vals = vals * np.conj(np.exp(-1j * g.kx * g.x0))[None, :]
        vals = vals * np.conj(np.exp(-1j * g.ky * g.y0))[:, None]
        expected = scipy.fft.ifft2(np.fft.ifftshift(vals)
                                   / (g.cell_area / (2.0 * np.pi)))
        out = vacuum_propagate(packet, tau, axes=axes)
        assert out.t == packet.t + tau
        assert np.array_equal(out.amplitudes.view(np.uint64),
                              expected.view(np.uint64))

    @pytest.mark.parametrize("axes", ["x", "xy"])
    def test_factors_fly_as_the_packet(self, packet, axes):
        g = packet.grid
        gy, gx = gaussian_factors(g, 40.0, 16.0)
        fy, fx = vacuum_propagate_factors(g, gy, gx, 30.0, axes=axes)
        out = vacuum_propagate(packet, 30.0, axes=axes).amplitudes
        assert np.max(np.abs(fy[:, None] * fx[None, :] - out)) <= 1e-13 * np.max(np.abs(out))
        assert np.sum(np.abs(fx) ** 2) * g.dx == pytest.approx(1.0, abs=1e-13)

    def test_factors_outgrowing_grid_rejected_as_the_packet(self):
        grid = Grid2D.centered(128, 64, 0.5, 0.5)
        psi = gaussian_wavepacket(grid, 100.0, 10.0, 6.0)
        with pytest.raises(ConfigurationError) as packet:
            vacuum_propagate(psi, 5000.0)
        with pytest.raises(ConfigurationError) as factors:
            vacuum_propagate_factors(grid, *gaussian_factors(grid, 10.0, 6.0), 5000.0)
        assert str(factors.value) == str(packet.value)
        with pytest.raises(DomainError):
            vacuum_propagate_factors(grid, *gaussian_factors(grid, 10.0, 6.0), 1.0,
                                     axes="y")

    @pytest.mark.parametrize("axes, bound", [("x", 3.25), ("xy", 3.75)])
    def test_fig4_chirped_peak_memory(self, axes, bound):
        # The chirped fig4 flight keeps the spectrum, its propagated copy and
        # the inverse transform's buffer; xy adds a real full-grid phase.
        cfg = build_preset("fig4-chirped")
        e = cfg.electron
        fwhm_x = bandwidth_to_fwhm_x(e.bandwidth_ev, e.energy_ev)
        psi = gaussian_wavepacket(cfg.grid, e.energy_ev, fwhm_x, e.fwhm_y_nm)
        tau = e.prepropagation_fs if axes == "x" else 200.0
        with scipy.fft.set_workers(1):
            tracemalloc.start()
            try:
                base, _ = tracemalloc.get_traced_memory()
                out = vacuum_propagate(psi, tau, axes=axes)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert out.norm() == pytest.approx(1.0, abs=1e-12)
        assert (peak - base) / psi.amplitudes.nbytes <= bound
