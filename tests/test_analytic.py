"""Phase-mask engine, photon orders, series identities, free flight."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.special

from conftest import uniform_profile

from nediff.analytic import (apply_interaction, build_phase_mask,
                             order_amplitudes_exact, order_series_taylor,
                             transverse_envelope, vacuum_propagate,
                             weak_field_order)
from nediff.config import build_preset
from nediff.core import (BLOCK_BYTES, Grid2D, bandwidth_to_fwhm_x, chirp_flight_time,
                         gaussian_wavepacket, temporal_spread, to_momentum)
from nediff.errors import ConfigurationError, DomainError
from nediff.nearfield import LaserParams, WireModel, coupling_profile
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
        arg = wire_profile.delta_k * small_grid.x
        expected = (wire_profile.coupling_cos[:, None] * np.cos(arg)[None, :]
                    + wire_profile.coupling_sin[:, None] * np.sin(arg)[None, :])
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
        assert profile.max_sin > 0.1
        psi = gaussian_wavepacket(g, 100.0, 4.0, 2.0)
        assert np.count_nonzero(psi.amplitudes == 0.0) > g.nx * g.ny // 4
        assert 16 * g.nx * g.ny > BLOCK_BYTES  # several row blocks
        arg = profile.delta_k * g.x
        phase = (profile.coupling_cos[:, None] * np.cos(arg)[None, :]
                 + profile.coupling_sin[:, None] * np.sin(arg)[None, :])
        expected = psi.amplitudes * np.exp(1j * phase)
        for workers in (1, 2):
            with scipy.fft.set_workers(workers):
                out = apply_interaction(psi, build_phase_mask(profile, g))
            assert np.array_equal(out.amplitudes.view(np.uint64),
                                  expected.view(np.uint64))

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
    def test_zero_coupling_keeps_ground_state(self, packet, small_grid):
        _, v0 = electron_kinematics(100.0)
        prof = uniform_profile(0.0, -1.0, 1.0, LASER, v0, small_grid.y)
        dec = order_amplitudes_exact(packet, prof, n_max=3)
        gy = transverse_envelope(packet)
        i0 = dec.order_index(0)
        assert np.max(np.abs(dec.amplitudes[i0] - gy)) < 1e-12
        for n in (-3, -2, -1, 1, 2, 3):
            assert np.max(np.abs(dec.amplitudes[dec.order_index(n)])) < 1e-12

    def test_stripe_bessel_weights(self, packet, stripe_profile):
        dec = order_amplitudes_exact(packet, stripe_profile, n_max=8)
        pops = populations(dec)
        for n in range(0, 4):
            expected = scipy.special.jv(n, 1.0) ** 2
            assert pops[dec.order_index(n)] == pytest.approx(expected, abs=1e-10)
            assert pops[dec.order_index(-n)] == pytest.approx(expected, abs=1e-10)

    def test_completeness(self, packet, wire_profile):
        dec = order_amplitudes_exact(packet, wire_profile, n_max=8)
        assert float(populations(dec).sum()) == pytest.approx(1.0, abs=1e-6)

    def test_odd_orders_vanish_on_axis(self, packet, wire_profile, small_grid):
        dec = order_amplitudes_exact(packet, wire_profile, n_max=8)
        iy0 = small_grid.ny // 2
        scale = float(np.max(np.abs(dec.amplitudes)))
        for n in (-3, -1, 1, 3):
            assert abs(dec.amplitudes[dec.order_index(n)][iy0]) < 1e-12 * scale

    def test_order_parity(self, packet, wire_profile):
        dec = order_amplitudes_exact(packet, wire_profile, n_max=8)
        for n in (-2, -1, 0, 1, 2):
            a = dec.amplitudes[dec.order_index(n)]
            sign = (-1.0) ** abs(n)
            assert np.max(np.abs(a[1:] - sign * a[1:][::-1])) < 1e-9

    def test_transverse_spectra_parity(self, packet, wire_profile):
        # Even |spectrum| in k_y for every order; odd orders vanish at k_y=0.
        dec = order_amplitudes_exact(packet, wire_profile, n_max=8)
        for n in (0, 1, 2, 3):
            s = np.abs(dec.spectra[dec.order_index(n)])
            assert np.max(np.abs(s[1:] - s[1:][::-1])) < 1e-9 * s.max()
        izero = int(np.argmin(np.abs(dec.ky)))
        for n in (-1, 1, 3):
            s = np.abs(dec.spectra[dec.order_index(n)])
            assert s[izero] < 1e-9 * s.max()

    def test_rejects_sine_coupling(self, packet, small_grid):
        _, v0 = electron_kinematics(100.0)
        tilted = LaserParams(wavelength_nm=2000.0, field_v_per_nm=0.2,
                             phase_rad=0.7)
        prof = coupling_profile(WIRE, tilted, v0, small_grid.y)
        with pytest.raises(DomainError, match="apply_interaction"):
            order_amplitudes_exact(packet, prof, n_max=8)


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
    def test_order_zero_matches_initial_spectrum(self, packet, wire_profile):
        ws = weak_field_order(packet, wire_profile, 0)
        gy = transverse_envelope(packet)
        dy = packet.grid.dy
        ky = 2 * np.pi * np.fft.fftshift(np.fft.fftfreq(len(gy), dy))
        ref = np.fft.fftshift(np.fft.fft(gy)) * dy / math.sqrt(2 * math.pi)
        ref *= np.exp(-1j * ky * packet.grid.y[0])
        assert np.max(np.abs(ws.values - ref)) < 1e-12

    def test_order_one_matches_convolution_oracle(self, packet, wire_profile):
        # Brute-force circular convolution of the transverse spectrum with the
        # coupling transform.  With the unitary convention used throughout,
        # FT[f g] = dky/sqrt(2 pi) * (FT[f] conv FT[g]); on the centered grid
        # the transform is exactly periodic over the momentum window, so the
        # convolution wraps in DFT index order.
        ws = weak_field_order(packet, wire_profile, 1)
        gy = transverse_envelope(packet)
        grid = packet.grid
        ky = 2 * np.pi * np.fft.fftshift(np.fft.fftfreq(grid.ny, grid.dy))

        def uft(f):
            out = np.fft.fftshift(np.fft.fft(f)) * grid.dy / math.sqrt(2 * math.pi)
            return out * np.exp(-1j * ky * grid.y[0])

        a = np.fft.ifftshift(uft(gy))
        b = np.fft.ifftshift(uft(wire_profile.coupling_cos / 2.0))
        n = grid.ny
        conv = np.zeros(n, dtype=complex)
        for j in range(n):
            acc = 0.0 + 0.0j
            for m in range(n):
                acc += a[(j - m) % n] * b[m]
            conv[j] = acc
        expected = 1j * np.fft.fftshift(conv) * grid.dky / math.sqrt(2.0 * math.pi)
        assert np.max(np.abs(ws.values - expected)) < 1e-12 * np.max(np.abs(ws.values))

    def test_rejects_negative_order(self, packet, wire_profile):
        with pytest.raises(DomainError):
            weak_field_order(packet, wire_profile, -1)

    def test_approaches_exact_order_as_field_weakens(self, packet, small_grid):
        _, v0 = electron_kinematics(100.0)
        gaps = []
        for scale in (1.0, 0.25):
            laser = LaserParams(wavelength_nm=2000.0,
                                field_v_per_nm=0.2 * scale)
            prof = coupling_profile(WIRE, laser, v0, small_grid.y)
            exact = order_amplitudes_exact(packet, prof, n_max=6)
            a1 = exact.spectra[exact.order_index(1)]
            weak = weak_field_order(packet, prof, 1).values
            gaps.append(np.linalg.norm(weak - a1) / np.linalg.norm(a1))
        assert gaps[1] < gaps[0]


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
