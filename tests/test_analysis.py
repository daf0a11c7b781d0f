"""Observables and scan metrics."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.special

from conftest import uniform_profile

from nediff.analysis import (Crosscut, DensityMap, crosscut, deflection_angle,
                             energy_axis, energy_bandwidth_fwhm, find_peaks,
                             max_deflection, momentum_density, peak_spacing,
                             rel_l2, sideband_populations,
                             transverse_splitting)
from nediff.analytic import (apply_interaction, build_phase_mask,
                             transverse_envelope)
from nediff import scenario
from nediff.config import ElectronSpec, ScenarioConfig, SweepSpec, build_preset
from nediff.core import (BLOCK_BYTES, Grid2D, bandwidth_to_fwhm_x,
                         gaussian_wavepacket, to_momentum, unitary_transform_1d)
from nediff.errors import AnalysisError, ConfigurationError, DomainError
from nediff.nearfield import LaserParams, WireModel, coupling_profile
from nediff.scenario import run_sweep
from nediff.units import HBAR, electron_kinematics

LASER = LaserParams(wavelength_nm=2000.0, field_v_per_nm=0.2)
WIRE = WireModel(radius_nm=10.0, response=0.5)


@pytest.fixture(scope="module")
def grid():
    return Grid2D.centered(512, 256, 0.5, 0.5)


@pytest.fixture(scope="module")
def packet(grid):
    return gaussian_wavepacket(grid, 100.0, 40.0, 16.0)


@pytest.fixture(scope="module")
def interacted(grid, packet):
    _, v0 = electron_kinematics(100.0)
    profile = coupling_profile(WIRE, LASER, v0, grid.y)
    psi = apply_interaction(packet, build_phase_mask(profile, grid))
    return profile, psi, momentum_density(psi)


class TestMomentumDensity:
    def test_total_mass(self, interacted):
        _, _, dmap = interacted
        total = float(dmap.values.sum()) * dmap.dkx * dmap.dky
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_nonnegative(self, interacted):
        _, _, dmap = interacted
        assert np.all(dmap.values >= 0.0)

    def test_plane_wave_spike(self, grid):
        from nediff.core import Wavepacket
        amps = np.full((grid.ny, grid.nx), 1.0 + 0.0j)
        amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)) * grid.cell_area)
        k0, _ = electron_kinematics(100.0)
        dmap = momentum_density(Wavepacket(grid=grid, amplitudes=amps, t=0.0, k0=k0))
        flat = dmap.values.ravel()
        top = np.sort(flat)[-2:]
        assert top[-1] * dmap.dkx * dmap.dky == pytest.approx(1.0, rel=1e-12)
        assert top[-2] < 1e-20 * top[-1]

    def test_bits_equal_full_grid_expression(self, grid):
        # Sine coupling from a nonzero laser phase; a narrow packet whose
        # tails underflow to zero.  Compared as integers, so signed zeros
        # count, not only values.
        _, v0 = electron_kinematics(100.0)
        laser = LaserParams(wavelength_nm=2000.0, field_v_per_nm=0.2, phase_rad=0.7)
        profile = coupling_profile(WIRE, laser, v0, grid.y)
        assert np.abs(profile.coupling_sin).max() > 0.1
        packet = gaussian_wavepacket(grid, 100.0, 4.0, 2.0)
        assert np.count_nonzero(packet.amplitudes == 0.0) > grid.nx * grid.ny // 4
        assert 16 * grid.nx * grid.ny > BLOCK_BYTES  # several row blocks
        psi = apply_interaction(packet, build_phase_mask(profile, grid))
        g = psi.grid
        spec = np.fft.fftshift(scipy.fft.fft2(psi.amplitudes)) * (
            g.cell_area / (2.0 * np.pi))
        spec = spec * np.exp(-1j * g.kx * g.x0)[None, :]
        spec *= np.exp(-1j * g.ky * g.y0)[:, None]
        for workers in (1, 2):
            with scipy.fft.set_workers(workers):
                dmap = momentum_density(psi)
                values = to_momentum(psi).values
            assert np.array_equal(values.view(np.uint64), spec.view(np.uint64))
            assert np.array_equal(dmap.values.view(np.uint64),
                                  (spec.real**2 + spec.imag**2).view(np.uint64))

    def test_fig2_point_peak_memory(self):
        # The analytic stages of one fig2 sweep point stream their row
        # blocks: above the input packet they hold the interacted packet,
        # the raw transform and the density, not a full-grid phase mask,
        # exponential or kept spectrum (about 4 complex grids).
        cfg = build_preset("fig2").point(600.0)
        psi0 = scenario.build_initial_state(cfg)
        _, v0 = electron_kinematics(cfg.electron.energy_ev)
        profile = coupling_profile(cfg.model, cfg.laser, v0, cfg.grid.y)
        with scipy.fft.set_workers(1):
            tracemalloc.start()
            try:
                base, _ = tracemalloc.get_traced_memory()
                psi = apply_interaction(psi0, build_phase_mask(profile, cfg.grid))
                dmap = momentum_density(psi)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert dmap.values.shape == psi0.amplitudes.shape
        assert (peak - base) / psi0.amplitudes.nbytes <= 2.75


class TestCrosscut:
    def test_interpolates_between_rows(self):
        kx = np.linspace(-1.0, 1.0, 8)
        ky = np.linspace(-1.0, 1.0, 4)
        values = np.outer(ky + 2.0, np.ones(8))
        dmap = DensityMap(values=values, kx=kx, ky=ky,
                          dkx=float(kx[1] - kx[0]), dky=float(ky[1] - ky[0]),
                          k0=0.0)
        mid = 0.5 * (ky[1] + ky[2])
        cut = crosscut(dmap, "kx", float(mid))
        assert np.allclose(cut.density, mid + 2.0)

    def test_symmetric_density_symmetric_cuts(self):
        kx = np.linspace(50.0, 52.0, 64)
        ky = np.linspace(-2.0, 2.0 - 4.0 / 64, 64)
        values = np.exp(-np.abs(ky)[:, None]) * (1.0 + 0.1 * kx[None, :])
        dmap = DensityMap(values=values, kx=kx, ky=ky,
                          dkx=float(kx[1] - kx[0]), dky=float(ky[1] - ky[0]),
                          k0=51.0)
        up = crosscut(dmap, "kx", 0.35)
        down = crosscut(dmap, "kx", -0.35)
        assert np.allclose(up.density, down.density, rtol=1e-12, atol=0.0)

    def test_out_of_range_rejected(self, interacted):
        _, _, dmap = interacted
        with pytest.raises(DomainError):
            crosscut(dmap, "ky", 1e6)
        with pytest.raises(DomainError):
            crosscut(dmap, "bogus", 0.0)


class TestSidebandPopulations:
    def test_stripe_bessel_oracle(self):
        g = Grid2D.centered(2048, 256, 0.25, 0.5)
        psi = gaussian_wavepacket(g, 100.0, 100.0, 20.0)
        _, v0 = electron_kinematics(100.0)
        profile = uniform_profile(1.0, -60.0, 60.0, LASER, v0, g.y)
        out = apply_interaction(psi, build_phase_mask(profile, g))
        table = sideband_populations(momentum_density(out), psi.k0,
                                     profile.delta_k)
        for n in range(-3, 4):
            assert table.population(n) == pytest.approx(
                scipy.special.jv(abs(n), 1.0) ** 2, abs=1e-6)

    def test_zero_field_keeps_ground_state(self):
        # Long packet in a long box: the packet bandwidth stays far inside
        # the order-0 bin and the envelope tails stay far off the grid edge.
        g = Grid2D.centered(2048, 64, 0.5, 1.0)
        psi = gaussian_wavepacket(g, 100.0, 150.0, 10.0)
        dmap = momentum_density(psi)
        table = sideband_populations(dmap, psi.k0, 0.16)
        assert table.population(0) >= 1.0 - 1e-9

    def test_populations_sum_below_total(self, interacted):
        _, psi, dmap = interacted
        table = sideband_populations(dmap, psi.k0, 0.158)
        total = float(table.populations.sum())
        assert 1.0 - 1e-6 <= total <= 1.0 + 1e-12

    def test_unresolved_spacing_rejected(self, interacted):
        _, psi, dmap = interacted
        with pytest.raises(ConfigurationError):
            sideband_populations(dmap, psi.k0, 3.0 * dmap.dkx)


class TestPeakSpacing:
    def test_synthetic_period_recovered(self):
        coords = np.linspace(-10.0, 10.0, 2001)
        period = 1.7
        density = 1.0 + np.cos(2.0 * np.pi * coords / period)
        cut = Crosscut(axis="ky", value=0.0, coords=coords, density=density)
        assert peak_spacing(cut) == pytest.approx(period, rel=1e-3)

    def test_single_peak_is_an_error(self):
        coords = np.linspace(-5.0, 5.0, 101)
        cut = Crosscut(axis="ky", value=0.0, coords=coords,
                       density=np.exp(-coords**2))
        with pytest.raises(AnalysisError):
            peak_spacing(cut)

    def test_axis_cut_shows_doubled_spacing(self, interacted):
        # Odd orders vanish on the axis, so the k_y = 0 section carries
        # peaks only at even orders, spaced by twice the mismatch.
        profile, psi, dmap = interacted
        cut = crosscut(dmap, "kx", 0.0)
        spacing = peak_spacing(cut)
        assert spacing == pytest.approx(2.0 * profile.delta_k, abs=dmap.dkx)

    def test_rescale_invariance(self):
        coords = np.linspace(-10.0, 10.0, 1001)
        density = 1.0 + np.cos(coords * 3.0)
        cut1 = Crosscut(axis="ky", value=0.0, coords=coords, density=density)
        cut2 = Crosscut(axis="ky", value=0.0, coords=coords, density=7.3 * density)
        assert peak_spacing(cut1) == pytest.approx(peak_spacing(cut2), rel=1e-12)


class TestEnergyAxis:
    def test_zero_at_carrier(self):
        k0, _ = electron_kinematics(100.0)
        exact, first = energy_axis(np.array([k0]), k0)
        assert exact[0] == 0.0 and first[0] == 0.0

    def test_first_order_gives_photon_energy(self):
        k0, v0 = electron_kinematics(100.0)
        dk = LASER.omega / v0
        _, first = energy_axis(np.array([k0 + dk]), k0)
        assert first[0] == pytest.approx(HBAR * LASER.omega, rel=1e-12)
        assert first[0] == pytest.approx(0.62, abs=0.001)

    def test_exact_vs_first_order_below_one_percent(self):
        k0, v0 = electron_kinematics(100.0)
        dk = LASER.omega / v0
        ks = k0 + dk * np.arange(1, 7)
        exact, first = energy_axis(ks, k0)
        rel = np.abs(exact - first) / np.abs(exact)
        assert np.max(rel) < 0.01


class TestDeflection:
    def test_zero_on_axis(self):
        k0, _ = electron_kinematics(100.0)
        assert deflection_angle(0.0, k0) == 0.0

    def test_monotone_in_energy(self):
        ky = 0.9
        angles = [float(deflection_angle(ky, electron_kinematics(e)[0]))
                  for e in (50.0, 100.0, 400.0, 1000.0)]
        assert all(b < a for a, b in zip(angles, angles[1:]))

    def test_formula(self):
        assert deflection_angle(1.0, 1.0) == pytest.approx(45.0)

    def test_max_deflection_threshold(self):
        ky = np.linspace(-2.0, 2.0, 401)
        kx = np.linspace(49.0, 53.0, 11)
        vals = np.exp(-ky**2 / 0.125)[:, None] * np.ones(11)[None, :]
        dmap = DensityMap(values=vals, kx=kx, ky=ky, dkx=float(kx[1] - kx[0]),
                          dky=float(ky[1] - ky[0]), k0=51.0)
        # 1% threshold of a Gaussian marginal: |ky| <= sigma*sqrt(2 ln 100)
        ky_expect = 0.25 * math.sqrt(2.0 * math.log(100.0))
        got = max_deflection(dmap)
        assert got == pytest.approx(math.degrees(math.atan(ky_expect / 51.0)),
                                    rel=0.05)


class TestBandwidth:
    def test_round_trip_with_construction(self):
        g = Grid2D.centered(1024, 64, 0.25, 1.0)
        fwhm_x = bandwidth_to_fwhm_x(1.0, 100.0)
        psi = gaussian_wavepacket(g, 100.0, fwhm_x, 10.0)
        assert energy_bandwidth_fwhm(psi) == pytest.approx(1.0, rel=0.01)


class TestTransverseSplitting:
    def test_slit_measure_matches_surface_scale(self, interacted):
        profile, _, _ = interacted
        dky = transverse_splitting(profile)
        assert dky == pytest.approx(math.pi / (2.0 * WIRE.radius_nm), rel=0.1)

    def test_lobe_measure_close_to_slit_measure(self, interacted):
        # The literal peak splitting: half the separation of the two
        # dominant lobes of the coupling transform.
        profile, _, _ = interacted
        ky, vals = unitary_transform_1d(profile.coupling_cos, profile.y)
        positions, heights = find_peaks(ky, np.abs(vals) ** 2, threshold=0.05)
        top = np.sort(positions[np.argsort(heights)[::-1][:2]])
        assert top[0] < 0.0 < top[1]
        lobes = 0.5 * (top[1] - top[0])
        assert lobes == pytest.approx(transverse_splitting(profile), rel=0.5)

    def test_laser_phase_leaves_the_splitting_unchanged(self):
        # A laser phase turns C - iS and keeps its magnitude.  At pi/2 the
        # cosine coupling is rounding noise (|C| < 1e-15 on the fig2 point).
        cfg = build_preset("fig2").point(577.0)
        envelope = transverse_envelope(scenario.build_initial_state(cfg))
        _, v0 = electron_kinematics(577.0)

        def splitting(phase):
            laser = dataclasses.replace(cfg.laser, phase_rad=phase)
            profile = coupling_profile(cfg.model, laser, v0, cfg.grid.y)
            return transverse_splitting(profile, envelope=envelope)

        reference = splitting(0.0)
        assert reference == pytest.approx(0.186416, abs=1e-6)
        for phase in (1.0, 0.5 * math.pi):
            assert splitting(phase) == pytest.approx(reference, rel=1e-9)


def test_rel_l2():
    a = np.array([1.0, 2.0])
    assert rel_l2(a, a) == 0.0
    assert rel_l2(np.array([1.0, 2.0]), np.array([1.0, 1.0])) == pytest.approx(
        1.0 / math.sqrt(2.0))
    with pytest.raises(DomainError):
        rel_l2(a, np.zeros(2))


class TestRunSweep:
    def make_spec(self, radii):
        template = ScenarioConfig(
            engine="analytic",
            electron=ElectronSpec(energy_ev=100.0, fwhm_x_nm=40.0, fwhm_y_nm=16.0),
            laser=LASER,
            model=WIRE,
            grid=Grid2D.centered(512, 256, 0.5, 0.5),
        )
        return SweepSpec(template=template, axis="radius_nm", values=tuple(radii))

    def test_collects_points_in_order(self):
        result = run_sweep(self.make_spec([6.0, 10.0, 14.0]))
        assert [p.parameter for p in result.points] == [6.0, 10.0, 14.0]
        assert all(not p.error for p in result.points)
        assert all(p.populations is not None for p in result.points)

    def test_per_point_failure_recorded(self):
        # A radius that is not positive fails its point but must not kill
        # the sweep.
        result = run_sweep(self.make_spec([-1.0, 10.0]))
        assert result.points[0].error.startswith("DomainError")
        assert math.isnan(result.points[0].depletion)
        assert not result.points[1].error

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug in a sweep point")

        monkeypatch.setattr(scenario, "run_sweep_point", broken)
        with pytest.raises(TypeError, match="bug in a sweep point"):
            run_sweep(self.make_spec([6.0, 10.0]), threads=2)

    def test_pool_points_use_one_fft_worker(self, monkeypatch):
        seen = []

        def probe(spec, value):
            seen.append(scipy.fft.get_workers())
            raise DomainError("probe only")

        monkeypatch.setattr(scenario, "run_sweep_point", probe)
        with scipy.fft.set_workers(2):
            result = run_sweep(self.make_spec([6.0, 8.0, 10.0, 12.0]), threads=2)
        assert seen == [1, 1, 1, 1]
        assert all(p.error == "DomainError: probe only" for p in result.points)

    def test_csv_round_trip(self, tmp_path):
        result = run_sweep(self.make_spec([6.0, 10.0]))
        path = tmp_path / "sweep.csv"
        result.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("radius_nm,P_-6")
        assert len(lines) == 3
        data = lines[1].split(",")
        assert float(data[0]) == 6.0
        flag_col = lines[0].split(",").index("depletion_min_flag")
        flags = [row.split(",")[flag_col] for row in lines[1:]]
        assert flags.count("1") == 1
