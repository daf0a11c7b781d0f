"""Observables and scan metrics."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import uniform_profile

from nediff.analysis import (Crosscut, DensityMap, bin_sidebands, crosscut,
                             deflection_angle, energy_axis, energy_bandwidth_fwhm,
                             find_peaks, max_deflection, momentum_density,
                             peak_spacing, rel_l2, sideband_populations,
                             transverse_splitting)
from nediff.analytic import (apply_interaction, build_phase_mask,
                             interaction_factors, transverse_envelope)
from nediff import scenario
from nediff.config import ElectronSpec, ScenarioConfig, SweepSpec, build_preset
from nediff.core import (BLOCK_BYTES, Grid2D, bandwidth_to_fwhm_x,
                         gaussian_wavepacket, to_momentum, unitary_transform_1d)
from nediff.errors import (AnalysisError, ConfigurationError, DomainError,
                           NediffError)
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
        assert abs(math.sin(profile.theta)) * np.abs(profile.coupling).max() > 0.1
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

    @settings(max_examples=80, deadline=None)
    @given(nx=st.integers(min_value=2, max_value=700),
           cells=st.floats(min_value=6.0, max_value=80.0),
           origin=st.floats(min_value=-1.0, max_value=1.0),
           with_spread=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_bins_by_slice_equal_the_mask_form(self, nx, cells, origin, with_spread,
                                               seed):
        # The reference sums each bin as the masked selection idx == n: the
        # same elements in the same order as the slice, so the same bits.
        rng = np.random.default_rng(seed)
        dkx = float(rng.uniform(1e-3, 0.1))
        k0 = float(rng.uniform(1.0, 100.0))
        kx = k0 + (np.arange(nx) - nx // 2 + origin) * dkx
        delta_k = cells * dkx
        mass_x = rng.random(nx) * 10.0 ** rng.uniform(-12.0, 0.0, nx)
        ky2_x = rng.random(nx) if with_spread else None
        table = bin_sidebands(kx, k0, delta_k, mass_x, ky2_x)
        idx = np.floor((kx - k0) / delta_k + 0.5).astype(int)
        want = np.array([float(mass_x[idx == n].sum()) for n in table.orders])
        assert np.array_equal(table.populations.view(np.uint64), want.view(np.uint64))
        if ky2_x is None:
            assert table.ky_spread is None
            return
        spread = np.array([math.sqrt(float(ky2_x[idx == n].sum()) / m) if m > 0.0
                           else 0.0 for n, m in zip(table.orders, want)])
        assert np.array_equal(table.ky_spread.view(np.uint64), spread.view(np.uint64))


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
        ky, vals = unitary_transform_1d(profile.coupling, profile.y)
        positions, heights = find_peaks(ky, np.abs(vals) ** 2, threshold=0.05)
        top = np.sort(positions[np.argsort(heights)[::-1][:2]])
        assert top[0] < 0.0 < top[1]
        lobes = 0.5 * (top[1] - top[0])
        assert lobes == pytest.approx(transverse_splitting(profile), rel=0.5)

    def test_laser_phase_leaves_the_splitting_unchanged(self):
        # A laser phase only turns the profile, by theta; |P| stays, and with
        # it the splitting, also at pi/2 where the cosine coupling vanishes.
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
    @staticmethod
    def template(**electron):
        return ScenarioConfig(
            engine="analytic",
            electron=ElectronSpec(energy_ev=100.0, fwhm_x_nm=40.0, **electron),
            laser=LASER,
            model=WIRE,
            grid=Grid2D.centered(512, 256, 0.5, 0.5),
        )

    def make_spec(self, radii):
        return SweepSpec(template=self.template(fwhm_y_nm=16.0), axis="radius_nm",
                         values=tuple(radii))

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

    def energy_spec(self, energies, **electron):
        return SweepSpec(template=self.template(**electron), axis="energy_ev",
                         values=tuple(energies))

    @staticmethod
    def assert_points_alone(spec, result):
        """Each point equals run_sweep_point run alone at its value, bit for
        bit (NaN included), or failed with the same error."""
        def same_bits(a, b):
            if a is None or b is None:
                return a is b
            a, b = np.asarray(a), np.asarray(b)
            return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

        for value, point in zip(spec.values, result.points):
            if point.error:
                with pytest.raises(NediffError) as info:
                    scenario.run_sweep_point(spec, value)
                assert point.error == f"{type(info.value).__name__}: {info.value}"
                continue
            alone = scenario.run_sweep_point(spec, value)
            for f in dataclasses.fields(point):
                a, b = getattr(point, f.name), getattr(alone, f.name)
                if f.name == "populations":
                    for g in dataclasses.fields(a):
                        assert same_bits(getattr(a, g.name), getattr(b, g.name)), g.name
                elif isinstance(a, float):
                    assert same_bits(a, b), f.name
                else:
                    assert a == b, f.name

    @staticmethod
    def count_builds(monkeypatch):
        """Record the value of every point that builds its initial packet."""
        built = []
        build = scenario.initial_factors

        def counted(cfg):
            built.append(cfg.electron.energy_ev)
            return build(cfg)

        monkeypatch.setattr(scenario, "initial_factors", counted)
        return built

    @pytest.mark.parametrize("threads", [1, 2])
    def test_energy_points_equal_points_alone(self, monkeypatch, threads):
        # 400 eV fails its sideband spacing check before any packet is built.
        spec = self.energy_spec([30.0, 50.0, 70.0, 100.0, 400.0], fwhm_y_nm=16.0)
        built = self.count_builds(monkeypatch)
        result = run_sweep(spec, threads=threads)
        assert [bool(p.error) for p in result.points] == [False] * 4 + [True]
        assert sorted(built) == [30.0, 50.0, 70.0, 100.0]
        self.assert_points_alone(spec, result)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_radius_points_build_their_own_packet(self, monkeypatch, threads):
        # The transverse width follows the radius.
        spec = SweepSpec(template=self.template(fwhm_y_radius_scale=2.0),
                         axis="radius_nm", values=(6.0, 8.0, 10.0))
        built = self.count_builds(monkeypatch)
        result = run_sweep(spec, threads=threads)
        assert all(not p.error for p in result.points)
        assert len(built) == len(spec.values)
        self.assert_points_alone(spec, result)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_prepropagated_points_build_their_own_packet(self, monkeypatch, threads):
        spec = self.energy_spec([50.0, 70.0, 100.0], fwhm_y_nm=16.0,
                                prepropagation_fs=20.0)
        built = self.count_builds(monkeypatch)
        result = run_sweep(spec, threads=threads)
        assert all(not p.error for p in result.points)
        assert sorted(built) == list(spec.values)
        self.assert_points_alone(spec, result)

    def test_analytic_points_build_no_grid(self, monkeypatch):
        # Every stage of the 2D path fails if called, so the sweep succeeds
        # only if its points never reach one.
        def grid_stage(*args, **kwargs):
            raise AssertionError("a sweep point reached a 2D stage")

        for name in ("run_scenario", "build_initial_state", "gaussian_wavepacket",
                     "vacuum_propagate", "build_phase_mask", "apply_interaction",
                     "momentum_density", "sideband_populations"):
            monkeypatch.setattr(scenario, name, grid_stage)
        spec = self.energy_spec([50.0, 70.0], fwhm_y_nm=16.0, prepropagation_fs=20.0)
        result = run_sweep(spec, threads=2)
        assert all(not p.error for p in result.points)

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


def _wire_spec(**electron):
    """Energy sweep of TestRunSweep's 512x256 wire template."""
    return SweepSpec(template=TestRunSweep.template(fwhm_y_nm=16.0, **electron),
                     axis="energy_ev", values=(70.0, 100.0))


def _off_centre_spec(phase):
    """The wire 150 nm along x at a laser phase: the orders turn by
    theta = phase + delta_k * 150 nm."""
    template = dataclasses.replace(
        TestRunSweep.template(fwhm_y_nm=16.0),
        laser=dataclasses.replace(LASER, phase_rad=phase),
        model=dataclasses.replace(WIRE, center=(150.0, 0.0)))
    return SweepSpec(template=template, axis="energy_ev", values=(100.0, 200.0))


def _gap_spec():
    """An energy sweep on the fig4-limited gap: erfc/erfcx coupling."""
    return SweepSpec(template=build_preset("fig4-limited"), axis="energy_ev",
                     values=(100.0, 150.0))


ORACLE_CASES = [
    pytest.param(lambda: build_preset("fig2"), 50.0, id="fig2-50eV"),
    pytest.param(lambda: build_preset("fig2"), 577.0, id="fig2-577eV"),
    pytest.param(lambda: build_preset("fig2"), 10000.0, id="fig2-10keV"),
    *(pytest.param(lambda phase=phase: _off_centre_spec(phase), 100.0,
                   id=f"wire-cx150-phase{phase}") for phase in (0.0, 0.7, 2.0)),
    pytest.param(_gap_spec, 100.0, id="gap"),
    *(pytest.param(lambda axes=axes: _wire_spec(prepropagation_fs=20.0,
                                                prepropagation_axes=axes),
                   70.0, id=f"prepropagated-{axes}") for axes in ("xy", "x")),
]


class TestFactorPoint:
    """An analytic sweep point against the 2D path as the oracle: the
    initial packet, phase mask, interaction factor and momentum density on
    the full grid, then the reductions over that density."""

    @staticmethod
    def grid_metrics(cfg):
        k0, v0 = electron_kinematics(cfg.electron.energy_ev)
        psi0 = scenario.build_initial_state(cfg)
        profile = coupling_profile(scenario.resolve_model(cfg), cfg.laser, v0,
                                   cfg.grid.y)
        dmap = momentum_density(
            apply_interaction(psi0, build_phase_mask(profile, cfg.grid)))
        rho = dmap.values
        kx_marginal = rho.sum(axis=0) * dmap.dky
        ix = int(np.argmin(np.abs(dmap.kx - k0)))
        iy = int(np.argmin(np.abs(dmap.ky)))
        return {
            "kx_marginal": kx_marginal,
            "ky_marginal": rho.sum(axis=1) * dmap.dkx,
            "depletion": float(rho[iy, ix]),
            "populations": sideband_populations(dmap, k0, profile.delta_k),
            "alpha_max_deg": max_deflection(dmap),
            "delta_kx": peak_spacing(Crosscut(axis="kx", value=math.nan,
                                              coords=dmap.kx, density=kx_marginal)),
            "delta_ky": transverse_splitting(
                profile, envelope=transverse_envelope(psi0)),
        }

    @pytest.mark.parametrize("make_spec, value", ORACLE_CASES)
    def test_point_matches_the_grid(self, make_spec, value):
        spec = make_spec()
        cfg = spec.point(value)
        want = self.grid_metrics(cfg)
        _, v0 = electron_kinematics(value)
        profile = coupling_profile(scenario.resolve_model(cfg), cfg.laser, v0,
                                   cfg.grid.y)
        factors = interaction_factors(profile, cfg.grid,
                                      *scenario.initial_factors(cfg))
        for name in ("kx_marginal", "ky_marginal"):
            got = getattr(factors, name)()
            assert np.max(np.abs(got - want[name])) <= 1e-13 * np.max(want[name]), name
        point = scenario.run_sweep_point(spec, value)
        assert point.depletion == pytest.approx(want["depletion"], rel=1e-13, abs=0.0)
        table = want["populations"]
        assert np.array_equal(point.populations.orders, table.orders)
        assert np.max(np.abs(point.populations.populations - table.populations)) <= 1e-13
        assert point.populations.ky_spread is None
        for name in ("alpha_max_deg", "delta_kx", "delta_ky"):
            assert getattr(point, name) == pytest.approx(want[name], rel=1e-12,
                                                         abs=0.0), name

    def test_fig2_point_peak_memory(self):
        # A point holds its 1D factors and marginals: (N+1) x nx complex
        # arrays of the cosine orders, 0.109 complex grids each at N = 27,
        # two of them at once while the k_x factors are transformed (the
        # shift is in place), and no array of the grid's shape.  Measured
        # at 0.253 grids.
        spec = build_preset("fig2")
        grid = spec.template.grid
        with scipy.fft.set_workers(1):
            tracemalloc.start()
            try:
                base, _ = tracemalloc.get_traced_memory()
                point = scenario.run_sweep_point(spec, 577.0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert not point.error
        assert (peak - base) / (16 * grid.nx * grid.ny) <= 0.28
