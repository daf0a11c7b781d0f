"""Split-step solver: conservation, convergence, equivalences."""

import math
import threading
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from nediff.analytic import apply_interaction, build_phase_mask, vacuum_propagate
from nediff.analysis import momentum_density, rel_l2, sideband_populations
from nediff.config import ElectronSpec, ScenarioConfig, build_preset
from nediff.core import Grid2D, from_momentum, gaussian_wavepacket, to_momentum
from nediff.errors import ConfigurationError, NumericalError
from nediff.nearfield import (GapResonatorModel, LaserParams, WireModel,
                              coupling_profile)
from nediff import core, numeric
from nediff.numeric import (TRACE_COLUMNS, EvolutionParams, NumericSpec,
                            _vector_potential_integral, choose_steps,
                            split_step_evolve, validate_evolution)
from nediff.scenario import ScenarioResult, run_scenario, write_artifacts
from nediff.units import ELECTRON_CHARGE, ELECTRON_MASS, HBAR, electron_kinematics

LASER = LaserParams(wavelength_nm=2000.0, field_v_per_nm=0.2)
WIRE = WireModel(radius_nm=10.0, response=0.5)


@pytest.fixture(scope="module")
def grid():
    return Grid2D.centered(512, 256, 0.5, 0.5)


@pytest.fixture(scope="module")
def packet(grid):
    return gaussian_wavepacket(grid, 100.0, 40.0, 16.0)


@pytest.fixture(scope="module")
def evolved(grid, packet):
    params = choose_steps(NumericSpec(window_fs=40.0, safety=0.9), LASER, WIRE,
                          grid)
    psi_n, trace, _ = split_step_evolve(packet, params)
    return params, psi_n, trace


class TestChooseSteps:
    def test_respects_potential_bound(self, grid):
        params = choose_steps(NumericSpec(window_fs=40.0), LASER, WIRE, grid)
        v_peak = WIRE.peak_potential(LASER.field_v_per_nm)
        assert params.dt <= 0.1 * HBAR / v_peak
        validate_evolution(params, grid)

    def test_weaker_field_never_shrinks_dt(self, grid):
        spec = NumericSpec(window_fs=40.0)
        strong = choose_steps(spec, LASER, WIRE, grid)
        weak_laser = LaserParams(wavelength_nm=2000.0, field_v_per_nm=0.1)
        weak = choose_steps(spec, weak_laser, WIRE, grid)
        assert weak.dt >= strong.dt

    def test_step_count_covers_window(self, grid):
        params = choose_steps(NumericSpec(window_fs=37.0), LASER, WIRE, grid)
        assert (params.t_start, params.t_end) == (-18.5, 18.5)
        assert params.n_steps * params.dt == pytest.approx(37.0, rel=1e-12)

    def test_rejects_empty_window(self):
        with pytest.raises(ConfigurationError):
            NumericSpec(window_fs=0.0)
        with pytest.raises(ConfigurationError):
            NumericSpec(window_fs=-5.0)


class TestValidation:
    def test_oversized_dt_rejected_before_stepping(self, grid, packet):
        params = EvolutionParams(n_steps=5, t_start=-10.0, t_end=10.0,
                                 laser=LASER, model=WIRE,
                                 include_vector_potential=True,
                                 snapshot_stride=50)
        with pytest.raises(ConfigurationError):
            split_step_evolve(packet, params)

    def test_edge_proximity_abort(self):
        g = Grid2D.centered(256, 128, 0.5, 0.5)
        psi = gaussian_wavepacket(g, 100.0, 30.0, 12.0, center=(-35.0, 0.0))
        params = choose_steps(NumericSpec(window_fs=10.0, safety=0.9), LASER,
                              WIRE, g)
        with pytest.raises(NumericalError) as excinfo:
            split_step_evolve(psi, params)
        assert excinfo.value.partial is not None  # trace up to the abort


class TestBorderCheckEveryStep:
    # 128 x 64 cells; an envelope momentum offset kappa moves the packet at
    # hbar kappa / m across the periodic x border and back to the centre
    # after one lap, so only the steps between snapshots see it there.
    GRID = Grid2D.centered(128, 64, 0.5, 1.0)
    KAPPA = 3.0
    WEAK = LaserParams(wavelength_nm=2000.0, field_v_per_nm=1e-3)

    def run(self, kappa):
        g = self.GRID
        packet = gaussian_wavepacket(g, 100.0, 8.0, 8.0)
        psi = packet.with_amplitudes(
            packet.amplitudes * np.exp(1j * kappa * g.x)[None, :])
        lap = g.extent_x * ELECTRON_MASS / (HBAR * self.KAPPA)
        spec = NumericSpec(window_fs=lap, safety=0.9, snapshot_stride=10**6)
        params = choose_steps(spec, self.WEAK, WIRE, g)
        return params, psi

    def test_wrap_between_snapshots_raises(self):
        params, psi = self.run(self.KAPPA)
        with pytest.raises(NumericalError, match="outer 10% grid border") as info:
            split_step_evolve(psi, params)
        partial = info.value.partial
        assert list(partial["t_fs"]) == [params.t_start]  # before the next snapshot

    def test_packet_at_rest_passes(self):
        params, psi = self.run(0.0)
        final, trace, _ = split_step_evolve(psi, params)
        assert len(trace["t_fs"]) == 3  # start, last step, end: no snapshot between
        assert abs(trace["x_mean_nm"][-1]) < 1e-6

    def test_non_finite_kick_raises_at_its_step(self, monkeypatch):
        params, psi = self.run(0.0)
        calls = []
        potential = WireModel.potential

        def poisoned(self, x, y, field):
            calls.append(1)
            out = potential(self, x, y, field)
            return out * math.nan if len(calls) == 3 else out

        monkeypatch.setattr(WireModel, "potential", poisoned)
        t_step = params.t_start + 2.5 * params.dt  # the third kick
        with pytest.raises(NumericalError,
                           match=f"non-finite amplitudes at t={t_step:g} fs"):
            split_step_evolve(psi, params)


def separable_kinetic(grid, params):
    """The kinetic step of split_step_evolve: the k_x phasor, then the k_y
    phasor times the vector-potential phase of the segment."""
    ky1 = 2.0 * np.pi * np.fft.fftfreq(grid.ny, grid.dy)

    def kinetic(spec, tau, ta, tb):
        col = core.flight_phasor(grid.ny, grid.dy, tau)
        if params.include_vector_potential:
            integral = _vector_potential_integral(params.laser, ta, tb)
            col = col * np.exp(
                1j * (ELECTRON_CHARGE / ELECTRON_MASS) * integral * ky1)
        spec = spec * core.flight_phasor(grid.nx, grid.dx, tau)[None, :]
        return spec * col[:, None]
    return kinetic


def ksq_kinetic(grid, params):
    """An independent kinetic step: one 2D phase over k_x^2 + k_y^2, then
    the vector-potential phase as its own factor."""
    kx1 = 2.0 * np.pi * np.fft.fftfreq(grid.nx, grid.dx)
    ky1 = 2.0 * np.pi * np.fft.fftfreq(grid.ny, grid.dy)
    ksq = kx1[None, :] ** 2 + ky1[:, None] ** 2

    def kinetic(spec, tau, ta, tb):
        spec = spec * np.exp(-1j * (HBAR * tau / (2.0 * ELECTRON_MASS)) * ksq)
        if params.include_vector_potential:
            integral = _vector_potential_integral(params.laser, ta, tb)
            spec = spec * np.exp(
                1j * (ELECTRON_CHARGE / ELECTRON_MASS) * integral * ky1)[:, None]
        return spec
    return kinetic


def reference_strang(psi0, params, kinetic=separable_kinetic):
    """Plain Strang loop: fresh arrays everywhere, every step's psi kept."""
    grid, laser, dt = psi0.grid, params.laser, params.dt
    kinetic = kinetic(grid, params)
    t0, n = params.t_start, params.n_steps
    spec = kinetic(scipy.fft.fft2(psi0.amplitudes), 0.5 * dt, t0, t0 + 0.5 * dt)
    kicked = []
    for k in range(n):
        t_mid = t0 + (k + 0.5) * dt
        psi = scipy.fft.ifft2(spec)
        theta = params.model.potential(grid.x[None, :] + psi0.velocity * t_mid,
                                       grid.y[:, None], laser.field_v_per_nm)
        theta = theta * (-ELECTRON_CHARGE / HBAR * dt
                         * math.cos(laser.omega * t_mid + laser.phase_rad))
        # A named factor keeps psi the left operand: numpy may swap the
        # operands to reuse a temporary, and a*b need not equal b*a bitwise.
        kick = np.cos(theta) + 1j * np.sin(theta)
        psi = psi * kick
        kicked.append(psi)
        spec = scipy.fft.fft2(psi)
        if k < n - 1:
            spec = kinetic(spec, dt, t_mid, t_mid + dt)
    spec = kinetic(spec, 0.5 * dt, t0 + (n - 0.5) * dt, params.t_end)
    return scipy.fft.ifft2(spec), kicked


def full_grid_trace_row(psi):
    """norm, x_mean, kx_mean, ky_mean and energy_mean_ev of a state, from
    full-grid densities."""
    g = psi.grid
    kx1 = 2.0 * np.pi * np.fft.fftfreq(g.nx, g.dx)
    ky1 = 2.0 * np.pi * np.fft.fftfreq(g.ny, g.dy)
    rho = np.abs(psi.amplitudes) ** 2
    rho_k = np.abs(scipy.fft.fft2(psi.amplitudes)) ** 2
    mass, mass_k = rho.sum(), rho_k.sum()
    ksq = (psi.k0 + kx1[None, :]) ** 2 + ky1[:, None] ** 2
    return np.array([
        math.sqrt(mass * g.cell_area),
        (rho * g.x[None, :]).sum() / mass,
        psi.k0 + (rho_k * kx1[None, :]).sum() / mass_k,
        (rho_k * ky1[:, None]).sum() / mass_k,
        HBAR**2 / (2.0 * ELECTRON_MASS) * (rho_k * ksq).sum() / mass_k])


def block_height(nx):
    return core.BLOCK_BYTES // (16 * nx)


# One grid has fewer rows than a single row block, the other spans several.
BLOCK_GRIDS = {
    "one-block": Grid2D.centered(64, 32, 1.0, 1.0),
    "four-blocks": Grid2D.centered(2048, 128, 0.5, 0.5),
}


class TestReferenceLoop:
    def test_grids_cover_the_block_cases(self):
        small, big = BLOCK_GRIDS["one-block"], BLOCK_GRIDS["four-blocks"]
        assert small.ny < block_height(small.nx)
        assert big.ny == 4 * block_height(big.nx)

    @pytest.mark.parametrize("vector_potential", [True, False])
    def test_bitwise_equal_to_plain_strang(self, vector_potential):
        for g in BLOCK_GRIDS.values():
            packet = gaussian_wavepacket(g, 100.0, 10.0, 4.0)
            spec = NumericSpec(window_fs=2.0, safety=0.9,
                               vector_potential=vector_potential,
                               snapshot_stride=4)
            params = choose_steps(spec, LASER, WIRE, g)
            assert params.n_steps > 2 * params.snapshot_stride
            ref_final, kicked = reference_strang(packet, params)
            for workers in (1, 2):
                seen = []
                with scipy.fft.set_workers(workers):
                    final, trace, _ = split_step_evolve(
                        packet, params,
                        snapshot_callback=lambda t, psi: seen.append(psi))
                assert np.array_equal(final.amplitudes, ref_final)
                # Snapshots after the kick see psi, not its in-place transform.
                stride, n = params.snapshot_stride, params.n_steps
                snap_steps = [k for k in range(n)
                              if (k + 1) % stride == 0 or k == n - 1]
                assert len(seen) == len(snap_steps) + 2
                for k, psi in zip(snap_steps, seen[1:-1]):
                    assert np.array_equal(psi.amplitudes, kicked[k])
                assert np.max(np.abs(trace["norm"] - 1.0)) < 1e-9

    def test_block_error_propagates_and_leaves_no_pool_thread(self, monkeypatch):
        g = BLOCK_GRIDS["four-blocks"]
        packet = gaussian_wavepacket(g, 100.0, 10.0, 4.0)
        params = choose_steps(NumericSpec(window_fs=2.0, safety=0.9), LASER,
                              WIRE, g)
        calls = []
        potential = WireModel.potential

        def failing(self, x, y, field):
            calls.append(1)
            if len(calls) >= 10:  # two blocks may append before either checks
                raise NumericalError("planted failure in one block")
            return potential(self, x, y, field)

        monkeypatch.setattr(WireModel, "potential", failing)
        threads = threading.active_count()
        with scipy.fft.set_workers(2), pytest.raises(NumericalError,
                                                     match="planted"):
            split_step_evolve(packet, params)
        assert 10 <= len(calls) < params.n_steps * 4
        assert threading.active_count() == threads


@settings(max_examples=30, deadline=None)
@given(nx=st.sampled_from([32, 64, 128, 256]),
       ny=st.sampled_from([16, 32, 64, 128]),
       block_rows=st.sampled_from([None, 1, 3, 16]),
       backward=st.booleans(), vector_potential=st.booleans(),
       window=st.floats(min_value=0.05, max_value=1.0),
       field=st.floats(min_value=0.01, max_value=0.3),
       phase=st.floats(min_value=0.0, max_value=2.0 * math.pi))
def test_separable_kinetic_matches_the_ksq_oracle(nx, ny, block_rows, backward,
                                                  vector_potential, window,
                                                  field, phase):
    # A 64 x 32 nm box at every cell count, so the packet keeps clear of the
    # border check however coarse the grid.
    g = Grid2D.centered(nx, ny, 64.0 / nx, 32.0 / ny)
    packet = gaussian_wavepacket(g, 100.0, 8.0, 4.0)
    laser = LaserParams(wavelength_nm=2000.0, field_v_per_nm=field,
                        phase_rad=phase)
    params = choose_steps(NumericSpec(window_fs=window, safety=0.9,
                                      vector_potential=vector_potential,
                                      snapshot_stride=2), laser, WIRE, g)
    if backward:
        params = replace(params, t_start=params.t_end, t_end=params.t_start)
    oracle, _ = reference_strang(packet, params, ksq_kinetic)
    block_bytes = core.BLOCK_BYTES if block_rows is None else 16 * nx * block_rows
    runs = []
    with mock.patch.object(core, "BLOCK_BYTES", block_bytes):
        for workers in (1, 2):
            with scipy.fft.set_workers(workers):
                runs.append(split_step_evolve(packet, params))
    (final, trace, _), (final2, trace2, _) = runs
    err = np.linalg.norm(final.amplitudes - oracle) / np.linalg.norm(oracle)
    assert err <= 1e-13
    assert np.array_equal(final.amplitudes, final2.amplitudes)
    # Row blocks are summed in block order, whatever the worker count.
    assert np.array_equal(trace.rows.view(np.uint64), trace2.rows.view(np.uint64))
    # The final record against full-grid sums over the final state.
    scale = np.array([1.0, g.extent_x, packet.k0, math.pi / g.dy,
                      packet.energy_ev])
    got = trace.rows[-1, 1:]
    assert np.all(np.abs(got - full_grid_trace_row(final)) <= 1e-13 * scale)


@pytest.mark.parametrize("workers", [1, 2])
def test_split_step_peak_memory(workers):
    # Above its input a run holds one complex grid, the spectrum buffer that
    # psi shares, and at its end the final density (half a grid of float64)
    # and the row-block scratch of each worker squaring it.  Measured 1.77
    # (1 worker) and 1.90 to 2.02 (2 workers, as the blocks interleave); a
    # record's transformed copy of psi beside the spectrum took 2.17 and
    # 2.30, full-grid kinetic factors and record's full-grid densities 5.53.
    g = Grid2D.centered(1024, 512, 0.5, 0.5)
    packet = gaussian_wavepacket(g, 100.0, 40.0, 16.0)
    params = choose_steps(NumericSpec(window_fs=1.0, safety=0.9), LASER, WIRE, g)
    with scipy.fft.set_workers(workers):
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            split_step_evolve(packet, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    bound = {1: 1.85, 2: 2.1}[workers]
    assert (peak - base) / packet.amplitudes.nbytes <= bound


def numeric_wire_config(grid, **numeric):
    return ScenarioConfig(
        engine="numeric",
        electron=ElectronSpec(energy_ev=100.0, fwhm_x_nm=40.0, fwhm_y_nm=16.0),
        laser=LASER, model=WIRE, grid=grid,
        numeric=NumericSpec(window_fs=1.0, safety=0.9, **numeric),
        outputs=("populations", "trace", "summary"))


@pytest.mark.parametrize("workers", [1, 2])
def test_numeric_run_peak_memory(tmp_path, workers):
    # Above its start a numeric run holds the initial packet beside the
    # split step's peak (test_split_step_peak_memory).  Measured 2.77
    # (1 worker) and 2.90 to 3.02 (2 workers); a final record and a momentum
    # density that each transformed a copy of the final state took 3.76 and
    # 3.89.
    g = Grid2D.centered(1024, 512, 0.5, 0.5)
    cfg = numeric_wire_config(g)
    with scipy.fft.set_workers(workers):
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            result = run_scenario(cfg, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert (tmp_path / "populations_numeric.csv").exists()
    bound = {1: 2.85, 2: 3.1}[workers]
    assert (peak - base) / result.psi_initial.amplitudes.nbytes <= bound


def test_final_density_is_the_final_states(grid, packet):
    # The density comes from the last spectrum, before its inverse
    # transform, so it matches the final state's own to rounding.
    params = choose_steps(NumericSpec(window_fs=2.0, safety=0.9), LASER, WIRE,
                          grid)
    runs = []
    for workers in (1, 2):
        with scipy.fft.set_workers(workers):
            runs.append(split_step_evolve(packet, params))
    (final, _, rho), (_, _, rho2) = runs
    assert rho.shape == (grid.ny, grid.nx) and rho.dtype == np.float64
    assert np.array_equal(rho.view(np.uint64), rho2.view(np.uint64))
    assert rel_l2(rho, momentum_density(final).values) <= 1e-13


class _StrideLog:
    """Stands in for the scipy.fft handle of numeric and core and records
    the row stride, in bytes, of every 2D transform's input."""

    def __init__(self):
        self.strides = []

    def fft2(self, x, *args, **kwargs):
        self.strides.append(x.strides[0])
        return scipy.fft.fft2(x, *args, **kwargs)

    def ifft2(self, x, *args, **kwargs):
        self.strides.append(x.strides[0])
        return scipy.fft.ifft2(x, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(scipy.fft, name)


def test_every_full_grid_transform_runs_on_padded_rows(monkeypatch, grid, packet):
    log = _StrideLog()
    monkeypatch.setattr(numeric, "_fft", log)
    monkeypatch.setattr(core, "_fft", log)
    params = choose_steps(NumericSpec(window_fs=2.0, safety=0.9, snapshot_stride=3),
                          LASER, WIRE, grid)
    assert params.n_steps > 2 * params.snapshot_stride
    final, _, _ = split_step_evolve(packet, params)
    # The first spectrum, a pair per step, then the final state.
    assert len(log.strides) == 2 * params.n_steps + 2
    momentum_density(final)
    from_momentum(to_momentum(packet))
    assert len(log.strides) == 2 * params.n_steps + 5
    assert set(log.strides) == {(grid.nx + core.FFT_ROW_PAD) * 16}


def test_numeric_run_transforms_each_state_once(monkeypatch, tmp_path, grid):
    # A whole run with snapshots: the first spectrum, a pair per step and
    # the final state, all on padded rows.  The final record and density
    # reuse the last spectrum, and a snapshot transforms psi in place.
    log = _StrideLog()
    monkeypatch.setattr(numeric, "_fft", log)
    monkeypatch.setattr(core, "_fft", log)
    cfg = replace(numeric_wire_config(grid, snapshot_stride=3),
                  outputs=("populations", "trace", "summary", "snapshots"))
    n = choose_steps(cfg.numeric, LASER, WIRE, grid).n_steps
    assert n > 2 * cfg.numeric.snapshot_stride
    run_scenario(cfg, tmp_path)
    assert len(list((tmp_path / "snapshots").iterdir())) == n // 3 + 3
    assert len(log.strides) == 2 * n + 2
    assert set(log.strides) == {(grid.nx + core.FFT_ROW_PAD) * 16}


class TestConservation:
    def test_norm_drift(self, evolved):
        _, _, trace = evolved
        assert np.max(np.abs(trace["norm"] - 1.0)) < 1e-9

    def test_final_time(self, evolved):
        params, psi_n, trace = evolved
        assert psi_n.t == params.t_end
        assert trace["t_fs"][0] == params.t_start
        assert trace["t_fs"][-1] == params.t_end

    def test_time_reversal(self, grid, packet):
        params = choose_steps(NumericSpec(window_fs=16.0, safety=0.8), LASER,
                              WIRE, grid)
        fwd, _, _ = split_step_evolve(packet, params)
        back, _, _ = split_step_evolve(
            fwd, replace(params, t_start=params.t_end, t_end=params.t_start))
        assert np.max(np.abs(back.amplitudes - packet.amplitudes)) < 1e-8


class TestFreeParticle:
    def test_matches_vacuum_propagator(self, grid, packet):
        free_wire = WireModel(radius_nm=10.0, response=0.0)
        spec = NumericSpec(window_fs=20.0, safety=0.9, vector_potential=False)
        params = choose_steps(spec, LASER, free_wire, grid)
        psi_n, _, _ = split_step_evolve(packet, params)
        psi_a = vacuum_propagate(packet, 20.0)
        spec_n = to_momentum(psi_n)
        spec_a = to_momentum(psi_a)
        assert np.max(np.abs(spec_n.values - spec_a.values)) < 1e-10


class TestConvergence:
    def _run(self, packet, grid, dt):
        window = 16.0
        n = int(round(window / dt))
        params = EvolutionParams(n_steps=n, t_start=-8.0, t_end=8.0,
                                 laser=LASER, model=WIRE,
                                 include_vector_potential=True,
                                 snapshot_stride=50)
        psi, _, _ = split_step_evolve(packet, params)
        return momentum_density(psi).values

    def test_second_order_in_dt(self):
        g = Grid2D.centered(256, 128, 0.5, 0.5)
        psi = gaussian_wavepacket(g, 100.0, 18.0, 10.0)
        base = 0.064
        ref = self._run(psi, g, base / 8.0)
        err1 = rel_l2(self._run(psi, g, base), ref)
        err2 = rel_l2(self._run(psi, g, base / 2.0), ref)
        ratio = err1 / err2
        assert 2.0 < ratio < 8.0  # order 2 within a factor of two

    def test_dt_refinement_converged(self):
        # With a conservative step the dt -> dt/2 change is already tiny.
        g = Grid2D.centered(256, 128, 0.5, 0.5)
        weak = LaserParams(wavelength_nm=2000.0, field_v_per_nm=0.02)
        psi = gaussian_wavepacket(g, 100.0, 18.0, 10.0)
        window = 8.0

        def run(dt):
            n = int(round(window / dt))
            params = EvolutionParams(n_steps=n, t_start=-4.0, t_end=4.0,
                                     laser=weak, model=WIRE,
                                     include_vector_potential=True,
                                     snapshot_stride=50)
            out, _, _ = split_step_evolve(psi, params)
            return momentum_density(out).values

        d1 = run(0.004)
        d2 = run(0.002)
        assert rel_l2(d1, d2) < 1e-6


class TestAgainstAnalyticModel:
    def test_quantitative_agreement_reduced_scenario(self, grid, packet, evolved):
        _, psi_n, _ = evolved
        _, v0 = electron_kinematics(100.0)
        profile = coupling_profile(WIRE, LASER, v0, grid.y)
        psi_a = apply_interaction(packet, build_phase_mask(profile, grid))
        d_n = momentum_density(psi_n)
        d_a = momentum_density(psi_a)
        assert rel_l2(d_n.values, d_a.values) < 0.05

    def test_phase_scan_insensitive(self):
        # Packet longer than one optical period: the common optical phase must
        # not move the sideband populations at the 2% level.
        g = Grid2D.centered(512, 256, 0.5, 0.5)
        psi = gaussian_wavepacket(g, 100.0, 45.0, 16.0)
        _, v0 = electron_kinematics(100.0)
        pops = []
        for phase in (0.0, math.pi / 3.0, math.pi / 2.0):
            laser = LaserParams(wavelength_nm=2000.0, field_v_per_nm=0.2,
                                phase_rad=phase)
            params = choose_steps(NumericSpec(window_fs=30.0, safety=0.9),
                                  laser, WIRE, g)
            out, _, _ = split_step_evolve(psi, params)
            table = sideband_populations(momentum_density(out), psi.k0,
                                         laser.omega / v0)
            pops.append([table.population(n) for n in range(-3, 4)])
        base = np.array(pops[0])
        for other in pops[1:]:
            assert np.max(np.abs(np.array(other) - base)) < 0.02


class TestGroundTruthBeyondTheWire:
    """The numeric engine checks the analytic one on the gap model, and its
    own step choice at weak field; both at fields where the engines agree."""

    def test_gap_model_engines_agree_at_weak_gap_field(self):
        # Measured rel L2 0.0035 (numpy 2.4, scipy 1.17); at fig4's own 0.5 V/nm
        # the engines differ by 0.35, see the README.
        gap = GapResonatorModel(separation_nm=23.0, smoothing_fwhm_nm=13.0,
                                peak_field_v_per_nm=0.05)
        cfg = ScenarioConfig(
            engine="both",
            electron=ElectronSpec(energy_ev=100.0, fwhm_x_nm=40.0, fwhm_y_nm=5.0),
            laser=LaserParams(wavelength_nm=2000.0,
                              field_v_per_nm=gap.peak_field_v_per_nm / 20.0),
            model=gap, grid=Grid2D.centered(512, 256, 0.5, 0.5),
            numeric=NumericSpec(window_fs=40.0, safety=0.9))
        result = run_scenario(cfg)
        assert result.rel_l2_densities < 0.01

    def test_safety_dt_converged_at_weak_field(self):
        # 407 steps; measured rel L2 8.0e-8 against dt/2 (numpy 2.4, scipy 1.17).
        g = Grid2D.centered(512, 256, 0.5, 0.5)
        weak = LaserParams(wavelength_nm=2000.0, field_v_per_nm=0.02)
        psi = gaussian_wavepacket(g, 100.0, 40.0, 16.0)
        params = choose_steps(NumericSpec(window_fs=40.0, safety=0.9), weak,
                              WIRE, g)
        densities = []
        for p in (params, replace(params, n_steps=2 * params.n_steps)):
            out, _, _ = split_step_evolve(psi, p)
            densities.append(momentum_density(out).values)
        assert rel_l2(*densities) < 1e-6


def test_trace_csv(tmp_path, evolved):
    _, _, trace = evolved
    cfg = replace(build_preset("fig1"), outputs=("trace",))
    result = ScenarioResult(
        config=cfg, psi_initial=None, profile=None, analytic=None, numeric=None,
        trace=trace, rel_l2_densities=None)
    write_artifacts(result, tmp_path)
    path = tmp_path / "trace.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "t_fs,norm,x_mean_nm,kx_mean_per_nm,ky_mean_per_nm,energy_mean_ev"
    assert lines[0].split(",") == list(TRACE_COLUMNS)
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    assert data.shape[1] == 6
    for i, name in enumerate(TRACE_COLUMNS):
        assert np.array_equal(data[:, i], trace[name]), name
    assert np.allclose(data[:, 1], 1.0, atol=1e-9)
    # kinetic energy stays near the carrier energy for this weak drive
    assert np.all(np.abs(data[:, 5] - 100.0) < 2.0)
