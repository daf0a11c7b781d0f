"""Scenario orchestration: trivial limits, the initial state and optional
artifact surfaces."""

from dataclasses import replace

import numpy as np
import pytest

from nediff import analytic, scenario
from nediff.analysis import momentum_density
from nediff.analytic import vacuum_propagate
from nediff.config import ElectronSpec, ScenarioConfig, build_preset
from nediff.core import Grid2D, axis_marginals, check_coverage, gaussian_wavepacket
from nediff.errors import ConfigurationError
from nediff.gridio import read_grid
from nediff.nearfield import LaserParams, WireModel
from nediff.numeric import NumericSpec
from nediff.scenario import build_initial_state, run_scenario


def small_config(engine="analytic", field=0.2, outputs=None, numeric=None):
    return ScenarioConfig(
        engine=engine,
        electron=ElectronSpec(energy_ev=100.0, fwhm_x_nm=40.0, fwhm_y_nm=16.0),
        laser=LaserParams(wavelength_nm=2000.0, field_v_per_nm=field),
        model=WireModel(radius_nm=10.0, response=0.5),
        grid=Grid2D.centered(512, 256, 0.5, 0.5),
        numeric=numeric,
        outputs=outputs if outputs is not None else ("summary",),
    )


def test_zero_field_run_keeps_initial_spectrum():
    result = run_scenario(small_config(field=0.0))
    initial = momentum_density(result.psi_initial)
    final = result.analytic.density
    assert np.array_equal(final.values, initial.values)


def test_chirped_preset_prepropagates():
    cfg = build_preset("fig4-chirped")
    psi = build_initial_state(cfg)
    assert psi.t == pytest.approx(cfg.electron.prepropagation_fs)


def _packet(cfg: ScenarioConfig):
    """The Gaussian of cfg on the full grid, before any flight."""
    grid, fwhm_x, fwhm_y, center = scenario._gaussian_inputs(cfg)
    return gaussian_wavepacket(grid, cfg.electron.energy_ev, fwhm_x, fwhm_y,
                               center=center)


def _with_electron(cfg: ScenarioConfig, **electron) -> ScenarioConfig:
    return replace(cfg, electron=replace(cfg.electron, **electron))


class TestInitialState:
    @pytest.mark.parametrize("cfg", [
        build_preset("fig1"), build_preset("fig4-limited"),
        _with_electron(small_config(), center_x_nm=-23.7, center_y_nm=11.3),
    ], ids=["fig1", "fig4-limited", "off-centre"])
    def test_without_a_flight_bits_equal_the_gaussian(self, cfg):
        psi = build_initial_state(cfg)
        expected = _packet(cfg)
        assert (psi.grid, psi.t, psi.k0) == (expected.grid, 0.0, expected.k0)
        assert psi.amplitudes.tobytes() == expected.amplitudes.tobytes()

    @pytest.mark.parametrize("cfg", [
        build_preset("fig4-chirped"),
        _with_electron(small_config(), prepropagation_fs=200.0,
                       prepropagation_axes="xy"),
    ], ids=["fig4-chirped-x", "wire-xy-200fs"])
    def test_after_a_flight_equals_the_2d_flight(self, cfg):
        e = cfg.electron
        psi = build_initial_state(cfg)
        expected = vacuum_propagate(_packet(cfg), e.prepropagation_fs,
                                    axes=e.prepropagation_axes)
        assert (psi.t, psi.k0) == (expected.t, expected.k0)
        d = psi.amplitudes - expected.amplitudes
        assert np.linalg.norm(d) <= 1e-12 * np.linalg.norm(expected.amplitudes)
        assert psi.norm() == pytest.approx(1.0, abs=1e-14)

    def test_prepropagated_run_makes_no_2d_flight(self, monkeypatch):
        def grid_stage(*args, **kwargs):
            raise AssertionError("a single run reached a 2D flight")

        monkeypatch.setattr(scenario, "vacuum_propagate", grid_stage)
        monkeypatch.setattr(analytic, "to_momentum", grid_stage)
        monkeypatch.setattr(analytic, "from_momentum", grid_stage)
        cfg = _with_electron(small_config(), prepropagation_fs=50.0)
        result = run_scenario(cfg)
        assert result.psi_initial.t == 50.0
        assert result.analytic.psi.norm() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("electron, tau, centre", [
        ({"center_y_nm": 40.0}, 0.0, "40"),
        ({"center_x_nm": 13.0, "prepropagation_fs": 20000.0}, 20000.0, "13"),
        ({"prepropagation_fs": 20000.0}, 20000.0, "0"),
    ], ids=["before-flight", "after-flight", "after-flight-centred"])
    def test_coverage_failures_keep_their_text(self, electron, tau, centre):
        cfg = _with_electron(small_config(), **electron)
        psi = _packet(cfg)
        with pytest.raises(ConfigurationError) as old:
            check_coverage(cfg.grid, axis_marginals(psi.density()))
            vacuum_propagate(psi, tau)
        with pytest.raises(ConfigurationError) as new:
            build_initial_state(cfg)
        assert f"after {tau:g} fs of free flight (center {centre} nm," in str(new.value)
        assert str(new.value) == str(old.value)


def test_outputs_filter(tmp_path):
    cfg = small_config(outputs=("profile", "summary"))
    run_scenario(cfg, outdir=tmp_path)
    names = {p.name for p in tmp_path.iterdir()}
    assert "profile.csv" in names and "summary.txt" in names
    assert "density_analytic.pgm" not in names
    assert "analytic.grid" not in names


def test_numeric_snapshot_dumps(tmp_path):
    cfg = small_config(
        engine="numeric",
        outputs=("snapshots", "trace", "summary"),
        numeric=NumericSpec(window_fs=4.0, safety=0.9, snapshot_stride=20),
    )
    result = run_scenario(cfg, outdir=tmp_path)
    snaps = sorted((tmp_path / "snapshots").glob("snap_*.grid"))
    assert len(snaps) == len(result.trace["t_fs"])
    first = read_grid(snaps[0])
    assert first.t == result.trace["t_fs"][0]
    assert first.amplitudes.shape == (cfg.grid.ny, cfg.grid.nx)
