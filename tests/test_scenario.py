"""Scenario orchestration: trivial limits and optional artifact surfaces."""

import numpy as np
import pytest

from nediff.analysis import momentum_density
from nediff.config import ElectronSpec, ScenarioConfig, build_preset
from nediff.core import Grid2D
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
