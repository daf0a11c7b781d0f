"""Property tests of the round trips (config text, grid dumps, CSV cells,
momentum transform, time reversal of the evolution window) and of the shared
panel evaluations of the multi-component quadrature."""

import csv
import struct
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nediff.config import (OUTPUT_KINDS, ElectronSpec, ScenarioConfig,
                           parse_config, serialize_config)
from nediff.core import Grid2D, Wavepacket, from_momentum, to_momentum
from nediff.gridio import read_grid, write_csv, write_grid
from nediff.nearfield import (GapResonatorModel, LaserParams, UniformStripeModel,
                              WireModel)
from nediff.numeric import EvolutionParams, NumericSpec
from nediff.quadrature import adaptive_quad

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


def finite(lo=-1e4, hi=1e4):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False,
                     allow_infinity=False)


def positive(hi=1e4):
    return st.floats(min_value=1e-6, max_value=hi, allow_nan=False,
                     allow_infinity=False)


powers_of_two = st.sampled_from([2, 4, 8, 16, 32, 64])
centers = st.tuples(finite(), finite())

wires = st.builds(WireModel, radius_nm=positive(),
                  response=st.floats(min_value=0.0, max_value=1.0),
                  center=centers)


@st.composite
def gaps(draw):
    separation = draw(positive())
    fraction = draw(st.floats(min_value=1e-3, max_value=0.999))
    return GapResonatorModel(separation_nm=separation,
                             smoothing_fwhm_nm=fraction * separation,
                             peak_field_v_per_nm=draw(positive()),
                             center=draw(centers))


@st.composite
def stripes(draw):
    y_min = draw(finite())
    return UniformStripeModel(coupling_rad=draw(finite()), y_min=y_min,
                              y_max=y_min + draw(positive()))


@st.composite
def scenario_configs(draw):
    model = draw(st.one_of(wires, gaps(), stripes()))
    transverse = {"fwhm_y_nm": draw(positive())}
    if isinstance(model, WireModel) and draw(st.booleans()):
        transverse = {"fwhm_y_radius_scale": draw(positive())}
    longitudinal = draw(st.sampled_from(["fwhm_x_nm", "bandwidth_ev"]))
    electron = ElectronSpec(
        energy_ev=draw(positive()), **{longitudinal: draw(positive())},
        **transverse, center_x_nm=draw(finite()), center_y_nm=draw(finite()),
        prepropagation_fs=draw(st.floats(min_value=0.0, max_value=1e4)),
        prepropagation_axes=draw(st.sampled_from(["xy", "x"])))
    numeric = draw(st.none() | st.builds(
        NumericSpec, window_fs=positive(), dt_fs=st.none() | positive(),
        safety=st.floats(min_value=1e-3, max_value=1.0),
        vector_potential=st.booleans(),
        snapshot_stride=st.integers(min_value=1, max_value=10**6)))
    # The stripe has no potential, so it runs only on the analytic engine.
    engines = ["analytic"]
    if numeric is not None and not isinstance(model, UniformStripeModel):
        engines += ["numeric", "both"]
    return ScenarioConfig(
        engine=draw(st.sampled_from(engines)),
        electron=electron,
        laser=LaserParams(wavelength_nm=draw(positive()),
                          field_v_per_nm=draw(st.floats(min_value=0.0, max_value=1e3)),
                          phase_rad=draw(finite(-10.0, 10.0))),
        model=model,
        grid=Grid2D.centered(draw(powers_of_two), draw(powers_of_two),
                             draw(positive(10.0)), draw(positive(10.0))),
        numeric=numeric,
        outputs=tuple(draw(st.lists(st.sampled_from(OUTPUT_KINDS), min_size=1,
                                    unique=True))),
    )


@PROPERTY_SETTINGS
@given(scenario_configs())
def test_config_text_round_trip(cfg):
    text = serialize_config(cfg)
    assert parse_config(text) == cfg
    assert serialize_config(parse_config(text)) == text


@st.composite
def wavepackets(draw, magnitude=1e3):
    grid = Grid2D(draw(powers_of_two), draw(powers_of_two),
                  draw(positive(10.0)), draw(positive(10.0)),
                  draw(finite()), draw(finite()))
    parts = arrays(np.float64, (2, grid.ny, grid.nx),
                   elements=finite(-magnitude, magnitude))
    re, im = draw(parts)
    return Wavepacket(grid=grid, amplitudes=re + 1j * im, t=draw(finite()),
                      k0=draw(finite(0.0, 1e3)))


@PROPERTY_SETTINGS
@given(wavepackets())
def test_grid_dump_round_trip_is_bitwise(psi):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "psi.grid"
        write_grid(path, psi)
        back = read_grid(path)
    assert back.grid == psi.grid
    assert (back.t, back.k0) == (psi.t, psi.k0)
    assert back.amplitudes.tobytes() == psi.amplitudes.tobytes()


def csv_text(exclude):
    return st.text(st.characters(exclude_categories=("Cs",),
                                 exclude_characters=exclude), min_size=1)


cell_text = csv_text(',"\r\n\x00')
csv_cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([0.0, -0.0]),
    st.integers(min_value=-2**53, max_value=2**53), cell_text)


@PROPERTY_SETTINGS
@given(st.lists(cell_text, min_size=1, max_size=6), st.data())
def test_csv_cells_read_back(header, data):
    rows = data.draw(st.lists(st.lists(csv_cells, min_size=len(header),
                                       max_size=len(header)), max_size=8))
    comments = data.draw(st.lists(csv_text("\r\n"), max_size=3))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        write_csv(path, header, rows, comments=comments)
        text = path.read_bytes().decode("utf-8")
    assert text.endswith("\n")
    lines = text[:-1].split("\n")
    assert lines[:len(comments)] == [f"# {c}" for c in comments]
    parsed = list(csv.reader(lines[len(comments):]))
    assert parsed[0] == header and len(parsed) == len(rows) + 1
    for got, row in zip(parsed[1:], rows):
        assert len(got) == len(row)
        for cell, v in zip(got, row):
            if isinstance(v, str):
                assert cell == v
            else:
                assert struct.pack("<d", float(cell)) == struct.pack("<d", float(v))


@PROPERTY_SETTINGS
@given(wavepackets(magnitude=1.0))
def test_momentum_transform_round_trip(psi):
    back = from_momentum(to_momentum(psi))
    assert back.grid == psi.grid and back.k0 == psi.k0 and back.t == psi.t
    assert np.max(np.abs(back.amplitudes - psi.amplitudes)) <= 1e-12


@st.composite
def evolution_params(draw):
    t_start = draw(finite())
    t_end = t_start + draw(st.sampled_from([-1.0, 1.0])) * draw(positive())
    n_steps = draw(st.integers(min_value=1, max_value=10**5))
    return EvolutionParams(
        n_steps=n_steps, t_start=t_start, t_end=t_end,
        laser=LaserParams(wavelength_nm=2000.0, field_v_per_nm=0.2),
        model=draw(wires), include_vector_potential=draw(st.booleans()),
        snapshot_stride=draw(st.integers(min_value=1, max_value=1000)))


@PROPERTY_SETTINGS
@given(evolution_params())
def test_time_reversal_is_an_involution(params):
    back = replace(params, t_start=params.t_end, t_end=params.t_start)
    assert back.dt == -params.dt
    assert replace(back, t_start=back.t_end, t_end=back.t_start) == params


def damped_wave(rate, freq, phases):
    """x -> exp(-rate x) cos(freq x + phases), one column per phase."""
    return lambda x: np.exp(-rate * x)[:, None] * np.cos(
        freq * x[:, None] + phases[None, :])


@st.composite
def damped_wave_pairs(draw):
    """Two damped waves whose frequencies differ by at least half, so that
    their panel trees differ, and an initial panel width that leaves the
    faster one to be refined.  Returns (f1, f2, max_panel)."""
    freq = draw(st.floats(min_value=0.5, max_value=20.0))
    ratio = draw(st.floats(min_value=1.5, max_value=4.0))
    waves = tuple(
        damped_wave(draw(st.floats(min_value=0.05, max_value=2.0)), f,
                    np.array(draw(st.lists(finite(-3.0, 3.0), min_size=1,
                                           max_size=4))))
        for f in (freq, ratio * freq))
    periods = draw(st.floats(min_value=0.25, max_value=2.0))
    return waves + (periods * 2.0 * np.pi / freq,)


def _recording(f, batches):
    def g(xs):
        batches.append(xs.tobytes())
        return f(xs)
    return g


@PROPERTY_SETTINGS
@given(damped_wave_pairs(), st.sampled_from([1e-13, 1e-11, 1e-9]))
def test_components_keep_their_own_panel_trees(waves, tol):
    # Two components share every evaluation, yet each gets the bits it gets
    # alone, and no batch of abscissae reaches f twice.
    f1, f2, max_panel = waves
    upper = 10.0
    kwargs = dict(tol=tol, max_panel=max_panel)
    batches, alone1, alone2 = [], [], []
    (v1, v2), (e1, e2) = adaptive_quad(
        _recording(lambda x: (f1(x), f2(x)), batches), 0.0, upper, **kwargs)
    (w1,), (d1,) = adaptive_quad(_recording(lambda x: (f1(x),), alone1),
                                 0.0, upper, **kwargs)
    (w2,), (d2,) = adaptive_quad(_recording(lambda x: (f2(x),), alone2),
                                 0.0, upper, **kwargs)
    assert np.array_equal(v1, w1) and np.array_equal(v2, w2)
    assert (e1, e2) == (d1, d2)
    assert len(batches) == len(set(batches))
    assert set(batches) == set(alone1) | set(alone2)
