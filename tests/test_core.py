"""Units, grids, wavepacket construction and momentum transforms."""

import math

import numpy as np
import pytest

from nediff.core import (Grid2D, Wavepacket, check_coverage, density_moments,
                         from_momentum, fwhm_interpolated, gaussian_wavepacket,
                         temporal_spread, to_momentum)
from nediff.errors import ConfigurationError, DomainError
from nediff.gridio import read_grid, write_grid
from nediff.units import (C0, ELECTRON_MASS, ELECTRON_REST_EV, HBAR,
                          electron_kinematics, kinetic_energy)


def test_unit_constants():
    assert HBAR == pytest.approx(0.658212, rel=1e-5)
    assert ELECTRON_MASS == pytest.approx(5.68563, rel=1e-4)
    assert ELECTRON_MASS * C0**2 == pytest.approx(ELECTRON_REST_EV, rel=1e-12)


def test_kinematics_100ev():
    k0, v0 = electron_kinematics(100.0)
    assert v0 == pytest.approx(5.93, abs=0.01)
    assert k0 == pytest.approx(51.2, abs=0.1)
    # de Broglie oracle: lambda[nm] = 1.226/sqrt(E[eV]) * 0.1
    lam = 2.0 * math.pi / k0
    assert lam == pytest.approx(0.1226 / math.sqrt(100.0) * 10.0, rel=1e-3)


def test_kinematics_scaling_and_limits():
    k100, v100 = electron_kinematics(100.0)
    k400, v400 = electron_kinematics(400.0)
    assert v400 == pytest.approx(2.0 * v100, rel=1e-12)
    assert k400 == pytest.approx(2.0 * k100, rel=1e-12)
    prev_v, prev_k = math.inf, math.inf
    for e in (10.0, 1.0, 0.1, 1e-3, 1e-6):
        k, v = electron_kinematics(e)
        assert 0.0 < v < prev_v and 0.0 < k < prev_k
        prev_v, prev_k = v, k


def test_kinematics_energy_reconstruction():
    for e in np.geomspace(10.0, 20000.0, 31):
        _, v = electron_kinematics(float(e))
        assert ELECTRON_MASS * v * v / 2.0 == pytest.approx(e, rel=1e-12)


def test_kinematics_rejects_nonpositive():
    with pytest.raises(DomainError):
        electron_kinematics(0.0)
    with pytest.raises(DomainError):
        electron_kinematics(-5.0)


def test_grid_requires_power_of_two():
    with pytest.raises(DomainError):
        Grid2D.centered(1000, 128, 0.5, 0.5)
    with pytest.raises(DomainError):
        Grid2D.centered(128, 96, 0.5, 0.5)


def test_grid_momentum_spacing_exact():
    g = Grid2D.centered(256, 64, 0.3, 0.7)
    assert g.dkx == 2.0 * math.pi / (256 * 0.3)
    assert g.dky == 2.0 * math.pi / (64 * 0.7)
    assert np.allclose(np.diff(g.kx), g.dkx, rtol=0, atol=1e-14)
    assert g.x[g.nx // 2] == 0.0
    assert g.y[g.ny // 2] == 0.0


@pytest.fixture(scope="module")
def fig1_style_packet():
    grid = Grid2D.centered(1024, 512, 0.25, 0.25)
    return gaussian_wavepacket(grid, 100.0, 60.0, 20.0)


def test_gaussian_norm(fig1_style_packet):
    assert fig1_style_packet.norm() == pytest.approx(1.0, abs=1e-9)


def test_gaussian_density_fwhm_matches_request(fig1_style_packet):
    psi = fig1_style_packet
    g = psi.grid
    rho_x = psi.density().sum(axis=0)
    rho_y = psi.density().sum(axis=1)
    assert fwhm_interpolated(g.x, rho_x) == pytest.approx(60.0, abs=g.dx)
    assert fwhm_interpolated(g.y, rho_y) == pytest.approx(20.0, abs=g.dy)


def test_gaussian_mean_momentum(fig1_style_packet):
    spec = to_momentum(fig1_style_packet)
    _, (kx, ky), _ = density_moments(spec.density(), spec.kx, spec.ky)
    k0 = fig1_style_packet.k0
    assert abs(kx - k0) <= 1e-6 * k0
    assert abs(ky) <= 1e-6 * k0


def test_gaussian_carrier_energy(fig1_style_packet):
    assert fig1_style_packet.energy_ev == pytest.approx(100.0, rel=1e-9)
    assert kinetic_energy(fig1_style_packet.k0) == pytest.approx(100.0, rel=1e-12)


def test_gaussian_rejects_small_grid():
    grid = Grid2D.centered(128, 64, 0.25, 0.25)  # 32 x 16 nm extent
    with pytest.raises(ConfigurationError):
        gaussian_wavepacket(grid, 100.0, 60.0, 20.0)


def test_gaussian_rejects_bad_widths():
    grid = Grid2D.centered(128, 64, 0.5, 0.5)
    with pytest.raises(DomainError):
        gaussian_wavepacket(grid, 100.0, -1.0, 5.0)


def test_coverage_check():
    grid = Grid2D.centered(256, 128, 0.5, 0.5)
    psi = gaussian_wavepacket(grid, 100.0, 30.0, 15.0, center=(50.0, 0.0))
    with pytest.raises(ConfigurationError):
        check_coverage(psi)


def test_transform_round_trip(fig1_style_packet):
    spec = to_momentum(fig1_style_packet)
    back = from_momentum(spec)
    assert np.max(np.abs(back.amplitudes - fig1_style_packet.amplitudes)) < 1e-12


def test_transform_parseval(fig1_style_packet):
    spec = to_momentum(fig1_style_packet)
    norm = math.sqrt(float(np.sum(spec.density())) * spec.dkx * spec.dky)
    assert norm == pytest.approx(fig1_style_packet.norm(), abs=1e-9)


def test_plane_wave_envelope_peaks_at_carrier():
    grid = Grid2D.centered(128, 32, 0.5, 0.5)
    amps = np.full((32, 128), 1.0 + 0.0j)
    amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)) * grid.cell_area)
    k0, _ = electron_kinematics(100.0)
    psi = Wavepacket(grid=grid, amplitudes=amps, t=0.0, k0=k0)
    spec = to_momentum(psi)
    rho = spec.density()
    iy, ix = np.unravel_index(int(np.argmax(rho)), rho.shape)
    assert spec.kx[ix] == pytest.approx(k0, abs=1e-12)
    assert spec.ky[iy] == pytest.approx(0.0, abs=1e-12)
    assert rho[iy, ix] * spec.dkx * spec.dky == pytest.approx(1.0, rel=1e-12)


def test_temporal_spread_values(fig1_style_packet):
    assert temporal_spread(fig1_style_packet) == pytest.approx(10.1, abs=0.1)


def test_temporal_spread_long_packet():
    grid = Grid2D.centered(4096, 64, 1.0, 1.0)
    psi = gaussian_wavepacket(grid, 100.0, 500.0, 10.0)
    assert temporal_spread(psi) == pytest.approx(84.0, abs=0.5)


def test_temporal_spread_narrow_limit():
    grid = Grid2D.centered(256, 64, 0.25, 0.25)
    psi = gaussian_wavepacket(grid, 100.0, 2.0, 2.0)
    assert temporal_spread(psi) < 0.5


def test_grid_dump_round_trip(tmp_path, fig1_style_packet):
    path = tmp_path / "packet.grid"
    write_grid(path, fig1_style_packet)
    back = read_grid(path)
    assert back.grid == fig1_style_packet.grid
    assert back.t == fig1_style_packet.t
    assert back.k0 == fig1_style_packet.k0
    assert np.array_equal(back.amplitudes, fig1_style_packet.amplitudes)
    header = path.read_bytes().split(b"\n", 1)[0].decode().split()
    assert header[0] == "NEDIFF1"
    assert int(header[1]) == fig1_style_packet.grid.nx
    assert int(header[2]) == fig1_style_packet.grid.ny


def test_grid_dump_rejects_garbage(tmp_path):
    path = tmp_path / "bad.grid"
    for content in (b"NOPE 1 2 3\n", b"NEDIFF1 a b c d e f g h i\n",
                    b"\xffNEDIFF1 2 2 1 1 0 0 0 1 1\n"):
        path.write_bytes(content)
        with pytest.raises(ConfigurationError):
            read_grid(path)
