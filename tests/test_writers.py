"""Artifact writers: grid dumps and PGM heatmaps, byte for byte against the
out-of-place expressions they replace."""

import warnings

import numpy as np
import pytest

from nediff.analysis import DensityMap, momentum_density
from nediff.core import Grid2D, Wavepacket, gaussian_wavepacket
from nediff.gridio import read_grid, write_grid
from nediff.render import PGM_MAXVAL, render_heatmap


def _grid_bytes(psi: Wavepacket) -> bytes:
    g = psi.grid
    header = " ".join(["NEDIFF1", str(g.nx), str(g.ny)] + [repr(float(v)) for v in (
        g.dx, g.dy, g.x0, g.y0, psi.t, psi.k0, psi.energy_ev)])
    return (header.encode("ascii") + b"\n"
            + np.ascontiguousarray(psi.amplitudes, "<c16").tobytes())


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_write_grid_bytes_for_any_memory_layout(tmp_path, layout):
    rng = np.random.default_rng(3)
    full = rng.standard_normal((16, 64)) + 1j * rng.standard_normal((16, 64))
    amps = {"C": full[:, :32].copy(), "F": np.asfortranarray(full[:, :32]),
            "strided": full[:, ::2]}[layout]
    psi = Wavepacket(grid=Grid2D.centered(32, 16, 0.5, 0.25), amplitudes=amps,
                     t=1.5, k0=51.0)
    path = tmp_path / "psi.grid"
    write_grid(path, psi)
    assert path.read_bytes() == _grid_bytes(psi)
    back = read_grid(path)
    assert back.amplitudes.tobytes() == np.ascontiguousarray(amps).tobytes()


def _pgm_bytes(values: np.ndarray, colormap: str, clip: float) -> bytes:
    """The PGM of the out-of-place formulas: one new array per operation."""
    vmax = float(values.max())
    if vmax <= 0.0:
        scaled = np.zeros_like(values, dtype=float)
    elif colormap == "linear":
        lo, hi = float(values.min()), vmax
        if hi == lo:
            scaled = np.full_like(values, 0.5, dtype=float)
        else:
            scaled = (values - lo) / (hi - lo)
    else:
        floor = clip * vmax
        v = np.log(np.maximum(values, floor))
        lo = np.log(floor)
        scaled = (v - lo) / (np.log(vmax) - lo)
    pixels = np.round(scaled * PGM_MAXVAL).astype(">u2")[::-1]
    h, w = pixels.shape
    return f"P5\n{w} {h}\n{PGM_MAXVAL}\n".encode("ascii") + pixels.tobytes()


def _as_map(values: np.ndarray) -> DensityMap:
    ny, nx = values.shape
    return DensityMap(values=values, kx=51.0 + 0.1 * np.arange(nx),
                      ky=0.1 * np.arange(ny) - 0.05 * ny, dkx=0.1, dky=0.1, k0=51.0)


def _densities():
    psi = gaussian_wavepacket(Grid2D.centered(256, 128, 0.5, 0.5), 100.0, 20.0, 8.0)
    rho = momentum_density(psi)
    noisy = _as_map(np.random.default_rng(5).random((32, 64)) * 1e-3)
    return {
        "log": (rho, "log"),
        "linear": (rho, "linear"),
        "log-noise": (noisy, "log"),
        "linear-noise": (noisy, "linear"),
        "degenerate": (_as_map(np.full((16, 32), 0.25)), "linear"),
        "all-zero": (_as_map(np.zeros((16, 32))), "log"),
    }


@pytest.mark.parametrize("case", list(_densities()))
def test_render_heatmap_bytes_equal_the_out_of_place_formula(tmp_path, case):
    density, colormap = _densities()[case]
    before = density.values.copy()
    path = tmp_path / "d.pgm"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the all-zero warning
        render_heatmap(density, path, colormap=colormap, clip=1e-6)
    assert path.read_bytes() == _pgm_bytes(density.values, colormap, 1e-6)
    assert density.values.tobytes() == before.tobytes()


def test_render_heatmap_leaves_a_plain_array_untouched(tmp_path):
    values = np.random.default_rng(7).random((8, 16))
    before = values.copy()
    render_heatmap(values, tmp_path / "a.pgm", colormap="log")
    assert (tmp_path / "a.pgm").read_bytes() == _pgm_bytes(values, "log", 1e-6)
    assert values.tobytes() == before.tobytes()
