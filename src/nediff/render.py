"""Grayscale heatmaps as 16-bit binary PGM files.

PGM was chosen so goldens stay bit-exact without image libraries; a sidecar
text file records the axis ranges and mapping.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .analysis import DensityMap
from .errors import DomainError
from .gridio import write_lines

PGM_MAXVAL = 65535


def _scale_linear(values: np.ndarray) -> np.ndarray:
    lo = float(values.min())
    hi = float(values.max())
    if hi == lo:
        # Degenerate range renders mid-gray.
        return np.full_like(values, 0.5, dtype=float)
    scaled = values - lo
    scaled /= hi - lo
    return scaled


def _scale_log(values: np.ndarray, clip: float) -> np.ndarray:
    hi = float(values.max())
    floor = clip * hi
    scaled = np.maximum(values, floor)
    np.log(scaled, out=scaled)
    lo = np.log(floor)
    scaled -= lo
    scaled /= np.log(hi) - lo
    return scaled


def render_heatmap(density, path, colormap: str = "linear",
                   clip: float = 1e-6) -> Path:
    """Write a density field as PGM; returns the written path.

    Rows run top to bottom with the highest k_y (or y) first.  The log map
    floors at clip*max; an all-zero field renders blank with a warning.
    """
    path = Path(path)
    if isinstance(density, DensityMap):
        values = density.values
        axes = (float(density.kx[0]), float(density.kx[-1]),
                float(density.ky[0]), float(density.ky[-1]))
        axis_label = "kx_per_nm,ky_per_nm"
    else:
        values = np.asarray(density, dtype=float)
        axes = (0.0, float(values.shape[1] - 1), 0.0, float(values.shape[0] - 1))
        axis_label = "column,row"
    if not np.all(np.isfinite(values)):
        raise DomainError("density contains non-finite values")
    if colormap not in ("linear", "log"):
        raise DomainError(f"colormap must be 'linear' or 'log', got {colormap!r}")
    if not 0.0 < clip < 1.0:
        raise DomainError("clip must be in (0, 1)")

    vmax = float(values.max())
    if vmax <= 0.0:
        warnings.warn("all-zero density; writing a blank image", stacklevel=2)
        scaled = np.zeros_like(values, dtype=float)
    elif colormap == "linear":
        scaled = _scale_linear(values)
    else:
        scaled = _scale_log(values, clip)

    # In place on the one array the scaling made; values stays untouched.
    scaled *= PGM_MAXVAL
    np.round(scaled, out=scaled)
    pixels = scaled[::-1].astype(">u2")  # top row carries the highest coordinate
    h, w = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n{PGM_MAXVAL}\n".encode("ascii"))
        fh.write(memoryview(pixels).cast("B"))

    sidecar = path.with_suffix(path.suffix + ".txt")
    lines = [
        f"axes: {axis_label}",
        f"x_range: {axes[0]!r} {axes[1]!r}",
        f"y_range: {axes[2]!r} {axes[3]!r}",
        f"colormap: {colormap}",
        f"clip: {clip!r}",
        f"data_min: {float(values.min())!r}",
        f"data_max: {vmax!r}",
    ]
    write_lines(sidecar, lines)
    return path
