"""Artifact files: raw grid dumps and UTF-8 text.

Grid dump format: one ASCII header line
    NEDIFF1 nx ny dx dy x0 y0 t k0 E0\n
followed by little-endian float64 (re, im) pairs, row-major over y then x.
Text artifacts (CSV, config echoes, summaries) are UTF-8 with LF line ends
on every platform, so reruns are byte-identical.  Every CSV artifact goes
through `write_csv`: `# ` comment lines, a header row, then one line per row.
"""

from __future__ import annotations

import numpy as np

from .core import Grid2D, Wavepacket
from .errors import ConfigurationError

MAGIC = "NEDIFF1"


def write_lines(path, lines) -> None:
    """Write text lines as UTF-8, each terminated by a single LF."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_csv(path, header, rows, comments=()) -> None:
    """CSV artifact; a string cell is written as given, any other as
    repr(float(v)), which reads back bit for bit."""
    lines = [f"# {c}" for c in comments] + [",".join(header)]
    lines += [",".join(v if isinstance(v, str) else repr(float(v)) for v in row)
              for row in rows]
    write_lines(path, lines)


def write_grid(path, psi: Wavepacket) -> None:
    header = " ".join(
        [MAGIC, str(psi.grid.nx), str(psi.grid.ny)]
        + [repr(float(v)) for v in (
            psi.grid.dx, psi.grid.dy, psi.grid.x0, psi.grid.y0,
            psi.t, psi.k0, psi.energy_ev,
        )]
    )
    # Written a row at a time through its buffer: a <c16 array whose rows
    # are contiguous, such as a padded `core.fft_buffer` view, is not copied.
    data = np.asarray(psi.amplitudes, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        for row in data:
            fh.write(memoryview(np.ascontiguousarray(row)).cast("B"))


def read_grid(path) -> Wavepacket:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").split()
        if not header or header[0] != MAGIC:
            raise ConfigurationError(f"{path}: not a {MAGIC} grid dump")
        if len(header) != 10:
            raise ConfigurationError(f"{path}: malformed header")
        try:
            nx, ny = int(header[1]), int(header[2])
            dx, dy, x0, y0, t, k0, _e0 = (float(v) for v in header[3:])
            # A DomainError of the grid's own checks is a ValueError too.
            grid = Grid2D(nx, ny, dx, dy, x0, y0)
        except ValueError as exc:
            raise ConfigurationError(f"{path}: malformed header ({exc})") from exc
        raw = fh.read()
    expected = nx * ny * 16
    if len(raw) != expected:
        raise ConfigurationError(
            f"{path}: payload has {len(raw)} bytes, expected {expected}"
        )
    amps = np.frombuffer(raw, dtype="<c16").reshape(ny, nx).copy()
    return Wavepacket(grid=grid, amplitudes=amps, t=t, k0=k0)
