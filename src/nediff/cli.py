"""Command line driver.

Subcommands: run, sweep, preset, compare, render.  Exit code 0 on success,
1 on validation or usage errors and on files that cannot be read or
written, 2 on numerical failures and on sweeps in which no point succeeded,
3 on any other exception (a bug; its traceback goes to stderr).  All runs
are deterministic.  --threads sets the scipy.fft worker count for run and
preset, which also sizes the thread pool that runs the split step's
elementwise work in row blocks, and the number of concurrent points (one
worker each) for sweeps.  run, sweep and preset differ only in where their
config comes from; --engine sets the engine of a scenario or of a sweep.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy.fft

from . import gridio
from .analysis import momentum_density, rel_l2
from .config import (ENGINES, PRESET_NAMES, SweepSpec, build_preset,
                     parse_config, parse_sweep_config, serialize_config)
from .errors import ConfigurationError, NediffError
from .render import render_heatmap
from .scenario import run_scenario, run_sweep

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_BUG = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="nediff", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=_positive_int, default=os.cpu_count() or 1)
        p.add_argument("--engine", default=None, choices=ENGINES)

    p_run = sub.add_parser("run", help="run one scenario config")
    p_run.add_argument("config")
    common(p_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep config")
    p_sweep.add_argument("config")
    common(p_sweep)

    p_preset = sub.add_parser("preset", help="run a built-in preset")
    p_preset.add_argument("name", choices=PRESET_NAMES)
    common(p_preset)

    p_cmp = sub.add_parser("compare", help="L2/max metrics between two grid dumps")
    p_cmp.add_argument("grid_a")
    p_cmp.add_argument("grid_b")

    p_render = sub.add_parser("render", help="render a grid dump as a PGM heatmap")
    p_render.add_argument("grid")
    p_render.add_argument("--out", default=None, help="output image path")
    p_render.add_argument("--colormap", default="linear", choices=("linear", "log"))
    p_render.add_argument("--clip", type=float, default=1e-6)
    p_render.add_argument("--momentum", action="store_true",
                          help="render the momentum-space density")
    return parser


def resolve_output_root(out) -> Path:
    """Apply the NEDIFF_OUT environment override to a relative output path."""
    root = os.environ.get("NEDIFF_OUT")
    out = Path(out)
    if root and not out.is_absolute():
        return Path(root) / out
    return out


def _execute(cfg, args, default_out: str) -> int:
    """Run a scenario config or a sweep spec with --engine, --out and --threads."""
    if args.engine:
        cfg = replace(cfg, engine=args.engine)
    outdir = resolve_output_root(args.out if args.out is not None else default_out)
    if isinstance(cfg, SweepSpec):
        return _run_sweep_spec(cfg, outdir, args.threads)
    result = run_scenario(cfg, outdir=outdir)
    print(f"wrote artifacts to {outdir}")
    if result.rel_l2_densities is not None:
        print(f"relative L2 (numeric vs analytic densities): "
              f"{result.rel_l2_densities:.6g}")
    return EXIT_OK


def _run_sweep_spec(spec, outdir: Path, threads: int) -> int:
    result = run_sweep(spec, threads=threads)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "sweep.csv"
    result.write_csv(path)
    gridio.write_lines(outdir / "template.txt",
                       serialize_config(spec.template).splitlines())
    print(f"wrote {path}")
    at = result.ground_state_minimum()
    if not np.isnan(at):
        print(f"ground-state population minimum at {spec.axis} = {at:g}")
    failures = [p for p in result.points if p.error]
    for p in failures:
        print(f"point {p.parameter:g} failed: {p.error}", file=sys.stderr)
    if len(failures) == len(result.points):
        print("numerical failure: no sweep point succeeded", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _read_config(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _cmd_run(args) -> int:
    cfg = parse_config(_read_config(args.config))
    return _execute(cfg, args, Path(args.config).stem + ".out")


def _cmd_sweep(args) -> int:
    spec = parse_sweep_config(_read_config(args.config))
    return _execute(spec, args, Path(args.config).stem + ".out")


def _cmd_preset(args) -> int:
    return _execute(build_preset(args.name), args, args.name + ".out")


def _cmd_compare(args) -> int:
    psi_a = gridio.read_grid(args.grid_a)
    psi_b = gridio.read_grid(args.grid_b)
    if psi_a.amplitudes.shape != psi_b.amplitudes.shape:
        raise ConfigurationError("grids have different shapes")
    rho_a = momentum_density(psi_a).values
    rho_b = momentum_density(psi_b).values
    print(f"relative_l2_momentum_density = {rel_l2(rho_a, rho_b):.9g}")
    print(f"max_abs_momentum_density_diff = {float(np.max(np.abs(rho_a - rho_b))):.9g}")
    diff = np.abs(psi_a.amplitudes - psi_b.amplitudes)
    print(f"max_abs_field_diff = {float(diff.max()):.9g}")
    return EXIT_OK


def _cmd_render(args) -> int:
    psi = gridio.read_grid(args.grid)
    if args.momentum:
        target = momentum_density(psi)
    else:
        target = psi.density()
    out = args.out if args.out is not None else args.grid + ".pgm"
    path = render_heatmap(target, resolve_output_root(out),
                          colormap=args.colormap, clip=args.clip)
    print(f"wrote {path}")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "preset": _cmd_preset,
    "compare": _cmd_compare,
    "render": _cmd_render,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_VALIDATION
        # Thread-local: sweep pool threads keep one FFT worker per point.
        with scipy.fft.set_workers(getattr(args, "threads", 1)):
            return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:  # a missing or unreadable file, a full disk
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NediffError as exc:
        kind = "numerical failure" if exc.exit_code == EXIT_NUMERICAL else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception:
        traceback.print_exc()
        return EXIT_BUG


if __name__ == "__main__":
    sys.exit(main())
