"""In-memory spans around the calls into each nediff module.

A `Tracer` records one span per wrapped call: name, start, end, parent span
and run id (the index of the CLI command); counters are summed by name.
Parents come from a per-thread stack.  A span opened with ``adopt=True``
(the sweep) becomes the parent of spans opened on threads whose own stack is
empty, so the sweep's `ThreadPoolExecutor` points hang under it.
`instrument` installs the wrappers where each caller looks the name up
(module globals, class attributes, the `scipy.fft` module handle of `numeric`
and `core`) and returns a function that restores the originals.

Nothing here runs inside the program's own code: the wrappers only sit
around calls between its modules.
"""

from __future__ import annotations

import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import count
from pathlib import Path


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters; safe to use from several threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.run = 0
        self._ids = count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._adopter: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, adopt: bool = False):
        stack = self._stack()
        parent = stack[-1] if stack else self._adopter
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        if adopt:
            outer, self._adopter = self._adopter, sid
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            if adopt:
                self._adopter = outer
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, self.run))

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span: Span, children) -> float:
    """Span duration minus the part of it that its children cover.

    Children may overlap each other (threads) and are clipped to the span.
    """
    clipped = [(max(c.start, span.start), min(c.end, span.end)) for c in children]
    return span.duration - union_length([iv for iv in clipped if iv[1] > iv[0]])


def children_of(spans) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    return kids


class _FFTHandle:
    """Stands in for the `scipy.fft` module inside numeric and core."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        for fname in ("fft2", "ifft2"):
            setattr(self, fname, self._timed(getattr(module, fname), tracer))

    @staticmethod
    def _timed(fn, tracer):
        def transform(x, *args, **kwargs):
            n = x.size
            with tracer.span("fft"):
                out = fn(x, *args, **kwargs)
            tracer.add("fft.flop", 5.0 * n * math.log2(n))
            return out
        return transform

    def __getattr__(self, name):
        return getattr(self._module, name)


def instrument(tracer: Tracer):
    """Wrap the public calls between nediff modules; returns an undo function."""
    from nediff import (analysis, analytic, cli, core, gridio, nearfield,
                        numeric, scenario)

    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap_all(name, *owners):
        for owner, attr in owners:
            patch(owner, attr, tracer.wrap(name, getattr(owner, attr)))

    run_sweep = cli.run_sweep

    def traced_run_sweep(*args, **kwargs):
        with tracer.span("analysis.run_sweep", adopt=True):
            result = run_sweep(*args, **kwargs)
        tracer.add("analysis.run_sweep.points_failed",
                   sum(1 for p in result.points if p.error))
        return result

    patch(cli, "run_sweep", traced_run_sweep)

    split_step_evolve = scenario.split_step_evolve

    def traced_evolve(psi0, params, *args, **kwargs):
        with tracer.span("numeric.split_step_evolve"):
            out = split_step_evolve(psi0, params, *args, **kwargs)
        tracer.add("numeric.steps", params.n_steps)
        return out

    patch(scenario, "split_step_evolve", traced_evolve)

    adaptive_quad = nearfield.adaptive_quad

    def traced_quad(f, *args, **kwargs):
        def counted(xs):
            tracer.add("quadrature.points", len(xs))
            return f(xs)
        with tracer.span("quadrature.adaptive_quad"):
            return adaptive_quad(counted, *args, **kwargs)

    patch(nearfield, "adaptive_quad", traced_quad)

    write_grid = gridio.write_grid

    def traced_write_grid(path, psi):
        with tracer.span("gridio.write_grid"):
            write_grid(path, psi)
        tracer.add("gridio.bytes_written", Path(path).stat().st_size)

    patch(gridio, "write_grid", traced_write_grid)

    for model in (nearfield.WireModel, nearfield.GapResonatorModel):
        wrap_all("nearfield.potential", (model, "potential"))
    for module in (numeric, core):
        patch(module, "_fft", _FFTHandle(module._fft, tracer))

    wrap_all("scenario.run_sweep_point", (scenario, "run_sweep_point"))
    wrap_all("scenario.run_scenario", (cli, "run_scenario"), (scenario, "run_scenario"))
    wrap_all("scenario.write_artifacts", (scenario, "write_artifacts"))
    wrap_all("nearfield.calibrate_gap_amplitude", (scenario, "calibrate_gap_amplitude"))
    wrap_all("nearfield.coupling_profile", (scenario, "coupling_profile"))
    wrap_all("analytic.build_phase_mask", (scenario, "build_phase_mask"))
    wrap_all("analytic.apply_interaction", (scenario, "apply_interaction"))
    wrap_all("analytic.vacuum_propagate", (scenario, "vacuum_propagate"))
    wrap_all("core.to_momentum", (analysis, "to_momentum"), (analytic, "to_momentum"))
    wrap_all("core.from_momentum", (analytic, "from_momentum"))
    wrap_all("core.gaussian_wavepacket", (scenario, "gaussian_wavepacket"))
    wrap_all("analysis.momentum_density", (scenario, "momentum_density"),
             (cli, "momentum_density"))
    wrap_all("analysis.sideband_populations", (scenario, "sideband_populations"))
    wrap_all("render.render_heatmap", (scenario, "render_heatmap"))

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo


#: Per-layer metrics and units, in report order.
LAYER_METRICS = {
    "numeric.split_step_evolve.s": "s",
    "numeric.self_ms_per_step": "ms",
    "numeric.steps": "count",
    "fft.calls": "count",
    "fft.ms_per_call": "ms",
    "fft.gflop_per_s": "GFLOP/s",
    "nearfield.potential.calls": "count",
    "nearfield.potential.s": "s",
    "nearfield.coupling_profile.s": "s",
    "nearfield.calibrate_gap_amplitude.s": "s",
    "quadrature.adaptive_quad.calls": "count",
    "quadrature.points": "count",
    "analytic.build_phase_mask.s": "s",
    "analytic.apply_interaction.s": "s",
    "analytic.vacuum_propagate.s": "s",
    "core.to_momentum.s": "s",
    "core.from_momentum.s": "s",
    "core.gaussian_wavepacket.s": "s",
    "analysis.momentum_density.s": "s",
    "analysis.sideband_populations.s": "s",
    "scenario.run_sweep_point.p50_s": "s",
    "scenario.run_sweep_point.tail_s": "s",
    "analysis.run_sweep.parallelism": "ratio",
    "analysis.run_sweep.points_failed": "count",
    "scenario.write_artifacts.s": "s",
    "gridio.write_grid.s": "s",
    "gridio.bytes_written": "bytes",
    "render.render_heatmap.s": "s",
    "scenario.run_scenario.self_s": "s",
    "cli.main.s": "s",
    "trace.overhead_s": "s",
}

#: Wrapped calls whose summed span time is reported as `<name>.s`.
_TIMED = ("numeric.split_step_evolve", "nearfield.potential",
          "nearfield.coupling_profile", "nearfield.calibrate_gap_amplitude",
          "analytic.build_phase_mask", "analytic.apply_interaction",
          "analytic.vacuum_propagate", "core.to_momentum", "core.from_momentum",
          "core.gaussian_wavepacket", "analysis.momentum_density",
          "analysis.sideband_populations", "scenario.write_artifacts",
          "gridio.write_grid", "render.render_heatmap", "cli.main")


def layer_metrics(spans, counts: dict[str, float]) -> dict[str, float]:
    """Per-layer figures of one traced process (all its commands together).

    Sweep-point latencies and `trace.overhead_s` need samples from several
    processes, so the caller adds them.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    kids = children_of(spans)

    def total(name):
        return sum(s.duration for s in by_name[name])

    def self_total(name):
        return sum(self_time(s, kids[s.id]) for s in by_name[name])

    m = {f"{name}.s": total(name) for name in _TIMED}
    steps = counts.get("numeric.steps", 0.0)
    m["numeric.steps"] = steps
    m["numeric.self_ms_per_step"] = (
        1e3 * self_total("numeric.split_step_evolve") / steps if steps else 0.0)
    fft_s, fft_calls = total("fft"), len(by_name["fft"])
    m["fft.calls"] = fft_calls
    m["fft.ms_per_call"] = 1e3 * fft_s / fft_calls if fft_calls else 0.0
    m["fft.gflop_per_s"] = counts.get("fft.flop", 0.0) / fft_s / 1e9 if fft_s else 0.0
    m["nearfield.potential.calls"] = len(by_name["nearfield.potential"])
    m["quadrature.adaptive_quad.calls"] = len(by_name["quadrature.adaptive_quad"])
    m["quadrature.points"] = counts.get("quadrature.points", 0.0)
    sweep_s = total("analysis.run_sweep")
    m["analysis.run_sweep.parallelism"] = (
        total("scenario.run_sweep_point") / sweep_s if sweep_s else 0.0)
    m["analysis.run_sweep.points_failed"] = counts.get(
        "analysis.run_sweep.points_failed", 0.0)
    m["gridio.bytes_written"] = counts.get("gridio.bytes_written", 0.0)
    m["scenario.run_scenario.self_s"] = self_total("scenario.run_scenario")
    return m


def evolve_accounting(spans) -> tuple[float, float, float, float]:
    """(span, numeric self, fft, potential) seconds inside split_step_evolve."""
    kids = children_of(spans)
    span = own = fft = pot = 0.0
    for s in spans:
        if s.name != "numeric.split_step_evolve":
            continue
        span += s.duration
        own += self_time(s, kids[s.id])
        fft += sum(c.duration for c in kids[s.id] if c.name == "fft")
        pot += sum(c.duration for c in kids[s.id] if c.name == "nearfield.potential")
    return span, own, fft, pot
