"""Declarative scenario configuration: strict parsing, exact round-trips, presets.

The on-disk format is a sectioned key-value text with units spelled out in
the key names (wavelength_nm, field_v_per_nm, ...) so unit mistakes are
syntactically visible.  Unknown sections or keys are rejected with the key
path and line number; serializing a config echoes every resolved value.

The figure presets re-derive every dependent quantity (k0, v0, delta_k,
widths, free flight times) from primitive parameters at build time; nothing
derived is hard-coded.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, replace

import numpy as np

from .core import Grid2D, chirp_flight_time
from .errors import ConfigurationError, DomainError
from .nearfield import (GapResonatorModel, LaserParams, NearFieldModel,
                        UniformStripeModel, WireModel)
from .units import electron_kinematics

ENGINES = ("analytic", "numeric", "both")
OUTPUT_KINDS = ("grids", "density", "crosscuts", "populations", "profile",
                "trace", "compare", "summary", "snapshots")
#: Everything except the bulky per-step snapshot dumps.
DEFAULT_OUTPUTS = tuple(k for k in OUTPUT_KINDS if k != "snapshots")
SWEEP_AXES = ("energy_ev", "radius_nm", "field_v_per_nm")


@dataclass(frozen=True)
class ElectronSpec:
    """Initial electron state.

    The longitudinal extent is set either directly (fwhm_x_nm) or through an
    energy bandwidth (bandwidth_ev, FWHM of the kinetic-energy density);
    exactly one must be given.  The transverse width is either fixed or tied
    to the structure radius by a scale factor (used by radius scans).
    """

    energy_ev: float
    fwhm_x_nm: float | None = None
    bandwidth_ev: float | None = None
    fwhm_y_nm: float | None = None
    fwhm_y_radius_scale: float | None = None
    center_x_nm: float = 0.0
    center_y_nm: float = 0.0
    prepropagation_fs: float = 0.0
    prepropagation_axes: str = "xy"

    def __post_init__(self):
        if not self.energy_ev > 0.0:
            raise ConfigurationError("electron.energy_ev must be positive")
        if (self.fwhm_x_nm is None) == (self.bandwidth_ev is None):
            raise ConfigurationError(
                "exactly one of electron.fwhm_x_nm and electron.bandwidth_ev "
                "must be given")
        if (self.fwhm_y_nm is None) == (self.fwhm_y_radius_scale is None):
            raise ConfigurationError(
                "exactly one of electron.fwhm_y_nm and "
                "electron.fwhm_y_radius_scale must be given")
        for name in ("fwhm_x_nm", "bandwidth_ev", "fwhm_y_nm",
                     "fwhm_y_radius_scale"):
            v = getattr(self, name)
            if v is not None and not v > 0.0:
                raise ConfigurationError(f"electron.{name} must be positive")
        if self.prepropagation_fs < 0.0:
            raise ConfigurationError("electron.prepropagation_fs must be >= 0")
        if self.prepropagation_axes not in ("xy", "x"):
            raise ConfigurationError(
                "electron.prepropagation_axes must be 'xy' or 'x'")


@dataclass(frozen=True)
class NumericSpec:
    """Options for the split-step engine."""

    window_fs: float
    dt_fs: float | None = None
    safety: float = 0.5
    vector_potential: bool = True
    snapshot_stride: int = 50

    def __post_init__(self):
        if not self.window_fs > 0.0:
            raise ConfigurationError("numeric.window_fs must be positive")
        if self.dt_fs is not None and not self.dt_fs > 0.0:
            raise ConfigurationError("numeric.dt_fs must be positive")
        if not 0.0 < self.safety <= 1.0:
            raise ConfigurationError("numeric.safety must be in (0, 1]")
        if self.snapshot_stride < 1:
            raise ConfigurationError("numeric.snapshot_stride must be >= 1")


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully resolved simulation run."""

    engine: str
    electron: ElectronSpec
    laser: LaserParams
    model: NearFieldModel
    grid: Grid2D
    numeric: NumericSpec | None = None
    outputs: tuple[str, ...] = DEFAULT_OUTPUTS

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"engine must be one of {ENGINES}, got {self.engine!r}")
        for kind in self.outputs:
            if kind not in OUTPUT_KINDS:
                raise ConfigurationError(f"unknown output kind {kind!r}")
        if self.engine in ("numeric", "both") and self.numeric is None:
            raise ConfigurationError(
                "the numeric engine requires a [numeric] section")
        if self.electron.fwhm_y_radius_scale is not None and not isinstance(
                self.model, WireModel):
            raise ConfigurationError(
                "electron.fwhm_y_radius_scale requires a wire model")

    def serialize(self) -> str:
        return serialize_config(self)


@dataclass(frozen=True)
class SweepSpec:
    """A scenario template plus the parameter axis to scan."""

    template: ScenarioConfig
    axis: str
    values: tuple[float, ...]
    engine: str = "analytic"

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ConfigurationError(
                f"sweep axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        if len(self.values) < 2:
            raise ConfigurationError("a sweep needs at least two values")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ConfigurationError("sweep values must be strictly increasing")


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


_MODEL_KEYS = {
    "wire": ("radius_nm", "response", "center_x_nm", "center_y_nm"),
    "gap": ("separation_nm", "smoothing_fwhm_nm", "peak_field_v_per_nm",
            "center_x_nm", "center_y_nm"),
    "stripe": ("coupling_rad", "y_min_nm", "y_max_nm"),
}

_SCHEMA = {
    "scenario": ("preset", "engine", "outputs"),
    "electron": ("energy_ev", "fwhm_x_nm", "bandwidth_ev", "fwhm_y_nm",
                 "fwhm_y_radius_scale", "center_x_nm", "center_y_nm",
                 "prepropagation_fs", "prepropagation_axes"),
    "laser": ("wavelength_nm", "field_v_per_nm", "phase_rad"),
    "model": ("type",) + tuple(sorted({k for ks in _MODEL_KEYS.values() for k in ks})),
    "grid": ("nx", "ny", "dx_nm", "dy_nm"),
    "numeric": ("window_fs", "dt_fs", "safety", "vector_potential",
                "snapshot_stride"),
    "sweep": ("preset", "axis", "values", "engine"),
}


def serialize_config(cfg: ScenarioConfig) -> str:
    out = io.StringIO()
    out.write("[scenario]\n")
    out.write(f"engine = {cfg.engine}\n")
    out.write(f"outputs = {','.join(cfg.outputs)}\n")
    e = cfg.electron
    out.write("\n[electron]\n")
    out.write(f"energy_ev = {_fmt(e.energy_ev)}\n")
    if e.fwhm_x_nm is not None:
        out.write(f"fwhm_x_nm = {_fmt(e.fwhm_x_nm)}\n")
    else:
        out.write(f"bandwidth_ev = {_fmt(e.bandwidth_ev)}\n")
    if e.fwhm_y_nm is not None:
        out.write(f"fwhm_y_nm = {_fmt(e.fwhm_y_nm)}\n")
    else:
        out.write(f"fwhm_y_radius_scale = {_fmt(e.fwhm_y_radius_scale)}\n")
    out.write(f"center_x_nm = {_fmt(e.center_x_nm)}\n")
    out.write(f"center_y_nm = {_fmt(e.center_y_nm)}\n")
    out.write(f"prepropagation_fs = {_fmt(e.prepropagation_fs)}\n")
    out.write(f"prepropagation_axes = {e.prepropagation_axes}\n")
    la = cfg.laser
    out.write("\n[laser]\n")
    out.write(f"wavelength_nm = {_fmt(la.wavelength_nm)}\n")
    out.write(f"field_v_per_nm = {_fmt(la.field_v_per_nm)}\n")
    out.write(f"phase_rad = {_fmt(la.phase_rad)}\n")
    m = cfg.model
    out.write("\n[model]\n")
    if isinstance(m, WireModel):
        out.write("type = wire\n")
        out.write(f"radius_nm = {_fmt(m.radius_nm)}\n")
        out.write(f"response = {_fmt(m.response)}\n")
        out.write(f"center_x_nm = {_fmt(m.center[0])}\n")
        out.write(f"center_y_nm = {_fmt(m.center[1])}\n")
    elif isinstance(m, GapResonatorModel):
        out.write("type = gap\n")
        out.write(f"separation_nm = {_fmt(m.separation_nm)}\n")
        out.write(f"smoothing_fwhm_nm = {_fmt(m.smoothing_fwhm_nm)}\n")
        out.write(f"peak_field_v_per_nm = {_fmt(m.peak_field_v_per_nm)}\n")
        out.write(f"center_x_nm = {_fmt(m.center[0])}\n")
        out.write(f"center_y_nm = {_fmt(m.center[1])}\n")
    elif isinstance(m, UniformStripeModel):
        out.write("type = stripe\n")
        out.write(f"coupling_rad = {_fmt(m.coupling_rad)}\n")
        out.write(f"y_min_nm = {_fmt(m.y_min)}\n")
        out.write(f"y_max_nm = {_fmt(m.y_max)}\n")
    else:
        raise ConfigurationError(f"cannot serialize model {type(m).__name__}")
    g = cfg.grid
    out.write("\n[grid]\n")
    out.write(f"nx = {g.nx}\n")
    out.write(f"ny = {g.ny}\n")
    out.write(f"dx_nm = {_fmt(g.dx)}\n")
    out.write(f"dy_nm = {_fmt(g.dy)}\n")
    if cfg.numeric is not None:
        nu = cfg.numeric
        out.write("\n[numeric]\n")
        out.write(f"window_fs = {_fmt(nu.window_fs)}\n")
        if nu.dt_fs is not None:
            out.write(f"dt_fs = {_fmt(nu.dt_fs)}\n")
        out.write(f"safety = {_fmt(nu.safety)}\n")
        out.write(f"vector_potential = {_fmt(nu.vector_potential)}\n")
        out.write(f"snapshot_stride = {nu.snapshot_stride}\n")
    return out.getvalue()


_MISSING = object()


class _Raw:
    """Parsed sections with line diagnostics."""

    def __init__(self, text: str):
        parser = configparser.ConfigParser(interpolation=None,
                                           inline_comment_prefixes=("#",))
        parser.optionxform = str
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigurationError(f"config syntax error: {exc}") from exc
        self.text = text
        self.sections = {s: dict(parser.items(s)) for s in parser.sections()}

    def line_of(self, key: str) -> int | None:
        for i, line in enumerate(self.text.splitlines(), start=1):
            stripped = line.strip()
            if stripped.startswith((f"{key} ", f"{key}=", f"{key}\t")):
                return i
        return None

    def check_schema(self, allowed_sections) -> None:
        for section, keys in self.sections.items():
            if section not in allowed_sections:
                raise ConfigurationError(f"unknown section [{section}]")
            for key in keys:
                if key not in _SCHEMA[section]:
                    line = self.line_of(key)
                    where = f" (line {line})" if line else ""
                    raise ConfigurationError(
                        f"unknown key {key!r} in section [{section}]{where}")

    def get(self, section: str, key: str, conv, default=_MISSING):
        sec = self.sections.get(section, {})
        if key not in sec:
            if default is _MISSING:
                raise ConfigurationError(
                    f"missing key {key!r} in section [{section}]")
            return default
        raw = sec[key]
        try:
            return conv(raw)
        except (TypeError, ValueError) as exc:
            line = self.line_of(key)
            where = f" (line {line})" if line else ""
            raise ConfigurationError(
                f"invalid value for [{section}] {key} = {raw!r}{where}: {exc}"
            ) from exc


def _to_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _to_outputs(raw: str) -> tuple[str, ...]:
    items = tuple(s.strip() for s in raw.split(",") if s.strip())
    return items


def _build_model(raw: _Raw) -> NearFieldModel:
    if "model" not in raw.sections:
        raise ConfigurationError("missing required section [model]")
    mtype = raw.get("model", "type", str)
    if mtype not in _MODEL_KEYS:
        raise ConfigurationError(
            f"model.type must be one of {tuple(_MODEL_KEYS)}, got {mtype!r}")
    present = set(raw.sections["model"]) - {"type"}
    allowed = set(_MODEL_KEYS[mtype])
    stray = present - allowed
    if stray:
        raise ConfigurationError(
            f"keys {sorted(stray)} do not apply to model.type = {mtype}")
    if mtype == "wire":
        return WireModel(
            radius_nm=raw.get("model", "radius_nm", float),
            response=raw.get("model", "response", float, 0.5),
            center=(raw.get("model", "center_x_nm", float, 0.0),
                    raw.get("model", "center_y_nm", float, 0.0)),
        )
    if mtype == "gap":
        return GapResonatorModel(
            separation_nm=raw.get("model", "separation_nm", float),
            smoothing_fwhm_nm=raw.get("model", "smoothing_fwhm_nm", float),
            peak_field_v_per_nm=raw.get("model", "peak_field_v_per_nm", float),
            center=(raw.get("model", "center_x_nm", float, 0.0),
                    raw.get("model", "center_y_nm", float, 0.0)),
        )
    return UniformStripeModel(
        coupling_rad=raw.get("model", "coupling_rad", float),
        y_min=raw.get("model", "y_min_nm", float),
        y_max=raw.get("model", "y_max_nm", float),
    )


def _build_scenario(raw: _Raw, base: ScenarioConfig | None = None) -> ScenarioConfig:
    if base is not None:
        merged = _Raw(serialize_config(base))
        for section, keys in raw.sections.items():
            if section == "scenario":
                keys = {k: v for k, v in keys.items() if k != "preset"}
            merged.sections.setdefault(section, {}).update(keys)
        merged.text = raw.text  # keep line diagnostics pointing at user input
        raw = merged
    for required in ("electron", "laser", "model", "grid"):
        if required not in raw.sections:
            raise ConfigurationError(f"missing required section [{required}]")
    electron = ElectronSpec(
        energy_ev=raw.get("electron", "energy_ev", float),
        fwhm_x_nm=raw.get("electron", "fwhm_x_nm", float, None),
        bandwidth_ev=raw.get("electron", "bandwidth_ev", float, None),
        fwhm_y_nm=raw.get("electron", "fwhm_y_nm", float, None),
        fwhm_y_radius_scale=raw.get("electron", "fwhm_y_radius_scale", float, None),
        center_x_nm=raw.get("electron", "center_x_nm", float, 0.0),
        center_y_nm=raw.get("electron", "center_y_nm", float, 0.0),
        prepropagation_fs=raw.get("electron", "prepropagation_fs", float, 0.0),
        prepropagation_axes=raw.get("electron", "prepropagation_axes", str, "xy"),
    )
    laser = LaserParams(
        wavelength_nm=raw.get("laser", "wavelength_nm", float),
        field_v_per_nm=raw.get("laser", "field_v_per_nm", float),
        phase_rad=raw.get("laser", "phase_rad", float, 0.0),
    )
    model = _build_model(raw)
    try:
        grid = Grid2D.centered(
            nx=raw.get("grid", "nx", int), ny=raw.get("grid", "ny", int),
            dx=raw.get("grid", "dx_nm", float), dy=raw.get("grid", "dy_nm", float),
        )
    except DomainError as exc:
        raise ConfigurationError(str(exc)) from exc
    numeric = None
    if "numeric" in raw.sections:
        numeric = NumericSpec(
            window_fs=raw.get("numeric", "window_fs", float),
            dt_fs=raw.get("numeric", "dt_fs", float, None),
            safety=raw.get("numeric", "safety", float, 0.5),
            vector_potential=raw.get("numeric", "vector_potential", _to_bool, True),
            snapshot_stride=raw.get("numeric", "snapshot_stride", int, 50),
        )
    return ScenarioConfig(
        engine=raw.get("scenario", "engine", str, "analytic"),
        electron=electron, laser=laser, model=model, grid=grid,
        numeric=numeric,
        outputs=raw.get("scenario", "outputs", _to_outputs, DEFAULT_OUTPUTS),
    )


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a scenario description."""
    raw = _Raw(text)
    raw.check_schema(("scenario", "electron", "laser", "model", "grid", "numeric"))
    base = None
    preset_name = raw.get("scenario", "preset", str, None)
    if preset_name is not None:
        run = build_preset(preset_name)
        if run.sweep is not None:
            raise ConfigurationError(
                f"preset {preset_name!r} is a sweep; use the sweep command")
        base = run.scenario
    return _build_scenario(raw, base=base)


def parse_sweep_config(text: str) -> SweepSpec:
    """Parse a sweep description: a preset reference or a template plus axis."""
    raw = _Raw(text)
    raw.check_schema(("sweep", "scenario", "electron", "laser", "model",
                      "grid", "numeric"))
    if "sweep" not in raw.sections:
        raise ConfigurationError("missing required section [sweep]")
    preset_name = raw.get("sweep", "preset", str, None)
    if preset_name is not None:
        run = build_preset(preset_name)
        if run.sweep is None:
            raise ConfigurationError(
                f"preset {preset_name!r} is a single scenario, not a sweep")
        spec = run.sweep
        engine = raw.get("sweep", "engine", str, spec.engine)
        values = raw.get("sweep", "values", _to_values, spec.values)
        return replace(spec, engine=engine, values=values)
    axis = raw.get("sweep", "axis", str)
    values = raw.get("sweep", "values", _to_values)
    engine = raw.get("sweep", "engine", str, "analytic")
    template = _build_scenario(raw)
    return SweepSpec(template=template, axis=axis, values=values, engine=engine)


def _to_values(raw: str) -> tuple[float, ...]:
    return tuple(float(s) for s in raw.split(",") if s.strip())


@dataclass(frozen=True)
class PresetRun:
    """Either a single scenario or a sweep."""

    name: str
    scenario: ScenarioConfig | None = None
    sweep: SweepSpec | None = None


def _fig1_scenario(engine: str = "both") -> ScenarioConfig:
    return ScenarioConfig(
        engine=engine,
        electron=ElectronSpec(energy_ev=100.0, fwhm_x_nm=60.0, fwhm_y_nm=20.0),
        laser=LaserParams(wavelength_nm=2000.0, field_v_per_nm=0.2),
        model=WireModel(radius_nm=10.0, response=0.5),
        grid=Grid2D.centered(2048, 1024, 0.25, 0.25),
        numeric=NumericSpec(window_fs=60.0, safety=0.9),
    )


def _fig2_sweep() -> SweepSpec:
    template = ScenarioConfig(
        engine="analytic",
        electron=ElectronSpec(energy_ev=100.0, fwhm_x_nm=500.0, fwhm_y_nm=20.0),
        laser=LaserParams(wavelength_nm=2000.0, field_v_per_nm=0.5),
        model=WireModel(radius_nm=10.0, response=0.5),
        grid=Grid2D.centered(8192, 256, 0.5, 0.5),
    )
    base = np.geomspace(50.0, 10000.0, 40)
    values = tuple(sorted(set(float(v) for v in base) | {100.0, 650.0}))
    return SweepSpec(template=template, axis="energy_ev", values=values)


def _fig3_sweep() -> SweepSpec:
    # Transverse width tied to the wire diameter; the fig-1 drive amplitude
    # keeps the scan out of fully saturated multiphoton coupling so the
    # optimum radius is visible in the ground-state depletion.  Radii are
    # dense around the coupling optimum and resume past the first
    # transit-recurrence band (21..29 nm), inside which the coupling maximum
    # leaves the wire surface and no single transverse scale exists.
    template = ScenarioConfig(
        engine="analytic",
        electron=ElectronSpec(energy_ev=100.0, fwhm_x_nm=60.0,
                              fwhm_y_radius_scale=2.0),
        laser=LaserParams(wavelength_nm=2000.0, field_v_per_nm=0.2),
        model=WireModel(radius_nm=10.0, response=0.5),
        grid=Grid2D.centered(2048, 1024, 0.25, 0.5),
    )
    values = tuple(float(v) for v in
                   list(range(2, 17)) + [18, 20] + list(range(30, 42, 2)))
    return SweepSpec(template=template, axis="radius_nm", values=values)


def _fig4_scenario(chirped: bool) -> ScenarioConfig:
    energy_ev = 100.0
    temporal_fwhm_fs = 20.0
    bandwidth_ev = 2.0
    _, v0 = electron_kinematics(energy_ev)
    if chirped:
        electron = ElectronSpec(
            energy_ev=energy_ev,
            bandwidth_ev=bandwidth_ev,
            fwhm_y_nm=5.0,
            prepropagation_fs=chirp_flight_time(
                bandwidth_ev, energy_ev, temporal_fwhm_fs),
            prepropagation_axes="x",
        )
    else:
        electron = ElectronSpec(
            energy_ev=energy_ev,
            fwhm_x_nm=v0 * temporal_fwhm_fs,
            fwhm_y_nm=5.0,
        )
    model = GapResonatorModel(separation_nm=23.0, smoothing_fwhm_nm=13.0,
                              peak_field_v_per_nm=0.5)
    # The in-gap amplitude is fixed by calibration; the nominal incident field
    # is the calibrated peak divided by a typical enhancement of 20.
    laser = LaserParams(wavelength_nm=2000.0,
                        field_v_per_nm=model.peak_field_v_per_nm / 20.0)
    return ScenarioConfig(
        engine="analytic",
        electron=electron,
        laser=laser,
        model=model,
        grid=Grid2D.centered(2048, 1024, 0.25, 0.25),
    )


PRESET_NAMES = ("fig1", "fig2", "fig3", "fig4-limited", "fig4-chirped")


def build_preset(name: str) -> PresetRun:
    """Materialize a preset by name; raises ConfigurationError if unknown."""
    if name == "fig1":
        return PresetRun(name=name, scenario=_fig1_scenario())
    if name == "fig2":
        return PresetRun(name=name, sweep=_fig2_sweep())
    if name == "fig3":
        return PresetRun(name=name, sweep=_fig3_sweep())
    if name == "fig4-limited":
        return PresetRun(name=name, scenario=_fig4_scenario(chirped=False))
    if name == "fig4-chirped":
        return PresetRun(name=name, scenario=_fig4_scenario(chirped=True))
    raise ConfigurationError(
        f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
