"""Declarative scenario configuration: strict parsing, exact round-trips, presets.

The on-disk format is a sectioned key-value text with units spelled out in
the key names (wavelength_nm, field_v_per_nm, ...) so unit mistakes are
syntactically visible.  `_KEYS` and `_MODELS` declare it once: parsing,
serialization and the unknown-key check all read them, and every default
lives in its dataclass.  Unknown sections or keys are rejected with the key
path and line number; serializing a config echoes every resolved value.

The figure presets re-derive every dependent quantity (k0, v0, delta_k,
widths, free flight times) from primitive parameters at build time; nothing
derived is hard-coded.  A preset is a plain ScenarioConfig or SweepSpec.
"""

from __future__ import annotations

import configparser
import inspect
import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .core import Grid2D, chirp_flight_time
from .errors import ConfigurationError, DomainError
from .nearfield import GapResonatorModel, LaserParams, NearFieldModel, WireModel
from .numeric import NumericSpec
from .units import electron_kinematics

ENGINES = ("analytic", "numeric", "both")
SWEEP_ENGINES = ("analytic", "numeric")
OUTPUT_KINDS = ("grids", "density", "crosscuts", "populations", "profile",
                "trace", "compare", "summary", "snapshots")
#: The output kinds each engine can produce: trace and snapshots need the
#: numeric engine, compare needs both.
ENGINE_OUTPUTS = {
    "analytic": tuple(k for k in OUTPUT_KINDS
                      if k not in ("trace", "compare", "snapshots")),
    "numeric": tuple(k for k in OUTPUT_KINDS if k != "compare"),
    "both": OUTPUT_KINDS,
}
#: Each sweep axis and the ScenarioConfig field that carries it.
SWEEP_AXES = {"energy_ev": "electron", "radius_nm": "model",
              "field_v_per_nm": "laser"}
#: Pairs of [electron] keys of which exactly one is given.
WIDTH_ALTERNATIVES = (("fwhm_x_nm", "bandwidth_ev"),
                      ("fwhm_y_nm", "fwhm_y_radius_scale"))


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
        for a, b in WIDTH_ALTERNATIVES:
            if (getattr(self, a) is None) == (getattr(self, b) is None):
                raise ConfigurationError(f"exactly one of electron.{a} and "
                                         f"electron.{b} must be given")
        for name in sum(WIDTH_ALTERNATIVES, ()):
            v = getattr(self, name)
            if v is not None and not v > 0.0:
                raise ConfigurationError(f"electron.{name} must be positive")
        if self.prepropagation_fs < 0.0:
            raise ConfigurationError("electron.prepropagation_fs must be >= 0")
        if self.prepropagation_axes not in ("xy", "x"):
            raise ConfigurationError(
                "electron.prepropagation_axes must be 'xy' or 'x'")


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully resolved simulation run, apart from its outputs.

    outputs None, an absent `outputs` key, means the engine's own kinds
    apart from the bulky per-step snapshots; `resolve_outputs` settles the
    outputs once the engine is final.
    """

    electron: ElectronSpec
    laser: LaserParams
    model: NearFieldModel
    grid: Grid2D
    engine: str = "analytic"
    numeric: NumericSpec | None = None
    outputs: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"engine must be one of {ENGINES}, got {self.engine!r}")
        for kind in self.outputs or ():
            if kind not in OUTPUT_KINDS:
                raise ConfigurationError(f"unknown output kind {kind!r}")
        if self.engine in ("numeric", "both") and self.numeric is None:
            raise ConfigurationError(
                "the numeric engine requires a [numeric] section")
        if self.electron.fwhm_y_radius_scale is not None and not isinstance(
                self.model, WireModel):
            raise ConfigurationError(
                "electron.fwhm_y_radius_scale requires a wire model")

    def resolve_outputs(self) -> "ScenarioConfig":
        """This config with the output kinds its run writes.

        Absent outputs become the engine's own kinds except snapshots; a
        listed kind that the engine cannot produce is a ConfigurationError.
        """
        own = ENGINE_OUTPUTS[self.engine]
        if self.outputs is None:
            return replace(self, outputs=tuple(k for k in own if k != "snapshots"))
        missing = [k for k in self.outputs if k not in own]
        if missing:
            raise ConfigurationError(
                f"the {self.engine} engine cannot produce the output kinds "
                f"{','.join(missing)}: trace and snapshots need the numeric "
                f"engine, compare needs both")
        return self


@dataclass(frozen=True)
class SweepSpec:
    """A scenario template plus the parameter axis to scan.

    Points write no artifacts, so the template's outputs are neither used
    nor checked against the engine; template.txt echoes them as given.
    """

    template: ScenarioConfig
    axis: str
    values: tuple[float, ...]
    engine: str = "analytic"

    def __post_init__(self):
        # A point reports one engine's metrics, so `both` would run the
        # numeric engine for nothing.
        if self.engine not in SWEEP_ENGINES:
            raise ConfigurationError(
                f"sweep engine must be one of {SWEEP_ENGINES}, got {self.engine!r}")
        if self.axis not in SWEEP_AXES:
            raise ConfigurationError(
                f"sweep axis must be one of {tuple(SWEEP_AXES)}, got {self.axis!r}")
        part = getattr(self.template, SWEEP_AXES[self.axis])
        if not hasattr(part, self.axis):
            raise ConfigurationError(f"sweep axis {self.axis} does not apply "
                                     f"to {type(part).__name__}")
        # Only the wire's potential scales with the laser field: the gap is
        # calibrated to its own peak field.
        model = self.template.model
        if self.axis == "field_v_per_nm" and not isinstance(model, WireModel):
            raise ConfigurationError(f"sweep axis {self.axis} does not apply "
                                     f"to {type(model).__name__}")
        if len(self.values) < 2:
            raise ConfigurationError("a sweep needs at least two values")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ConfigurationError("sweep values must be strictly increasing")
        # The template runs on the sweep engine, so that its serialization
        # records the engine every point runs.
        object.__setattr__(self, "template",
                           replace(self.template, engine=self.engine))

    def point(self, value: float) -> ScenarioConfig:
        """The template with the axis set to value."""
        field = SWEEP_AXES[self.axis]
        part = replace(getattr(self.template, field), **{self.axis: value})
        return replace(self.template, **{field: part})


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _to_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _to_names(raw: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in raw.split(",") if s.strip())


def _to_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _to_values(raw: str) -> tuple[float, ...]:
    return tuple(_to_float(s) for s in raw.split(",") if s.strip())


_CENTER = {"center_x_nm": ("center", 0), "center_y_nm": ("center", 1)}

#: Model type -> (class, {key: attribute}) in file order; an attribute
#: ("center", i) is item i of the model's center.
_MODELS = {
    "wire": (WireModel, {"radius_nm": "radius_nm", "response": "response",
                         **_CENTER}),
    "gap": (GapResonatorModel, {"separation_nm": "separation_nm",
                                "smoothing_fwhm_nm": "smoothing_fwhm_nm",
                                "peak_field_v_per_nm": "peak_field_v_per_nm",
                                **_CENTER}),
}

#: [grid] keys whose Grid2D.centered parameter has another name.
_GRID = {"dx_nm": "dx", "dy_nm": "dy"}

#: The file format: each section's keys in file order, with their converters.
#: [electron], [laser] and [numeric] keys are the fields of their dataclass.
_KEYS = {
    "scenario": {"preset": str, "engine": str, "outputs": _to_names},
    "electron": {"energy_ev": _to_float, "fwhm_x_nm": _to_float,
                 "bandwidth_ev": _to_float, "fwhm_y_nm": _to_float,
                 "fwhm_y_radius_scale": _to_float, "center_x_nm": _to_float,
                 "center_y_nm": _to_float, "prepropagation_fs": _to_float,
                 "prepropagation_axes": str},
    "laser": {"wavelength_nm": _to_float, "field_v_per_nm": _to_float,
              "phase_rad": _to_float},
    "model": {"type": str, **{key: _to_float for _, attrs in _MODELS.values()
                              for key in attrs}},
    "grid": {"nx": int, "ny": int, "dx_nm": _to_float, "dy_nm": _to_float},
    "numeric": {"window_fs": _to_float, "dt_fs": _to_float, "safety": _to_float,
                "vector_potential": _to_bool, "snapshot_stride": int},
    "sweep": {"preset": str, "axis": str, "values": _to_values, "engine": str},
}

_SCENARIO_SECTIONS = ("scenario", "electron", "laser", "model", "grid", "numeric")


def _get(obj, attr):
    if isinstance(attr, tuple):
        return getattr(obj, attr[0])[attr[1]]
    return getattr(obj, attr)


def _values(obj, keys, attrs=None) -> dict:
    """obj's value for each key in order, None values left out."""
    attrs = attrs or {}
    found = {key: _get(obj, attrs.get(key, key)) for key in keys}
    return {key: v for key, v in found.items() if v is not None}


def _sections(cfg: ScenarioConfig) -> dict[str, dict]:
    """The config as typed key values per section, in file order."""
    mtype = next((t for t, (cls, _) in _MODELS.items()
                  if isinstance(cfg.model, cls)), None)
    if mtype is None:
        raise ConfigurationError(
            f"cannot serialize model {type(cfg.model).__name__}")
    model_attrs = _MODELS[mtype][1]
    sections = {
        "scenario": _values(cfg, ("engine", "outputs")),
        "electron": _values(cfg.electron, _KEYS["electron"]),
        "laser": _values(cfg.laser, _KEYS["laser"]),
        "model": {"type": mtype, **_values(cfg.model, model_attrs, model_attrs)},
        "grid": _values(cfg.grid, _KEYS["grid"], _GRID),
    }
    if cfg.numeric is not None:
        sections["numeric"] = _values(cfg.numeric, _KEYS["numeric"])
    return sections


def serialize_config(cfg: ScenarioConfig) -> str:
    blocks = []
    for name, values in _sections(cfg).items():
        lines = [f"[{name}]"]
        for key, v in values.items():
            text = ",".join(map(_fmt, v)) if isinstance(v, tuple) else _fmt(v)
            lines.append(f"{key} = {text}")
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


def _where(text: str, section: str, key: str) -> str:
    """' (line N)' for the first line setting key inside [section], else ''."""
    current = None
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        header = configparser.ConfigParser.SECTCRE.match(stripped)
        if header:
            current = header.group("header")
        elif current == section and re.match(rf"{re.escape(key)}\s*[=:]", stripped):
            return f" (line {i})"
    return ""


def _read(text: str, allowed_sections) -> dict[str, dict]:
    """Sections of a config text with every value converted by `_KEYS`."""
    # No header can name the empty section, so [DEFAULT] is an ordinary one.
    parser = configparser.ConfigParser(interpolation=None, default_section="",
                                       inline_comment_prefixes=("#",))
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"config syntax error: {exc}") from exc
    sections = {}
    for section in parser.sections():
        if section not in allowed_sections:
            raise ConfigurationError(f"unknown section [{section}]")
        keys = sections[section] = {}
        for key, raw in parser.items(section):
            if key not in _KEYS[section]:
                raise ConfigurationError(f"unknown key {key!r} in section "
                                         f"[{section}]{_where(text, section, key)}")
            try:
                keys[key] = _KEYS[section][key](raw)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"invalid value for [{section}] {key} = {raw!r}"
                    f"{_where(text, section, key)}: {exc}") from exc
    return sections


def _missing(section: str, key: str) -> ConfigurationError:
    return ConfigurationError(f"missing key {key!r} in section [{section}]")


def _construct(factory, section: str, values: dict, attrs=None):
    """Call factory with the keys present; absent keys take its defaults.

    attrs maps a key to its parameter name, or to (name, i) for item i of a
    tuple parameter; other keys are parameter names themselves.
    """
    attrs = attrs or {}
    params = inspect.signature(factory).parameters
    kwargs = {}
    for key, value in values.items():
        attr = attrs.get(key, key)
        if isinstance(attr, tuple):
            attr, i = attr
            items = list(kwargs.get(attr, params[attr].default))
            items[i] = value
            value = tuple(items)
        kwargs[attr] = value
    for name, param in params.items():
        if param.default is param.empty and name not in kwargs:
            raise _missing(section, next(
                (k for k, a in attrs.items() if a == name), name))
    return factory(**kwargs)


def _build_model(values: dict) -> NearFieldModel:
    if "type" not in values:
        raise _missing("model", "type")
    mtype = values["type"]
    if mtype not in _MODELS:
        raise ConfigurationError(
            f"model.type must be one of {tuple(_MODELS)}, got {mtype!r}")
    cls, attrs = _MODELS[mtype]
    given = {k: v for k, v in values.items() if k != "type"}
    stray = set(given) - set(attrs)
    if stray:
        raise ConfigurationError(
            f"keys {sorted(stray)} do not apply to model.type = {mtype}")
    return _construct(cls, "model", given, attrs)


def _build_scenario(sections: dict, base: ScenarioConfig | None = None) -> ScenarioConfig:
    """Build a scenario from parsed sections, laid over a [scenario] preset or base."""
    scenario = dict(sections.get("scenario", {}))
    name = scenario.pop("preset", None)
    if name is not None:
        if base is not None:
            raise ConfigurationError(
                "[scenario] preset cannot be combined with a sweep preset")
        base = build_preset(name)
        if isinstance(base, SweepSpec):
            raise ConfigurationError(
                f"preset {name!r} is a sweep; use the sweep command")
    sections = {**sections, "scenario": scenario}
    if base is not None:
        merged = _sections(base)
        for section, values in sections.items():
            kept = merged.get(section, {})
            # A [model] of another type replaces the base's model, and a
            # width key replaces its alternative.
            if values.get("type", kept.get("type")) != kept.get("type"):
                kept = {}
            for pair in WIDTH_ALTERNATIVES:
                if set(pair) & set(values):
                    kept = {k: v for k, v in kept.items() if k not in pair}
            merged[section] = {**kept, **values}
        sections = merged
    for required in ("electron", "laser", "model", "grid"):
        if required not in sections:
            raise ConfigurationError(f"missing required section [{required}]")
    electron = _construct(ElectronSpec, "electron", sections["electron"])
    laser = _construct(LaserParams, "laser", sections["laser"])
    model = _build_model(sections["model"])
    try:
        grid = _construct(Grid2D.centered, "grid", sections["grid"], _GRID)
    except DomainError as exc:
        raise ConfigurationError(str(exc)) from exc
    numeric = sections.get("numeric")
    if numeric is not None:
        numeric = _construct(NumericSpec, "numeric", numeric)
    return ScenarioConfig(electron=electron, laser=laser, model=model,
                          grid=grid, numeric=numeric, **sections["scenario"])


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a scenario description."""
    return _build_scenario(_read(text, _SCENARIO_SECTIONS))


def parse_sweep_config(text: str) -> SweepSpec:
    """Parse a sweep description: a template plus axis, or a sweep preset with
    section overlays laid over its template."""
    sections = _read(text, ("sweep",) + _SCENARIO_SECTIONS)
    if "sweep" not in sections:
        raise ConfigurationError("missing required section [sweep]")
    if "engine" in sections.get("scenario", {}):
        raise ConfigurationError(
            "a sweep runs on its [sweep] engine; remove [scenario] engine"
            f"{_where(text, 'scenario', 'engine')}")
    sweep = dict(sections["sweep"])
    name = sweep.pop("preset", None)
    if name is None:
        return _construct(SweepSpec, "sweep",
                          {**sweep, "template": _build_scenario(sections)})
    spec = build_preset(name)
    if not isinstance(spec, SweepSpec):
        raise ConfigurationError(
            f"preset {name!r} is a single scenario, not a sweep")
    if "axis" in sweep:
        raise ConfigurationError(
            f"sweep preset {name!r} fixes the axis to {spec.axis}; "
            f"remove [sweep] axis")
    return replace(spec, template=_build_scenario(sections, base=spec.template),
                   **sweep)


def _fig1_scenario() -> ScenarioConfig:
    return ScenarioConfig(
        engine="both",
        electron=ElectronSpec(energy_ev=100.0, fwhm_x_nm=60.0, fwhm_y_nm=20.0),
        laser=LaserParams(wavelength_nm=2000.0, field_v_per_nm=0.2),
        model=WireModel(radius_nm=10.0, response=0.5),
        grid=Grid2D.centered(2048, 1024, 0.25, 0.25),
        numeric=NumericSpec(window_fs=60.0, safety=0.9),
    )


def _fig2_sweep() -> SweepSpec:
    template = ScenarioConfig(
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


_PRESETS = {
    "fig1": _fig1_scenario,
    "fig2": _fig2_sweep,
    "fig3": _fig3_sweep,
    "fig4-limited": lambda: _fig4_scenario(chirped=False),
    "fig4-chirped": lambda: _fig4_scenario(chirped=True),
}
PRESET_NAMES = tuple(_PRESETS)


def build_preset(name: str) -> ScenarioConfig | SweepSpec:
    """Materialize a preset by name; raises ConfigurationError if unknown."""
    if name not in _PRESETS:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return _PRESETS[name]()
