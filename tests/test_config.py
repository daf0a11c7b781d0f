"""Config parsing, serialization round-trips, presets."""

import dataclasses
import inspect
import math
import re
from dataclasses import replace
from pathlib import Path

import pytest

from nediff import config
from nediff.config import (PRESET_NAMES, ElectronSpec, ScenarioConfig,
                           SweepSpec, build_preset, parse_config,
                           parse_sweep_config, serialize_config)
from nediff.core import Grid2D, bandwidth_to_fwhm_x, chirp_flight_time
from nediff.errors import ConfigurationError
from nediff.nearfield import GapResonatorModel, LaserParams, WireModel
from nediff.numeric import NumericSpec
from nediff.units import electron_kinematics

MINIMAL = """
[scenario]
engine = analytic

[electron]
energy_ev = 100.0
fwhm_x_nm = 60.0
fwhm_y_nm = 20.0

[laser]
wavelength_nm = 2000.0
field_v_per_nm = 0.2

[model]
type = wire
radius_nm = 10.0

[grid]
nx = 512
ny = 256
dx_nm = 0.5
dy_nm = 0.5
"""


def test_parse_minimal():
    cfg = parse_config(MINIMAL)
    assert cfg.engine == "analytic"
    assert cfg.electron.energy_ev == 100.0
    assert cfg.model.response == 0.5  # default echoed
    assert cfg.laser.phase_rad == 0.0
    assert cfg.grid.nx == 512


def test_round_trip_exact():
    cfg = parse_config(MINIMAL)
    assert parse_config(serialize_config(cfg)) == cfg


def test_round_trip_gap_and_stripe():
    gap_cfg = ScenarioConfig(
        engine="analytic",
        electron=ElectronSpec(energy_ev=100.0, bandwidth_ev=2.0, fwhm_y_nm=5.0,
                              prepropagation_fs=1997.5, prepropagation_axes="x"),
        laser=LaserParams(wavelength_nm=2000.0, field_v_per_nm=0.025),
        model=GapResonatorModel(separation_nm=23.0, smoothing_fwhm_nm=13.0,
                                peak_field_v_per_nm=0.5),
        grid=Grid2D.centered(512, 256, 0.5, 0.5),
    )
    assert parse_config(serialize_config(gap_cfg)) == gap_cfg


def test_readme_example_config_round_trips():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    cfg = parse_config(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
    assert parse_config(serialize_config(cfg)) == cfg


def test_missing_section_names_it():
    text = MINIMAL.replace("[laser]", "[laserx]")
    with pytest.raises(ConfigurationError, match=r"laser"):
        parse_config(text)


def test_unknown_key_reports_line():
    text = MINIMAL + "\n[numeric]\nwindow_fs = 10.0\nbogus_key = 1\n"
    with pytest.raises(ConfigurationError, match=r"bogus_key.*line \d+"):
        parse_config(text)


def test_both_longitudinal_specs_rejected():
    text = MINIMAL.replace("fwhm_x_nm = 60.0", "fwhm_x_nm = 60.0\nbandwidth_ev = 2.0")
    with pytest.raises(ConfigurationError, match="exactly one"):
        parse_config(text)


def test_numeric_engine_requires_numeric_section():
    text = MINIMAL.replace("engine = analytic", "engine = both")
    with pytest.raises(ConfigurationError, match="numeric"):
        parse_config(text)


def test_invalid_value_diagnostics():
    text = MINIMAL.replace("energy_ev = 100.0", "energy_ev = fast")
    with pytest.raises(ConfigurationError, match="energy_ev"):
        parse_config(text)


def test_model_key_crosstalk_rejected():
    text = MINIMAL.replace("radius_nm = 10.0", "radius_nm = 10.0\nseparation_nm = 23.0")
    with pytest.raises(ConfigurationError, match="separation_nm"):
        parse_config(text)


def test_preset_reference_gives_fig1_parameters():
    cfg = parse_config("[scenario]\npreset = fig1\n")
    assert cfg.electron.energy_ev == 100.0
    assert cfg.electron.fwhm_x_nm == 60.0
    assert cfg.electron.fwhm_y_nm == 20.0
    assert cfg.laser.wavelength_nm == 2000.0
    assert cfg.laser.field_v_per_nm == 0.2
    assert cfg.model.radius_nm == 10.0
    assert cfg.model.response == 0.5
    assert (cfg.grid.nx, cfg.grid.ny) == (2048, 1024)
    assert (cfg.grid.dx, cfg.grid.dy) == (0.25, 0.25)
    assert cfg.numeric.window_fs == 60.0


def test_preset_reference_with_override():
    cfg = parse_config("[scenario]\npreset = fig1\nengine = analytic\n"
                       "\n[laser]\nfield_v_per_nm = 0.1\n")
    assert cfg.engine == "analytic"
    assert cfg.laser.field_v_per_nm == 0.1
    assert cfg.laser.wavelength_nm == 2000.0


def test_sweep_preset_in_run_config_rejected():
    with pytest.raises(ConfigurationError, match="sweep"):
        parse_config("[scenario]\npreset = fig2\n")


#: A sweep template: a sweep's engine is its [sweep] engine.
SWEEP_TEMPLATE = MINIMAL.replace("engine = analytic\n", "")


def test_parse_sweep_config_explicit():
    text = SWEEP_TEMPLATE + "\n[sweep]\naxis = radius_nm\nvalues = 5,10,20\n"
    spec = parse_sweep_config(text)
    assert spec.axis == "radius_nm"
    assert spec.values == (5.0, 10.0, 20.0)
    assert spec.engine == "analytic"


def test_parse_sweep_config_preset():
    spec = parse_sweep_config("[sweep]\npreset = fig2\n")
    assert spec.axis == "energy_ev"
    assert len(spec.values) >= 40
    assert 100.0 in spec.values and 650.0 in spec.values


def test_sweep_validation():
    with pytest.raises(ConfigurationError):
        SweepSpec(template=parse_config(MINIMAL), axis="radius_nm",
                  values=(10.0, 5.0))
    with pytest.raises(ConfigurationError):
        SweepSpec(template=parse_config(MINIMAL), axis="bogus",
                  values=(5.0, 10.0))


def test_all_presets_build():
    for name in PRESET_NAMES:
        assert isinstance(build_preset(name), (ScenarioConfig, SweepSpec))
    with pytest.raises(ConfigurationError):
        build_preset("fig9")


def test_fig3_preset_ties_width_to_radius():
    spec = build_preset("fig3")
    assert spec.template.electron.fwhm_y_radius_scale == 2.0
    assert spec.template.electron.fwhm_y_nm is None
    assert spec.axis == "radius_nm"


def test_fig4_presets_rederive_quantities():
    _, v0 = electron_kinematics(100.0)
    limited = build_preset("fig4-limited")
    assert limited.electron.fwhm_x_nm == pytest.approx(v0 * 20.0, rel=1e-12)
    assert limited.model.separation_nm == 23.0
    assert limited.model.smoothing_fwhm_nm == 13.0
    assert limited.model.peak_field_v_per_nm == 0.5
    assert limited.electron.fwhm_y_nm == 5.0
    chirped = build_preset("fig4-chirped")
    assert chirped.electron.bandwidth_ev == 2.0
    assert chirped.electron.prepropagation_fs == pytest.approx(
        chirp_flight_time(2.0, 100.0, 20.0), rel=1e-12)
    assert chirped.electron.prepropagation_fs == pytest.approx(2000.0, rel=0.05)
    assert chirped.electron.prepropagation_axes == "x"


def test_bandwidth_width_identity():
    # FWHM_x * FWHM_k = 4 ln 2 for a transform-limited Gaussian.
    _, v0 = electron_kinematics(100.0)
    from nediff.units import HBAR
    bw = 0.7
    fwhm_x = bandwidth_to_fwhm_x(bw, 100.0)
    assert fwhm_x * (bw / (HBAR * v0)) == pytest.approx(4.0 * math.log(2.0),
                                                        rel=1e-12)


def test_engine_validation():
    with pytest.raises(ConfigurationError):
        ScenarioConfig(
            engine="magic",
            electron=ElectronSpec(energy_ev=100.0, fwhm_x_nm=60.0, fwhm_y_nm=20.0),
            laser=LaserParams(wavelength_nm=2000.0, field_v_per_nm=0.2),
            model=WireModel(radius_nm=10.0),
            grid=Grid2D.centered(512, 256, 0.5, 0.5),
        )


def test_radius_scale_requires_wire():
    with pytest.raises(ConfigurationError):
        ScenarioConfig(
            engine="analytic",
            electron=ElectronSpec(energy_ev=100.0, fwhm_x_nm=60.0,
                                  fwhm_y_radius_scale=2.0),
            laser=LaserParams(wavelength_nm=2000.0, field_v_per_nm=0.2),
            model=GapResonatorModel(separation_nm=23.0, smoothing_fwhm_nm=13.0,
                                    peak_field_v_per_nm=0.5),
            grid=Grid2D.centered(512, 256, 0.5, 0.5),
        )


def test_numeric_spec_validation():
    with pytest.raises(ConfigurationError):
        NumericSpec(window_fs=-1.0)
    with pytest.raises(ConfigurationError):
        NumericSpec(window_fs=10.0, safety=1.5)
    with pytest.raises(ConfigurationError):
        NumericSpec(window_fs=10.0, snapshot_stride=0)


def test_schema_keys_are_the_dataclass_fields():
    # [electron], [laser] and [numeric] keys are the init fields, both ways.
    for section, cls in (("electron", ElectronSpec), ("laser", LaserParams),
                         ("numeric", NumericSpec)):
        fields = [f.name for f in dataclasses.fields(cls) if f.init]
        assert list(config._KEYS[section]) == fields, section
    grid_params = inspect.signature(Grid2D.centered).parameters
    assert [config._GRID.get(k, k) for k in config._KEYS["grid"]] == list(grid_params)
    # Every model init field has a key, except the calibration products.
    for mtype, (cls, attrs) in config._MODELS.items():
        named = {a[0] if isinstance(a, tuple) else a for a in attrs.values()}
        fields = {f.name for f in dataclasses.fields(cls) if f.init}
        assert named == fields - {"moment", "peak_potential_v"}, mtype
        assert set(attrs) <= set(config._KEYS["model"])


def test_absent_keys_take_the_dataclass_defaults():
    assert parse_config(MINIMAL) == ScenarioConfig(
        electron=ElectronSpec(energy_ev=100.0, fwhm_x_nm=60.0, fwhm_y_nm=20.0),
        laser=LaserParams(wavelength_nm=2000.0, field_v_per_nm=0.2),
        model=WireModel(radius_nm=10.0),
        grid=Grid2D.centered(512, 256, 0.5, 0.5),
    )


def test_partial_model_center_keeps_the_other_coordinate_default():
    cfg = parse_config(MINIMAL.replace("radius_nm = 10.0",
                                       "radius_nm = 10.0\ncenter_y_nm = 3.0"))
    assert cfg.model.center == (0.0, 3.0)


def test_missing_required_key_names_it():
    with pytest.raises(ConfigurationError,
                       match=r"missing key 'radius_nm' in section \[model\]"):
        parse_config(MINIMAL.replace("radius_nm = 10.0\n", ""))
    with pytest.raises(ConfigurationError,
                       match=r"missing key 'dy_nm' in section \[grid\]"):
        parse_config(MINIMAL.replace("dy_nm = 0.5\n", ""))


def _line_number(text, needle):
    return text.splitlines().index(needle) + 1


def test_invalid_value_line_is_inside_its_section():
    text = MINIMAL.replace("fwhm_y_nm = 20.0", "fwhm_y_nm = 20.0\ncenter_x_nm = 1.0")
    text = text.replace("radius_nm = 10.0", "radius_nm = 10.0\ncenter_x_nm = abc")
    line = _line_number(text, "center_x_nm = abc")
    with pytest.raises(ConfigurationError, match=rf"\[model\] center_x_nm .*\(line {line}\)"):
        parse_config(text)


@pytest.mark.parametrize("key, value", [
    ("wavelength_nm", "inf"), ("field_v_per_nm", "nan"), ("energy_ev", "-inf"),
    ("radius_nm", "nan"), ("dx_nm", "inf"),
])
def test_non_finite_number_is_rejected_with_its_line(key, value):
    text = re.sub(rf"^{key} = .*$", f"{key} = {value}", MINIMAL, flags=re.M)
    line = _line_number(text, f"{key} = {value}")
    with pytest.raises(ConfigurationError,
                       match=rf"{key} = '{value}' \(line {line}\): not a finite"):
        parse_config(text)


def test_non_finite_sweep_value_is_rejected():
    text = MINIMAL + "\n[sweep]\naxis = radius_nm\nvalues = 5,nan,20\n"
    with pytest.raises(ConfigurationError, match="values = '5,nan,20'"):
        parse_sweep_config(text)


def test_unknown_key_line_is_inside_its_section():
    text = MINIMAL + "\n[numeric]\nwindow_fs = 10.0\nradius_nm = 3.0\n"
    line = _line_number(text, "radius_nm = 3.0")
    with pytest.raises(ConfigurationError,
                       match=rf"'radius_nm' in section \[numeric\] \(line {line}\)"):
        parse_config(text)


def test_sweep_preset_applies_section_overlays():
    spec = parse_sweep_config("[sweep]\npreset = fig2\nengine = analytic\n"
                              "\n[laser]\nfield_v_per_nm = 0.01\n"
                              "\n[grid]\nnx = 64\n")
    assert spec.template.laser.field_v_per_nm == 0.01
    assert spec.template.grid.nx == 64
    preset = build_preset("fig2")
    assert spec.axis == "energy_ev"
    assert spec.values == preset.values
    assert spec.template.grid.ny == preset.template.grid.ny


def test_sweep_preset_without_overlays_keeps_its_template():
    assert parse_sweep_config("[sweep]\npreset = fig3\n") == build_preset("fig3")


def test_sweep_preset_rejects_axis():
    with pytest.raises(ConfigurationError, match="axis"):
        parse_sweep_config("[sweep]\npreset = fig2\naxis = radius_nm\n")


@pytest.mark.parametrize("engine", ["magic", "numeric", "both"])
def test_sweep_engine_is_validated_against_the_template(engine):
    with pytest.raises(ConfigurationError, match="engine"):
        parse_sweep_config(f"[sweep]\npreset = fig3\nengine = {engine}\n")
    with pytest.raises(ConfigurationError, match="engine"):
        parse_sweep_config(SWEEP_TEMPLATE + f"\n[sweep]\naxis = radius_nm\n"
                           f"values = 5,10\nengine = {engine}\n")


def test_sweep_rejects_the_both_engine():
    # A point reports one engine's metrics, so a `both` sweep would run the
    # numeric engine on every point for nothing, [numeric] section or not.
    text = (SWEEP_TEMPLATE + "\n[numeric]\nwindow_fs = 10.0\n"
            "\n[sweep]\naxis = radius_nm\nvalues = 5,10\nengine = both\n")
    message = r"sweep engine must be one of \('analytic', 'numeric'\), got 'both'"
    with pytest.raises(ConfigurationError, match=message):
        parse_sweep_config(text)
    spec = parse_sweep_config(text.replace("engine = both", "engine = numeric"))
    with pytest.raises(ConfigurationError, match=message):
        dataclasses.replace(spec, engine="both")


def test_sweep_preset_numeric_engine_with_numeric_overlay():
    spec = parse_sweep_config("[sweep]\npreset = fig3\nengine = numeric\n"
                              "\n[numeric]\nwindow_fs = 10.0\n")
    assert spec.engine == "numeric"
    assert spec.template.numeric == NumericSpec(window_fs=10.0)


def test_sweep_template_from_scenario_preset():
    spec = parse_sweep_config("[scenario]\npreset = fig1\n"
                              "\n[sweep]\naxis = radius_nm\nvalues = 5,10\n")
    assert spec.template == dataclasses.replace(build_preset("fig1"),
                                                engine="analytic")
    with pytest.raises(ConfigurationError, match="preset"):
        parse_sweep_config("[scenario]\npreset = fig1\n"
                           "\n[sweep]\npreset = fig2\n")


@pytest.mark.parametrize("text", [
    MINIMAL + "\n[sweep]\naxis = radius_nm\nvalues = 5,10\n",
    "[scenario]\nengine = analytic\n\n[sweep]\npreset = fig2\n",
], ids=["template", "preset"])
def test_scenario_engine_in_a_sweep_is_rejected(text):
    line = _line_number(text, "engine = analytic")
    with pytest.raises(ConfigurationError,
                       match=rf"\[sweep\] engine; remove \[scenario\] engine "
                             rf"\(line {line}\)"):
        parse_sweep_config(text)


def test_default_section_is_an_unknown_section():
    with pytest.raises(ConfigurationError, match=r"unknown section \[DEFAULT\]"):
        parse_config("[DEFAULT]\nphase_rad = 1.0\n" + MINIMAL)


GAP_MODEL = """
[model]
type = gap
separation_nm = 23.0
smoothing_fwhm_nm = 13.0
peak_field_v_per_nm = 0.5
"""


def test_preset_overlay_of_another_model_type_replaces_the_model():
    cfg = parse_config("[scenario]\npreset = fig1\n" + GAP_MODEL)
    assert cfg.model == GapResonatorModel(separation_nm=23.0,
                                          smoothing_fwhm_nm=13.0,
                                          peak_field_v_per_nm=0.5)
    assert cfg.electron == build_preset("fig1").electron


def test_preset_overlay_of_the_same_model_type_is_key_by_key():
    cfg = parse_config("[scenario]\npreset = fig1\n"
                       "\n[model]\ntype = wire\ncenter_y_nm = 3.0\n")
    assert cfg.model == WireModel(radius_nm=10.0, response=0.5,
                                  center=(0.0, 3.0))


def test_preset_overlay_width_key_replaces_its_alternative():
    cfg = parse_config("[scenario]\npreset = fig4-chirped\n"
                       "\n[electron]\nfwhm_x_nm = 300.0\n")
    assert cfg.electron.fwhm_x_nm == 300.0
    assert cfg.electron.bandwidth_ev is None
    assert cfg.electron.fwhm_y_nm == build_preset("fig4-chirped").electron.fwhm_y_nm


def test_radius_sweep_preset_on_a_gap_model_is_rejected():
    # fig3 ties the transverse width to the radius, so the gap model alone
    # fails that tie; with a fixed width it reaches the axis check.
    with pytest.raises(ConfigurationError, match="requires a wire model"):
        parse_sweep_config("[sweep]\npreset = fig3\n" + GAP_MODEL)
    with pytest.raises(ConfigurationError,
                       match="axis radius_nm does not apply to GapResonatorModel"):
        parse_sweep_config("[sweep]\npreset = fig3\n" + GAP_MODEL
                           + "\n[electron]\nfwhm_y_nm = 20.0\n")


@pytest.mark.parametrize("model", [
    GapResonatorModel(separation_nm=23.0, smoothing_fwhm_nm=13.0,
                      peak_field_v_per_nm=0.5),
], ids=["gap"])
def test_radius_axis_needs_a_model_with_a_radius(model):
    template = dataclasses.replace(parse_config(MINIMAL), model=model)
    with pytest.raises(ConfigurationError, match="radius_nm does not apply"):
        SweepSpec(template=template, axis="radius_nm", values=(5.0, 10.0))
    SweepSpec(template=template, axis="energy_ev", values=(0.1, 0.2))


@pytest.mark.parametrize("model", [
    GapResonatorModel(separation_nm=23.0, smoothing_fwhm_nm=13.0,
                      peak_field_v_per_nm=0.5),
], ids=["gap"])
def test_field_axis_needs_a_model_that_reads_the_field(model):
    template = dataclasses.replace(parse_config(MINIMAL), model=model)
    with pytest.raises(ConfigurationError,
                       match="field_v_per_nm does not apply to "
                             + type(model).__name__):
        SweepSpec(template=template, axis="field_v_per_nm", values=(0.1, 0.2))
    SweepSpec(template=parse_config(MINIMAL), axis="field_v_per_nm",
              values=(0.1, 0.2))


@pytest.mark.parametrize("axis", list(config.SWEEP_AXES))
def test_point_sets_only_its_axis_and_the_sweep_engine(axis):
    template = parse_config(MINIMAL.replace("engine = analytic", "engine = both")
                            + "\n[numeric]\nwindow_fs = 10.0\n")
    spec = SweepSpec(template=template, axis=axis, values=(0.25, 0.5))
    assert spec.template == dataclasses.replace(template, engine="analytic")
    cfg = spec.point(0.5)
    field = config.SWEEP_AXES[axis]
    assert getattr(getattr(cfg, field), axis) == 0.5
    assert getattr(getattr(template, field), axis) != 0.5
    assert cfg.engine == "analytic"
    restored = dataclasses.replace(cfg, **{field: getattr(template, field)})
    assert restored == dataclasses.replace(template, engine="analytic")


def test_absent_outputs_mean_the_engines_own_kinds():
    cfg = parse_config(MINIMAL)
    assert cfg.outputs is None
    assert "outputs" not in serialize_config(cfg)
    assert cfg.resolve_outputs().outputs == (
        "grids", "density", "crosscuts", "populations", "profile", "summary")
    numeric = replace(cfg, engine="numeric", numeric=NumericSpec(window_fs=3.0))
    assert numeric.resolve_outputs().outputs == (
        "grids", "density", "crosscuts", "populations", "profile", "trace",
        "summary")
    both = replace(numeric, engine="both")
    assert both.resolve_outputs().outputs == tuple(
        k for k in config.OUTPUT_KINDS if k != "snapshots")
    # A preset's engine does not fix the outputs of an override.
    fig1 = parse_config("[scenario]\npreset = fig1\nengine = analytic\n")
    assert fig1.resolve_outputs().outputs == cfg.resolve_outputs().outputs


@pytest.mark.parametrize("engine, kinds", [
    ("analytic", ("summary", "trace")), ("analytic", ("compare",)),
    ("analytic", ("snapshots",)), ("numeric", ("grids", "compare")),
])
def test_listed_outputs_the_engine_cannot_produce_are_rejected(engine, kinds):
    cfg = replace(parse_config(MINIMAL), engine=engine, outputs=kinds,
                  numeric=NumericSpec(window_fs=3.0))
    missing = ",".join(k for k in kinds if k != "summary" and k != "grids")
    with pytest.raises(ConfigurationError,
                       match=f"the {engine} engine cannot produce the output "
                             f"kinds {missing}:"):
        cfg.resolve_outputs()
    # Listing the kinds alone is no error: the engine may still change.
    assert parse_config(serialize_config(cfg)) == cfg


def test_listed_outputs_the_engine_produces_are_kept():
    cfg = replace(parse_config(MINIMAL), engine="both",
                  numeric=NumericSpec(window_fs=3.0), outputs=("compare", "trace"))
    assert cfg.resolve_outputs() is cfg
