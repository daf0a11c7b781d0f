"""Command line driver: subcommands, exit codes, determinism, formats."""

import numpy as np
import pytest
import scipy.fft

from nediff import cli, errors
from nediff.cli import main
from nediff.core import Grid2D, gaussian_wavepacket
from nediff.gridio import write_grid
from nediff.render import render_heatmap

SMALL_RUN = """
[scenario]
engine = analytic
outputs = grids,density,crosscuts,populations,profile,summary

[electron]
energy_ev = 100.0
fwhm_x_nm = 40.0
fwhm_y_nm = 16.0

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

#: A sweep template: a sweep's engine is its [sweep] engine.
SWEEP_TEMPLATE = SMALL_RUN.replace("engine = analytic\n", "")


@pytest.fixture()
def run_config(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_RUN, encoding="utf-8")
    return path


def test_run_writes_artifacts(run_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(run_config), "--out", str(out)]) == 0
    assert (out / "config.txt").exists()
    assert (out / "profile.csv").exists()
    assert (out / "density_analytic.pgm").exists()
    assert (out / "density_analytic.pgm.txt").exists()
    assert (out / "populations_analytic.csv").exists()
    assert (out / "crosscut_analytic_kx_ky0.csv").exists()
    assert (out / "analytic.grid").exists()


def test_runs_are_byte_identical(run_config, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["run", str(run_config), "--out", str(out1)]) == 0
    assert main(["run", str(run_config), "--out", str(out2)]) == 0
    for name in ("profile.csv", "populations_analytic.csv",
                 "crosscut_analytic_kx_ky0.csv", "density_analytic.pgm",
                 "analytic.grid", "config.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_no_subcommand_exits_one(capsys):
    assert main([]) == 1


def test_missing_config_exits_one(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 1


def test_invalid_config_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(SMALL_RUN.replace("[laser]", "[nonsense]"), encoding="utf-8")
    assert main(["run", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_compare_grids(run_config, tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", str(run_config), "--out", str(out)])
    code = main(["compare", str(out / "initial.grid"), str(out / "analytic.grid")])
    assert code == 0
    text = capsys.readouterr().out
    assert "relative_l2_momentum_density" in text
    assert "max_abs_field_diff" in text


@pytest.mark.parametrize("grid_b, energy_b", [
    (Grid2D.centered(32, 32, 0.5, 0.5), 100.0),
    (Grid2D.centered(64, 32, 0.25, 0.5), 100.0),
    (Grid2D.centered(64, 32, 0.5, 0.5), 400.0),
], ids=["shape", "spacing", "energy"])
def test_compare_shape_mismatch(tmp_path, capsys, grid_b, energy_b):
    # Dumps on different axes or at different energies have no cell-by-cell
    # comparison, even when their shapes agree.
    g1 = gaussian_wavepacket(Grid2D.centered(64, 32, 0.5, 0.5), 100.0, 8.0, 4.0)
    g2 = gaussian_wavepacket(grid_b, energy_b, 4.0, 4.0)
    write_grid(tmp_path / "a.grid", g1)
    write_grid(tmp_path / "b.grid", g2)
    assert main(["compare", str(tmp_path / "a.grid"), str(tmp_path / "b.grid")]) == 1
    assert "different axes" in capsys.readouterr().err


def test_render_constant_field_is_mid_gray(tmp_path):
    grid = Grid2D.centered(32, 16, 0.5, 0.5)
    amps = np.full((16, 32), 0.5 + 0.0j)
    from nediff.core import Wavepacket
    psi = Wavepacket(grid=grid, amplitudes=amps, t=0.0, k0=51.0)
    write_grid(tmp_path / "c.grid", psi)
    out = tmp_path / "c.pgm"
    assert main(["render", str(tmp_path / "c.grid"), "--out", str(out)]) == 0
    blob = out.read_bytes()
    header, pixels = blob.split(b"65535\n", 1)
    assert header == b"P5\n32 16\n"
    data = np.frombuffer(pixels, dtype=">u2")
    assert data.shape == (512,)
    assert np.all(data == 32768)
    sidecar = (tmp_path / "c.pgm.txt").read_text()
    assert "colormap: linear" in sidecar


def test_render_log_floor(tmp_path):
    values = np.array([[0.0, 1e-12, 1.0], [1e-3, 1e-6, 0.5]])
    path = tmp_path / "x.pgm"
    render_heatmap(values, path, colormap="log", clip=1e-6)
    data = np.frombuffer(path.read_bytes().split(b"65535\n", 1)[1], dtype=">u2")
    img = data.reshape(2, 3)[::-1]  # undo the top-row flip
    assert img[0, 0] == 0          # clipped to the floor
    assert img[0, 1] == 0          # below the floor clips to the floor
    assert img[0, 2] == 65535      # maximum maps to white
    assert img[1, 1] == 0          # exactly at the floor


def test_render_all_zero_warns(tmp_path):
    with pytest.warns(UserWarning, match="all-zero"):
        render_heatmap(np.zeros((4, 4)), tmp_path / "z.pgm")
    data = np.frombuffer((tmp_path / "z.pgm").read_bytes().split(b"65535\n", 1)[1],
                         dtype=">u2")
    assert np.all(data == 0)


def test_render_rejects_bad_args(tmp_path):
    from nediff.errors import DomainError
    with pytest.raises(DomainError):
        render_heatmap(np.ones((4, 4)), tmp_path / "x.pgm", colormap="jet")
    with pytest.raises(DomainError):
        render_heatmap(np.ones((4, 4)), tmp_path / "x.pgm", clip=2.0)
    with pytest.raises(DomainError):
        render_heatmap(np.full((4, 4), np.nan), tmp_path / "x.pgm")


def test_sweep_cli(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_TEMPLATE + "\n[sweep]\naxis = radius_nm\nvalues = 6,10,14\n",
                   encoding="utf-8")
    out = tmp_path / "sw"
    assert main(["sweep", str(cfg), "--out", str(out), "--threads", "1"]) == 0
    csv_path = out / "sweep.csv"
    assert csv_path.exists()
    first = csv_path.read_bytes()
    assert main(["sweep", str(cfg), "--out", str(out), "--threads", "1"]) == 0
    assert csv_path.read_bytes() == first
    lines = first.decode().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("radius_nm,")


def test_output_root_env_override(run_config, tmp_path, monkeypatch):
    root = tmp_path / "root"
    monkeypatch.setenv("NEDIFF_OUT", str(root))
    assert main(["run", str(run_config), "--out", "rel_dir"]) == 0
    assert (root / "rel_dir" / "config.txt").exists()


def test_seedless_flag_rejected(run_config, tmp_path, capsys):
    out = tmp_path / "seedless"
    assert main(["run", str(run_config), "--out", str(out), "--seedless"]) == 1
    assert "--seedless" in capsys.readouterr().err
    assert not out.exists()


def test_numeric_snapshot_stride_sets_the_trace_stride(tmp_path):
    times = {}
    for stride in (1, 7):
        cfg = tmp_path / f"num{stride}.cfg"
        cfg.write_text(SMALL_RUN.replace("engine = analytic", "engine = numeric")
                       .replace("populations,profile,summary", "trace")
                       + "\n[numeric]\nwindow_fs = 3.0\nsafety = 0.9\n"
                       f"snapshot_stride = {stride}\n", encoding="utf-8")
        out = tmp_path / f"o{stride}"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        lines = (out / "config.txt").read_text().splitlines()
        assert f"snapshot_stride = {stride}" in lines
        times[stride] = np.loadtxt(out / "trace.csv", delimiter=",",
                                   skiprows=1, usecols=0)
    # Rows: the start, every stride-th step, the last step and the end.
    assert len(times[1]) > 20
    assert np.array_equal(times[7][1:-2], times[1][7:-2:7])


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_is_usage_error(run_config, tmp_path, capsys, threads):
    assert main(["run", str(run_config), "--out", str(tmp_path / "o"),
                 "--threads", threads]) == 1
    err = capsys.readouterr().err
    assert "--threads" in err and "usage" in err.lower()
    assert not (tmp_path / "o").exists()


def test_numeric_run_identical_across_thread_counts(tmp_path):
    cfg = tmp_path / "num.cfg"
    cfg.write_text(SMALL_RUN.replace("engine = analytic", "engine = both")
                   .replace("populations,profile,summary",
                            "populations,profile,trace,compare,summary")
                   + "\n[numeric]\nwindow_fs = 3.0\nsafety = 0.9\n"
                     "snapshot_stride = 7\n", encoding="utf-8")
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        assert main(["run", str(cfg), "--out", str(out), "--threads", threads]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert "trace.csv" in names and "numeric.grid" in names
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    assert scipy.fft.get_workers() == 1  # the worker setting does not leak


def test_sweep_with_no_successful_point_exits_two(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_TEMPLATE + "\n[sweep]\naxis = radius_nm\nvalues = -2,-1\n",
                   encoding="utf-8")
    out = tmp_path / "sw"
    assert main(["sweep", str(cfg), "--out", str(out), "--threads", "2"]) == 2
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 3
    flag = rows[0].split(",").index("depletion_min_flag")
    assert [row.split(",")[flag] for row in rows[1:]] == ["0", "0"]
    captured = capsys.readouterr()
    assert "no sweep point succeeded" in captured.err
    assert "ground-state" not in captured.out  # no minimum without a depletion


# At 150 eV the sideband spacing (0.130 /nm) spans 5.3 cells of dkx = 0.0245 /nm.
def test_sweep_point_that_cannot_bin_its_sidebands_is_an_error_row(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_TEMPLATE + "\n[sweep]\naxis = energy_ev\nvalues = 100,150\n",
                   encoding="utf-8")
    out = tmp_path / "sw"
    assert main(["sweep", str(cfg), "--out", str(out), "--threads", "1"]) == 0
    header, ok, bad = (line.split(",")
                       for line in (out / "sweep.csv").read_text().splitlines())
    flag, error = header.index("depletion_min_flag"), header.index("error")
    assert (ok[0], ok[flag], ok[error]) == ("100.0", "1", "")
    assert (bad[0], bad[flag]) == ("150.0", "0")
    assert bad[error].startswith("ConfigurationError: sideband spacing")
    assert "refine the momentum grid" in bad[error]
    assert "point 150 failed: ConfigurationError" in capsys.readouterr().err


def test_run_that_cannot_bin_its_sidebands_exits_one(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_RUN.replace("energy_ev = 100.0", "energy_ev = 150.0"),
                   encoding="utf-8")
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    assert "refine the momentum grid" in capsys.readouterr().err
    assert not out.exists()


def test_numeric_run_that_cannot_bin_its_sidebands_writes_nothing(tmp_path, capsys):
    # The spacing check runs before the engines, so no step and no snapshot.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_RUN.replace("energy_ev = 100.0", "energy_ev = 150.0")
                   .replace("summary", "summary,snapshots")
                   + "\n[numeric]\nwindow_fs = 3.0\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out), "--engine", "numeric"]) == 1
    assert "refine the momentum grid" in capsys.readouterr().err
    assert not out.exists()


#: A numeric run whose packet starts in the outer border: it fails the border
#: check at the first record, before any snapshot is written.
BORDER_RUN = """
[scenario]
engine = numeric
outputs = trace,snapshots,summary

[electron]
energy_ev = 100.0
fwhm_x_nm = 20.0
fwhm_y_nm = 4.0
center_y_nm = 8.0

[laser]
wavelength_nm = 2000.0
field_v_per_nm = 1.0

[model]
type = wire
radius_nm = 5.0

[grid]
nx = 1024
ny = 64
dx_nm = 0.5
dy_nm = 0.5

[numeric]
window_fs = 80.0
"""


def test_numeric_run_failing_at_its_first_record_writes_nothing(tmp_path, capsys):
    cfg = tmp_path / "border.cfg"
    cfg.write_text(BORDER_RUN, encoding="utf-8")
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out), "--threads", "1"]) == 2
    assert "grid border at t=-40 fs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "[sweep]\npreset = fig3\nengine = magic\n",
    "[sweep]\npreset = fig3\nengine = numeric\n",
    SWEEP_TEMPLATE + "\n[sweep]\naxis = radius_nm\nvalues = 6,10\nengine = numeric\n",
    SMALL_RUN + "\n[sweep]\naxis = radius_nm\nvalues = 6,10\n",
], ids=["preset-magic", "preset-numeric", "template-numeric", "scenario-engine"])
def test_sweep_with_bad_engine_exits_one(tmp_path, capsys, text):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "sw"
    assert main(["sweep", str(cfg), "--out", str(out), "--threads", "1"]) == 1
    assert "engine" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_stripe_is_not_a_model_type(tmp_path, capsys):
    cfg = tmp_path / "stripe.cfg"
    cfg.write_text(SMALL_RUN.replace(
        "type = wire\nradius_nm = 10.0\n",
        "type = stripe\ncoupling_rad = 1.0\ny_min_nm = -40.0\ny_max_nm = 40.0\n"),
        encoding="utf-8")
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    assert "unknown key 'coupling_rad'" in capsys.readouterr().err
    assert not out.exists()


#: SMALL_RUN on the numeric engine with a trace row at every step.
DT_RUN = (SMALL_RUN.replace("engine = analytic", "engine = numeric")
          .replace("populations,profile,summary", "trace")
          + "\n[numeric]\nwindow_fs = 3.0\nsnapshot_stride = 1\n")


def test_numeric_dt_fs_sets_the_step_count(tmp_path):
    # 3.0 / 0.0476 = 63.03: the nearest whole number of steps, not the ceiling.
    cfg = tmp_path / "dt.cfg"
    cfg.write_text(DT_RUN + "dt_fs = 0.0476\nvector_potential = false\n",
                   encoding="utf-8")
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out), "--threads", "1"]) == 0
    rows = (out / "trace.csv").read_text().splitlines()[1:]
    assert len(rows) == 1 + 63 + 1  # the start, every step, the end
    assert rows[0].split(",")[0] == repr(-1.5)
    assert rows[-1].split(",")[0] == repr(1.5)


def test_numeric_dt_fs_above_the_potential_bound_exits_one(tmp_path, capsys):
    # The wire's potential bound here is 0.066 fs, the grid's kinetic one 0.11 fs.
    cfg = tmp_path / "dt.cfg"
    cfg.write_text(DT_RUN + "dt_fs = 0.09\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    assert "potential phase per step" in capsys.readouterr().err
    assert not out.exists()


#: A fig1 template cut to a small grid and a short numeric window.
FIG1_SWEEP = """[scenario]
preset = fig1

[electron]
fwhm_x_nm = 40.0
fwhm_y_nm = 16.0

[grid]
nx = 512
ny = 256
dx_nm = 0.5
dy_nm = 0.5

[numeric]
window_fs = 3.0

[sweep]
axis = radius_nm
values = 6,10
"""


@pytest.mark.parametrize("engine", [None, "numeric"])
def test_sweep_template_records_the_engine_its_points_ran(tmp_path, engine):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(FIG1_SWEEP, encoding="utf-8")
    out = tmp_path / "sw"
    argv = ["sweep", str(cfg), "--out", str(out), "--threads", "1"]
    assert main(argv + (["--engine", engine] if engine else [])) == 0
    lines = (out / "template.txt").read_text().splitlines()
    assert f"engine = {engine or 'analytic'}" in lines


def test_sweep_engine_both_exits_one(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(FIG1_SWEEP, encoding="utf-8")
    out = tmp_path / "sw"
    argv = ["sweep", str(cfg), "--out", str(out), "--threads", "1", "--engine", "both"]
    assert main(argv) == 1
    assert "('analytic', 'numeric'), got 'both'" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_preset_engine_override_validated(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["preset", "fig2", "--out", str(out), "--engine", "numeric"]) == 1
    assert "numeric" in capsys.readouterr().err
    assert not out.exists()


GAP_KEYS = """type = gap
separation_nm = 23.0
smoothing_fwhm_nm = 13.0
peak_field_v_per_nm = 0.5
"""


@pytest.mark.parametrize("text", [
    SWEEP_TEMPLATE.replace("type = wire\nradius_nm = 10.0\n", GAP_KEYS)
    + "\n[sweep]\naxis = radius_nm\nvalues = 6,10\n",
    "[sweep]\npreset = fig3\n\n[model]\n" + GAP_KEYS
    + "\n[electron]\nfwhm_y_nm = 20.0\n",
], ids=["template", "fig3-preset"])
def test_radius_sweep_on_a_gap_model_exits_one(tmp_path, capsys, text):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "sw"
    assert main(["sweep", str(cfg), "--out", str(out), "--threads", "2"]) == 1
    assert "radius_nm does not apply" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("model", [GAP_KEYS], ids=["gap"])
def test_field_sweep_on_a_model_that_ignores_the_field_exits_one(
        tmp_path, capsys, model):
    text = (SWEEP_TEMPLATE.replace("type = wire\nradius_nm = 10.0\n", model)
            + "\n[sweep]\naxis = field_v_per_nm\nvalues = 0.01,0.5\n")
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "sw"
    assert main(["sweep", str(cfg), "--out", str(out), "--threads", "1"]) == 1
    assert "field_v_per_nm does not apply" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("error, code, prefix", [
    (errors.DomainError, 1, "error"),
    (errors.ConfigurationError, 1, "error"),
    (errors.NumericalError, 2, "numerical failure"),
    (errors.AnalysisError, 2, "numerical failure"),
    (FileNotFoundError, 1, "error"),
    (IsADirectoryError, 1, "error"),
])
def test_error_classes_map_to_their_exit_codes(monkeypatch, capsys, error,
                                                code, prefix):
    def fail(args):
        raise error("planted")

    monkeypatch.setitem(cli._COMMANDS, "compare", fail)
    assert main(["compare", "a.grid", "b.grid"]) == code
    assert capsys.readouterr().err == f"{prefix}: planted\n"


def test_programming_error_exits_three_with_traceback(monkeypatch, capsys):
    def broken(args):
        return len(None)

    monkeypatch.setitem(cli._COMMANDS, "compare", broken)
    assert main(["compare", "a.grid", "b.grid"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert "TypeError" in err


def test_config_that_is_not_utf8_exits_one(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(SMALL_RUN.replace("wire", "wire \xe9").encode("latin-1"))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("old, new", [
    ("wavelength_nm = 2000.0", "wavelength_nm = inf"),
    ("field_v_per_nm = 0.2", "field_v_per_nm = nan"),
    ("field_v_per_nm = 0.2", "field_v_per_nm = 0.2\nphase_rad = nan"),
], ids=["wavelength-inf", "field-nan", "phase-nan"])
def test_non_finite_config_number_exits_one_before_writing(tmp_path, capsys,
                                                           old, new):
    text = SMALL_RUN.replace(old, new)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    line = text.splitlines().index(new.splitlines()[-1]) + 1
    assert f"(line {line}): not a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content", [b"NEDIFF1 a b c d e f g h i\n",
                                     b"\xff\xfe not a grid\n"],
                         ids=["bad-numbers", "not-ascii"])
def test_malformed_grid_dump_exits_one(tmp_path, capsys, content):
    bad = tmp_path / "bad.grid"
    bad.write_bytes(content)
    assert main(["render", str(bad)]) == 1
    assert main(["compare", str(bad), str(bad)]) == 1
    assert capsys.readouterr().err.count("error: ") == 2
    assert not (tmp_path / "bad.grid.pgm").exists()


def test_analytic_run_listing_numeric_outputs_exits_one(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_RUN.replace("profile,summary", "profile,trace,compare,summary"),
                   encoding="utf-8")
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    assert ("the analytic engine cannot produce the output kinds trace,compare"
            in capsys.readouterr().err)
    assert not out.exists()


def test_engine_override_is_checked_against_listed_outputs(tmp_path, capsys):
    # The config's own engine could produce the kinds; the override cannot.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_RUN.replace("engine = analytic", "engine = both")
                   .replace("profile,summary", "profile,compare,summary")
                   + "\n[numeric]\nwindow_fs = 3.0\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out), "--engine", "numeric"]) == 1
    assert "the numeric engine cannot produce the output kinds compare" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_absent_outputs_follow_the_engine_override(tmp_path):
    # The fig1 preset runs on both engines; overridden to analytic, it writes
    # the analytic kinds and records them in config.txt.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FIG1_SWEEP.split("[sweep]")[0], encoding="utf-8")
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out), "--engine", "analytic",
                 "--threads", "1"]) == 0
    lines = (out / "config.txt").read_text(encoding="utf-8").splitlines()
    assert "engine = analytic" in lines
    assert "outputs = grids,density,crosscuts,populations,profile,summary" in lines
    assert (out / "analytic.grid").exists() and (out / "summary.txt").exists()


def test_sweep_template_outputs_are_echoed_and_not_checked(tmp_path):
    # Points write no artifacts, so kinds the sweep engine cannot produce
    # are no error.
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(FIG1_SWEEP.replace("preset = fig1\n",
                                      "preset = fig1\noutputs = trace,compare\n"),
                   encoding="utf-8")
    out = tmp_path / "sw"
    assert main(["sweep", str(cfg), "--out", str(out), "--threads", "1",
                 "--engine", "numeric"]) == 0
    lines = (out / "template.txt").read_text(encoding="utf-8").splitlines()
    assert "outputs = trace,compare" in lines
    rows = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 2 and all(row.endswith(",") for row in rows)  # no error
