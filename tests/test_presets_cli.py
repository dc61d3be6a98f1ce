import hashlib
import math
import os
import re
import stat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityqfi import cli, dynamics, presets, spectral, verify
from cavityqfi.cli import (
    Scenario,
    _config_rows,
    _curve_block,
    main,
    run_contour_preset,
    run_curve_preset,
)
from cavityqfi.dynamics import TimeGrid
from cavityqfi.presets import (
    CONTOUR_PRESETS,
    CURVE_PRESETS,
    DEFAULTS,
    config_table,
    contour_table,
    make_config,
    quantity_values,
)

PI_2 = math.pi / 2


def read_csv(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return header, data


class TestPresetParameters:
    """Preset parameter echo against the figure captions."""

    def test_ohmic_couplings(self):
        for name in ("fig1a", "fig1b", "fig1c", "fig1d", "fig3a", "fig3b"):
            assert CURVE_PRESETS[name].couplings == (0.01, 0.5, 1.0)

    def test_ohmic_cutoffs(self):
        assert CURVE_PRESETS["fig1a"].reservoir == 3.0
        assert CURVE_PRESETS["fig1b"].reservoir == 0.3
        assert CURVE_PRESETS["fig3a"].reservoir == 3.0
        assert CURVE_PRESETS["fig3b"].reservoir == 0.3

    def test_lorentzian_widths_and_couplings(self):
        assert CURVE_PRESETS["fig4a"].reservoir == 3.0
        assert CURVE_PRESETS["fig4b"].reservoir == 0.1
        assert CURVE_PRESETS["fig4a"].couplings == (0.01, 0.5, 1.0, 40.0)
        assert CURVE_PRESETS["fig4b"].couplings == (0.01, 0.5, 1.0)
        assert CURVE_PRESETS["fig6a"].reservoir == 3.0
        assert CURVE_PRESETS["fig6b"].reservoir == 0.1

    def test_contour_axes(self):
        assert (CONTOUR_PRESETS["fig2a"].sweep, CONTOUR_PRESETS["fig2a"].fixed) \
            == ("coupling", 3.0)
        assert (CONTOUR_PRESETS["fig2b"].sweep, CONTOUR_PRESETS["fig2b"].fixed) \
            == ("omega_c", 1.0)
        assert (CONTOUR_PRESETS["fig5a"].sweep, CONTOUR_PRESETS["fig5a"].fixed) \
            == ("coupling", 0.1)
        assert (CONTOUR_PRESETS["fig5b"].sweep, CONTOUR_PRESETS["fig5b"].fixed) \
            == ("width", 1.0)

    def test_initial_state_angles(self):
        cfg = make_config("ohmic", 1.0, 3.0)
        assert cfg.theta == PI_2
        assert cfg.phi == 0.0


class TestConfigs:
    def test_row_order_is_meshgrid_ij(self):
        a, b = np.array([0.1, 0.5, 0.9]), np.array([0.3, 3.0])
        table = config_table("ohmic", [("coupling", a), ("omega_c", b)])
        want = list(zip(*(m.ravel() for m in np.meshgrid(a, b, indexing="ij"))))
        assert list(zip(table.coupling, table.columns["omega_c"])) == want
        rows = [table.row(i) for i in range(len(table))]
        assert [(c.coupling, c.spectral.omega_c) for c in rows] == want
        assert rows == [make_config("ohmic", g, wc) for g, wc in want]

    def test_defaults_fill_unswept_unfixed(self):
        table = config_table("lorentzian", [("coupling", [0.5])])
        assert len(table) == 1 and table.coupling[0] == 0.5
        cfg = table.row(0)
        assert cfg.spectral.width == DEFAULTS["width"]
        assert (cfg.theta, cfg.phi) == (DEFAULTS["theta"], DEFAULTS["phi"])
        assert cfg.spectral.detuning == 0.5  # None: resolved to the coupling
        assert cfg == make_config("lorentzian", 0.5, DEFAULTS["width"])

    def test_fixed_overrides_default(self):
        cfg = config_table("lorentzian", [("coupling", [0.5])],
                           [("width", 0.1), ("theta", 0.3)]).row(0)
        assert cfg.spectral.width == 0.1
        assert cfg.theta == 0.3


class TestCurveOutputs:
    def test_header_and_initial_row(self, tmp_path):
        out = tmp_path / "fig1a.csv"
        run_curve_preset(Scenario("fig1a", out, n_points=50))
        text = out.read_text().splitlines()
        header_idx = next(i for i, ln in enumerate(text)
                          if not ln.startswith("#"))
        assert text[header_idx] == "t,value_omega_0.01,value_omega_0.5,value_omega_1.0"
        first = [float(x) for x in text[header_idx + 1].split(",")]
        assert first == [0.0, 1.0, 1.0, 1.0]

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_curve_preset(Scenario("fig1b", a, n_points=64))
        run_curve_preset(Scenario("fig1b", b, n_points=64))
        assert a.read_bytes() == b.read_bytes()

    def test_coherence_is_sqrt_of_information(self, tmp_path):
        qfi = tmp_path / "fig1a.csv"
        coh = tmp_path / "fig1c.csv"
        run_curve_preset(Scenario("fig1a", qfi, n_points=200))
        run_curve_preset(Scenario("fig1c", coh, n_points=200))
        _, f = read_csv(qfi)
        _, c = read_csv(coh)
        np.testing.assert_allclose(np.sqrt(f[:, 1:]), c[:, 1:], atol=1e-11)

    def test_weak_coupling_rate_nonnegative(self, tmp_path):
        out = tmp_path / "fig3a.csv"
        run_curve_preset(Scenario("fig3a", out))
        header, data = read_csv(out)
        col = header.index("value_omega_0.01")
        assert np.nanmin(data[:, col]) >= -1e-9

    def test_rate_singularities_serialize_as_nan(self, tmp_path):
        # the writer must emit flagged samples as literal nan
        from cavityqfi.cli import _fmt
        assert _fmt(float("nan")) == "nan"
        out = tmp_path / "custom.csv"
        code = main(["run", "custom", "--family", "lorentzian", "--width",
                     "0.1", "--coupling", "1.0",
                     "--quantity", "decoherence_rate",
                     "--steps", "40", "--t-end", "20", "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_numeric_mode_smoke(self, tmp_path):
        out = tmp_path / "numeric.csv"
        code = main(["run", "custom", "--family", "ohmic", "--omega-c", "3.0",
                     "--coupling", "0.5", "--steps", "13", "--t-end", "2",
                     "--mode", "numeric", "--out", str(out)])
        assert code == 0
        _, data = read_csv(out)
        assert np.all(np.isfinite(data))


class TestContourOutputs:
    def test_initial_time_cells_are_one(self, tmp_path):
        out = tmp_path / "fig2a.csv"
        run_contour_preset(Scenario("fig2a", out, n_points=40))
        _, data = read_csv(out)
        at_zero = data[data[:, 0] == 0.0]
        assert len(at_zero) == CONTOUR_PRESETS["fig2a"].n_param
        np.testing.assert_allclose(at_zero[:, 2], 1.0, atol=1e-14)

    def test_cutoff_slice_matches_curve(self):
        # the fig2b parameter grid hits omega_c = 3 exactly; that slice must
        # reproduce the fig1a resonant-coupling curve on the contour grid
        preset = CONTOUR_PRESETS["fig2b"]
        params, tiles = contour_table(preset)
        values = np.concatenate([v for _, _, v in tiles])  # one window each
        j = int(np.argmin(np.abs(params - 3.0)))
        assert params[j] == 3.0
        cfg = make_config("ohmic", 1.0, 3.0)
        curve = quantity_values(cfg, TimeGrid(preset.t_end, preset.n_points),
                                "qfi_phi")
        np.testing.assert_allclose(values[j], curve, atol=1e-12)

    def test_plateau_slice(self):
        # resonant-coupling slice of the strong-coupling contour flattens
        preset = CONTOUR_PRESETS["fig5a"]
        params, tiles = contour_table(preset)
        values = np.concatenate([v for _, _, v in tiles])  # one window each
        times = TimeGrid(preset.t_end, preset.n_points).times
        j = int(np.argmin(np.abs(params - 1.0)))
        assert params[j] == 1.0
        window = values[j][times >= 20.0]
        assert window.max() - window.min() <= 0.05


class TestCli:
    def test_run_writes_default_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "fig1a", "--steps", "16"]) == 0
        assert (tmp_path / "fig1a.csv").exists()

    def test_unknown_preset_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["run", "fig9z"])
        assert err.value.code == 2

    def test_bad_custom_parameter_exits_2(self, capsys):
        code = main(["run", "custom", "--family", "ohmic", "--omega-c", "-3.0",
                     "--coupling", "0.5"])
        assert code == 2
        assert "omega_c" in capsys.readouterr().err

    def test_missing_custom_flags_exit_2(self, capsys):
        assert main(["run", "custom", "--family", "ohmic",
                     "--coupling", "1.0"]) == 2
        assert "--omega-c" in capsys.readouterr().err

    def test_unwritable_output_reports_path(self, tmp_path, capsys, monkeypatch):
        # a bad --out exits 2 before any value is computed
        def no_values(*args, **kwargs):
            raise AssertionError("values computed before --out was checked")

        monkeypatch.setattr(cli, "curve_table", no_values)
        monkeypatch.setattr(cli, "table_tiles", no_values)
        run = ["run", "fig1a", "--steps", "8"]
        sweep = ["sweep", "--model", "ohmic", "--param", "coupling",
                 "--range", "0:1:2"]
        missing = tmp_path / "missing_dir" / "out.csv"
        for command, bad in ((run, missing), (sweep, missing), (run, tmp_path)):
            assert main(command + ["--out", str(bad)]) == 2, (command, bad)
            err = capsys.readouterr().err
            assert "--out" in err and str(bad) in err
        assert not missing.parent.exists()

    def test_write_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        def no_open(path, mode):
            raise PermissionError("read-only")

        monkeypatch.setattr(cli, "open", no_open, raising=False)
        code = main(["run", "fig1a", "--steps", "8",
                     "--out", str(tmp_path / "out.csv")])
        assert code == 1
        assert "i/o error" in capsys.readouterr().err

    def test_verify_single_suite(self, capsys):
        assert main(["verify", "--suite", "stable-asymptote"]) == 0
        out = capsys.readouterr().out
        assert "PASS stable-asymptote" in out

    def test_verify_unknown_suite_exits_2(self):
        assert main(["verify", "--suite", "bogus"]) == 2

    def test_verify_unknown_suite_names_flag_value_and_choices(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "--suite" in err and "bogus" in err and "gamma-oracle" in err

    def test_verify_repeated_suite_exits_2_naming_it(self, capsys, monkeypatch):
        def no_suite(ctx):
            raise AssertionError("a suite ran before the repeat was rejected")

        monkeypatch.setitem(verify.SUITES, "stable-asymptote", no_suite)
        assert main(["verify", "--suite", "stable-asymptote",
                     "--suite", "stable-asymptote"]) == 2
        captured = capsys.readouterr()
        assert "--suite" in captured.err and "stable-asymptote" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_bug_raising_key_error_is_not_a_configuration_error(self, tmp_path,
                                                                monkeypatch):
        # every run and sweep lookup is keyed by a checked name, so a KeyError
        # is a fault of the program: a traceback, not exit 2
        def broken(*args, **kwargs):
            raise KeyError("omega_c")

        monkeypatch.setattr(cli, "config_table", broken)
        with pytest.raises(KeyError):
            main(["sweep", "--model", "ohmic", "--param", "coupling", "--range", "0:1:2",
                  "--out", str(tmp_path / "sweep.csv")])

    def test_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--model", "ohmic", "--param", "omega_c",
                     "--range", "0.5:3:3", "--quantity", "qfi_phi",
                     "--t-end", "5", "--steps", "11", "--out", str(out)])
        assert code == 0
        header, data = read_csv(out)
        assert header == ["t", "omega_c", "value"]
        assert data.shape == (33, 3)
        assert set(np.unique(data[:, 1])) == {0.5, 1.75, 3.0}
        np.testing.assert_allclose(data[data[:, 0] == 0.0][:, 2], 1.0)

    def test_sweep_two_parameters(self, tmp_path):
        out = tmp_path / "sweep2.csv"
        code = main(["sweep", "--model", "lorentzian",
                     "--param", "coupling", "--range", "0.5:1:2",
                     "--param", "width", "--range", "0.1:3:2",
                     "--steps", "5", "--t-end", "2", "--out", str(out)])
        assert code == 0
        header, data = read_csv(out)
        assert header == ["t", "coupling", "width", "value"]
        assert data.shape == (20, 4)

    def test_sweep_bad_param_exits_2(self, capsys):
        code = main(["sweep", "--model", "ohmic", "--param", "width",
                     "--range", "0:1:2"])
        assert code == 2
        assert "not sweepable" in capsys.readouterr().err

    def test_sweep_bad_range_exits_2(self, capsys):
        code = main(["sweep", "--model", "ohmic", "--param", "omega_c",
                     "--range", "1;2;3"])
        assert code == 2

    def test_sweep_negative_range_both_forms(self, tmp_path):
        outs = []
        for i, form in enumerate((["--range", "-1:1:3"], ["--range=-1:1:3"])):
            outs.append(tmp_path / f"sweep{i}.csv")
            assert main(["sweep", "--model", "lorentzian", "--param", "detuning",
                         *form, "--steps", "5", "--t-end", "2",
                         "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        _, data = read_csv(outs[0])
        assert set(np.unique(data[:, 1])) == {-1.0, 0.0, 1.0}

    @pytest.mark.parametrize("form", [
        ["--range", "-1:x:3"], ["--range=-1:x:3"], ["--range", "-1:1"],
        ["--range", "-1:1:0"], ["--range=-inf:1:3"], ["--range", "0:nan:3"]])
    def test_sweep_malformed_range_names_flag(self, tmp_path, capsys, form):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--model", "lorentzian", "--param", "detuning",
                     *form, "--out", str(out)]) == 2
        assert "--range" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_range_missing_value_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--model", "lorentzian", "--param", "detuning",
                  "--range"])
        assert err.value.code == 2
        assert "--range" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, name", [
        (["run", "fig1a", "--steps", "0"], "n_points"),
        (["run", "fig1a", "--t-end", "0"], "t_end"),
        (["run", "fig2a", "--steps", "0"], "n_points"),
        (["run", "fig2a", "--t-end", "0"], "t_end"),
        (["run", "custom", "--family", "ohmic", "--omega-c", "3",
          "--coupling", "0.5", "--steps", "0"], "n_points"),
        (["run", "custom", "--family", "ohmic", "--omega-c", "nan",
          "--coupling", "0.5"], "omega_c"),
        (["run", "custom", "--family", "lorentzian", "--width", "1",
          "--coupling", "nan"], "coupling"),
        (["sweep", "--model", "ohmic", "--param", "omega_c",
          "--range", "0.5:3:3", "--fix", "coupling=nan"], "coupling"),
        (["sweep", "--model", "ohmic", "--param", "omega_c",
          "--range", "0.5:3:3", "--steps", "0"], "n_points"),
        # omega_2 t overflows at t = 1e308, so p is NaN there
        (["run", "fig1a", "--steps", "3", "--t-end", "1e308"],
         "coupling=1.0, omega_c=3.0"),
    ])
    def test_bad_value_exits_2_naming_it(self, tmp_path, capsys, argv, name):
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("preset", ["fig1a", "fig2a"])
    @pytest.mark.parametrize("flag", [
        ["--family", "ohmic"], ["--quantity", "coherence"],
        ["--coupling", "0.5"], ["--omega-c", "3"], ["--width", "1"]])
    def test_custom_only_flag_on_named_preset_exits_2(self, tmp_path, capsys,
                                                      preset, flag):
        out = tmp_path / "out.csv"
        assert main(["run", preset, *flag, "--out", str(out)]) == 2
        assert flag[0] in capsys.readouterr().err
        assert not out.exists()

    def test_theta_flag_removed(self):
        with pytest.raises(SystemExit) as err:
            main(["run", "custom", "--family", "ohmic", "--omega-c", "3",
                  "--coupling", "0.5", "--theta", "0.3"])
        assert err.value.code == 2

    @pytest.mark.parametrize("fix, text", [
        ("foo=2", "--fix foo"),         # not a parameter of the model
        ("width=2", "--fix width"),     # a Lorentzian parameter only
        ("omega_c=2", "--fix omega_c"),  # also swept
        ("coupling", "NAME=VALUE"),
        ("omega_c=abc", "--fix omega_c: expected a number, got 'abc'"),
        ("omega_c=", "--fix omega_c: expected a number, got ''"),
    ])
    def test_sweep_bad_fix_exits_2(self, tmp_path, capsys, fix, text):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--model", "ohmic", "--param", "omega_c",
                     "--range", "0.5:3:3", "--fix", fix, "--out", str(out)])
        assert code == 2
        assert text in capsys.readouterr().err
        assert not out.exists()


OHMIC_DOMAIN = "0 <= coupling <= omega0"


@pytest.mark.parametrize("argv, text", [
    (["sweep", "--model", "ohmic", "--param", "coupling", "--range", "0:1:2",
      "--param", "coupling", "--range", "0.5:0.7:2"], "--param coupling"),
    (["sweep", "--model", "ohmic", "--param", "omega_c", "--range", "0.5:3:3",
      "--fix", "coupling=0.3", "--fix", "coupling=0.6"], "--fix coupling"),
    (["run", "custom", "--family", "lorentzian", "--width", "1",
      "--omega-c", "3", "--coupling", "0.5"], "--omega-c"),
    (["run", "custom", "--family", "ohmic", "--width", "1",
      "--omega-c", "3", "--coupling", "0.5"], "--width"),
    (["run", "custom", "--family", "ohmic", "--omega-c", "3",
      "--coupling", "0.5", "--coupling", "0.50"], "--coupling 0.5: given twice"),
    (["run", "custom", "--family", "ohmic", "--omega-c", "3",
      "--coupling", "1.5", "--steps", "5", "--t-end", "0.5"], OHMIC_DOMAIN),
    (["sweep", "--model", "ohmic", "--param", "coupling",
      "--range", "0.5:1.5:3"], OHMIC_DOMAIN),
    (["run", "fig1a", "--steps", "0"], "--steps: n_points must be >= 1, got 0"),
    (["run", "fig2a", "--t-end", "-1"], "--t-end: t_end must be finite and > 0"),
    (["run", "custom", "--family", "ohmic", "--omega-c", "3",
      "--coupling", "0.5", "--steps", "-2"], "--steps: n_points"),
    (["sweep", "--model", "ohmic", "--param", "coupling", "--range", "0:1:3",
      "--steps", "0"], "--steps: n_points must be >= 1, got 0"),
    (["sweep", "--model", "ohmic", "--param", "coupling", "--range", "0:1:3",
      "--t-end", "nan"], "--t-end: t_end must be finite and > 0, got nan"),
    (["sweep", "--model", "ohmic", "--param", "omega_c", "--range", "0.1:3:0"],
     "--range for omega_c: count must be >= 1, got '0.1:3:0'"),
], ids=["param-twice", "fix-twice", "custom-lorentzian-omega-c",
        "custom-ohmic-width", "custom-coupling-twice", "custom-ohmic-coupling",
        "sweep-ohmic-coupling",
        "run-steps", "contour-t-end", "custom-steps", "sweep-steps",
        "sweep-t-end", "sweep-range-count"])
def test_rejected_before_any_amplitude(tmp_path, capsys, monkeypatch, argv, text):
    def no_amplitude(*args, **kwargs):
        raise AssertionError("amplitude computed before the input was rejected")

    monkeypatch.setattr(presets, "amplitude", no_amplitude)
    monkeypatch.setattr(presets, "amplitude_table", no_amplitude)
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert text in capsys.readouterr().err
    assert not out.exists()


def test_failing_block_exits_2_and_writes_no_file(tmp_path, capsys, monkeypatch):
    # 3 configs to a block, so coupling 1 (the last of 7) fails in the
    # third block, after two blocks have passed their checks
    steps = dynamics._BLOCK_SAMPLES // 3
    real = dynamics.closed_rates
    calls = []

    def growing_at_coupling_1(kind, fields, omega_j, times, halves):
        calls.append(len(omega_j))
        gamma, beta = real(kind, fields, omega_j, times, halves)
        # omega_2 = omega0 + coupling = 2: a negated exponent makes |p| > 1
        return gamma, np.where(omega_j == 2.0, -beta, beta)

    monkeypatch.setattr(dynamics, "closed_rates", growing_at_coupling_1)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--model", "ohmic", "--param", "coupling",
                 "--range", "0:1:7", "--steps", str(steps), "--t-end", "5",
                 "--out", str(out)]) == 2
    assert calls == [3, 3, 3, 3, 1, 1]  # omega_1 and omega_2 per block
    err = capsys.readouterr().err
    assert "coupling=1.0" in err and "|p| exceeded" in err
    assert not out.exists()


# 4 configs to a block.  At t = 1e308 every coupling >= 0.8 gives a NaN
# amplitude, so the first bad config (index 32) is in the 9th block, after
# 8 blocks have been written.
LATE_BLOCKS = ["sweep", "--model", "ohmic", "--param", "coupling",
               "--range", "0:1:41", "--steps", "4096"]


# the target does not exist, or holds an earlier run's bytes
WITH_AND_WITHOUT_TARGET = pytest.mark.parametrize(
    "old", [None, b"# an earlier run\nt,value\n0,1\n"], ids=["new", "existing"])


def assert_left_as_was(out, old):
    """``out`` holds ``old`` (None: does not exist), and nothing else is
    in its directory: no temporary file was left behind."""
    assert list(out.parent.iterdir()) == ([out] if old is not None else [])
    if old is not None:
        assert out.read_bytes() == old


@pytest.mark.parametrize("count", [10 ** 15, 10 ** 20])
def test_range_count_past_memory_exits_2_in_one_line(tmp_path, capsys, count):
    # 10**15 values fail to allocate at once (numpy's _ArrayMemoryError),
    # 10**20 pass numpy's largest array size: each exits 2 with one line
    # naming --range, and leaves no file
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--model", "ohmic", "--param", "coupling",
                 "--range", f"0:1:{count}", "--steps", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"configuration error: --range for coupling: {count} values do not fit in memory"]
    assert_left_as_was(out, None)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("span", ["-1e308:1e308:3", "1.5e308:-1e308:1"])
def test_range_span_overflow_exits_2_in_one_line(tmp_path, capsys, span):
    # finite endpoints whose difference overflows: np.linspace would warn
    # and give NaN; the range is rejected before it runs, naming --range
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--model", "lorentzian", "--param", "detuning",
                 f"--range={span}", "--steps", "2", "--out", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("configuration error: --range for detuning: ")
    assert_left_as_was(out, None)


@pytest.mark.parametrize("n_axes", [3, 4])
def test_param_product_past_memory_exits_2_in_one_line(tmp_path, capsys, n_axes):
    # 10**6 values an axis: the columns of three axes fail to allocate
    # (numpy's _ArrayMemoryError), four pass numpy's largest array size
    axes = [("coupling", "0:1"), ("omega_c", "0.1:3"), ("theta", "0:1"),
            ("phi", "0:1")][:n_axes]
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--model", "ohmic", "--steps", "2", "--out", str(out)]
    for name, span in axes:
        argv += ["--param", name, "--range", f"{span}:1000000"]
    assert main(argv) == 2
    names = ", ".join(name for name, _ in axes)
    assert capsys.readouterr().err.splitlines() == [
        f"configuration error: --param {names}: {10 ** (6 * n_axes)} configs "
        f"do not fit in memory"]
    assert_left_as_was(out, None)


@WITH_AND_WITHOUT_TARGET
def test_late_block_failure_keeps_the_target(tmp_path, capsys, old):
    out = tmp_path / "sweep.csv"
    if old is not None:
        out.write_bytes(old)
    assert main(LATE_BLOCKS + ["--t-end", "1e308", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "coupling=0.8, omega_c=3.0" in err and "|p| exceeded" in err
    assert_left_as_was(out, old)


@WITH_AND_WITHOUT_TARGET
def test_interrupt_keeps_the_target(tmp_path, monkeypatch, old):
    real = presets.amplitude_table
    calls = []

    def interrupted_on_third_block(*args, **kwargs):
        calls.append(len(args[0]))
        if len(calls) == 3:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(presets, "amplitude_table", interrupted_on_third_block)
    out = tmp_path / "sweep.csv"
    if old is not None:
        out.write_bytes(old)
    with pytest.raises(KeyboardInterrupt):
        main(LATE_BLOCKS + ["--out", str(out)])
    assert calls == [4, 4, 4]
    assert_left_as_was(out, old)


SMALL_RUN = ["run", "fig1a", "--steps", "8"]
OLD_BYTES = b"# an earlier run\n"


def test_symlinked_target_replaces_the_file_it_names(tmp_path):
    (tmp_path / "data").mkdir()
    real, link = tmp_path / "data" / "fig1a.csv", tmp_path / "fig1a.csv"
    real.write_bytes(OLD_BYTES)
    link.symlink_to(real)
    assert main(SMALL_RUN + ["--out", str(link)]) == 0
    assert main(SMALL_RUN + ["--out", str(tmp_path / "direct.csv")]) == 0
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_bytes() == (tmp_path / "direct.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.rglob("*")) == [
        "data", "direct.csv", "fig1a.csv", "fig1a.csv"]


@pytest.mark.parametrize("mode", [0o604, 0o640], ids=oct)
def test_replaced_target_keeps_its_mode(tmp_path, mode):
    out = tmp_path / "fig1a.csv"
    out.write_bytes(OLD_BYTES)
    out.chmod(mode)
    assert main(SMALL_RUN + ["--out", str(out)]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == mode
    assert out.read_bytes() != OLD_BYTES


def test_read_only_target(tmp_path, capsys):
    # rejected before any value is computed where the user cannot write
    # it; root can, and then the new file keeps the read-only mode
    out = tmp_path / "fig1a.csv"
    out.write_bytes(OLD_BYTES)
    out.chmod(0o444)
    if os.access(out, os.W_OK):
        assert main(SMALL_RUN + ["--out", str(out)]) == 0
        assert out.read_bytes() != OLD_BYTES
    else:
        assert main(SMALL_RUN + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"--out {out}: not a writable regular file" in err
        assert out.read_bytes() == OLD_BYTES
    assert stat.S_IMODE(out.stat().st_mode) == 0o444
    assert list(tmp_path.iterdir()) == [out]


def test_fifo_target_exits_2_and_stays_a_fifo(tmp_path, capsys):
    out = tmp_path / "fifo.csv"
    os.mkfifo(out)
    for command in (SMALL_RUN, ["sweep", "--model", "ohmic", "--param", "coupling",
                                "--range", "0:1:2"]):
        assert main(command + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"--out {out}: not a writable regular file" in err
    assert stat.S_ISFIFO(out.stat().st_mode)
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("target, text, realpath", [
    ("missing/fig4a.csv", "does not exist", False),
    ("loop.csv", "--out", False),
    ("loop.csv", "--out", True),
], ids=["dangling", "loop", "loop-resolve-returns"])
def test_unresolvable_symlink_exits_2_before_computing(tmp_path, capsys, monkeypatch,
                                                        target, text, realpath):
    # a symlink into a missing directory, or a link to itself, is judged by
    # where it leads: rejected naming --out before any amplitude.  From
    # Python 3.13 on, Path.resolve returns a loop's path rather than raising
    def no_amplitude(*args, **kwargs):
        raise AssertionError("amplitude computed before --out was rejected")

    monkeypatch.setattr(presets, "amplitude_table", no_amplitude)
    if realpath:
        monkeypatch.setattr(Path, "resolve",
                            lambda self, strict=False: Path(os.path.realpath(self)))
    link = tmp_path / "loop.csv"
    link.symlink_to(tmp_path / target)
    for command in (["run", "fig4a"], ["sweep", "--model", "ohmic", "--param",
                                       "coupling", "--range", "0:1:2"]):
        assert main(command + ["--out", str(link)]) == 2
        err = capsys.readouterr().err
        assert f"--out {link}" in err and text in err
    assert link.is_symlink() and not link.exists()
    assert list(tmp_path.iterdir()) == [link]


_SPECIAL = [float("nan"), math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, -1e16,
            1.0, 0.1, 1e-300, 1.7976931348623157e308]


def test_csv_rows_match_per_value_format():
    rng = np.random.default_rng(7)
    randoms = list(rng.standard_normal(40) * 10.0 ** rng.integers(-20, 20, 40))
    randoms += list(rng.random(40))
    a = np.array(_SPECIAL + randoms)
    # one tile of configs first to first + n - 1: each config's fields sit
    # between the time and the value; every time of the first config comes
    # first, then every time of the next
    first = 3
    for n_columns in (1, 2, len(_SPECIAL)):
        columns = [np.roll(a, 11 * j) for j in range(n_columns)]
        for n_configs in (1, 2, 4):
            values = np.stack([np.roll(a, 5 + 17 * i) for i in range(n_configs)])
            want = [f"{t:.12g}".encode()
                    + "".join(f",{c[first + i]:.12g}" for c in columns).encode()
                    + f",{values[i, r]:.12g}".encode()
                    for i in range(n_configs) for r, t in enumerate(a)]
            got = b"".join(_config_rows([(first, a, values)], columns))
            assert got == b"\n".join(want) + b"\n", (n_columns, n_configs)
    # values must be (configs, times), and the columns must hold its configs
    columns, values = [a[:2]], np.stack([a, np.roll(a, 5)])
    for bad in (values[:, :-1], np.vstack([values, a]), values[:, :, None], values[0]):
        with pytest.raises(ValueError, match="values of shape"):
            list(_config_rows([(0, a, bad)], columns))


_ANY_FLOAT = st.one_of(st.floats(), st.sampled_from(_SPECIAL))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda k: st.lists(
    st.lists(_ANY_FLOAT, min_size=1 + k, max_size=1 + k), min_size=1, max_size=8)))
def test_curve_rows_match_per_value_format(rows):
    # a row is a time and then one value per coupling
    rows = np.array(rows)
    want = "".join(f"{r[0]:.12g}," + ",".join(f"{v:.12g}" for v in r[1:]) + "\n"
                   for r in rows.tolist())
    assert _curve_block(rows[:, 0], rows[:, 1:].T) == want.encode()


# SHA-256 of CLI outputs recorded before the CSV path was vectorised.  The
# metadata carries the package version, so a version bump changes them.
GOLDEN = [
    (["run", "fig1a", "--steps", "50"],
     "68147dbb9fc3d6758b7199689eda1464ae83237356f0bfdf861455f6006403c5"),
    (["run", "fig4c", "--steps", "50"],
     "0e32da6ff04bf5b1fcad643604926761fec4a8ea6c9436046caef53b1a44efe4"),
    (["run", "fig2a", "--steps", "20"],
     "c06cc3d9f9913a5fc8f39d57d8e9aefcffe6f83caefa1ce206a15e4cab6b8de9"),
    (["sweep", "--model", "lorentzian", "--param", "coupling",
      "--range", "0.5:1:3", "--param", "width", "--range", "0.1:3:3",
      "--steps", "11", "--t-end", "5"],
     "3ec98646c5f9b0f79d539323f19a3c9902693653a47943d1dac306421d4a126d"),
    # recorded before the tables were batched
    (["sweep", "--model", "ohmic", "--param", "coupling", "--range", "0:1:3",
      "--fix", "omega_c=0.3", "--fix", "theta=1.0", "--quantity", "lamb_shift",
      "--steps", "11", "--t-end", "5"],
     "a5c85f56382137bb3847907254e3c24a6e587016bbe86f0240382e43fa2feedd"),
    (["sweep", "--model", "ohmic", "--param", "coupling", "--range", "0:1:3",
      "--fix", "omega_c=0.3", "--fix", "theta=1.0",
      "--quantity", "decoherence_rate", "--steps", "11", "--t-end", "5"],
     "69056f372ee11987792922eccfce3322d27fd10fa2fd0c4017ad35846cb192eb"),
    (["sweep", "--model", "lorentzian", "--param", "width", "--range", "0.1:3:4",
      "--fix", "coupling=0.7", "--quantity", "coherence", "--steps", "7",
      "--t-end", "2"],
     "dd2129a33152d19480692efcc93ad82313522aea0d49572538680d5523388081"),
    # the --steps/--t-end overrides on a contour, a curve and the custom preset
    (["run", "fig2b", "--steps", "20", "--t-end", "7.5"],
     "2966824831241a7626380ce886b034064172bfa590b78c92c56f19f40150c436"),
    (["run", "fig6b", "--t-end", "4", "--steps", "25"],
     "98c615f1d4b37984a1c1aef4fbfe9232dc6a925a6eb1ce69bb0ee504f1f7d838"),
    (["run", "custom", "--family", "lorentzian", "--width", "0.5",
      "--coupling", "0.3", "--coupling", "1", "--quantity", "coherence",
      "--steps", "30", "--t-end", "12"],
     "56acced5bf8c3b63db60470154bf940d7f8d4c827b56d9ec7a402e36154ee9e4"),
    # 400 thetas x 3 phis: F_phi reads sin(theta)**2 with libm's pow, which
    # differs from sin(theta) * sin(theta) in the last bit at some angles,
    # and the coherence reads theta and phi; no other digest varies them
    (["sweep", "--model", "ohmic", "--param", "theta", "--range", "0:3.14159:400",
      "--param", "phi", "--range", "0:6.2:3", "--quantity", "qfi_phi",
      "--steps", "20", "--t-end", "5"],
     "6521afc032f4c51357c46aad44c1144c05ad1f602b8fff459819276648b6b974"),
    (["sweep", "--model", "lorentzian", "--param", "theta",
      "--range", "0:3.14159:400", "--param", "phi", "--range", "0:6.2:3",
      "--fix", "coupling=0.7", "--quantity", "coherence", "--steps", "20",
      "--t-end", "5"],
     "0e26a93a25921ebf8caca6b0e57aa814621f03fa8fe624a0142e6e703aaab268"),
    # 3 couplings x 20000 times: 4 curve tiles of up to 5461 times
    (["run", "custom", "--family", "lorentzian", "--width", "0.5",
      "--coupling", "0.3", "--coupling", "1", "--coupling", "2",
      "--steps", "20000", "--t-end", "12"],
     "2f9e04c7fbeb2962419863617889c5e06df34673071ae89a6329b97e2acd7391"),
]


GOLDEN_IDS = ["fig1a", "fig4c", "fig2a", "sweep", "sweep-lamb-shift",
              "sweep-decoherence-rate", "sweep-coherence", "fig2b-overrides",
              "fig6b-overrides", "custom-overrides", "sweep-theta-phi-qfi",
              "sweep-theta-phi-coherence", "custom-multi-tile"]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=GOLDEN_IDS)
def test_golden_bytes(tmp_path, argv, digest):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=GOLDEN_IDS)
def test_golden_bytes_in_small_blocks(tmp_path, monkeypatch, argv, digest):
    # tiles of one sample (one time of every coupling of a curve), then of 7:
    # a window of 7 times of one config where a row is longer, else 7 // n_t
    # configs, and 7 // k times for a curve of k couplings
    out = tmp_path / "out.csv"
    for block in (1, 7):
        monkeypatch.setattr(dynamics, "_BLOCK_SAMPLES", block)
        assert main(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, block


NUMERIC_OUTSIDE = [
    ("fig1a", "1e17", "3"), ("fig1a", "1e20", "3"), ("fig1a", "1e308", "3"),
    ("fig4a", "1e16", "3"),
    # past the top where the tails' half-period pi/t resolves against their
    # start (quadpack returned values about 2e-4 off there)
    ("fig1a", "1e15", "3"), ("fig1b", "1e15", "3"), ("fig4a", "1e15", "3"),
    ("fig4b", "1e15", "3"),
    # below the domain, where the quadrature tails overflow: at t_end, or
    # (1e-153 and 6e-306) only at the first grid time t_end/2
    ("fig4a", "1e-200", "3"), ("fig4a", "1e-153", "3"), ("fig1a", "1e-307", "3"),
    ("fig1a", "6e-306", "3"),
    # a contour of 100 rows at its 200 steps, one numeric tile: the first row
    # past the top (row 82, from 0) is checked before row 0's quadrature
    ("fig2b", "1.5e6", "200")]


@pytest.mark.parametrize("preset, t_end, steps", NUMERIC_OUTSIDE,
                         ids=[f"{preset}-{t_end}" for preset, t_end, _ in NUMERIC_OUTSIDE])
def test_numeric_time_outside_domain_exits_2(tmp_path, capsys, monkeypatch,
                                             preset, t_end, steps):
    # the whole grid of every row is rejected before the first quadrature
    # call, in one line naming t_end, and no file is left
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran before t_end was rejected")

    monkeypatch.setattr(dynamics, "numeric_rates", no_quadrature)
    out = tmp_path / "out.csv"
    assert main(["run", preset, "--mode", "numeric", "--steps", steps,
                 "--t-end", t_end, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("configuration error: t_end")
    assert_left_as_was(out, None)


@pytest.mark.parametrize("reservoir, rule", [
    (["--family", "lorentzian", "--width", "1e308"], "width=1e+308"),
    (["--family", "ohmic", "--omega-c", "1e308"], "omega_c=1e+308"),
    # a domain left, below t of about 3e-154
    (["--family", "ohmic", "--omega-c", "1e160"], "t_end=20")])
def test_numeric_empty_domain_names_the_width(tmp_path, capsys, reservoir, rule):
    # the window edge overflows, so no --t-end could pass: the width is named
    out = tmp_path / "out.csv"
    assert main(["run", "custom", *reservoir, "--coupling", "0.5", "--mode", "numeric",
                 "--steps", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"configuration error: {rule} is outside")
    assert_left_as_was(out, None)


@pytest.mark.parametrize("preset, top, past", [
    ("fig1a", 1e6, 2e6), ("fig4a", 1e6, 2e6), ("fig4b", 1e7, 2e7)])
def test_numeric_time_tops_of_the_presets(preset, top, past):
    # the tops README quotes: --t-end `top` passes the domain check of every
    # row's two transitions, and `past` fails it, with no quadrature run
    table, _ = presets.preset_configs(presets.PRESETS[preset])
    cfgs = [table.row(i) for i in range(len(table))]
    checks = [(c.spectral, wj) for c in cfgs for wj in (c.omega_1, c.omega_2)]
    for model, wj in checks:
        spectral.check_numeric_time(model, wj, top, name="t_end")
    with pytest.raises(ValueError, match="^" + re.escape(f"t_end={past:g} is outside")):
        for model, wj in checks:
            spectral.check_numeric_time(model, wj, past, name="t_end")


@WITH_AND_WITHOUT_TARGET
def test_quadrature_failure_exits_1_in_one_line(tmp_path, capsys, old):
    # quadpack misses its tolerance at omega_c = 3e5 and t = 1: a
    # tolerance failure, one line on stderr naming the point, no traceback,
    # and the target left as it was, with no temporary file
    out = tmp_path / "out.csv"
    if old is not None:
        out.write_bytes(old)
    assert main(["run", "custom", "--family", "ohmic", "--omega-c", "3e5",
                 "--coupling", "0.5", "--mode", "numeric", "--steps", "2",
                 "--t-end", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("tolerance error: ")
    assert "omega_j=0.5, t=1.0" in err
    assert_left_as_was(out, old)

