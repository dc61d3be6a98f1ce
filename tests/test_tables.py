"""The batched table path: `presets.table_blocks` over a (config x time) block.

Each row must equal the one-config route built from the primitives
(`amplitude`, then `qfi_closed`, `coherence_l1` of `atom_state`,
`decoherence_rate` or `lamb_shift`) bit for bit, however the configs fall
into blocks.  Property tests cover the valid parameter domain and invalid
command-line input.
"""

import contextlib
import gc
import io
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityqfi import (
    AmplitudeRangeError,
    SpectralModel,
    SystemConfig,
    TimeGrid,
    amplitude,
    atom_state,
    beta_closed,
    coherence_l1,
    decoherence_rate,
    gamma_closed,
    lamb_shift,
    metric_series,
    physicality,
    qfi_closed,
)
from cavityqfi import cli, dynamics, presets, spectral
from cavityqfi.cli import main
from cavityqfi.dynamics import amplitude_table
from cavityqfi.presets import CURVE_PRESETS, TABLE_QUANTITIES, configs, \
    quantity_values, table_blocks
from cavityqfi.spectral import closed_rates

THETAS = ("theta", (math.pi / 6, math.pi / 3, math.pi / 2))
AXES = {
    "ohmic": [("coupling", (0.0, 0.01, 0.5, 1.0)), ("omega_c", (0.3, 3.0)),
              THETAS],
    "lorentzian": [("coupling", (0.0, 0.01, 0.5, 1.0, 40.0)),
                   ("width", (0.1, 3.0)), THETAS],
}


def one_config(cfg, grid, quantity, mode="closed"):
    """The per-config route the batch must reproduce, from the primitives."""
    amps = amplitude(cfg, grid, mode=mode)
    if quantity == "decoherence_rate":
        return decoherence_rate(amps.p, amps.p_dot)
    if quantity == "lamb_shift":
        return lamb_shift(amps.p, amps.p_dot)
    if quantity == "coherence":
        return coherence_l1(atom_state(cfg, amps.p))
    f_phi, f_theta = qfi_closed(amps.p, cfg.theta)
    return {"qfi_phi": f_phi, "qfi_theta": f_theta}[quantity]


def stacked(cfgs, grid, quantity, mode="closed"):
    """`table_blocks` stacked into one (len(cfgs), n_points) array."""
    return np.concatenate(list(table_blocks(cfgs, grid, quantity, mode)))


def assert_rows_bitwise(cfgs, grid, quantity, table, mode="closed"):
    assert table.shape == (len(cfgs), grid.n_points)
    for i, cfg in enumerate(cfgs):
        want = one_config(cfg, grid, quantity, mode)
        assert np.array_equal(table[i], want, equal_nan=True), (i, cfg)


@pytest.mark.parametrize("quantity", TABLE_QUANTITIES)
@pytest.mark.parametrize("family", ["ohmic", "lorentzian"])
def test_table_equals_per_config_bitwise(family, quantity):
    cfgs = [cfg for _, cfg in configs(family, AXES[family])]
    grid = TimeGrid(20.0, 301)
    assert_rows_bitwise(cfgs, grid, quantity, stacked(cfgs, grid, quantity))


@pytest.mark.parametrize("family", ["ohmic", "lorentzian"])
def test_metric_series_of_a_block_equals_per_config_bitwise(family):
    cfgs = [cfg for _, cfg in configs(family, AXES[family])]
    times = TimeGrid(20.0, 301).times
    amps = amplitude_table(cfgs, times)
    for quantity in TABLE_QUANTITIES:
        block = metric_series(cfgs, amps, quantity)
        for i, cfg in enumerate(cfgs):
            row = metric_series([cfg], amplitude_table([cfg], times), quantity)
            assert np.array_equal(block[i], row[0], equal_nan=True), (i, quantity)


def test_metric_series_rejects_an_unknown_quantity():
    cfgs = [presets.make_config("ohmic", 0.5, 3.0)]
    amps = amplitude_table(cfgs, TimeGrid(1.0, 5).times)
    with pytest.raises(ValueError, match="unknown quantity 'fidelity'"):
        metric_series(cfgs, amps, "fidelity")


def test_blocks_not_a_multiple_of_the_block_size():
    grid = TimeGrid(20.0, 500)
    rows = presets._BLOCK_SAMPLES // grid.n_points
    couplings = np.linspace(0.0, 1.0, 2 * rows + 37)
    cfgs = [cfg for _, cfg in configs("ohmic", [("coupling", couplings)])]
    samples = len(cfgs) * grid.n_points
    assert samples > 2 * presets._BLOCK_SAMPLES
    assert samples % presets._BLOCK_SAMPLES and len(cfgs) % rows
    assert_rows_bitwise(cfgs, grid, "qfi_phi", stacked(cfgs, grid, "qfi_phi"))


def test_small_blocks_change_no_bit(monkeypatch):
    cfgs = [cfg for _, cfg in configs("lorentzian", AXES["lorentzian"])]
    grid = TimeGrid(10.0, 41)
    whole = stacked(cfgs, grid, "coherence")
    monkeypatch.setattr(presets, "_BLOCK_SAMPLES", 3 * grid.n_points + 5)
    assert np.array_equal(stacked(cfgs, grid, "coherence"), whole)


def test_sweep_streams_in_bounded_memory(tmp_path, monkeypatch):
    # the whole 1600 x 100 float64 table is 1.28 MB; a sweep holds one
    # 1024-sample block of it at a time, formatted and written as it comes
    monkeypatch.setattr(presets, "_BLOCK_SAMPLES", 1024)
    gc.collect()
    tracemalloc.start()
    try:
        cli.run_sweep("ohmic", ["coupling", "omega_c"], ["0:1:40", "0.1:3:40"],
                      "qfi_phi", 20.0, 100, tmp_path / "sweep.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1600 * 100 * 8


@pytest.mark.parametrize("quantity", ["qfi_phi", "decoherence_rate"])
@pytest.mark.parametrize("family", ["ohmic", "lorentzian"])
def test_numeric_mode_table_bitwise(family, quantity):
    cfgs = [cfg for _, cfg in configs(family, [("coupling", (0.5, 1.0))])]
    grid = TimeGrid(1.0, 4)
    table = stacked(cfgs, grid, quantity, mode="numeric")
    assert_rows_bitwise(cfgs, grid, quantity, table, mode="numeric")


def test_unknown_quantity_rejected_before_amplitude(monkeypatch):
    def no_amplitude(*args, **kwargs):
        raise AssertionError("amplitude computed before the input was rejected")

    monkeypatch.setattr(presets, "amplitude_table", no_amplitude)
    cfgs = [presets.make_config("ohmic", 0.5, 3.0)]
    with pytest.raises(ValueError, match="unknown quantity"):
        quantity_values(cfgs[0], TimeGrid(1.0, 5), "fidelity")
    # the block form checks on the call, before its first block is read
    with pytest.raises(ValueError, match="unknown quantity"):
        table_blocks(cfgs, TimeGrid(1.0, 5), "fidelity")


@pytest.mark.parametrize("family, reservoir", [("ohmic", 0.3), ("lorentzian", 0.1)])
def test_closed_rates_rows_equal_scalar_calls(family, reservoir):
    cfgs = [presets.make_config(family, g, reservoir) for g in (0.0, 0.3, 1.0)]
    models = [c.spectral for c in cfgs]
    times = TimeGrid(20.0, 201).times
    for omega in ([c.omega_1 for c in cfgs], [c.omega_2 for c in cfgs]):
        gamma, beta = closed_rates(models, omega, times)
        for i, (m, w) in enumerate(zip(models, omega)):
            assert np.array_equal(gamma[i], gamma_closed(m, w, times))
            assert np.array_equal(beta[i], beta_closed(m, w, times))


@pytest.mark.parametrize("family, kernel", [("ohmic", "_ohmic_rates"),
                                            ("lorentzian", "_lorentz_rates")])
def test_closed_rates_evaluates_the_kernel_once(monkeypatch, family, kernel):
    # gamma and beta of a whole block come from one kernel evaluation
    real = getattr(spectral, kernel)
    calls = []
    monkeypatch.setattr(spectral, kernel,
                        lambda *args: calls.append(1) or real(*args))
    cfgs = [presets.make_config(family, g, 0.3) for g in (0.0, 0.5, 1.0)]
    closed_rates([c.spectral for c in cfgs], [c.omega_1 for c in cfgs],
                 TimeGrid(5.0, 11).times)
    assert len(calls) == 1


def test_closed_rates_rejects_mixed_families():
    times = np.linspace(0.0, 1.0, 5)
    ohmic = SpectralModel.ohmic_lorentz_drude(3.0)
    lorentz = SpectralModel.lorentzian(1.0, 1.0, detuning=0.0, omega0=1.0)
    with pytest.raises(ValueError, match="one spectral family"):
        closed_rates([ohmic, lorentz], [1.0, 1.0], times)


def test_failed_check_names_the_config(monkeypatch):
    real = dynamics.closed_rates

    def growing(models, omega_j, times):
        gamma, beta = real(models, omega_j, times)
        return gamma, -beta     # |p| grows past 1

    monkeypatch.setattr(dynamics, "closed_rates", growing)
    cfgs = [presets.make_config("ohmic", g, 0.7) for g in (0.25, 0.75)]
    with pytest.raises(AmplitudeRangeError, match="coupling=0.25, omega_c=0.7"):
        amplitude_table(cfgs, TimeGrid(5.0, 11).times)


# Valid domain: every value the config constructors accept, within these
# bounds (omega0 = 1; the Ohmic coupling domain is [0, omega0]).
valid_table = st.fixed_dictionaries({
    "family": st.sampled_from(["ohmic", "lorentzian"]),
    "couplings": st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
    "scale": st.floats(1.0, 50.0),      # Lorentzian couplings reach 50 R
    "reservoir": st.floats(1e-3, 1e3),
    "theta": st.floats(0.0, math.pi),
    "phi": st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    "detuning": st.one_of(st.none(), st.floats(-50.0, 50.0)),
    "t_end": st.floats(1e-3, 100.0),
    "n_points": st.integers(1, 300),
})


@given(valid_table)
@settings(max_examples=150, deadline=None)
def test_valid_tables_stay_physical(case):
    family = case["family"]
    scale = 1.0 if family == "ohmic" else case["scale"]
    fixed = [(presets.RESERVOIR[family], case["reservoir"]),
             ("theta", case["theta"]), ("phi", case["phi"])]
    if family == "lorentzian" and case["detuning"] is not None:
        fixed.append(("detuning", case["detuning"]))
    cfgs = [cfg for _, cfg in configs(
        family, [("coupling", [g * scale for g in case["couplings"]])], fixed)]
    grid = TimeGrid(case["t_end"], case["n_points"])
    amps = amplitude_table(cfgs, grid.times)
    assert np.max(np.abs(amps.p)) <= 1.0 + 1e-9
    d = physicality(atom_state(cfgs, amps.p))
    assert d["hermiticity"] <= 1e-12
    assert d["trace"] <= 1e-12
    assert d["min_eigenvalue"] >= -1e-9
    for quantity in ("qfi_phi", "qfi_theta", "coherence"):
        values = stacked(cfgs, grid, quantity)
        assert np.all((values >= 0.0) & (values <= 1.0 + 1e-9))


BOTH = ("ohmic", "lorentzian")
NON_POSITIVE = (math.nan, math.inf, -math.inf, -1.0, 0.0)
# (parameter, word the message must name, rejected values, families)
INVALID = [
    ("coupling", "coupling", (math.nan, math.inf, -0.5), BOTH),
    ("coupling", "coupling", (1.5, 40.0), ("ohmic",)),     # above omega0
    ("omega_c", "omega_c", NON_POSITIVE, ("ohmic",)),
    ("width", "width", NON_POSITIVE, ("lorentzian",)),
    ("theta", "theta", (math.nan, -0.1, 3.2, math.inf), BOTH),
    ("phi", "phi", (math.nan, -0.1, 2.0 * math.pi, 7.0), BOTH),
    ("detuning", "detuning", (math.nan, math.inf, -math.inf), ("lorentzian",)),
    ("steps", "n_points", (0, -3), BOTH),
    ("t_end", "t_end", NON_POSITIVE, BOTH),
]
CUSTOM_FLAGS = ("coupling", "omega_c", "width", "steps", "t_end")


def flag(name, value):
    """The attached form, which argparse also accepts for negative values."""
    return f"--{name.replace('_', '-')}={value!r}"


@st.composite
def invalid_input(draw):
    """(argv, word): a `sweep` or `run custom` call with one rejected value."""
    name, word, values, families = draw(st.sampled_from(INVALID))
    value = draw(st.sampled_from(values))
    family = draw(st.sampled_from(families))
    given_values = {"steps": 5, "t_end": 1.0, "coupling": 0.5,
                    presets.RESERVOIR[family]: 3.0, name: value}
    grid_flags = [flag(n, given_values[n]) for n in ("steps", "t_end")]
    if name in CUSTOM_FLAGS and draw(st.booleans()):
        return (["run", "custom", "--family", family, *grid_flags]
                + [flag(n, given_values[n])
                   for n in ("coupling", presets.RESERVOIR[family])], word)
    argv = ["sweep", "--model", family, *grid_flags]
    if name in ("steps", "t_end"):
        argv += ["--param", "coupling", "--range=0:1:2"]
    elif draw(st.booleans()):
        other = "phi" if name == "theta" else "theta"
        argv += ["--param", other, "--range=0.5:1:2", f"--fix={name}={value!r}"]
    else:
        argv += ["--param", name, f"--range={value!r}:{value!r}:1"]
    return argv, word


@given(invalid_input())
@settings(max_examples=80, deadline=None)
def test_invalid_input_exits_2_naming_it(case):
    argv, word = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        out = Path(tmp) / "out.csv"
        code = main(argv + ["--out", str(out)])
        wrote = out.exists()
    assert code == 2, (argv, err.getvalue())
    assert word in err.getvalue(), (argv, err.getvalue())
    assert not wrote


@given(t_end=st.floats(1e-300, 1e308), steps=st.integers(1, 64),
       preset=st.sampled_from(sorted(CURVE_PRESETS)),
       quantity=st.sampled_from(TABLE_QUANTITIES))
@settings(max_examples=60, deadline=None)
def test_extreme_finite_grids_exit_2_or_hold_no_nan(t_end, steps, preset, quantity):
    # closed mode on a curve preset and on a 2-config sweep: a grid either
    # is rejected naming the parameter or config, with no file, or gives a
    # CSV whose only NaNs sit in the two singular quantities
    grid = ["--t-end", repr(t_end), "--steps", str(steps)]
    runs = [(["run", preset], CURVE_PRESETS[preset].quantity, steps),
            (["sweep", "--model", "ohmic", "--param", "coupling",
              "--range", "0.5:1:2", "--quantity", quantity], quantity, 2 * steps)]
    with tempfile.TemporaryDirectory() as tmp:
        for argv, q, rows in runs:
            out = Path(tmp) / "out.csv"
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(argv + grid + ["--out", str(out)])
            if code == 2:
                assert re.search(r"t_end|n_points|coupling=", err.getvalue())
                assert not out.exists()
                continue
            assert code == 0
            body = [ln for ln in out.read_text().splitlines()
                    if not ln.startswith("#")]
            assert len(body) == rows + 1  # the header, then the rows
            if q not in presets.RATE_QUANTITIES:
                assert "nan" not in "\n".join(body)
