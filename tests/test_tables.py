"""The batched table path: `presets.table_tiles` over (config range x time
window) tiles.

Each row of a `config_table` must equal the one-config route built from the
primitives (`amplitude`, then `qfi_closed`, `coherence_l1` of `atom_state`,
`decoherence_rate` or `lamb_shift`) bit for bit, however the rows and times
fall into tiles.  Property tests cover the valid parameter domain, and
invalid input both on the command line and in tables.
"""

import contextlib
import gc
import io
import itertools
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
from cavityqfi import cli, dynamics, mesolve, presets, spectral, verify
from cavityqfi.cli import main
from cavityqfi.dynamics import ConfigTable, amplitude_table
from cavityqfi.presets import CURVE_PRESETS, TABLE_QUANTITIES, config_table, \
    CurvePreset, make_config, quantity_values, table_tiles
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


def rows(table):
    """The configs of a table, one per row."""
    return [table.row(i) for i in range(len(table))]


def stacked(table, grid, quantity, mode="closed"):
    """`table_tiles` laid into one (len(table), n_points) array: each config
    range's windows side by side, the ranges one under another."""
    ranges = {}
    for first, _, values in table_tiles(table, grid, quantity, mode):
        ranges.setdefault(first, []).append(values)
    return np.concatenate([np.concatenate(r, axis=1) for r in ranges.values()])


def assert_rows_bitwise(table, grid, quantity, values, mode="closed"):
    assert values.shape == (len(table), grid.n_points)
    for i, cfg in enumerate(rows(table)):
        want = one_config(cfg, grid, quantity, mode)
        assert np.array_equal(values[i], want, equal_nan=True), (i, cfg)


@pytest.mark.parametrize("quantity", TABLE_QUANTITIES)
@pytest.mark.parametrize("family", ["ohmic", "lorentzian"])
def test_table_equals_per_config_bitwise(family, quantity):
    table = config_table(family, AXES[family])
    grid = TimeGrid(20.0, 301)
    assert_rows_bitwise(table, grid, quantity, stacked(table, grid, quantity))


@pytest.mark.parametrize("family", ["ohmic", "lorentzian"])
def test_metric_series_of_a_block_equals_per_config_bitwise(family):
    table = config_table(family, AXES[family])
    times = TimeGrid(20.0, 301).times
    amps = amplitude_table(table, times)
    for quantity in TABLE_QUANTITIES:
        block = metric_series(table, amps, quantity)
        for i, cfg in enumerate(rows(table)):
            one = ConfigTable.of(cfg)
            row = metric_series(one, amplitude_table(one, times), quantity)
            assert np.array_equal(block[i], row[0], equal_nan=True), (i, quantity)


def test_metric_series_rejects_an_unknown_quantity():
    table = ConfigTable.of(make_config("ohmic", 0.5, 3.0))
    amps = amplitude_table(table, TimeGrid(1.0, 5).times)
    with pytest.raises(ValueError, match="unknown quantity 'fidelity'"):
        metric_series(table, amps, "fidelity")


def test_blocks_not_a_multiple_of_the_block_size():
    grid = TimeGrid(20.0, 500)
    per_block = dynamics._BLOCK_SAMPLES // grid.n_points
    couplings = np.linspace(0.0, 1.0, 2 * per_block + 37)
    table = config_table("ohmic", [("coupling", couplings)])
    samples = len(table) * grid.n_points
    assert samples > 2 * dynamics._BLOCK_SAMPLES
    assert samples % dynamics._BLOCK_SAMPLES and len(table) % per_block
    assert_rows_bitwise(table, grid, "qfi_phi", stacked(table, grid, "qfi_phi"))


@given(block=st.integers(1, 1500), family=st.sampled_from(["ohmic", "lorentzian"]),
       couplings=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
       thetas=st.lists(st.floats(0.0, math.pi), min_size=1, max_size=2),
       reservoir=st.floats(1e-3, 1e3), t_end=st.floats(1e-3, 100.0),
       n_points=st.integers(1, 120), quantity=st.sampled_from(TABLE_QUANTITIES),
       by_time=st.booleans())
@settings(max_examples=80, deadline=None)
def test_small_blocks_change_no_bit(block, family, couplings, thetas, reservoir,
                                    t_end, n_points, quantity, by_time):
    # every tile is its slice of the whole-grid block, bit for bit, and the
    # tiles cover the table once: each config range's windows in time order,
    # then the next range
    table = config_table(family, [("coupling", couplings), ("theta", thetas)],
                         [(presets.RESERVOIR[family], reservoir)])
    grid = TimeGrid(t_end, n_points)
    whole = metric_series(table, amplitude_table(table, grid.times), quantity)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_BLOCK_SAMPLES", block)
        tiles = list(table_tiles(table, grid, quantity, by_time=by_time))
    row, start = 0, 0   # where the next tile must begin
    for first, times, values in tiles:
        rows, width = values.shape
        assert first == row
        assert np.array_equal(times, grid.times[start:start + width])
        assert np.array_equal(values, whole[first:first + rows, start:start + width],
                              equal_nan=True)
        if by_time:  # every config, at least one time
            assert rows == len(table)
            assert values.size <= block or width == 1
        else:
            assert values.size <= block
        start += width
        if start == grid.n_points:
            row, start = row + rows, 0
    assert (row, start) == (len(table), 0)


def test_sweep_streams_in_bounded_memory(tmp_path, monkeypatch):
    monkeypatch.setattr(dynamics, "_BLOCK_SAMPLES", 1024)
    out = tmp_path / "out.csv"

    def sweep(params, ranges, steps):
        return lambda: cli.run_sweep("ohmic", params, ranges, "qfi_phi", 20.0,
                                     steps, out)

    two_couplings = CurvePreset("custom", "ohmic", "qfi_phi", (0.5, 1.0), 3.0,
                                20.0, 2000)
    for name, run, bound in [
        # the whole 1600 x 100 float64 table is 1.28 MB; a sweep holds one
        # 1024-sample tile of it at a time, formatted and written as it comes
        ("40x40x100", sweep(["coupling", "omega_c"], ["0:1:40", "0.1:3:40"], 100),
         1600 * 100 * 8),
        # 40000 configs of 2 steps: a list of config objects and their
        # prefix strings took 18.4 MB; the parameter columns take 0.64 MB
        ("200x200x2", sweep(["coupling", "omega_c"], ["0:1:200", "0.1:3:200"], 2),
         6e6),
        # 2 configs of 20000 steps, and a curve of 2 couplings: one whole
        # config row, or the whole curve, and every formatted time took 3.7
        # and 3.1 MB; a tile of 1024 samples and its times take under 0.3 MB
        ("sweep-2x20000", sweep(["coupling"], ["0:1:2"], 20000), 1e6),
        ("curve-2x20000", lambda: cli.run_curve_preset(
            cli.Scenario("custom", out, n_points=20000), two_couplings), 1e6),
    ]:
        gc.collect()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (name, peak)


@pytest.mark.parametrize("quantity", ["qfi_phi", "decoherence_rate"])
@pytest.mark.parametrize("family", ["ohmic", "lorentzian"])
def test_numeric_mode_table_bitwise(family, quantity):
    table = config_table(family, [("coupling", (0.5, 1.0))])
    grid = TimeGrid(1.0, 4)
    values = stacked(table, grid, quantity, mode="numeric")
    assert_rows_bitwise(table, grid, quantity, values, mode="numeric")


def test_unknown_quantity_rejected_before_amplitude(monkeypatch):
    def no_amplitude(*args, **kwargs):
        raise AssertionError("amplitude computed before the input was rejected")

    monkeypatch.setattr(presets, "amplitude_table", no_amplitude)
    cfg = make_config("ohmic", 0.5, 3.0)
    with pytest.raises(ValueError, match="unknown quantity"):
        quantity_values(cfg, TimeGrid(1.0, 5), "fidelity")
    # the tile form checks on the call, before its first tile is read
    with pytest.raises(ValueError, match="unknown quantity"):
        table_tiles(ConfigTable.of(cfg), TimeGrid(1.0, 5), "fidelity")


def test_unknown_mode_rejected_on_the_call():
    # as the quantity: before the iterator exists, so before a tile width
    # is picked for it
    table = ConfigTable.of(make_config("ohmic", 0.5, 3.0))
    with pytest.raises(ValueError, match="mode must be 'closed' or 'numeric', got 'Numeric'"):
        table_tiles(table, TimeGrid(1.0, 5), "qfi_phi", mode="Numeric")


def test_one_block_size_binding():
    # every blocked loop reads dynamics._BLOCK_SAMPLES when it runs, so a
    # patch of that one name reaches them all
    for module in (cli, mesolve, presets, verify):
        assert not hasattr(module, "_BLOCK_SAMPLES"), module.__name__


def columns(table):
    """The table's columns as (n, 1) arrays, as `amplitude_table` passes them."""
    return {k: v[:, None] for k, v in table.columns.items()}


@pytest.mark.parametrize("family, reservoir", [("ohmic", 0.3), ("lorentzian", 0.1)])
def test_closed_rates_rows_equal_scalar_calls(family, reservoir):
    table = config_table(family, [("coupling", (0.0, 0.3, 1.0))],
                         [(presets.RESERVOIR[family], reservoir)])
    times = TimeGrid(20.0, 201).times
    for omega in (table.omega_1, table.omega_2):
        gamma, beta = closed_rates(table.kind, columns(table), omega[:, None], times)
        for i, cfg in enumerate(rows(table)):
            m, w = cfg.spectral, float(omega[i])
            assert np.array_equal(gamma[i], gamma_closed(m, w, times))
            assert np.array_equal(beta[i], beta_closed(m, w, times))


@pytest.mark.parametrize("family, reservoir", [("ohmic", 0.3), ("lorentzian", 0.1)])
def test_closed_rates_half_alone_equals_its_half_of_both(family, reservoir):
    # gamma_closed (and through it the RK4 oracle), beta_closed and
    # amplitude_table without p_dot ask the kernel for one half only
    table = config_table(family, [("coupling", (0.0, 0.3, 1.0))],
                         [(presets.RESERVOIR[family], reservoir)])
    times = TimeGrid(20.0, 201).times
    for fields, omega in ((columns(table), table.omega_2[:, None]),
                          (table.row(2).spectral.fields(), float(table.omega_2[2]))):
        both = closed_rates(table.kind, fields, omega, times)
        for half in (0, 1):
            alone = closed_rates(table.kind, fields, omega, times, (half,))
            assert alone[1 - half] is None
            assert np.array_equal(alone[half].view(np.int64), both[half].view(np.int64))


def test_state_elements_are_those_of_atom_state():
    # the time-local residual reads rho_ee and rho_eg without the 2x2 stack
    table = config_table("lorentzian", [("coupling", (0.0, 0.5, 40.0)), THETAS],
                         [("width", 0.1), ("phi", 0.7)])
    p = amplitude_table(table, TimeGrid(10.0, 101).times, derivative=False).p
    for states, amps in ((table, p), (table.row(4), p[4])):
        rho = atom_state(states, amps)
        ee, eg = dynamics._state_elements(states, amps)
        assert ee.dtype == float and ee.tobytes() == rho[..., 0, 0].real.tobytes()
        assert eg.tobytes() == rho[..., 0, 1].tobytes()


@pytest.mark.parametrize("family, kernel", [("ohmic", "_ohmic_rates"),
                                            ("lorentzian", "_lorentz_rates")])
def test_closed_rates_evaluates_the_kernel_once(monkeypatch, family, kernel):
    # gamma and beta of a whole block come from one kernel evaluation
    real = getattr(spectral, kernel)
    calls = []
    monkeypatch.setattr(spectral, kernel,
                        lambda *args: calls.append(1) or real(*args))
    table = config_table(family, [("coupling", (0.0, 0.5, 1.0))],
                         [(presets.RESERVOIR[family], 0.3)])
    closed_rates(table.kind, columns(table), table.omega_1[:, None],
                 TimeGrid(5.0, 11).times)
    assert len(calls) == 1


@pytest.fixture
def growing_p(monkeypatch):
    """Negated beta: |p| grows past 1, so every amplitude check fails."""
    real = dynamics.closed_rates

    def growing(*args):
        gamma, beta = real(*args)
        return gamma, -beta     # |p| grows past 1

    monkeypatch.setattr(dynamics, "closed_rates", growing)


def test_failed_check_names_the_config(growing_p):
    table = config_table("ohmic", [("coupling", (0.25, 0.75))], [("omega_c", 0.7)])
    with pytest.raises(AmplitudeRangeError, match="coupling=0.25, omega_c=0.7"):
        amplitude_table(table, TimeGrid(5.0, 11).times)


@pytest.mark.parametrize("family", ["ohmic", "lorentzian"])
def test_failed_check_names_the_family_parameters(growing_p, family):
    # dynamics cannot import presets, so _describe keeps its own list of names
    table = config_table(family, [("coupling", (0.25, 0.75))],
                         [(presets.RESERVOIR[family], 0.7)])
    with pytest.raises(AmplitudeRangeError) as info:
        amplitude_table(table, TimeGrid(5.0, 11).times)
    config = str(info.value).split(": ")[0]
    assert tuple(re.findall(r"(\w+)=", config)) == presets.PARAMS[family]


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


COLUMNS = {"ohmic": ["omega0", "coupling", "theta", "phi", "omega_c"],
           "lorentzian": ["omega0", "coupling", "theta", "phi", "rate", "width", "detuning"]}


@given(valid_table)
@settings(max_examples=150, deadline=None)
def test_valid_tables_stay_physical(case):
    family = case["family"]
    scale = 1.0 if family == "ohmic" else case["scale"]
    fixed = [(presets.RESERVOIR[family], case["reservoir"]),
             ("theta", case["theta"]), ("phi", case["phi"])]
    if family == "lorentzian" and case["detuning"] is not None:
        fixed.append(("detuning", case["detuning"]))
    table = config_table(
        family, [("coupling", [g * scale for g in case["couplings"]])], fixed)
    # one omega0 column, the atom's, which a Lorentzian line shares
    assert list(table.columns) == COLUMNS[family]
    cfg = table.row(0)
    assert ConfigTable.of(cfg).row(0) == cfg
    grid = TimeGrid(case["t_end"], case["n_points"])
    amps = amplitude_table(table, grid.times)
    assert np.max(np.abs(amps.p)) <= 1.0 + 1e-9
    d = physicality(atom_state(table, amps.p))
    assert d["hermiticity"] <= 1e-12
    assert d["trace"] <= 1e-12
    assert d["min_eigenvalue"] >= -1e-9
    for quantity in ("qfi_phi", "qfi_theta", "coherence"):
        values = stacked(table, grid, quantity)
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
# values every config accepts, per table parameter; the coupling's range
# depends on the family (an Ohmic coupling is at most omega0 = 1)
VALID = {"omega_c": st.floats(1e-3, 1e3), "width": st.floats(1e-3, 1e3),
         "theta": st.floats(0.0, math.pi),
         "phi": st.floats(0.0, 2.0 * math.pi, exclude_max=True),
         "detuning": st.floats(-50.0, 50.0)}


def rejected(name, family):
    """The INVALID values of a table parameter for a family."""
    return [v for n, _, values, families in INVALID
            if n == name and family in families for v in values]


@st.composite
def invalid_table(draw):
    """(family, axes, fixed): 1 to 3 values for each swept parameter, one
    for each fixed one and defaults for the rest, one or more rejected."""
    family = draw(st.sampled_from(BOTH))
    names = draw(st.permutations(presets.PARAMS[family]))
    n_swept = draw(st.integers(1, len(names)))
    n_given = draw(st.integers(n_swept, len(names)))
    valid = {**VALID, "coupling": st.floats(0.0, 1.0 if family == "ohmic" else 50.0)}
    value = lambda n: st.one_of(valid[n], st.sampled_from(rejected(n, family)))
    given = {n: draw(st.lists(value(n), min_size=1, max_size=3)) for n in names[:n_swept]}
    given.update((n, [draw(value(n))]) for n in names[n_swept:n_given])
    bad = draw(st.sampled_from(names[:n_given]))
    given[bad][draw(st.integers(0, len(given[bad]) - 1))] = draw(
        st.sampled_from(rejected(bad, family)))
    return (family, [(n, given[n]) for n in names[:n_swept]],
            [(n, given[n][0]) for n in names[n_swept:n_given]])


def first_rejection(family, axes, fixed):
    """What the `SpectralModel` and `SystemConfig` constructors raise on the
    first point of the product they reject: the one-config route every
    table must agree with."""
    for point in itertools.product(*(values for _, values in axes)):
        kw = {**presets.DEFAULTS, **dict(fixed), **dict(zip([n for n, _ in axes], point))}
        try:
            if family == "ohmic":
                model = SpectralModel.ohmic_lorentz_drude(kw["omega_c"])
            else:
                # config_table fills in an unset detuning (the coupling) only
                # after its checks, so a bad coupling is reported as coupling
                detuning = 0.0 if kw["detuning"] is None else kw["detuning"]
                model = SpectralModel.lorentzian(presets.LORENTZ_RATE, kw["width"],
                                                 detuning, presets.LORENTZ_OMEGA0)
            SystemConfig(omega0=presets.OMEGA0[family], coupling=kw["coupling"],
                         theta=kw["theta"], phi=kw["phi"], spectral=model)
        except ValueError as exc:
            return str(exc)
    raise AssertionError("no point rejected")


def flag(name, value):
    """The attached form, which argparse also accepts for negative values."""
    return f"--{name.replace('_', '-')}={value!r}"


@st.composite
def invalid_input(draw):
    """(argv, word, table): a `sweep` or `run custom` call with one rejected
    value, and an `invalid_table`."""
    table = draw(invalid_table())
    name, word, values, families = draw(st.sampled_from(INVALID))
    value = draw(st.sampled_from(values))
    family = draw(st.sampled_from(families))
    given_values = {"steps": 5, "t_end": 1.0, "coupling": 0.5,
                    presets.RESERVOIR[family]: 3.0, name: value}
    grid_flags = [flag(n, given_values[n]) for n in ("steps", "t_end")]
    if name in CUSTOM_FLAGS and draw(st.booleans()):
        return (["run", "custom", "--family", family, *grid_flags]
                + [flag(n, given_values[n])
                   for n in ("coupling", presets.RESERVOIR[family])], word, table)
    argv = ["sweep", "--model", family, *grid_flags]
    if name in ("steps", "t_end"):
        argv += ["--param", "coupling", "--range=0:1:2"]
    elif draw(st.booleans()):
        other = "phi" if name == "theta" else "theta"
        argv += ["--param", other, "--range=0.5:1:2", f"--fix={name}={value!r}"]
    else:
        argv += ["--param", name, f"--range={value!r}:{value!r}:1"]
    return argv, word, table


@given(invalid_input())
@settings(max_examples=80, deadline=None)
def test_invalid_input_exits_2_naming_it(case):
    argv, word, (family, axes, fixed) = case
    # a table fails, in one pass, as the one-config route fails on its
    # first bad row: same row, same check, same text
    with pytest.raises(ValueError) as exc:
        config_table(family, axes, fixed)
    assert str(exc.value) == first_rejection(family, axes, fixed), (family, axes, fixed)
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
