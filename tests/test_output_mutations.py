"""The output path's tests bite: injected defects between the tables and
the CSV bytes, each failing the tests named for it.

Each defect is a one-line edit of a function's source, compiled in its
module's namespace and patched in under every name a module binds it, so
no file of the package changes.  Per defect only the named tests run, in
process, so the file stays at a few seconds: each first on the package as
it is, where it must pass, then on the defect, where its assertion must
fail (a CLI test's also when the CLI rejects what it was asked to write).

The defects:

- `cli._config_rows` keeps the first window's formatted times for every
  later window (stale times), so a sweep's rows repeat its first times;
- `TimeGrid.window` drops its ``t[-1] = self.t_end``, so a grid's last
  time is ``(n - 1) * (t_end / (n - 1))``, off by an ulp at some grids;
- `presets.table_tiles` reads one config too many per tile range, or
  drops a grid's last window where it is shorter than the others;
- `dynamics.amplitude_table` returns its block unchecked, so a tile with a
  NaN amplitude is written;
- `cli._config_rows` (sweep and contour rows) or `cli._curve_block` (curve
  rows) formats values with ``%.11g``.

A dropped grid end moves only fig4a's and fig4c's last time (50 after
12799 steps), by one ulp, which no CSV shows at 12 digits: only the tests
of `TimeGrid.window` against `np.linspace` see it.  Hypothesis tests that
are methods (`TestTimeGrid.test_window_is_linspace_slice`) are not named,
since Hypothesis rejects a second caller of one method.
"""

import __future__
import inspect
import sys
import textwrap

import pytest

from cavityqfi import cli, dynamics, mesolve, presets, verify
from cavityqfi.dynamics import TimeGrid

import test_dynamics
import test_presets_cli
from test_presets_cli import GOLDEN, GOLDEN_IDS

GOLDEN_CASES = dict(zip(GOLDEN_IDS, GOLDEN))


def _mutate(monkeypatch, owner, name, old, new, modules=()):
    """Patch ``owner.name``, and its binding in each of ``modules``, with its
    source where the one ``old`` reads ``new``."""
    func = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, (name, old)
    module, defined = sys.modules[func.__module__], {}
    # the module's own globals, so a patch of a module constant reaches it
    exec(compile(source.replace(old, new), module.__file__, "exec",
                 __future__.annotations.compiler_flag, dont_inherit=True),
         vars(module), defined)
    for target in (owner, *modules):
        monkeypatch.setattr(target, name, defined[name])


def stale_window_times(monkeypatch):
    _mutate(monkeypatch, cli, "_config_rows",
            "if last is None or not np.array_equal(times, last):",
            "if last is None:")


def dropped_grid_end(monkeypatch):
    _mutate(monkeypatch, TimeGrid, "window", "t[-1] = self.t_end", "pass")


def tile_range_off_by_one(monkeypatch):
    _mutate(monkeypatch, presets, "table_tiles",
            "block = table[first:first + rows]", "block = table[first:first + rows + 1]",
            modules=(cli,))


def dropped_last_window(monkeypatch):
    _mutate(monkeypatch, presets, "table_tiles",
            "for start in range(0, grid.n_points, width):",
            "for start in range(0, grid.n_points - width + 1, width):", modules=(cli,))


def unchecked_amplitudes(monkeypatch):
    _mutate(monkeypatch, dynamics, "amplitude_table",
            "_check_amplitude(table, times, p)", "pass", modules=(presets, mesolve, verify))


def eleven_digit_values(monkeypatch):
    _mutate(monkeypatch, cli, "_config_rows", 'b",%.12g\\n"', 'b",%.11g\\n"',
            modules=(test_presets_cli,))


def eleven_digit_curve_values(monkeypatch):
    _mutate(monkeypatch, cli, "_curve_block", 'b",%.12g" * len(values)',
            'b",%.11g" * len(values)', modules=(test_presets_cli,))


def golden(case, small_blocks=False):
    """The named GOLDEN test, whole-grid tiles or the tiles of 1 and 7 samples."""
    def run(tmp_path, capsys):
        argv, digest = GOLDEN_CASES[case]
        if small_blocks:
            with pytest.MonkeyPatch.context() as mp:
                test_presets_cli.test_golden_bytes_in_small_blocks(
                    tmp_path, mp, argv, digest)
        else:
            test_presets_cli.test_golden_bytes(tmp_path, argv, digest)
    run.__name__ = f"test_golden_bytes{'_in_small_blocks' if small_blocks else ''}[{case}]"
    return run


def window_full_and_empty(t_end, n):
    def run(tmp_path, capsys):
        test_dynamics.TestTimeGrid().test_window_full_and_empty(t_end, n)
    run.__name__ = f"TestTimeGrid::test_window_full_and_empty[{t_end}-{n}]"
    return run


def csv_rows_match_per_value_format(tmp_path, capsys):
    test_presets_cli.test_csv_rows_match_per_value_format()


def curve_rows_match_per_value_format(tmp_path, capsys):
    test_presets_cli.test_curve_rows_match_per_value_format()


def nan_amplitude_exits_2(tmp_path, capsys):
    # omega_2 t overflows at t = 1e308, so p is NaN there
    test_presets_cli.TestCli().test_bad_value_exits_2_naming_it(
        tmp_path, capsys, ["run", "fig1a", "--steps", "3", "--t-end", "1e308"],
        "coupling=1.0, omega_c=3.0")


def late_block_failure_keeps_the_target(tmp_path, capsys):
    test_presets_cli.test_late_block_failure_keeps_the_target(tmp_path, capsys, None)


DEFECTS = [
    (stale_window_times, [golden("sweep", small_blocks=True),
                          golden("sweep-coherence", small_blocks=True),
                          golden("fig2b-overrides", small_blocks=True)]),
    (dropped_grid_end, [window_full_and_empty(50.0, 12800)]),
    (tile_range_off_by_one, [golden("sweep-theta-phi-qfi"),
                             golden("sweep", small_blocks=True),
                             golden("fig2b-overrides", small_blocks=True)]),
    (dropped_last_window, [golden("custom-multi-tile"),
                           golden("sweep", small_blocks=True)]),
    (unchecked_amplitudes, [nan_amplitude_exits_2, late_block_failure_keeps_the_target]),
    (eleven_digit_values, [csv_rows_match_per_value_format, golden("sweep"),
                           golden("fig2a")]),
    (eleven_digit_curve_values, [curve_rows_match_per_value_format, golden("fig1a"),
                                 golden("custom-multi-tile")]),
]


@pytest.mark.parametrize("inject, tests", DEFECTS,
                         ids=[inject.__name__ for inject, _ in DEFECTS])
def test_defect_fails_its_tests(tmp_path, capsys, monkeypatch, inject, tests):
    for k, test in enumerate(tests):  # each passes on the package as it is
        (where := tmp_path / f"ok{k}").mkdir()
        test(where, capsys)
    inject(monkeypatch)
    survived = []
    for k, test in enumerate(tests):
        (where := tmp_path / str(k)).mkdir()  # each test its own directory
        try:
            test(where, capsys)
        except AssertionError:
            continue
        survived.append(test.__name__)
    assert not survived, f"{inject.__name__} survives {survived}"
