"""The command line's input handling as a property: any `run custom` or
`sweep` argv built from edge-case floats either succeeds silently or fails
in one line with nothing left behind.

Each case runs in-process through `cli.main`, with warnings as errors, in a
directory of its own.  Step counts stay at most 7 and range counts at most 4,
so no case allocates much; the rows of `test_console_script.py` cover the
counts and products that cannot be allocated.
"""

import contextlib
import io
import os
import re
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from cavityqfi import cli
from cavityqfi.presets import PARAMS, QUANTITIES, RESERVOIR, TABLE_QUANTITIES

EDGE = ["nan", "inf", "-inf", "-0.0", "0", "5e-324", "1e-300", "1e-150", "1e-8",
        "0.01", "0.3", "0.5", "1", "1.5", "3", "40", "1e6", "1e16", "1e308",
        "1.7976931348623157e308", "-1", "-1.7976931348623157e308"]
# what an exit-2 line may name: a flag, or a config, grid or rate field
FIELDS = {"omega0", "coupling", "theta", "phi", "omega_c", "rate", "width",
          "detuning", "t_end", "n_points", "omega_j", "t"}

floats = st.sampled_from(EDGE)


@st.composite
def grid(draw):
    # --steps is always given, since its defaults (2000 and 500) are large
    argv = ["--steps", str(draw(st.integers(-1, 7)))]
    return argv + (["--t-end", draw(floats)] if draw(st.booleans()) else [])


@st.composite
def run_custom(draw):
    family = draw(st.sampled_from(sorted(RESERVOIR)))
    argv = ["run", "custom", "--family", family]
    # mostly the family's own reservoir flag, sometimes the other one too
    for name in draw(st.sampled_from([[RESERVOIR[family]], list(RESERVOIR.values()), []])):
        argv += [cli._flag(name), draw(floats)]
    for g in draw(st.lists(floats, min_size=1, max_size=2)):
        argv += ["--coupling", g]
    argv += ["--quantity", draw(st.sampled_from(QUANTITIES))]
    argv += ["--mode", draw(st.sampled_from(["closed", "numeric"]))]
    return argv + draw(grid())


@st.composite
def sweep(draw):
    model = draw(st.sampled_from(sorted(PARAMS)))
    names = st.sampled_from(PARAMS[model] + ("omega0",))
    argv = ["sweep", "--model", model]
    for name in draw(st.lists(names, min_size=1, max_size=2)):
        a, b, n = draw(floats), draw(floats), draw(st.integers(0, 4))
        argv += ["--param", name, f"--range={a}:{b}:{n}"]
    if draw(st.booleans()):
        argv += ["--fix", f"{draw(names)}={draw(floats)}"]
    argv += ["--quantity", draw(st.sampled_from(TABLE_QUANTITIES))]
    return argv + draw(grid())


def names_a_flag_or_field(line):
    return "--" in line or bool(FIELDS & set(re.findall(r"\w+", line)))


@settings(max_examples=250, deadline=None)
@given(st.one_of(run_custom(), sweep()))
def test_cli_succeeds_or_fails_in_one_line(argv):
    with tempfile.TemporaryDirectory() as d, warnings.catch_warnings():
        warnings.simplefilter("error")
        out = os.path.join(d, "out.csv")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main(argv + ["--out", out])
            except SystemExit as exc:  # argparse's usage error
                code, usage = exc.code, True
            else:
                usage = False
        lines = stderr.getvalue().splitlines()
        left = os.listdir(d)
        if code == 0:
            assert lines == [] and left == ["out.csv"]
            return
        assert left == [], (code, lines, left)
        if usage:
            assert code == 2 and lines[-1].startswith("cavityqfi ") and ": error: " in lines[-1]
        elif code == 2:
            assert len(lines) == 1 and lines[0].startswith("configuration error: ")
            assert names_a_flag_or_field(lines[0]), lines
        else:
            assert code == 1 and len(lines) == 1, lines
            assert lines[0].startswith(("tolerance error: ", "i/o error: ")), lines
