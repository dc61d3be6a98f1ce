"""Command line interface: figure presets, verification suites, generic sweeps.

Outputs are plain CSV with `#`-prefixed metadata lines (parameter echo and
build version), 12 significant digits, and no timestamps, so identical
invocations produce byte-identical files.  Flagged singular samples of the
decoherence rate serialize as `nan`.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import math
import os
import re
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import TimeGrid
from .presets import (
    CONTOUR_PRESETS,
    CURVE_PRESETS,
    PHI_DEFAULT,
    PRESET_NAMES,
    QUANTITIES,
    RESERVOIR,
    TABLE_QUANTITIES,
    THETA_DEFAULT,
    TIME_UNIT,
    CurvePreset,
    config_table,
    contour_table,
    curve_table,
    table_tiles,
)
# make_config and quantity_values are not called here, but
# perfbench/tracer.py wraps these bindings
from .presets import make_config, quantity_values  # noqa: F401
from .spectral import QuadratureConvergenceError, check_domain

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2


@dataclass
class Scenario:
    """One runner invocation: a preset plus optional overrides."""

    preset: str
    out: Path
    n_points: int | None = None
    t_end: float | None = None
    mode: str = "closed"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _curve_block(times, values) -> bytes:
    """CSV rows ``t,v_1,...,v_k``, one per time, of a curve tile's (k, n_t)
    ``values`` as ASCII bytes: times and values by one bytes %.12g template,
    row by row."""
    rows = np.column_stack((times, values.T))
    template = (b"%.12g" + b",%.12g" * len(values) + b"\n") * len(times)
    return template % tuple(rows.ravel().tolist())


def _config_rows(tiles, columns):
    """CSV bytes of config-major `table_tiles`: rows ``t,f_1,...,f_k,v``, one
    per time of each config in turn, the fields its entries in ``columns``.
    A window's times are formatted once for as long as consecutive tiles
    repeat it, each config's fields once per tile, and a tile's (configs,
    times) ``values`` by one bytes %.12g template."""
    template = b",%.12g" * len(columns)
    last = None
    for first, times, values in tiles:
        if last is None or not np.array_equal(times, last):
            last, times_text = times, [b"%.12g" % t for t in times.tolist()]
        rows = zip(*(c[first:first + len(values)].tolist() for c in columns))
        row_ends = [template % r + b",%.12g\n" for r in rows]
        if values.shape != (len(row_ends), len(times_text)):
            raise ValueError(f"values of shape {values.shape} for {len(row_ends)} "
                             f"configs and {len(times_text)} times")
        tile = b"".join(row_end.join(times_text) + row_end for row_end in row_ends)
        yield tile % tuple(values.ravel().tolist())


def _write(path: Path, meta, header: str, blocks) -> Path:
    """Write ``path``'s CSV, return ``path``: the generator and the ``meta``
    (name, value) pairs as ``# name: value`` lines, the ``header``, then the bytes
    of ``blocks``, which may be computed and checked as they are read, to a new
    file that replaces ``path`` (a symlink: the file it names), keeping its mode,
    once all are written, so any failure leaves ``path`` as it was.  Binary mode:
    line ends are ``\\n`` on every OS, and no locale encoding is involved."""
    lines = [f"# {k}: {v}" for k, v in [("generator", f"cavityqfi {__version__}"), *meta]]
    real = path.resolve()
    tmp = real.with_name(f".{real.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(("\n".join(lines + [header]) + "\n").encode())
            fh.writelines(blocks)
        if real.is_file():
            shutil.copymode(real, tmp)
        os.replace(tmp, real)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise OSError(f"cannot write output file {path}: {exc}") from exc
        raise
    return path


def _overridden(preset, sc: Scenario):
    """The preset with the scenario's --steps/--t-end applied where given."""
    return dataclasses.replace(
        preset,
        t_end=preset.t_end if sc.t_end is None else sc.t_end,
        n_points=preset.n_points if sc.n_points is None else sc.n_points)


def _write_preset(sc: Scenario, preset, quantity, own, last, header, blocks) -> Path:
    """`_write` a preset's CSV: the metadata pairs every preset shares, with the
    preset kind's ``own`` pairs after its quantity and its ``last`` pair at the end."""
    meta = [("preset", preset.name), ("family", preset.family), ("quantity", quantity),
            *own, ("theta", _fmt(THETA_DEFAULT)), ("phi", _fmt(PHI_DEFAULT)),
            ("t_end", _fmt(preset.t_end)), ("points", preset.n_points), ("mode", sc.mode), last]
    return _write(sc.out, meta, header, blocks)


def run_curve_preset(sc: Scenario, preset: CurvePreset | None = None) -> Path:
    """Preset curves as CSV: one column per coupling value."""
    preset = _overridden(preset or CURVE_PRESETS[sc.preset], sc)
    tiles = curve_table(preset, sc.mode)
    own = [("reservoir", f"{RESERVOIR[preset.family]}={_fmt(preset.reservoir)}"),
           ("couplings", ",".join(str(g) for g in preset.couplings))]
    return _write_preset(sc, preset, preset.quantity, own,
                         ("time_unit", TIME_UNIT[preset.family]),
                         "t," + ",".join(f"value_omega_{g}" for g in preset.couplings),
                         (_curve_block(times, values) for _, times, values in tiles))


def run_contour_preset(sc: Scenario) -> Path:
    """Preset contour as long-format CSV (t, param, value)."""
    preset = _overridden(CONTOUR_PRESETS[sc.preset], sc)
    params, tiles = contour_table(preset, sc.mode)
    own = [("sweep", f"{preset.sweep} in [{_fmt(preset.lo)}, {_fmt(preset.hi)}]"
            f" x {preset.n_param}"), ("fixed", _fmt(preset.fixed))]
    return _write_preset(sc, preset, "qfi_phi", own, ("row_order", "param-major"),
                         "t,param,value", _config_rows(tiles, [params]))


def run_verify(suite_names=None) -> int:
    """Run verification suites, print one line each, return an exit code."""
    from .verify import run_suites

    try:
        results = run_suites(suite_names)
    except KeyError as exc:
        print(f"configuration error: --suite: {exc.args[0]}", file=sys.stderr)
        return EXIT_CONFIG
    for r in results:
        print(r.line())
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} suites passed")
    return EXIT_OK if n_fail == 0 else EXIT_TOLERANCE


def _parse_range(text: str, param: str) -> np.ndarray:
    try:
        a, b, n = text.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError:
        raise ValueError(f"--range must look like A:B:N, got {text!r}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"--range for {param}: endpoints must be finite, "
                         f"got {text!r}")
    if not math.isfinite(b - a):  # np.linspace would step by inf
        raise ValueError(f"--range for {param}: B - A overflows, got {text!r}")
    check_domain(None, {"n_points": n}, f"--range for {param}: count", repr(text))
    try:
        # with B - A finite only the last value can overflow, and linspace
        # sets that one to B
        with np.errstate(over="ignore"):
            return np.linspace(a, b, n)
    except (MemoryError, ValueError):  # numpy's errors for too many values
        raise ValueError(f"--range for {param}: {n} values do not fit in memory") from None


def run_sweep(family: str, params: list[str], ranges: list[str],
              quantity: str, t_end: float, n_points: int, out: Path,
              fixed=()) -> Path:
    """Cartesian sweep over named parameters, long-format CSV.

    ``fixed`` holds (name, value) pairs, one per ``--fix``.
    """
    if len(params) != len(ranges):
        raise ValueError("need one --range per --param")
    grid = TimeGrid(t_end, n_points)
    table = config_table(family, [(p, _parse_range(r, p))
                                  for p, r in zip(params, ranges)], fixed)
    meta = [
        ("family", family), ("quantity", quantity),
        ("swept", ",".join(params)),
        ("fixed", ",".join(f"{k}={v}" for k, v in sorted(fixed)) or "-"),
        ("t_end", _fmt(t_end)), ("points", n_points),
    ]
    return _write(out, meta, "t," + ",".join(params) + ",value",
                  _config_rows(table_tiles(table, grid, quantity),
                               [table.columns[p] for p in params]))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cavityqfi",
        description="Atom-in-lossy-cavity metrology curves, deterministic CSV out")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="reproduce a figure preset")
    run.add_argument("preset", choices=PRESET_NAMES + ("custom",))
    run.add_argument("--out", type=Path, default=None)
    run.add_argument("--steps", type=int, default=None,
                     help="override the number of time samples")
    run.add_argument("--t-end", type=float, default=None,
                     help="override the scaled end time")
    run.add_argument("--mode", choices=("closed", "numeric"), default="closed")
    run.add_argument("--family", choices=tuple(RESERVOIR),
                     help="custom preset only")
    run.add_argument("--quantity", choices=QUANTITIES,
                     help="custom preset only (default qfi_phi)")
    run.add_argument("--coupling", type=float, action="append",
                     help="custom preset only; repeatable")
    run.add_argument("--omega-c", type=float, help="custom ohmic cutoff")
    run.add_argument("--width", type=float, help="custom lorentzian width")

    ver = sub.add_parser("verify", help="run oracle/consistency suites")
    ver.add_argument("--suite", action="append", metavar="NAME",
                     help="run only the named suite(s)")

    sw = sub.add_parser("sweep", help="generic parameter sweep")
    sw.add_argument("--model", required=True, choices=tuple(RESERVOIR))
    sw.add_argument("--param", action="append", required=True)
    sw.add_argument("--range", action="append", required=True,
                    dest="ranges", metavar="A:B:N")
    sw.add_argument("--quantity", choices=TABLE_QUANTITIES, default="qfi_phi")
    sw.add_argument("--t-end", type=float, default=20.0)
    sw.add_argument("--steps", type=int, default=500)
    sw.add_argument("--out", type=Path, default=None)
    sw.add_argument("--fix", action="append", default=[],
                    metavar="NAME=VALUE", help="hold a parameter fixed")
    return ap


# argparse reads a value such as "-1:1:3" as an unknown flag
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _attach_negative_ranges(argv: list[str]) -> list[str]:
    """Rewrite "--range -A:B:N" as the "--range=-A:B:N" form argparse accepts."""
    out = []
    for arg in argv:
        if out and out[-1] == "--range" and _NEGATIVE_VALUE.match(arg):
            out[-1] = "--range=" + arg
        else:
            out.append(arg)
    return out


CUSTOM_ONLY_FLAGS = ("family", "quantity", "coupling", *RESERVOIR.values())


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _custom_preset(args) -> CurvePreset:
    if args.family is None:
        raise ValueError("custom preset needs --family")
    if not args.coupling:
        raise ValueError("custom preset needs at least one --coupling")
    for i, g in enumerate(args.coupling):
        if g in args.coupling[:i]:  # two columns of one name
            raise ValueError(f"--coupling {g}: given twice")
    name = RESERVOIR[args.family]
    for other in RESERVOIR.values():
        if other != name and getattr(args, other) is not None:
            raise ValueError(f"{_flag(other)}: not a parameter of the "
                             f"{args.family} family")
    reservoir = getattr(args, name)
    if reservoir is None:
        raise ValueError(f"custom {args.family} preset needs {_flag(name)}")
    # --steps and --t-end reach the grid through the Scenario overrides
    return CurvePreset("custom", args.family,
                       "qfi_phi" if args.quantity is None else args.quantity,
                       tuple(args.coupling), reservoir, 20.0, 2000)


def _output_path(out: Path) -> Path:
    """``out``, unless it exists and is no writable regular file, or the
    directory it would be written in does not exist, or it is a symlink
    loop: then ValueError naming --out, raised before any value is computed.
    A symlink is judged by where it leads."""
    try:
        os.stat(out)
    except OSError as exc:  # from Python 3.13 on, resolve() returns a loop
        if exc.errno == errno.ELOOP:
            raise ValueError(f"--out {out}: {exc.strerror}") from None
    if out.exists() and not (out.is_file() and os.access(out, os.W_OK)):
        raise ValueError(f"--out {out}: not a writable regular file")
    real = out.resolve()
    if not real.parent.is_dir():
        raise ValueError(f"--out {out}: directory {real.parent} does not exist")
    return out


def _check_grid_flags(t_end, steps) -> None:
    """Name --t-end or --steps (None: the preset's) if it breaks its grid rule."""
    for flag, field, v in (("--t-end", "t_end", t_end), ("--steps", "n_points", steps)):
        if v is not None:
            check_domain(None, {field: v}, f"{flag}: {field}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_negative_ranges(argv))
    try:
        if args.command == "verify":
            return run_verify(args.suite)
        _check_grid_flags(args.t_end, args.steps)
        if args.command == "run":
            out = _output_path(args.out or Path(f"{args.preset}.csv"))
            sc = Scenario(args.preset, out, args.steps, args.t_end, args.mode)
            given = [_flag(d) for d in CUSTOM_ONLY_FLAGS if getattr(args, d) is not None]
            if args.preset == "custom":
                run_curve_preset(sc, _custom_preset(args))
            elif given:
                raise ValueError(f"{', '.join(given)}: custom preset only")
            elif args.preset in CURVE_PRESETS:
                run_curve_preset(sc)
            else:
                run_contour_preset(sc)
        else:  # sweep
            fixed = []
            for item in args.fix:
                name, sep, value = item.partition("=")
                if not sep:
                    raise ValueError(f"--fix expects NAME=VALUE, got {item!r}")
                try:
                    fixed.append((name, float(value)))
                except ValueError:
                    raise ValueError(f"--fix {name}: expected a number, "
                                     f"got {value!r}") from None
            out = _output_path(args.out or Path("sweep.csv"))
            run_sweep(args.model, args.param, args.ranges, args.quantity,
                      args.t_end, args.steps, out, fixed)
        print(f"wrote {out}")
        return EXIT_OK
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except QuadratureConvergenceError as exc:
        print(f"tolerance error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
