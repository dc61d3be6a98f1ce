"""Figure presets: deterministic parameter sets behind the scenario runner.

Ohmic scenarios set the atom frequency to 1 (times are omega0*t); Lorentzian
scenarios set the dissipative rate to 1 (times are R*t) and anchor the atom
frequency at 1 in those units, a choice the phase-insensitive observables
(F_phi, C_l1, Gamma) do not depend on.  All presets start from the equatorial
state theta = pi/2, phi = 0.

Curve grids default to 2000 points, raised where needed so the fastest
oscillation (twice the coupling) keeps at least 20 samples per period;
contour grids default to 200 x 100.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .dynamics import (
    ConfigTable,
    SystemConfig,
    TimeGrid,
    _check_mode,
    _state_elements,
    amplitude_table,
    decoherence_rate,
    lamb_shift,
)
# amplitude is not called here, but perfbench/tracer.py wraps this binding
from .dynamics import amplitude  # noqa: F401
from .metrics import qfi_closed
from .spectral import MODEL_FIELDS, SpectralKind, _as_real, check_domain

THETA_DEFAULT = math.pi / 2.0
PHI_DEFAULT = 0.0
LORENTZ_RATE = 1.0

# The parameter vocabulary every table (curve, contour, sweep) is built from.
KIND = {"ohmic": SpectralKind.OHMIC_LORENTZ_DRUDE, "lorentzian": SpectralKind.LORENTZIAN}
OMEGA0 = 1.0  # atom frequency: the Ohmic unit, and 1 R in the Lorentzian family
RESERVOIR = {"ohmic": "omega_c", "lorentzian": "width"}
PARAMS = {family: dynamics.KIND_PARAMS[kind] for family, kind in KIND.items()}
# values of the parameters a table neither sweeps nor fixes
DEFAULTS = {"coupling": 1.0, "omega_c": 3.0, "width": 1.0,
            "theta": THETA_DEFAULT, "phi": PHI_DEFAULT, "detuning": None}
TIME_UNIT = {"ohmic": "omega0*t", "lorentzian": "R*t"}


@dataclass(frozen=True)
class CurvePreset:
    name: str
    family: str                 # "ohmic" | "lorentzian"
    quantity: str
    couplings: tuple[float, ...]
    reservoir: float            # omega_c (ohmic) or width lambda (lorentzian)
    t_end: float
    n_points: int


@dataclass(frozen=True)
class ContourPreset:
    name: str
    family: str
    sweep: str                  # "coupling" | "omega_c" | "width"
    lo: float
    hi: float
    n_param: int
    fixed: float                # the non-swept parameter (reservoir or coupling)
    t_end: float
    n_points: int


_TRIO = (0.01, 0.5, 1.0)

CURVE_PRESETS: dict[str, CurvePreset] = {
    "fig1a": CurvePreset("fig1a", "ohmic", "qfi_phi", _TRIO, 3.0, 20.0, 2000),
    "fig1b": CurvePreset("fig1b", "ohmic", "qfi_phi", _TRIO, 0.3, 20.0, 2000),
    "fig1c": CurvePreset("fig1c", "ohmic", "coherence", _TRIO, 3.0, 20.0, 2000),
    "fig1d": CurvePreset("fig1d", "ohmic", "coherence", _TRIO, 0.3, 20.0, 2000),
    "fig3a": CurvePreset("fig3a", "ohmic", "decoherence_rate", _TRIO, 3.0, 20.0, 2000),
    "fig3b": CurvePreset("fig3b", "ohmic", "decoherence_rate", _TRIO, 0.3, 20.0, 2000),
    # 40 R column reproduces the strong-coupling inset of the same panel
    "fig4a": CurvePreset("fig4a", "lorentzian", "qfi_phi",
                         _TRIO + (40.0,), 3.0, 50.0, 12800),
    "fig4b": CurvePreset("fig4b", "lorentzian", "qfi_phi", _TRIO, 0.1, 50.0, 2000),
    "fig4c": CurvePreset("fig4c", "lorentzian", "coherence",
                         _TRIO + (40.0,), 3.0, 50.0, 12800),
    "fig4d": CurvePreset("fig4d", "lorentzian", "coherence", _TRIO, 0.1, 50.0, 2000),
    "fig6a": CurvePreset("fig6a", "lorentzian", "decoherence_rate", _TRIO, 3.0, 20.0, 2000),
    "fig6b": CurvePreset("fig6b", "lorentzian", "decoherence_rate", _TRIO, 0.1, 20.0, 2000),
}

CONTOUR_PRESETS: dict[str, ContourPreset] = {
    "fig2a": ContourPreset("fig2a", "ohmic", "coupling", 0.0, 1.0, 100, 3.0, 20.0, 200),
    "fig2b": ContourPreset("fig2b", "ohmic", "omega_c", 0.03, 3.0, 100, 1.0, 20.0, 200),
    "fig5a": ContourPreset("fig5a", "lorentzian", "coupling", 0.0, 1.0, 100, 0.1, 50.0, 200),
    "fig5b": ContourPreset("fig5b", "lorentzian", "width", 0.03, 3.0, 100, 1.0, 50.0, 200),
}

PRESETS: dict[str, CurvePreset | ContourPreset] = {**CURVE_PRESETS, **CONTOUR_PRESETS}
PRESET_NAMES = tuple(PRESETS)


def make_config(family: str, coupling: float, reservoir: float) -> SystemConfig:
    """System configuration for one curve of a preset family: the one row
    of its `config_table`, so a Lorentzian line sits at omega0 - coupling."""
    fixed = [("coupling", coupling)]
    if family in RESERVOIR:  # config_table names an unknown family
        fixed.append((RESERVOIR[family], reservoir))
    return config_table(family, [], fixed).row(0)


def config_table(family: str, axes, fixed=()) -> ConfigTable:
    """The checked table of configs over the Cartesian product of named axes.

    ``axes`` is a sequence of (name, values) pairs and ``fixed`` one of
    (name, value) pairs; parameters in neither take their ``DEFAULTS``.
    Rows run in `itertools.product` order (the last axis fastest), and are
    checked in one pass before any computation: bad rows fail as the config
    constructors fail on the first.  Messages about the names, or about a
    product too large to allocate, name the `sweep` flags, the general form
    of every table.
    """
    if family not in PARAMS:
        raise ValueError(f"unknown family {family!r}")
    allowed = PARAMS[family]
    swept, held = [n for n, _ in axes], [n for n, _ in fixed]
    for flag, names in (("--param", swept), ("--fix", held)):
        for i, name in enumerate(names):
            if name not in allowed:
                raise ValueError(f"{flag} {name}: not sweepable or fixable for "
                                 f"{family} (choose from {allowed})")
            if name in names[:i]:
                raise ValueError(f"{flag} {name}: given twice")
            if flag == "--fix" and name in swept:
                raise ValueError(f"--fix {name}: also swept by --param {name}")
    values = [_as_real(n, v, column=True) for n, v in axes]  # shown as given if not real
    shape = tuple(v.size for v in values)
    n = math.prod(shape)
    try:
        columns = {k: np.broadcast_to(g, shape).ravel() for k, g in
                   zip(swept, np.meshgrid(*values, indexing="ij", sparse=True))}
    except (MemoryError, ValueError):  # numpy's errors for too many configs
        raise ValueError(f"--param {', '.join(swept)}: {n} configs do not fit "
                         f"in memory") from None
    point = {"omega0": OMEGA0, "rate": LORENTZ_RATE,
             **DEFAULTS, **dict(fixed), **columns}
    kind = KIND[family]
    names = ("omega0", "coupling", "theta", "phi", *MODEL_FIELDS[kind])
    fields = {k: point[k] for k in names if point[k] is not None or k in held}
    check_domain(kind, fields, columns=swept)
    fields.setdefault("detuning", fields["coupling"])  # the paper's line, on omega_1
    return ConfigTable(kind, {k: np.broadcast_to(np.asarray(fields[k], dtype=float), (n,))
                              for k in names})


def preset_configs(preset: CurvePreset | ContourPreset) -> tuple[ConfigTable, TimeGrid]:
    """(config table, time grid) of a preset, the grid checked first: a
    curve's couplings, or a contour's swept axis, over the preset's grid."""
    grid = TimeGrid(preset.t_end, preset.n_points)
    if isinstance(preset, CurvePreset):
        axes = [("coupling", preset.couplings)]
        fixed = [(RESERVOIR[preset.family], preset.reservoir)]
    else:
        other = RESERVOIR[preset.family] if preset.sweep == "coupling" else "coupling"
        axes = [(preset.sweep, np.linspace(preset.lo, preset.hi, preset.n_param))]
        fixed = [(other, preset.fixed)]
    return config_table(preset.family, axes, fixed), grid


# The output quantities, each defined once by `metric_series`: presets and
# `run` offer QUANTITIES, `sweep` every one of TABLE_QUANTITIES, and the
# RATE_QUANTITIES are the two that read p_dot.
QUANTITIES = ("qfi_phi", "qfi_theta", "coherence", "decoherence_rate")
TABLE_QUANTITIES = QUANTITIES + ("lamb_shift",)
RATE_QUANTITIES = ("decoherence_rate", "lamb_shift")


def metric_series(table: ConfigTable, amps, quantity: str) -> np.ndarray:
    """One output quantity of an `amplitude_table` block, (len(table), n_t).

    Row i is config i, whose theta and phi the table's columns give; the
    RATE_QUANTITIES read ``amps.p_dot`` and are NaN at flagged samples.
    Every table and CSV value comes from here.
    """
    if quantity not in TABLE_QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    if quantity == "decoherence_rate":
        return decoherence_rate(amps.p, amps.p_dot)
    if quantity == "lamb_shift":
        return lamb_shift(amps.p, amps.p_dot)
    if quantity == "coherence":
        # coherence_l1 of atom_state, |rho_eg| + |rho_ge|, without the 2x2
        # stack: |conj(z)| equals |z| bit for bit
        a = np.abs(_state_elements(table, amps.p)[1])
        return a + a
    f_phi, f_theta = qfi_closed(amps.p, table.theta)
    return f_phi if quantity == "qfi_phi" else f_theta


def table_tiles(table: ConfigTable, grid: TimeGrid, quantity: str,
                mode: str = "closed", by_time: bool = False):
    """One quantity for every config of a table on one grid, as an iterator
    of checked (first_row, times, values) tiles: the one table path.

    A tile is the configs from ``first_row`` on times a `TimeGrid.window`,
    with their `metric_series` from one `amplitude_table` call: at most
    ``dynamics._BLOCK_SAMPLES`` samples, or one time of every config
    (``by_time``, as a curve's CSV rows are times) or the whole table
    (numeric mode: its beta integrates from t = 0, and `amplitude_table`
    checks every row's grid before the first quadrature, which bounds the
    run, not memory).  A config range's windows come before the next range's.
    ``quantity`` and ``mode`` are checked on the call, each tile's amplitudes
    before it is yielded, and a failing check names its config.  No value
    depends on the tiling.
    """
    if quantity not in TABLE_QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    _check_mode(mode)
    samples = dynamics._BLOCK_SAMPLES
    per_tile = max(1, samples // len(table)) if by_time else samples
    numeric = mode == "numeric"
    width = grid.n_points if numeric else min(grid.n_points, per_tile)
    rows = len(table) if by_time or numeric else max(1, samples // width)

    def tiles():
        for first in range(0, len(table), rows):
            block = table[first:first + rows]
            for start in range(0, grid.n_points, width):
                times = grid.window(start, min(start + width, grid.n_points))
                amps = amplitude_table(block, times, mode, quantity in RATE_QUANTITIES)
                yield first, times, metric_series(block, amps, quantity)
    return tiles()


def quantity_values(cfg: SystemConfig, grid: TimeGrid, quantity: str) -> np.ndarray:
    """Evaluate one output quantity on a grid (NaN marks flagged samples)."""
    tiles = table_tiles(ConfigTable.of(cfg), grid, quantity)
    return np.concatenate([values[0] for _, _, values in tiles])


def curve_table(preset: CurvePreset, mode: str = "closed"):
    """`table_tiles` of a curve preset, every coupling in each tile."""
    return table_tiles(*preset_configs(preset), preset.quantity, mode, by_time=True)


def contour_table(preset: ContourPreset, mode: str = "closed"):
    """(params, `table_tiles` of F_phi) for a contour preset."""
    table, grid = preset_configs(preset)
    return table.columns[preset.sweep], table_tiles(table, grid, "qfi_phi", mode)
