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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    _BLOCK_SAMPLES,
    SystemConfig,
    TimeGrid,
    amplitude_table,
    atom_state,
    decoherence_rate,
    lamb_shift,
)
# amplitude is not called here, but perfbench/tracer.py wraps this binding
from .dynamics import amplitude  # noqa: F401
from .metrics import coherence_l1, qfi_closed
from .spectral import SpectralModel

THETA_DEFAULT = math.pi / 2.0
PHI_DEFAULT = 0.0
LORENTZ_OMEGA0 = 1.0   # atom frequency in units of R
LORENTZ_RATE = 1.0

# The parameter vocabulary every table (curve, contour, sweep) is built from.
RESERVOIR = {"ohmic": "omega_c", "lorentzian": "width"}
PARAMS = {
    "ohmic": ("coupling", "omega_c", "theta", "phi"),
    "lorentzian": ("coupling", "width", "detuning", "theta", "phi"),
}
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


_TRIO_OHMIC = (0.01, 0.5, 1.0)
_TRIO_LORENTZ = (0.01, 0.5, 1.0)

CURVE_PRESETS: dict[str, CurvePreset] = {
    "fig1a": CurvePreset("fig1a", "ohmic", "qfi_phi", _TRIO_OHMIC, 3.0, 20.0, 2000),
    "fig1b": CurvePreset("fig1b", "ohmic", "qfi_phi", _TRIO_OHMIC, 0.3, 20.0, 2000),
    "fig1c": CurvePreset("fig1c", "ohmic", "coherence", _TRIO_OHMIC, 3.0, 20.0, 2000),
    "fig1d": CurvePreset("fig1d", "ohmic", "coherence", _TRIO_OHMIC, 0.3, 20.0, 2000),
    "fig3a": CurvePreset("fig3a", "ohmic", "decoherence_rate", _TRIO_OHMIC, 3.0, 20.0, 2000),
    "fig3b": CurvePreset("fig3b", "ohmic", "decoherence_rate", _TRIO_OHMIC, 0.3, 20.0, 2000),
    # 40 R column reproduces the strong-coupling inset of the same panel
    "fig4a": CurvePreset("fig4a", "lorentzian", "qfi_phi",
                         _TRIO_LORENTZ + (40.0,), 3.0, 50.0, 12800),
    "fig4b": CurvePreset("fig4b", "lorentzian", "qfi_phi", _TRIO_LORENTZ, 0.1, 50.0, 2000),
    "fig4c": CurvePreset("fig4c", "lorentzian", "coherence",
                         _TRIO_LORENTZ + (40.0,), 3.0, 50.0, 12800),
    "fig4d": CurvePreset("fig4d", "lorentzian", "coherence", _TRIO_LORENTZ, 0.1, 50.0, 2000),
    "fig6a": CurvePreset("fig6a", "lorentzian", "decoherence_rate", _TRIO_LORENTZ, 3.0, 20.0, 2000),
    "fig6b": CurvePreset("fig6b", "lorentzian", "decoherence_rate", _TRIO_LORENTZ, 0.1, 20.0, 2000),
}

CONTOUR_PRESETS: dict[str, ContourPreset] = {
    "fig2a": ContourPreset("fig2a", "ohmic", "coupling", 0.0, 1.0, 100, 3.0, 20.0, 200),
    "fig2b": ContourPreset("fig2b", "ohmic", "omega_c", 0.03, 3.0, 100, 1.0, 20.0, 200),
    "fig5a": ContourPreset("fig5a", "lorentzian", "coupling", 0.0, 1.0, 100, 0.1, 50.0, 200),
    "fig5b": ContourPreset("fig5b", "lorentzian", "width", 0.03, 3.0, 100, 1.0, 50.0, 200),
}

PRESETS: dict[str, CurvePreset | ContourPreset] = {**CURVE_PRESETS, **CONTOUR_PRESETS}
PRESET_NAMES = tuple(PRESETS)


def make_config(family: str, coupling: float, reservoir: float,
                theta: float = THETA_DEFAULT, phi: float = PHI_DEFAULT,
                detuning: float | None = None) -> SystemConfig:
    """System configuration for one curve of a preset family."""
    if family == "ohmic":
        model = SpectralModel.ohmic_lorentz_drude(reservoir)
        omega0 = 1.0
    elif family == "lorentzian":
        model = SpectralModel.lorentzian(LORENTZ_RATE, reservoir,
                                         detuning=detuning)
        omega0 = LORENTZ_OMEGA0
    else:
        raise ValueError(f"unknown family {family!r}")
    return SystemConfig(omega0=omega0, coupling=coupling, theta=theta,
                        phi=phi, spectral=model)


def configs(family: str, axes, fixed=()) -> list:
    """(values, config) over the Cartesian product of the named axes.

    ``axes`` is a sequence of (name, values) pairs and ``fixed`` one of
    (name, value) pairs; parameters in neither take their ``DEFAULTS``.
    The last axis varies fastest, as in ``np.meshgrid(..., indexing="ij")``.
    Every config is built before returning, so a bad combination fails
    before any computation.  Messages name the `sweep` flags, the general
    form of every table.
    """
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
    out = []
    for values in itertools.product(*(map(float, v) for _, v in axes)):
        kw = {**DEFAULTS, **dict(fixed), **dict(zip(swept, values))}
        out.append((values, make_config(family, kw["coupling"], kw[RESERVOIR[family]],
                                        theta=kw["theta"], phi=kw["phi"],
                                        detuning=kw["detuning"])))
    return out


def preset_axes(preset: CurvePreset | ContourPreset):
    """(axes, fixed) of a preset: its couplings, or a contour's swept axis."""
    if isinstance(preset, CurvePreset):
        return ([("coupling", preset.couplings)],
                [(RESERVOIR[preset.family], preset.reservoir)])
    other = RESERVOIR[preset.family] if preset.sweep == "coupling" else "coupling"
    return ([(preset.sweep, np.linspace(preset.lo, preset.hi, preset.n_param))],
            [(other, preset.fixed)])


# The output quantities, each defined once by `metric_series`: presets and
# `run` offer QUANTITIES, `sweep` every one of TABLE_QUANTITIES, and the
# RATE_QUANTITIES are the two that read p_dot.
QUANTITIES = ("qfi_phi", "qfi_theta", "coherence", "decoherence_rate")
TABLE_QUANTITIES = QUANTITIES + ("lamb_shift",)
RATE_QUANTITIES = ("decoherence_rate", "lamb_shift")


def metric_series(cfgs, amps, quantity: str) -> np.ndarray:
    """One output quantity of an `amplitude_table` block, (len(cfgs), n_t).

    Row i is config i; the RATE_QUANTITIES read ``amps.p_dot`` and are NaN
    at flagged samples.  Every table and CSV value comes from here.
    """
    if quantity not in TABLE_QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    if quantity == "decoherence_rate":
        return decoherence_rate(amps.p, amps.p_dot)
    if quantity == "lamb_shift":
        return lamb_shift(amps.p, amps.p_dot)
    if quantity == "coherence":
        return coherence_l1(atom_state(cfgs, amps.p))
    f_phi, f_theta = qfi_closed(amps.p, [c.theta for c in cfgs])
    return f_phi if quantity == "qfi_phi" else f_theta


def table_blocks(cfgs, grid: TimeGrid, quantity: str, mode: str = "closed"):
    """One quantity for every config on one grid, as an iterator of
    (rows, n_points) blocks in config order: the one table path.

    Each block is one `amplitude_table` call of at most ``_BLOCK_SAMPLES``
    samples, or of one config, and its `metric_series`, so memory stays
    bounded however many configs there are.  ``quantity`` is checked on the
    call, each block's amplitudes before it is yielded, and a failing check
    names its config.  Row i does not depend on the blocking; NaN marks
    flagged samples.
    """
    if quantity not in TABLE_QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    cfgs, times = list(cfgs), grid.times
    rows = max(1, _BLOCK_SAMPLES // times.size)
    derivative = quantity in RATE_QUANTITIES
    blocks = (cfgs[i:i + rows] for i in range(0, len(cfgs), rows))
    return (metric_series(b, amplitude_table(b, times, mode, derivative), quantity)
            for b in blocks)


def quantity_values(cfg: SystemConfig, grid: TimeGrid, quantity: str,
                    mode: str = "closed") -> np.ndarray:
    """Evaluate one output quantity on a grid (NaN marks flagged samples)."""
    return next(table_blocks([cfg], grid, quantity, mode))[0]


def curve_table(preset: CurvePreset, mode: str = "closed"):
    """(times, values[n_coupling, n_t]) for a curve preset."""
    grid = TimeGrid(preset.t_end, preset.n_points)
    cfgs = [cfg for _, cfg in configs(preset.family, *preset_axes(preset))]
    blocks = table_blocks(cfgs, grid, preset.quantity, mode)
    return grid.times, np.concatenate(list(blocks))


def contour_table(preset: ContourPreset, mode: str = "closed"):
    """(times, params, `table_blocks` of F_phi) for a contour preset."""
    grid = TimeGrid(preset.t_end, preset.n_points)
    params, cfgs = zip(*configs(preset.family, *preset_axes(preset)))
    return (grid.times, np.array([v for v, in params]),
            table_blocks(cfgs, grid, "qfi_phi", mode))
