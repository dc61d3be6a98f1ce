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

from .dynamics import SystemConfig, TimeGrid, amplitude, decoherence_rate, lamb_shift
from .metrics import metric_series
from .spectral import QuadratureConfig, SpectralModel

THETA_DEFAULT = math.pi / 2.0
PHI_DEFAULT = 0.0
LORENTZ_OMEGA0 = 1.0   # atom frequency in units of R
LORENTZ_RATE = 1.0

QUANTITIES = ("qfi_phi", "qfi_theta", "coherence", "decoherence_rate")


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

PRESET_NAMES = tuple(list(CURVE_PRESETS) + list(CONTOUR_PRESETS))


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


def quantity_values(cfg: SystemConfig, grid: TimeGrid, quantity: str,
                    mode: str = "closed",
                    quadrature: QuadratureConfig | None = None) -> np.ndarray:
    """Evaluate one output quantity on a grid (NaN marks flagged samples)."""
    kwargs = {"mode": mode}
    if quadrature is not None:
        kwargs["quadrature"] = quadrature
    amps = amplitude(cfg, grid, **kwargs)
    if quantity == "decoherence_rate":
        return np.asarray(decoherence_rate(amps.p, amps.p_dot))
    if quantity == "lamb_shift":
        return np.asarray(lamb_shift(amps.p, amps.p_dot))
    series = metric_series(cfg, amps)
    if quantity == "qfi_phi":
        return series.qfi_phi
    if quantity == "qfi_theta":
        return series.qfi_theta
    if quantity == "coherence":
        return series.coherence_l1
    raise ValueError(f"unknown quantity {quantity!r}")


def preset_grid(preset: CurvePreset | ContourPreset, n_points: int | None = None,
                t_end: float | None = None) -> TimeGrid:
    """The preset's time grid, with each override that is not None applied."""
    return TimeGrid(preset.t_end if t_end is None else t_end,
                    preset.n_points if n_points is None else n_points)


def contour_configs(preset: ContourPreset):
    """Yield (swept value, config) for each row of a contour preset, in order."""
    for v in np.linspace(preset.lo, preset.hi, preset.n_param):
        v = float(v)
        if preset.sweep == "coupling":
            yield v, make_config(preset.family, v, preset.fixed)
        else:  # reservoir parameter swept, coupling fixed
            yield v, make_config(preset.family, preset.fixed, v)


def curve_table(preset: CurvePreset, n_points: int | None = None,
                t_end: float | None = None, mode: str = "closed",
                quadrature: QuadratureConfig | None = None):
    """(times, {coupling: values}) for a curve preset, optionally overridden."""
    grid = preset_grid(preset, n_points, t_end)
    columns = {}
    for g in preset.couplings:
        cfg = make_config(preset.family, g, preset.reservoir)
        columns[g] = quantity_values(cfg, grid, preset.quantity, mode, quadrature)
    return grid.times, columns


def contour_table(preset: ContourPreset, n_points: int | None = None,
                  t_end: float | None = None, mode: str = "closed",
                  quadrature: QuadratureConfig | None = None):
    """(times, params, values[n_param, n_t]) for a contour preset (F_phi)."""
    grid = preset_grid(preset, n_points, t_end)
    params, values = zip(*[
        (v, quantity_values(cfg, grid, "qfi_phi", mode, quadrature))
        for v, cfg in contour_configs(preset)])
    return grid.times, np.array(params), np.array(values)
