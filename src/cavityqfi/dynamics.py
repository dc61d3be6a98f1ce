"""Reduced atom state and time-local generator ingredients.

A resonant atom-cavity pair starts with one excitation at most and a cavity
vacuum; the cavity leaks into a structured reservoir.  The excited-state
probability amplitude is

    p(t) = 1/2 sum_{j=1,2} e^{-i omega_j t} e^{-beta_j(t)/4}

with dressed transition frequencies omega_1 = omega0 - coupling and
omega_2 = omega0 + coupling.  The atom's 2x2 density matrix, the decoherence
rate Gamma(t) = -2 Re(pdot/p) and the frequency shift S(t) = -2 Im(pdot/p)
all follow from p(t).  pdot is always evaluated analytically through the
closed (or numerically integrated) beta_j and gamma_j, never by numerical
differentiation; finite differences appear only in tests as oracles.
A config is one `SystemConfig`, or one row of the float columns of a
`ConfigTable`, which the amplitude and atom-state functions read whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import (MODEL_FIELDS, SpectralKind, SpectralModel, check_domain,
                       check_numeric_time, closed_rates, numeric_rates)
# beta_closed, gamma_closed, beta_numeric and gamma_numeric are not called
# here, but perfbench/tracer.py wraps these bindings
from .spectral import beta_closed, beta_numeric, gamma_closed, gamma_numeric  # noqa: F401

EPS_AMPLITUDE = 1e-9    # slack on |p| <= 1
EPS_P_SINGULAR = 1e-10  # |p| at or below this flags Gamma/S as singular
# (config x time) samples per tile of a table or block of the residual (bounds memory)
_BLOCK_SAMPLES = 1 << 14


class AmplitudeRangeError(ValueError):
    """Probability amplitude left the physical range |p| <= 1 + 1e-9."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time samples starting exactly at 0.

    ``n_points`` counts samples (a grid of one point is just [0]); spacing is
    ``t_end / (n_points - 1)``.  Times are in scaled units (omega0*t or R*t).
    """

    t_end: float
    n_points: int

    def __post_init__(self):
        check_domain(None, {"t_end": self.t_end})
        check_domain(None, {"n_points": self.n_points})

    def window(self, start: int, stop: int) -> np.ndarray:
        """``times[start:stop]``, 0 <= start <= stop <= n_points, without the
        rest of the grid; `np.linspace` bit for bit, underflowing step too."""
        t = np.arange(start, stop, dtype=float)
        div = max(self.n_points - 1, 1)
        with np.errstate(over="ignore"):  # only the last time can overflow, set below
            t = t * (self.t_end / div) if self.t_end / div else t / div * self.t_end
        if stop == self.n_points > 1 and start < stop:
            t[-1] = self.t_end
        return t

    @property
    def times(self) -> np.ndarray:
        return self.window(0, self.n_points)

    @property
    def dt(self) -> float:
        if self.n_points < 2:
            raise ValueError("single-point grid has no spacing")
        return self.t_end / (self.n_points - 1)


class _Dressed:
    """The dressed transition frequencies, of a config or of table columns."""

    omega_1 = property(lambda self: self.omega0 - self.coupling)
    omega_2 = property(lambda self: self.omega0 + self.coupling)


@dataclass(frozen=True)
class SystemConfig(_Dressed):
    """Atom-cavity parameters, initial Bloch angles, and the reservoir model.

    theta is the polar angle of the initial pure atom state
    cos(theta/2)|e> + e^{i phi} sin(theta/2)|g>; phi is the estimated phase.
    The atom fields are checked by `spectral.check_domain`; the model comes
    complete, and a Lorentzian model's omega0 must be the atom's.
    """

    omega0: float
    coupling: float
    theta: float
    phi: float
    spectral: SpectralModel

    def __post_init__(self):
        check_domain(self.spectral.kind, {"omega0": self.omega0, "coupling": self.coupling,
                                          "theta": self.theta, "phi": self.phi})
        if self.spectral.omega0 not in (None, self.omega0):
            raise ValueError(f"omega0={self.omega0} of the atom differs from the "
                             f"model's omega0={self.spectral.omega0}")


@dataclass(frozen=True, eq=False)
class ConfigTable(_Dressed):
    """Configs of one reservoir family as float64 columns: ``columns`` maps
    omega0, coupling, theta, phi and the family's `MODEL_FIELDS` to (n,)
    arrays.  Row i is the config `row(i)`, ``table[a:b]`` rows a to b.
    `presets.config_table` builds checked tables, `of` a config's one row.
    """

    kind: SpectralKind
    columns: dict

    @classmethod
    def of(cls, cfg: SystemConfig) -> "ConfigTable":
        fields = {"omega0": cfg.omega0, "coupling": cfg.coupling,
                  "theta": cfg.theta, "phi": cfg.phi, **cfg.spectral.fields()}
        return cls(cfg.spectral.kind,
                   {k: np.array([v], dtype=float) for k, v in fields.items()})

    def __len__(self) -> int:
        return len(self.columns["coupling"])

    def __getitem__(self, rows: slice) -> "ConfigTable":
        return ConfigTable(self.kind, {k: v[rows] for k, v in self.columns.items()})

    omega0 = property(lambda self: self.columns["omega0"])
    coupling = property(lambda self: self.columns["coupling"])
    theta = property(lambda self: self.columns["theta"])
    phi = property(lambda self: self.columns["phi"])

    def row(self, i: int) -> SystemConfig:
        c = {k: float(v[i]) for k, v in self.columns.items()}
        model = SpectralModel(self.kind, **{k: c[k] for k in MODEL_FIELDS[self.kind]})
        return SystemConfig(c["omega0"], c["coupling"], c["theta"], c["phi"], model)


@dataclass(frozen=True)
class AmplitudeSeries:
    """p(t) and its analytic derivative (None if not asked for).

    From `amplitude` both are arrays over ``times``; from `amplitude_table`
    they have one row per config.
    """

    times: np.ndarray
    p: np.ndarray
    p_dot: np.ndarray | None


def per_value(f, x, p, name):
    """f(x) for a float; for a 1-D array of angles ``name``, one per row of
    a 2-D ``p``, the (n, 1) column of f(x_i), else ValueError.  f is scalar
    math, whose last bit numpy's array functions need not reproduce, so it
    runs once per distinct value."""
    if np.ndim(x) == 0:
        return f(x)
    if np.ndim(x) != 1 or np.ndim(p) != 2 or len(x) != len(p):
        raise ValueError(f"{name} of shape {np.shape(x)} needs a 2-D p with one "
                         f"row per angle, got p of shape {np.shape(p)}")
    bits = np.asarray(x, dtype=float).view(np.int64)  # tells -0.0 from 0.0
    values, index = np.unique(bits, return_inverse=True)
    return np.array([f(v) for v in values.view(float).tolist()])[index][:, None]


def _describe(table: ConfigTable, i: int) -> str:
    """Row i by its coupling, reservoir and angles, for error messages."""
    ohmic = table.kind is SpectralKind.OHMIC_LORENTZ_DRUDE
    names = ("coupling", *(("omega_c",) if ohmic else ("width", "detuning")), "theta", "phi")
    return ", ".join(f"{n}={float(table.columns[n][i])}" for n in names)


def _check_amplitude(table: ConfigTable, times: np.ndarray, p: np.ndarray) -> None:
    """Raise AmplitudeRangeError, naming the config, unless every row of p
    keeps |p| <= 1 + EPS_AMPLITUDE and, where times start at 0, starts at
    exactly 1.  A NaN anywhere in a row fails the bound."""
    if times[0] == 0.0:
        bad = np.flatnonzero(p[:, 0] != 1.0 + 0.0j)
        if bad.size:
            i = bad[0]
            raise AmplitudeRangeError(f"{_describe(table, i)}: p(0) must be "
                                      f"exactly 1, got {p[i, 0]}")
    peak = np.max(np.abs(p), axis=1)
    bad = np.flatnonzero(~(peak <= 1.0 + EPS_AMPLITUDE))
    if bad.size:
        i = bad[0]
        raise AmplitudeRangeError(f"{_describe(table, i)}: |p| exceeded the "
                                  f"physical range: max |p| = {peak[i]}")


def _check_mode(mode: str) -> None:
    if mode not in ("closed", "numeric"):
        raise ValueError(f"mode must be 'closed' or 'numeric', got {mode!r}")


def _check_numeric_grid(table: ConfigTable, times: np.ndarray) -> None:
    """Raise `check_numeric_time`'s ValueError, a time named ``t_end`` or
    ``t_end/(n - 1)``, unless uniform ``times`` from 0 lie in its domain on
    both transitions of every row.  Its accepted times are one interval, so
    the last and first nonzero times decide."""
    if times[-1] > 0.0:
        t_end, first = float(times[-1]), float(times[1])
        for c in map(table.row, range(len(table))):
            for wj in (c.omega_1, c.omega_2):
                check_numeric_time(c.spectral, wj, t_end, name="t_end")
                check_numeric_time(c.spectral, wj, first, name=f"t_end/{times.size - 1}")


def _rate_table(table: ConfigTable, times: np.ndarray, mode: str, halves):
    """(gamma1, beta1, gamma2, beta2) over (row, time); closed mode: only ``halves``."""
    _check_mode(mode)
    if mode == "closed":
        fields = {k: v[:, None] for k, v in table.columns.items()}
        return (*closed_rates(table.kind, fields, table.omega_1[:, None], times, halves),
                *closed_rates(table.kind, fields, table.omega_2[:, None], times, halves))
    _check_numeric_grid(table, times)  # the whole grid, before the first quad call
    rows = [(*numeric_rates(c.spectral, c.omega_1, times),
             *numeric_rates(c.spectral, c.omega_2, times))
            for c in map(table.row, range(len(table)))]
    return tuple(np.array(col) for col in zip(*rows))


def amplitude_table(table: ConfigTable, times: np.ndarray, mode: str = "closed",
                    derivative: bool = True) -> AmplitudeSeries:
    """Amplitude series of every config of a table at once, one row each.

    Closed mode evaluates the closed forms once over the (config x time)
    block; numeric mode integrates each config's quadrature rates, and
    needs uniform ``times`` from 0 in `check_numeric_time`'s domain (a
    ValueError names ``t_end``).  Row i equals ``amplitude(table.row(i), ...)`` bit for bit.
    Every row is checked as `amplitude` checks it, and the error names the
    config.  A time so large that omega_j t overflows gives a NaN amplitude;
    the check rejects it, so numpy's overflow warnings on the way there are
    silenced.
    ``p_dot`` is None unless ``derivative``; closed mode then evaluates beta alone.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        g1, b1, g2, b2 = _rate_table(table, times, mode, (0, 1) if derivative else (1,))
        w1, w2 = table.omega_1[:, None], table.omega_2[:, None]
        e1 = np.exp(-1j * w1 * times - b1 / 4.0)
        e2 = np.exp(-1j * w2 * times - b2 / 4.0)
        p = 0.5 * (e1 + e2)
        p_dot = (0.5 * ((-1j * w1 - g1 / 4.0) * e1 + (-1j * w2 - g2 / 4.0) * e2)
                 if derivative else None)
    _check_amplitude(table, times, p)
    return AmplitudeSeries(times=times, p=p, p_dot=p_dot)


def amplitude(cfg: SystemConfig, grid: TimeGrid,
              mode: str = "closed") -> AmplitudeSeries:
    """Amplitude series on the grid, from closed-form or quadrature rates.

    mode="closed" uses the analytic beta_j/gamma_j; mode="numeric" uses the
    quadrature oracle plus composite Simpson for the exponents.
    Raises AmplitudeRangeError unless p(0) = 1 exactly and |p| <= 1 + 1e-9.
    """
    a = amplitude_table(ConfigTable.of(cfg), grid.times, mode)
    return AmplitudeSeries(a.times, a.p[0], a.p_dot[0])


def _state_elements(cfg, p):
    """(rho_ee, rho_eg) of `atom_state`; rho_gg = 1 - rho_ee, rho_ge = conj(rho_eg)."""
    p = np.asarray(p, dtype=complex)
    mag = np.abs(p)
    if not np.all(mag <= 1.0 + EPS_AMPLITUDE):
        raise AmplitudeRangeError(
            f"|p| = {float(np.max(mag))} exceeds 1 + {EPS_AMPLITUDE}")
    c = per_value(lambda th: math.cos(th / 2.0), cfg.theta, p, "theta")
    s = per_value(lambda th: math.sin(th / 2.0), cfg.theta, p, "theta")
    phase = per_value(lambda ph: np.exp(-1j * ph), cfg.phi, p, "phi")
    return mag ** 2 * c * c, p * phase * s * c


def atom_state(cfg, p):
    """Atom density matrix in the {|e>, |g>} basis for amplitude value(s) p.

        rho_ee = |p|^2 cos^2(theta/2)
        rho_eg = p e^{-i phi} sin(theta/2) cos(theta/2)

    Accepts a scalar or an array of amplitudes; returns shape (..., 2, 2).
    ``cfg`` may also be a `ConfigTable`, whose theta and phi columns give one
    angle each per row of an (n, n_t) ``p``.
    """
    rho = np.empty(np.shape(p) + (2, 2), dtype=complex)
    rho[..., 0, 0], rho[..., 0, 1] = _state_elements(cfg, p)
    rho[..., 1, 0] = np.conj(rho[..., 0, 1])
    rho[..., 1, 1] = 1.0 - rho[..., 0, 0]
    return rho


def _log_ratio(p, p_dot):
    p = np.asarray(p, dtype=complex)
    p_dot = np.asarray(p_dot, dtype=complex)
    ok = np.abs(p) > EPS_P_SINGULAR
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(ok, p_dot / np.where(ok, p, 1.0),
                         complex(np.nan, np.nan))
    return ratio


def decoherence_rate(p, p_dot):
    """Gamma(t) = -2 Re(pdot/p); positive while the atom loses information.

    Samples with |p| <= EPS_P_SINGULAR are flagged as NaN rather than
    raising, so sweep outputs stay rectangular.
    """
    out = -2.0 * np.real(_log_ratio(p, p_dot))
    return out if out.ndim else float(out)


def lamb_shift(p, p_dot):
    """Time-dependent frequency shift S(t) = -2 Im(pdot/p); NaN where singular.
    It includes the bare transition: 2 omega0 with no reservoir coupling."""
    out = -2.0 * np.imag(_log_ratio(p, p_dot))
    return out if out.ndim else float(out)


def physicality(rho) -> dict:
    """Worst-case physicality diagnostics over a stack of (..., n, n) states.

    Returns {'hermiticity', 'trace', 'min_eigenvalue'} where the first two
    are max absolute deviations.  The tolerances belong to the caller.
    For 2x2 states the lowest eigenvalue is the closed form
    (a + d)/2 - hypot((a - d)/2, |rho_10|) over the real diagonal a, d;
    like `np.linalg.eigvalsh`, which every other size goes through, it reads
    only the lower triangle.
    """
    rho = np.asarray(rho)
    herm = float(np.max(np.abs(rho - np.conj(np.swapaxes(rho, -1, -2)))))
    tr = float(np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)))
    if rho.shape[-2:] == (2, 2):
        a, d = rho[..., 0, 0].real, rho[..., 1, 1].real
        low = (a + d) / 2.0 - np.hypot((a - d) / 2.0, np.abs(rho[..., 1, 0]))
    else:
        low = np.linalg.eigvalsh(rho)[..., 0]
    return {"hermiticity": herm, "trace": tr, "min_eigenvalue": float(low.min())}

