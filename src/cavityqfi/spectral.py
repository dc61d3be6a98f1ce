"""Reservoir spectral densities and the decay rates they induce.

A structured bosonic reservoir couples to the cavity mode and damps the two
dressed transitions of the resonant atom-cavity system.  Each transition at
frequency ``omega_j`` acquires a time-dependent rate

    gamma_j(t) = 2 Re int_0^t dtau int_-inf^+inf domega' e^{i(omega_j - omega')tau} J(omega')

and an accumulated exponent ``beta_j(t) = int_0^t gamma_j``.  There are two
reservoir families, Ohmic with a Lorentz-Drude cutoff and a Lorentzian line;
each has one closed-form kernel that returns gamma_j, beta_j or both.
Both are also evaluated by an independent quadrature oracle so the closed
forms can be cross-checked.  Frequency integrals run over the full real
line, including negative frequencies.  Only the oracle (`gamma_numeric`,
and `numeric_rates` and `beta_numeric` built on it) uses scipy, and it
imports it when called, so closed-form use never loads it.  `_DOMAIN`
states the domain of every numeric input once, and `check_domain` applies
it, to config fields as floats or columns and to one input such as a rate's t.

Units: hbar = 1, all frequencies and rates share one scale (the atom
frequency for Ohmic scenarios, the dissipative rate for Lorentzian ones).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class SpectralKind(enum.Enum):
    OHMIC_LORENTZ_DRUDE = "ohmic_lorentz_drude"
    LORENTZIAN = "lorentzian"


# each family's model fields by their config-table names (omega0 is the atom's)
MODEL_FIELDS = {
    SpectralKind.OHMIC_LORENTZ_DRUDE: ("omega_c",),
    SpectralKind.LORENTZIAN: ("rate", "width", "detuning", "omega0"),
}


def _positive(x):
    return (0.0 < x) & (x < np.inf)


# The domain of every numeric input, as checks over floats or float columns in
# the order the constructors apply them: fields -> (family or None, holds, message).
_DOMAIN = {
    ("omega_c",): (None, _positive, "{name} must be finite and > 0, got {value}"),
    ("rate",): (None, _positive, "{name} must be finite and > 0, got {value}"),
    ("width",): (None, _positive, "{name} must be finite and > 0, got {value}"),
    ("detuning",): (None, np.isfinite, "{name} must be finite, got {value}"),
    ("omega0",): (None, _positive, "{name} must be finite and > 0, got {value}"),
    ("coupling",): (None, lambda g: (0.0 <= g) & (g < np.inf),
                    "{name} must be finite and >= 0, got {value}"),
    # on the full line the rate at omega0 - coupling < 0 turns negative
    ("coupling", "omega0"): (SpectralKind.OHMIC_LORENTZ_DRUDE, lambda g, w0: ~np.greater(g, w0),
                             "coupling must satisfy 0 <= coupling <= omega0 for an "
                             "Ohmic reservoir, got coupling={0}, omega0={1}"),
    ("theta",): (None, lambda th: (0.0 <= th) & (th <= math.pi),
                 "{name} must lie in [0, pi], got {value}"),
    ("phi",): (None, lambda ph: (0.0 <= ph) & (ph < 2.0 * math.pi),
               "{name} must lie in [0, 2 pi), got {value}"),
    ("t_end",): (None, _positive, "{name} must be finite and > 0, got {value}"),
    ("n_points",): (None, lambda n: n >= 1, "{name} must be >= 1, got {value}"),
    ("step",): (None, _positive, "{name} must be finite and > 0, got {value}"),
    ("t",): (None, lambda t: (0.0 <= t) & (t < np.inf),
             "{name} must be finite and >= 0, got {value}"),
    ("omega_j",): (None, math.isfinite, "{name} must be finite, got {value}"),  # a scalar
}


def check_domain(kind: SpectralKind | None, fields: dict, name: str | None = None,
                 got: str | None = None) -> None:
    """`_DOMAIN`'s one applier: raise ValueError for the first row of ``fields``,
    and its first rule, outside the domain.  ``fields`` maps names to numbers or
    equal-length columns; a rule runs when its family is None or ``kind`` and
    every field it reads is given.  A value that is not a real number (a str, a
    bool), or an ``n_points`` that is not an integer, raises ValueError naming
    it.  ``kind`` None checks one input such as a rate's t, shown as a float,
    naming ``name`` and showing ``got`` if given; with a ``kind`` the fields are
    a config's, where None reads as NaN and a scalar shows as given."""
    cols = {}
    for n, v in fields.items():
        if n == "n_points":  # the one integer input
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"{name or n} must be an integer, got {v!r}")
        elif type(v) is not float:
            if (kind is None or v is not None) and np.asarray(v).dtype.kind not in "fiu":
                raise ValueError(f"{name or n} must be a real number, got {v!r}")
            v = np.asarray(v, dtype=float)
        cols[n] = v
    failures = []  # (first bad row, names, message) of each rule that fails, in order
    for names, (family, holds, message) in _DOMAIN.items():
        if names[0] in cols and names[-1] in cols and (family is None or family is kind):
            ok = holds(*[cols[n] for n in names])
            if not (ok if type(ok) is bool else ok.all()):
                failures.append((int(np.argmin(ok)), names, message))
    if failures:
        i, names, message = min(failures, key=lambda f: f[0])  # the first rule of the first row
        values = [(cols if kind is None else fields)[n] if np.ndim(fields[n]) == 0
                  else float(cols[n].flat[i]) for n in names]
        raise ValueError(message.format(*values, name=name or names[0],
                                        value=values[0] if got is None else got))


class QuadratureConvergenceError(RuntimeError):
    """Adaptive quadrature did not reach the requested tolerance.

    Carries the achieved error estimate in ``estimate``.
    """

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class SpectralModel:
    """Tagged description of one reservoir spectral density family.

    Ohmic Lorentz-Drude:  J(w) = (2 w / pi) * omega_c^2 / (omega_c^2 + w^2)
    Lorentzian:           J(w) = (R lam^2 / 2 pi) / ((omega0 - w - detuning)^2 + lam^2)

    The Lorentzian peak sits at ``omega0 - detuning``, omega0 the atom's (a
    `SystemConfig` rejects another).  A model is complete when built: a missing
    or bad field of its family, or a set field of the other family, raises
    ValueError naming it.  `presets.config_table` sets the paper's detuning = coupling.
    """

    kind: SpectralKind
    omega_c: float | None = None
    rate: float | None = None
    width: float | None = None
    detuning: float | None = None
    omega0: float | None = None

    def __post_init__(self):
        for name in ("omega_c", "rate", "width", "detuning", "omega0"):
            if name not in MODEL_FIELDS[self.kind] and getattr(self, name) is not None:
                raise ValueError(f"{name} is not a parameter of the "
                                 f"{self.kind.value} family, got "
                                 f"{name}={getattr(self, name)}")
        check_domain(self.kind, self.fields())

    def fields(self) -> dict:
        """The family's fields by their `MODEL_FIELDS` names."""
        return {n: getattr(self, n) for n in MODEL_FIELDS[self.kind]}

    @classmethod
    def ohmic_lorentz_drude(cls, omega_c: float) -> "SpectralModel":
        return cls(SpectralKind.OHMIC_LORENTZ_DRUDE, omega_c=float(omega_c))

    @classmethod
    def lorentzian(cls, rate: float, width: float, detuning: float,
                   omega0: float) -> "SpectralModel":
        return cls(SpectralKind.LORENTZIAN, rate=float(rate), width=float(width),
                   detuning=float(detuning), omega0=float(omega0))

    def lorentz_peak(self) -> float:
        """Center frequency of the Lorentzian line, ``omega0 - detuning``."""
        if self.kind is not SpectralKind.LORENTZIAN:
            raise ValueError("peak frequency defined only for Lorentzian models")
        return self.omega0 - self.detuning


# Controls of the numeric rate oracle.  The core integration window reaches
# FREQ_WINDOW characteristic widths past the transition frequency and the
# spectral feature; the oscillatory tails beyond it run to infinity under
# sine-weighted quadrature.
FREQ_WINDOW = 50.0
ABS_TOL = 1e-10
REL_TOL = 1e-8
MAX_SUBDIVISIONS = 10000
# float spacings of the tails' start that a half-period pi/t must span
TAIL_SPACINGS = 1.0 / REL_TOL


def eval_density(model: SpectralModel, omega_prime):
    """Spectral density J(omega') of the reservoir.  Accepts arrays."""
    out = np.asarray(_scalar_density(model)(np.asarray(omega_prime, dtype=float)))
    return out if out.ndim else float(out)


def _scalar_density(model: SpectralModel):
    """Density closure, elementwise on arrays, behind `eval_density`.  The
    quadrature integrands (`_integrands`) write J out inline; a test pins
    their bits to this closure's."""
    if model.kind is SpectralKind.OHMIC_LORENTZ_DRUDE:
        wc2 = model.omega_c ** 2
        return lambda w: (2.0 * w / math.pi) * wc2 / (wc2 + w * w)
    peak = model.lorentz_peak()
    lam2 = model.width ** 2
    amp = model.rate * lam2 / (2.0 * math.pi)
    return lambda w: amp / ((peak - w) ** 2 + lam2)


def _ohmic_rates(wc, wj, t, halves):
    den = wj * wj + wc * wc
    e = np.exp(-wc * t)
    c, s = np.cos(wj * t), np.sin(wj * t)
    gamma = (4.0 * wc * wc / den) * (wj * (1.0 - e * c) - wc * e * s) if 0 in halves else None
    beta = ((4.0 * wc * wc / den ** 2) * (
        den * wj * t + 2.0 * wc * wj * (e * c - 1.0) - (wj * wj - wc * wc) * e * s)
        if 1 in halves else None)
    return gamma, beta


def _lorentz_rates(rate, lam, d, t, halves):
    den = d * d + lam * lam
    e = np.exp(-lam * t)
    c, s = np.cos(d * t), np.sin(d * t)
    gamma = (rate * lam * lam / den) * (1.0 + ((d / lam) * s - c) * e) if 0 in halves else None
    beta = ((rate * lam * lam / den) * (
        t - 2.0 * d * e * s / den + (lam * lam - d * d) * (e * c - 1.0) / (lam * den))
        if 1 in halves else None)
    return gamma, beta


def closed_rates(kind: SpectralKind, fields, omega_j, t, halves=(0, 1)):
    """(gamma_j, beta_j) of transition omega_j at times ``t`` from the
    family's closed-form kernel, None for a half (0 gamma, 1 beta) not in
    ``halves``.  ``fields`` maps its `MODEL_FIELDS` to floats, or to (n, 1)
    columns that, like ``omega_j``, broadcast against ``t``; row i then
    equals the one-model call bit for bit."""
    if kind is SpectralKind.OHMIC_LORENTZ_DRUDE:
        return _ohmic_rates(fields["omega_c"], omega_j, t, halves)
    # the detuning from the Lorentzian peak at omega0 - detuning
    return _lorentz_rates(fields["rate"], fields["width"],
                          omega_j - (fields["omega0"] - fields["detuning"]), t, halves)


def _closed(half: int, model: SpectralModel, omega_j: float, t):
    """Half 0 (gamma) or 1 (beta) of the family kernel at times ``t`` >= 0, alone."""
    check_domain(None, {"t": t})
    check_domain(None, {"omega_j": omega_j})
    t = np.asarray(t, dtype=float)
    out = closed_rates(model.kind, model.fields(), float(omega_j), t, (half,))[half]
    return out if out.ndim else float(out)


def gamma_closed(model: SpectralModel, omega_j: float, t):
    """Closed-form decay rate gamma_j(t) of the dressed transition omega_j.

    Ohmic Lorentz-Drude:
        gamma = 4 wc^2/(wj^2+wc^2) [wj (1 - e^{-wc t} cos wj t) - wc e^{-wc t} sin wj t]
    Lorentzian (d = omega_j - peak):
        gamma = R lam^2/(d^2+lam^2) {1 + [(d/lam) sin d t - cos d t] e^{-lam t}}

    May be negative in the non-Markovian regime.  Vectorized over ``t``.
    """
    return _closed(0, model, omega_j, t)


def beta_closed(model: SpectralModel, omega_j: float, t):
    """Accumulated exponent beta_j(t) = int_0^t gamma_j, in closed form.

    For the Lorentzian family with d = omega_j - peak:
        beta = R lam^2/(d^2+lam^2) [t - 2 d e^{-lam t} sin(d t)/(d^2+lam^2)
               + (lam^2-d^2)(e^{-lam t} cos(d t) - 1)/(lam (d^2+lam^2))]
    which reduces on resonance (d = 0) to R (t + (e^{-lam t} - 1)/lam).
    """
    return _closed(1, model, omega_j, t)


def check_numeric_time(model: SpectralModel, omega_j: float, t: float,
                       name: str = "t"):
    """Return `gamma_numeric`'s quadrature plan at omega_j and time t, or raise
    ValueError naming the input at fault (a t that is not finite and > 0, ``name``).

    The plan is the segments (side, lo, hi, points) that `gamma_numeric`
    integrates in order; they cover the real line once.  The feature is the
    Ohmic pole pair at center 0 with width sigma = omega_c, or the Lorentzian
    peak with sigma = lambda.  The window [u_lo, u_hi] of u = omega' - omega_j,
    edge max(u_hi, -u_lo), is the hull of omega_j +- W sigma, its mirror and
    center +- W sigma (W = FREQ_WINDOW).  Side 0 is the core [max(u_lo, -r0),
    min(u_hi, r0)], r0 = 6 pi/t, with points [center - omega_j] if inside.
    Sides +1 (in u) and -1 (in v = -u) run under the sine weight from r0 on
    to u_hi and -u_lo, split at center +- 10 sigma, then the tails from u_hi
    and -u_lo to inf.

    The domain, one rule each; the first that fails raises:
    - width square: sigma**2 > 0, else J is 0/0 at the feature.  Names the width.
    - tails' overflow: 200 half-periods pi/t past the edge (quadpack's limlst),
      and a Lorentzian's squared distance from its peak 3 past it, are finite.
      Names ``name``; if no t passes, omega_j when its window alone overflows, else the width.
    - tail start, from t = 1 on: each start a resolves against a + 3 pi, its
      first cycle's end node, or an integrand divides by zero at u = 0.
      Names the width if a = 0 (a window collapsed onto omega_j), else ``name``.
    - tail spacing: pi/t spans at least TAIL_SPACINGS float spacings of the
      edge, or quadpack loses the sine's phase and fails or is silently off.
      Names ``name``.  Every segment starts past r0 and ends inside the edge,
      so this also resolves each segment's start against its end.
    Each rule rejects every t or none, small t or large t: one interval passes.
    """
    check_domain(None, {"t_end": t}, name)  # a grid's time, finite and > 0
    check_domain(None, {"omega_j": omega_j})
    wj = float(omega_j)
    if model.kind is SpectralKind.OHMIC_LORENTZ_DRUDE:
        center, sigma, width = 0.0, model.omega_c, "omega_c"
    else:
        center, sigma, width = model.lorentz_peak(), model.width, "width"

    def outside(who: str, why: str) -> ValueError:  # who: width, name or "omega_j"
        at = "" if who == "omega_j" else f" at omega_j={wj:g}"
        value = {width: sigma, name: t, "omega_j": wj}[who]
        return ValueError(f"{who}={value:g} is outside the numeric-mode domain{at}: {why}")

    if sigma * sigma == 0.0:
        raise outside(width, "its square underflows to 0")

    def window(r):  # (u_lo, u_hi, edge) of the hull of omega_j +- r, its mirror, center +- r
        u_lo = min(wj - r, -(abs(wj) + r), center - r) - wj
        u_hi = max(wj + r, abs(wj) + r, center + r) - wj
        return u_lo, u_hi, max(u_hi, -u_lo)

    def tails_overflow(s, edge):  # s = inf: as t grows without bound
        far = abs(center - wj) + edge + 3.0 * math.pi / s
        return (edge + 200.0 * math.pi / s == math.inf
                or model.kind is SpectralKind.LORENTZIAN and far * far == math.inf)

    u_lo, u_hi, edge = window(FREQ_WINDOW * sigma)
    if tails_overflow(t, edge):  # no t passes: omega_j's fault if no width would pass
        who = (name if not tails_overflow(math.inf, edge) else
               "omega_j" if tails_overflow(math.inf, window(0.0)[2]) else width)
        raise outside(who, f"the quadrature tails from {edge:.3g}, "
                      f"in half-periods of {math.pi / t:.3g}, would overflow")
    for a in (u_hi, -u_lo) if t >= 1.0 else ():  # quadpack evaluates a + 3 pi
        if (a + 3.0 * math.pi) + a == (a + 3.0 * math.pi) - a:
            raise outside(width if a == 0.0 else name, f"the quadrature tail start {a:.3g} is not "
                          f"resolvable against its first cycle of up to 3 pi")
    if math.pi / t < TAIL_SPACINGS * math.ulp(edge):
        raise outside(name, f"the tails' half-period pi/{name} = {math.pi / t:.3g} spans "
                      f"fewer than {TAIL_SPACINGS:.0e} float spacings of their start {edge:.6g}")
    r0 = 6.0 * math.pi / t
    lo, hi, c = max(u_lo, -r0), min(u_hi, r0), center - wj  # c: the feature in u
    plan = [(0, lo, hi, [c] if lo < c < hi else None)] if lo < hi else []
    for side, b, c in ((1, u_hi, c), (-1, -u_lo, -c)):  # side -1 in v = -u
        edges = [r0] + [x for x in (c - 10.0 * sigma, c + 10.0 * sigma) if r0 < x < b] + [b]
        plan += [(side, lo, hi, None) for lo, hi in zip(edges, edges[1:]) if b > r0]
    return plan + [(1, u_hi, math.inf, None), (-1, -u_lo, math.inf, None)]


def _integrands(model: SpectralModel, wj: float, t: float):
    """The integrands of `gamma_numeric`, indexed by the plan's side 0, +1 and
    -1: J(wj + u) sin(u t)/u on the core, J(wj + u)/u and J(wj - v)/v under
    the sine weight.  Each family writes J out in the arithmetic of
    `_scalar_density`, so a quadrature point costs one Python call, not two."""
    if model.kind is SpectralKind.OHMIC_LORENTZ_DRUDE:
        wc2 = model.omega_c ** 2
        return (lambda u: ((2.0 * (w := wj + u) / math.pi) * wc2 / (wc2 + w * w)
                           * (t if u == 0.0 else math.sin(u * t) / u)),
                lambda u: (2.0 * (w := wj + u) / math.pi) * wc2 / (wc2 + w * w) / u,
                lambda v: (2.0 * (w := wj - v) / math.pi) * wc2 / (wc2 + w * w) / v)
    peak, lam2 = model.lorentz_peak(), model.width ** 2
    amp = model.rate * lam2 / (2.0 * math.pi)
    return (lambda u: (amp / ((peak - (wj + u)) ** 2 + lam2)
                       * (t if u == 0.0 else math.sin(u * t) / u)),
            lambda u: amp / ((peak - (wj + u)) ** 2 + lam2) / u,
            lambda v: amp / ((peak - (wj - v)) ** 2 + lam2) / v)


def gamma_numeric(model: SpectralModel, omega_j: float, t: float) -> float:
    """Decay rate gamma_j(t) by adaptive quadrature, independent of the closed forms.

    The time integral of the double integral has the exact primitive
    2 Re int_0^t e^{i u tau} dtau = 2 sin(u t)/u, so

        gamma_j(t) = 2 int J(omega') sin((omega_j - omega') t)/(omega_j - omega') domega'.

    The integral is `check_numeric_time`'s plan, summed segment by segment.
    Time domain: t = 0, where gamma is 0, or that function's, whose
    ValueError names the input at fault.  Raises QuadratureConvergenceError
    when the combined error estimate exceeds the requested tolerances.
    """
    from scipy.integrate import quad

    check_domain(None, {"t": t})
    check_domain(None, {"omega_j": omega_j})
    t, wj = float(t), float(omega_j)
    if t == 0.0:
        return 0.0

    integrands = _integrands(model, wj, t)
    eps = ABS_TOL / 8.0
    total = est = 0.0
    failed = False
    # QAWO (finite sine segments) ignores limlst, QAWF (tails) epsrel; the
    # tails keep a floor on epsabs
    for side, lo, hi, points in check_numeric_time(model, wj, t):
        res = quad(integrands[side], lo, hi, points=points, weight="sin" if side else None,
                   wvar=t, epsabs=eps if hi < math.inf else max(eps, 1e-12),
                   epsrel=REL_TOL, limit=MAX_SUBDIVISIONS, limlst=200, full_output=1)
        total += res[0]  # summed as they come: each result holds limit-sized arrays
        est += res[1]
        failed = failed or len(res) > 3  # quadpack appended a warning message

    total *= 2.0
    est *= 2.0
    if failed and est > max(ABS_TOL, REL_TOL * abs(total)):
        raise QuadratureConvergenceError(
            f"rate quadrature at omega_j={wj}, t={t} did not converge: estimate "
            f"{est:.3e} exceeds tolerance (abs {ABS_TOL:.1e}, rel {REL_TOL:.1e})", est)
    return total


def numeric_rates(model: SpectralModel, omega_j: float, times: np.ndarray):
    """(gamma_j, beta_j) on uniform ``times`` from 0: `gamma_numeric`
    samples, and beta(t) = int_0^t gamma by composite Simpson, with
    beta(0) = 0 exactly."""
    from scipy.integrate import cumulative_simpson

    gamma = np.array([gamma_numeric(model, omega_j, t) for t in times.tolist()])
    if times.size == 1:
        return gamma, np.zeros(1)
    return gamma, cumulative_simpson(gamma, x=times, initial=0.0)


def beta_numeric(model: SpectralModel, omega_j: float, grid) -> np.ndarray:
    """Cumulative exponent beta_j on a uniform grid from gamma_numeric samples.

    ``grid`` is a TimeGrid (uniform, starting at 0); see `numeric_rates`.
    """
    times = np.asarray(grid.times, dtype=float)
    if times[0] != 0.0:
        raise ValueError("grid must start at t = 0")
    return numeric_rates(model, omega_j, times)[1]
