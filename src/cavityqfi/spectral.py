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
states the domain of every numeric input once: `check_domain` applies it to
config fields as columns, `_check` to one named input such as a rate's t.

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
    ("coupling", "omega0"): (SpectralKind.OHMIC_LORENTZ_DRUDE, lambda g, w0: ~(g > w0),
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


def _check_real(name: str, v) -> None:
    """Raise ValueError naming ``name`` unless ``v`` is a real number (not a bool or str)."""
    if np.asarray(v).dtype.kind not in "fiu":
        raise ValueError(f"{name} must be a real number, got {v!r}")


def _check(field: str, v, name: str | None = None, got: str | None = None) -> None:
    """Raise ValueError naming ``name`` (default ``field``), showing ``got`` if
    given, unless ``v`` (a number or array) has the type and `_DOMAIN` rule of ``field``."""
    name = name or field
    if field == "n_points":  # the one integer input
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {v!r}")
    elif not isinstance(v, float):
        _check_real(name, v)
        v = np.asarray(v, dtype=float)
    _, holds, message = _DOMAIN[field,]
    ok = holds(v)
    if not (ok if type(ok) is bool else ok.all()):
        bad = v if np.ndim(v) == 0 else v.flat[np.argmin(ok)]
        raise ValueError(message.format(name=name, value=bad if got is None else got))


def check_domain(kind: SpectralKind, fields: dict) -> None:
    """Raise ValueError for the first row of ``fields``, and its first rule
    of `_DOMAIN`, outside the domain.  ``fields`` maps names to floats or
    equal-length columns (None reads as NaN); a rule runs when every field
    it reads is given.  A field that is not a real number, such as a
    numeric string or a bool, raises ValueError naming it (`_check_real`)."""
    for name, v in fields.items():
        if v is not None:
            _check_real(name, v)
    cols = {k: np.asarray(v, dtype=float) for k, v in fields.items()}
    failures = []  # (first bad row, rule) of each rule that fails
    for rule, (names, (family, holds, message)) in enumerate(_DOMAIN.items()):
        if family in (None, kind) and all(n in cols for n in names):
            bad = np.flatnonzero(~holds(*(cols[n] for n in names)))
            if bad.size:
                failures.append((bad[0], rule, names, message))
    if failures:
        i, _, names, message = min(failures)
        values = [fields[n] if np.ndim(fields[n]) == 0 else float(fields[n][i])
                  for n in names]
        raise ValueError(message.format(*values, name=names[0], value=values[0]))


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
    _check("t", t)
    _check("omega_j", omega_j)
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
    """Raise ValueError naming ``name`` (or a non-finite omega_j) unless time
    t > 0 lies in the domain of `gamma_numeric`; return its plan (u_lo, u_hi,
    center, r0, sides): the finite frequency window as offsets u = omega' -
    omega_j, the spectral feature's center, the core radius r0 = 6 pi/t, and
    the edges of the sine-weighted segments.

    The feature is the Ohmic pole pair around 0 with width sigma = omega_c,
    or the Lorentzian peak with width sigma = lambda.  The window is the
    hull of the transition window ``omega_j +- W sigma``, its mirror image
    around zero (the Ohmic pole structure straddles the origin), and
    ``center +- W sigma``, with W = FREQ_WINDOW.  The segments start at r0:
    one list of edges for u in (r0, u_hi) and one for v = -u in (r0, -u_lo),
    each split at the spectral feature's edges, and empty where the window
    does not reach past r0.
    Domain: the width sigma must have a nonzero square, or the integrands'
    density is 0/0 at the feature, where quadpack may place a node; the
    error names the width.
    Every segment [a, b] must resolve its start against its far end,
    (b + a) != (b - a) in floating point.  Otherwise quadpack's end node
    (centr - hlgth) rounds to exactly 0, where J(omega_j + u)/u divides by
    zero.  r0 falls as t grows, so the check at a grid's last time covers
    the grid from above.  The tails step in half-periods pi/t past the
    window, at most 200 of them (quadpack's limlst), whose ends must stay
    finite, or quadpack crashes; and a Lorentzian's tails sample up to three,
    where Python's ``**`` must square their distance from the peak without
    overflow.  Both reach further as t falls, so the check at a grid's first
    nonzero time covers the grid from below.
    Each tail starts at the window edge a = u_hi or -u_lo and runs in cycles
    of (2 floor(t) + 1) half-periods, at most 3 pi long.  From t = 1 on,
    quadpack's rule for a cycle evaluates its end node, so a must resolve
    against a + 3 pi, as a segment's start against its end: a tail start of
    exactly 0 (the window collapsed onto omega_j) names the family's width,
    and a nonzero one names ``name``.  Below t = 1 no end node is evaluated,
    so the check at a grid's last time covers the grid.
    The tails' nodes are floats near the window edge max(u_hi, -u_lo), so
    the sine weight's phase u t is known only to t times their spacing: a
    half-period pi/t must span at least TAIL_SPACINGS = 1/REL_TOL spacings
    of the edge, or quadpack fails or silently returns values about 2e-4
    off, relative.  That puts the top at t = 1.1e6 for an edge of about 150
    (Ohmic omega_c = 3, or width 3), and as pi/t falls with t, the check at
    a grid's last time covers the grid from above.
    """
    _check("t_end", t, name)  # a grid's time, finite and > 0
    _check("omega_j", omega_j)
    wj = float(omega_j)
    if model.kind is SpectralKind.OHMIC_LORENTZ_DRUDE:
        center, sigma, width = 0.0, model.omega_c, "omega_c"
    else:
        center, sigma, width = model.lorentz_peak(), model.width, "width"
    if sigma * sigma == 0.0:  # the integrands' density is 0/0 at the feature
        raise ValueError(f"{width}={sigma:g} is outside the numeric-mode domain: "
                         f"its square underflows to 0")
    r = FREQ_WINDOW * sigma
    u_lo = min(wj - r, -(abs(wj) + r), center - r) - wj
    u_hi = max(wj + r, abs(wj) + r, center + r) - wj
    edge = max(u_hi, -u_lo)
    far = abs(center - wj) + edge + 3.0 * math.pi / t
    if (edge + 200.0 * math.pi / t == math.inf
            or model.kind is SpectralKind.LORENTZIAN and far * far == math.inf):
        raise ValueError(f"{name}={t:g} is outside the numeric-mode time domain: "
                         f"the quadrature tails of omega_j={wj:g}, in half-periods "
                         f"of {math.pi / t:.3g}, would overflow")
    if t >= 1.0:  # quadpack evaluates the end node of each tail's first cycle
        for a in (u_hi, -u_lo):
            if a == 0.0:
                raise ValueError(f"{width}={sigma:g} is outside the numeric-mode domain: "
                                 f"the quadrature window of omega_j={wj:g} collapses onto it")
            if (a + 3.0 * math.pi) + a == (a + 3.0 * math.pi) - a:
                raise ValueError(f"{name}={t:g} is outside the numeric-mode time domain: "
                                 f"the quadrature tail start {a:.3g} of omega_j={wj:g} is "
                                 f"not resolvable against its first cycle of up to 3 pi")
    r0 = 6.0 * math.pi / t
    sides = []
    for a, b, sign, reach in ((max(r0, u_lo), u_hi, 1.0, u_hi > r0),
                              (max(r0, -u_hi), -u_lo, -1.0, u_lo < -r0)):
        bks = [sign * (center - wj) + s * 10.0 * sigma for s in (-1, 1)]
        edges = [a] + [x for x in sorted(bks) if a < x < b] + [b] if reach else []
        for seg_lo, seg_hi in zip(edges[:-1], edges[1:]):
            if seg_hi + seg_lo == seg_hi - seg_lo:
                raise ValueError(
                    f"{name}={t:g} is outside the numeric-mode time domain: "
                    f"the core radius 6 pi/{name} = {r0:.3g} is not "
                    f"resolvable against the quadrature segment end "
                    f"{seg_hi:.6g} of omega_j={wj:g}")
        sides.append(edges)
    if math.pi / t < TAIL_SPACINGS * math.ulp(edge):
        raise ValueError(f"{name}={t:g} is outside the numeric-mode time domain: "
                         f"the quadrature tails' half-period pi/{name} = "
                         f"{math.pi / t:.3g} spans fewer than {TAIL_SPACINGS:.0e} "
                         f"float spacings of their start {edge:.6g} of omega_j={wj:g}")
    return u_lo, u_hi, center, r0, sides


def _integrands(model: SpectralModel, wj: float, t: float):
    """The integrands of `gamma_numeric`: J(wj + u) sin(u t)/u on the core,
    J(wj + u)/u and J(wj - v)/v under the sine weight.  Each family writes J
    out in the arithmetic of `_scalar_density`, so a quadrature point costs
    one Python call, not two."""
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

    The frequency integral is split into a non-oscillatory core around the
    kernel peak (plain adaptive quadrature), oscillatory stretches inside the
    finite window (sine-weighted quadrature, split at the spectral feature),
    and sine-weighted tails that always run from the window edges to +-infinity.

    Time domain: t = 0, where gamma is 0, or `check_numeric_time`'s: very
    large t, t below about 7e-154 (Lorentzian) or 3.5e-306 (Ohmic), a
    negative or non-finite t and a non-finite omega_j raise ValueError
    naming it; so does a width whose square underflows, and from t = 1 on a
    width too small to show against omega_j, naming the width or t.  Raises
    QuadratureConvergenceError when the combined error estimate exceeds the
    requested tolerances.
    """
    from scipy.integrate import quad

    _check("t", t)
    _check("omega_j", omega_j)
    t, wj = float(t), float(omega_j)
    if t == 0.0:
        return 0.0

    u_lo, u_hi, center, r0, sides = check_numeric_time(model, wj, t)

    eps_a = ABS_TOL / 8.0
    total = 0.0
    est = 0.0
    failed = False

    def accumulate(res):
        nonlocal total, est, failed
        total += res[0]
        est += res[1]
        if len(res) > 3:  # quadpack appended a warning message
            failed = True

    # non-oscillatory core: a few kernel cycles around u = 0
    near_lo, near_hi = max(u_lo, -r0), min(u_hi, r0)
    f_near, g_plus, g_minus = _integrands(model, wj, t)
    if near_lo < near_hi:
        pts = [center - wj] if near_lo < center - wj < near_hi else None
        accumulate(quad(f_near, near_lo, near_hi, points=pts,
                        limit=MAX_SUBDIVISIONS, epsabs=eps_a, epsrel=REL_TOL,
                        full_output=1))

    for g, edges in zip((g_plus, g_minus), sides):
        for seg_lo, seg_hi in zip(edges[:-1], edges[1:]):
            accumulate(quad(g, seg_lo, seg_hi, weight="sin", wvar=t,
                            limit=MAX_SUBDIVISIONS, epsabs=eps_a, epsrel=REL_TOL,
                            full_output=1))

    for g, a in ((g_plus, u_hi), (g_minus, -u_lo)):
        accumulate(quad(g, a, np.inf, weight="sin", wvar=t,
                        epsabs=max(eps_a, 1e-12), limlst=200,
                        limit=MAX_SUBDIVISIONS, full_output=1))

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
