import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityqfi import (
    IntegratorConfig,
    QuadratureConvergenceError,
    SpectralKind,
    SpectralModel,
    TimeGrid,
    beta_closed,
    beta_numeric,
    eval_density,
    gamma_closed,
    gamma_numeric,
    numeric_rates,
)
from cavityqfi import spectral

OHMIC = SpectralModel.ohmic_lorentz_drude


def lorentz(width, detuning=0.5, omega0=1.0, rate=1.0):
    return SpectralModel.lorentzian(rate, width, detuning=detuning, omega0=omega0)


def resonant_lorentz(width, rate=1.0):
    # peak at omega0 - detuning = 0.5; querying omega_j = 0.5 is on resonance
    return lorentz(width, rate=rate)


class TestDensity:
    def test_ohmic_at_cutoff(self):
        assert eval_density(OHMIC(1.0), 1.0) == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_ohmic_at_zero(self):
        assert eval_density(OHMIC(1.0), 0.0) == 0.0

    def test_lorentzian_peak(self):
        m = lorentz(0.5)
        peak = m.omega0 - m.detuning
        assert eval_density(m, peak) == pytest.approx(1.0 / (2 * math.pi), rel=1e-14)

    def test_vectorized(self):
        out = eval_density(OHMIC(2.0), np.array([0.0, 1.0, -1.0]))
        assert out.shape == (3,)
        assert out[1] == -out[2]  # odd density


class TestValidation:
    def test_bad_cutoff(self):
        with pytest.raises(ValueError):
            OHMIC(-1.0)

    def test_bad_width(self):
        with pytest.raises(ValueError):
            SpectralModel.lorentzian(1.0, 0.0, 0.5, 1.0)

    @pytest.mark.parametrize("kind, fields, foreign", [
        (SpectralKind.OHMIC_LORENTZ_DRUDE, {"omega_c": 3.0}, "rate"),
        (SpectralKind.OHMIC_LORENTZ_DRUDE, {"omega_c": 3.0}, "width"),
        (SpectralKind.OHMIC_LORENTZ_DRUDE, {"omega_c": 3.0}, "detuning"),
        (SpectralKind.OHMIC_LORENTZ_DRUDE, {"omega_c": 3.0}, "omega0"),
        (SpectralKind.LORENTZIAN, {"rate": 1.0, "width": 1.0}, "omega_c"),
    ], ids=["ohmic-rate", "ohmic-width", "ohmic-detuning", "ohmic-omega0",
            "lorentzian-omega_c"])
    def test_field_of_other_family_rejected(self, kind, fields, foreign):
        with pytest.raises(ValueError, match=f"^{foreign} is not a parameter"):
            SpectralModel(kind, **fields, **{foreign: 7.0})

    def test_incomplete_lorentzian_rejected_when_built(self):
        # the line's place is part of the model, not filled in by a config
        for fields, message in (({}, "detuning must be finite"),
                                ({"detuning": 0.5}, "omega0 must be finite and > 0"),
                                ({"omega0": 1.0}, "detuning must be finite")):
            with pytest.raises(ValueError, match=f"^{message}, got None"):
                SpectralModel(SpectralKind.LORENTZIAN, rate=1.0, width=1.0, **fields)

    @pytest.mark.parametrize("omega0", [0.0, -1.0])
    def test_lorentzian_omega0_takes_the_atom_domain(self, omega0):
        with pytest.raises(ValueError, match=f"^omega0 must be finite and > 0, got {omega0}"):
            lorentz(1.0, omega0=omega0)


class TestGammaClosed:
    def test_zero_at_t0(self):
        assert gamma_closed(OHMIC(3.0), 1.0, 0.0) == 0.0
        assert gamma_closed(resonant_lorentz(0.5), 0.5, 0.0) == 0.0

    def test_ohmic_zero_transition_frequency(self):
        ts = np.linspace(0.0, 10.0, 50)
        assert np.all(gamma_closed(OHMIC(3.0), 0.0, ts) == 0.0)

    def test_lorentzian_resonant_value(self):
        # resonant rate is R (1 - e^{-lam t}); at lam t = 2 that is 1 - e^-2
        m = resonant_lorentz(0.5)
        got = gamma_closed(m, 0.5, 4.0)
        assert got == pytest.approx(0.8646647167633873, rel=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            gamma_closed(OHMIC(1.0), 1.0, -0.5)

    def test_ohmic_long_time_limit(self):
        # at omega_c t = 50 the transient is e^-50, far below 1e-12 relative
        wc, wj = 2.0, 1.3
        limit = 4.0 * wc**2 * wj / (wj**2 + wc**2)
        got = gamma_closed(OHMIC(wc), wj, 50.0 / wc)
        assert got == pytest.approx(limit, rel=1e-12)
        golden_rule = 2 * math.pi * eval_density(OHMIC(wc), wj)
        assert golden_rule == pytest.approx(limit, rel=1e-14)

    def test_lorentzian_long_time_limit(self):
        m = resonant_lorentz(1.0, rate=2.5)
        assert gamma_closed(m, 0.5, 60.0) == pytest.approx(2.5, rel=1e-12)


class TestBetaClosed:
    def test_zero_at_t0(self):
        assert beta_closed(OHMIC(3.0), 1.0, 0.0) == 0.0
        assert beta_closed(resonant_lorentz(2.0), 0.5, 0.0) == 0.0

    def test_lorentzian_resonant_form(self):
        # beta_1 = R (t + (e^{-lam t} - 1)/lam) on resonance
        lam, R = 0.7, 1.3
        m = resonant_lorentz(lam, rate=R)
        ts = np.linspace(0.0, 12.0, 40)
        expect = R * (ts + (np.exp(-lam * ts) - 1.0) / lam)
        np.testing.assert_allclose(beta_closed(m, 0.5, ts), expect,
                                   rtol=1e-12, atol=1e-14)

    def test_ohmic_zero_transition_frequency(self):
        ts = np.linspace(0.0, 8.0, 30)
        assert np.all(beta_closed(OHMIC(0.5), 0.0, ts) == 0.0)


@st.composite
def closed_form_models(draw):
    if draw(st.booleans()):
        model = OHMIC(draw(st.floats(0.2, 5.0)))
    else:
        model = lorentz(draw(st.floats(0.2, 4.0)),
                        detuning=draw(st.floats(0.0, 1.0)),
                        rate=draw(st.floats(0.5, 3.0)))
    return model


class TestDerivativeConsistency:
    @given(closed_form_models(), st.floats(0.0, 2.5), st.floats(1e-4, 10.0))
    @settings(max_examples=150)
    def test_beta_derivative_is_gamma(self, model, omega_j, t):
        h = 1e-5
        t = max(t, h)
        fd = (beta_closed(model, omega_j, t + h)
              - beta_closed(model, omega_j, t - h)) / (2 * h)
        assert fd == pytest.approx(gamma_closed(model, omega_j, t), abs=1e-6)


class TestGammaNumeric:
    def test_zero_at_t0(self):
        assert gamma_numeric(OHMIC(3.0), 1.0, 0.0) == 0.0

    def test_matches_ohmic_closed(self):
        m = OHMIC(3.0)
        gc = gamma_closed(m, 1.0, 1.0)
        assert gamma_numeric(m, 1.0, 1.0) == pytest.approx(gc, rel=1e-6)

    def test_matches_lorentzian_resonant(self):
        m = resonant_lorentz(0.5)
        got = gamma_numeric(m, 0.5, 4.0)  # lam t = 2
        assert got == pytest.approx(1.0 - math.exp(-2.0), rel=1e-6)

    def test_near_zero_rate_absolute(self):
        m = OHMIC(3.0)
        assert abs(gamma_numeric(m, 0.0, 2.0)) <= 1e-9

    def test_convergence_failure_raises(self, monkeypatch):
        # tolerances near machine precision with a small subdivision budget
        monkeypatch.setattr(spectral, "ABS_TOL", 1e-15)
        monkeypatch.setattr(spectral, "REL_TOL", 1e-15)
        monkeypatch.setattr(spectral, "MAX_SUBDIVISIONS", 100)
        with pytest.raises(QuadratureConvergenceError) as err:
            gamma_numeric(OHMIC(0.3), 1.0, 10.0)
        assert err.value.estimate > 0.0
        assert "at omega_j=1.0, t=10.0 did not converge" in str(err.value)

    @pytest.mark.parametrize("t", [1e17, 1e20, 1e308])
    def test_time_outside_domain_names_t(self, t):
        # the tails' half-period pi/t spans too few float spacings of their
        # start 151.98
        with pytest.raises(ValueError, match=r"^t=\S+ is outside"):
            gamma_numeric(OHMIC(3.0), 0.99, t)

    def test_last_time_inside_domain(self):
        # just below the first rejected time, 1.106e6 for the tails' start
        # 151.98: still a finite rate, and the closed-form one
        m = OHMIC(3.0)
        assert math.isfinite(gamma_numeric(m, 0.99, 1.1e6))
        assert gamma_numeric(m, 0.99, 1.1e6) == pytest.approx(
            gamma_closed(m, 0.99, 1.1e6), rel=1e-6)
        with pytest.raises(ValueError, match=r"^t=1.2e\+06 is outside"):
            gamma_numeric(m, 0.99, 1.2e6)

    @pytest.mark.parametrize("t", [7e-154, 1e-200])
    def test_lorentzian_time_below_domain_names_t(self, t):
        # the sine-weighted tails sample 3 pi/t past the window, where
        # (peak - omega')**2 would overflow
        with pytest.raises(ValueError, match=r"^t=\S+ is outside"):
            gamma_numeric(lorentz(1.0), 0.5, t)

    @pytest.mark.parametrize("model, wj, t", [
        (OHMIC(3.0), 0.99, 3.4e-306), (OHMIC(3.0), 0.99, 1e-307),
        (OHMIC(0.03), 0.0, 5e-324), (lorentz(1.0), 0.5, 5e-324)],
        ids=["ohmic-edge", "ohmic", "ohmic-subnormal", "lorentzian-subnormal"])
    def test_cycle_ends_below_domain_name_t(self, model, wj, t):
        # the ends of the tails' 200 cycles of pi/t would overflow; checked
        # without gamma_numeric, which crashed the interpreter there
        with pytest.raises(ValueError, match=r"^t=\S+ is outside"):
            spectral.check_numeric_time(model, wj, t)

    def test_first_time_inside_domain(self):
        # just above each family's lower end, still a finite rate
        assert math.isfinite(gamma_numeric(lorentz(1.0), 0.5, 1e-150))
        assert math.isfinite(gamma_numeric(OHMIC(3.0), 0.99, 1e-305))

    @pytest.mark.parametrize("model, wj, rule", [
        (OHMIC(1e-150), 0.5, "omega_c=1e-150"), (lorentz(1e-150), 0.5, "width=1e-150"),
        (lorentz(1e-150), -1.5, "width=1e-150"),
        # nonzero tail starts: 5e-99, and 4.4e-16, which pi would resolve
        (OHMIC(1e-100), 0.0, "t=1"), (OHMIC(1e-17), 1.0, "t=1")],
        ids=["ohmic", "lorentzian", "lorentzian-lower-tail", "ohmic-wj0", "ohmic-ulp"])
    def test_collapsed_window_is_named(self, model, wj, rule):
        # the tails' first cycle would end on a node at u = 0, where their
        # integrands divide by zero; rejected before quadpack runs
        with pytest.raises(ValueError, match=f"^{rule} is outside"):
            gamma_numeric(model, wj, 1.0)
        # below t = 1 the tails never evaluate a cycle's end node
        assert math.isfinite(gamma_numeric(model, wj, 0.5))

    @pytest.mark.parametrize("model, rule", [
        (lorentz(1e308), "width=1e+308"), (lorentz(1e153), "width=1e+153"),
        (OHMIC(1e308), "omega_c=1e+308")],
        ids=["lorentzian-edge", "lorentzian-edge-squared", "ohmic-edge"])
    def test_empty_domain_is_named_by_the_width(self, model, rule):
        # the window edge overflows, or a Lorentzian's squared distance from
        # its peak past it: the tails overflow at every t, so no t_end passes
        for t in (5e-324, 1e-300, 0.5, 20.0, 1e300):
            with pytest.raises(ValueError, match=f"^{re.escape(rule)} is outside"):
                spectral.check_numeric_time(model, 0.5, t, name="t_end")

    @pytest.mark.parametrize("model, wj, rule", [
        # a coupling of 1e200 puts both transitions 1e200 from the line's peak
        (lorentz(1.0, detuning=1e200), 1.0 - 1e200, "omega_j=-1e+200"),
        (lorentz(1.0, detuning=1e200), 1.0 + 1e200, "omega_j=1e+200"),
        (OHMIC(3.0), 1e308, "omega_j=1e+308")],
        ids=["lorentzian-omega_1", "lorentzian-omega_2", "ohmic"])
    def test_empty_domain_is_named_by_the_transition(self, model, wj, rule):
        # the tails overflow from the window's mirror point -|omega_j| alone,
        # so no t passes at any width: the transition is at fault
        for t in (5e-324, 1e-300, 0.5, 20.0, 1e300):
            with pytest.raises(ValueError, match=f"^{re.escape(rule)} is outside "
                                                 "the numeric-mode domain: the quadrature"):
                spectral.check_numeric_time(model, wj, t, name="t_end")


@pytest.mark.parametrize("model, wj", [
    (OHMIC(3.0), 0.99), (OHMIC(3.0), 0.5), (OHMIC(0.3), 1.5), (OHMIC(300.0), 0.5),
    (lorentz(1.0, detuning=0.0), 1.0), (lorentz(0.1, detuning=0.0), 1.5),
    (lorentz(3.0, detuning=0.0), 0.5), (lorentz(300.0, detuning=0.0), 1.0)],
    ids=["ohmic", "ohmic-wj0.5", "ohmic-narrow", "ohmic-wide", "lorentzian",
         "lorentzian-narrow", "lorentzian-wj0.5", "lorentzian-wide"])
def test_numeric_rate_is_closed_or_rejected_at_every_decade(model, wj):
    # from 1e-3 to 1e16: quadpack's rate is the closed form, or t lies past
    # the numeric-mode domain; never a value that missed its tolerance
    for k in range(-3, 17):
        t = 10.0 ** k
        try:
            got = gamma_numeric(model, wj, t)
        except ValueError as exc:
            assert str(exc).startswith(f"t={t:g} is outside"), (t, exc)
            continue
        assert got == pytest.approx(gamma_closed(model, wj, t), rel=1e-6), t


# A numeric grid is checked at its first nonzero and last times only
# (`dynamics._check_numeric_grid`).  That is sound if the times
# `check_numeric_time` accepts on each (model, omega_j) line form one run.
# Widths run from where their square underflows to where the window edge
# overflows, and times from subnormal to 1e308, in coarse steps.
DOMAIN_LINES = [(family(10.0 ** k), name, wj)
                for family, name in ((OHMIC, "omega_c"), (lorentz, "width"))
                for k in range(-165, 309, 10) for wj in (-1.5, 0.0, 1e-17, 0.5, 3.0, 1e150)]
DOMAIN_TIMES = [5e-324] + [10.0 ** (k / 4) for k in range(-1236, 1233, 12)]


def test_accepted_times_are_one_interval():
    for model, width, wj in DOMAIN_LINES:
        accepted = []
        for i, t in enumerate(DOMAIN_TIMES):
            try:
                spectral.check_numeric_time(model, wj, t)
            except ValueError as exc:
                assert str(exc).startswith((f"t={t:g} is outside", f"{width}=")), exc
            else:
                accepted.append(i)
        assert not accepted or accepted[-1] - accepted[0] + 1 == len(accepted), (model, wj)


def test_plan_covers_the_real_line_once():
    # in u, a side -1 segment [lo, hi] of v = -u is [-hi, -lo]; the segments
    # meet end to end from -inf to inf.  A segment has zero length where the
    # split points center +- 10 sigma round onto each other (Ohmic
    # omega_c = 1e-155 at omega_j = 1e150)
    for model, _, wj in DOMAIN_LINES:
        for t in DOMAIN_TIMES:
            try:
                plan = spectral.check_numeric_time(model, wj, t)
            except ValueError:
                continue
            spans = sorted((-hi, -lo) if side == -1 else (lo, hi) for side, lo, hi, _ in plan)
            assert spans[0][0] == -math.inf and spans[-1][1] == math.inf, (model, wj, t)
            assert all(lo <= hi for lo, hi in spans), (model, wj, t)
            assert all(a[1] == b[0] for a, b in zip(spans, spans[1:])), (model, wj, t)
            for side, lo, hi, points in plan:
                assert points is None or side == 0 and all(lo < p < hi for p in points)


@pytest.mark.parametrize("model, wj, t", [
    (OHMIC(3.0), 0.99, 2.0), (OHMIC(0.3), 0.0, 40.0),
    (lorentz(1.0), 0.5, 0.5), (lorentz(0.1), 3.0, 1e3)],
    ids=["ohmic", "ohmic-wj0", "lorentzian", "lorentzian-off"])
def test_gamma_numeric_integrates_exactly_the_plan(monkeypatch, model, wj, t):
    import scipy.integrate

    calls, quad = [], scipy.integrate.quad

    def recorder(f, a, b, **kwargs):
        calls.append((a, b, kwargs.get("weight"), kwargs.get("points")))
        return quad(f, a, b, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", recorder)
    gamma_numeric(model, wj, t)
    assert calls == [(lo, hi, "sin" if side else None, points)
                     for side, lo, hi, points in spectral.check_numeric_time(model, wj, t)]


# Accepted by `check_numeric_time` and 9.2e-5 to 1.84e-4 off relative, while
# quadpack's summed error estimate is 2e-11 to 5e-11.  `gamma_closed` has no
# cancellation here (e^{-width t} is 0).  Strict: a fix of the domain must
# remove the marker.
@pytest.mark.xfail(strict=True, reason="known defect: the numeric-mode domain "
                   "accepts these points and quadrature misses its tolerance")
@pytest.mark.parametrize("model, wj, t", [
    (OHMIC(1e-3), 0.5, 1e7), (OHMIC(1e-2), 3.0, 1e7),
    (lorentz(1e-2), 3.0, 1e6), (lorentz(1e-2), 3.0, 1e7)],
    ids=["ohmic-1e-3", "ohmic-1e-2", "lorentzian-1e6", "lorentzian-1e7"])
def test_silent_quadrature_error_is_rejected_or_closed(model, wj, t):
    try:
        spectral.check_numeric_time(model, wj, t)
    except ValueError:
        return
    assert gamma_numeric(model, wj, t) == pytest.approx(gamma_closed(model, wj, t), rel=1e-6)


@pytest.mark.parametrize("model, wj", [(OHMIC(3.0), 1.0), (OHMIC(0.3), 0.0),
                                       (lorentz(1.0), 0.5), (lorentz(0.1), 3.0)],
                         ids=["ohmic", "ohmic-wj0", "lorentzian", "lorentzian-off"])
def test_inlined_integrands_equal_the_density_closure(model, wj):
    # each integrand writes J out; it must give the closure's bits exactly
    t = 2.7
    J = spectral._scalar_density(model)
    f_near, g_plus, g_minus = spectral._integrands(model, wj, t)
    us = np.concatenate(([0.0], np.linspace(-40.0, 40.0, 401), [1e-9, -3e-300]))
    for u in us.tolist():
        k = t if u == 0.0 else math.sin(u * t) / u
        assert f_near(u).hex() == (J(wj + u) * k).hex()  # sign of zero too
        if u != 0.0:
            assert g_plus(u).hex() == (J(wj + u) / u).hex()
            assert g_minus(u).hex() == (J(wj - u) / u).hex()


class TestNumericRates:
    def test_samples_then_integrates(self):
        m, times = OHMIC(3.0), TimeGrid(2.0, 9).times
        gamma, beta = numeric_rates(m, 0.5, times)
        np.testing.assert_array_equal(
            gamma, [gamma_numeric(m, 0.5, t) for t in times])
        np.testing.assert_array_equal(beta, beta_numeric(m, 0.5, TimeGrid(2.0, 9)))

    def test_reads_no_closed_form(self, monkeypatch):
        # the quadrature oracle stays independent of the closed forms
        def forbidden(*args, **kwargs):
            raise AssertionError("the quadrature oracle read a closed form")

        for name in ("gamma_closed", "beta_closed", "closed_rates",
                     "_ohmic_rates", "_lorentz_rates"):
            monkeypatch.setattr(spectral, name, forbidden)
        gamma, beta = numeric_rates(lorentz(3.0), 0.5, TimeGrid(2.0, 5).times)
        assert np.all(np.isfinite(gamma)) and beta[0] == 0.0


class TestBetaNumeric:
    def test_single_point_grid(self):
        out = beta_numeric(OHMIC(3.0), 1.0, TimeGrid(1.0, 1))
        np.testing.assert_array_equal(out, [0.0])

    def test_grid_must_start_at_zero(self):
        class Shifted:
            times = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            beta_numeric(OHMIC(3.0), 1.0, Shifted())

    def test_matches_closed_ohmic(self):
        m = OHMIC(3.0)
        grid = TimeGrid(10.0, 401)
        bn = beta_numeric(m, 1.0, grid)
        bc = beta_closed(m, 1.0, grid.times)
        assert np.max(np.abs(bn - bc)) <= 1e-5

    def test_matches_closed_lorentzian_resonant(self):
        lam = 1.0
        m = resonant_lorentz(lam)
        grid = TimeGrid(2.0, 81)  # includes lam t = 1 at index 40
        bn = beta_numeric(m, 0.5, grid)
        t = grid.times[40]
        assert t == pytest.approx(1.0)
        want = 1.0 * (t + (math.exp(-lam * t) - 1.0) / lam)
        assert bn[40] == pytest.approx(want, abs=1e-6)


# A non-finite t or omega_j lies outside every rate function's domain, as
# does a negative t: each raises ValueError naming it.  A NaN t reached
# quadpack, which crashed the interpreter on it, so that case runs in a
# subprocess below.
NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}
RATE_FUNCTIONS = {"gamma_closed": gamma_closed, "beta_closed": beta_closed,
                  "check_numeric_time": spectral.check_numeric_time,
                  "gamma_numeric": gamma_numeric}
ARGUMENT_CASES = [(f, arg, v) for f in RATE_FUNCTIONS for arg in ("t", "omega_j")
                  for v in NON_FINITE if (f, arg, v) != ("gamma_numeric", "t", "nan")]


@pytest.mark.parametrize("model", [OHMIC(3.0), lorentz(1.0)], ids=["ohmic", "lorentzian"])
@pytest.mark.parametrize("function, arg, value", ARGUMENT_CASES,
                         ids=["-".join(case) for case in ARGUMENT_CASES])
def test_non_finite_rate_argument_names_it(model, function, arg, value):
    args = {"omega_j": 0.5, "t": 1.0, arg: NON_FINITE[value]}
    rule = {"t": "t must be finite and >= 0", "omega_j": "omega_j must be finite"}[arg]
    if (function, arg) == ("check_numeric_time", "t"):  # the domain of a grid time
        rule = "t must be finite and > 0"
    with pytest.raises(ValueError, match=f"^{rule}, got {value}$"):
        RATE_FUNCTIONS[function](model, args["omega_j"], args["t"])


@pytest.mark.parametrize("rate", [gamma_closed, beta_closed])
def test_bad_time_in_an_array_or_a_string_is_named(rate):
    times = np.array([0.0, 1.0, -2.0, math.nan])
    with pytest.raises(ValueError, match=r"^t must be finite and >= 0, got -2.0$"):
        rate(OHMIC(3.0), 0.5, times)
    with pytest.raises(ValueError, match="^t must be a real number, got '1'$"):
        rate(OHMIC(3.0), 0.5, "1")


# Every rule of `spectral._DOMAIN` through a call that applies it, with a bad
# float, a 3-row column bad in row 1 and an int: a grid or rate input shows
# its value as a float, a config field as given.  A str or a bool is no number.
OHM_KIND, LOR_KIND = SpectralKind.OHMIC_LORENTZ_DRUDE, SpectralKind.LORENTZIAN
DOMAIN_CALLS = {
    "omega_c": lambda v: spectral.check_domain(OHM_KIND, {"omega_c": v}),
    "rate": lambda v: spectral.check_domain(LOR_KIND, {"rate": v}),
    "width": lambda v: spectral.check_domain(LOR_KIND, {"width": v}),
    "detuning": lambda v: spectral.check_domain(LOR_KIND, {"detuning": v}),
    "omega0": lambda v: spectral.check_domain(OHM_KIND, {"omega0": v}),
    "coupling": lambda v: spectral.check_domain(LOR_KIND, {"coupling": v}),
    "coupling-omega0": lambda v: spectral.check_domain(OHM_KIND, {"coupling": v, "omega0": 1.0}),
    "theta": lambda v: spectral.check_domain(OHM_KIND, {"theta": v}),
    "phi": lambda v: spectral.check_domain(OHM_KIND, {"phi": v}),
    "t_end": lambda v: TimeGrid(v, 3),
    "n_points": lambda v: TimeGrid(1.0, v),
    "step": lambda v: IntegratorConfig(v),
    "t": lambda v: gamma_closed(OHMIC(3.0), 0.5, v),
    "omega_j": lambda v: gamma_closed(OHMIC(3.0), v, 1.0),  # a scalar: no column
}
OHMIC_PAIR = "coupling must satisfy 0 <= coupling <= omega0 for an Ohmic reservoir, got "
DOMAIN_MESSAGES = [
    ("omega_c", -1.0, "omega_c must be finite and > 0, got -1.0"),
    ("omega_c", [3.0, -1.0, 3.0], "omega_c must be finite and > 0, got -1.0"),
    ("omega_c", -1, "omega_c must be finite and > 0, got -1"),
    ("rate", 0.0, "rate must be finite and > 0, got 0.0"),
    ("rate", [1.0, 0.0, 1.0], "rate must be finite and > 0, got 0.0"),
    ("rate", 0, "rate must be finite and > 0, got 0"),
    ("width", math.nan, "width must be finite and > 0, got nan"),
    ("width", [1.0, math.nan, 1.0], "width must be finite and > 0, got nan"),
    ("width", -2, "width must be finite and > 0, got -2"),
    ("detuning", math.inf, "detuning must be finite, got inf"),
    ("detuning", [0.5, -math.inf, 0.5], "detuning must be finite, got -inf"),
    ("omega0", -0.0, "omega0 must be finite and > 0, got -0.0"),
    ("omega0", [1.0, -0.0, 1.0], "omega0 must be finite and > 0, got -0.0"),
    ("omega0", -1, "omega0 must be finite and > 0, got -1"),
    ("coupling", -1.0, "coupling must be finite and >= 0, got -1.0"),
    ("coupling", [0.5, math.inf, 0.5], "coupling must be finite and >= 0, got inf"),
    ("coupling", -1, "coupling must be finite and >= 0, got -1"),
    ("coupling-omega0", 1.5, OHMIC_PAIR + "coupling=1.5, omega0=1.0"),
    ("coupling-omega0", [0.5, 1.5, 0.5], OHMIC_PAIR + "coupling=1.5, omega0=1.0"),
    ("coupling-omega0", 2, OHMIC_PAIR + "coupling=2, omega0=1.0"),
    ("theta", 4.0, "theta must lie in [0, pi], got 4.0"),
    ("theta", [1.0, -1e-300, 1.0], "theta must lie in [0, pi], got -1e-300"),
    ("theta", 4, "theta must lie in [0, pi], got 4"),
    ("phi", 2 * math.pi, "phi must lie in [0, 2 pi), got 6.283185307179586"),
    ("phi", [1.0, 2 * math.pi, 1.0], "phi must lie in [0, 2 pi), got 6.283185307179586"),
    ("phi", 7, "phi must lie in [0, 2 pi), got 7"),
    ("t_end", 0.0, "t_end must be finite and > 0, got 0.0"),
    ("t_end", [1.0, 0.0, 1.0], "t_end must be finite and > 0, got 0.0"),
    ("t_end", -1, "t_end must be finite and > 0, got -1.0"),
    ("n_points", 2.0, "n_points must be an integer, got 2.0"),
    ("n_points", [3, 0, 3], "n_points must be an integer, got [3, 0, 3]"),
    ("n_points", 0, "n_points must be >= 1, got 0"),
    ("step", -math.inf, "step must be finite and > 0, got -inf"),
    ("step", [0.1, 0.0, 0.1], "step must be finite and > 0, got 0.0"),
    ("step", 0, "step must be finite and > 0, got 0.0"),
    ("t", -2.0, "t must be finite and >= 0, got -2.0"),
    ("t", [1.0, -2.0, 1.0], "t must be finite and >= 0, got -2.0"),
    ("t", -1, "t must be finite and >= 0, got -1.0"),
    ("omega_j", math.nan, "omega_j must be finite, got nan"),
] + [(rule, v, f"{rule.split('-')[0]} must be "
               f"{'an integer' if rule == 'n_points' else 'a real number'}, got {v!r}")
     for rule in DOMAIN_CALLS for v in ("1", True)]


@pytest.mark.parametrize("rule, value, message", DOMAIN_MESSAGES,
                         ids=[f"{rule}-{value!r}" for rule, value, _ in DOMAIN_MESSAGES])
def test_domain_message_of_every_rule(rule, value, message):
    with pytest.raises(ValueError) as err:
        DOMAIN_CALLS[rule](value)
    assert str(err.value) == message

def test_numeric_grid_time_named_by_caller():
    with pytest.raises(ValueError, match="^t_end must be finite and > 0, got nan$"):
        spectral.check_numeric_time(OHMIC(3.0), 0.5, math.nan, name="t_end")
    # t = 0 divided by zero in the half-periods pi/t
    with pytest.raises(ValueError, match="^t must be finite and > 0, got 0.0$"):
        spectral.check_numeric_time(OHMIC(3.0), 0.5, 0.0)


SRC = str(Path(spectral.__file__).resolve().parents[1])


@pytest.mark.parametrize("model", ["SpectralModel.ohmic_lorentz_drude(3.0)",
                                   "SpectralModel.lorentzian(1.0, 1.0, 0.5, 1.0)"],
                         ids=["ohmic", "lorentzian"])
def test_nan_time_to_gamma_numeric_raises_and_does_not_crash(model):
    # quadpack crashed the interpreter (exit 139, SIGSEGV) on a NaN t; in a
    # subprocess such a crash fails this test, not the test session
    code = ("import sys; sys.path.insert(0, sys.argv[1])\n"
            "from cavityqfi import SpectralModel, gamma_numeric\n"
            f"gamma_numeric({model}, 1.0, float('nan'))")
    proc = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 1, (proc.returncode, proc.stderr)
    assert proc.stderr.splitlines()[-1] == "ValueError: t must be finite and >= 0, got nan"
