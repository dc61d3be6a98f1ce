"""F_phi of the closed-form amplitude against a 40-digit mpmath evaluation of
the same closed forms on the same float inputs: coupling 0.5, theta = pi/2
and 201 points to t = 20, as in README's "Accuracy of narrow Lorentzian
lines".  A CSV prints 12 significant digits, which a relative error of at
most 5e-13 holds.  The Ohmic gamma is checked the same way, and decides
between the closed form and the quadrature oracle where they disagree."""

import mpmath
import pytest

from cavityqfi.dynamics import TimeGrid, amplitude
from cavityqfi.metrics import qfi_closed
from cavityqfi.presets import make_config
from cavityqfi.spectral import ABS_TOL, SpectralKind, SpectralModel, gamma_closed, gamma_numeric

PRINTED_DIGITS = 5e-13
GRID = TimeGrid(20.0, 201)


def beta(model, wj, t):
    """beta_j(t) of `spectral.beta_closed`'s formulas, in mpmath."""
    wj, t = mpmath.mpf(wj), mpmath.mpf(t)
    if model.kind is SpectralKind.OHMIC_LORENTZ_DRUDE:
        wc = mpmath.mpf(model.omega_c)
        den = wj * wj + wc * wc
        e, c, s = mpmath.exp(-wc * t), mpmath.cos(wj * t), mpmath.sin(wj * t)
        return (4 * wc * wc / den ** 2) * (
            den * wj * t + 2 * wc * wj * (e * c - 1) - (wj * wj - wc * wc) * e * s)
    rate, lam = mpmath.mpf(model.rate), mpmath.mpf(model.width)
    d = wj - (mpmath.mpf(model.omega0) - mpmath.mpf(model.detuning))
    den = d * d + lam * lam
    e, c, s = mpmath.exp(-lam * t), mpmath.cos(d * t), mpmath.sin(d * t)
    return (rate * lam * lam / den) * (
        t - 2 * d * e * s / den + (lam * lam - d * d) * (e * c - 1) / (lam * den))


def gamma(model, wj, t):
    """gamma_j(t) of `spectral.gamma_closed`'s Ohmic formula, in mpmath."""
    wc, wj, t = mpmath.mpf(model.omega_c), mpmath.mpf(wj), mpmath.mpf(t)
    e, c, s = mpmath.exp(-wc * t), mpmath.cos(wj * t), mpmath.sin(wj * t)
    return (4 * wc * wc / (wj * wj + wc * wc)) * (wj * (1 - e * c) - wc * e * s)


def f_phi(cfg, t):
    """|p(t)|^2 sin^2(theta), p = (e^{-i w1 t - beta_1/4} + e^{-i w2 t - beta_2/4}) / 2."""
    p = sum(mpmath.exp(-1j * mpmath.mpf(wj) * mpmath.mpf(t) - beta(cfg.spectral, wj, t) / 4)
            for wj in (cfg.omega_1, cfg.omega_2)) / 2
    return abs(p) ** 2 * mpmath.sin(mpmath.mpf(cfg.theta)) ** 2


# e^{-lam t} cos(d t) - 1 keeps an absolute rounding of about 1e-16, which
# the Lorentzian beta divides by the width
NARROW = pytest.mark.xfail(strict=True, reason="the Lorentzian beta kernel loses "
                           "digits below a width of about 1e-3")
CASES = [("lorentzian", 3e-2), ("lorentzian", 1e-2),
         *[pytest.param("lorentzian", w, marks=NARROW) for w in (1e-4, 1e-6, 1e-8)],
         *[("ohmic", wc) for wc in (1e-8, 1e-6, 1e-4, 1e-2)]]


@pytest.mark.parametrize("family, reservoir", CASES)
def test_f_phi_holds_the_printed_digits(family, reservoir):
    cfg = make_config(family, 0.5, reservoir)
    got = qfi_closed(amplitude(cfg, GRID).p, cfg.theta)[0]
    with mpmath.workdps(40):
        worst = max(abs(x / f_phi(cfg, t) - 1)
                    for x, t in zip(got.tolist(), GRID.times.tolist()))
    assert worst <= PRINTED_DIGITS


# Ohmic omega_j = 41 at small cutoffs, where gamma is 2e-10 to 2e-7 and the
# two float routes disagree by 1e-9 to 1e-8: the closed form holds 1e-11
# relative, and quadrature misses its ABS_TOL promise (one sign is wrong at t = 10**-0.5)
QUAD_OFF = pytest.mark.xfail(strict=True, reason="gamma_numeric is off by 1e-9 "
                             "to 1e-8 at omega_j = 41 and omega_c <= 1e-3")
OFF_POINTS = [(1e-4, 10 ** 2.5), (1e-3, 10 ** -0.5), (1e-3, 10 ** 2.5)]
NEAR_POINT = (1e-4, 10 ** 3.5)  # quadrature is 2.1e-11 off here


@pytest.mark.parametrize("omega_c, t", [*OFF_POINTS, NEAR_POINT])
def test_gamma_closed_agrees_with_mpmath(omega_c, t):
    model = SpectralModel.ohmic_lorentz_drude(omega_c)
    with mpmath.workdps(40):
        assert abs(gamma_closed(model, 41.0, t) / gamma(model, 41.0, t) - 1) <= 1e-11


@pytest.mark.parametrize("omega_c, t", [*[pytest.param(*p, marks=QUAD_OFF) for p in OFF_POINTS],
                                         NEAR_POINT])
def test_gamma_numeric_within_its_absolute_tolerance(omega_c, t):
    model = SpectralModel.ohmic_lorentz_drude(omega_c)
    with mpmath.workdps(40):
        assert abs(gamma_numeric(model, 41.0, t) - gamma(model, 41.0, t)) <= ABS_TOL
