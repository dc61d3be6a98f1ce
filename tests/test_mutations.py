"""The verify gate bites: five injected defects, each failing its suites.

Each defect is patched into the package from here, at a point every route
to the value reads: the closed-form kernels (`spectral._ohmic_rates`,
`spectral._lorentz_rates`) serve `gamma_closed`, `beta_closed` and the
table path alike, each call evaluating only the halves it asks for; the
lower dressed frequency is patched on every class of `dynamics` that
defines ``omega_1``; `dynamics._state_elements`, which `atom_state` and the
time-local residual read, and `amplitude_table` are patched under every
name a module binds them.  No file of the package changes.  Per defect
only the named suites run, on a fresh `VerifyContext`, so the test stays at
a few seconds.

The table of defects is also a map of where the gate is thin: a 0.1 % error
in ``p_dot`` is caught by one suite only, and a conjugated coherence by the
two that compare states.

What the gate does not cover:

- `closed-form-identity` compares F_phi with F_theta sin^2(theta), two
  products `qfi_closed` builds from the same |p|^2.  It reads exactly 0 and
  passes under every defect here, which each test asserts.
- The `decoherence_rate`, `lamb_shift` and `qfi_theta` branches of
  `presets.metric_series` feed only the CSVs.  No suite reads them; only the
  GOLDEN digests of `tests/test_presets_cli.py` guard them.
"""

import numpy as np
import pytest

from cavityqfi import dynamics, mesolve, presets, spectral, verify
from cavityqfi.verify import run_suites

ERROR = 1.001  # every defect is a 0.1 % error


def _scaled_kernel(monkeypatch, kernel, half):
    """Scale gamma (half 0) or beta (half 1) of a family's closed-form
    kernel, in every call that asks for that half."""
    real = getattr(spectral, kernel)

    def defective(*args):
        out = list(real(*args))
        if out[half] is not None:
            out[half] = out[half] * ERROR
        return tuple(out)

    monkeypatch.setattr(spectral, kernel, defective)


def ohmic_beta(monkeypatch):
    _scaled_kernel(monkeypatch, "_ohmic_rates", 1)


def lorentzian_gamma(monkeypatch):
    _scaled_kernel(monkeypatch, "_lorentz_rates", 0)


def lower_dressed_frequency(monkeypatch):
    # omega_1 = omega0 - 1.001 g wherever a config or a table of configs
    # gives it; the RK4 oracle keeps its own dressed energies
    for cls in vars(dynamics).values():
        if isinstance(cls, type) and "omega_1" in vars(cls):
            monkeypatch.setattr(cls, "omega_1", property(
                lambda c: c.omega0 - ERROR * c.coupling))


def _rebound(monkeypatch, name, defective):
    for module in (dynamics, presets, verify, mesolve):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, defective)


def conjugated_coherence(monkeypatch):
    # rho_eg = conj(p) e^{+i phi} sin cos: the phase turns the wrong way
    real = dynamics._state_elements

    def defective(cfg, p):
        ee, eg = real(cfg, p)
        return ee, np.conj(eg)

    _rebound(monkeypatch, "_state_elements", defective)


def scaled_p_dot(monkeypatch):
    real = dynamics.amplitude_table

    def defective(*args, **kwargs):
        amps = real(*args, **kwargs)
        p_dot = None if amps.p_dot is None else amps.p_dot * ERROR
        return dynamics.AmplitudeSeries(amps.times, amps.p, p_dot)

    _rebound(monkeypatch, "amplitude_table", defective)


DEFECTS = [
    (ohmic_beta, ("beta-consistency", "mesolve-chain", "timelocal-residual")),
    (lorentzian_gamma, ("gamma-oracle", "beta-consistency", "mesolve-chain",
                        "timelocal-residual")),
    (lower_dressed_frequency, ("mesolve-chain", "stable-asymptote")),
    (conjugated_coherence, ("mesolve-chain", "timelocal-residual")),
    (scaled_p_dot, ("timelocal-residual",)),
]


@pytest.mark.parametrize("inject, suites", DEFECTS,
                         ids=[inject.__name__ for inject, _ in DEFECTS])
def test_defect_fails_its_suites(monkeypatch, inject, suites):
    inject(monkeypatch)
    results = run_suites([*suites, "closed-form-identity"])
    assert [r.name for r in results if not r.passed] == list(suites), \
        "\n".join(r.line() for r in results)
    assert results[-1].worst == 0.0
