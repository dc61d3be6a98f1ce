import numpy as np
import pytest

from cavityqfi import dynamics, mesolve


@pytest.fixture
def zero_rates(monkeypatch):
    """Force every closed-form decay rate and exponent to zero.

    With no dissipation the atom and the cavity only exchange the excitation
    (vacuum Rabi): p = e^{-i omega0 t} cos(coupling t).  `amplitude`,
    `timelocal_residual` and `evolve` see zero rates of the shapes the
    closed forms return.
    """
    def closed_rates(kind, fields, omega_j, times, halves=(0, 1)):
        zeros = np.zeros((len(omega_j), np.size(times)))
        return tuple(zeros if half in halves else None for half in (0, 1))

    monkeypatch.setattr(dynamics, "closed_rates", closed_rates)
    monkeypatch.setattr(mesolve, "gamma_closed",
                        lambda model, omega_j, t: np.zeros(np.shape(t)))
