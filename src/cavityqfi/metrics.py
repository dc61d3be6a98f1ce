"""Quantum Fisher information and l1 coherence of the atom state.

For the amplitude-damped state the estimation metrics close up:

    F_phi   = |p|^2 sin^2(theta)        (phase parameter)
    F_theta = |p|^2                     (polar parameter)
    C_l1    = |p sin(theta)|            (sum of off-diagonal magnitudes)

so C_l1^2 = F_phi: the coherence directly bounds the attainable phase
precision.  The general 2x2 determinant formula

    F = Tr[(d rho)^2] + Tr[(rho d rho)^2] / det(rho)

is kept as an independent evaluation route; it is singular for pure states
(det -> 0), which is why the closed forms are the production path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (EPS_AMPLITUDE, AmplitudeSeries, SystemConfig, atom_state,
                       per_row)


class PureStateSingularityError(ValueError):
    """det(rho) too small for the determinant formula; use qfi_closed."""


@dataclass(frozen=True)
class MetricSeries:
    """Metrology quantities on every time sample of an amplitude series.

    Each field is an array over the grid times.  relation_residual =
    |C_l1^2 - F_phi| monitors the coherence-information identity on every
    emitted sample.
    """

    t: np.ndarray
    qfi_phi: np.ndarray
    qfi_theta: np.ndarray
    coherence_l1: np.ndarray
    relation_residual: np.ndarray


def qfi_closed(p, theta):
    """Closed-form (F_phi, F_theta) for amplitude p and polar angle theta.

    ``theta`` may also be a list of angles, one per row of an (n, n_t) ``p``.
    """
    mag2 = np.abs(np.asarray(p, dtype=complex)) ** 2
    if np.any(np.sqrt(mag2) > 1.0 + EPS_AMPLITUDE):
        raise ValueError(f"|p| exceeds 1 + {EPS_AMPLITUDE}")
    f_theta = mag2
    f_phi = mag2 * per_row(lambda th: math.sin(th) ** 2, theta)
    if f_phi.ndim:
        return f_phi, f_theta
    return float(f_phi), float(f_theta)


def qfi_general_2x2(rho: np.ndarray, drho: np.ndarray,
                    eps_det: float = 1e-12) -> float:
    """Determinant-formula Fisher information of a single-qubit state.

    ``drho`` is the derivative of rho with respect to the estimated
    parameter (Hermitian to 1e-10).  Raises PureStateSingularityError when
    det(rho) <= eps_det, where the formula loses its mixed-state correction
    term; the closed forms cover that limit.
    """
    rho = np.asarray(rho, dtype=complex)
    drho = np.asarray(drho, dtype=complex)
    if rho.shape != (2, 2) or drho.shape != (2, 2):
        raise ValueError("expected 2x2 matrices")
    if np.max(np.abs(drho - drho.conj().T)) > 1e-10:
        raise ValueError("drho must be Hermitian to 1e-10")
    det = np.linalg.det(rho).real
    if det <= eps_det:
        raise PureStateSingularityError(
            f"det(rho) = {det:.3e} <= {eps_det:.1e}; state is (near-)pure, "
            "use qfi_closed")
    t1 = np.trace(drho @ drho).real
    m = rho @ drho
    t2 = np.trace(m @ m).real
    return float(t1 + t2 / det)


def coherence_l1(rho) -> float:
    """l1 coherence: sum of absolute off-diagonal entries.  Accepts stacks."""
    rho = np.asarray(rho)
    out = np.abs(rho[..., 0, 1]) + np.abs(rho[..., 1, 0])
    return out if out.ndim else float(out)


def metric_series(cfg: SystemConfig, amps: AmplitudeSeries) -> MetricSeries:
    """The metrology quantities at every grid time of an amplitude series."""
    f_phi, f_theta = qfi_closed(amps.p, cfg.theta)
    c = coherence_l1(atom_state(cfg, amps.p))
    return MetricSeries(amps.times, f_phi, f_theta, c, np.abs(c * c - f_phi))
