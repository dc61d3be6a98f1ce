"""Quantum Fisher information and l1 coherence of the atom state.

For the amplitude-damped state the estimation metrics close up:

    F_phi   = |p|^2 sin^2(theta)        (phase parameter)
    F_theta = |p|^2                     (polar parameter)
    C_l1    = |p sin(theta)|            (sum of off-diagonal magnitudes)

so C_l1^2 = F_phi: the coherence directly bounds the attainable phase
precision.  `presets.metric_series` evaluates them on an amplitude block
for every table, and the `relation-coherence-qfi` verify suite checks the
identity on those values.  The general 2x2 determinant formula

    F = Tr[(d rho)^2] + Tr[(rho d rho)^2] / det(rho)

is kept as an independent evaluation route; it is singular for pure states
(det -> 0), which is why the closed forms are the production path.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import EPS_AMPLITUDE, AmplitudeRangeError, per_value


EPS_DET = 1e-12  # qfi_general_2x2 treats det(rho) <= this as (near-)pure


class PureStateSingularityError(ValueError):
    """det(rho) too small for the determinant formula; use qfi_closed."""


def qfi_closed(p, theta):
    """Closed-form (F_phi, F_theta) for amplitude p and polar angle theta.

    ``theta`` may also be a 1-D array of angles, one per row of an (n, n_t)
    ``p``; with any other ``p`` that raises ValueError naming theta.
    """
    mag2 = np.abs(np.asarray(p, dtype=complex)) ** 2
    if not np.all(np.sqrt(mag2) <= 1.0 + EPS_AMPLITUDE):
        raise AmplitudeRangeError(f"|p| exceeds 1 + {EPS_AMPLITUDE}")
    f_theta = mag2
    f_phi = mag2 * per_value(lambda th: math.sin(th) ** 2, theta, mag2, "theta")
    if f_phi.ndim:
        return f_phi, f_theta
    return float(f_phi), float(f_theta)


def qfi_general_2x2(rho: np.ndarray, drho: np.ndarray):
    """Determinant-formula Fisher information of single-qubit states.

    ``drho`` is the derivative of rho with respect to the estimated
    parameter (Hermitian to 1e-10).  Accepts one 2x2 pair, returning a
    float, or (..., 2, 2) stacks of equal shape, returning an array.
    Raises PureStateSingularityError when any det(rho) <= EPS_DET, where
    the formula loses its mixed-state correction term; the closed forms
    cover that limit.
    """
    rho = np.asarray(rho, dtype=complex)
    drho = np.asarray(drho, dtype=complex)
    if rho.shape[-2:] != (2, 2) or drho.shape != rho.shape:
        raise ValueError("expected 2x2 matrices, or stacks of equal shape")
    if np.any(np.abs(drho - drho.conj().swapaxes(-1, -2)) > 1e-10):
        raise ValueError("drho must be Hermitian to 1e-10")
    det = np.linalg.det(rho).real
    if np.any(det <= EPS_DET):
        raise PureStateSingularityError(
            f"det(rho) = {np.min(det):.3e} <= {EPS_DET:.1e}; state is "
            "(near-)pure, use qfi_closed")
    t1 = np.trace(drho @ drho, axis1=-2, axis2=-1).real
    m = rho @ drho
    t2 = np.trace(m @ m, axis1=-2, axis2=-1).real
    out = t1 + t2 / det
    return out if out.ndim else float(out)


def coherence_l1(rho) -> float:
    """l1 coherence: sum of absolute off-diagonal entries.  Accepts stacks."""
    rho = np.asarray(rho)
    out = np.abs(rho[..., 0, 1]) + np.abs(rho[..., 1, 0])
    return out if out.ndim else float(out)

