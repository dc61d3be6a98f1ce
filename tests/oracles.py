"""Test-local references for `cavityqfi.mesolve` and `cavityqfi.spectral`.

`generator_apply` is the right-hand side written out as matrices: the
Hamiltonian phase -i(E_a - E_b) on every element and the two dissipators
(1/2) gamma_j D[|a0><a_j|], which act elementwise in the dressed basis
(|a0>, |a1->, |a1+>).  `evolve` hard-codes the same rates row by row; a
plain RK4 loop over this right-hand side pins it to rounding.

`timelocal_residual_stack` is the time-local residual with the atom's full
2x2 matrices and their Frobenius norm, which `timelocal_residual_blocks`
reduces to three matrix elements.

`beta_gridfree` is the accumulated exponent beta_j(t) at one time from the
density alone, with no time grid and no closed form.
"""

import math

import numpy as np

from cavityqfi.dynamics import ConfigTable, _log_ratio, amplitude_table, atom_state
from cavityqfi.mesolve import dressed_energies
from cavityqfi.spectral import SpectralKind, eval_density, gamma_closed

# (gamma_1 _DEC1 + gamma_2 _DEC2) / 4 is the decay rate of each element,
# in the basis order (|a0>, |a1->, |a1+>)
_DEC1 = np.zeros((3, 3))
_DEC1[1, :] += 1.0
_DEC1[:, 1] += 1.0
_DEC2 = np.zeros((3, 3))
_DEC2[2, :] += 1.0
_DEC2[:, 2] += 1.0


def _generator(rho3: np.ndarray, phase: np.ndarray,
               g1: float, g2: float) -> np.ndarray:
    # phase = -i(E_a - E_b); dissipators act elementwise in this basis
    d = phase * rho3 - 0.25 * (g1 * _DEC1 + g2 * _DEC2) * rho3
    d[0, 0] += 0.5 * (g1 * rho3[1, 1] + g2 * rho3[2, 2])
    return d


def generator_apply(cfg, t: float, rho3: np.ndarray) -> np.ndarray:
    """Right-hand side of the dressed master equation at time t."""
    rho3 = np.asarray(rho3, dtype=complex)
    if rho3.shape != (3, 3):
        raise ValueError("expected a 3x3 density matrix")
    E = dressed_energies(cfg)
    phase = -1j * (E[:, None] - E[None, :])
    g1 = gamma_closed(cfg.spectral, cfg.omega_1, t)
    g2 = gamma_closed(cfg.spectral, cfg.omega_2, t)
    return _generator(rho3, phase, g1, g2)


def timelocal_residual_stack(cfg, grid) -> np.ndarray:
    """`mesolve.timelocal_residual` over the whole grid at once, as the
    norm of (n, 2, 2) stacks of the finite-difference d rho/dt minus the
    time-local right-hand side; NaN at the endpoints."""
    amps = amplitude_table(ConfigTable.of(cfg), grid.times)
    p, p_dot = amps.p[0], amps.p_dot[0]
    rho = atom_state(cfg, p)
    ratio = _log_ratio(p[1:-1], p_dot[1:-1])
    gam, shift = -2.0 * ratio.real, -2.0 * ratio.imag
    fd = (rho[2:] - rho[:-2]) / (2.0 * grid.dt)
    r = rho[1:-1]
    rhs = np.empty_like(r)
    rhs[:, 0, 0] = -gam * r[:, 0, 0].real
    rhs[:, 1, 1] = gam * r[:, 0, 0].real
    rhs[:, 0, 1] = (-0.5j * shift - 0.5 * gam) * r[:, 0, 1]
    rhs[:, 1, 0] = np.conj(rhs[:, 0, 1])
    out = np.full(grid.n_points, np.nan)
    out[1:-1] = np.linalg.norm((fd - rhs).reshape(-1, 4), axis=1)
    return out


def beta_gridfree(model, omega_j: float, t: float) -> float:
    """beta_j(t) by quadrature of the exact time primitive of gamma_j,

        beta_j(t) = 2 int J(omega') (1 - cos(Delta t)) / Delta^2 domega',

    Delta = omega_j - omega', in u = omega' - omega_j.  The core |u| < r0 =
    6 pi/t integrates 2 J sin^2(u t/2)/u^2 (t^2 J/2 at u = 0) as is; beyond
    r0, each side is the plain integral of J/u^2 minus its cosine-weighted
    one, split at the spectral feature (the Ohmic zero, or the Lorentzian
    peak) and 10 and 50 of its widths past it, then a tail to infinity.
    J comes from `eval_density` alone."""
    from scipy.integrate import quad

    if t == 0.0:
        return 0.0
    if model.kind is SpectralKind.OHMIC_LORENTZ_DRUDE:
        center, sigma = 0.0, model.omega_c
    else:
        center, sigma = model.lorentz_peak(), model.width
    r0, c = 6.0 * math.pi / t, center - omega_j  # c: the feature in u

    def integral(f, lo, hi, **options):
        return quad(f, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=1000, **options)[0]

    def core(u):
        k = t / 2.0 if u == 0.0 else math.sin(u * t / 2.0) / u
        return 2.0 * eval_density(model, omega_j + u) * k * k

    total = integral(core, -r0, r0, points=[c] if -r0 < c < r0 else None)
    for side in (1.0, -1.0):
        def f(u, side=side):
            return eval_density(model, omega_j + side * u) / (u * u)

        splits = side * c + sigma * np.array([-10.0, 0.0, 10.0, 50.0])
        edges = sorted({r0, *splits[splits > r0].tolist()}) + [math.inf]
        for lo, hi in zip(edges, edges[1:]):
            total += integral(f, lo, hi) - integral(f, lo, hi, weight="cos", wvar=t)
    return 2.0 * total
