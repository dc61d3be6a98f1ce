"""Dressed-basis master-equation integrator, the independent verification path.

The one-excitation sector of the resonant atom-cavity pair is spanned by
three states: the joint ground state |a0> = |0g> and the dressed doublet
|a1-,+> = (|1g> -+ |0e>)/sqrt(2) with energies (-w0/2, w0/2 - g, w0/2 + g).
Each dressed transition decays at its own time-dependent rate, giving

    d rho/dt = -i[H, rho] + 1/2 gamma_1(t) D[|a0><a1-|] rho
                          + 1/2 gamma_2(t) D[|a0><a1+|] rho

with the standard dissipator D[L] rho = L rho L+ - 1/2 {L+L, rho}.  Fixed-step
classic RK4 integrates this (rates are smooth; the step bound
(omega0 + coupling) * step <= 0.05 keeps the error budget predictable), and
tracing out the cavity must reproduce the analytic atom state.  Negative
instantaneous rates in the non-Markovian regime are integrated as-is.

In this basis the equation scales each element rho_ab by its own rate
c_ab(t) = -i(E_a - E_b) - (gamma_1 DEC1 + gamma_2 DEC2)_ab / 4, except that
rho_00 is fed what rho_11 and rho_22 lose.  One RK4 substep therefore
multiplies each element by its step factor R (the RK4 stability polynomial of
the rates at t, t + h/2 and t + h), and `evolve` forms the trajectory as a
cumulative product of these factors, with rho_00 the cumulative sum of
rho_11 (1 - R_11) + rho_22 (1 - R_22).  This is the same scheme as a substep
loop over `_generator`, to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# amplitude is not called here, but perfbench/tracer.py wraps this binding
from .dynamics import (  # noqa: F401
    _BLOCK_SAMPLES,
    EPS_P_SINGULAR,
    SystemConfig,
    TimeGrid,
    amplitude,
    amplitude_table,
    atom_state,
    decoherence_rate,
    lamb_shift,
)
from .spectral import gamma_closed

MAX_PHASE_PER_STEP = 0.05  # (omega0 + coupling) * step bound
_CHUNK_SUBSTEPS = 2048  # substeps per vectorized block of evolve (bounds memory)

# basis order: (|a0>, |a1->, |a1+>)
_DEC1 = np.zeros((3, 3))
_DEC1[1, :] += 1.0
_DEC1[:, 1] += 1.0
_DEC2 = np.zeros((3, 3))
_DEC2[2, :] += 1.0
_DEC2[:, 2] += 1.0
_POPS = [4, 8]  # flat indices of rho_11 and rho_22


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed RK4 step (scaled time).

    The step bound (omega0 + coupling) * step <= 0.05 is enforced when an
    evolution starts, since the frequencies live on the system config.
    """

    step: float

    def __post_init__(self):
        if not 0.0 < self.step < math.inf:
            raise ValueError(f"step must be finite and > 0, got {self.step}")


def initial_dressed(cfg: SystemConfig) -> np.ndarray:
    """Initial density matrix of atom state x cavity vacuum in the dressed basis.

    |0e> = (|a1+> - |a1->)/sqrt(2), so the initial superposition
    cos(theta/2)|0e> + e^{i phi} sin(theta/2)|0g> has dressed components
    (e^{i phi} sin(theta/2), -cos(theta/2)/sqrt(2), cos(theta/2)/sqrt(2)).
    """
    c = math.cos(cfg.theta / 2.0)
    s = math.sin(cfg.theta / 2.0)
    psi = np.array([np.exp(1j * cfg.phi) * s,
                    -c / math.sqrt(2.0),
                    c / math.sqrt(2.0)], dtype=complex)
    return np.outer(psi, psi.conj())


def dressed_energies(cfg: SystemConfig) -> np.ndarray:
    return np.array([-cfg.omega0 / 2.0,
                     cfg.omega0 / 2.0 - cfg.coupling,
                     cfg.omega0 / 2.0 + cfg.coupling])


def _generator(rho3: np.ndarray, phase: np.ndarray,
               g1: float, g2: float) -> np.ndarray:
    # phase = -i(E_a - E_b); dissipators act elementwise in this basis
    d = phase * rho3 - 0.25 * (g1 * _DEC1 + g2 * _DEC2) * rho3
    d[0, 0] += 0.5 * (g1 * rho3[1, 1] + g2 * rho3[2, 2])
    return d


def generator_apply(cfg: SystemConfig, t: float, rho3: np.ndarray) -> np.ndarray:
    """Right-hand side of the dressed master equation at time t."""
    rho3 = np.asarray(rho3, dtype=complex)
    if rho3.shape != (3, 3):
        raise ValueError("expected a 3x3 density matrix")
    E = dressed_energies(cfg)
    phase = -1j * (E[:, None] - E[None, :])
    g1 = gamma_closed(cfg.spectral, cfg.omega_1, t)
    g2 = gamma_closed(cfg.spectral, cfg.omega_2, t)
    return _generator(rho3, phase, g1, g2)


def _rk4_factor(c0, c1, c2, h: float):
    """Classic RK4 step factor of y' = c(t) y, rates at t, t + h/2 and t + h."""
    s2 = 1.0 + 0.5 * h * c0
    s3 = 1.0 + 0.5 * h * c1 * s2
    s4 = 1.0 + h * c1 * s3
    return 1.0 + (h / 6.0) * (c0 + 2.0 * c1 * s2 + 2.0 * c1 * s3 + c2 * s4)


def evolve(cfg: SystemConfig, grid: TimeGrid, icfg: IntegratorConfig,
           dissipation: bool = True) -> np.ndarray:
    """RK4 trajectory of the dressed density matrix, sampled on the grid.

    Each grid interval is split into equal substeps no longer than
    ``icfg.step``.  Returns shape (n_points, 3, 3) over ``grid.times``.  With
    ``dissipation=False`` the rates are forced to zero (bare vacuum-Rabi
    exchange, test hook).
    """
    if (cfg.omega0 + cfg.coupling) * icfg.step > MAX_PHASE_PER_STEP + 1e-12:
        raise ValueError(
            f"step {icfg.step} violates (omega0 + coupling) * step <= "
            f"{MAX_PHASE_PER_STEP}")
    n = grid.n_points
    E = dressed_energies(cfg)
    phase = (-1j * (E[:, None] - E[None, :])).ravel()
    rho = initial_dressed(cfg).ravel()
    out = np.empty((n, 9), dtype=complex)
    out[0] = rho
    if n > 1:
        k = max(1, math.ceil(grid.dt / icfg.step - 1e-9))
        h = grid.dt / k
        per_chunk = max(1, _CHUNK_SUBSTEPS // k)  # whole grid intervals
        for i0 in range(0, n - 1, per_chunk):
            i1 = min(i0 + per_chunk, n - 1)
            # rates on this chunk's substep half-grid
            half_times = np.arange(2 * k * i0, 2 * k * i1 + 1) * (h / 2.0)
            if dissipation:
                g1 = gamma_closed(cfg.spectral, cfg.omega_1, half_times)
                g2 = gamma_closed(cfg.spectral, cfg.omega_2, half_times)
            else:
                g1 = g2 = np.zeros(half_times.size)
            c = phase - 0.25 * (g1[:, None] * _DEC1.ravel()
                                + g2[:, None] * _DEC2.ravel())
            factor = _rk4_factor(c[:-1:2], c[1::2], c[2::2], h)
            traj = rho * np.cumprod(factor, axis=0)
            # rho_00 gains what rho_11 and rho_22 lose in each substep
            before = np.concatenate((rho[None, _POPS], traj[:-1, _POPS]))
            feed = np.sum(before * (1.0 - factor[:, _POPS]), axis=1)
            traj[:, 0] = rho[0] + np.cumsum(feed)
            out[i0 + 1:i1 + 1] = traj[k - 1::k]
            rho = traj[-1]
    return out.reshape(n, 3, 3)


def partial_trace_cavity(rho3) -> np.ndarray:
    """Reduce dressed-basis density matrices to the atom's 2x2 state.

    Rebuilds |0e> = (|a1+> - |a1->)/sqrt(2) and |1g> = (|a1+> + |a1->)/sqrt(2);
    matrix elements between different photon numbers drop out of the trace.
    Accepts stacks of shape (..., 3, 3).
    """
    r = np.asarray(rho3, dtype=complex)
    out = np.empty(r.shape[:-2] + (2, 2), dtype=complex)
    out[..., 0, 0] = 0.5 * (r[..., 1, 1] + r[..., 2, 2]
                            - r[..., 1, 2] - r[..., 2, 1])
    out[..., 0, 1] = (r[..., 2, 0] - r[..., 1, 0]) / math.sqrt(2.0)
    out[..., 1, 0] = (r[..., 0, 2] - r[..., 0, 1]) / math.sqrt(2.0)
    out[..., 1, 1] = r[..., 0, 0] + 0.5 * (r[..., 1, 1] + r[..., 2, 2]
                                           + r[..., 1, 2] + r[..., 2, 1])
    return out


def timelocal_residual(cfg: SystemConfig, grid: TimeGrid,
                       dissipation: bool = True) -> np.ndarray:
    """Defect of the analytic state under its own time-local equation.

    At each interior grid point, the Frobenius norm of the central-difference
    d rho/dt minus the generator built from the shift S(t) and rate Gamma(t):

        rhs = -i S/2 [|e><e|, rho] + Gamma (s- rho s+ - 1/2 {|e><e|, rho})

    Endpoints and samples flagged by the amplitude-singularity policy are NaN.
    The grid is taken in blocks of interior points, each evaluated with one
    neighbour on either side, so memory stays bounded on fine grids.
    """
    times = grid.times
    n = times.size
    out = np.full(n, np.nan)
    if n < 3:
        amplitude_table([cfg], times, dissipation=dissipation)  # the checks
        return out
    h = grid.dt
    for i0 in range(1, n - 1, _BLOCK_SAMPLES):
        i1 = min(i0 + _BLOCK_SAMPLES, n - 1)
        amps = amplitude_table([cfg], times[i0 - 1:i1 + 1], dissipation=dissipation)
        p, p_dot = amps.p[0], amps.p_dot[0]
        rho = atom_state(cfg, p)
        gam = decoherence_rate(p[1:-1], p_dot[1:-1])
        shift = lamb_shift(p[1:-1], p_dot[1:-1])
        fd = (rho[2:] - rho[:-2]) / (2.0 * h)
        r = rho[1:-1]
        rhs = np.empty_like(r)
        rhs[:, 0, 0] = -gam * r[:, 0, 0].real
        rhs[:, 1, 1] = gam * r[:, 0, 0].real
        rhs[:, 0, 1] = (-0.5j * shift - 0.5 * gam) * r[:, 0, 1]
        rhs[:, 1, 0] = np.conj(rhs[:, 0, 1])
        resid = np.linalg.norm((fd - rhs).reshape(-1, 4), axis=1)
        out[i0:i1] = np.where(np.abs(p[1:-1]) <= EPS_P_SINGULAR, np.nan, resid)
    return out
