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
c_ab(t) = -i(E_a - E_b) - (n1 gamma_1 + n2 gamma_2) / 4, with nj the number of
a and b equal to j, except that rho_00 is fed what rho_11 and rho_22 lose.
One RK4 substep therefore multiplies each element by its step factor R (the
RK4 stability polynomial of the rates at t, t + h/2 and t + h), and `evolve`
forms the trajectory as a cumulative product of these factors, with rho_00
the cumulative sum of rho_11 (1 - R_11) + rho_22 (1 - R_22).  This is the
same scheme as a substep loop over the matrix right-hand side in
`tests/oracles.py`, to rounding.  As c_ba = conj(c_ab), the lower triangle
is the exact conjugate of the upper one: `evolve` propagates rho_01, rho_02
and rho_12 as complex numbers and rho_11 and rho_22 as real ones (their
rates are real), then fills rho_10, rho_20 and rho_21 by conjugation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    _BLOCK_SAMPLES,
    ConfigTable,
    SystemConfig,
    TimeGrid,
    _log_ratio,
    _state_elements,
    amplitude_table,
)
# amplitude is not called here, but perfbench/tracer.py wraps this binding
from .dynamics import amplitude  # noqa: F401
from .spectral import _check_real, gamma_closed

MAX_PHASE_PER_STEP = 0.05  # (omega0 + coupling) * step bound
_CHUNK_SUBSTEPS = 2048  # substeps per vectorized block of evolve (bounds memory)

# basis order: (|a0>, |a1->, |a1+>)
_UPPER = [1, 2, 5]  # flat indices of rho_01, rho_02 and rho_12
_LOWER = [3, 6, 7]  # and of their mirrors rho_10, rho_20 and rho_21
_POPS = [4, 8]  # flat indices of rho_11 and rho_22


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed RK4 step (scaled time).

    The step bound (omega0 + coupling) * step <= 0.05 is enforced when an
    evolution starts, since the frequencies live on the system config.
    """

    step: float

    def __post_init__(self):
        _check_real("step", self.step)
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


def _rk4_factor(c, h: float):
    """Classic RK4 step factors of y' = c(t) y, with c sampled along its last
    axis on the substep half-grid: rates at t, t + h/2 and t + h."""
    c0, c1, c2 = c[..., :-1:2], c[..., 1::2], c[..., 2::2]
    s2 = 1.0 + 0.5 * h * c0
    s3 = 1.0 + 0.5 * h * c1 * s2
    s4 = 1.0 + h * c1 * s3
    return 1.0 + (h / 6.0) * (c0 + 2.0 * c1 * s2 + 2.0 * c1 * s3 + c2 * s4)


def evolve(cfg: SystemConfig, grid: TimeGrid,
           icfg: IntegratorConfig) -> np.ndarray:
    """RK4 trajectory of the dressed density matrix, sampled on the grid.

    Each grid interval is split into equal substeps no longer than
    ``icfg.step``.  Returns shape (n_points, 3, 3) over ``grid.times``.
    """
    if (cfg.omega0 + cfg.coupling) * icfg.step > MAX_PHASE_PER_STEP + 1e-12:
        raise ValueError(
            f"step {icfg.step} violates (omega0 + coupling) * step <= "
            f"{MAX_PHASE_PER_STEP}")
    n = grid.n_points
    E = dressed_energies(cfg)
    phase = (-1j * (E[:, None] - E[None, :])).ravel()[_UPPER, None]
    out = np.empty((n, 9), dtype=complex)
    out[0] = initial_dressed(cfg).ravel()
    # one row per element, each running along the substeps
    r00, up, pops = out[0, 0], out[0, _UPPER, None], out[0, _POPS, None].real
    if n > 1:
        k = max(1, math.ceil(grid.dt / icfg.step - 1e-9))
        h = grid.dt / k
        per_chunk = max(1, _CHUNK_SUBSTEPS // k)  # whole grid intervals
        for i0 in range(0, n - 1, per_chunk):
            i1 = min(i0 + per_chunk, n - 1)
            # rates on this chunk's substep half-grid
            half_times = np.arange(2 * k * i0, 2 * k * i1 + 1) * (h / 2.0)
            g1 = gamma_closed(cfg.spectral, cfg.omega_1, half_times)
            g2 = gamma_closed(cfg.spectral, cfg.omega_2, half_times)
            # (gamma_1 DEC1 + gamma_2 DEC2) / 4 at _UPPER, then at _POPS
            dec = 0.25 * np.stack((g1, g2, g1 + g2, 2.0 * g1, 2.0 * g2))
            f_up = _rk4_factor(phase - dec[:3], h)
            f_pop = _rk4_factor(-dec[3:], h)
            up_t = up * np.cumprod(f_up, axis=1)
            pops_t = pops * np.cumprod(f_pop, axis=1)
            # rho_00 gains what rho_11 and rho_22 lose in each substep
            loss = np.concatenate((pops, pops_t[:, :-1]), axis=1) * (1.0 - f_pop)
            r00_t = r00 + np.cumsum(loss[0] + loss[1])
            block = out[i0 + 1:i1 + 1]
            block[:, 0] = r00_t[k - 1::k]
            block[:, _UPPER] = up_t[:, k - 1::k].T
            block[:, _POPS] = pops_t[:, k - 1::k].T
            r00, up, pops = r00_t[-1], up_t[:, -1:], pops_t[:, -1:]
    out[1:, _LOWER] = np.conj(out[1:, _UPPER])
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


def timelocal_residual_blocks(cfg: SystemConfig, grid: TimeGrid):
    """Defect of the analytic state under its own time-local equation.

    At each interior grid point, the Frobenius norm of the central-difference
    d rho/dt minus the generator built from the shift S(t) and rate Gamma(t):

        rhs = -i S/2 [|e><e|, rho] + Gamma (s- rho s+ - 1/2 {|e><e|, rho})

    Samples flagged by the amplitude-singularity policy are NaN.  Yields
    (start, defect at points start, start + 1, ...) per block of interior
    points; a block reads only its `TimeGrid.window`, so memory stays bounded.
    """
    n, table = grid.n_points, ConfigTable.of(cfg)
    if n < 3:
        amplitude_table(table, grid.times)  # the checks
    for i0 in range(1, n - 1, _BLOCK_SAMPLES):
        i1 = min(i0 + _BLOCK_SAMPLES, n - 1)
        amps = amplitude_table(table, grid.window(i0 - 1, i1 + 1))
        p, p_dot = amps.p[0], amps.p_dot[0]
        # rho_ge = conj(rho_eg) exactly, so its defect is that of rho_eg
        ee, eg = _state_elements(cfg, p)
        gg = 1.0 - ee
        ratio = _log_ratio(p[1:-1], p_dot[1:-1])  # NaN where p is singular
        gam, shift = -2.0 * ratio.real, -2.0 * ratio.imag
        inv = 1.0 / (2.0 * grid.dt)  # as numpy divides a complex by a real
        d_ee = (ee[2:] - ee[:-2]) * inv + gam * ee[1:-1]
        d_gg = (gg[2:] - gg[:-2]) * inv - gam * ee[1:-1]
        d_eg = (eg[2:] - eg[:-2]) * inv - (-0.5j * shift - 0.5 * gam) * eg[1:-1]
        yield i0, np.sqrt(d_ee ** 2 + 2.0 * (d_eg.real ** 2 + d_eg.imag ** 2)
                          + d_gg ** 2)


def timelocal_residual(cfg: SystemConfig, grid: TimeGrid) -> np.ndarray:
    """`timelocal_residual_blocks` as one array, NaN at the endpoints."""
    out = np.full(grid.n_points, np.nan)
    for start, block in timelocal_residual_blocks(cfg, grid):
        out[start:start + block.size] = block
    return out
