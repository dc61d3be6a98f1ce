import math

import numpy as np
import pytest

from cavityqfi import (
    IntegratorConfig,
    SpectralModel,
    SystemConfig,
    TimeGrid,
    amplitude,
    atom_state,
    beta_closed,
    evolve,
    gamma_closed,
    initial_dressed,
    partial_trace_cavity,
    physicality,
    timelocal_residual,
)
from cavityqfi import dynamics, mesolve, spectral
from cavityqfi.mesolve import timelocal_residual_blocks
from cavityqfi.presets import make_config

import oracles

SQ2 = math.sqrt(2.0)


def ohmic_cfg(coupling=1.0, omega_c=3.0, theta=math.pi / 2, phi=0.0):
    return SystemConfig(omega0=1.0, coupling=coupling, theta=theta, phi=phi,
                        spectral=SpectralModel.ohmic_lorentz_drude(omega_c))


def lorentz_cfg(coupling, width, theta=math.pi / 2):
    # the paper's line, centred on omega_1 = omega0 - coupling
    return SystemConfig(omega0=1.0, coupling=coupling, theta=theta, phi=0.0,
                        spectral=SpectralModel.lorentzian(1.0, width, coupling, 1.0))


def basis_state(i):
    rho = np.zeros((3, 3), dtype=complex)
    rho[i, i] = 1.0
    return rho


class TestInitialDressed:
    def test_ground_atom(self):
        rho = initial_dressed(ohmic_cfg(theta=math.pi))
        np.testing.assert_allclose(rho, basis_state(0), atol=1e-15)

    def test_excited_atom(self):
        rho = initial_dressed(ohmic_cfg(theta=0.0))
        np.testing.assert_allclose(np.diag(rho), [0.0, 0.5, 0.5], atol=1e-15)
        assert rho[1, 2] == pytest.approx(-0.5)

    def test_equatorial_atom_populations(self):
        rho = initial_dressed(ohmic_cfg(theta=math.pi / 2, phi=0.0))
        np.testing.assert_allclose(np.diag(rho).real, [0.5, 0.25, 0.25],
                                   atol=1e-15)


class TestGenerator:
    def test_ground_state_stationary(self):
        cfg = ohmic_cfg()
        out = oracles.generator_apply(cfg, 2.3, basis_state(0))
        np.testing.assert_allclose(out, np.zeros((3, 3)), atol=1e-15)

    def test_eigenstate_stationary_without_rates(self):
        # rates vanish identically at t = 0
        out = oracles.generator_apply(ohmic_cfg(), 0.0, basis_state(2))
        np.testing.assert_allclose(out, np.zeros((3, 3)), atol=1e-15)

    def test_ground_coherence_channel(self):
        # d rho_{10} = (-i omega_1 - gamma_1/4) rho_{10}
        cfg = ohmic_cfg(coupling=0.3)
        t = 1.7
        unit = np.zeros((3, 3), dtype=complex)
        unit[1, 0] = 1.0
        out = oracles.generator_apply(cfg, t, unit)
        g1 = gamma_closed(cfg.spectral, cfg.omega_1, t)
        expected = (-1j * cfg.omega_1 - g1 / 4.0) * unit
        np.testing.assert_allclose(out, expected, atol=1e-14)


class TestEvolve:
    def test_initial_sample_exact(self):
        cfg = ohmic_cfg()
        traj = evolve(cfg, TimeGrid(1.0, 11), IntegratorConfig(step=0.02))
        np.testing.assert_array_equal(traj[0], initial_dressed(cfg))

    def test_vacuum_rabi_population(self, zero_rates):
        cfg = ohmic_cfg(coupling=0.8, theta=1.1)
        grid = TimeGrid(10.0, 101)
        traj = evolve(cfg, grid, IntegratorConfig(step=0.01))
        pop = partial_trace_cavity(traj)[:, 0, 0].real
        expected = math.cos(cfg.theta / 2) ** 2 * np.cos(0.8 * grid.times) ** 2
        np.testing.assert_allclose(pop, expected, atol=1e-8)

    def test_trace_preserved(self):
        cfg = ohmic_cfg(coupling=1.0, omega_c=0.3)
        grid = TimeGrid(20.0, 201)
        traj = evolve(cfg, grid, IntegratorConfig(step=0.02))
        traces = np.trace(traj, axis1=1, axis2=2)
        assert np.max(np.abs(traces - 1.0)) <= 1e-9 * grid.t_end

    def test_step_constraint(self):
        with pytest.raises(ValueError):
            evolve(ohmic_cfg(coupling=1.0), TimeGrid(1.0, 11),
                   IntegratorConfig(step=0.1))

    def test_dressed_coherence_envelope(self):
        # rho_{12}(t) = rho_{12}(0) e^{2i coupling t} e^{-(beta1+beta2)/4}
        cfg = ohmic_cfg(coupling=0.6, theta=0.9, omega_c=0.5)
        grid = TimeGrid(8.0, 81)
        traj = evolve(cfg, grid, IntegratorConfig(step=0.005))
        b1 = beta_closed(cfg.spectral, cfg.omega_1, grid.times)
        b2 = beta_closed(cfg.spectral, cfg.omega_2, grid.times)
        expected = (initial_dressed(cfg)[1, 2]
                    * np.exp(2j * cfg.coupling * grid.times)
                    * np.exp(-(b1 + b2) / 4.0))
        np.testing.assert_allclose(traj[:, 1, 2], expected, atol=1e-7)


def rk4_reference(rhs, grid, k, rho0):
    """Plain RK4 loop, k substeps per grid interval; rates read at t, t+h/2, t+h."""
    h = grid.dt / k
    rho = rho0
    out = [rho]
    for i in range(grid.n_points - 1):
        for j in range(k):
            t = (i * k + j) * h
            k1 = rhs(t, rho)
            k2 = rhs(t + h / 2, rho + h / 2 * k1)
            k3 = rhs(t + h / 2, rho + h / 2 * k2)
            k4 = rhs(t + h, rho + h * k3)
            rho = rho + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(rho)
    return np.array(out)


def bare_rhs(cfg):
    """Right-hand side with both rates forced to zero."""
    E = mesolve.dressed_energies(cfg)
    phase = -1j * (E[:, None] - E[None, :])
    return lambda t, rho: oracles._generator(rho, phase, 0.0, 0.0)


def _chunk_crossing():
    # 3 substeps per interval, so a chunk holds a whole number of intervals
    # and the total is neither below nor a multiple of the chunk size
    intervals = mesolve._CHUNK_SUBSTEPS // 3 + 70
    return TimeGrid(intervals * 0.024, intervals + 1), 3


class TestEvolveMatchesLoop:
    @pytest.mark.parametrize("cfg, grid, k", [
        (ohmic_cfg(coupling=1.0, omega_c=0.3), TimeGrid(1.0, 41), 1),
        (ohmic_cfg(coupling=1.0, omega_c=0.3), TimeGrid(1.0, 41), 3),
        (lorentz_cfg(coupling=40.0, width=3.0), TimeGrid(0.2, 201), 1),
        (lorentz_cfg(coupling=40.0, width=3.0), TimeGrid(0.2, 101), 4),
        (lorentz_cfg(coupling=0.5, width=0.1, theta=1.1), *_chunk_crossing()),
    ], ids=["ohmic-k1", "ohmic-k3", "lorentz-k1", "lorentz-k4", "chunks"])
    def test_dissipative(self, cfg, grid, k):
        traj = evolve(cfg, grid, IntegratorConfig(step=grid.dt / k))
        ref = rk4_reference(lambda t, rho: oracles.generator_apply(cfg, t, rho),
                            grid, k, initial_dressed(cfg))
        np.testing.assert_allclose(traj, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2])
    def test_without_dissipation(self, zero_rates, k):
        cfg = ohmic_cfg(coupling=0.8, theta=1.1)
        grid = TimeGrid(2.0, 81)
        traj = evolve(cfg, grid, IntegratorConfig(step=grid.dt / k))
        ref = rk4_reference(bare_rhs(cfg), grid, k, initial_dressed(cfg))
        np.testing.assert_allclose(traj, ref, rtol=0, atol=1e-12)

    def test_trace_drift_fig4a_strong_coupling(self):
        # the halved step of the mesolve-chain suite: about 435k substeps
        cfg = make_config("lorentzian", 40.0, 3.0)
        grid = TimeGrid(50.0, 12800)
        k = 2 * math.ceil(grid.dt / (0.01 / (cfg.omega0 + cfg.coupling)) - 1e-9)
        traj = evolve(cfg, grid, IntegratorConfig(step=grid.dt / k))
        assert k * (grid.n_points - 1) > 4e5
        drift = np.max(np.abs(np.trace(traj, axis1=1, axis2=2) - 1.0))
        assert drift <= 1e-13


def nine_column_evolve(cfg, grid, icfg):
    """`evolve` as it was before it propagated only the upper triangle: all
    nine elements as complex columns, with rho_00 fed from the populations.
    Kept as the reference that pins the current `evolve` bit for bit."""
    n = grid.n_points
    E = mesolve.dressed_energies(cfg)
    phase = (-1j * (E[:, None] - E[None, :])).ravel()
    dec1, dec2 = oracles._DEC1.ravel(), oracles._DEC2.ravel()
    rho = initial_dressed(cfg).ravel()
    out = np.empty((n, 9), dtype=complex)
    out[0] = rho
    k = max(1, math.ceil(grid.dt / icfg.step - 1e-9))
    h = grid.dt / k
    per_chunk = max(1, mesolve._CHUNK_SUBSTEPS // k)
    for i0 in range(0, n - 1, per_chunk):
        i1 = min(i0 + per_chunk, n - 1)
        half_times = np.arange(2 * k * i0, 2 * k * i1 + 1) * (h / 2.0)
        g1 = gamma_closed(cfg.spectral, cfg.omega_1, half_times)
        g2 = gamma_closed(cfg.spectral, cfg.omega_2, half_times)
        c = phase - 0.25 * (g1[:, None] * dec1 + g2[:, None] * dec2)
        c0, c1, c2 = c[:-1:2], c[1::2], c[2::2]
        s2 = 1.0 + 0.5 * h * c0
        s3 = 1.0 + 0.5 * h * c1 * s2
        s4 = 1.0 + h * c1 * s3
        factor = 1.0 + (h / 6.0) * (c0 + 2.0 * c1 * s2 + 2.0 * c1 * s3 + c2 * s4)
        traj = rho * np.cumprod(factor, axis=0)
        before = np.concatenate((rho[None, [4, 8]], traj[:-1, [4, 8]]))
        feed = np.sum(before * (1.0 - factor[:, [4, 8]]), axis=1)
        traj[:, 0] = rho[0] + np.cumsum(feed)
        out[i0 + 1:i1 + 1] = traj[k - 1::k]
        rho = traj[-1]
    return out.reshape(n, 3, 3)


def _fig4a_across_chunks():
    # fig4a at coupling 40 with the mesolve-chain base step, on the preset's
    # first intervals: one whole chunk and part of a second
    cfg = make_config("lorentzian", 40.0, 3.0)
    dt = TimeGrid(50.0, 12800).dt
    k = math.ceil(dt / (0.01 / (cfg.omega0 + cfg.coupling)) - 1e-9)
    intervals = mesolve._CHUNK_SUBSTEPS // k + 80
    return cfg, TimeGrid(intervals * dt, intervals + 1), k


@pytest.mark.parametrize("cfg, grid, k", [
    (ohmic_cfg(coupling=1.0, omega_c=0.3), TimeGrid(1.0, 41), 1),
    (ohmic_cfg(coupling=1.0, omega_c=0.3), TimeGrid(1.0, 41), 3),
    (lorentz_cfg(coupling=40.0, width=3.0), TimeGrid(0.2, 201), 1),
    (lorentz_cfg(coupling=40.0, width=3.0), TimeGrid(0.2, 101), 4),
    (lorentz_cfg(coupling=0.5, width=0.1, theta=1.1), *_chunk_crossing()),
    _fig4a_across_chunks(),
], ids=["ohmic-k1", "ohmic-k3", "lorentz-k1", "lorentz-k4", "chunks",
        "fig4a-coupling40-chunks"])
def test_upper_triangle_matches_nine_columns_bitwise(cfg, grid, k):
    icfg = IntegratorConfig(step=grid.dt / k)
    traj = evolve(cfg, grid, icfg)
    np.testing.assert_array_equal(traj, nine_column_evolve(cfg, grid, icfg))
    assert np.array_equal(traj, traj.conj().swapaxes(-1, -2))


def test_rk4_oracle_reads_no_exponent_or_amplitude(monkeypatch):
    # the RK4 oracle reads only the closed gamma, never beta_closed or p(t),
    # and the kernel behind gamma_closed evaluates no beta for it
    cfg = make_config("lorentzian", 40.0, 3.0)  # a fig4a curve
    grid, icfg = TimeGrid(2.0, 41), IntegratorConfig(step=0.001)
    want = evolve(cfg, grid, icfg)

    def forbidden(*args, **kwargs):
        raise AssertionError("the RK4 oracle read beta_closed or p(t)")

    kernel = spectral._lorentz_rates

    def gamma_only(*args):
        assert args[-1] == (0,), f"the RK4 oracle asked the kernel for halves {args[-1]}"
        return kernel(*args)

    monkeypatch.setattr(spectral, "_lorentz_rates", gamma_only)

    for module, name in ((spectral, "beta_closed"), (mesolve, "amplitude"),
                         (mesolve, "amplitude_table"),
                         (dynamics, "amplitude_table")):
        monkeypatch.setattr(module, name, forbidden)
    np.testing.assert_array_equal(evolve(cfg, grid, icfg), want)


class TestPartialTrace:
    def test_joint_ground(self):
        rho = partial_trace_cavity(basis_state(0))
        np.testing.assert_allclose(rho, np.diag([0.0, 1.0]), atol=1e-15)

    def test_upper_dressed_state(self):
        rho = partial_trace_cavity(basis_state(2))
        np.testing.assert_allclose(rho, np.diag([0.5, 0.5]), atol=1e-15)

    def test_chain_matches_analytic_state(self):
        cfg = ohmic_cfg(coupling=1.0, omega_c=3.0)
        grid = TimeGrid(20.0, 501)
        traj = evolve(cfg, grid, IntegratorConfig(step=0.01 / 2.0))
        ana = atom_state(cfg, amplitude(cfg, grid).p)
        dev = np.max(np.abs(partial_trace_cavity(traj) - ana))
        assert dev <= 1e-6
        d = physicality(traj)
        assert d["hermiticity"] <= 1e-10
        assert d["trace"] <= 1e-10
        assert d["min_eigenvalue"] >= -1e-6


class TestTimelocalResidual:
    def test_dissipation_free(self, zero_rates):
        cfg = ohmic_cfg(coupling=0.5)
        grid = TimeGrid(20.0, 20001)  # step 1e-3
        resid = timelocal_residual(cfg, grid)
        away = np.abs(np.cos(cfg.coupling * grid.times)) > 1e-2
        away[0] = away[-1] = False
        assert np.nanmax(resid[away]) <= 1e-6

    def test_lorentzian_weak_coupling(self):
        cfg = lorentz_cfg(coupling=0.01, width=3.0)
        resid = timelocal_residual(cfg, TimeGrid(10.0, 40001))
        assert np.nanmax(resid) <= 1e-6

    def test_ohmic_strong_coupling(self):
        cfg = ohmic_cfg(coupling=1.0, omega_c=0.3)
        resid = timelocal_residual(cfg, TimeGrid(20.0, 20001))
        assert np.nanmax(resid) <= 1e-5

    @pytest.mark.parametrize("block", [1, 7, 49, 98])
    def test_blocks_change_no_bit(self, monkeypatch, block):
        # 99 interior points: blocks of 7 and 49 leave a remainder
        cfg = lorentz_cfg(coupling=1.0, width=0.1)
        grid = TimeGrid(10.0, 101)
        whole = timelocal_residual(cfg, grid)
        monkeypatch.setattr(mesolve, "_BLOCK_SAMPLES", block)
        assert np.array_equal(timelocal_residual(cfg, grid), whole, equal_nan=True)
        # the array form is the blocks laid end to end between the endpoints
        starts, blocks = zip(*timelocal_residual_blocks(cfg, grid))
        assert starts == tuple(range(1, 100, block))
        assert np.array_equal(np.concatenate(blocks), whole[1:-1], equal_nan=True)

    @pytest.mark.parametrize("cfg, grid", [
        (ohmic_cfg(coupling=1.0, omega_c=0.3), TimeGrid(20.0, 20001)),
        (lorentz_cfg(coupling=40.0, width=3.0), TimeGrid(10.0, 4001)),
        (SystemConfig(omega0=1.0, coupling=0.3, theta=1.0, phi=2.0,
                      spectral=SpectralModel.lorentzian(1.0, 0.1, 0.3, 1.0)),
         TimeGrid(50.0, 3001)),
    ], ids=["ohmic", "lorentzian-strong", "lorentzian-phase"])
    def test_matches_stack_form(self, cfg, grid):
        # three matrix elements give the Frobenius norm of the 2x2 defect
        np.testing.assert_allclose(timelocal_residual(cfg, grid),
                                   oracles.timelocal_residual_stack(cfg, grid),
                                   rtol=1e-15, atol=0.0)

    def test_singular_samples_are_nan(self, zero_rates):
        # p = e^{-i t} cos(t/2) vanishes at t = pi, the middle interior point
        cfg = ohmic_cfg(coupling=0.5)
        grid = TimeGrid(2.0 * math.pi, 5)
        assert abs(amplitude(cfg, grid).p[2]) <= dynamics.EPS_P_SINGULAR
        resid = timelocal_residual(cfg, grid)
        assert math.isnan(resid[2])
        assert np.all(np.isfinite(resid[[1, 3]]))

    def test_endpoints_are_nan(self):
        resid = timelocal_residual(ohmic_cfg(), TimeGrid(1.0, 51))
        assert math.isnan(resid[0]) and math.isnan(resid[-1])
        assert np.all(np.isfinite(resid[1:-1]))
