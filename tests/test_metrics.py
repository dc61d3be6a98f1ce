import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityqfi import (
    AmplitudeRangeError,
    PureStateSingularityError,
    SpectralModel,
    SystemConfig,
    TimeGrid,
    amplitude,
    atom_state,
    coherence_l1,
    metric_series,
    qfi_closed,
    qfi_general_2x2,
)
from cavityqfi.dynamics import ConfigTable, amplitude_table


def cfg_with(theta, phi=0.0, coupling=1.0, omega_c=3.0):
    return SystemConfig(omega0=1.0, coupling=coupling, theta=theta, phi=phi,
                        spectral=SpectralModel.ohmic_lorentz_drude(omega_c))


def fd_drho(cfg_plus, cfg_minus, p, h):
    return (atom_state(cfg_plus, p) - atom_state(cfg_minus, p)) / (2 * h)


class TestQfiClosed:
    def test_initial_equatorial_state(self):
        assert qfi_closed(1.0 + 0j, math.pi / 2) == (1.0, 1.0)

    def test_pole_state(self):
        f_phi, f_theta = qfi_closed(0.6 + 0.3j, 0.0)
        assert f_phi == pytest.approx(0.0, abs=1e-30)
        assert f_theta == pytest.approx(0.45)

    def test_rejects_unphysical_amplitude(self):
        with pytest.raises(ValueError):
            qfi_closed(1.0 + 0.1j, 1.0)
        # the error atom_state and amplitude_table raise for the same bound
        with pytest.raises(AmplitudeRangeError):
            qfi_closed(np.array([0.5, 1.0 + 2e-9]), 1.0)

    @pytest.mark.parametrize("p_shape, theta_shape",
                             [((4,), (4,)), ((3, 5), (4,)), ((4, 5, 1), (4,)),
                              ((3, 5), (3, 1))],
                             ids=["1-D", "rows-differ", "3-D", "theta-2-D"])
    def test_angle_array_needs_one_row_of_p_per_angle(self, p_shape, theta_shape):
        # an array theta is one angle per row of a 2-D p; a 1-D p of its
        # length, or a (3, 1) theta, used to give F_phi an outer product
        p = np.full(p_shape, 0.5 + 0.0j)
        theta = np.linspace(0.1, 1.0, math.prod(theta_shape)).reshape(theta_shape)
        with pytest.raises(ValueError, match="^theta of shape"):
            qfi_closed(p, theta)

    def test_resonant_asymptote(self):
        cfg = cfg_with(math.pi / 2)
        amps = amplitude(cfg, TimeGrid(200.0, 401))
        f_phi, _ = qfi_closed(amps.p[-1], cfg.theta)
        assert f_phi == pytest.approx(0.25, abs=1e-3)


class TestQfiGeneral:
    def test_no_parameter_dependence(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        assert qfi_general_2x2(rho, np.zeros((2, 2))) == 0.0

    def test_phase_derivative_oracle(self):
        # |p|^2 = 1/2, theta = pi/2: expect F_phi = 0.5
        h = 1e-6
        phi = 0.7
        p = 1.0 / math.sqrt(2.0)
        rho = atom_state(cfg_with(math.pi / 2, phi), p)
        drho = fd_drho(cfg_with(math.pi / 2, phi + h),
                       cfg_with(math.pi / 2, phi - h), p, h)
        assert qfi_general_2x2(rho, drho) == pytest.approx(0.5, abs=1e-6)

    def test_polar_derivative_oracle(self):
        # |p|^2 = 1/2, theta = pi/3: expect F_theta = |p|^2 = 0.5
        h = 1e-6
        theta = math.pi / 3
        p = 1.0 / math.sqrt(2.0)
        rho = atom_state(cfg_with(theta), p)
        drho = fd_drho(cfg_with(theta + h), cfg_with(theta - h), p, h)
        assert qfi_general_2x2(rho, drho) == pytest.approx(0.5, abs=1e-6)

    def test_pure_state_is_singular(self):
        rho = atom_state(cfg_with(math.pi / 2), 1.0)
        with pytest.raises(PureStateSingularityError):
            qfi_general_2x2(rho, np.zeros((2, 2)))

    def test_rejects_nonhermitian_derivative(self):
        rho = atom_state(cfg_with(math.pi / 2), 0.5)
        with pytest.raises(ValueError):
            qfi_general_2x2(rho, np.array([[0.0, 1.0], [0.0, 0.0]]))


    def _stack(self):
        # mixed states of one config over a decay, with both derivatives
        h, theta, phi = 1e-6, math.pi / 3, 0.7
        p = amplitude(cfg_with(theta, phi), TimeGrid(20.0, 41)).p[5:]
        rho = atom_state(cfg_with(theta, phi), p)
        dphi = fd_drho(cfg_with(theta, phi + h), cfg_with(theta, phi - h), p, h)
        dtheta = fd_drho(cfg_with(theta + h, phi), cfg_with(theta - h, phi), p, h)
        return rho, dphi, dtheta

    def test_stack_equals_per_matrix_calls(self):
        rho, dphi, dtheta = self._stack()
        for drho in (dphi, dtheta):
            got = qfi_general_2x2(rho, drho)
            assert got.shape == (rho.shape[0],)
            want = [qfi_general_2x2(r, d) for r, d in zip(rho, drho)]
            assert all(type(w) is float for w in want)
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
        # a (2, n, 2, 2) stack keeps its leading shape
        both = qfi_general_2x2(np.stack((rho, rho)), np.stack((dphi, dtheta)))
        np.testing.assert_allclose(both[1], qfi_general_2x2(rho, dtheta),
                                   rtol=1e-15, atol=0)

    def test_one_near_pure_state_makes_the_stack_singular(self):
        rho, dphi, _ = self._stack()
        rho[3] = atom_state(cfg_with(math.pi / 2), 1.0)
        with pytest.raises(PureStateSingularityError):
            qfi_general_2x2(rho, dphi)

    @pytest.mark.parametrize("shape", [(4, 3, 3), (4, 2, 3), (2,), (4, 2)])
    def test_rejects_stacks_of_other_shapes(self, shape):
        with pytest.raises(ValueError, match="2x2"):
            qfi_general_2x2(np.ones(shape), np.zeros(shape))

    def test_rejects_mismatched_stacks(self):
        rho, dphi, _ = self._stack()
        with pytest.raises(ValueError, match="2x2"):
            qfi_general_2x2(rho, dphi[:-1])


class TestCoherence:
    def test_maximal(self):
        rho = atom_state(cfg_with(math.pi / 2), 1.0)
        assert coherence_l1(rho) == pytest.approx(1.0)

    def test_pole_state(self):
        rho = atom_state(cfg_with(0.0), 0.9)
        assert coherence_l1(rho) == 0.0

    @given(st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi),
           st.floats(0.0, math.pi))
    @settings(max_examples=100)
    def test_coherence_squares_to_phase_information(self, mag, phase, theta):
        p = mag * np.exp(1j * phase)
        cfg = cfg_with(theta)
        c = coherence_l1(atom_state(cfg, p))
        f_phi, f_theta = qfi_closed(p, theta)
        assert c * c == pytest.approx(f_phi, abs=1e-12)
        assert f_phi == pytest.approx(f_theta * math.sin(theta) ** 2, abs=1e-12)


def series(cfg, grid, quantity):
    """`metric_series` of a one-config `amplitude_table` block, as one row."""
    table = ConfigTable.of(cfg)
    return metric_series(table, amplitude_table(table, grid.times), quantity)[0]


class TestMetricSeries:
    def test_single_point_grid(self):
        theta = 1.1
        cfg = cfg_with(theta)
        grid = TimeGrid(1.0, 1)
        assert grid.times.tolist() == [0.0]
        f_phi = series(cfg, grid, "qfi_phi")
        c = series(cfg, grid, "coherence")
        assert f_phi.shape == c.shape == (1,)
        assert f_phi[0] == pytest.approx(math.sin(theta) ** 2, rel=1e-14)
        assert series(cfg, grid, "qfi_theta")[0] == pytest.approx(1.0)
        assert c[0] == pytest.approx(abs(math.sin(theta)), rel=1e-14)
        assert abs(c[0] * c[0] - f_phi[0]) <= 1e-12

    def test_vacuum_rabi_information(self, zero_rates):
        om = 0.5
        cfg = cfg_with(math.pi / 2, coupling=om)
        grid = TimeGrid(10.0, 300)
        f_phi = series(cfg, grid, "qfi_phi")
        np.testing.assert_allclose(f_phi, np.cos(om * grid.times) ** 2,
                                   atol=1e-12)

    def test_weak_coupling_monotone_decay(self):
        cfg = cfg_with(math.pi / 2, coupling=0.01)
        f_phi = series(cfg, TimeGrid(10.0, 1001), "qfi_phi")
        assert np.all(np.diff(f_phi) <= 1e-12)
        assert f_phi[-1] < 1e-3

    def test_orderings_and_bounds(self):
        cfg = cfg_with(math.pi / 2, coupling=1.0, omega_c=0.3)
        grid = TimeGrid(20.0, 800)
        f_phi, c = series(cfg, grid, "qfi_phi"), series(cfg, grid, "coherence")
        assert np.all((f_phi >= 0) & (f_phi <= 1))
        assert np.all((c >= 0) & (c <= 1))
        # both are monotone images of |p|, so their sample orderings agree
        np.testing.assert_array_equal(np.argsort(f_phi, kind="stable"),
                                      np.argsort(c, kind="stable"))
