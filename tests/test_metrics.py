import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityqfi import (
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


class TestMetricSeries:
    def test_single_point_grid(self):
        theta = 1.1
        cfg = cfg_with(theta)
        series = metric_series(cfg, amplitude(cfg, TimeGrid(1.0, 1)))
        assert len(series.t) == 1
        assert series.t[0] == 0.0
        assert series.qfi_phi[0] == pytest.approx(math.sin(theta) ** 2, rel=1e-14)
        assert series.qfi_theta[0] == pytest.approx(1.0)
        assert series.coherence_l1[0] == pytest.approx(abs(math.sin(theta)),
                                                       rel=1e-14)
        assert series.relation_residual[0] <= 1e-12

    def test_vacuum_rabi_information(self):
        om = 0.5
        cfg = cfg_with(math.pi / 2, coupling=om)
        grid = TimeGrid(10.0, 300)
        amps = amplitude(cfg, grid, dissipation=False)
        f_phi = metric_series(cfg, amps).qfi_phi
        np.testing.assert_allclose(f_phi, np.cos(om * grid.times) ** 2,
                                   atol=1e-12)

    def test_weak_coupling_monotone_decay(self):
        cfg = cfg_with(math.pi / 2, coupling=0.01)
        f_phi = metric_series(cfg, amplitude(cfg, TimeGrid(10.0, 1001))).qfi_phi
        assert np.all(np.diff(f_phi) <= 1e-12)
        assert f_phi[-1] < 1e-3

    def test_orderings_and_bounds(self):
        cfg = cfg_with(math.pi / 2, coupling=1.0, omega_c=0.3)
        series = metric_series(cfg, amplitude(cfg, TimeGrid(20.0, 800)))
        f_phi, c = series.qfi_phi, series.coherence_l1
        assert np.all((f_phi >= 0) & (f_phi <= 1))
        assert np.all((c >= 0) & (c <= 1))
        # both are monotone images of |p|, so their sample orderings agree
        np.testing.assert_array_equal(np.argsort(f_phi, kind="stable"),
                                      np.argsort(c, kind="stable"))
