import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityqfi import (
    AmplitudeRangeError,
    IntegratorConfig,
    SpectralKind,
    SpectralModel,
    SystemConfig,
    TimeGrid,
    amplitude,
    atom_state,
    beta_numeric,
    decoherence_rate,
    gamma_closed,
    lamb_shift,
    physicality,
)
from cavityqfi.dynamics import amplitude_table
from cavityqfi.presets import config_table

OHMIC3 = SpectralModel.ohmic_lorentz_drude(3.0)


def ohmic_cfg(coupling=1.0, omega_c=3.0, theta=math.pi / 2, phi=0.0):
    return SystemConfig(omega0=1.0, coupling=coupling, theta=theta, phi=phi,
                        spectral=SpectralModel.ohmic_lorentz_drude(omega_c))


class TestTimeGrid:
    def test_basic(self):
        g = TimeGrid(2.0, 5)
        np.testing.assert_allclose(g.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert g.times[0] == 0.0
        assert g.dt == 0.5

    def test_single_point(self):
        np.testing.assert_array_equal(TimeGrid(1.0, 1).times, [0.0])

    @given(st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
           st.integers(1, 3000), st.data())
    @settings(max_examples=300)
    def test_window_is_linspace_slice(self, t_end, n, data):
        a = data.draw(st.integers(0, n))
        b = data.draw(st.integers(a, n))
        want = np.linspace(0.0, t_end, n)
        assert TimeGrid(t_end, n).window(a, b).tobytes() == want[a:b].tobytes()

    @pytest.mark.parametrize("t_end, n", [
        (1.0, 1), (1.0, 2),
        (1.0, 4),        # dt = 1/3 is not exactly representable
        (50.0, 12800),   # fig4a
        (5e-324, 5),     # t_end / (n - 1) underflows to 0
    ])
    def test_window_full_and_empty(self, t_end, n):
        grid, want = TimeGrid(t_end, n), np.linspace(0.0, t_end, n)
        assert grid.times.tobytes() == want.tobytes()
        for a, b in ((0, n), (0, 0), (n, n), (n - 1, n), (0, n - 1)):
            assert grid.window(a, b).tobytes() == want[a:b].tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1).dt


NAN = float("nan")

NON_FINITE_INPUTS = [
    ("t_end", lambda: TimeGrid(NAN, 10)),
    ("t_end", lambda: TimeGrid(math.inf, 10)),
    ("omega0", lambda: SystemConfig(omega0=NAN, coupling=1.0, theta=0.0,
                                    phi=0.0, spectral=OHMIC3)),
    ("coupling", lambda: ohmic_cfg(coupling=NAN)),
    ("coupling", lambda: ohmic_cfg(coupling=math.inf)),
    ("theta", lambda: ohmic_cfg(theta=NAN)),
    ("phi", lambda: ohmic_cfg(phi=NAN)),
    ("omega_c", lambda: SpectralModel.ohmic_lorentz_drude(NAN)),
    ("omega_c", lambda: SpectralModel.ohmic_lorentz_drude(math.inf)),
    ("rate", lambda: SpectralModel.lorentzian(NAN, 1.0, 0.5, 1.0)),
    ("width", lambda: SpectralModel.lorentzian(1.0, NAN, 0.5, 1.0)),
    ("detuning", lambda: SpectralModel.lorentzian(1.0, 1.0, NAN, 1.0)),
    ("omega0", lambda: SpectralModel.lorentzian(1.0, 1.0, 0.5, NAN)),
    ("step", lambda: IntegratorConfig(step=NAN)),
]


@pytest.mark.parametrize("name, build", NON_FINITE_INPUTS,
                         ids=[name for name, _ in NON_FINITE_INPUTS])
def test_non_finite_input_rejected(name, build):
    with pytest.raises(ValueError, match=name):
        build()


# a numeric string, a bool or a float sample count is not the number the
# field holds: rejected when built, naming the field
NON_NUMERIC_INPUTS = [
    ("n_points", lambda: TimeGrid(1.0, 2.5)),
    ("n_points", lambda: TimeGrid(1.0, 3.0)),
    ("n_points", lambda: TimeGrid(1.0, "3")),
    ("omega0", lambda: SystemConfig(omega0="1", coupling=0.5, theta=0.0,
                                    phi=0.0, spectral=OHMIC3)),
    ("theta", lambda: ohmic_cfg(theta=True)),
    ("omega_c", lambda: SpectralModel(SpectralKind.OHMIC_LORENTZ_DRUDE, omega_c="3")),
    ("rate", lambda: SpectralModel(SpectralKind.LORENTZIAN, rate="1", width=1.0,
                                   detuning=0.5, omega0=1.0)),
    ("omega0", lambda: SpectralModel(SpectralKind.LORENTZIAN, rate=1.0, width=1.0,
                                     detuning=0.5, omega0="1")),
    ("t_end", lambda: TimeGrid("1", 3)),
    ("t_end", lambda: TimeGrid(True, 3)),
    ("step", lambda: IntegratorConfig(step="0.1")),
    ("step", lambda: IntegratorConfig(step=True)),
]


@pytest.mark.parametrize("name, build", NON_NUMERIC_INPUTS,
                         ids=["n_points-2.5", "n_points-3.0", "n_points-str",
                              "omega0-str", "theta-bool", "omega_c-str",
                              "rate-str", "lorentzian-omega0-str", "t_end-str",
                              "t_end-bool", "step-str", "step-bool"])
def test_non_numeric_input_rejected(name, build):
    with pytest.raises(ValueError, match=f"^{name} must be (a real number|an integer), got"):
        build()


class TestSystemConfig:
    def test_transition_frequencies(self):
        cfg = ohmic_cfg(coupling=0.25)
        assert cfg.omega_1 == 0.75
        assert cfg.omega_2 == 1.25

    def test_validation(self):
        with pytest.raises(ValueError):
            ohmic_cfg(theta=-0.1)
        with pytest.raises(ValueError):
            ohmic_cfg(phi=7.0)
        with pytest.raises(ValueError):
            ohmic_cfg(coupling=-1.0)
        with pytest.raises(ValueError):
            SystemConfig(omega0=0.0, coupling=1.0, theta=0.0, phi=0.0,
                         spectral=OHMIC3)
        # Ohmic domain 0 <= coupling <= omega0; the Lorentzian family has none
        with pytest.raises(ValueError, match="0 <= coupling <= omega0"):
            ohmic_cfg(coupling=1.5)
        assert ohmic_cfg(coupling=1.0).omega_1 == 0.0
        SystemConfig(omega0=1.0, coupling=40.0, theta=0.0, phi=0.0,
                     spectral=SpectralModel.lorentzian(1.0, 3.0, 40.0, 1.0))
        # the Lorentzian line is centred relative to the atom's own omega0
        with pytest.raises(ValueError, match="omega0=1.0 .*omega0=2.0"):
            SystemConfig(omega0=1.0, coupling=1.0, theta=0.0, phi=0.0,
                         spectral=SpectralModel.lorentzian(1.0, 1.0, 0.5, omega0=2.0))

    def test_lorentzian_defaults_resolved(self):
        # config_table places the line; the model is kept as built
        cfg = config_table("lorentzian", [], [("coupling", 0.7), ("width", 0.5),
                                              ("theta", 0.1)]).row(0)
        assert cfg.spectral.detuning == 0.7
        assert cfg.spectral.omega0 == 1.0
        # spectrum centered at omega0 - coupling puts transition 1 on resonance
        assert cfg.spectral.lorentz_peak() == pytest.approx(cfg.omega_1)

    def test_explicit_detuning_kept(self):
        cfg = config_table("lorentzian", [], [("coupling", 0.7), ("width", 0.5),
                                              ("theta", 0.1), ("detuning", 0.2)]).row(0)
        assert cfg.spectral.detuning == 0.2


class TestAmplitude:
    def test_initial_value_exact(self):
        amps = amplitude(ohmic_cfg(), TimeGrid(5.0, 101))
        assert amps.p[0] == 1.0 + 0.0j
        assert amps.p_dot[0] == pytest.approx(-1j * 1.0)  # -i omega0 at t=0

    def test_vacuum_rabi_modulus(self, zero_rates):
        cfg = ohmic_cfg(coupling=0.8)
        grid = TimeGrid(10.0, 500)
        amps = amplitude(cfg, grid)
        np.testing.assert_allclose(np.abs(amps.p),
                                   np.abs(np.cos(0.8 * grid.times)), atol=1e-12)

    def test_resonant_coupling_asymptote(self):
        # omega_1 = 0 shuts down one decay channel, so |p| -> 1/2
        amps = amplitude(ohmic_cfg(coupling=1.0), TimeGrid(200.0, 801))
        assert abs(amps.p[-1]) == pytest.approx(0.5, abs=1e-3)

    def test_derivative_is_analytic(self):
        # central differences of p reproduce the analytic p_dot
        grid = TimeGrid(10.0, 20001)
        amps = amplitude(ohmic_cfg(coupling=0.5), grid)
        fd = (amps.p[2:] - amps.p[:-2]) / (2 * grid.dt)
        assert np.max(np.abs(fd - amps.p_dot[1:-1])) <= 1e-6

    def test_numeric_mode_matches_closed(self):
        # grid fine enough that the Simpson exponent error stays ~1e-7
        cfg = ohmic_cfg(coupling=0.5)
        grid = TimeGrid(2.0, 161)
        closed = amplitude(cfg, grid, mode="closed")
        numeric = amplitude(cfg, grid, mode="numeric")
        np.testing.assert_allclose(numeric.p, closed.p, atol=5e-7)
        np.testing.assert_allclose(numeric.p_dot, closed.p_dot, atol=5e-7)

    def test_numeric_mode_exponents_are_beta_numeric(self):
        # the rates are sampled once and integrated exactly as beta_numeric does
        cfg = ohmic_cfg(coupling=0.5)
        grid = TimeGrid(2.0, 9)
        amps = amplitude(cfg, grid, mode="numeric")
        t, w1, w2 = grid.times, cfg.omega_1, cfg.omega_2
        b1 = beta_numeric(cfg.spectral, w1, grid)
        b2 = beta_numeric(cfg.spectral, w2, grid)
        np.testing.assert_array_equal(
            amps.p, 0.5 * (np.exp(-1j * w1 * t - b1 / 4.0)
                           + np.exp(-1j * w2 * t - b2 / 4.0)))

    def test_numeric_table_rejects_times_not_from_zero(self):
        # numeric beta integrates from t = 0: a table on times from 1 is
        # rejected, not integrated from its first time
        table = config_table("ohmic", [("coupling", [0.5])], [("omega_c", 3.0)])
        with pytest.raises(ValueError, match="^times "):
            amplitude_table(table, np.array([1.0, 2.0, 3.0]), mode="numeric")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            amplitude(ohmic_cfg(), TimeGrid(1.0, 5), mode="magic")

    @given(st.floats(0.0, 1.0), st.floats(0.3, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_amplitude_stays_physical(self, coupling, omega_c):
        amps = amplitude(ohmic_cfg(coupling=coupling, omega_c=omega_c),
                         TimeGrid(15.0, 301))
        assert np.max(np.abs(amps.p)) <= 1.0 + 1e-9


class TestAtomState:
    def test_equatorial_initial_state(self):
        rho = atom_state(ohmic_cfg(theta=math.pi / 2, phi=0.0), 1.0 + 0j)
        np.testing.assert_allclose(rho, 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_pole_state_has_no_coherence(self):
        rho = atom_state(ohmic_cfg(theta=0.0), 0.6 + 0.2j)
        mag2 = 0.6**2 + 0.2**2
        np.testing.assert_allclose(rho, np.diag([mag2, 1 - mag2]), atol=1e-15)

    def test_decayed_amplitude_gives_ground_state(self):
        rho = atom_state(ohmic_cfg(theta=1.0, phi=2.0), 0.0)
        np.testing.assert_allclose(rho, np.diag([0.0, 1.0]), atol=1e-15)

    def test_rejects_unphysical_amplitude(self):
        with pytest.raises(AmplitudeRangeError):
            atom_state(ohmic_cfg(), 1.1)

    def test_angle_columns_need_one_row_of_p_per_angle(self):
        # a table's angles are columns, one per row of a 2-D p; any other p
        # is a ValueError naming the angle, not a broadcast error
        table = config_table("ohmic", [("coupling", (0.1, 0.5, 1.0))])
        for p in (np.full(3, 0.5 + 0j), np.full((2, 3), 0.5 + 0j)):
            with pytest.raises(ValueError, match="^theta of shape"):
                atom_state(table, p)
        angles = types.SimpleNamespace(theta=1.0, phi=np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="^phi of shape"):
            atom_state(angles, np.full(2, 0.5 + 0j))
        assert atom_state(angles, np.full((2, 4), 0.5 + 0j)).shape == (2, 4, 2, 2)

    @given(st.floats(0.0, math.pi), st.floats(0.0, 6.28),
           st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi))
    @settings(max_examples=100)
    def test_always_physical(self, theta, phi_state, mag, phase):
        phi_state = min(phi_state, 2 * math.pi - 1e-9)
        cfg = ohmic_cfg(theta=theta, phi=phi_state)
        rho = atom_state(cfg, mag * np.exp(1j * phase))
        d = physicality(rho)
        assert d["hermiticity"] <= 1e-12
        assert d["trace"] <= 1e-12
        assert d["min_eigenvalue"] >= -1e-9


# real and imaginary parts of the random 2x2 entries
ENTRY = st.floats(-100.0, 100.0, allow_subnormal=False)


class TestPhysicalityClosedForm:
    """The 2x2 lowest eigenvalue is a closed form; it must agree with
    LAPACK's eigvalsh, which reads the same lower triangle."""

    @given(st.lists(st.lists(ENTRY, min_size=8, max_size=8),
                    min_size=1, max_size=6),
           st.sampled_from(["non-hermitian", "hermitian", "positive"]))
    @settings(max_examples=300)
    def test_min_eigenvalue_matches_eigvalsh(self, rows, kind):
        parts = np.array(rows)
        m = (parts[:, :4] + 1j * parts[:, 4:]).reshape(-1, 2, 2)
        mh = np.conj(np.swapaxes(m, -1, -2))
        rho = {"non-hermitian": m, "hermitian": (m + mh) / 2.0,
               "positive": m @ mh}[kind]
        want = float(np.linalg.eigvalsh(rho)[..., 0].min())
        tol = 8.0 * np.finfo(float).eps * float(np.max(np.abs(rho)))
        assert abs(physicality(rho)["min_eigenvalue"] - want) <= tol

    def test_non_positive_state_is_caught(self):
        d = physicality(np.array([[[0.5, 0.6], [0.6, 0.5]]]))
        assert d["min_eigenvalue"] == pytest.approx(-0.1, abs=1e-15)

    def test_reads_only_the_lower_triangle(self):
        assert physicality(np.array([[[1.0, 5.0], [0.0, 0.0]]]))[
            "min_eigenvalue"] == 0.0

    def test_single_state_returns_floats(self):
        d = physicality(np.array([[0.75, 0.25j], [-0.25j, 0.25]]))
        assert all(type(v) is float for v in d.values())


class TestRates:
    def test_initial_values(self):
        # p = 1, pdot = -i omega0 gives Gamma = 0 and S = 2 omega0
        assert decoherence_rate(1.0 + 0j, -1j) == pytest.approx(0.0, abs=1e-15)
        assert lamb_shift(1.0 + 0j, -1j) == pytest.approx(2.0)

    def test_vacuum_rabi_rates(self, zero_rates):
        om = 0.5
        grid = TimeGrid(2.5, 200)  # stays below the first node at t = pi
        amps = amplitude(ohmic_cfg(coupling=om), grid)
        gam = decoherence_rate(amps.p, amps.p_dot)
        shift = lamb_shift(amps.p, amps.p_dot)
        np.testing.assert_allclose(gam, 2 * om * np.tan(om * grid.times),
                                   atol=1e-9)
        np.testing.assert_allclose(shift, 2.0, atol=1e-9)

    def test_zero_coupling_rate_is_half_gamma(self):
        cfg = ohmic_cfg(coupling=0.0)
        grid = TimeGrid(5.0, 101)
        amps = amplitude(cfg, grid)
        gam = decoherence_rate(amps.p, amps.p_dot)
        gamma = gamma_closed(cfg.spectral, cfg.omega_1, grid.times)
        np.testing.assert_allclose(gam, gamma / 2.0, atol=1e-12)
        np.testing.assert_allclose(lamb_shift(amps.p, amps.p_dot), 2.0,
                                   atol=1e-12)

    def test_singular_amplitude_flags_nan(self):
        out = decoherence_rate(np.array([1.0, 1e-12]), np.array([-1j, -1j]))
        assert math.isfinite(out[0])
        assert math.isnan(out[1])
        assert math.isnan(lamb_shift(0.0 + 0j, 1.0 + 0j))

    def test_rate_is_log_derivative_of_modulus(self):
        # smooth weak-coupling decay; near amplitude nodes ln|p| is too stiff
        # for 3-point differences at any reasonable grid
        grid = TimeGrid(10.0, 20001)
        amps = amplitude(ohmic_cfg(coupling=0.5, omega_c=3.0), grid)
        gam = decoherence_rate(amps.p, amps.p_dot)[1:-1]
        ln = np.log(np.abs(amps.p))
        fd = -2.0 * (ln[2:] - ln[:-2]) / (2 * grid.dt)
        mask = np.abs(amps.p[1:-1]) > 1e-3
        assert np.max(np.abs((gam - fd)[mask])) <= 1e-6

    def test_sign_tracks_modulus_monotonicity(self):
        grid = TimeGrid(20.0, 4001)
        amps = amplitude(ohmic_cfg(coupling=1.0, omega_c=0.3), grid)
        gam = decoherence_rate(amps.p, amps.p_dot)
        dmod = np.diff(np.abs(amps.p))
        interior = gam[1:-1]
        # compare away from extrema where the finite-difference sign is clean
        decreasing = (dmod[:-1] < -1e-6) & (dmod[1:] < -1e-6)
        increasing = (dmod[:-1] > 1e-6) & (dmod[1:] > 1e-6)
        assert np.all(interior[decreasing] > 0)
        assert np.all(interior[increasing] < 0)

    def test_markovian_regime_positive(self):
        grid = TimeGrid(20.0, 4001)
        for coupling in (0.01, 0.5):
            amps = amplitude(ohmic_cfg(coupling=coupling), grid)
            gam = decoherence_rate(amps.p, amps.p_dot)
            assert np.min(gam) >= -1e-9
