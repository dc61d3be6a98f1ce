"""Verification suites: oracle cross-checks behind `cavityqfi verify`.

Each suite pins one falsifiable claim about the library (closed-form
identities, quadrature-vs-closed-form agreement, master-equation consistency,
asymptotes) at a fixed tolerance and reports the worst observed deviation.
The acceptance tests run exactly these suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# every verify run calls the quadrature oracle: load its backend here, at
# start-up, rather than inside the first suite
import scipy.integrate  # noqa: F401

from . import dynamics, mesolve
from .dynamics import AmplitudeSeries, ConfigTable, TimeGrid, \
    amplitude_table, atom_state, physicality
# amplitude is not called here, but perfbench/tracer.py wraps this binding
from .dynamics import amplitude  # noqa: F401
from .metrics import qfi_closed, qfi_general_2x2
from .presets import CURVE_PRESETS, PRESET_NAMES, PRESETS, RESERVOIR, config_table, \
    metric_series, preset_configs
from .spectral import SpectralModel, beta_closed, beta_numeric, gamma_closed, \
    gamma_numeric


@dataclass
class SuiteResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.detail}]" if self.detail else ""
        return (f"{tag} {self.name}: worst {self.worst:.3e} "
                f"(tolerance {self.tolerance:.1e}){extra}")


def _block_key(name: str) -> tuple:
    """What a preset's amplitude block depends on: its fields but name and quantity."""
    return tuple(v for k, v in vars(PRESETS[name]).items() if k not in ("name", "quantity"))


class VerifyContext:
    """Shared lazy caches so suites reuse amplitude blocks and RK4 results.

    `preset_table` holds one (n_cfg, n_t) block per preset grid, and `chain`,
    per block row and from one miss, the RK4 deviations at a base step and at
    half of it and every 10th base-step state for `physicality`.
    `preset_tiles` walks the blocks a few rows at a time, so the suites that
    read every preset grid build their state stacks one tile, not one block, at
    a time.  `amps` computes, uncached, the block with `p_dot` of a suite's own
    `config_table` off the preset grids: no two suites ask for the same one.
    """

    def __init__(self):
        self._tables = {}
        self._chain = {}

    def amps(self, table: ConfigTable, grid: TimeGrid) -> AmplitudeSeries:
        return amplitude_table(table, grid.times)

    def preset_table(self, name: str) -> tuple[ConfigTable, AmplitudeSeries]:
        """(table, amplitude block) of a preset: one row per config of its
        `preset_configs` table, from one `amplitude_table` call on its grid,
        cached by `_block_key`, so presets that differ only in their quantity
        share it.  No suite reads ``p_dot``, so the block has none."""
        key = _block_key(name)
        if key not in self._tables:
            table, grid = preset_configs(PRESETS[name])
            self._tables[key] = table, amplitude_table(table, grid.times, derivative=False)
        return self._tables[key]

    def preset_tiles(self, names=PRESET_NAMES):
        """Each distinct `preset_table` entry of the presets ``names`` once, in
        order, as (table[a:b], block rows a to b) tiles of at most
        ``dynamics._BLOCK_SAMPLES`` samples, or one row, the rule of
        `table_tiles`."""
        for table, block in {_block_key(n): self.preset_table(n) for n in names}.values():
            rows = max(1, dynamics._BLOCK_SAMPLES // len(block.times))
            for a in range(0, len(table), rows):
                yield table[a:a + rows], AmplitudeSeries(block.times, block.p[a:a + rows], None)

    def chain(self, name: str, i: int):
        """(RK4 vs row i of `preset_table`: max deviation at the base step, at half
        of it, every 10th base-step state), cached by `_block_key` and row, so only
        a miss builds the row's config and analytic state, once for both runs."""
        key = (_block_key(name), i)
        if key not in self._chain:
            (table, block), preset = self.preset_table(name), PRESETS[name]
            cfg = table.row(i)
            grid = TimeGrid(preset.t_end, preset.n_points)
            k = max(1, math.ceil(grid.dt / (0.01 / (cfg.omega0 + cfg.coupling)) - 1e-9))
            ana, devs = atom_state(cfg, block.p[i]), []
            for substeps in (k, 2 * k):  # per grid interval, one trajectory at a time
                traj = mesolve.evolve(cfg, grid, mesolve.IntegratorConfig(step=grid.dt / substeps))
                devs.append(float(np.max(np.abs(mesolve.partial_trace_cavity(traj) - ana))))
                states = traj[::10].copy() if substeps == k else states
                del traj
            self._chain[key] = (*devs, states)
        return self._chain[key]


def suite_relation_coherence_qfi(ctx: VerifyContext) -> SuiteResult:
    """C_l1^2 = F_phi at every point of every preset grid, on the
    `metric_series` values the CSVs print."""
    tol = 1e-12
    worst = 0.0
    for table, block in ctx.preset_tiles():
        c = metric_series(table, block, "coherence")
        f_phi = metric_series(table, block, "qfi_phi")
        worst = max(worst, float(np.max(np.abs(c * c - f_phi))))
    return SuiteResult("relation-coherence-qfi", worst <= tol, worst, tol)


def suite_qfi_theta_identity(ctx: VerifyContext) -> SuiteResult:
    """F_phi = F_theta sin^2(theta) for theta in {pi/6, pi/3, pi/2}.

    p(t) does not depend on theta, so every angle reads the same block.
    """
    tol = 1e-12
    worst = 0.0
    for _, block in ctx.preset_tiles(CURVE_PRESETS):
        for theta in (math.pi / 6, math.pi / 3, math.pi / 2):
            f_phi, f_theta = qfi_closed(block.p, theta)
            worst = max(worst, float(np.max(np.abs(
                f_phi - f_theta * math.sin(theta) ** 2))))
    return SuiteResult("closed-form-identity", worst <= tol, worst, tol)


GAMMA_ORACLE_SAMPLES = {
    "ohmic": {
        "params": (0.3, 0.5, 1.0, 3.0, 5.0),      # omega_c
        "omega_j": (0.0, 0.3, 1.0, 1.7, 2.5),
        "t": (0.3, 1.0, 2.0, 5.0, 10.0),
    },
    "lorentzian": {
        "params": (0.1, 0.3, 1.0, 3.0, 10.0),     # width lambda
        "omega_j": (0.1, 0.5, 1.0, 1.5, 3.0),     # peak sits at 0.5
        "t": (0.3, 1.0, 2.0, 5.0, 10.0),
    },
}


def _oracle_models(family: str, param: float) -> SpectralModel:
    if family == "ohmic":
        return SpectralModel.ohmic_lorentz_drude(param)
    return SpectralModel.lorentzian(1.0, param, detuning=0.5, omega0=1.0)


def suite_gamma_oracle(ctx: VerifyContext) -> SuiteResult:
    """Quadrature rate matches the closed form on a 5x5x5 sample per family.

    Mixed metric: relative error at 1e-6 where |gamma| >= 1e-3, absolute
    error at 1e-9 below that.
    """
    worst = 0.0
    detail = ""
    for family, axes in GAMMA_ORACLE_SAMPLES.items():
        for param in axes["params"]:
            model = _oracle_models(family, param)
            for wj in axes["omega_j"]:
                for t in axes["t"]:
                    gc = gamma_closed(model, wj, t)
                    gn = gamma_numeric(model, wj, t)
                    if abs(gc) < 1e-3:
                        score = abs(gn - gc) / 1e-9 * 1e-6
                    else:
                        score = abs(gn - gc) / abs(gc)
                    if score > worst:
                        worst = score
                        detail = f"{family} param={param} wj={wj} t={t}"
    return SuiteResult("gamma-oracle", worst <= 1e-6, worst, 1e-6, detail)


def suite_beta_consistency(ctx: VerifyContext) -> SuiteResult:
    """d beta/dt = gamma by central differences; Simpson beta matches closed."""
    h = 1e-5
    worst_fd = 0.0
    cases = [
        (_oracle_models("ohmic", 3.0), 1.0),
        (_oracle_models("ohmic", 0.3), 2.0),
        (_oracle_models("lorentzian", 1.0), 0.5),
        (_oracle_models("lorentzian", 0.5), 1.8),
    ]
    ts = np.linspace(0.01, 10.0, 80)
    for model, wj in cases:
        fd = (beta_closed(model, wj, ts + h) - beta_closed(model, wj, ts - h)) / (2 * h)
        worst_fd = max(worst_fd, float(np.max(np.abs(fd - gamma_closed(model, wj, ts)))))

    worst_num = 0.0
    grid = TimeGrid(10.0, 401)
    for model, wj in cases[::2]:
        bn = beta_numeric(model, wj, grid)
        bc = beta_closed(model, wj, grid.times)
        worst_num = max(worst_num, float(np.max(np.abs(bn - bc))))

    worst = max(worst_fd / 1e-6, worst_num / 1e-5)
    detail = f"fd {worst_fd:.2e} (tol 1e-6), simpson {worst_num:.2e} (tol 1e-5)"
    return SuiteResult("beta-consistency", worst <= 1.0, worst, 1.0, detail)


MESOLVE_PRESETS = ("fig1a", "fig1b", "fig1c", "fig1d",
                   "fig4a", "fig4b", "fig4c", "fig4d")


def suite_mesolve_chain(ctx: VerifyContext) -> SuiteResult:
    """Traced RK4 trajectory matches the analytic state on the fig 1/4 presets.

    Base step (omega0 + coupling) * h = 0.01 must agree to 1e-6 elementwise;
    halving the step must improve the deviation at least 8x unless already at
    the 1e-10 accuracy floor.  The detail also reports the observed order
    log2(dev / dev_half) where the deviation is worst.
    """
    tol = 1e-6
    worst = 0.0
    worst_ratio_score = 0.0
    detail = ""
    for name in MESOLVE_PRESETS:
        couplings = ctx.preset_table(name)[0].coupling
        for i in range(len(couplings)):
            dev, dev_half, _ = ctx.chain(name, i)
            if dev > worst:
                worst = dev
                order = math.log2(dev / max(dev_half, 1e-300))
                detail = (f"{name} coupling={float(couplings[i])}, "
                          f"observed order {order:.2f}")
            if dev_half > 1e-10:  # above the floor the 4th-order ratio must show
                ratio_score = 8.0 * dev_half / max(dev, 1e-300)
                worst_ratio_score = max(worst_ratio_score, ratio_score)
    passed = worst <= tol and worst_ratio_score <= 1.0
    detail += f"; halving score {worst_ratio_score:.2f} (<=1 means ratio >= 8 or floor)"
    return SuiteResult("mesolve-chain", passed, worst, tol, detail)


def suite_timelocal_residual(ctx: VerifyContext) -> SuiteResult:
    """Analytic state satisfies its time-local equation to 1e-5 (Frobenius)."""
    tol = 1e-5
    worst = 0.0
    detail = ""
    for family, t_end, axes in (
            ("ohmic", 20.0, [("omega_c", (3.0, 0.3)), ("coupling", (0.01, 0.5, 1.0))]),
            ("lorentzian", 10.0, [("width", (3.0,)), ("coupling", (0.01, 0.5, 1.0, 40.0))]),
            ("lorentzian", 10.0, [("width", (0.1,)), ("coupling", (0.01, 0.5, 1.0))])):
        table = config_table(family, axes)
        for i in range(len(table)):
            g, res = float(table.coupling[i]), float(table.columns[RESERVOIR[family]][i])
            # central-difference error ~ h^2 M3 / 6 with M3 the fastest rate cubed;
            # the reservoir scale enters through the e^{-omega_c t} transients
            h = min(math.sqrt(3e-5 / max(float(table.omega_2[i]), 2.0 * g, res) ** 3), 2e-3)
            grid = TimeGrid(t_end, int(round(t_end / h)) + 1)
            mx = max(float(np.nanmax(block, initial=-math.inf)) for _, block
                     in mesolve.timelocal_residual_blocks(table[i:i + 1], grid))
            if mx > worst:
                worst = mx
                detail = f"{family} coupling={g} reservoir={res}"
    return SuiteResult("timelocal-residual", worst <= tol, worst, tol, detail)


def suite_stable_asymptote(ctx: VerifyContext) -> SuiteResult:
    """Ohmic resonant coupling pins F_phi -> 1/4 and C_l1 -> 1/2 at late times."""
    tol = 1e-3
    table = config_table("ohmic", [], [("coupling", 1.0), ("omega_c", 3.0)])
    amps = ctx.amps(table, TimeGrid(200.0, 4001))
    f_phi = float(metric_series(table, amps, "qfi_phi")[0, -1])
    c = float(metric_series(table, amps, "coherence")[0, -1])
    worst = max(abs(f_phi - 0.25), abs(c - 0.5))
    return SuiteResult("stable-asymptote", worst <= tol, worst, tol,
                       f"F_phi(200)={f_phi:.6f}, C(200)={c:.6f}")


def suite_weak_coupling_decay(ctx: VerifyContext) -> SuiteResult:
    """Weak-coupling F_phi decays monotonically and is < 1e-3 by t = 10."""
    table = config_table("ohmic", [], [("coupling", 0.01), ("omega_c", 3.0)])
    [f_phi] = metric_series(table, ctx.amps(table, TimeGrid(10.0, 2001)), "qfi_phi")
    rise = float(np.max(np.diff(f_phi)))
    final = float(f_phi[-1])
    passed = rise <= 1e-12 and final < 1e-3
    return SuiteResult("weak-coupling-decay", passed, final, 1e-3,
                       f"max rise {rise:.2e}")


def suite_markovian_positivity(ctx: VerifyContext) -> SuiteResult:
    """Gamma(t) >= -1e-9 in the weak-coupling (Markovian) regimes."""
    floor = -1e-9
    worst = 0.0
    for family, couplings, t_end in (("ohmic", (0.01, 0.5), 20.0),
                                     ("lorentzian", (0.01,), 10.0)):
        table = config_table(family, [("coupling", couplings)],
                             [(RESERVOIR[family], 3.0)])
        amps = ctx.amps(table, TimeGrid(t_end, 4001))
        gam = metric_series(table, amps, "decoherence_rate")
        if np.any(~np.isfinite(gam)):
            return SuiteResult("markovian-positivity", False, math.inf, -floor,
                               "unexpected singular samples")
        worst = max(worst, -float(np.min(gam)))
    return SuiteResult("markovian-positivity", worst <= -floor, worst, -floor)


def suite_lorentzian_plateau(ctx: VerifyContext) -> SuiteResult:
    """F_phi flattens to a quasi-stable plateau over Rt in [20, 50].

    The two curves are rows of the fig4b and fig4a preset blocks, found by
    their coupling.
    """
    tol = 0.05
    worst = 0.0
    detail = []
    for g, name in ((1.0, "fig4b"), (40.0, "fig4a")):
        table, block = ctx.preset_table(name)
        [i] = np.flatnonzero(table.coupling == g)
        f_phi, _ = qfi_closed(block.p[i], table.theta[i])
        window = f_phi[block.times >= 20.0]
        spread = float(window.max() - window.min())
        worst = max(worst, spread)
        detail.append(f"coupling={g}: spread {spread:.4f}")
    return SuiteResult("lorentzian-plateau", worst <= tol, worst, tol,
                       "; ".join(detail))


def suite_qfi_oracle(ctx: VerifyContext) -> SuiteResult:
    """Determinant-formula QFI with finite-difference derivatives matches
    the closed forms to 1e-5 relative wherever det(rho) > 1e-6."""
    tol = 1e-5
    h = 1e-6
    steps = np.array([0.0, h, -h])  # a step index is at, up or down
    at, up, down = 0, 1, 2
    phi0 = 0.7
    worst, checked = 0.0, 0
    for family, g, res, t_end in (("ohmic", 1.0, 3.0, 20.0),
                                  ("lorentzian", 1.0, 0.1, 50.0)):
        # one table holds each theta and its steps, at each step of phi0;
        # atom_state reads only a row's angles, and every row has the same p
        thetas = np.add.outer((math.pi / 6, math.pi / 3, math.pi / 2), steps)
        table = config_table(family, [("theta", thetas.ravel()), ("phi", phi0 + steps)],
                             [("coupling", g), (RESERVOIR[family], res)])
        amps = ctx.amps(table, TimeGrid(t_end, 201))
        shape = (len(thetas), len(steps), len(steps), -1)  # theta, its step, phi step, t
        states = atom_state(table, amps.p).reshape(*shape, 2, 2)
        rho = states[:, at, at]
        keep = np.linalg.det(rho).real > 1e-6
        f_phi, f_theta = qfi_closed(amps.p.reshape(shape)[:, at, at], thetas[:, at])
        dphi = (states[:, at, up] - states[:, at, down]) / (2 * h)
        dtheta = (states[:, up, at] - states[:, down, at]) / (2 * h)
        for drho, closed in ((dphi, f_phi[keep]), (dtheta, f_theta[keep])):
            worst = max(worst, float(np.max(
                np.abs(qfi_general_2x2(rho[keep], drho[keep]) - closed) / closed)))
        checked += int(np.count_nonzero(keep))
    return SuiteResult("qfi-oracle", worst <= tol, worst, tol,
                       f"{checked} states checked")


def suite_physicality(ctx: VerifyContext) -> SuiteResult:
    """Every emitted qubit and dressed state meets its type tolerances.

    Qubit states: hermitian and unit trace to 1e-12, eigenvalues >= -1e-9.
    Dressed states: 1e-10 and >= -1e-6, since small transient violations are
    tolerated while the rates go negative.
    """
    worst = 0.0
    for table, block in ctx.preset_tiles():
        d = physicality(atom_state(table, block.p))
        worst = max(worst, d["hermiticity"] / 1e-12, d["trace"] / 1e-12,
                    max(0.0, -d["min_eigenvalue"]) / 1e-9)
    for name in MESOLVE_PRESETS:
        for i in range(len(ctx.preset_table(name)[0])):
            _, _, states = ctx.chain(name, i)
            d = physicality(states)
            worst = max(worst, d["hermiticity"] / 1e-10, d["trace"] / 1e-10,
                        max(0.0, -d["min_eigenvalue"]) / 1e-6)
    return SuiteResult("physicality", worst <= 1.0, worst, 1.0,
                       "worst violation as fraction of its tolerance")


SUITES = {
    "relation-coherence-qfi": suite_relation_coherence_qfi,
    "closed-form-identity": suite_qfi_theta_identity,
    "gamma-oracle": suite_gamma_oracle,
    "beta-consistency": suite_beta_consistency,
    "mesolve-chain": suite_mesolve_chain,
    "timelocal-residual": suite_timelocal_residual,
    "stable-asymptote": suite_stable_asymptote,
    "weak-coupling-decay": suite_weak_coupling_decay,
    "markovian-positivity": suite_markovian_positivity,
    "lorentzian-plateau": suite_lorentzian_plateau,
    "qfi-oracle": suite_qfi_oracle,
    "physicality": suite_physicality,
}


def run_suites(names=None, ctx: VerifyContext | None = None) -> list[SuiteResult]:
    """Run the named suites (all by default) sharing one cache context;
    KeyError, before any suite runs, on an unknown or repeated name."""
    if names is None:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise KeyError(f"unknown suite(s): {', '.join(unknown)}")
    repeated = sorted({n for i, n in enumerate(names) if n in names[:i]})
    if repeated:
        raise KeyError(f"suite(s) given twice: {', '.join(repeated)}")
    ctx = ctx or VerifyContext()
    return [SUITES[n](ctx) for n in names]
