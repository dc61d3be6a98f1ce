"""Acceptance gate: every verification suite at its pinned tolerance.

Each test drives one suite from cavityqfi.verify and prints its pass/fail
line (visible with `pytest -s` or on failure).  The suites share one cache
context so the expensive master-equation trajectories are integrated once.
"""

import gc
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cavityqfi import AmplitudeSeries, TimeGrid, amplitude, atom_state, coherence_l1, \
    metric_series, qfi_closed
from cavityqfi import dynamics, presets, verify
from cavityqfi.dynamics import ConfigTable
from cavityqfi.presets import CURVE_PRESETS, PRESETS, RESERVOIR, config_table, \
    preset_configs
from cavityqfi.verify import MESOLVE_PRESETS, SUITES, VerifyContext, run_suites

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


@pytest.fixture(scope="module")
def ctx():
    return VerifyContext()


def _run(name, ctx):
    result = SUITES[name](ctx)
    print(result.line())
    assert result.passed, result.line()
    return result


def test_criterion_01_coherence_qfi_relation(ctx):
    """|C_l1^2 - F_phi| <= 1e-12 on every preset grid, both families."""
    _run("relation-coherence-qfi", ctx)


def test_criterion_02_closed_form_identity(ctx):
    """F_phi = F_theta sin^2(theta) to 1e-12 for theta in {pi/6, pi/3, pi/2}."""
    _run("closed-form-identity", ctx)


def test_criterion_03_rate_oracle_equivalence(ctx):
    """Quadrature rate vs closed form: 1e-6 relative (1e-9 abs when small),
    5x5x5 sample per family."""
    _run("gamma-oracle", ctx)


def test_criterion_04_beta_consistency(ctx):
    """d(beta)/dt matches gamma to 1e-6; Simpson beta matches closed to 1e-5."""
    _run("beta-consistency", ctx)


def test_criterion_05_master_equation_chain(ctx):
    """Traced RK4 trajectories match the analytic state to 1e-6 on the eight
    fig 1/fig 4 presets; halving the step improves the deviation >= 8x
    (or the 1e-10 floor is reached)."""
    _run("mesolve-chain", ctx)


def test_criterion_06_timelocal_residual(ctx):
    """Frobenius residual of the time-local equation <= 1e-5 at unflagged
    interior points, fig 1 and fig 4 parameter sets."""
    _run("timelocal-residual", ctx)


def test_criterion_07_stable_asymptote(ctx):
    """Ohmic resonant coupling: F_phi(200) = 0.25 and C(200) = 0.5, +-1e-3."""
    _run("stable-asymptote", ctx)


def test_criterion_08_weak_coupling_decay(ctx):
    """Ohmic weak coupling: F_phi monotone nonincreasing and < 1e-3 at t=10."""
    _run("weak-coupling-decay", ctx)


def test_criterion_09_markovian_positivity(ctx):
    """Gamma >= -1e-9 in the weak-coupling regimes of both families."""
    _run("markovian-positivity", ctx)


def test_criterion_10_lorentzian_plateau(ctx):
    """F_phi spread <= 0.05 on Rt in [20, 50] for the plateau couplings."""
    _run("lorentzian-plateau", ctx)


def test_criterion_11_qfi_oracle(ctx):
    """Determinant-formula QFI matches the closed forms to 1e-5 relative
    wherever det(rho) > 1e-6."""
    _run("qfi-oracle", ctx)


def test_criterion_12_physicality(ctx):
    """Every emitted qubit and dressed state meets its type tolerances."""
    _run("physicality", ctx)


def _eigvalsh_violations(rho, tol_herm_trace, tol_eig):
    """Worst physicality violation, with LAPACK's eigvalsh for every size."""
    herm = np.max(np.abs(rho - np.conj(np.swapaxes(rho, -1, -2))))
    trace = np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0))
    low = np.linalg.eigvalsh(rho).min()
    return float(max(herm / tol_herm_trace, trace / tol_herm_trace,
                     max(0.0, -low) / tol_eig))


def test_preset_blocks_match_the_per_config_route(ctx):
    # the three preset-grid suites read one amplitude block per preset; each
    # config on its own, every theta with its own amplitude, and eigvalsh on
    # every state must give the same worst values bit for bit
    relation = identity = phys = 0.0
    thetas = ("theta", (math.pi / 6, math.pi / 3, math.pi / 2))
    for name, preset in PRESETS.items():
        table, _ = preset_configs(preset)
        for i in range(len(table)):
            cfg = table.row(i)
            amps = amplitude(cfg, TimeGrid(preset.t_end, preset.n_points))
            row = AmplitudeSeries(amps.times, amps.p[None], None)
            c = metric_series(table[i:i + 1], row, "coherence")
            relation = max(relation, float(np.max(np.abs(
                c * c - metric_series(table[i:i + 1], row, "qfi_phi")))))
            phys = max(phys, _eigvalsh_violations(
                atom_state(cfg, amps.p), 1e-12, 1e-9))
        if name not in CURVE_PRESETS:
            continue
        table = config_table(preset.family, [("coupling", preset.couplings), thetas],
                             [(RESERVOIR[preset.family], preset.reservoir)])
        for cfg in map(table.row, range(len(table))):
            amps = amplitude(cfg, TimeGrid(preset.t_end, preset.n_points))
            f_phi, f_theta = qfi_closed(amps.p, cfg.theta)
            identity = max(identity, float(np.max(np.abs(
                f_phi - f_theta * math.sin(cfg.theta) ** 2))))
    for name in MESOLVE_PRESETS:
        for i in range(len(ctx.preset_table(name)[0])):
            _, _, states = ctx.chain(name, i)
            phys = max(phys, _eigvalsh_violations(states, 1e-10, 1e-6))
    want = {"relation-coherence-qfi": relation,
            "closed-form-identity": identity, "physicality": phys}
    for suite, worst in want.items():
        assert SUITES[suite](VerifyContext()).worst == worst, suite


def test_relation_residual_is_the_primitives_bit_for_bit(ctx):
    # the suite's |C_l1^2 - F_phi| over the metric_series values the CSVs
    # print equals the residual of qfi_closed and coherence_l1 of atom_state,
    # config by config, on all 16 preset blocks
    worst = 0.0
    for name in PRESETS:
        table, block = ctx.preset_table(name)
        c = metric_series(table, block, "coherence")
        resid = np.abs(c * c - metric_series(table, block, "qfi_phi"))
        for i in range(len(table)):
            cfg = table.row(i)
            ci = coherence_l1(atom_state(cfg, block.p[i]))
            f_phi, _ = qfi_closed(block.p[i], cfg.theta)
            assert np.array_equal(resid[i], np.abs(ci * ci - f_phi)), (name, i)
        worst = max(worst, float(np.max(resid)))
    assert f"{worst:.3e}" == "4.441e-16"
    assert SUITES["relation-coherence-qfi"](ctx).worst == worst


def test_preset_tiles_cover_every_preset_once(ctx):
    # relation-coherence-qfi and physicality walk these tiles: the rows of
    # each distinct preset_table entry once, in preset order, every preset's
    # entry among them, and no tile above _BLOCK_SAMPLES unless it is one row
    first = []
    for name in PRESETS:
        entry = ctx.preset_table(name)
        if not any(entry is f for f in first):
            first.append(entry)
    assert len(first) == 10
    tiles = list(ctx.preset_tiles())
    walk = iter(tiles)
    for table, block in first:
        row = 0
        while row < len(table):
            part, tile = next(walk)
            rows = len(part)
            assert rows == 1 or rows * len(block.times) <= dynamics._BLOCK_SAMPLES
            assert tile.times is block.times and tile.p_dot is None
            assert np.shares_memory(tile.p, block.p)
            assert np.array_equal(tile.p, block.p[row:row + rows])
            for k, column in table.columns.items():
                assert np.array_equal(part.columns[k], column[row:row + rows]), k
            row += rows
        assert row == len(table)
    assert next(walk, None) is None
    # fig4a's 12800-point rows are one tile each, a contour block two tiles
    assert len(tiles) == 17


@pytest.mark.parametrize("block", [1, 7])
def test_preset_suites_independent_of_tile_size(ctx, monkeypatch, block):
    # tiles of one row: no value depends on the tiling
    names = ("relation-coherence-qfi", "closed-form-identity", "physicality")
    want = [(r.worst, r.detail) for r in run_suites(names, ctx)]
    monkeypatch.setattr(dynamics, "_BLOCK_SAMPLES", block)
    assert [(r.worst, r.detail) for r in run_suites(names, ctx)] == want


def test_preset_table_builds_each_presets_table_once(monkeypatch):
    # chain and the suites look presets up again and again; the 16 presets
    # have 10 distinct blocks, and a lookup that hits one builds no table
    real, built = presets.config_table, []
    monkeypatch.setattr(presets, "config_table", lambda *a: built.append(a) or real(*a))
    ctx = VerifyContext()
    entries = [ctx.preset_table(name) for name in PRESETS]
    assert len(built) == 10
    entries += [ctx.preset_table(name) for name in PRESETS]
    assert len(built) == 10
    assert all(a is b for a, b in zip(entries, entries[len(PRESETS):]))


def test_suites_build_their_cases_as_config_tables(monkeypatch):
    # one run_suites() enumerates its configs as config tables: the 10
    # preset tables and one per family and grid of the other suites, with
    # no one-config route; the only configs built are chain's 13 RK4 rows
    real, built = presets.config_table, []
    counted = lambda *a: built.append(a) or real(*a)
    monkeypatch.setattr(presets, "config_table", counted)
    monkeypatch.setattr(verify, "config_table", counted)
    real_row, rows = ConfigTable.row, []
    monkeypatch.setattr(ConfigTable, "row", lambda t, i: rows.append(i) or real_row(t, i))

    def forbidden(*args, **kwargs):
        raise AssertionError("a suite built a config or a series one at a time")

    monkeypatch.setattr(presets, "make_config", forbidden)
    monkeypatch.setattr(verify, "amplitude", forbidden)
    assert not hasattr(verify, "make_config")
    assert all(r.passed for r in run_suites(ctx=VerifyContext()))
    assert len(built) <= 20
    assert len(rows) <= 36


def test_chain_builds_a_config_per_cache_miss(monkeypatch):
    # chain looks its cache up by preset_table entry and row before it builds
    # the row's config: in one run_suites(), 52 calls and 13 misses, one per
    # distinct row, build 13 configs, each serving both RK4 runs
    ctx, built, per_call = VerifyContext(), [], []
    real_row, real_chain = ConfigTable.row, ctx.chain
    monkeypatch.setattr(ConfigTable, "row",
                        lambda table, i: built.append(i) or real_row(table, i))

    def chain(*args, **kwargs):
        before = len(built)
        out = real_chain(*args, **kwargs)
        per_call.append(len(built) - before)
        return out

    ctx.chain = chain
    run_suites(ctx=ctx)
    assert len(per_call) == 52
    assert sum(per_call) == len(ctx._chain) == 13


def _traced(f):
    """(f(), peak and current bytes that tracemalloc saw while f ran)."""
    gc.collect()
    tracemalloc.start()
    try:
        out = f()
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak, current


def test_timelocal_residual_holds_one_block():
    # the finest grid (Lorentzian coupling 40) has 1.3M points, 10.4 MB per
    # float array; the suite holds one block of it at a time
    result, peak, _ = _traced(lambda: SUITES["timelocal-residual"](VerifyContext()))
    assert result.passed
    assert peak < 6e6


def test_preset_suites_hold_one_tile(ctx):
    # with the 16 preset blocks and the chain built, the suites that walk
    # every preset grid hold one tile's 2x2 states at a time; fig4a's whole
    # block of them would be 3.3 MB, and physicality's working arrays triple it
    for name in PRESETS:
        ctx.preset_table(name)
    for name in MESOLVE_PRESETS:
        for i in range(len(ctx.preset_table(name)[0])):
            ctx.chain(name, i)
    for suite, bound in (("relation-coherence-qfi", 3e6), ("physicality", 5e6)):
        result, peak, _ = _traced(lambda: SUITES[suite](ctx))
        assert result.passed, suite
        assert peak < bound, (suite, peak)


def test_preset_tables_keep_no_p_dot():
    # the 16 preset blocks hold 2.6 MB of p and 0.2 MB of times; no suite
    # reads p_dot, which would add another 2.6 MB
    ctx = VerifyContext()
    _, _, retained = _traced(lambda: [ctx.preset_table(name) for name in PRESETS])
    assert all(ctx.preset_table(name)[1].p_dot is None for name in PRESETS)
    assert retained < 3.5e6


def test_mesolve_chain_keeps_no_trajectory():
    # with the preset blocks already built, what the suite leaves in the
    # context is the RK4 results: deviations and every 10th base-step state
    ctx = VerifyContext()
    for name in MESOLVE_PRESETS:
        ctx.preset_table(name)
    result, _, retained = _traced(lambda: SUITES["mesolve-chain"](ctx))
    assert result.passed
    assert retained < 3e6


@pytest.mark.parametrize("suite", ["mesolve-chain", "lorentzian-plateau"])
def test_mesolve_chain_reads_preset_rows(monkeypatch, suite):
    # every amplitude these suites check is a row of its preset's block,
    # never a single-config amplitude series
    def no_amplitude(*args, **kwargs):
        raise AssertionError(f"{suite} called amplitude")

    monkeypatch.setattr(verify, "amplitude", no_amplitude)
    assert SUITES[suite](VerifyContext()).passed


def test_worst_values_match_the_benchmark_reference(ctx):
    # the benchmark's verify workload fails an op unless the suites are the
    # reference's and each worst lies within its suite's tolerance of the
    # recorded value; the same rule, on the file the benchmark reads
    want = json.loads(REFERENCE.read_text())["verify"]
    results = run_suites(ctx=ctx)
    assert sorted(r.name for r in results) == sorted(want)
    for r in results:
        assert abs(r.worst - want[r.name]) <= r.tolerance, r.line()


def test_results_are_builtin_types(ctx):
    # verify's results feed text and machine-readable output: plain floats
    # and bools, never numpy scalars
    results = run_suites(ctx=ctx)
    assert [r.name for r in results] == list(SUITES)
    for r in results:
        assert type(r.worst) is float, r.name
        assert type(r.passed) is bool, r.name


@pytest.mark.parametrize("names, text", [
    (["physicality", "bogus"],
     f"unknown suite(s): bogus (choose from {', '.join(sorted(SUITES))})"),
    (["stable-asymptote", "physicality", "stable-asymptote"],
     "suite(s) given twice: stable-asymptote"),
], ids=["unknown", "repeated"])
def test_run_suites_rejects_names_before_running(monkeypatch, names, text):
    def no_suite(ctx):
        raise AssertionError("a suite ran before the names were checked")

    for name in SUITES:
        monkeypatch.setitem(SUITES, name, no_suite)
    with pytest.raises(KeyError) as err:
        run_suites(names)
    assert err.value.args[0] == text
