import csv

import numpy as np
import pytest

from asynclp import engine
from asynclp.distributed import run_distributed
from asynclp.formulation import StandardLP, to_asynchronous_form
from asynclp.problems import chebyshev_encode, gen_chebyshev
from asynclp.stationarity import build_system

from conftest import mini_fixed_problem, random_async_problem


# ---------------------------------------------------------------------------
# homotopy schedules

def test_power_ramp_values():
    assert engine.power_ramp(1) == pytest.approx(1.0 - 0.95)
    assert engine.power_ramp(3) == pytest.approx(1.0 - 0.95 ** 9)
    assert engine.power_ramp(10) == pytest.approx(1.0 - 0.95 ** 100)
    assert engine.power_ramp(11) == 1.0
    assert engine.power_ramp(1000) == 1.0


def test_geometric_ramp_shape():
    g = engine.geometric_ramp(0.5, 100)
    assert g(1) == pytest.approx(0.5)
    assert g(100) == pytest.approx(1.0, abs=2e-15)
    assert g(100) < 1.0
    assert g(101) == 1.0
    vals = [g(k) for k in range(1, 102)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        engine.geometric_ramp(1.0, 100)
    with pytest.raises(ValueError):
        engine.geometric_ramp(0.5, 1)


def test_make_gamma_forms():
    assert engine.make_gamma(None) is engine.constant_gamma
    assert engine.make_gamma("none") is engine.constant_gamma
    assert engine.make_gamma("bp") is engine.power_ramp
    ramp = engine.make_gamma("ramp:0.25:50")
    assert ramp(1) == pytest.approx(0.25)
    fn = lambda k: 0.5
    assert engine.make_gamma(fn) is fn
    with pytest.raises(ValueError):
        engine.make_gamma("ramp:0.5")
    with pytest.raises(ValueError):
        engine.make_gamma("mystery")
    with pytest.raises(TypeError):
        engine.make_gamma(3.5)


def test_schedule_config_validation():
    with pytest.raises(ValueError):
        engine.ScheduleConfig(mode="turbo")
    with pytest.raises(ValueError):
        engine.ScheduleConfig(mode="bernoulli", p=0.0)
    with pytest.raises(ValueError):
        engine.ScheduleConfig(mode="bernoulli", p=1.5)
    cfg = engine.ScheduleConfig(mode="bernoulli", p=1.0, homotopy="bp")
    assert cfg.gamma is engine.power_ramp


# ---------------------------------------------------------------------------
# steps

def test_init_state_cold_start():
    system = build_system(mini_fixed_problem())
    state = engine.init_state(system)
    assert np.array_equal(state.c2, np.zeros(1))
    assert np.array_equal(state.d2, system.e)
    state.d2 += 1.0
    assert np.array_equal(system.e, [2.0])  # private copy


def test_sync_equals_simultaneous_sweep():
    rng = np.random.default_rng(0)
    for _ in range(5):
        system = build_system(random_async_problem(rng))
        a = engine.init_state(system)
        b = engine.init_state(system)
        for k in range(1, 51):
            g = engine.power_ramp(k)
            engine.sync_step(a, system, g)
            engine.simultaneous_sweep_step(b, system, g)
            assert np.abs(a.d2 - b.d2).max() <= 1e-12
            assert np.abs(a.c2 - b.c2).max() <= 1e-12


def test_incremental_step_fires_one_coordinate():
    rng = np.random.default_rng(1)
    system = build_system(random_async_problem(rng))
    state = engine.init_state(system)
    d_before = state.d2.copy()
    c_before = state.c2.copy()
    engine.incremental_step(state, system, 0, gamma=0.5)
    delta = system.m_scalar(0, d_before[0], 0.5) - c_before[0]
    assert state.c2[0] == c_before[0] + delta
    assert np.array_equal(state.c2[1:], c_before[1:])
    assert np.allclose(state.d2, d_before + system.Gprime[:, 0] * delta)
    assert state.fired_updates == 1


def test_sweep_is_in_order_incremental_chain():
    rng = np.random.default_rng(2)
    system = build_system(random_async_problem(rng))
    a = engine.init_state(system)
    b = engine.init_state(system)
    engine.sweep_step(a, system, 0.7)
    for k in range(b.n_coords):
        engine.incremental_step(b, system, k, 0.7)
    assert np.array_equal(a.d2, b.d2)
    assert np.array_equal(a.c2, b.c2)
    assert a.fired_updates == b.fired_updates == a.n_coords


def test_bernoulli_p1_is_sync():
    rng = np.random.default_rng(3)
    system = build_system(random_async_problem(rng))
    sync = engine.ScheduleConfig(mode="sync", homotopy="bp")
    bern = engine.ScheduleConfig(mode="bernoulli", p=1.0, seed=7, homotopy="bp")
    s1, t1 = engine.run(system, sync, max_equiv_iters=40, tol=0.0)
    s2, t2 = engine.run(system, bern, max_equiv_iters=40, tol=0.0)
    assert np.array_equal(s1.d2, s2.d2)
    assert np.array_equal(s1.c2, s2.c2)
    assert t1.residual == t2.residual


def test_mini_system_converges_every_mode():
    # with one nonlinear coordinate every schedule walks the same orbit, and
    # at gamma = 1 that orbit is a 2-cycle; the ramp is what damps it.
    system = build_system(mini_fixed_problem())
    for mode, extra in (("sync", {}),
                        ("sweep", {}),
                        ("bernoulli", {"p": 0.6}),
                        ("randomk", {})):
        schedule = engine.ScheduleConfig(mode=mode, seed=5,
                                         homotopy="ramp:0.5:200", **extra)
        state, _ = engine.run(system, schedule, max_equiv_iters=500, tol=1e-9)
        assert state.converged, mode
        assert abs(state.d2[0] - 1.0) <= 1e-8, mode


# ---------------------------------------------------------------------------
# the run loop

def test_run_respects_budget_and_flags():
    system = build_system(mini_fixed_problem())
    schedule = engine.ScheduleConfig(mode="sync")
    state, traj = engine.run(system, schedule, max_equiv_iters=10, tol=0.0)
    assert state.converged is False
    assert state.fired_updates == 10 * state.n_coords
    assert len(traj) == 11  # initial row + one per equivalent iteration
    assert traj.equiv_iter == [float(k) for k in range(11)]


def test_run_stops_early_at_tol():
    system = build_system(mini_fixed_problem())
    schedule = engine.ScheduleConfig(mode="sweep", homotopy="ramp:0.5:200")
    state, traj = engine.run(system, schedule, max_equiv_iters=500, tol=1e-9)
    assert state.converged
    assert state.equivalent_iterations < 500
    assert traj.residual[-1] <= 1e-9


def test_every_schedule_records_one_row_per_unit():
    # the experiment grid reads row u as equivalent iteration u, so every
    # schedule must record rows at units 0, 1, 2, ... with none skipped or
    # doubled, both when a fractional budget runs out and when tol stops a
    # run (sync needs a ramp over most of its budget to get there)
    lp = StandardLP(f=[-1.0, -2.0], A=[[1.0, 1.0], [2.0, 1.0]], b=[4.0, 6.0])
    system = build_system(to_asynchronous_form(lp))
    for budget, tol in ((20.5, 0.0), (2600.0, 1e-8)):
        runs = {}
        for mode in ("sync", "sweep", "bernoulli", "randomk"):
            schedule = engine.ScheduleConfig(mode=mode, p=0.3, seed=1,
                                             homotopy="ramp:0.5:2500")
            state, traj = engine.run(system, schedule, max_equiv_iters=budget,
                                     tol=tol)
            runs[mode] = state.converged, traj
        _, _, traj, _, converged = run_distributed(
            system, workers=3, max_equiv_iters=budget, tol=tol, seed=1,
            homotopy="ramp:0.5:2500")
        runs["distributed"] = converged, traj
        for mode, (converged, traj) in runs.items():
            units = np.floor(np.asarray(traj.equiv_iter) + 1e-9)
            assert np.array_equal(units, np.arange(len(traj))), (budget, mode)
            if tol > 0:
                assert converged and len(traj) < budget, mode
            else:
                assert not converged and len(traj) >= 21, mode


def test_run_resume_from_state():
    # fired_updates carries across run() calls, so a resumed run continues
    # the homotopy window where the first run left off.  (The ramp starts at
    # 0.3, not 0.5: gamma=0.5 maps the initial d2=e of this system exactly
    # onto the fixed point, which would trip the tol=0 early stop.)
    system = build_system(mini_fixed_problem())
    # single-coordinate systems two-cycle once gamma hits 1, so the ramp must
    # be long enough that its accumulated contraction absorbs the initial
    # error before it ends (total damping ~ exp(-sum of gaps))
    schedule = engine.ScheduleConfig(mode="sweep", homotopy="ramp:0.3:1200")
    state, _ = engine.run(system, schedule, max_equiv_iters=3, tol=0.0)
    assert state.fired_updates == 3
    resumed, _ = engine.run(system, schedule, max_equiv_iters=1500, tol=1e-9,
                            state=state)
    assert resumed.converged
    assert resumed is state  # mutated in place


def test_randomk_is_scalar_draws_of_incremental_steps():
    # randomk draws the rest of each unit's coordinates in one block; from a
    # state that stops mid-unit it must still fire the same coordinates, with
    # the same gamma, as one scalar draw per step, through a fractional budget
    system = build_system(chebyshev_encode(gen_chebyshev(3, 6, seed=4)))
    K = system.n_nonlinear
    schedule = engine.ScheduleConfig(mode="randomk", seed=3, homotopy="bp")
    state = engine.init_state(system)
    for k in (0, 2, 1):
        engine.incremental_step(state, system, k, 0.5)
    hand = engine.SolverState(c2=state.c2.copy(), d2=state.d2.copy(),
                              fired_updates=state.fired_updates)
    engine.run(system, schedule, max_equiv_iters=30.4, tol=0.0, state=state)
    rng = np.random.default_rng(3)
    while hand.fired_updates < 30.4 * K - 1e-9:
        g = schedule.gamma(hand.fired_updates // K + 1)
        engine.incremental_step(hand, system, int(rng.integers(K)), g)
    assert state.fired_updates == hand.fired_updates
    assert np.array_equal(state.d2, hand.d2)
    assert np.array_equal(state.c2, hand.c2)


def test_trajectory_reference_column(tmp_path):
    system = build_system(chebyshev_encode(gen_chebyshev(3, 6, seed=2)))
    deep = engine.ScheduleConfig(mode="bernoulli", p=0.5, seed=0, homotopy="bp")
    settled, _ = engine.run(system, deep, max_equiv_iters=4000, tol=1e-11)
    assert settled.converged
    ref_values = system.recover_variables(settled.d2, settled.c2)
    reference = {"x_c": ref_values["x_c"], "r1": ref_values["r1"]}

    schedule = engine.ScheduleConfig(mode="bernoulli", p=0.3, seed=7, homotopy="bp")
    monitored, traj = engine.run(system, schedule, max_equiv_iters=4000, tol=1e-9,
                                 reference=reference)
    assert monitored.converged
    assert all(np.isfinite(traj.dist_to_ref))
    assert traj.dist_to_ref[-1] < 1e-6 < traj.dist_to_ref[0]
    no_ref = engine.ScheduleConfig(mode="sync", homotopy="ramp:0.5:150")
    _, traj_no_ref = engine.run(system, no_ref, max_equiv_iters=5, tol=0.0)
    assert all(np.isnan(traj_no_ref.dist_to_ref))
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["equiv_iter", "objective", "residual", "dist_to_ref"]
    assert len(rows) == len(traj) + 1
    assert float(rows[1][0]) == 0.0


def test_constant_gamma_short_of_one_converges_to_relaxed_point():
    # with gamma fixed at 0.9 the relaxed map is a strict contraction, so a
    # few hundred synchronous steps settle its fixed point: the residual of
    # the *relaxed* system drops below 1e-6 even though the gamma=1 residual
    # stays on the order of the relaxation gap.
    inst = gen_chebyshev(4, 8, seed=11)
    system = build_system(chebyshev_encode(inst))
    schedule = engine.ScheduleConfig(mode="sync", homotopy=lambda k: 0.9)
    state, _ = engine.run(system, schedule, max_equiv_iters=500, tol=0.0)
    assert system.residual(state.d2, gamma=0.9) < 1e-6
    assert system.residual(state.d2) > 1e-6  # the gap keeps gamma=1 residual up


# LPs with no fixed point: the oracle says infeasible and unbounded
NO_FIXED_POINT = {
    "infeasible": StandardLP(f=[1.0], A=[[1.0]], b=[-1.0]),
    "unbounded": StandardLP(f=[-1.0, -1.0], A=[[1.0, -1.0]], b=[1.0]),
}


@pytest.mark.parametrize("lp", NO_FIXED_POINT.values(), ids=NO_FIXED_POINT.keys())
def test_no_fixed_point_spends_the_budget_unconverged(lp):
    system = build_system(to_asynchronous_form(lp))
    for mode in ("sync", "sweep", "bernoulli", "randomk"):
        schedule = engine.ScheduleConfig(mode=mode, p=0.5, homotopy="bp")
        state, traj = engine.run(system, schedule, max_equiv_iters=200)
        assert state.converged is False, mode
        assert state.equivalent_iterations == 200.0, mode
        assert traj.equiv_iter[-1] == 200.0, mode
    _, _, traj, _, converged = run_distributed(system, workers=1,
                                               max_equiv_iters=200, homotopy="bp")
    assert converged is False
    assert traj.equiv_iter[-1] == 200.0


# ---------------------------------------------------------------------------
# operators

def test_homotopy_operator_blend():
    rng = np.random.default_rng(4)
    system = build_system(random_async_problem(rng))
    d2 = rng.normal(size=system.n_nonlinear)
    assert np.allclose(system.operator(d2, 0.0), system.e, atol=1e-15)
    assert np.array_equal(system.operator(d2, 1.0), system.operator(d2))
    blend = 0.5 * system.operator(d2) + 0.5 * system.e
    assert np.allclose(system.operator(d2, 0.5), blend, atol=1e-12)


def test_empirical_lipschitz_on_known_map():
    L = engine.empirical_lipschitz(lambda x: 0.5 * x, dim=4, samples=200)
    assert L == pytest.approx(0.5, abs=1e-12)
    L = engine.empirical_lipschitz(np.abs, dim=4, samples=200)
    assert L <= 1.0 + 1e-12
