import csv
import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from asynclp import engine
from asynclp.distributed import run_distributed
from asynclp.formulation import StandardLP, to_asynchronous_form
from asynclp.problems import (basis_pursuit_encode, basis_pursuit_recover,
                              chebyshev_encode, gen_basis_pursuit, gen_chebyshev)
from asynclp.stationarity import build_system

from conftest import mini_fixed_problem, random_async_problem, two_sided_problem


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
    # one spec is one schedule, so that trials naming it share a gamma row
    assert engine.ScheduleConfig("sync", homotopy="ramp:0.25:50").gamma is ramp
    assert engine.make_gamma("ramp:0.25:51") is not ramp
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
    with pytest.raises(ValueError):
        engine.ScheduleConfig(mode="distributed", workers=0)
    with pytest.raises(ValueError):   # not an integer
        engine.ScheduleConfig(mode="distributed", workers=2.0)
    with pytest.raises(ValueError):
        engine.ScheduleConfig(mode="bernoulli", seed=-1)
    with pytest.raises(ValueError):
        engine.ScheduleConfig(mode="bernoulli", seed=1.5)
    for flag in (True, False, np.True_):   # a bool is an int, but not a count
        with pytest.raises(ValueError):
            engine.ScheduleConfig(mode="distributed", workers=flag)
        with pytest.raises(ValueError):
            engine.ScheduleConfig(mode="bernoulli", seed=flag)
    cfg = engine.ScheduleConfig(mode="bernoulli", p=1.0, homotopy="bp")
    assert cfg.gamma is engine.power_ramp
    # numpy integers are integers
    cfg = engine.ScheduleConfig("distributed", workers=np.int64(2),
                                seed=np.int32(3))
    assert cfg.workers == 2 and cfg.seed == 3


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


def test_a_run_of_several_workers_does_not_resume():
    # the lookups in flight are not part of the state; one worker is randomk,
    # and resumes as randomk does
    system = build_system(chebyshev_encode(gen_chebyshev(3, 6, seed=4)))
    states = {}
    for mode, workers in (("distributed", 3), ("distributed", 1), ("randomk", 1)):
        schedule = engine.ScheduleConfig(mode=mode, workers=workers, seed=2)
        state = states[mode, workers] = engine.init_state(system)
        engine.run(system, schedule, max_equiv_iters=2.5, tol=0.0, state=state)
        assert state.fired_updates > 0
        if workers > 1:
            with pytest.raises(ValueError):
                engine.run(system, schedule, max_equiv_iters=5, state=state)
            assert state.fired_updates == math.ceil(2.5 * system.n_nonlinear)
        else:
            engine.run(system, schedule, max_equiv_iters=5, tol=0.0, state=state)
    one, randomk = states["distributed", 1], states["randomk", 1]
    assert np.array_equal(one.d2, randomk.d2) and np.array_equal(one.c2, randomk.c2)


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
    rng = np.random.default_rng([3, 3])   # resumed at fired_updates = 3
    while hand.fired_updates < 30.4 * K - 1e-9:
        g = schedule.gamma(hand.fired_updates // K + 1)
        engine.incremental_step(hand, system, int(rng.integers(K)), g)
    assert state.fired_updates == hand.fired_updates
    assert np.array_equal(state.d2, hand.d2)
    assert np.array_equal(state.c2, hand.c2)


@pytest.mark.parametrize("seed", range(6))
def test_resumed_run_does_not_replay_its_firing_pattern(seed):
    # a run resumed in 5-unit chunks draws each chunk from a stream keyed by
    # where it resumes; replaying the cold start's pattern every chunk can
    # multiply the iterations several times over
    system = build_system(basis_pursuit_encode(
        gen_basis_pursuit(64, 32, 4, seed=seed)))
    schedule = engine.ScheduleConfig(mode="bernoulli", p=0.2, seed=seed,
                                     homotopy="bp")
    single, _ = engine.run(system, schedule, max_equiv_iters=1000, tol=1e-8)
    assert single.converged
    state = engine.init_state(system)
    for chunk in range(1, 201):
        engine.run(system, schedule, max_equiv_iters=5 * chunk, tol=1e-8,
                   state=state)
        if state.converged:
            break
    assert state.converged
    assert state.equivalent_iterations <= 1.5 * single.equivalent_iterations


# ---------------------------------------------------------------------------
# an independent reference for the run loop

def _reference_run(system, schedule, budget, tol, reference=None, state=None):
    """What engine.run returns, one step at a time: sync_step, async_tick
    with one draw per tick, or incremental_step (one rng.integers(K) per
    randomk update), with gamma of the unit each step starts in; a row
    recorded with Trajectory.record after every step that ends a unit; a
    stop at the first row at tol, or once ceil(budget * K) updates have
    fired (a whole step may pass it).  `state` is resumed from a copy."""
    K = system.n_nonlinear
    state = (engine.init_state(system) if state is None else
             engine.SolverState(c2=state.c2.copy(), d2=state.d2.copy(),
                                fired_updates=state.fired_updates))
    rng = np.random.default_rng([schedule.seed, state.fired_updates]
                                if state.fired_updates else schedule.seed)
    ref = engine.reference_coordinates(system, reference)
    traj = engine.Trajectory()
    stop = math.ceil(budget * K - 1e-9)
    converged = traj.record(system, state.fired_updates / K, state.d2,
                            state.c2, ref) <= tol
    while not converged and state.fired_updates < stop:
        unit = state.fired_updates // K
        gamma = schedule.gamma(unit + 1)
        if schedule.mode == "sync":
            engine.sync_step(state, system, gamma)
        elif schedule.mode == "bernoulli":
            engine.async_tick(state, system, rng.random(K) < schedule.p, gamma)
        elif schedule.mode == "sweep":
            for k in range(K):
                engine.incremental_step(state, system, k, gamma)
        else:
            engine.incremental_step(state, system, int(rng.integers(K)), gamma)
        if state.fired_updates // K > unit:
            converged = traj.record(system, state.fired_updates / K, state.d2,
                                    state.c2, ref) <= tol
    state.converged = converged
    return state, traj


def _assert_same_run(got, want, where):
    (state, traj), (want_state, want_traj) = got, want
    assert _same(state.d2, want_state.d2) and _same(state.c2, want_state.c2), where
    assert state.fired_updates == want_state.fired_updates, where
    assert state.converged is want_state.converged, where
    for column in ("equiv_iter", "objective", "residual", "dist_to_ref"):
        assert _same(getattr(traj, column), getattr(want_traj, column)), \
            (where, column)


def _same(a, b) -> bool:
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


# ---------------------------------------------------------------------------
# rows measured a window at a time

_WINDOW_SYSTEMS = {
    "cheb": lambda: build_system(chebyshev_encode(
        gen_chebyshev(4, 8, seed=0))),
    "bp": lambda: build_system(basis_pursuit_encode(
        gen_basis_pursuit(64, 32, 4, seed=3))),
}
# a ramp longer than the runs, so that every schedule's residual keeps
# reaching new lows, at every position in a window
_RAMP = "ramp:0.5:1000"


def _outcome(system, schedule, budget, tol, reference=None, state=None):
    """What a run returns, as bytes and plain values; `state` is resumed from
    a copy."""
    if schedule.startswith("distributed"):
        d2, c2, traj, reports, converged = run_distributed(
            system, workers=int(schedule[-1]), max_equiv_iters=budget, tol=tol,
            seed=5, homotopy=_RAMP, reference=reference)
        updates = [r.to_dict() for r in reports]
    else:
        config = engine.ScheduleConfig(mode=schedule, p=0.5, seed=5,
                                       homotopy=_RAMP)
        if state is not None:
            state = engine.SolverState(c2=state.c2.copy(), d2=state.d2.copy(),
                                       fired_updates=state.fired_updates)
        state, traj = engine.run(system, config, max_equiv_iters=budget,
                                 tol=tol, reference=reference, state=state)
        d2, c2, converged, updates = (state.d2, state.c2, state.converged,
                                      state.fired_updates)
    return {"d2": d2.tobytes(), "c2": c2.tobytes(), "converged": converged,
            "updates": updates,   # counted per worker in a distributed run
            "rows": [np.asarray(col).tobytes() for col in
                     (traj.equiv_iter, traj.objective, traj.residual,
                      traj.dist_to_ref)]}


@pytest.mark.parametrize("schedule", ["sync", "sweep", "bernoulli", "randomk",
                                      "distributed:1", "distributed:3"])
@pytest.mark.parametrize("kind", _WINDOW_SYSTEMS)
def test_windowed_rows_equal_per_unit_rows(kind, schedule, monkeypatch):
    # rows measured a window at a time, with the run rolled back to the row
    # that met tol, give bitwise what measuring after every unit gives
    system = _WINDOW_SYSTEMS[kind]()
    window = engine._ROW_UPDATES // system.n_nonlinear
    assert window >= 3

    def both(budget, tol, **kwargs):
        windowed = _outcome(system, schedule, budget, tol, **kwargs)
        monkeypatch.setattr(engine, "_ROW_UPDATES", 1)   # a row every unit
        monkeypatch.setattr(engine, "_ROW_UNITS", 1)
        per_unit = _outcome(system, schedule, budget, tol, **kwargs)
        monkeypatch.undo()
        assert windowed == per_unit, (budget, tol, kwargs)
        if schedule != "distributed:3":   # one worker is randomk
            mode = "randomk" if schedule == "distributed:1" else schedule
            config = engine.ScheduleConfig(mode=mode, p=0.5, seed=5,
                                           homotopy=_RAMP)
            state, traj = _reference_run(system, config, budget, tol, **kwargs)
            assert (windowed["d2"], windowed["c2"], windowed["converged"],
                    windowed["rows"]) == (
                state.d2.tobytes(), state.c2.tobytes(), state.converged,
                [np.asarray(col).tobytes() for col in
                 (traj.equiv_iter, traj.objective, traj.residual,
                  traj.dist_to_ref)]), (budget, tol, kwargs)
        return windowed

    # aim tol at a row 0, and at the first, a middle and the last unit of a
    # window: the first row at or below a residual is its first new low
    budget = 4 * window
    residual = np.frombuffer(both(budget, 0.0)["rows"][2])
    lows = np.flatnonzero(residual < np.minimum.accumulate(
        np.concatenate([[np.inf], residual[:-1]])))
    targets = [0]
    for position in (0, window // 2, window - 1):
        rows = lows[(lows > 0) & ((lows - 1) % window == position)]
        assert len(rows), position
        targets.append(rows[0])
    for row in targets:
        out = both(budget, residual[row])
        assert out["converged"]
        assert len(np.frombuffer(out["rows"][2])) == row + 1

    both(2.4, 0.0)                 # the budget ends mid-unit in a window,
    both(window + 1.5, 0.0)        # ... in a later window,
    both(2 * window, 0.0)          # ... and on a window's last unit
    reference = {v.name: np.full(v.length, 0.25)
                 for v in system.problem.specs()}
    both(budget, residual[targets[2]], reference=reference)
    both(budget, 0.0, reference=reference)
    if not schedule.startswith("distributed"):
        # resumed mid-unit, so that its windows start off the first run's
        state = engine.init_state(system)
        engine.run(system, engine.ScheduleConfig(mode="randomk", seed=1),
                   max_equiv_iters=1.3, tol=0.0, state=state)
        both(budget + 1.7, 0.0, state=state)
        both(budget + 1.7, residual[targets[3]], state=state)


def test_randomk_measures_rows_a_window_at_a_time(monkeypatch):
    # K = 21: a window is 24 units, so a U-unit run measures about U / 24
    # times, not once a unit
    system = build_system(chebyshev_encode(gen_chebyshev(10, 20, seed=0)))
    assert system.n_nonlinear == 21
    calls = []
    measure = engine.Trajectory.measure

    def counted(*args):
        calls.append(1)
        return measure(*args)

    monkeypatch.setattr(engine.Trajectory, "measure", staticmethod(counted))
    units = 250
    state, traj = engine.run(system, engine.ScheduleConfig(mode="randomk"),
                             max_equiv_iters=units, tol=0.0)
    assert len(traj) == units + 1
    assert len(calls) <= -(-units // 24) + 2


# ---------------------------------------------------------------------------
# the coordinate kernel, a window of ticks per call

@pytest.mark.parametrize("delay", [0, 2])
@pytest.mark.parametrize("kind", _WINDOW_SYSTEMS)
def test_kernel_window_equals_unit_by_unit_calls(kind, delay):
    # one call for a window of ticks of uneven lengths (one empty, some
    # crossing unit ends, issued from mid-unit) gives bitwise what one call
    # per run of lookups issued in one unit gives, with gamma of that unit
    # (a ramp, so it changes inside the window), and snapshots exactly after
    # the ticks that keep one
    system = _WINDOW_SYSTEMS[kind]()
    K = system.n_nonlinear
    ramp = engine.make_gamma("ramp:0.5:6")
    gamma = [ramp(u + 1) for u in range(8)]
    assert len(set(gamma)) == 7
    ends = [5, 5 + K // 2, 5 + K // 2, 3 * K + 1, 4 * K, 7 * K + 3]
    keep = [True, False, True, True, False]
    coords = np.random.default_rng(11).integers(K, size=ends[-1] - ends[0])
    window = engine.coordinate_kernel(system, delay)
    by_unit = engine.coordinate_kernel(system, delay)
    d2, c2 = system.e.copy(), np.zeros(K)
    snaps = np.full((len(keep), 2, K), np.nan)
    window(d2, c2, coords.tolist(), ends, gamma, keep, snaps)
    want_d2, want_c2 = system.e.copy(), np.zeros(K)
    for w, (a, b) in enumerate(zip(ends, ends[1:])):
        while a < b:
            c = min(b, (a // K + 1) * K)
            by_unit(want_d2, want_c2, coords[a - ends[0]:c - ends[0]].tolist(),
                    (0, c - a), (gamma[a // K],))
            a = c
        want = np.stack([want_d2, want_c2])
        assert snaps[w].tobytes() == (want.tobytes() if keep[w] else
                                      np.full((2, K), np.nan).tobytes()), w
    assert d2.tobytes() == want_d2.tobytes()
    assert c2.tobytes() == want_c2.tobytes()


@pytest.mark.parametrize("delay", [0, 2])
def test_kernel_zero_delta_leaves_negative_zero_alone(delay):
    # a coordinate at d2 = 0 with c2 = -0.0 fires a zero delta under every
    # gamma: neither its c2 entry nor a -0.0 in d2 changes sign, in the live
    # vectors or in the snapshots
    system = _WINDOW_SYSTEMS["cheb"]()
    K = system.n_nonlinear
    d2, c2 = system.e.copy(), np.zeros(K)
    d2[0], d2[1], c2[1] = -0.0, 0.0, -0.0
    before = np.stack([d2, c2]).tobytes()
    kernel = engine.coordinate_kernel(system, delay)
    snaps = np.empty((3, 2, K))
    kernel(d2, c2, [1] * (3 * K), [0, K, 2 * K, 3 * K], [0.5, 0.9, 1.0],
           [True] * 3, snaps)
    assert np.signbit(c2[1]) and np.signbit(d2[0])
    assert np.stack([d2, c2]).tobytes() == before
    assert all(snap.tobytes() == before for snap in snaps)


@pytest.mark.parametrize("schedule", ["randomk", "distributed:3"])
def test_coordinate_schedules_call_the_kernel_once_a_window(monkeypatch,
                                                            schedule):
    # K = 21: a window is 24 units, so a 250-unit trial fires in 11 kernel
    # calls, one a window, not one a unit (or, with a delay, several a unit);
    # a battery of three trials makes 11 calls for each trial
    system = build_system(chebyshev_encode(gen_chebyshev(10, 20, seed=0)))
    assert system.n_nonlinear == 21
    calls = []   # one count per kernel made
    make = engine.coordinate_kernel

    def counted(*args):
        fire, index = make(*args), len(calls)
        calls.append(0)

        def call(*window):
            calls[index] += 1
            fire(*window)

        return call

    monkeypatch.setattr(engine, "coordinate_kernel", counted)
    mode, workers = (schedule.split(":") + ["1"])[:2]
    schedules = [engine.ScheduleConfig(mode, workers=int(workers), seed=seed,
                                       homotopy="bp") for seed in range(3)]
    state, _ = engine.run(system, schedules[0], max_equiv_iters=250, tol=0.0)
    assert state.fired_updates == 250 * 21 and calls == [11]
    calls.clear()
    engine.run_trials([system] * 3, schedules, max_equiv_iters=250, tol=0.0)
    assert calls == [11] * 3


# ---------------------------------------------------------------------------
# stacked trials

def _assert_trials_equal_runs(systems, schedules, budget, tol, references):
    """run_trials gives, trial by trial, bitwise run's state and rows, and
    both give those of the one-step-at-a-time reference."""
    stacked = engine.run_trials(systems, schedules, budget, tol, references)
    assert len(stacked) == len(systems)
    for i, got in enumerate(stacked):
        want = engine.run(systems[i], schedules[i], budget, tol, references[i])
        _assert_same_run(got, want, i)
        _assert_same_run(want, _reference_run(systems[i], schedules[i], budget,
                                              tol, references[i]), i)
    return stacked


def _assert_trials_equal_distributed_runs(systems, workers, budget, tol,
                                          references, homotopy):
    """run_trials of `workers` workers gives, trial by trial, bitwise
    run_distributed's state and rows, trial i drawing from seed i."""
    schedules = [engine.ScheduleConfig("distributed", workers=workers, seed=i,
                                       homotopy=homotopy)
                 for i in range(len(systems))]
    stacked = engine.run_trials(systems, schedules, budget, tol, references)
    for i, got in enumerate(stacked):
        d2, c2, traj, reports, converged = run_distributed(
            systems[i], workers, budget, tol, i, homotopy, references[i])
        want = engine.SolverState(c2=c2, d2=d2, converged=converged,
                                  fired_updates=sum(r.updates for r in reports))
        _assert_same_run(got, (want, traj), i)
    return stacked


def _battery(kind, trials):
    """Systems of one shape with their references: the basis-pursuit planted
    solution, and the oracle's ball for all Chebyshev trials but the last."""
    from asynclp import cli
    if kind == "cheb":
        insts = [gen_chebyshev(3, 6, seed=s) for s in range(trials)]
        refs = [cli._reference_for(i) for i in insts[:-1]] + [None]
        return [build_system(chebyshev_encode(i)) for i in insts], refs
    insts = [gen_basis_pursuit(16, 8, 2, seed=s) for s in range(trials)]
    return ([build_system(basis_pursuit_encode(i)) for i in insts],
            [{"x": i.x_true} for i in insts])


def _schedules(mode, trials, homotopy):
    ps = [0.2, 0.5, 0.9, 1.0]   # mixed firing probabilities, p=1 among them
    return [engine.ScheduleConfig(mode=mode, p=ps[i % 4] if mode == "bernoulli"
                                  else 1.0, seed=i, homotopy=homotopy)
            for i in range(trials)]


# budgets of 300 units run past several draw windows
@pytest.mark.parametrize("kind", ["cheb", "bp"])
@pytest.mark.parametrize("mode,homotopy", [("sync", "ramp:0.5:250"),
                                           ("bernoulli", "bp"),
                                           ("sweep", "bp"), ("randomk", "bp"),
                                           ("distributed:1", "bp"),
                                           ("distributed:3", "bp")])
def test_run_trials_equals_per_trial_runs(kind, mode, homotopy):
    systems, refs = _battery(kind, 5)
    # the fixed orders stall (README), so their trials stop at a looser tol
    # or not at all
    tol = 2e-2 if mode in ("sync", "sweep") else 1e-8
    if mode.startswith("distributed"):
        stacked = _assert_trials_equal_distributed_runs(
            systems, int(mode[-1]), 300, tol, refs, homotopy)
    else:
        stacked = _assert_trials_equal_runs(
            systems, _schedules(mode, 5, homotopy), 300, tol, refs)
    units = sorted(len(traj) for _, traj in stacked)
    assert units[0] > 1 and units[0] < units[-1]   # trials stop at different units
    assert any(state.converged for state, _ in stacked)


@pytest.mark.parametrize("kind", ["cheb", "bp"])
@pytest.mark.parametrize("mode", ["sync", "sweep", "bernoulli", "randomk"])
def test_run_trials_fractional_budget_ends_mid_unit(kind, mode):
    # no row when the budget ends inside a unit; the state is the one after
    # the last step
    systems, refs = _battery(kind, 4)
    stacked = _assert_trials_equal_runs(systems, _schedules(mode, 4, "bp"),
                                        90.3, 0.0, refs)
    K = systems[0].n_nonlinear
    for state, traj in stacked:
        assert not state.converged
        assert state.fired_updates >= 90.3 * K
        assert traj.equiv_iter[-1] <= state.equivalent_iterations
    if mode == "bernoulli":
        assert any(len(traj) == 91 for _, traj in stacked)


@pytest.mark.parametrize("budget", [0, 0.5, 3])
def test_run_trials_short_budgets_and_tol_at_row_0(budget):
    systems, refs = _battery("bp", 3)
    for mode, tol in itertools.product(("sync", "sweep", "bernoulli", "randomk"),
                                       (0.0, 1e9)):
        stacked = _assert_trials_equal_runs(
            systems, _schedules(mode, 3, "bp"), budget, tol, refs)
        if tol:   # tol met at row 0: the trial never ticks
            assert all(state.fired_updates == 0 and len(traj) == 1
                       for state, traj in stacked)


def test_run_trials_single_trial():
    systems, refs = _battery("cheb", 2)
    for mode in ("sync", "sweep", "bernoulli", "randomk"):
        _assert_trials_equal_runs(systems[:1], _schedules(mode, 1, "bp"),
                                  150, 1e-8, refs[:1])


def test_run_trials_shared_systems_in_any_order():
    # trials that share a system and its reference share its products; they
    # need not be adjacent, and one system under two reference objects is
    # measured as two
    systems, refs = _battery("bp", 2)
    other_ref = {"x": refs[0]["x"] + 1.0}
    order = [0, 1, 0, 0, 1, 0]
    stacked_refs = [refs[i] for i in order]
    stacked_refs[3] = other_ref
    for mode in ("sync", "sweep", "bernoulli", "randomk"):
        _assert_trials_equal_runs([systems[i] for i in order],
                                  _schedules(mode, len(order), "bp"), 120,
                                  1e-8, stacked_refs)


def test_run_trials_refuses_mixed_batteries():
    cheb, _ = _battery("cheb", 2)
    bp, _ = _battery("bp", 1)
    sync, bern = _schedules("sync", 1, "bp"), _schedules("bernoulli", 1, "bp")
    for systems, schedules in ((cheb, sync + bern), (cheb[:1] + bp, sync * 2),
                               (cheb, sync), ([], [])):
        with pytest.raises(ValueError):
            engine.run_trials(systems, schedules, 10, 1e-8)
    three, refs = _battery("cheb", 3)
    for references in (refs[:1], refs + refs[:1]):   # fewer, or more
        with pytest.raises(ValueError):
            engine.run_trials(three, sync * 3, 10, 1e-8, references)


def test_ramp_string_battery_tabulates_each_unit_once(monkeypatch):
    # schedules made apart from one ramp spec share one gamma schedule, and
    # so one row of the gamma table, which grows by the units it lacks
    calls, made = Counter(), []
    ramp = engine.geometric_ramp

    def counting_ramp(alpha0, steps):
        gamma = ramp(alpha0, steps)
        made.append(gamma)

        def counted(k):
            calls[k] += 1
            return gamma(k)
        return counted

    monkeypatch.setattr(engine, "geometric_ramp", counting_ramp)
    monkeypatch.setattr(engine, "_RAMPS", {})
    systems, refs = _battery("cheb", 3)
    schedules = [engine.ScheduleConfig("bernoulli", p=0.5, seed=i,
                                       homotopy="ramp:0.5:40") for i in range(6)]
    engine.run_trials(systems * 2, schedules, 120, 0.0, refs * 2)
    assert len(made) == 1
    assert calls and set(calls.values()) == {1}
    assert sorted(calls) == list(range(1, max(calls) + 1))
    assert max(calls) >= 120


@pytest.mark.parametrize("mode", ["sync", "bernoulli"])
def test_every_sync_and_bernoulli_tick_is_sync_step_or_async_tick(
        monkeypatch, mode):
    # with the two tick functions stubbed out, a run of one trial and a
    # stacked battery never move from the cold start: no other code ticks
    ticks = Counter()

    def stub(name):
        def tick(state, system, *args):
            ticks[name, state.c2.ndim] += 1
            return 0
        return tick

    monkeypatch.setattr(engine, "sync_step", stub("sync"))
    monkeypatch.setattr(engine, "async_tick", stub("bernoulli"))
    systems, refs = _battery("cheb", 3)
    schedules = _schedules(mode, 3, "bp")
    state, _ = engine.run(systems[0], schedules[0], 20, 0.0)
    stacked = engine.run_trials(systems, schedules, 20, 0.0, refs)
    ends = [got for got, _ in stacked] + [state]
    for system, got in zip(systems + systems[:1], ends):
        assert np.array_equal(got.d2, system.e) and not got.c2.any()
    assert ticks[mode, 1] > 0 and ticks[mode, 2] > 0   # one state, a stack


def test_stacked_ticks_equal_one_state_ticks_row_by_row():
    systems, _ = _battery("cheb", 3)
    K = systems[0].n_nonlinear
    rng = np.random.default_rng(5)
    d2, c2 = rng.normal(size=(2, 3, K))
    gamma = np.array([[0.3], [0.9], [1.0]])
    stacked = dataclasses.replace(systems[0], **{
        name: np.stack([getattr(s, name) for s in systems])
        for name in ("Gprime", "e")})
    fires = rng.random((3, K)) < 0.5
    for tick, args in ((engine.sync_step, ()), (engine.async_tick, (fires,))):
        stack = engine.SolverState(c2=c2.copy(), d2=d2.copy())
        tick(stack, stacked, *args, gamma)
        for t, system in enumerate(systems):
            one = engine.SolverState(c2=c2[t].copy(), d2=d2[t].copy())
            tick(one, system, *(a[t] for a in args), float(gamma[t, 0]))
            assert _same(stack.c2[t], one.c2) and _same(stack.d2[t], one.d2)
    stack = engine.SolverState(c2=c2.copy(), d2=d2.copy())
    assert engine.async_tick(stack, stacked, fires, gamma) == fires.sum()


def test_async_tick_counts_each_trials_fires_on_a_stack():
    # per-trial fires of 3, 2 and 4 add 3, 2 and 4, and the tick returns 9
    systems, _ = _battery("cheb", 3)
    K = systems[0].n_nonlinear
    stacked = dataclasses.replace(systems[0], **{
        name: np.stack([getattr(s, name) for s in systems])
        for name in ("Gprime", "e")})
    fires = np.arange(K) < np.array([[3], [2], [4]])
    stack = engine.init_state(systems)
    assert engine.async_tick(stack, stacked, fires, 0.5) == 9
    assert stack.fired_updates.tolist() == [3, 2, 4]
    assert engine.async_tick(stack, stacked, fires, 0.5) == 9
    assert stack.fired_updates.tolist() == [6, 4, 8]
    # a stack that keeps one number counts its trials together
    stack = engine.SolverState(c2=np.zeros((3, K)), d2=np.ones((3, K)))
    engine.async_tick(stack, stacked, fires, 0.5)
    assert stack.fired_updates == 9


def test_ticks_write_into_the_callers_arrays():
    system = build_system(random_async_problem(np.random.default_rng(6)))
    for tick, args in ((engine.sync_step, ()),
                       (engine.async_tick, (np.ones(system.n_nonlinear, bool),))):
        state = engine.init_state(system)
        c2, d2 = state.c2, state.d2
        before = d2.copy()
        tick(state, system, *args, 0.5)
        assert state.c2 is c2 and state.d2 is d2
        assert not np.array_equal(d2, before)
        assert np.array_equal(c2, system.m(before, 0.5))
    # a run writes its end state into the state it resumes
    state = engine.init_state(system)
    c2, d2 = state.c2, state.d2
    schedule = engine.ScheduleConfig("bernoulli", p=0.5, homotopy="bp")
    engine.run(system, schedule, 5, 0.0, state=state)
    assert state.c2 is c2 and state.d2 is d2 and c2.any()
    assert state.fired_updates >= 5 * system.n_nonlinear
    assert type(state.fired_updates) is int and state.converged is False


def test_stacked_state_bookkeeping():
    # a stack of T trials is (T, K) arrays: n_coords is K, and fired_updates
    # and equivalent_iterations are per trial
    systems, _ = _battery("cheb", 3)
    K = systems[0].n_nonlinear
    stack = engine.init_state(systems)
    assert stack.c2.shape == stack.d2.shape == (3, K) and stack.n_coords == K
    assert np.array_equal(stack.d2, [s.e for s in systems])
    assert not stack.c2.any() and np.array_equal(stack.fired_updates, [0, 0, 0])
    stack.fired_updates += [0, K, 3 * K]
    assert np.array_equal(stack.equivalent_iterations, [0.0, 1.0, 3.0])
    stack.d2[0] += 1.0
    assert not np.array_equal(systems[0].e, stack.d2[0])   # private copies
    one = engine.init_state(systems[0])
    assert one.n_coords == K and one.fired_updates == 0
    one.fired_updates += 2 * K
    assert one.equivalent_iterations == 2.0
    # iterate resumes each trial where it stands, and leaves fired_updates
    # and converged per trial
    trajectories = engine.iterate(systems, stack, engine._engine_step(
        systems, _schedules("sync", 3, "bp"), stack), 5, 0.0)
    assert np.array_equal(stack.fired_updates, [5 * K] * 3)
    assert np.array_equal(stack.equivalent_iterations, [5.0] * 3)
    assert stack.converged.tolist() == [False] * 3
    assert [t.equiv_iter for t in trajectories] == [
        [0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0, 5.0],
        [3.0, 4.0, 5.0]]


# ---------------------------------------------------------------------------
# Bernoulli ticks that add only the fired columns of G'

def _large_bp(n, seed=0):
    """Basis pursuit n x (n * 200 // 512), as the benchmark's 512 x 200."""
    inst = gen_basis_pursuit(n, n * 200 // 512, max(2, n // 32), seed=seed)
    return inst, build_system(basis_pursuit_encode(inst))


@pytest.mark.parametrize("mode", ["sync", "bernoulli"])
def test_fired_rows_battery_equals_per_trial_runs(monkeypatch, mode):
    # with the size threshold lowered to K = 16, each trial ticks on its own
    # row and system, never on a stack, and Bernoulli ticks where at most K/4
    # fire add the fired columns; run_trials is still bitwise run, and run
    # bitwise the one-step-at-a-time reference, with p = 1 among the trials
    monkeypatch.setattr(engine, "_FIRED_ROWS_K", 16)
    systems, refs = _battery("bp", 5)
    assert systems[0].n_nonlinear == 16
    ticks = Counter()

    def spy(name, tick):
        def counted(state, *args):
            ticks[name, state.c2.ndim] += 1
            return tick(state, *args)
        return counted

    for name in ("sync_step", "async_tick"):
        monkeypatch.setattr(engine, name, spy(name, getattr(engine, name)))
    schedules = _schedules(mode, 5, "bp")
    assert mode == "sync" or 1.0 in [s.p for s in schedules]
    _assert_trials_equal_runs(systems, schedules, 300, 1e-8, refs)
    step = "sync_step" if mode == "sync" else "async_tick"
    assert ticks[step, 1] > 0 and ticks[step, 2] == 0
    # only a fired-rows tick makes G'^T: never at p = 0.9 or 1, nor in sync
    made = [p <= 0.5 and mode == "bernoulli" for p in (0.2, 0.5, 0.9, 1.0, 0.2)]
    assert ["GprimeT" in vars(s) for s in systems] == made


def test_bernoulli_p1_is_sync_above_the_fired_rows_size():
    _, system = _large_bp(engine._FIRED_ROWS_K)
    assert system.n_nonlinear >= engine._FIRED_ROWS_K
    sync = engine.ScheduleConfig(mode="sync", homotopy="bp")
    bern = engine.ScheduleConfig(mode="bernoulli", p=1.0, seed=7, homotopy="bp")
    s1, t1 = engine.run(system, sync, max_equiv_iters=40, tol=0.0)
    s2, t2 = engine.run(system, bern, max_equiv_iters=40, tol=0.0)
    assert _same(s1.d2, s2.d2) and _same(s1.c2, s2.c2)
    assert t1.residual == t2.residual
    assert "GprimeT" not in vars(system)   # every tick rebuilt d2


def test_a_fired_rows_tick_where_none_fires_writes_nothing():
    _, system = _large_bp(engine._FIRED_ROWS_K)
    K = system.n_nonlinear
    state = engine.SolverState(c2=np.zeros(K), d2=system.e.copy())
    state.c2[::2] = state.d2[1::2] = -0.0
    before = state.c2.tobytes(), state.d2.tobytes()
    assert engine.async_tick(state, system, np.zeros(K, dtype=bool), 0.5) == 0
    assert (state.c2.tobytes(), state.d2.tobytes()) == before
    assert state.fired_updates == 0


def test_fired_rows_ticks_stay_on_the_rebuilt_state():
    # each tick that adds fired columns leaves d2 within 1e-12 of G' c2 + e,
    # and c2 is m(d2) of the state before it on the fired coordinates
    _, system = _large_bp(512)
    K = system.n_nonlinear
    state, rng, taken = engine.init_state(system), np.random.default_rng(0), 0
    for k in range(1, 501):
        fires = rng.random(K) < 0.2
        gamma = engine.power_ramp(k // 5 + 1)
        want_c2 = np.where(fires, system.m(state.d2, gamma), state.c2)
        assert engine.async_tick(state, system, fires, gamma) == fires.sum()
        assert _same(state.c2, want_c2)
        assert np.abs(state.d2 - (system.Gprime @ state.c2 + system.e)).max() <= 1e-12
        taken += fires.sum() * engine._FIRED_ROWS_SHARE <= K
    assert taken >= 490 and state.fired_updates > 500 * K // 6


def test_fired_rows_tick_on_a_two_sided_system_is_the_rebuild(monkeypatch):
    # with nonlinear coordinates on both sides G' is far from symmetric, so
    # the fired columns must be columns of G' (rows of G'^T), not its rows:
    # from a rebuilt state, a tick that adds them gives the rebuild tick
    system = build_system(two_sided_problem(np.random.default_rng(5)))
    K = system.n_nonlinear
    assert np.abs(system.Gprime - system.Gprime.T).max() > 0.1
    rng = np.random.default_rng(1)
    c2 = system.m(rng.normal(scale=2.0, size=K))
    d2 = system.Gprime @ c2 + system.e
    fires = np.zeros(K, dtype=bool)
    fires[[1, 6, 12]] = True   # | . | and l1 maps, inputs and outputs
    assert "GprimeT" not in vars(system)
    ticked = []
    for threshold in (4, engine._FIRED_ROWS_K):   # fired columns, rebuild
        monkeypatch.setattr(engine, "_FIRED_ROWS_K", threshold)
        state = engine.SolverState(c2=c2.copy(), d2=d2.copy())
        assert engine.async_tick(state, system, fires, 0.7) == 3
        ticked.append(state)
    assert ticked[0].c2.tobytes() == ticked[1].c2.tobytes()
    assert np.abs(ticked[0].d2 - ticked[1].d2).max() <= 1e-12
    assert "GprimeT" in vars(system)   # made by the fired-columns tick


def test_fired_rows_keep_basis_pursuit_512x200_iterations(monkeypatch):
    # the benchmark's instances unrotated, p = 0.2: the same equivalent
    # iterations to tol as with every tick rebuilt, and ||x||_1 within 1e-12
    for seed in range(4):
        inst, system = _large_bp(512, seed)
        schedule = engine.ScheduleConfig("bernoulli", p=0.2, seed=seed,
                                         homotopy="bp")
        fired_rows, _ = engine.run(system, schedule, 2000, 1e-8)
        monkeypatch.setattr(engine, "_FIRED_ROWS_K", math.inf)
        rebuilt, _ = engine.run(system, schedule, 2000, 1e-8)
        monkeypatch.undo()
        assert fired_rows.converged and rebuilt.converged
        assert fired_rows.equivalent_iterations == rebuilt.equivalent_iterations
        l1 = [np.abs(basis_pursuit_recover(system, s.d2, s.c2)).sum()
              for s in (fired_rows, rebuilt)]
        assert abs(l1[0] - l1[1]) <= 1e-12, seed


def test_trial_bytes_from_the_fired_rows_size(monkeypatch):
    # below the size threshold each schedule's trial holds a stacked copy
    # of G'; from it up the trial holds one G'^T for all its schedules
    _, system = _large_bp(64)
    below = [engine.trial_bytes(system, n, 60) for n in (1, 3)]
    monkeypatch.setattr(engine, "_FIRED_ROWS_K", 64)
    above = [engine.trial_bytes(system, n, 60) for n in (1, 3)]
    copy = system.Gprime.nbytes
    assert above[0] == below[0]
    assert above[1] == below[1] - 2 * copy


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
