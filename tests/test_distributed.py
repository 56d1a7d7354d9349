import math
from collections import deque

import numpy as np
import pytest

from asynclp import distributed as ds
from asynclp import engine
from asynclp.problems import (basis_pursuit_encode, chebyshev_encode,
                              gen_basis_pursuit, gen_chebyshev)
from asynclp.stationarity import build_system

from conftest import random_async_problem, two_sided_problem


def _small_system(seed=0):
    return build_system(chebyshev_encode(gen_chebyshev(4, 8, seed=seed)))


# ---------------------------------------------------------------------------
# array layout and single updates

def test_init_array_layout():
    system = _small_system()
    array = ds.init_array(system)
    K = system.n_nonlinear
    assert array.n_coords == K
    assert np.array_equal(array.snapshot_c2(), np.zeros(K))
    assert np.array_equal(array.snapshot_d2(), system.e)
    # workers read G' and e in place, so the system holds them read-only
    for k in range(K):
        with pytest.raises(ValueError):
            system.Gprime[:, k][0] = 99.0
    with pytest.raises(ValueError):
        system.e[0] = 99.0


def test_worker_update_matches_incremental_step():
    system = _small_system(seed=1)
    array = ds.init_array(system)
    state = engine.init_state(system)
    rng = np.random.default_rng(2)
    log = []
    for _ in range(50):
        k = int(rng.integers(system.n_nonlinear))
        delta = ds.worker_update(array, system, k, array.d2[k], array.c2[k],
                                 gamma=0.8)
        log.append((k, delta))
        engine.incremental_step(state, system, k, gamma=0.8)
    assert np.array_equal(array.snapshot_d2(), state.d2)
    assert np.array_equal(array.snapshot_c2(), state.c2)
    assert len(log) == 50 and all(entry[0] < system.n_nonlinear for entry in log)


def test_worker_update_zero_delta_writes_nothing():
    system = _small_system(seed=3)
    array = ds.init_array(system)
    k = 0
    first = ds.worker_update(array, system, k, array.d2[k], array.c2[k])
    assert first != 0.0
    # the coordinate's own d2 entry moved, so a second fire usually has a
    # small delta; force an exact zero by re-pinning c2 to the current match
    array.c2[k] = system.m_scalar(k, array.d2[k])
    d_after = array.snapshot_d2()
    c_after = array.snapshot_c2()
    second = ds.worker_update(array, system, k, array.d2[k], array.c2[k])
    assert second == 0.0
    assert np.array_equal(array.snapshot_d2(), d_after)
    assert np.array_equal(array.snapshot_c2(), c_after)


@pytest.mark.parametrize("K", [1, 13, 21, 512])
def test_block_draws_equal_scalar_draws(K):
    # randomk and the workers draw a window's coordinates in one call per
    # stream, and the worker reports redraw each stream's head in one call;
    # both rely on a block of n being the same stream as n scalar draws, and
    # a numpy upgrade that breaks this shows here first
    sizes = [5, 1, 13, 0, 7, 2, 21]
    block, scalar = np.random.default_rng(17), np.random.default_rng(17)
    drawn = np.concatenate([block.integers(K, size=n) for n in sizes])
    assert np.array_equal(drawn, [scalar.integers(K) for _ in range(sum(sizes))])
    assert block.integers(2**40) == scalar.integers(2**40)


def test_workers_draw_many_windows_at_a_time(monkeypatch):
    # each worker draws its lookups of a window of many units in one call
    # (the eager-model tests pin them against one scalar draw per lookup)
    calls = []
    default_rng = np.random.default_rng

    class Counted:
        def __init__(self, *args):
            self.rng = default_rng(*args)

        def integers(self, *args, **kwargs):
            calls.append(1)
            return self.rng.integers(*args, **kwargs)

    system = _small_system(seed=2)

    def run():
        return ds.run_distributed(system, workers=3, max_equiv_iters=300,
                                  tol=0.0, seed=4, homotopy="bp")

    want = run()
    monkeypatch.setattr(np.random, "default_rng", Counted)
    got = run()
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert sum(r.updates for r in got[3]) == 300 * system.n_nonlinear
    assert 0 < len(calls) < 300   # windows of many units


def test_reports_count_every_applied_lookup():
    # the reports redraw the head of each worker's stream: every applied
    # lookup is counted, by the worker that issued it, and none in flight
    system = _small_system(seed=2)
    K = system.n_nonlinear
    *_, reports, _ = ds.run_distributed(system, workers=3,
                                        max_equiv_iters=20000, tol=0.0, seed=1)
    assert sum(r.updates for r in reports) == 20000 * K
    assert all(sum(r.histogram) == r.updates for r in reports)
    for units in (150, 150.4):
        *_, reports, _ = ds.run_distributed(system, workers=3,
                                            max_equiv_iters=units, tol=0.0,
                                            seed=1, homotopy="bp")
        _, _, hist, _, _ = _eager_delayed_run(system, 3, units, 1, "bp")
        assert [r.histogram for r in reports] == hist


# ---------------------------------------------------------------------------
# runs

def test_single_worker_is_engine_randomk_bit_for_bit():
    for seed in (0, 1, 2):
        system = _small_system(seed=10 + seed)
        d2, c2, traj, reports, converged = ds.run_distributed(
            system, workers=1, max_equiv_iters=200, tol=1e-9, seed=seed,
            homotopy="bp")
        schedule = engine.ScheduleConfig(mode="randomk", seed=seed, homotopy="bp")
        state, etraj = engine.run(system, schedule, max_equiv_iters=200,
                                  tol=1e-9)
        assert np.array_equal(d2, state.d2)
        assert np.array_equal(c2, state.c2)
        assert converged == state.converged
        assert traj.equiv_iter == etraj.equiv_iter
        assert traj.objective == etraj.objective
        assert traj.residual == etraj.residual
        assert len(reports) == 1
        assert reports[0].updates == state.fired_updates


@pytest.mark.parametrize("budget", [2.5, 2.7, 3.5])
def test_single_worker_is_engine_randomk_on_fractional_budgets(budget):
    # K = 9: the engine stops at ceil(budget * K) updates (23, 25, 32)
    system = _small_system(seed=0)
    d2, c2, traj, reports, _ = ds.run_distributed(
        system, workers=1, max_equiv_iters=budget, tol=0.0, seed=1)
    schedule = engine.ScheduleConfig(mode="randomk", seed=1)
    state, etraj = engine.run(system, schedule, max_equiv_iters=budget,
                              tol=0.0)
    assert state.fired_updates == math.ceil(budget * system.n_nonlinear)
    assert reports[0].updates == state.fired_updates
    assert np.array_equal(d2, state.d2)
    assert np.array_equal(c2, state.c2)
    assert traj.residual == etraj.residual


def test_multi_worker_run_converges_and_reports():
    system = _small_system(seed=4)
    d2, c2, traj, reports, converged = ds.run_distributed(
        system, workers=4, max_equiv_iters=2000, tol=1e-8, seed=0,
        homotopy="bp")
    assert converged
    assert system.residual(d2) <= 1e-6
    assert len(reports) == 4
    K = system.n_nonlinear
    for rep in reports:
        assert sum(rep.histogram) == rep.updates
        assert len(rep.histogram) == K
        d = rep.to_dict()
        assert d["worker"] == rep.worker
    assert sum(rep.updates for rep in reports) == round(traj.equiv_iter[-1] * K)


def test_two_worker_run_loses_no_increment():
    # every increment keeps d2 = G' c2 + e; a lost one would break it
    system = _small_system(seed=8)
    d2, c2, _, reports, _ = ds.run_distributed(
        system, workers=2, max_equiv_iters=500, tol=0.0, seed=0,
        homotopy="bp")
    assert sum(rep.updates for rep in reports) >= 500 * system.n_nonlinear
    assert np.max(np.abs(d2 - (system.Gprime @ c2 + system.e))) <= 1e-12


def test_two_worker_reads_are_stale_by_one_update():
    # both of the first two lookups read the cold start (d2 = e, c2 = 0),
    # so each applied delta is eta * m_k(e_k) with eta = 1/(1 + 2/sqrt(K))
    system = _small_system(seed=9)
    K = system.n_nonlinear
    seed = 3
    d2, c2, _, reports, _ = ds.run_distributed(
        system, workers=2, max_equiv_iters=2 / K, tol=0.0, seed=seed)
    eta = 1.0 / (1.0 + 2.0 / math.sqrt(K))
    d_hand, c_hand = system.e.copy(), np.zeros(K)
    for i in range(2):
        k = int(np.random.default_rng([seed, i]).integers(K))
        delta = eta * system.m_scalar(k, system.e[k])
        d_hand += system.Gprime[:, k] * delta
        c_hand[k] += delta
    assert [rep.updates for rep in reports] == [1, 1]
    assert np.array_equal(d2, d_hand)
    assert np.array_equal(c2, c_hand)


def test_multi_worker_run_is_the_fifo_of_scalar_draws():
    # the run draws each window's coordinates in per-worker blocks and takes
    # gamma once per unit of lookups; it must equal the delayed model with
    # one scalar draw and one gamma per lookup.  K = 9 is not a multiple of
    # either worker count, so windows start mid-rotation of the workers.  At the
    # fractional budget the run stops after ceil(20.5 K) = 185 applied
    # updates, and the lookups still in flight are dropped.
    system = _small_system(seed=12)
    K = system.n_nonlinear
    gamma = engine.make_gamma("bp")
    for units, workers in [(20, 2), (20, 4), (20.5, 2), (20.5, 4)]:
        budget = math.ceil(units * K)
        d2, c2, _, reports, _ = ds.run_distributed(
            system, workers=workers, max_equiv_iters=units, tol=0.0, seed=6,
            homotopy="bp")
        eta = 1.0 / (1.0 + 2.0 * (workers - 1) / math.sqrt(K))
        array = ds.init_array(system)
        rngs = [np.random.default_rng([6, i]) for i in range(workers)]
        hist = np.zeros((workers, K), dtype=int)
        in_flight = deque()
        for j in range(budget + workers - 1):
            if j < budget:
                k = int(rngs[j % workers].integers(K))
                in_flight.append((j % workers, k, array.d2[k], array.c2[k],
                                  gamma(j // K + 1)))
            if j >= workers - 1:
                i, k, d_hat, c_hat, g = in_flight.popleft()
                ds.worker_update(array, system, k, d_hat, c_hat, g, eta)
                hist[i, k] += 1
        assert K % workers != 0
        assert np.array_equal(d2, array.d2)
        assert np.array_equal(c2, array.c2)
        assert [rep.histogram for rep in reports] == hist.tolist()


def test_multi_worker_run_is_deterministic():
    system = _small_system(seed=11)
    runs = [ds.run_distributed(system, workers=4, max_equiv_iters=300,
                               tol=1e-9, seed=5, homotopy="bp")
            for _ in range(2)]
    (d2a, c2a, ta, ra, ca), (d2b, c2b, tb, rb, cb) = runs
    assert np.array_equal(d2a, d2b)
    assert np.array_equal(c2a, c2b)
    assert ta.equiv_iter == tb.equiv_iter
    assert ta.objective == tb.objective
    assert ta.residual == tb.residual
    assert np.array_equal(ta.dist_to_ref, tb.dist_to_ref, equal_nan=True)
    assert [r.to_dict() for r in ra] == [r.to_dict() for r in rb]
    assert ca == cb


def test_run_distributed_budget_zero_returns_initial_state():
    system = _small_system(seed=5)
    d2, c2, traj, reports, converged = ds.run_distributed(
        system, workers=2, max_equiv_iters=0, tol=1e-12)
    assert np.array_equal(d2, system.e)
    assert np.array_equal(c2, np.zeros(system.n_nonlinear))
    assert not converged
    assert len(traj) == 1
    assert reports == []


def test_run_distributed_validates_workers():
    system = _small_system(seed=6)
    with pytest.raises(ValueError):
        ds.run_distributed(system, workers=0)


def test_multi_worker_reference_column():
    system = _small_system(seed=7)
    schedule = engine.ScheduleConfig(mode="bernoulli", p=0.5, seed=0,
                                     homotopy="bp")
    settled, _ = engine.run(system, schedule, max_equiv_iters=4000, tol=1e-11)
    ref = system.recover_variables(settled.d2, settled.c2)
    d2, c2, traj, _, converged = ds.run_distributed(
        system, workers=3, max_equiv_iters=2000, tol=1e-9, seed=1,
        homotopy="bp", reference={"x_c": ref["x_c"], "r1": ref["r1"]})
    assert converged
    assert np.isfinite(traj.dist_to_ref).all()
    assert traj.dist_to_ref[-1] <= 1e-6


def _eager_delayed_run(system, workers, units, seed, homotopy):
    """The delayed model updated one eager column at a time: lookup j by
    worker j % W reads (d2[k], c2[k]) into a queue when it is issued, with
    gamma of its window; once W lookups wait, the oldest is applied.
    Returns (d2, c2, per-worker histograms, number of zero deltas, residual
    rows at the start and after each unit of K applied updates)."""
    K = system.n_nonlinear
    gamma = engine.make_gamma(homotopy)
    eta = 1.0 / (1.0 + 2.0 * (workers - 1) / math.sqrt(K))
    budget = math.ceil(units * K - 1e-9)
    rngs = [np.random.default_rng(seed if workers == 1 else [seed, i])
            for i in range(workers)]
    d2, c2 = system.e.copy(), np.zeros(K)
    hist = np.zeros((workers, K), dtype=int)
    reads, zeros, rows = deque(), 0, [system.residual(d2)]
    for j in range(budget + workers - 1):
        k = int(rngs[j % workers].integers(K))
        reads.append((j % workers, k, d2[k], c2[k], gamma(j // K + 1)))
        if len(reads) == workers:
            i, k, d_hat, c_hat, g = reads.popleft()
            delta = eta * (system.m_scalar(k, d_hat, g) - c_hat)
            if delta == 0.0:
                zeros += 1
            d2 += system.Gprime[:, k] * delta
            c2[k] += delta
            hist[i, k] += 1
            if hist.sum() % K == 0:
                rows.append(system.residual(d2))
    return d2, c2, hist.tolist(), zeros, rows


@pytest.mark.parametrize("units", [120, 120.5, 121.3])
def test_kernel_runs_equal_the_eager_delayed_model(units):
    # basis pursuit 64x32 (K = 64, every coordinate l1): randomk and one
    # worker are the model with W = 1, three workers with W = 3; the runs end
    # near the fixed point, where some coordinates fire with a zero delta
    system = build_system(basis_pursuit_encode(gen_basis_pursuit(64, 32, 4, seed=0)))
    assert system.n_nonlinear == 64
    state, traj = engine.run(system, engine.ScheduleConfig(
        "randomk", seed=5, homotopy="bp"), max_equiv_iters=units, tol=0.0)
    d2, c2, hist, zeros, rows = _eager_delayed_run(system, 1, units, 5, "bp")
    assert zeros > 0
    assert state.fired_updates == math.ceil(units * 64 - 1e-9)
    assert np.array_equal(state.d2, d2) and np.array_equal(state.c2, c2)
    assert traj.residual == rows
    for workers in (1, 3):
        d2, c2, hist, zeros, rows = _eager_delayed_run(system, workers, units,
                                                       5, "bp")
        run = ds.run_distributed(system, workers=workers, max_equiv_iters=units,
                                 tol=0.0, seed=5, homotopy="bp")
        assert zeros > 0
        assert np.array_equal(run[0], d2) and np.array_equal(run[1], c2)
        assert run[2].residual == rows
        assert [rep.histogram for rep in run[3]] == hist


def test_kernel_runs_on_two_sided_mixed_maps_equal_the_eager_model():
    # | . | and l1 maps on both sides (each encoder has one kind on one side):
    # the kernel's float map of each coordinate, with W = 1 and W = 3, is the
    # eager model's array map bit for bit, over all three pieces of m1
    system = build_system(two_sided_problem(np.random.default_rng(3)))
    for l1 in (False, True):
        for sign in (1.0, -1.0):
            assert ((system.nl_is_l1 == l1) & (system.nl_sign == sign)).any()
    l1_reads = []
    m_scalar = system.m_scalar

    def recorded(k, d, gamma=1.0):
        if system.nl_is_l1[k]:
            l1_reads.append(d)
        return m_scalar(k, d, gamma)

    for workers in (1, 3):
        system.m_scalar = recorded
        d2, c2, hist, zeros, rows = _eager_delayed_run(system, workers, 60.5,
                                                       7, "bp")
        del system.m_scalar
        run = ds.run_distributed(system, workers=workers, max_equiv_iters=60.5,
                                 tol=0.0, seed=7, homotopy="bp")
        assert run[0].tobytes() == d2.tobytes()
        assert run[1].tobytes() == c2.tobytes()
        assert run[2].residual == rows
        assert [rep.histogram for rep in run[3]] == hist
    l1_reads = np.array(l1_reads)
    assert (l1_reads < -1.0).any() and (abs(l1_reads) <= 1.0).any() \
        and (l1_reads > 1.0).any()
