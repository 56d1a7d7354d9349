import math
from collections import deque

import numpy as np
import pytest

from asynclp import distributed as ds
from asynclp import engine
from asynclp.problems import chebyshev_encode, gen_chebyshev
from asynclp.stationarity import build_system

from conftest import random_async_problem


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
    for k, col in enumerate(array.g):
        assert np.array_equal(col, system.Gprime[:, k])
        with pytest.raises(ValueError):
            col[0] = 99.0  # columns are read-only
    with pytest.raises(ValueError):
        array.e[0] = 99.0


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
    # run_distributed and randomk draw coordinates in blocks and rely on a
    # block of n being the same stream as n scalar draws; a numpy upgrade
    # that breaks this shows here first
    sizes = [5, 1, 13, 0, 7, 2, 21]
    block, scalar = np.random.default_rng(17), np.random.default_rng(17)
    drawn = np.concatenate([block.integers(K, size=n) for n in sizes])
    assert np.array_equal(drawn, [scalar.integers(K) for _ in range(sum(sizes))])
    assert block.integers(2**40) == scalar.integers(2**40)


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
    # gamma once per window; it must equal the delayed model with one scalar
    # draw and one gamma per lookup.  K = 9 is not a multiple of either
    # worker count, so windows start mid-rotation of the workers.
    system = _small_system(seed=12)
    K = system.n_nonlinear
    gamma = engine.make_gamma("bp")
    budget = 20 * K
    for workers in (2, 4):
        d2, c2, _, reports, _ = ds.run_distributed(
            system, workers=workers, max_equiv_iters=20, tol=0.0, seed=6,
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
