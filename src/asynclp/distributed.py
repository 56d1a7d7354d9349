"""Simulated distributed execution over a shared associative array.

The store is the engine's own state: the vectors c2 and d2, keyed by
coordinate.  Workers read column k of G' and the offset e in place; both are
read-only arrays of the reduced system.  An update on coordinate k has three
stages:

    lookup     read d_hat = d2(k), c_hat = c2(k)
    compute    delta = eta * (gamma * m_k(d_hat) - c_hat)
    increment  d2 += G'[:, k] * delta, then c2(k) += delta

W workers take turns issuing lookups.  Once W lookups are in flight the
oldest is computed and applied, so every read misses the W - 1 increments
applied while it was in flight (the first W reads all see the cold start): a
fixed delay tau = W - 1.  Increments are applied one at a time, so none is
lost.  A delta of zero performs no writes.  The three stages run in
engine.coordinate_kernel with delay tau, whose ring holds the lookups in
flight; worker_update is one update done eagerly, the tests' reference.

The relaxation eta = 1 / (1 + 2 tau / sqrt(K)) is ARock's step bound for
delay tau (Peng, Xu, Yan & Yin 2016); without it the delayed iteration
does not converge.  Lookups are issued in windows of K, and each worker
draws the coordinates of many windows at a time; lookups still in flight
when the run stops are never applied.  A run advances through the
engine's loop, so with one worker (tau = 0, eta = 1) it is bit-for-bit the
engine's random-coordinate schedule: same RNG stream, same kernel, same
loop.  A run is deterministic for a given (workers, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import (SolverState, Trajectory, coordinate_kernel, iterate,
                     make_gamma)
from .stationarity import StationaritySystem


# lookups the workers draw at a time (whole windows, each worker its share in
# one call); numpy gives the same stream as one draw per lookup
_DRAWS = 4096


class AssocArray(SolverState):
    """The store: the engine's state vectors c2 and d2, keyed by coordinate."""

    def snapshot_c2(self) -> np.ndarray:
        return self.c2.copy()

    def snapshot_d2(self) -> np.ndarray:
        return self.d2.copy()


def init_array(system: StationaritySystem) -> AssocArray:
    """Cold start: c2 at 0, d2 at e."""
    return AssocArray(c2=np.zeros(system.n_nonlinear), d2=system.e.copy())


def worker_update(array: AssocArray, system: StationaritySystem, k: int,
                  d_hat: float, c_hat: float, gamma: float = 1.0,
                  eta: float = 1.0) -> float:
    """Compute from the looked-up pair (d_hat, c_hat), then increment the
    store with column k of G': one update of engine.coordinate_kernel, done
    eagerly.

    Returns delta; a delta of zero writes nothing.
    """
    delta = eta * (system.m_scalar(k, d_hat, gamma) - c_hat)
    if delta != 0.0:
        array.d2 += system.Gprime[:, k] * delta
        array.c2[k] += delta
    return delta


@dataclass
class WorkerReport:
    """Per-worker accounting for a distributed run."""

    worker: int
    updates: int
    histogram: list[int]

    def to_dict(self) -> dict:
        return {"worker": self.worker, "updates": self.updates,
                "histogram": self.histogram}


def run_distributed(system: StationaritySystem, workers: int = 1,
                    max_equiv_iters: float = 1000.0, tol: float = 1e-8,
                    seed: int = 0, homotopy: object = None,
                    reference: dict[str, np.ndarray] | None = None,
                    ) -> tuple[np.ndarray, np.ndarray, Trajectory,
                               list[WorkerReport], bool]:
    """Apply `workers` workers' delayed updates until tol or budget.

    Worker i draws coordinates from its own stream: default_rng(seed) when
    running alone (bit-for-bit the engine's randomk mode), default_rng([seed, i])
    otherwise.  Lookup j belongs to worker j % workers.  Lookups are issued in
    windows of K, and a window takes gamma for the equivalent iteration in
    which it is issued.  Each worker draws its coordinates for _DRAWS // K
    windows in one block (the same stream as one draw per lookup); a block
    is counted into the reports, and dropped, once its lookups are applied.
    Lookups still in flight when engine.iterate stops, at tol or budget, are
    never applied.

    Returns (d2, c2, trajectory, reports, converged); reports count applied
    updates and are empty when none was applied.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    K = system.n_nonlinear
    gamma = make_gamma(homotopy)
    eta = 1.0 / (1.0 + 2.0 * (workers - 1) / math.sqrt(K))
    array = init_array(system)
    rngs = [np.random.default_rng(seed if workers == 1 else [seed, i])
            for i in range(workers)]
    fire = coordinate_kernel(system, workers - 1, eta)
    size = K * max(1, _DRAWS // K)     # lookups drawn at a time: whole windows
    blocks = {}   # coordinates of the lookups drawn and not yet counted, by block
    hist = np.zeros((workers, K), dtype=np.int64)   # applied lookups per worker
    issued = 0

    def count(b: int, n: int) -> None:   # the first n lookups of block b
        block = blocks.pop(b)[:n]
        for i in range(workers):
            hist[i] += np.bincount(block[(i - b * size) % workers::workers],
                                   minlength=K)

    def advance(live, trial, fired, budget, units):
        applied = int(fired[0])   # no roll-back goes below it
        for b in [b for b in blocks if (b + 1) * size <= applied]:
            count(b, size)
        # to each unit end, and to the budget
        marks = np.clip(K * (applied // K + np.arange(units + 1)), applied, budget)
        d2, c2, stops = live.d2, live.c2, marks[1:].tolist()

        def tick(w: int) -> None:
            # update j applies lookup j, once lookups up to j + W - 1 are issued
            nonlocal issued
            while issued < stops[w] + workers - 1:
                b, at = divmod(issued, size)
                if at == 0:   # each worker draws its lookups of block b
                    block = blocks[b] = np.empty(size, dtype=np.int64)
                    for i, rng in enumerate(rngs):
                        mine = block[(i - b * size) % workers::workers]
                        mine[:] = rng.integers(K, size=len(mine))
                n = min(K - issued % K, stops[w] + workers - 1 - issued)
                fire(d2, c2, blocks[b][at:at + n].tolist(), gamma(issued // K + 1))
                issued += n

        return marks[None], tick

    traj, = iterate([system], array, advance, max_equiv_iters, tol, [reference])
    for b in list(blocks):   # the applied lookups of the blocks left
        count(b, max(0, array.fired_updates - b * size))
    reports = [WorkerReport(i, int(h.sum()), h.tolist()) for i, h in enumerate(hist)
               if array.fired_updates]
    return (array.snapshot_d2(), array.snapshot_c2(), traj, reports,
            array.converged)
