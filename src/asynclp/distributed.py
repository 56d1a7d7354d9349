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
lost.  A delta of zero performs no writes.  The relaxation
eta = 1 / (1 + 2 tau / sqrt(K)) is ARock's step bound for delay tau (Peng,
Xu, Yan & Yin 2016); without it the delayed iteration does not converge.

A run is the engine's `distributed` mode: the engine's loop, its
random-coordinate step and engine.coordinate_kernel with delay tau, whose
ring holds the lookups in flight and which derives eta from tau and K, so
one worker (tau = 0, eta = 1) is the engine's randomk.  worker_update, one
update done eagerly with eta given, is the tests' reference.  A run is
deterministic for a given (workers, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .stationarity import StationaritySystem

# lookups worker_reports redraws at a time, so that its memory does not grow
# with the run; numpy gives the same stream as one draw per lookup
_RECOUNT_CHUNK = 1 << 16


class AssocArray(engine.SolverState):
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


def worker_reports(system: StationaritySystem, workers: int, seed: int,
                   updates: int) -> list[WorkerReport]:
    """Each worker's count of the first `updates` lookups of a run with
    `workers` workers and `seed`, by coordinate; empty when none was applied.

    Lookup j is worker j % workers's next draw, so each worker's applied
    lookups are the head of its stream, drawn again here.
    """
    if not updates:
        return []
    K, reports = system.n_nonlinear, []
    for i in range(workers):
        rng = np.random.default_rng(seed if workers == 1 else [seed, i])
        hist, n = np.zeros(K, dtype=np.int64), len(range(i, updates, workers))
        for at in range(0, n, _RECOUNT_CHUNK):
            drawn = rng.integers(K, size=min(_RECOUNT_CHUNK, n - at))
            hist += np.bincount(drawn, minlength=K)
        reports.append(WorkerReport(i, int(hist.sum()), hist.tolist()))
    return reports


def run_distributed(system: StationaritySystem, workers: int = 1,
                    max_equiv_iters: float = 1000.0, tol: float = 1e-8,
                    seed: int = 0, homotopy: object = None,
                    reference: dict[str, np.ndarray] | None = None,
                    ) -> tuple[np.ndarray, np.ndarray, engine.Trajectory,
                               list[WorkerReport], bool]:
    """Apply `workers` workers' delayed updates until tol or budget: a cold
    start of engine.run in mode `distributed`.

    Worker i draws coordinates from its own stream: default_rng(seed) when
    running alone (the engine's randomk mode), default_rng([seed, i])
    otherwise.  Lookup j belongs to worker j % workers and takes gamma for
    the equivalent iteration in which it is issued.  Lookups still in flight
    when the run stops, at tol or budget, are never applied.

    Returns (d2, c2, trajectory, reports, converged); reports count applied
    updates and are empty when none was applied.
    """
    schedule = engine.ScheduleConfig("distributed", workers=workers, seed=seed,
                                     homotopy=homotopy)
    array, traj = engine.run(system, schedule, max_equiv_iters, tol, reference,
                             state=init_array(system))
    return (array.snapshot_d2(), array.snapshot_c2(), traj,
            worker_reports(system, workers, seed, array.fired_updates),
            array.converged)
