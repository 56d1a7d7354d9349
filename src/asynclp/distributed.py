"""Simulated distributed execution over a shared associative array.

The reduced system is laid out the way a distributed key-value store would
hold it: one read-only column g(k) of G' per coordinate (row k of a K x K
array), the read-only offset e, and the vectors c2 and d2.  An update on
coordinate k has three stages:

    lookup     read d_hat = d2(k), c_hat = c2(k)
    compute    delta = eta * (gamma * m_k(d_hat) - c_hat)
    increment  d2 += g(k) * delta, then c2(k) += delta

W workers take turns issuing lookups into a first-in, first-out queue of
lookups in flight.  Once W lookups are in flight the oldest is computed and
applied, so every read misses the W - 1 increments applied while it was in
flight (the first W reads all see the cold start): a fixed delay tau = W - 1.
Increments are applied one at a time, so none is lost.  A delta of zero
performs no writes.

The relaxation eta = 1 / (1 + 2 tau / sqrt(K)) is ARock's step bound for
delay tau (Peng, Xu, Yan & Yin 2016); without it the delayed iteration
does not converge.  With one worker tau = 0 and eta = 1, and a run is
bit-for-bit the engine's random-coordinate schedule: same RNG stream, same
update arithmetic, same recording cadence.  A run is deterministic for a
given (workers, seed).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .engine import Trajectory, make_gamma, reference_coordinates
from .stationarity import StationaritySystem


@dataclass
class AssocArray:
    """Keyed view of a reduced system: columns, offset, and state vectors.

    Row k of the read-only array `g` is column k of G'.
    """

    g: np.ndarray
    e: np.ndarray
    c2: np.ndarray
    d2: np.ndarray

    @property
    def n_coords(self) -> int:
        return len(self.c2)

    def increment(self, k: int, delta: float) -> None:
        """Add delta to c2(k) and delta * g(k) to d2."""
        self.d2 += self.g[k] * delta
        self.c2[k] += delta

    def snapshot_c2(self) -> np.ndarray:
        return self.c2.copy()

    def snapshot_d2(self) -> np.ndarray:
        return self.d2.copy()


def init_array(system: StationaritySystem) -> AssocArray:
    """Cold-start layout: c2 at 0, d2 at e, read-only rows g(k) = G'[:, k]."""
    g = system.Gprime.T.copy()
    g.setflags(write=False)
    e = system.e.copy()
    e.setflags(write=False)
    return AssocArray(g=g, e=e, c2=np.zeros(system.n_nonlinear), d2=e.copy())


def worker_update(array: AssocArray, system: StationaritySystem, k: int,
                  d_hat: float, c_hat: float, gamma: float = 1.0,
                  eta: float = 1.0) -> float:
    """Compute from the looked-up pair (d_hat, c_hat), then increment.

    Returns delta; a delta of zero writes nothing.
    """
    delta = eta * (system.m_scalar(k, d_hat, gamma) - c_hat)
    if delta != 0.0:
        array.increment(k, delta)
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
    windows of K: each worker draws its coordinates for the window in one
    block (the same stream as one draw per lookup), and the window takes
    gamma for the equivalent iteration in which it is issued.  At every
    multiple of K applied updates a trajectory row is recorded and tol is
    checked; lookups still in flight at convergence are dropped.

    Returns (d2, c2, trajectory, reports, converged).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    K = system.n_nonlinear
    gamma = make_gamma(homotopy)
    eta = 1.0 / (1.0 + 2.0 * (workers - 1) / math.sqrt(K))
    array = init_array(system)
    traj = Trajectory()
    ref = reference_coordinates(system, reference)
    budget_updates = int(round(max_equiv_iters * K))

    converged = traj.record(system, 0.0, array.d2, array.c2, ref) <= tol
    if converged or budget_updates == 0:
        return (array.snapshot_d2(), array.snapshot_c2(), traj, [], converged)

    if workers == 1:
        rngs = [np.random.default_rng(seed)]
    else:
        rngs = [np.random.default_rng([seed, i]) for i in range(workers)]
    blocks: list[np.ndarray] = []      # coordinates of every window issued
    in_flight: deque = deque()
    issued = applied = 0
    while applied < budget_updates:
        if issued < budget_updates:
            j = issued % K
            if j == 0:
                window = np.empty(min(K, budget_updates - issued), dtype=np.int64)
                for i, rng in enumerate(rngs):
                    mine = window[(i - issued) % workers::workers]
                    mine[:] = rng.integers(K, size=len(mine))
                blocks.append(window)
                ks = window.tolist()
                g = gamma(issued // K + 1)
            k = ks[j]
            in_flight.append((k, array.d2[k], array.c2[k], g))
            issued += 1
            if len(in_flight) < workers and issued < budget_updates:
                continue
        k, d_hat, c_hat, g_k = in_flight.popleft()
        worker_update(array, system, k, d_hat, c_hat, g_k, eta)
        applied += 1
        if applied % K == 0 and traj.record(system, applied / K, array.d2,
                                            array.c2, ref) <= tol:
            converged = True
            break

    # the applied updates are lookups 0 .. applied-1
    drawn = np.concatenate(blocks)[:applied]
    reports = []
    for i in range(workers):
        hist = np.bincount(drawn[i::workers], minlength=K)
        reports.append(WorkerReport(i, int(hist.sum()), hist.tolist()))
    return (array.snapshot_d2(), array.snapshot_c2(), traj, reports, converged)
