"""Simulated distributed execution over a shared associative array.

The reduced system is laid out the way a distributed key-value store would
hold it: one read-only column g(k) of G' per coordinate (row k of a K x K
array), the read-only offset e, and the vectors c2 and d2.  Workers repeat
three stages:

    lookup     read d_hat = d2(k), c_hat = c2(k) and the column g(k)
    compute    delta = gamma * m_k(d_hat) - c_hat
    increment  d2 += g(k) * delta, then c2(k) += delta

Lookups take no lock, so they may be stale and may even see an increment
half applied.  One lock guards the increment stage, so increments are never
lost.  A delta of zero performs no writes.  Snapshots for monitoring are
lock-free copies and tolerate staleness.

A single-worker run is bit-for-bit the engine's random-coordinate schedule:
same RNG stream, same update arithmetic, same recording cadence.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .engine import Trajectory, make_gamma
from .stationarity import StationaritySystem


class AtomicCounter:
    """Integer counter with atomic increment-and-get."""

    __slots__ = ("_value", "_lock")

    def __init__(self):
        self._value = 0
        self._lock = threading.Lock()

    @property
    def value(self) -> int:
        return self._value

    def add(self, n: int = 1) -> int:
        with self._lock:
            self._value += n
            return self._value


@dataclass
class AssocArray:
    """Keyed view of a reduced system: columns, offset, and state vectors.

    Row k of the read-only array `g` is column k of G'.  `lock` guards
    every write to `d2` and `c2`; reads take no lock.
    """

    g: np.ndarray
    e: np.ndarray
    c2: np.ndarray
    d2: np.ndarray
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def n_coords(self) -> int:
        return len(self.c2)

    def increment(self, k: int, delta: float) -> None:
        """Add delta to c2(k) and delta * g(k) to d2, atomically for writers."""
        step = self.g[k] * delta
        with self.lock:
            self.d2 += step
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
                  gamma: float = 1.0, log: list | None = None) -> float:
    """One lookup/compute/increment cycle on coordinate k; returns delta."""
    delta = system.m_scalar(k, array.d2[k], gamma) - array.c2[k]
    if delta != 0.0:
        array.increment(k, delta)
    if log is not None:
        log.append((k, delta))
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
    """Race `workers` threads over a shared array until tol or budget.

    Worker i draws coordinates from its own stream: default_rng(seed) when
    running alone (bit-for-bit the engine's randomk mode), default_rng([seed, i])
    otherwise.  Whichever worker crosses a multiple of K total updates takes a
    stale-tolerant snapshot, records a trajectory row, and checks tol.

    Returns (d2, c2, trajectory, reports, converged).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    K = system.n_nonlinear
    gamma = make_gamma(homotopy)
    array = init_array(system)
    fired = AtomicCounter()
    stop = threading.Event()
    converged = threading.Event()
    traj = Trajectory()
    traj_lock = threading.Lock()
    budget_updates = int(round(max_equiv_iters * K))

    def record_row() -> float:
        d2 = array.snapshot_d2()
        c2 = array.snapshot_c2()
        with traj_lock:
            return traj.record(system, fired.value / K, d2, c2, reference)

    res0 = record_row()
    if res0 <= tol or budget_updates == 0:
        if res0 <= tol:
            converged.set()
        return (array.snapshot_d2(), array.snapshot_c2(), traj, [], converged.is_set())

    counts = [0] * workers
    histograms = [np.zeros(K, dtype=int) for _ in range(workers)]

    def worker_fn(i: int) -> None:
        if workers == 1:
            rng = np.random.default_rng(seed)
        else:
            rng = np.random.default_rng([seed, i])
        while not stop.is_set():
            before = fired.value
            if before >= budget_updates:
                stop.set()
                break
            g = gamma(before // K + 1)
            k = int(rng.integers(K))
            worker_update(array, system, k, g)
            counts[i] += 1
            histograms[i][k] += 1
            after = fired.add(1)
            if after % K == 0:
                res = record_row()
                if res <= tol:
                    converged.set()
                    stop.set()
            if after >= budget_updates:
                stop.set()

    threads = [threading.Thread(target=worker_fn, args=(i,)) for i in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    reports = [WorkerReport(i, counts[i], histograms[i].tolist())
               for i in range(workers)]
    return (array.snapshot_d2(), array.snapshot_c2(), traj, reports,
            converged.is_set())
