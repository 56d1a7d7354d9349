"""Iteration engine: synchronous, incremental, and randomized update schedules.

The reduced system d2 = G' m(d2) + e is solved by iterating

    c2[n] = m(d2[n-1]),    d2[n] = G' c2[n] + e            (synchronous)

or, equivalently, by accumulating per-coordinate increments

    d2 <- d2 + g_k (m_k(d2_k) - c2_k),   c2_k <- m_k(d2_k)  (incremental)

with g_k the k-th column of G'.  Randomized schedules fire coordinates with
probability p per tick (bernoulli) or one uniformly chosen coordinate per step
(randomk).  Progress across schedules is compared in equivalent iterations:
total fired coordinate updates divided by the number of nonlinear coordinates.

Every schedule runs through one loop, `iterate`, which owns the budget, the
trajectory rows and the tol check.  A schedule supplies only the updates, as
advance(state, stop): `run` steps the schedules below, and
distributed.run_distributed its delayed workers.

Because G' is an isometry and every m is non-expansive, the iteration map has
Lipschitz constant exactly 1: convergence sits on the boundary.  A homotopy
relaxes it, replacing T by T'(d2, a) = a T(d2) + (1-a) T0(d2) with the constant
map T0 = e, which amounts to scaling the nonlinearity by gamma = a.  Ramping
gamma toward 1 makes the early iteration a strict contraction; randomized
schedules then converge at gamma = 1 while the synchronous one needs the ramp
to persist (see README notes on schedule choice).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .stationarity import StationaritySystem

_MODES = ("sync", "sweep", "bernoulli", "randomk")

# gap left at the end of a geometric ramp; effectively gamma = 1 in float64
_RAMP_END_GAP = 1e-15


# ---------------------------------------------------------------------------
# homotopy schedules

def constant_gamma(k: int) -> float:
    return 1.0


def power_ramp(k: int) -> float:
    """gamma(k) = 1 - 0.95**(k*k) for k <= 10, then exactly 1."""
    if k <= 10:
        return 1.0 - 0.95 ** (k * k)
    return 1.0


def geometric_ramp(alpha0: float, steps: int) -> Callable[[int], float]:
    """Gap (1 - alpha0) decays geometrically to ~1e-15 over `steps`, then gamma = 1.

    Keeping gamma strictly below 1 for the whole ramp is what lets the
    synchronous schedule track the relaxed fixed point all the way down;
    see README.
    """
    if not 0.0 <= alpha0 < 1.0:
        raise ValueError("alpha0 must lie in [0, 1)")
    if steps < 2:
        raise ValueError("ramp needs at least 2 steps")
    gap0 = 1.0 - alpha0
    q = (_RAMP_END_GAP / gap0) ** (1.0 / (steps - 1))

    def gamma(k: int) -> float:
        if k > steps:
            return 1.0
        return 1.0 - gap0 * q ** (k - 1)

    return gamma


def make_gamma(spec) -> Callable[[int], float]:
    """Normalize a homotopy spec: None/callable/'none'/'bp'/'ramp:a0:steps'."""
    if spec is None:
        return constant_gamma
    if callable(spec):
        return spec
    if isinstance(spec, str):
        if spec == "none":
            return constant_gamma
        if spec == "bp":
            return power_ramp
        if spec.startswith("ramp:"):
            parts = spec.split(":")
            if len(parts) != 3:
                raise ValueError(f"bad ramp spec {spec!r}, expected ramp:alpha0:steps")
            return geometric_ramp(float(parts[1]), int(parts[2]))
        raise ValueError(f"unknown homotopy spec {spec!r}")
    raise TypeError(f"homotopy spec must be None, callable, or str, got {type(spec)}")


# ---------------------------------------------------------------------------
# state and configuration

@dataclass
class ScheduleConfig:
    """How to iterate: mode in {sync, sweep, bernoulli, randomk}.

    p is the per-coordinate firing probability (bernoulli only; p = 1
    reproduces sync exactly).  homotopy is a gamma schedule per equivalent
    iteration: None (constant 1), a callable, or one of the string forms
    accepted by make_gamma.
    """

    mode: str
    p: float = 1.0
    seed: int = 0
    homotopy: object = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must lie in (0, 1], got {self.p}")
        self.gamma = make_gamma(self.homotopy)


@dataclass
class SolverState:
    """Iteration state over the nonlinear coordinates."""

    c2: np.ndarray
    d2: np.ndarray
    fired_updates: int = 0
    converged: bool | None = None

    @property
    def n_coords(self) -> int:
        return len(self.c2)

    @property
    def equivalent_iterations(self) -> float:
        return self.fired_updates / len(self.c2)


def init_state(system: StationaritySystem) -> SolverState:
    """Start at c2 = 0, d2 = e (required for sync/incremental equivalence)."""
    return SolverState(c2=np.zeros(system.n_nonlinear), d2=system.e.copy())


# ---------------------------------------------------------------------------
# steps

def sync_step(state: SolverState, system: StationaritySystem, gamma: float = 1.0) -> None:
    """One synchronous update: all coordinates sample, then d2 is rebuilt."""
    state.c2 = system.m(state.d2, gamma)
    state.d2 = system.Gprime @ state.c2 + system.e
    state.fired_updates += state.n_coords


def simultaneous_sweep_step(state: SolverState, system: StationaritySystem,
                            gamma: float = 1.0) -> None:
    """Incremental form with all coordinates using the same previous state.

    d2 <- d2 + sum_k g_k (m_k(d2_k) - c2_k); algebraically identical to
    sync_step, kept as an independent route for trajectory-equality checks.
    """
    mnew = system.m(state.d2, gamma)
    state.d2 = state.d2 + system.Gprime @ (mnew - state.c2)
    state.c2 = mnew
    state.fired_updates += state.n_coords


def incremental_step(state: SolverState, system: StationaritySystem, k: int,
                     gamma: float = 1.0) -> None:
    """Fire coordinate k against the current state (column-increment form)."""
    delta = system.m_scalar(k, state.d2[k], gamma) - state.c2[k]
    state.d2 += system.Gprime[:, k] * delta
    state.c2[k] += delta
    state.fired_updates += 1


def sweep_step(state: SolverState, system: StationaritySystem, gamma: float = 1.0) -> None:
    """One in-order pass of incremental updates (each sees the latest d2)."""
    for k in range(state.n_coords):
        delta = system.m_scalar(k, state.d2[k], gamma) - state.c2[k]
        state.d2 += system.Gprime[:, k] * delta
        state.c2[k] += delta
    state.fired_updates += state.n_coords


def async_tick(state: SolverState, system: StationaritySystem, p: float,
               rng: np.random.Generator, gamma: float = 1.0) -> int:
    """Bernoulli tick: each coordinate fires independently with probability p.

    Fired coordinates resample c2_k from the current d2; the rest hold their
    previous value; then d2 is rebuilt from the full c2.  Returns the number
    of coordinates that fired.
    """
    fires = rng.random(state.n_coords) < p
    state.c2 = np.where(fires, system.m(state.d2, gamma), state.c2)
    state.d2 = system.Gprime @ state.c2 + system.e
    fired = int(fires.sum())
    state.fired_updates += fired
    return fired


# ---------------------------------------------------------------------------
# trajectories and the run loop

@dataclass
class Trajectory:
    """Per-equivalent-iteration record of (objective, residual, dist_to_ref)."""

    equiv_iter: list[float] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    residual: list[float] = field(default_factory=list)
    dist_to_ref: list[float] = field(default_factory=list)

    def append(self, equiv: float, obj: float, res: float, dist: float) -> None:
        self.equiv_iter.append(equiv)
        self.objective.append(obj)
        self.residual.append(res)
        self.dist_to_ref.append(dist)

    def record(self, system: StationaritySystem, equiv: float, d2: np.ndarray,
               c2: np.ndarray,
               reference: tuple[np.ndarray, np.ndarray] | None = None) -> float:
        """Append the row of state (d2, c2) at `equiv`; returns its residual.

        `reference` is the (coordinates, values) pair of reference_coordinates;
        dist_to_ref is the 2-norm of the variables' distance to it, or NaN
        without one.
        """
        res = system.residual(d2)
        dist = float("nan")
        if reference is not None:
            idx, values = reference
            diff = system.variable_vector(d2, c2)[idx] - values
            dist = math.sqrt(float(diff @ diff))
        self.append(equiv, system.objective(d2, c2), res, dist)
        return res

    def __len__(self) -> int:
        return len(self.equiv_iter)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["equiv_iter", "objective", "residual", "dist_to_ref"])
            for row in zip(self.equiv_iter, self.objective, self.residual,
                           self.dist_to_ref):
                w.writerow(row)


def reference_coordinates(system: StationaritySystem,
                          reference: dict[str, np.ndarray] | None,
                          ) -> tuple[np.ndarray, np.ndarray] | None:
    """A per-variable reference as (full-space coordinates, values), or None.

    Resolved once per run, so that each trajectory row takes one product.
    """
    if not reference:
        return None
    slices = system.problem.variable_slices()
    coords = np.arange(system.n_affine + system.n_nonlinear)
    parts = [(coords[slices[name]], np.asarray(ref, dtype=float))
             for name, ref in reference.items()]
    return (np.concatenate([idx for idx, _ in parts]),
            np.concatenate([np.broadcast_to(ref, idx.shape) for idx, ref in parts]))


def iterate(system: StationaritySystem, state: SolverState,
            advance: Callable[[SolverState, int], None],
            max_equiv_iters: float, tol: float,
            reference: dict[str, np.ndarray] | None = None) -> Trajectory:
    """The run loop of every schedule; sets state.converged.

    The budget is ceil(max_equiv_iters * K) fired updates in all.  A row is
    recorded and tol checked at the start and after each completed unit of
    K updates.  advance(state, stop) fires updates, counting them in
    state.fired_updates, until it reaches stop (the end of the unit or the
    budget); a step that fires many at once may pass it.
    """
    K = state.n_coords
    budget = math.ceil(max_equiv_iters * K - 1e-9)
    ref = reference_coordinates(system, reference)
    traj = Trajectory()
    while True:
        state.converged = traj.record(system, state.equivalent_iterations,
                                      state.d2, state.c2, ref) <= tol
        unit = state.fired_updates // K
        if state.converged or state.fired_updates >= budget:
            return traj
        advance(state, min((unit + 1) * K, budget))
        if state.fired_updates // K == unit:   # the budget ended mid-unit
            return traj


def run(system: StationaritySystem, schedule: ScheduleConfig,
        max_equiv_iters: float = 1000.0, tol: float = 1e-8,
        reference: dict[str, np.ndarray] | None = None,
        state: SolverState | None = None) -> tuple[SolverState, Trajectory]:
    """Iterate until the gamma=1 residual falls to tol or the budget runs out.

    The budget is max_equiv_iters equivalent iterations (fired updates / K),
    and tol is checked once per equivalent iteration.  Per-variable
    `reference` values fill the dist_to_ref column; `state` resumes a run
    instead of the cold start (c2=0, d2=e) and draws from the stream
    [seed, fired_updates], so that chunks do not replay one firing pattern.
    Returns (state, trajectory); state.converged records whether tol was
    reached within budget.
    """
    if state is None:
        state = init_state(system)
    K = state.n_coords
    rng = np.random.default_rng([schedule.seed, state.fired_updates]
                                if state.fired_updates else schedule.seed)

    def advance(state: SolverState, stop: int) -> None:
        g = schedule.gamma(state.fired_updates // K + 1)
        if schedule.mode == "randomk":   # coordinates drawn in one block
            for k in rng.integers(K, size=stop - state.fired_updates).tolist():
                incremental_step(state, system, k, g)
        elif schedule.mode == "bernoulli":
            while state.fired_updates < stop:
                async_tick(state, system, schedule.p, rng, g)
        elif schedule.mode == "sync":   # sync and sweep fire all K at once
            sync_step(state, system, g)
        else:
            sweep_step(state, system, g)

    return state, iterate(system, state, advance, max_equiv_iters, tol,
                          reference)


# ---------------------------------------------------------------------------
# empirical Lipschitz estimation

def empirical_lipschitz(T: Callable, dim: int, samples: int = 1000,
                        rng: np.random.Generator | None = None,
                        scale: float = 3.0) -> float:
    """Max ||T(x) - T(y)|| / ||x - y|| over random Gaussian pairs."""
    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(samples):
        x = rng.normal(scale=scale, size=dim)
        y = rng.normal(scale=scale, size=dim)
        nd = np.linalg.norm(x - y)
        if nd < 1e-12:
            continue
        ratio = np.linalg.norm(T(x) - T(y)) / nd
        if ratio > worst:
            worst = float(ratio)
    return worst
