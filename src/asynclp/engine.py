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
distributed.run_distributed its delayed workers.  The incremental updates of
randomk, sweep and the delayed workers all go through `coordinate_kernel`.
`iterate` measures its rows a window of about 512 updates at a time, from
snapshots taken at unit ends, and rolls a run back to the row that met tol;
randomk and the workers draw their coordinates thousands at a time.

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

from .stationarity import StationaritySystem, norm

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


def coordinate_kernel(system: StationaritySystem, delay: int = 0, eta: float = 1.0,
                      ) -> Callable[[SolverState, object, float], None]:
    """fire(state, coords, gamma): the incremental updates of randomk, sweep
    and the distributed workers, one coordinate of `coords` after another.

    Coordinate k reads d_hat = d2(k) and c_hat = c2(k) when it is fired; its
    delta = eta (m_k(d_hat) - c_hat) is applied, d2 += G'[:, k] delta and
    c2(k) += delta, `delay` reads later.  Reads in flight wait in a ring
    carried from call to call, whose empty slots hold a zero delta; a zero
    delta writes nothing.  m_k is m_scalar's arithmetic on Python floats, so
    each update is bitwise distributed.worker_update's.  The caller counts the
    updates.
    """
    columns = [system.Gprime[:, k] for k in range(system.n_nonlinear)]   # views
    sign, is_l1 = system.nl_sign.tolist(), system.nl_is_l1.tolist()
    ring_k, ring_delta = [0] * (delay + 1), [0.0] * (delay + 1)
    slot, step = 0, np.empty(system.n_nonlinear)
    add, multiply = np.add, np.multiply

    def fire(state: SolverState, coords, gamma: float) -> None:
        nonlocal slot
        d2, c2 = state.d2, state.c2.tolist()
        for k in coords:
            d = d2.item(k)
            if is_l1[k]:
                base = d + 2.0 if d < -1.0 else (d - 2.0 if d > 1.0 else -d)
            else:
                base = abs(d)
            ring_k[slot] = k
            ring_delta[slot] = eta * ((gamma * base) * sign[k] - c2[k])
            slot = slot + 1 if slot < delay else 0
            delta = ring_delta[slot]   # the oldest read in flight
            if delta != 0.0:
                k = ring_k[slot]
                add(d2, multiply(columns[k], delta, step), d2)
                c2[k] += delta
        state.c2[:] = c2

    return fire


def incremental_step(state: SolverState, system: StationaritySystem, k: int,
                     gamma: float = 1.0) -> None:
    """Fire coordinate k against the current state (column-increment form)."""
    coordinate_kernel(system)(state, (k,), gamma)
    state.fired_updates += 1


def sweep_step(state: SolverState, system: StationaritySystem, gamma: float = 1.0) -> None:
    """One in-order pass of incremental updates (each sees the latest d2)."""
    coordinate_kernel(system)(state, range(state.n_coords), gamma)
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
        """Append the row of state (d2, c2) at `equiv`; returns its residual."""
        row = self.measure(system, d2, c2, reference)
        self.append(equiv, *row)
        return row[1]

    @staticmethod
    def measure(system: StationaritySystem, d2: np.ndarray, c2: np.ndarray,
                reference: tuple[np.ndarray, np.ndarray] | None = None):
        """(objective, residual, dist_to_ref) of state (d2, c2), or of each row
        of a stack of states of `system`.

        `reference` is the (coordinates, values) pair of reference_coordinates;
        dist_to_ref is the 2-norm of the variables' distance to it, or one NaN
        without one.
        """
        objective, residual = system.objective(d2, c2), system.residual(d2)
        if reference is None:
            return objective, residual, math.nan
        idx, values = reference
        return objective, residual, norm(system.variable_vector(d2, c2)[..., idx]
                                         - values)

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


# fired updates between two monitoring passes of iterate: a run that meets tol
# fires on to the end of its window, at most this many updates, before it is
# rolled back to the row that met it
_ROW_UPDATES = 512

# coordinates randomk draws per rng.integers call, and lookups the distributed
# workers draw at a time (whole windows, each worker its share in one call);
# numpy gives the same stream as one draw per coordinate
_DRAWS = 4096


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

    Rows are measured a window of max(1, _ROW_UPDATES // K) units at a time:
    the state at each unit end of the window is kept, and the window's rows
    are measured with one Trajectory.measure call after it, each row bitwise
    its one-state value.  A window of one unit measures the live state.
    When a row meets tol before the window's end, the later rows are dropped
    and state is rolled back to that row, fired_updates included, so the run
    stops where a row-by-row loop stops.
    """
    K = state.n_coords
    budget = math.ceil(max_equiv_iters * K - 1e-9)
    window = max(1, _ROW_UPDATES // K)
    ref = reference_coordinates(system, reference)
    traj = Trajectory()
    state.converged = traj.record(system, state.equivalent_iterations,
                                  state.d2, state.c2, ref) <= tol
    rows_d2, rows_c2 = np.empty((2, window, K))   # the window's unit ends
    while not state.converged and state.fired_updates < budget:
        fired = []   # fired_updates at each unit end of the window
        while len(fired) < window and state.fired_updates < budget:
            unit = state.fired_updates // K
            advance(state, min((unit + 1) * K, budget))
            if state.fired_updates // K == unit:   # the budget ended mid-unit
                break
            if window > 1:
                rows_d2[len(fired)], rows_c2[len(fired)] = state.d2, state.c2
            fired.append(state.fired_updates)
        if not fired:
            break
        if window == 1:   # the live state, with no snapshot
            state.converged = traj.record(system, state.equivalent_iterations,
                                          state.d2, state.c2, ref) <= tol
            continue
        n = len(fired)
        objective, residual, dist = Trajectory.measure(
            system, rows_d2[:n], rows_c2[:n], ref)
        met = np.flatnonzero(residual <= tol)
        if len(met):
            n = int(met[0]) + 1
            if n < len(fired):   # roll back to the row that met tol
                state.d2[:], state.c2[:] = rows_d2[n - 1], rows_c2[n - 1]
                state.fired_updates = fired[n - 1]
            state.converged = True
        traj.equiv_iter += [f / K for f in fired[:n]]
        traj.objective += objective[:n].tolist()
        traj.residual += residual[:n].tolist()
        traj.dist_to_ref += ([math.nan] * n if ref is None
                             else dist[:n].tolist())
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
    if schedule.mode in ("randomk", "sweep"):
        fire = coordinate_kernel(system)
    ahead = np.empty(0, dtype=np.int64)   # randomk's coordinates drawn ahead

    def advance(state: SolverState, stop: int) -> None:
        nonlocal ahead
        g = schedule.gamma(state.fired_updates // K + 1)
        if schedule.mode == "bernoulli":
            while state.fired_updates < stop:
                async_tick(state, system, schedule.p, rng, g)
        elif schedule.mode == "sync":   # sync and sweep fire all K at once
            sync_step(state, system, g)
        else:
            coords = range(K)
            if schedule.mode == "randomk":
                n = stop - state.fired_updates
                if len(ahead) < n:
                    ahead = np.concatenate(
                        [ahead, rng.integers(K, size=max(n, _DRAWS))])
                coords, ahead = ahead[:n].tolist(), ahead[n:]
            fire(state, coords, g)
            state.fired_updates += len(coords)

    return state, iterate(system, state, advance, max_equiv_iters, tol,
                          reference)


# ---------------------------------------------------------------------------
# stacked trials

# ticks between two monitoring passes of run_trials: each trial's draws are
# taken this many ticks at a time, and a trial that reaches tol may tick up
# to this far past it before it is stopped
_WINDOW = 64


def trial_bytes(system: StationaritySystem, n_schedules: int,
                max_equiv_iters: float) -> int:
    """An upper estimate of the bytes one trial holds in run_trials, run
    under n_schedules schedules: its operators G, G' and D; for each
    schedule, a window of draws and row snapshots (about 64 bytes a
    coordinate a tick) and a trajectory of one row a unit (about 256 bytes
    a row while it is assembled).  With no trial converging, measured peaks
    were 0.45-0.8 of it."""
    operators = system.G.nbytes + system.Gprime.nbytes + system.D.nbytes
    rows = int(max_equiv_iters) + 1
    return operators + n_schedules * (_WINDOW * system.n_nonlinear * 64
                                      + rows * 256)


def _check_one_shape(systems: list[StationaritySystem],
                     schedules: list[ScheduleConfig]) -> None:
    if not systems or len(systems) != len(schedules):
        raise ValueError("run_trials needs one schedule per system, and at "
                         "least one trial")
    modes = {s.mode for s in schedules}
    if len(modes) != 1 or not modes <= {"sync", "bernoulli"}:
        raise ValueError(f"run_trials runs one mode, sync or bernoulli, "
                         f"got {sorted(modes)}")
    s0 = systems[0]
    for s in systems[1:]:
        if any(not np.array_equal(getattr(s, name), getattr(s0, name))
               for name in ("affine_idx", "nonlinear_idx", "nl_sign",
                            "nl_is_l1", "aff_sign", "s")):
            raise ValueError("run_trials needs systems of one shape: the same "
                             "partitions and the same kind and side on each "
                             "coordinate")


def run_trials(systems: list[StationaritySystem],
               schedules: list[ScheduleConfig],
               max_equiv_iters: float = 1000.0, tol: float = 1e-8,
               references: list | None = None,
               ) -> list[tuple[SolverState, Trajectory]]:
    """Run trials of one shape, all `sync` or all `bernoulli`, as one iteration.

    Trial i is run(systems[i], schedules[i], max_equiv_iters, tol,
    references[i]) from the cold start, and its (state, trajectory) is
    bitwise that run's.  The states are one (T, K) array.  Trials that share
    a system and a reference (the same objects) sit together in it and share
    one product with its G' per tick, bitwise the 2-D one; no operator is
    copied.  All
    trials tick in lockstep, a window of _WINDOW ticks at a time.  Each trial
    draws its window from its own default_rng(seed) in one block (numpy
    gives the same stream as one draw per tick), so its fired counts, unit
    ends, gamma and budget end are known before the window runs.  A row is
    a snapshot at a unit end, measured with the window's other rows of its
    system after it (Trajectory.measure); a trial that reached tol has
    ticked on to the window's end, and its later rows and ticks are
    dropped.  Trials that stopped leave the stack between windows.
    """
    _check_one_shape(systems, schedules)
    T, K = len(systems), systems[0].n_nonlinear
    budget = math.ceil(max_equiv_iters * K - 1e-9)
    references = references or [None] * T
    bernoulli = schedules[0].mode == "bernoulli"
    e = np.stack([s.e for s in systems])

    # trials with the same system and reference are measured and stepped
    # together, as the trials of their first one
    seen = {}
    owner = np.array([seen.setdefault((id(s), id(r)), i)
                      for i, (s, r) in enumerate(zip(systems, references))])
    refs = [reference_coordinates(s, r) for s, r in zip(systems, references)]

    def blocks(trial):   # (first trial, rows) of each run of one owner
        own = owner[trial]
        cuts = [0, *(np.flatnonzero(np.diff(own)) + 1), len(own)]
        return [(own[a], slice(a, b)) for a, b in zip(cuts, cuts[1:])]

    # gamma by unit, one table per distinct schedule, grown as units are reached
    gammas = {}
    gamma_row = np.array([gammas.setdefault(s.gamma, len(gammas))
                          for s in schedules])
    table = np.empty((len(gammas), 0))

    def gamma_at(g, units):   # gamma(units) of the trials on table rows g
        nonlocal table
        if units.max() > table.shape[1]:
            n = max(int(units.max()), 2 * table.shape[1])
            table = np.array([[fn(u) for u in range(1, n + 1)] for fn in gammas])
        return table[g, units - 1]

    # the trials still ticking, by position in the stack, each owner's together
    start = np.argsort(owner, kind="stable")
    live = {"trial": start, "d2": e[start], "c2": np.zeros((T, K)),
            "fired": np.zeros(T, dtype=np.int64), "g": gamma_row[start],
            "p": np.array([s.p for s in schedules])[start], "e": e[start]}
    rngs = [np.random.default_rng(s.seed) for s in schedules]
    final_d2, final_c2 = e.copy(), np.zeros((T, K))
    final_fired = np.zeros(T, dtype=np.int64)
    converged = np.zeros(T, dtype=bool)
    pending = [(live["trial"], live["fired"], live["d2"], live["c2"])]  # row 0
    kept = []   # (trial, fired, objective, residual, dist) of the rows kept

    def leave(gone):   # copies the states, so only when a trial stops
        nonlocal live
        if gone.any():
            live = {name: a[~gone] for name, a in live.items()}

    if budget <= 0:   # every trial stops at its first row
        leave(np.ones(T, dtype=bool))
    while True:
        if pending:   # a trial stops at its first row at tol
            # each owner's rows together, each trial's in order
            trial, fired, d2, c2 = (np.concatenate(a) for a in zip(*pending))
            order = np.argsort(owner[trial], kind="stable")
            trial, fired, d2, c2 = trial[order], fired[order], d2[order], c2[order]
            pending = []
            objective, residual, dist = np.empty((3, len(trial)))
            for i, r in blocks(trial):
                objective[r], residual[r], dist[r] = Trajectory.measure(
                    systems[i], d2[r], c2[r], refs[i])
            at_tol = np.flatnonzero(residual <= tol)
            first = np.full(T, len(trial))
            np.minimum.at(first, trial[at_tol], at_tol)
            keep = np.arange(len(trial)) <= first[trial]
            kept.append((trial[keep], fired[keep], objective[keep],
                         residual[keep], dist[keep]))
            done = np.flatnonzero(first < len(trial))
            at = first[done]
            final_d2[done], final_c2[done] = d2[at], c2[at]
            final_fired[done] = fired[at]
            converged[done] = True
            leave(np.isin(live["trial"], done))
        if not len(live["trial"]):
            break

        # the window's fired counts before and after each tick, and from them
        # each trial's unit ends, budget end and gamma
        trial, fired = live["trial"], live["fired"]
        if bernoulli:
            fires = np.stack([rngs[t].random((_WINDOW, K)) < p
                              for t, p in zip(trial, live["p"])])
            after = fired[:, None] + np.cumsum(np.count_nonzero(fires, axis=2),
                                               axis=1)
        else:
            after = fired[:, None] + K * np.arange(1, _WINDOW + 1)
        before = np.concatenate([fired[:, None], after[:, :-1]], axis=1)
        ticking = before < budget
        row = ticking & (after // K > before // K)
        out = ticking & (after >= budget)
        gamma = gamma_at(live["g"][:, None], before // K + 1)
        any_row, any_out = row.any(axis=0).tolist(), out.any(axis=0).tolist()

        d2, c2 = live["d2"], live["c2"]
        steps = [(systems[i].Gprime, r) for i, r in blocks(trial)]
        for w in range(ticking.sum(axis=1).max()):
            new_c2 = systems[0].m(d2, gamma[:, w, None])
            c2 = np.where(fires[:, w], new_c2, c2) if bernoulli else new_c2
            d2 = np.empty_like(c2)
            for Gprime, r in steps:
                d2[r] = np.matmul(Gprime, c2[r, :, None])[..., 0]
            d2 += live["e"]
            if any_row[w]:
                r = row[:, w]
                pending.append((trial[r], after[r, w], d2[r], c2[r]))
            if any_out[w]:
                o = out[:, w]
                final_d2[trial[o]], final_c2[trial[o]] = d2[o], c2[o]
                final_fired[trial[o]] = after[o, w]
        live.update(d2=d2, c2=c2, fired=after[:, -1])
        leave(out.any(axis=1))

    trial, fired, objective, residual, dist = (np.concatenate(a)
                                               for a in zip(*kept))
    order = np.argsort(trial, kind="stable")
    bounds = np.cumsum(np.bincount(trial, minlength=T))[:-1]
    columns = [np.split(a[order], bounds)
               for a in (fired / K, objective, residual, dist)]
    return [(SolverState(c2=final_c2[t].copy(), d2=final_d2[t].copy(),
                         fired_updates=int(final_fired[t]),
                         converged=bool(converged[t])),
             Trajectory(*(col[t].tolist() for col in columns)))
            for t in range(T)]


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
