"""Iteration engine: synchronous, incremental, and randomized update schedules.

The reduced system d2 = G' m(d2) + e is solved by iterating

    c2[n] = m(d2[n-1]),    d2[n] = G' c2[n] + e            (synchronous)

or, equivalently, by accumulating per-coordinate increments

    d2 <- d2 + g_k (m_k(d2_k) - c2_k),   c2_k <- m_k(d2_k)  (incremental)

with g_k the k-th column of G'.  Randomized schedules fire coordinates with
probability p per tick (bernoulli), one uniformly chosen coordinate per step
(randomk), or as W simulated workers whose reads lag W - 1 updates
(distributed; see distributed.py).  Progress across schedules is compared in
equivalent iterations: total fired coordinate updates divided by the number
of nonlinear coordinates.

Every schedule runs through one loop, `iterate`, over a stack of trials.  It
owns each trial's budget, trajectory rows, tol check and stop; a schedule
supplies only its updates, as a step that reports each trial's fired counts
over a window of ticks, then runs the window, keeping the stack after the
ticks that the rows need.  `run` is a stack of one trial and `run_trials` a
battery of one mode.  Every sync and bernoulli tick is `sync_step` or
`async_tick`, in place on one trial's row or, below _FIRED_ROWS_K
coordinates, on the (T, K) stack; randomk, sweep and distributed fire
through `coordinate_kernel`, one call per trial per window.  A Bernoulli
tick of one state from _FIRED_ROWS_K coordinates up, where few fire, adds
only the fired columns' increments, as the incremental form does; every
other tick rebuilds d2 = G' c2 + e.  Rows are measured a window at a time,
and a trial is rolled back to the row that met tol.

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
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .stationarity import StationaritySystem, norm

_MODES = ("sync", "sweep", "bernoulli", "randomk", "distributed")

# gap left at the end of a geometric ramp; effectively gamma = 1 in float64
_RAMP_END_GAP = 1e-15
_RAMPS = {}   # each ramp spec's one schedule, so that its trials share a gamma row


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
            if spec not in _RAMPS:
                _RAMPS[spec] = geometric_ramp(float(parts[1]), int(parts[2]))
            return _RAMPS[spec]
        raise ValueError(f"unknown homotopy spec {spec!r}")
    raise TypeError(f"homotopy spec must be None, callable, or str, got {type(spec)}")


# ---------------------------------------------------------------------------
# state and configuration

@dataclass
class ScheduleConfig:
    """How to iterate: mode in {sync, sweep, bernoulli, randomk, distributed}.

    p is the per-coordinate firing probability (bernoulli only; p = 1
    reproduces sync exactly), and workers the number of simulated workers
    (distributed only; one worker is randomk).  homotopy is a gamma schedule
    per equivalent iteration: None (constant 1), a callable, or one of the
    string forms accepted by make_gamma.
    """

    mode: str
    p: float = 1.0
    workers: int = 1
    seed: int = 0
    homotopy: object = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must lie in (0, 1], got {self.p}")
        for name, least in (("workers", 1), ("seed", 0)):
            value = getattr(self, name)   # an int or a numpy integer, not a bool
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
                    or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, "
                                 f"got {value!r}")
        self.gamma = make_gamma(self.homotopy)


@dataclass
class SolverState:
    """Iteration state over the nonlinear coordinates: one trial's vectors,
    or a stack of trials' as the rows of (T, K) arrays, with per-trial
    fired_updates and converged arrays (a stack given one number as
    fired_updates counts its trials' updates together)."""

    c2: np.ndarray
    d2: np.ndarray
    fired_updates: int | np.ndarray = 0
    converged: bool | np.ndarray | None = None

    @property
    def n_coords(self) -> int:
        return self.c2.shape[-1]

    @property
    def equivalent_iterations(self):
        return self.fired_updates / self.n_coords


def init_state(system: StationaritySystem | list[StationaritySystem]) -> SolverState:
    """Start at c2 = 0, d2 = e (required for sync/incremental equivalence);
    a list of systems of one shape gives a stack, one cold start a row."""
    if isinstance(system, StationaritySystem):
        return SolverState(c2=np.zeros(system.n_nonlinear), d2=system.e.copy())
    return SolverState(c2=np.zeros((len(system), system[0].n_nonlinear)),
                       d2=np.stack([s.e for s in system]),
                       fired_updates=np.zeros(len(system), dtype=np.int64))


# ---------------------------------------------------------------------------
# steps

def sync_step(state: SolverState, system: StationaritySystem, gamma=1.0) -> None:
    """One synchronous update in place: c2 = m(d2), then d2 = G' c2 + e.  A
    stack of trials ticks on a system of their G' and e stacked, with gamma
    a float or a (T, 1) column, each row bitwise its one-state update."""
    state.c2[...] = system.m(state.d2, gamma)
    np.matmul(system.Gprime, state.c2[..., None], out=state.d2[..., None])
    state.d2 += system.e
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


def coordinate_kernel(system: StationaritySystem, delay: int = 0,
                      ) -> Callable[..., None]:
    """fire(d2, c2, coords, ends, gamma, keep=(), snaps=None): the incremental
    updates of randomk, sweep and the distributed workers on one state's
    vectors, a window of ticks per call.

    The window issues the lookups ends[0], ends[0] + 1, ... of a count that
    runs on from call to call; `coords` holds their coordinates, tick w
    issues those up to ends[w + 1], and lookup j takes gamma[j // K], gamma
    of the unit of K lookups it is issued in.  After tick w, where keep[w] is
    set, d2 and c2 are written into snaps[w] (a (2, K) row pair).  d2 and c2
    are written in place; c2 is worked on as a list, converted once a call.

    Coordinate k reads d_hat = d2(k) and c_hat = c2(k) when it is fired; its
    delta = eta (m_k(d_hat) - c_hat), with ARock's eta = 1 / (1 + 2 delay /
    sqrt(K)) (1 without a delay), is applied `delay` reads later: d2 +=
    G'[:, k] delta and c2(k) += delta.  Reads in flight wait in a ring carried
    from call to call, whose empty slots hold a zero delta.  A zero delta
    writes nothing.  m_k is the map table's float form of k's base map, so
    each update is bitwise distributed.worker_update's.  The caller counts
    the updates.
    """
    K = system.n_nonlinear
    eta = 1.0 / (1.0 + 2.0 * delay / math.sqrt(K))
    columns = [system.Gprime[:, k] for k in range(K)]   # views
    sign = system.nl_sign.tolist()
    base = [system.base_maps(k)[1] for k in range(K)]   # float forms
    ring_k, ring_delta = [0] * (delay + 1), [0.0] * (delay + 1)
    slot, step = 0, np.empty(K)
    # each delta reaches the column product through a 0-d array: a Python
    # float operand costs the ufunc about 0.2 us more, for the same product
    scale = np.empty(())
    add, multiply = np.add, np.multiply

    def fire(d2: np.ndarray, c2_out: np.ndarray, coords, ends, gamma,
             keep=(), snaps: np.ndarray | None = None) -> None:
        nonlocal slot
        c2 = c2_out.tolist()
        start = a = ends[0]
        for w, b in enumerate(ends[1:]):
            while a < b:   # the tick's lookups issued in one unit
                c = min(b, a - a % K + K)
                g = gamma[a // K]
                # one loop per case, so that an update without a delay pays
                # no test for one, nor its eta of 1
                if not delay:
                    for k in coords[a - start:c - start]:
                        delta = (g * base[k](d2.item(k))) * sign[k] - c2[k]
                        if delta != 0.0:
                            scale[()] = delta
                            add(d2, multiply(columns[k], scale, step), d2)
                            c2[k] += delta
                else:
                    for k in coords[a - start:c - start]:
                        ring_k[slot] = k
                        ring_delta[slot] = eta * ((g * base[k](d2.item(k)))
                                                  * sign[k] - c2[k])
                        slot = slot + 1 if slot < delay else 0
                        delta = ring_delta[slot]   # the oldest read in flight
                        if delta != 0.0:
                            k = ring_k[slot]
                            scale[()] = delta
                            add(d2, multiply(columns[k], scale, step), d2)
                            c2[k] += delta
                a = c
            if keep and keep[w]:
                snaps[w, 0] = d2
                snaps[w, 1] = c2
        c2_out[:] = c2

    return fire


def incremental_step(state: SolverState, system: StationaritySystem, k: int,
                     gamma: float = 1.0) -> None:
    """Fire coordinate k against the current state (column-increment form)."""
    coordinate_kernel(system)(state.d2, state.c2, (k,), (0, 1), (gamma,))
    state.fired_updates += 1


def sweep_step(state: SolverState, system: StationaritySystem, gamma: float = 1.0) -> None:
    """One in-order pass of incremental updates (each sees the latest d2)."""
    K = state.n_coords
    coordinate_kernel(system)(state.d2, state.c2, range(K), (0, K), (gamma,))
    state.fired_updates += K


# A Bernoulli tick of one state adds only the fired columns of G' when K is
# at least _FIRED_ROWS_K and at most K // _FIRED_ROWS_SHARE coordinates fire.
# Per tick, BLAS on one thread, fired columns against the full product: K =
# 512 28 against 55 us at p = 0.2, 82 against 59 at p = 0.5; K = 256 13
# against 17 at p = 0.2; K = 128 10.0 against 9.4 at p = 0.2 (README,
# performance notes)
_FIRED_ROWS_K = 256
_FIRED_ROWS_SHARE = 4


def async_tick(state: SolverState, system: StationaritySystem,
               fires: np.ndarray, gamma=1.0) -> int:
    """Bernoulli tick in place: c2 takes m(d2) only where `fires`, the tick's
    draw rng.random(K) < p for firing probability p (a row per trial of a
    stack), is True, and d2 follows.

    A tick of one state with K >= _FIRED_ROWS_K coordinates, at most K //
    _FIRED_ROWS_SHARE of them fired, adds only the fired columns' increments,
    d2 += G'[:, F] (m(d2)[F] - c2[F]), gathered as rows of system.GprimeT; it
    writes nothing when none fires.  Every other tick, a stack's included,
    rebuilds d2 = G' c2 + e as sync_step does, so p = 1 is bitwise sync.
    Returns the number of coordinates that fired.  A stack whose
    fired_updates is an array (init_state's) adds each trial's count to its
    entry; one state, or a stack that keeps one number (iterate's live stack,
    whose counts the run loop takes from the draws), adds the total."""
    K, fired = fires.shape[-1], int(np.count_nonzero(fires))
    if K >= _FIRED_ROWS_K and fires.ndim == 1 and fired * _FIRED_ROWS_SHARE <= K:
        at = fires.nonzero()[0]
        if len(at):
            new = system.m(state.d2, gamma)[at]
            delta = new - state.c2[at]
            state.c2[at] = new
            state.d2 += delta @ system.GprimeT[at]
    else:
        np.copyto(state.c2, system.m(state.d2, gamma), where=fires)
        np.matmul(system.Gprime, state.c2[..., None], out=state.d2[..., None])
        state.d2 += system.e
    if fires.ndim > 1 and isinstance(state.fired_updates, np.ndarray):
        state.fired_updates += fires.sum(axis=-1)   # a count per trial
    else:
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


# fired updates between two monitoring passes of iterate, and the fewest units
# a window takes: a trial that meets tol fires on to the end of its window
# before it is rolled back to the row that met it, and a window's bookkeeping
# (a few dozen small numpy calls) costs a fifth of a unit at K = 512
_ROW_UPDATES = 512
_ROW_UNITS = 4


def iterate(systems: list[StationaritySystem], state: SolverState,
            advance: Callable, max_equiv_iters: float, tol: float,
            references: list | None = None) -> list[Trajectory]:
    """The run loop of every schedule, over a stack of trials; returns each
    trial's trajectory and sets state.fired_updates and state.converged.

    Trial i runs on systems[i] from row i of the (T, K) stack `state`, and
    ends as that row, written in place.  Its budget is
    ceil(max_equiv_iters * K) fired updates.  A row is recorded and tol
    checked at the start and after each tick that ends a unit of K updates.
    A trial stops at its first row at tol (converged) or after the tick
    that reaches its budget.

    The live trials tick in lockstep, a window at a time: advance(live,
    trial, fired, budget, units) gets their stack, their indices, their
    fired_updates and the window's length, max(_ROW_UNITS, _ROW_UPDATES //
    K) units, and returns `marks`, their fired_updates at the window's start
    and after each of its W ticks ((n, W + 1)), and run(keep, snaps), which
    applies the window's ticks to the stack in place and writes the stack
    into snaps[w + 1] ((2, n, K): d2, then c2) after each tick w whose
    keep[w] is set.  The window's rows are measured after it, from those
    snapshots: one Trajectory.measure call per owner
    (trials that share a system and a reference object), each row bitwise
    its one-state value.  A trial that stopped inside the window is rolled
    back to its stop, fired_updates included, and leaves the stack.
    """
    T, K = len(systems), state.n_coords
    budget = math.ceil(max_equiv_iters * K - 1e-9)
    units = max(_ROW_UNITS, _ROW_UPDATES // K)
    references = references or [None] * T
    seen = {}   # trials that share a system and a reference share an owner
    owner = np.array([seen.setdefault((id(s), id(r)), i)
                      for i, (s, r) in enumerate(zip(systems, references))])
    refs = [reference_coordinates(s, r) for s, r in zip(systems, references)]
    fired = state.fired_updates.astype(np.int64)
    converged = np.zeros(T, dtype=bool)
    kept = []   # (trial, fired, objective, residual, dist) of the rows kept
    trial = np.argsort(owner, kind="stable")   # live, each owner's together
    dc = np.stack([state.d2[trial], state.c2[trial]])   # the live d2 and c2
    count = fired[trial]   # the live trials' fired_updates
    while len(trial):
        live = SolverState(c2=dc[1], d2=dc[0])   # ticked in place
        marks, run = advance(live, trial, count, budget, units)
        W = marks.shape[1] - 1
        unit, spent = marks // K, marks >= budget
        # the rows at marks[:, j]: at the start, then at the ticks that end a
        # unit, none after the budget's end; each trial stops at the first
        # mark at its budget, or not in this window (W + 1)
        row = np.empty(marks.shape, dtype=bool)
        row[:, 0] = not kept   # the first window records each trial's row 0
        row[:, 1:] = (unit[:, 1:] > unit[:, :-1]) & ~spent[:, :-1]
        stop = W + 1 - spent.sum(axis=1)
        # the stack is kept at the start and after the ticks a trial needs
        keep_at = (row[:, 1:] | spent[:, 1:] & ~spent[:, :-1]).any(axis=0)
        snaps = np.empty((W + 1, *dc.shape))
        snaps[0] = dc
        run(keep_at.tolist(), snaps)
        i, j = np.nonzero(row)   # each trial's rows in order
        if len(i):
            rows = [trial[i], marks[i, j], *np.empty((3, len(i)))]
            own = owner[rows[0]]   # each owner's rows measured together
            cuts = [0, len(i)]
            if len(seen) > 1:
                cuts[1:1] = (np.flatnonzero(own[1:] != own[:-1]) + 1).tolist()
            for a, b in zip(cuts, cuts[1:]):
                rows[2][a:b], rows[3][a:b], rows[4][a:b] = Trajectory.measure(
                    systems[own[a]], snaps[j[a:b], 0, i[a:b]],
                    snaps[j[a:b], 1, i[a:b]], refs[own[a]])
            met = rows[3] <= tol
            if met.any():   # a trial stops at its first row at tol
                first = np.full(len(trial), W + 1)
                np.minimum.at(first, i[met], j[met])
                converged[trial[first <= W]] = True
                stop = np.minimum(stop, first)
                rows = [a[j <= stop[i]] for a in rows]
            kept.append(rows)
        gone = stop <= W
        count = marks[:, -1]
        if gone.any():   # rolled back to their stops, they leave the stack
            i, t = np.flatnonzero(gone), trial[gone]
            state.d2[t], state.c2[t] = snaps[stop[i], 0, i], snaps[stop[i], 1, i]
            fired[t] = marks[i, stop[i]]
            keep = ~gone
            trial, count, dc = trial[keep], count[keep], dc[:, keep]

    state.fired_updates, state.converged = fired, converged
    trial, at, objective, residual, dist = (np.concatenate(a) for a in zip(*kept))
    order = np.argsort(trial, kind="stable")
    bounds = np.cumsum(np.bincount(trial, minlength=T))[:-1]
    columns = [np.split(a[order], bounds)
               for a in (at / K, objective, residual, dist)]
    return [Trajectory(*(col[t].tolist() for col in columns)) for t in range(T)]


def _engine_step(systems: list[StationaritySystem],
                 schedules: list[ScheduleConfig], state: SolverState):
    """iterate's advance for trials of one engine mode: trial i follows
    schedules[i] on systems[i] from row i of `state`, drawing from
    default_rng(seed), or from [seed, fired_updates] when it resumes; W > 1
    distributed workers draw from default_rng([seed, i]), one stream each.

    A window is `units` ticks of K updates (randomk and distributed fire to
    each unit end, and stop at the budget), or as many Bernoulli ticks as the
    largest p takes to fire that many units on average.  A tick takes gamma
    of the unit it starts in.  sync and bernoulli trials tick through
    sync_step or async_tick: below _FIRED_ROWS_K coordinates, several live
    trials as one stack on a system of their G' and e stacked, restacked when
    one leaves; one live trial, or any number from _FIRED_ROWS_K up, each on
    its own system and its row of the stack, one after another, which is
    where async_tick takes its fired columns.  The other modes make one
    coordinate_kernel call per trial per window, one trial after another,
    with the window's lookups, the issue count each tick ends at and the
    trial's gamma by unit.  Lookup j of W workers is worker j % W's next
    draw; it is issued W - 1 lookups ahead of the update that applies it and
    takes gamma of the unit it is issued in.
    """
    mode, K = schedules[0].mode, state.n_coords
    fired = state.fired_updates.tolist()
    delays = [s.workers - 1 if mode == "distributed" else 0 for s in schedules]
    rngs = [[np.random.default_rng([s.seed, i]) for i in range(s.workers)] if d
            else [np.random.default_rng([s.seed, f] if f else s.seed)]
            for s, f, d in zip(schedules, fired, delays)]
    # gamma by unit, one table row per distinct schedule, each unit tabulated
    # once as it is reached, and its rows as lists for the coordinate modes
    gammas = {}
    gamma_row = np.array([gammas.setdefault(s.gamma, len(gammas))
                          for s in schedules])
    table, table_lists = np.empty((len(gammas), 0)), []
    stacked = None   # a system of the live trials' G' and e, stacked
    if mode not in ("sync", "bernoulli"):
        kernels = [coordinate_kernel(s, d) for s, d in zip(systems, delays)]

    def advance(live: SolverState, trial: np.ndarray, fired: np.ndarray,
                budget: int, units: int):
        nonlocal table, table_lists, stacked
        fired = fired[:, None]
        if mode == "bernoulli":
            ticks = math.ceil(units / max(schedules[t].p for t in trial.tolist()))
            fires = np.stack([rngs[t][0].random((ticks, K)) < schedules[t].p
                              for t in trial.tolist()])
            marks = np.cumsum(np.concatenate([fired, fires.sum(axis=2)], axis=1),
                              axis=1)
        else:
            marks = fired + K * np.arange(units + 1)
            if mode in ("randomk", "distributed"):   # to unit ends and the budget
                marks[:, 1:] = np.minimum(marks[:, 1:] - fired % K, budget)
        unit = marks[:, :-1] // K   # gamma(unit + 1) is table[:, unit]
        top = int(unit.max())
        if max(delays):   # lookups are issued up to W - 1 past the last update
            top = max(top, (int(marks[:, -1].max()) + max(delays) - 1) // K)
        if top >= table.shape[1]:
            n, done = max(top + 1, 2 * table.shape[1]), table.shape[1]
            table = np.hstack([table, [[fn(u) for u in range(done + 1, n + 1)]
                                       for fn in gammas]])
            table_lists = table.tolist()

        if mode in ("sync", "bernoulli"):
            gamma = table[gamma_row[trial][:, None], unit]
            # (state, system, gamma by tick, draws by tick) of each tick call
            if len(trial) == 1 or K >= _FIRED_ROWS_K:   # each on its own row
                draws = fires if mode == "bernoulli" else [None] * len(trial)
                ticked = [(SolverState(c2=live.c2[i], d2=live.d2[i]), systems[t],
                           g, f) for i, (t, g, f) in enumerate(zip(
                               trial.tolist(), gamma.tolist(), draws))]
            else:   # one stack, each trial's product with its own G'
                if stacked is None or len(stacked.e) != len(trial):
                    stacked = replace(systems[0], **{
                        name: np.stack([getattr(systems[t], name) for t in trial])
                        for name in ("Gprime", "e")})
                ticked = [(live, stacked, gamma.T[..., None],
                           fires.swapaxes(0, 1) if mode == "bernoulli" else None)]
            def run(keep: list, snaps: np.ndarray) -> None:
                for w, kept in enumerate(keep):
                    for rows, system, g, f in ticked:
                        if f is None:
                            sync_step(rows, system, g[w])
                        else:
                            async_tick(rows, system, f[w], g[w])
                    if kept:
                        snaps[w + 1, 0], snaps[w + 1, 1] = live.d2, live.c2

            return marks, run

        # each trial's lookups of the window, issued from 0 or delay ahead of
        # its updates, and the issue index each tick's lookups end at; a sweep
        # counts from the unit its first pass starts in, so that each pass
        # takes that unit's gamma
        fire = []
        for i, t in enumerate(trial.tolist()):
            delay, streams = delays[t], rngs[t]
            if mode == "sweep":
                ends = (marks[i] - fired[i, 0] % K).tolist()
                coords = list(range(K)) * units
            else:   # lookup j is worker j % W's
                ends = (marks[i] + delay).tolist()
                if not fired[i, 0]:   # the first lookups
                    ends[0] = 0
                coords = np.empty(ends[-1] - ends[0], dtype=np.int64)
                for worker, rng in enumerate(streams):
                    mine = coords[(worker - ends[0]) % len(streams)::len(streams)]
                    mine[:] = rng.integers(K, size=len(mine))
                coords = coords.tolist()
            fire.append((kernels[t], live.d2[i], live.c2[i], coords, ends,
                         table_lists[gamma_row[t]]))

        def run(keep: list, snaps: np.ndarray) -> None:
            for i, (kernel, *window) in enumerate(fire):
                kernel(*window, keep, snaps[1:, :, i])

        return marks, run

    return advance


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
    reached within budget.  One trial of iterate.  A run of several workers
    does not resume: the state does not hold its lookups in flight.
    """
    if state is None:
        state = init_state(system)
    elif state.fired_updates and schedule.mode == "distributed" \
            and schedule.workers > 1:
        raise ValueError("a distributed run of several workers cannot resume")
    stack = SolverState(state.c2[None], state.d2[None],
                        np.array([state.fired_updates]))
    traj, = iterate([system], stack, _engine_step([system], [schedule], stack),
                    max_equiv_iters, tol, [reference])
    state.fired_updates = int(stack.fired_updates[0])
    state.converged = bool(stack.converged[0])
    return state, traj


# ---------------------------------------------------------------------------
# stacked trials

def trial_bytes(system: StationaritySystem, n_schedules: int,
                max_equiv_iters: float) -> int:
    """An upper estimate of the bytes one trial holds in run_trials, run
    under n_schedules schedules: its operators G, G' and D; for each
    schedule, a window of draws and row snapshots (about 32 bytes a
    coordinate a tick, over 5 * _ROW_UPDATES coordinate-ticks: Bernoulli
    firing at p = 0.2) and a trajectory of one row a unit (about 256 bytes a
    row while it is assembled).  Below _FIRED_ROWS_K coordinates each
    schedule's trial ticks on a stacked copy of G'; from it up the trials
    tick one by one on their own systems, and the system holds G'^T."""
    operators = system.G.nbytes + system.Gprime.nbytes + system.D.nbytes
    copies = 1 if system.n_nonlinear >= _FIRED_ROWS_K else n_schedules
    window = 32 * 5 * max(_ROW_UPDATES, system.n_nonlinear)
    rows = int(max_equiv_iters) + 1
    return (operators + copies * system.Gprime.nbytes
            + n_schedules * (window + rows * 256))


def run_trials(systems: list[StationaritySystem],
               schedules: list[ScheduleConfig],
               max_equiv_iters: float = 1000.0, tol: float = 1e-8,
               references: list | None = None,
               ) -> list[tuple[SolverState, Trajectory]]:
    """Run trials of one mode, on systems of one shape (the same kind and
    side on each nonlinear coordinate, which is what the stack shares), as
    one stack of iterate.

    Trial i is run(systems[i], schedules[i], max_equiv_iters, tol,
    references[i]) from the cold start, and its (state, trajectory) is
    bitwise that run's.  Below _FIRED_ROWS_K coordinates sync and bernoulli
    trials tick as one (T, K) array, each trial's product with its own G';
    from it up each trial ticks on its own row, as run does.  Trials that
    share a system and a reference (the same objects) are measured together.
    """
    if not systems or len(systems) != len(schedules) or (
            references is not None and len(references) != len(systems)):
        raise ValueError("run_trials needs one schedule (and one reference, "
                         "if any) per system, and at least one trial")
    s0 = systems[0]
    if len({s.mode for s in schedules}) > 1 or any(
            not (np.array_equal(s.nl_sign, s0.nl_sign)
                 and np.array_equal(s.nl_is_l1, s0.nl_is_l1)) for s in systems):
        raise ValueError("run_trials needs trials of one mode, on systems of "
                         "one shape")
    state = init_state(systems)
    trajectories = iterate(systems, state,
                           _engine_step(systems, schedules, state),
                           max_equiv_iters, tol, references)
    return [(SolverState(c2, d2, int(fired), bool(converged)), traj)
            for c2, d2, fired, converged, traj in zip(
                state.c2, state.d2, state.fired_updates, state.converged, trajectories)]


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
