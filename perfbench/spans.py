"""Span recorder for the traced benchmark run, and the per-layer metrics.

`Tracer.install()` rebinds the public functions and methods listed in
`TRACED` to wrappers that record one span per call: a name, start and end
(`time.perf_counter`), the id of the enclosing span, the thread and the
benchmark round.  Spans are kept in typed arrays in memory, one buffer per
thread, and written to one `.npz` file when the run ends; the workload and
run id are stored once in that file, for all of its spans.

The program itself is not changed: tracing happens only from these files,
around calls into the layers, so the untraced run measures the program as
users run it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from array import array
from collections import Counter

import numpy as np

# Public functions and methods that get a span, by layer (module of asynclp).
# Left out on purpose, because a span costs about 5 us here: AtomicCell and
# AtomicCounter methods (a span per cell increment would cost more than the
# increment; distributed.cell_adds is computed from the deltas instead), and
# StationaritySystem.m and recover_affine, which run inside every tick and
# every recovery and would add 40% more spans on a 10x20 ladder.
TRACED = {
    "problems": ["gen_chebyshev", "gen_basis_pursuit", "chebyshev_encode",
                 "basis_pursuit_encode", "chebyshev_recover",
                 "basis_pursuit_recover"],
    "formulation": ["validate_async_form", "AsyncFormProblem.objective_value"],
    "stationarity": ["build_G", "reduce", "build_system",
                     "StationaritySystem.m_scalar",
                     "StationaritySystem.residual",
                     "StationaritySystem.recover_variables"],
    "engine": ["run", "async_tick", "sync_step", "sweep_step",
               "incremental_step"],
    "distributed": ["run_distributed", "init_array", "worker_update",
                    "AssocArray.snapshot_d2", "AssocArray.snapshot_c2"],
    "oracle": ["solve_chebyshev_reference", "solve_vertex_enum",
               "solve_inequality_form"],
    "cli": ["main", "cmd_experiment", "encode"],
}

TICKS = ("engine.async_tick", "engine.sync_step", "engine.sweep_step",
         "engine.incremental_step")
MONITOR = ("stationarity.StationaritySystem.residual",
           "stationarity.StationaritySystem.recover_variables",
           "formulation.AsyncFormProblem.objective_value")


# Counters read from arguments and results at the layer boundary, so that the
# ratios are measured where the work happens.

def _count_tick(counters, args, result):
    K = args[0].n_coords
    counters["engine.ticks"] += 1
    counters["engine.fired"] += result
    counters["engine.slots"] += K
    counters["engine.matvec_bytes"] += 8 * K * K


def _count_run(counters, args, result):
    counters["engine.fired_updates"] += result[0].fired_updates


def _count_update(counters, args, result):
    counters["distributed.updates"] += 1
    if result != 0.0:
        counters["distributed.nonzero"] += 1
        counters["distributed.cell_adds"] += args[0].n_coords + 1


def _count_distributed(counters, args, result):
    updates = [r.updates for r in result[3]]
    if updates:
        counters["distributed.runs"] += 1
        counters["distributed.balance_sum"] += min(updates) / max(updates)


def _count_reduce(counters, args, result):
    counters["stationarity.systems"] += 1
    counters["stationarity.operator_bytes"] += sum(
        a.nbytes for a in (result.G, result.Gprime, result.G11, result.G12,
                           result.G21))


HOOKS = {
    "engine.async_tick": _count_tick,
    "engine.run": _count_run,
    "distributed.worker_update": _count_update,
    "distributed.run_distributed": _count_distributed,
    "stationarity.reduce": _count_reduce,
}


class _Buffer:
    """Spans and counters of one thread."""

    def __init__(self, index: int, root: int):
        self.index = index
        self.root = root          # parent of spans opened with an empty stack
        self.stack: list[int] = []
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.rounds = array("i")
        self.counters: Counter = Counter()


class Tracer:
    """Records spans around the calls listed in TRACED while installed."""

    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.round = 0            # index of the benchmark round under way
        self.names: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._main: _Buffer | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            pass
        with self._lock:
            # Only the main thread starts threads in asynclp (the distributed
            # workers), so a new thread's spans hang under the span the main
            # thread has open, which is the run_distributed call.
            main = self._main
            root = main.stack[-1] if main is not None and main.stack else -1
            buf = _Buffer(len(self._buffers), root)
            self._buffers.append(buf)
            if main is None:
                self._main = buf
        self._local.buf = buf
        return buf

    def _wrap(self, fn, name_id: int, hook):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = tracer._buffer()
            stack = buf.stack
            parent = stack[-1] if stack else buf.root
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                buf.ids.append(sid)
                buf.parents.append(parent)
                buf.names.append(name_id)
                buf.starts.append(t0)
                buf.ends.append(t1)
                buf.rounds.append(tracer.round)
            if hook is not None:
                hook(buf.counters, args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every name in TRACED, in every asynclp module that holds it."""
        self._buffer()   # the installing thread is the main thread
        modules = {m: importlib.import_module(f"asynclp.{m}") for m in TRACED}
        for layer, attrs in TRACED.items():
            for attr in attrs:
                owner = modules[layer]
                *path, last = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[last]
                name = f"{layer}.{attr}"
                self.names.append(name)
                wrapper = self._wrap(original, len(self.names) - 1,
                                     HOOKS.get(name))
                self._rebind(owner, last, original, wrapper)
                if not path:
                    # `from .stationarity import build_system` and the like
                    for other in modules.values():
                        if other is not owner and other.__dict__.get(last) is original:
                            self._rebind(other, last, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results -------------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        """All spans, ordered by id (a parent's id is below its children's)."""
        bufs = self._buffers
        cols = {
            "id": np.concatenate([np.frombuffer(b.ids, np.int64) for b in bufs]),
            "parent": np.concatenate([np.frombuffer(b.parents, np.int64) for b in bufs]),
            "name": np.concatenate([np.frombuffer(b.names, np.int32) for b in bufs]),
            "start": np.concatenate([np.frombuffer(b.starts, np.float64) for b in bufs]),
            "end": np.concatenate([np.frombuffer(b.ends, np.float64) for b in bufs]),
            "round": np.concatenate([np.frombuffer(b.rounds, np.int32) for b in bufs]),
            "thread": np.concatenate([np.full(len(b.ids), b.index, np.int32)
                                      for b in bufs]),
        }
        order = np.argsort(cols["id"], kind="stable")
        return {k: v[order] for k, v in cols.items()}

    def counters(self) -> Counter:
        return sum((b.counters for b in self._buffers), Counter())

    def write(self, path, cols: dict[str, np.ndarray]) -> None:
        meta = {"workload": self.workload, "run_id": self.run_id,
                "clock": "time.perf_counter, seconds"}
        np.savez(path, names=np.array(self.names), meta=np.array(json.dumps(meta)),
                 **cols)


def _has_ancestor(pidx: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """For each span, whether any proper ancestor satisfies mask."""
    has = np.zeros(len(pidx), dtype=bool)
    cur = pidx.copy()
    live = np.flatnonzero(cur >= 0)
    while len(live):
        has[live] |= mask[cur[live]]
        cur[live] = pidx[cur[live]]
        live = live[cur[live] >= 0]
    return has


def _covered(starts: np.ndarray, ends: np.ndarray) -> float:
    """Length of the union of intervals."""
    order = np.argsort(starts)
    total, hi = 0.0, -np.inf
    for s, e in zip(starts[order], ends[order]):
        if s > hi:
            total += e - s
            hi = e
        elif e > hi:
            total += e - hi
            hi = e
    return total


def layer_metrics(tracer: Tracer, rounds: int, cols: dict[str, np.ndarray],
                  output_bytes: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans and counters of a traced run.

    `_us` metrics and `build_G_s`/`reduce_s` are means per call;
    `operator_bytes` is per system and `matvec_bytes_per_tick` per tick; the
    other `_s`, count and byte metrics are per round (totals divided by the
    number of rounds).  `output_bytes` is measured by the workload.  A metric
    whose layer the workload never calls reads 0.
    """
    # Spans are selected by their integer name codes: a string array of
    # every span's name would take hundreds of MB on a traced cheb-dist run.
    code = cols["name"]
    name_ids = {n: i for i, n in enumerate(tracer.names)}
    layer_of = np.array([n.split(".", 1)[0] for n in tracer.names])
    dur = cols["end"] - cols["start"]
    ids, parent = cols["id"], cols["parent"]
    pidx = np.searchsorted(ids, parent)
    pidx[parent < 0] = -1
    counters = tracer.counters()
    per_round = 1.0 / max(rounds, 1)

    def is_(*which):
        return np.isin(code, [name_ids[w] for w in which])

    def in_layer(*layers):
        return np.isin(code, np.flatnonzero(np.isin(layer_of, layers)))

    def mean_us(*which):
        sel = is_(*which)
        return float(dur[sel].mean() * 1e6) if sel.any() else 0.0

    def mean_s(*which):
        sel = is_(*which)
        return float(dur[sel].mean()) if sel.any() else 0.0

    def self_time(sel: np.ndarray) -> float:
        """Span time of sel minus the time its direct children cover."""
        kids = np.flatnonzero(pidx >= 0)
        kids = kids[sel[pidx[kids]]]
        covered = float(dur[kids].sum())
        # children of one parent in one thread never overlap; children in
        # several worker threads do, so take the union of their intervals
        n = len(ids)
        lo = np.full(n, np.iinfo(np.int32).max)
        hi = np.full(n, -1)
        np.minimum.at(lo, pidx[kids], cols["thread"][kids])
        np.maximum.at(hi, pidx[kids], cols["thread"][kids])
        for p in np.flatnonzero((hi >= 0) & (lo != hi)):
            m = kids[pidx[kids] == p]
            covered += _covered(cols["start"][m], cols["end"][m]) - float(dur[m].sum())
        return float(dur[sel].sum()) - covered

    engine_run = is_("engine.run")
    eng = in_layer("engine")
    monitor = is_(*MONITOR) & _has_ancestor(pidx, engine_run) \
        & ~_has_ancestor(pidx, is_(*MONITOR))
    run_time = float(dur[engine_run].sum())

    inner = in_layer("engine", "stationarity", "oracle")
    cli = in_layer("cli")
    cli_top = cli & ~_has_ancestor(pidx, cli)
    under_cli = _has_ancestor(pidx, cli)
    cli_inner = inner & under_cli & ~_has_ancestor(pidx, inner)

    ora = in_layer("oracle")
    ora_top = ora & ~_has_ancestor(pidx, ora)

    updates = counters["distributed.updates"]
    return {
        "stationarity.build_G_s": (mean_s("stationarity.build_G"), "s"),
        "stationarity.reduce_s": (mean_s("stationarity.reduce"), "s"),
        "stationarity.operator_bytes": (
            counters["stationarity.operator_bytes"]
            / max(counters["stationarity.systems"], 1), "bytes"),
        "stationarity.residual_us": (
            mean_us("stationarity.StationaritySystem.residual"), "us"),
        "stationarity.recover_us": (
            mean_us("stationarity.StationaritySystem.recover_variables"), "us"),
        "stationarity.m_scalar_us": (
            mean_us("stationarity.StationaritySystem.m_scalar"), "us"),
        "formulation.objective_us": (
            mean_us("formulation.AsyncFormProblem.objective_value"), "us"),
        "engine.tick_us": (mean_us(*TICKS), "us"),
        "engine.matvec_bytes_per_tick": (
            counters["engine.matvec_bytes"] / max(counters["engine.ticks"], 1),
            "bytes"),
        "engine.fired_ratio": (
            counters["engine.fired"] / max(counters["engine.slots"], 1), "ratio"),
        "engine.us_per_update": (
            run_time * 1e6 / counters["engine.fired_updates"]
            if counters["engine.fired_updates"] else 0.0, "us"),
        "engine.self_s": (self_time(eng) * per_round, "s"),
        "engine.monitor_share": (
            float(dur[monitor].sum()) / run_time if run_time else 0.0, "ratio"),
        "distributed.update_us": (mean_us("distributed.worker_update"), "us"),
        "distributed.snapshot_us": (
            mean_us("distributed.AssocArray.snapshot_d2",
                    "distributed.AssocArray.snapshot_c2"), "us"),
        "distributed.cell_adds": (
            counters["distributed.cell_adds"] * per_round, "count"),
        "distributed.zero_delta_ratio": (
            (updates - counters["distributed.nonzero"]) / updates
            if updates else 0.0, "ratio"),
        "distributed.worker_balance": (
            counters["distributed.balance_sum"] / counters["distributed.runs"]
            if counters["distributed.runs"] else 0.0, "ratio"),
        "oracle.calls": (float(ora_top.sum()) * per_round, "count"),
        "oracle.reference_s": (float(dur[ora_top].sum()) * per_round, "s"),
        "cli.build_system_calls": (
            float((is_("stationarity.build_system") & under_cli).sum())
            * per_round, "count"),
        "cli.output_bytes": (output_bytes, "bytes"),
        "cli.self_s": (
            (float(dur[cli_top].sum()) - float(dur[cli_inner].sum())) * per_round,
            "s"),
    }
