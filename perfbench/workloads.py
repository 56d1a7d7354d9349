"""The benchmark's workloads: inputs, set-up, one round of solves, checks.

Every workload runs a fixed ladder of instances.  `--seed` draws a random
rotation of each instance: the polytope's coordinate frame for the Chebyshev
ladder (A -> A Q) and the measurement frame for basis pursuit
(A, b -> U A, U b).  The program sees different numbers on every seed, but
the reduced fixed-point system is the same in exact arithmetic, so the work,
the answers and the iteration counts are the same; only rounding differs.
Drawing fresh instances instead would move the summed iteration counts by
far more than any bound (one 10x20 instance in thirty needs 15,500
equivalent iterations where the others need 800-3,000).

The battery runs the CLI, which draws its own instances from its `--seed`
(trial t uses seed t); there the ladder is fixed and `--seed` orders the
firing-probability groups.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from asynclp import cli, distributed, engine, problems, stationarity

import checks

TOL = 1e-8


@dataclass
class Round:
    """One pass over a workload's instance set: per-instance set-up and solve
    times, summed iteration counts, and answers reduced to what the checks
    after the run need (so memory does not grow with the number of rounds)."""

    setup_s: list = field(default_factory=list)
    solve_s: list = field(default_factory=list)
    equiv_iters: float = 0.0
    attempted: int = 0
    failed: int = 0
    answers: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    output_bytes: int = 0


def _rotation(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random orthogonal n x n matrix."""
    Q, R = np.linalg.qr(rng.normal(size=(n, n)))
    return Q * np.sign(np.diag(R))


def set_up(encode: str, inst, reps: int, label: str):
    """problems.<encode>, build_G and reduce, `reps` times; returns the median
    time, the last system and the orthogonality errors of every system built
    (checked outside the timed region).  Calls go through the module
    attributes, so that the traced run sees them."""
    times, errors = [], []
    for _ in range(reps):
        t0 = perf_counter()
        problem = getattr(problems, encode)(inst)
        system = stationarity.reduce(stationarity.build_G(problem.B), problem)
        times.append(perf_counter() - t0)
        errors += checks.orthogonal(label, system.G)
    return float(np.median(times)), system, errors


class Ladder:
    """A fixed ladder of instances.  Each round sets every instance up
    (`setup_reps` times, timed apart) and solves it once, by default with
    engine.run under Bernoulli firing; the schedule seed is the instance's
    ladder seed, as in the CLI."""

    setup_reps = 100

    def __init__(self, instances: list, p: float, budget: float):
        self.instances = instances        # [(ladder seed, instance)]
        self.p = p
        self.budget = budget

    def solve(self, seed: int, system):
        """One timed solve: (seconds, converged, equivalent iterations, d2, c2)."""
        schedule = engine.ScheduleConfig(mode="bernoulli", p=self.p, seed=seed,
                                         homotopy="bp")
        t0 = perf_counter()
        state, _ = engine.run(system, schedule, max_equiv_iters=self.budget,
                              tol=TOL)
        elapsed = perf_counter() - t0
        return (elapsed, state.converged, state.equivalent_iterations,
                state.d2, state.c2)

    def round(self) -> Round:
        r = Round()
        for seed, inst in self.instances:
            setup_s, system, errors = set_up(self.encode, inst, self.setup_reps,
                                             f"instance {seed}")
            r.errors += errors
            elapsed, converged, iters, d2, c2 = self.solve(seed, system)
            r.setup_s.append(setup_s)
            r.solve_s.append(elapsed)
            r.attempted += 1
            r.equiv_iters += iters
            if converged:
                value, errors = self.answer(inst, system, d2, c2)
                r.errors += [f"instance {seed}: {e}" for e in errors]
            else:
                r.failed += 1
                value = None
            r.answers.append(value)
        return r

    def check(self, rounds: list[Round]) -> list[str]:
        """HiGHS references, after the measured rounds."""
        errors = [e for r in rounds for e in r.errors]
        refs = [self.reference(inst) for _, inst in self.instances]
        for i, r in enumerate(rounds):
            for (seed, _), ref, value in zip(self.instances, refs, r.answers):
                if value is not None:
                    errors += checks.close(
                        f"round {i} instance {seed} {self.answer_name}", value, ref)
        return errors


class ChebyshevDistributed(Ladder):
    """Inscribed-ball ladder solved by run_distributed."""

    def __init__(self, seed, N, M, ladder, workers, budget):
        rng = np.random.default_rng(seed)
        instances = []
        for s in ladder:
            inst = problems.gen_chebyshev(N, M, seed=s)
            instances.append((s, problems.ChebyshevInstance(
                A=inst.A @ _rotation(N, rng), b=inst.b)))
        super().__init__(instances, p=None, budget=budget)
        self.workers = workers

    encode = "chebyshev_encode"

    answer_name = "radius"

    def answer(self, inst, system, d2, c2):
        center, radius = problems.chebyshev_recover(system, c2)
        return radius, checks.ball_inside(inst.A, inst.b, center, radius)

    def reference(self, inst):
        return checks.highs_radius(inst.A, inst.b)

    def solve(self, seed, system):
        t0 = perf_counter()
        d2, c2, traj, _, converged = distributed.run_distributed(
            system, workers=self.workers, max_equiv_iters=self.budget, tol=TOL,
            seed=seed, homotopy="bp")
        elapsed = perf_counter() - t0
        return elapsed, converged, traj.equiv_iter[-1], d2, c2


class BasisPursuit(Ladder):
    """Basis-pursuit ladder: l1 maps on the input side."""

    setup_reps = 1

    def __init__(self, seed, N, M, k, ladder, p, budget):
        rng = np.random.default_rng(seed)
        instances = []
        for s in ladder:
            inst = problems.gen_basis_pursuit(N, M, k, seed=s)
            U = _rotation(M, rng)
            instances.append((s, problems.BasisPursuitInstance(
                A=U @ inst.A, b=U @ inst.b, x_true=inst.x_true)))
        super().__init__(instances, p, budget)

    encode = "basis_pursuit_encode"

    answer_name = "||x||_1"

    def answer(self, inst, system, d2, c2):
        x = problems.basis_pursuit_recover(system, d2, c2)
        return float(np.abs(x).sum()), checks.solves_system(inst.A, inst.b, x)

    def reference(self, inst):
        return checks.highs_l1(inst.A, inst.b)


class Battery:
    """`asynclp experiment --preset chebyshev` through cli.main; each round
    first times the set-up of the battery's instances apart from the command,
    then runs the command once."""

    setup_reps = 100

    def __init__(self, seed, n, m, trials, p_list, budget, out_root):
        rng = np.random.default_rng(seed)
        self.p_list = [p_list[i] for i in rng.permutation(len(p_list))]
        self.n, self.m, self.trials, self.budget = n, m, trials, budget
        self.out_root = out_root
        # the instances the command builds: trial t draws seed t
        self.instances = [problems.gen_chebyshev(n, m, seed=t)
                          for t in range(trials)]

    def round(self) -> Round:
        r = Round()
        for t, inst in enumerate(self.instances):
            setup_s, _, errors = set_up("chebyshev_encode", inst,
                                        self.setup_reps, f"trial {t}")
            r.setup_s.append(setup_s)
            r.errors += errors
        out = tempfile.mkdtemp(prefix="battery-", dir=self.out_root)
        argv = ["experiment", "--preset", "chebyshev", "--n", str(self.n),
                "--m", str(self.m), "--trials", str(self.trials),
                "--p-list", ",".join(str(p) for p in self.p_list),
                "--max-equiv-iters", str(self.budget), "--tol", str(TOL),
                "--seed", "0", "--out", out]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = perf_counter()
                rc = cli.main(argv)
                r.solve_s.append(perf_counter() - t0)
            if rc != 0:
                r.errors.append(f"experiment exited {rc}")
            r.output_bytes = sum(os.path.getsize(os.path.join(out, f))
                                 for f in os.listdir(out))
            with open(os.path.join(out, "summary.json")) as fh:
                summary = json.load(fh)
            for p in self.p_list:
                label = f"p={p}"
                path = os.path.join(out, f"experiment_{label.replace('=', '')}.csv")
                with open(path, newline="") as fh:
                    rows = list(csv.DictReader(fh))
                r.attempted += self.trials
                r.failed += self.trials - summary["groups"][label]["converged"]
                # equivalent iterations of the median trial: the first grid
                # unit where the median residual is at tol (trials is odd)
                r.equiv_iters += next(
                    (int(row["equiv_iter"]) for row in rows
                     if float(row["log10_residual_median"]) <= math.log10(TOL)),
                    self.budget)
                if [int(row["equiv_iter"]) for row in rows] != list(range(self.budget + 1)):
                    r.errors.append(f"group {label}: CSV rows are not one per "
                                    f"grid unit 0..{self.budget}")
                    continue
                r.answers.append((label, float(rows[-1]["objective_median"]),
                                  float(rows[-1]["objective_mean"])))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return r

    def check(self, rounds: list[Round]) -> list[str]:
        errors = [e for r in rounds for e in r.errors]
        objectives = [-checks.highs_radius(inst.A, inst.b) for inst in self.instances]
        for i, r in enumerate(rounds):
            for label, median, mean in r.answers:
                where = f"round {i} group {label} final objective"
                errors += checks.close(f"{where} median", median,
                                       float(np.median(objectives)))
                errors += checks.close(f"{where} mean", mean,
                                       float(np.mean(objectives)))
        return errors


# Workload parameters: "full" is the benchmark, "tiny" the smoke test.
SIZES = {
    "bp-large": {
        "full": dict(N=512, M=200, k=16, ladder=range(4), p=0.2, budget=2000),
        "tiny": dict(N=32, M=16, k=2, ladder=range(2), p=0.2, budget=20000),
    },
    "cheb-battery": {
        "full": dict(n=6, m=12, trials=5, p_list=[0.2, 0.5, 0.8], budget=4000),
        "tiny": dict(n=3, m=6, trials=3, p_list=[0.2, 0.5, 0.8], budget=2000),
    },
    "cheb-dist": {
        "full": dict(N=10, M=20, ladder=range(6), workers=1, budget=30000),
        "tiny": dict(N=3, M=6, ladder=range(2), workers=1, budget=20000),
    },
}


def make(name: str, size: str, seed: int, out_root: str):
    params = SIZES[name][size]
    if name == "bp-large":
        return BasisPursuit(seed, **params)
    if name == "cheb-battery":
        return Battery(seed, out_root=out_root, **params)
    return ChebyshevDistributed(seed, **params)
