"""End-to-end acceptance suite.

Eight numbered criteria covering operator construction, reduction, schedule
equivalence, oracle agreement, the two bundled experiment families, the
distributed execution model, and non-expansiveness.  Each test prints a
single PASS/FAIL line (run with ``pytest -s`` to see them) and enforces both
the numeric tolerances and a wall-clock budget.

Criterion 5's synchronous clause is expected to fail and is left failing on
purpose: on generic bounded polytopes the synchronous error map is an
orthogonal rotation inside every sign cell, so after any finite relaxation
ramp the residual freezes at a level that scales like (ramp length)^-2.
Reaching 1e-6 synchronously at desk scale would need roughly 2e5 equivalent
iterations, far beyond the criterion's 5000.  Randomized firing breaks the
rotation and converges comfortably; see README for the full analysis.
"""

import functools
import time

import numpy as np

from asynclp import distributed as ds
from asynclp import engine
from asynclp import oracle
from asynclp import problems
from asynclp import stationarity as st
from asynclp.formulation import Kind, Role, StandardLP, to_asynchronous_form
from asynclp.stationarity import build_system

from conftest import random_async_problem, random_standard_lp


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")


# ---------------------------------------------------------------------------
# 1. operator construction


def test_01_operator_construction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_orth = 0.0
    worst_det = 0.0
    worst_collapse = 0.0
    n_collapse_cases = 0
    for i in range(100):
        if i % 10 == 0:
            # seed square orthogonal B so the collapse clause is exercised
            n = int(rng.integers(2, 16))
            B, _ = np.linalg.qr(rng.normal(size=(n, n)))
        else:
            B = rng.normal(size=(int(rng.integers(1, 21)),
                                 int(rng.integers(1, 31))))
        G = st.build_G(B)
        L = sum(B.shape)
        worst_orth = max(worst_orth, np.abs(G.T @ G - np.eye(L)).max())
        worst_det = max(worst_det, abs(np.linalg.det(G) - 1.0))
        if (B.shape[0] == B.shape[1]
                and np.abs(B.T @ B - np.eye(B.shape[1])).max() <= 1e-12):
            n_collapse_cases += 1
            worst_collapse = max(worst_collapse,
                                 np.abs(G - st.build_R(B)).max())
    elapsed = time.perf_counter() - t0
    ok = (worst_orth <= 1e-9 and worst_det <= 1e-8
          and worst_collapse <= 1e-10 and n_collapse_cases >= 5
          and elapsed < 10.0)
    _report(1, ok, "100 random operators: orthogonality "
            f"{worst_orth:.1e} (<=1e-9), |det-1| {worst_det:.1e} (<=1e-8), "
            f"collapse to R on {n_collapse_cases} orthogonal B "
            f"{worst_collapse:.1e} (<=1e-10) [{elapsed:.1f}s]")
    assert ok


# ---------------------------------------------------------------------------
# 2. reduction of the standard-form embedding


def test_02_reduction_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_e = 0.0
    worst_iso = 0.0
    for _ in range(50):
        lp = random_standard_lp(rng)
        M, N = lp.shape
        system = build_system(to_asynchronous_form(lp))
        s_expected = np.concatenate([-np.ones(M), np.ones(N)])
        assert np.array_equal(system.s, s_expected)
        L1 = M + N
        S = np.diag(s_expected)
        rhs = np.concatenate([lp.b, -lp.f])
        e_indep = 2.0 * (system.G21 @ np.linalg.solve(
            np.eye(L1) - S @ system.G11, rhs))
        worst_e = max(worst_e, np.abs(system.e - e_indep).max())
        K = system.n_nonlinear
        worst_iso = max(worst_iso,
                        np.abs(system.Gprime.T @ system.Gprime
                               - np.eye(K)).max())
    elapsed = time.perf_counter() - t0
    ok = worst_e <= 1e-10 and worst_iso <= 1e-9 and elapsed < 10.0
    _report(2, ok, "50 embeddings: sign matrix exact, offset cross-form "
            f"{worst_e:.1e} (<=1e-10), reduced isometry {worst_iso:.1e} "
            f"(<=1e-9) [{elapsed:.1f}s]")
    assert ok


# ---------------------------------------------------------------------------
# 3. synchronous recurrence vs simultaneous incremental sweep


def test_03_trajectory_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(20):
        system = build_system(random_async_problem(rng))
        a = engine.init_state(system)
        b = engine.init_state(system)
        for _ in range(100):
            engine.sync_step(a, system)
            engine.simultaneous_sweep_step(b, system)
            worst = max(worst, np.abs(a.d2 - b.d2).max(),
                        np.abs(a.c2 - b.c2).max())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(3, ok, "20 instances x 100 steps: recurrence vs simultaneous "
            f"sweep deviation {worst:.1e} (<=1e-12) [{elapsed:.1f}s]")
    assert ok


# ---------------------------------------------------------------------------
# 4. oracle equivalence on tiny linear programs


def test_04_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    accepted = []
    while len(accepted) < 50:
        N = int(rng.integers(1, 5))
        M = int(rng.integers(1, 7))
        lp = StandardLP(f=rng.normal(size=N),
                        A=rng.normal(size=(M, N)),
                        b=rng.uniform(0.5, 2.0, size=M))
        sol = oracle.solve_vertex_enum(lp)
        if sol.status == "optimal":  # skips unbounded and degenerate draws
            accepted.append((lp, sol))
    hits = 0
    for t, (lp, sol) in enumerate(accepted):
        system = build_system(to_asynchronous_form(lp))
        schedule = engine.ScheduleConfig(mode="bernoulli", p=0.5,
                                         seed=4000 + t,
                                         homotopy="ramp:0.5:1000")
        state, _ = engine.run(system, schedule, max_equiv_iters=12000,
                              tol=1e-10)
        x = system.recover_variables(state.d2, state.c2)["x1"]
        if (abs(lp.f @ x - sol.objective) <= 1e-4
                and np.abs(x - sol.x_star).max() <= 1e-3):
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 48 and elapsed < 60.0
    _report(4, ok, f"tiny LPs vs enumeration oracle: {hits}/50 matched "
            f"(objective<=1e-4, x<=1e-3; need >=48) [{elapsed:.1f}s]")
    assert ok


# ---------------------------------------------------------------------------
# 5. inscribed-ball experiment at desk scale


def test_05_chebyshev_desk():
    t0 = time.perf_counter()
    budget = 5000.0
    finals = {"sync": [], "p=0.2": [], "p=0.8": []}
    for t in range(50):
        inst = problems.gen_chebyshev(10, 20, seed=t)
        system = build_system(problems.chebyshev_encode(inst))
        runs = {
            "sync": engine.ScheduleConfig(mode="sync",
                                          homotopy="ramp:0.5:4800"),
            "p=0.2": engine.ScheduleConfig(mode="bernoulli", p=0.2, seed=t,
                                           homotopy="bp"),
            "p=0.8": engine.ScheduleConfig(mode="bernoulli", p=0.8, seed=t,
                                           homotopy="bp"),
        }
        for label, schedule in runs.items():
            state, _ = engine.run(system, schedule,
                                  max_equiv_iters=budget, tol=1e-7)
            finals[label].append(system.residual(state.d2))
    medians = {label: float(np.median(vals)) for label, vals in finals.items()}

    # oracle-checked subset at a size the enumeration oracle can certify
    subset_ok = 0
    subset_converged = 0
    worst_dev = 0.0
    for t in range(10):
        inst = problems.gen_chebyshev(6, 12, seed=500 + t)
        system = build_system(problems.chebyshev_encode(inst))
        schedule = engine.ScheduleConfig(mode="bernoulli", p=0.5, seed=t,
                                         homotopy="bp")
        state, _ = engine.run(system, schedule, max_equiv_iters=budget,
                              tol=1e-8)
        if system.residual(state.d2) >= 1e-6:
            continue
        subset_converged += 1
        center, radius = problems.chebyshev_recover(system, state.c2)
        ref = oracle.solve_chebyshev_reference(inst.A, inst.b)
        dev = max(np.abs(center - ref.x_star[:6]).max(),
                  abs(radius - ref.x_star[6]))
        worst_dev = max(worst_dev, dev)
        if dev <= 1e-3:
            subset_ok += 1
    elapsed = time.perf_counter() - t0

    mode_ok = {label: med < 1e-6 for label, med in medians.items()}
    oracle_ok = subset_converged >= 8 and subset_ok == subset_converged
    ok = all(mode_ok.values()) and oracle_ok and elapsed < 300.0
    _report(5, ok, "inscribed ball N=10 M=20, 50 trials, median residual "
            f"within {budget:.0f} equivalent iterations (<1e-6): "
            + ", ".join(f"{label} {medians[label]:.1e}"
                        f"{'' if mode_ok[label] else ' <-- FAIL'}"
                        for label in ("sync", "p=0.2", "p=0.8"))
            + f"; oracle subset {subset_ok}/{subset_converged} converged "
            f"trials within 1e-3 (worst {worst_dev:.1e}) [{elapsed:.1f}s]")
    assert ok, (
        "synchronous iteration cannot reach 1e-6 in 5000 equivalent "
        "iterations on generic instances (orthogonal-rotation freeze; "
        f"measured medians: {medians})")


# ---------------------------------------------------------------------------
# 6. sparse-recovery experiment at desk scale


def test_06_basis_pursuit_desk():
    t0 = time.perf_counter()
    p_values = (0.2, 0.4, 0.6, 0.8)
    success = {p: 0 for p in p_values}
    worst_feas = 0.0
    for t in range(50):
        inst = problems.gen_basis_pursuit(64, 32, 4, seed=t)
        system = build_system(problems.basis_pursuit_encode(inst))
        for p in p_values:
            schedule = engine.ScheduleConfig(mode="bernoulli", p=p, seed=t,
                                             homotopy="bp")
            state, _ = engine.run(system, schedule, max_equiv_iters=2000,
                                  tol=1e-9)
            x = problems.basis_pursuit_recover(system, state.d2, state.c2)
            if np.abs(x - inst.x_true).max() <= 1e-2:
                success[p] += 1
                feas = np.abs(inst.A @ x - inst.b).max()
                worst_feas = max(worst_feas, feas)

    # p=1 must reproduce the synchronous recurrence exactly
    inst = problems.gen_basis_pursuit(64, 32, 4, seed=0)
    system = build_system(problems.basis_pursuit_encode(inst))
    s_sync, _ = engine.run(
        system, engine.ScheduleConfig(mode="sync", homotopy="bp"),
        max_equiv_iters=200.0, tol=0.0)
    s_p1, _ = engine.run(
        system, engine.ScheduleConfig(mode="bernoulli", p=1.0, seed=0,
                                      homotopy="bp"),
        max_equiv_iters=200.0, tol=0.0)
    bitwise = (np.array_equal(s_sync.d2, s_p1.d2)
               and np.array_equal(s_sync.c2, s_p1.c2))
    elapsed = time.perf_counter() - t0
    ok = (all(success[p] >= 40 for p in p_values)
          and worst_feas <= 1e-6 and bitwise and elapsed < 600.0)
    _report(6, ok, "sparse recovery N=64 M=32 k=4, 50 trials: successes "
            + ", ".join(f"p={p} {success[p]}/50" for p in p_values)
            + f" (need >=40 each); worst feasibility {worst_feas:.1e} "
            f"(<=1e-6); p=1 bitwise equals synchronous: {bitwise} "
            f"[{elapsed:.1f}s]")
    assert ok


# ---------------------------------------------------------------------------
# 7. distributed execution model


def test_07_distributed():
    t0 = time.perf_counter()
    # single worker vs engine random-coordinate mode, bit for bit
    bitwise = True
    base = build_system(problems.chebyshev_encode(
        problems.gen_chebyshev(4, 8, seed=7)))
    for seed in range(10):
        schedule = engine.ScheduleConfig(mode="randomk", seed=seed,
                                         homotopy="bp")
        state, _ = engine.run(base, schedule, max_equiv_iters=200.0,
                              tol=1e-9)
        d2, c2, _, _, _ = ds.run_distributed(
            base, workers=1, max_equiv_iters=200.0, tol=1e-9, seed=seed,
            homotopy="bp")
        bitwise = bitwise and np.array_equal(state.d2, d2) \
            and np.array_equal(state.c2, c2)

    # 4 workers, each read 3 updates stale, agree with the fixed point
    system = build_system(problems.chebyshev_encode(
        problems.gen_chebyshev(10, 20, seed=0)))
    deep = engine.ScheduleConfig(mode="bernoulli", p=0.5, seed=987654321,
                                 homotopy="bp")
    ref_state, _ = engine.run(system, deep, max_equiv_iters=20000.0,
                              tol=1e-10)
    assert ref_state.converged
    agree = 0
    for t in range(50):
        d2, _, _, _, converged = ds.run_distributed(
            system, workers=4, max_equiv_iters=5000.0, tol=2e-7, seed=t,
            homotopy="bp")
        if (converged and system.residual(d2) <= 1e-6
                and np.linalg.norm(d2 - ref_state.d2) <= 1e-5):
            agree += 1
    elapsed = time.perf_counter() - t0
    ok = bitwise and agree >= 45 and elapsed < 300.0
    _report(7, ok, f"single worker bitwise equals random-coordinate mode "
            f"on 10 seeds: {bitwise}; 4-worker desk runs at the fixed point "
            f"(res<=1e-6, dist<=1e-5): {agree}/50 (need >=45) "
            f"[{elapsed:.1f}s]")
    assert ok


# ---------------------------------------------------------------------------
# 8. non-expansiveness


def test_08_nonexpansiveness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    worst_l1 = 0.0
    worst_l09 = 0.0
    for _ in range(10):
        system = build_system(random_async_problem(rng))
        K = system.n_nonlinear
        worst_l1 = max(worst_l1, engine.empirical_lipschitz(
            system.operator, K, samples=1000, rng=rng))
        relaxed = functools.partial(system.operator, gamma=0.9)
        worst_l09 = max(worst_l09, engine.empirical_lipschitz(
            relaxed, K, samples=1000, rng=rng))

    pairs = rng.normal(scale=3.0, size=(2, 10_000))
    worst_nl = 0.0
    cases = [(kind, role, rho)
             for kind in (Kind.FIXED, Kind.LINEAR_COST, Kind.NON_NEGATIVE,
                          Kind.L1_COST)
             for role in (Role.INPUT, Role.OUTPUT)
             for rho in (0.0, -1.3, 0.7)]
    for kind, role, rho in cases:
        fa = st.apply_nonlinearity(kind, role, pairs[0], rho=rho)
        fb = st.apply_nonlinearity(kind, role, pairs[1], rho=rho)
        gap = np.abs(fa - fb) - np.abs(pairs[0] - pairs[1])
        worst_nl = max(worst_nl, float(gap.max()))
    m1_gap = np.abs(st.m1(pairs[0]) - st.m1(pairs[1])) \
        - np.abs(pairs[0] - pairs[1])
    worst_nl = max(worst_nl, float(m1_gap.max()))
    elapsed = time.perf_counter() - t0
    ok = (worst_l1 <= 1.0 + 1e-9 and worst_l09 <= 0.9 + 1e-9
          and worst_nl <= 1e-12 and elapsed < 30.0)
    _report(8, ok, f"empirical Lipschitz <=1: {worst_l1:.12f}; at "
            f"relaxation 0.9: {worst_l09:.12f}; all scalar nonlinearities "
            f"non-expansive over 1e4 pairs (worst slack {worst_nl:.1e}) "
            f"[{elapsed:.1f}s]")
    assert ok
