from itertools import combinations
from math import comb

import numpy as np
import pytest
from scipy.optimize import linprog

from asynclp import oracle
from asynclp.formulation import StandardLP
from asynclp.problems import gen_chebyshev

from conftest import random_standard_lp


def test_known_optimal_lp():
    lp = StandardLP(f=[-1.0, -2.0], A=[[1.0, 1.0], [2.0, 1.0]], b=[4.0, 6.0])
    sol = oracle.solve_vertex_enum(lp)
    assert sol.status == "optimal"
    assert np.allclose(sol.x_star, [0.0, 4.0], atol=1e-9)
    assert sol.objective == pytest.approx(-8.0, abs=1e-9)


def test_infeasible_lp():
    # x <= 1 and x >= 2 cannot both hold
    lp = StandardLP(f=[1.0], A=[[1.0], [-1.0]], b=[1.0, -2.0])
    sol = oracle.solve_vertex_enum(lp)
    assert sol.status == "infeasible"
    assert sol.x_star is None


def test_unbounded_lp():
    # minimize -x with x >= 0 and the constraint -x <= 0 never binding above
    lp = StandardLP(f=[-1.0], A=[[-1.0]], b=[0.0])
    sol = oracle.solve_vertex_enum(lp)
    assert sol.status == "unbounded"


def test_degenerate_tied_optima():
    # minimize x1 + x2 over x1 + x2 >= 2: the whole edge is optimal
    lp = StandardLP(f=[1.0, 1.0], A=[[-1.0, -1.0]], b=[-2.0])
    sol = oracle.solve_vertex_enum(lp)
    assert sol.status == "degenerate"
    assert sol.objective == pytest.approx(2.0, abs=1e-9)
    assert np.abs(sol.x_star.sum() - 2.0) <= 1e-9


def test_inequality_form_handles_free_variables():
    # minimize y subject to -y <= 3, i.e. y >= -3
    sol = oracle.solve_inequality_form(
        c=np.array([1.0]), A_ub=np.array([[-1.0]]), b_ub=np.array([3.0]))
    assert sol.status == "optimal"
    assert sol.x_star[0] == pytest.approx(-3.0, abs=1e-9)


def test_subset_guard_refuses_large_instances():
    rng = np.random.default_rng(0)
    lp = StandardLP(f=rng.normal(size=12), A=rng.normal(size=(50, 12)),
                    b=np.ones(50))
    with pytest.raises(ValueError, match="too large"):
        oracle.solve_vertex_enum(lp)


def test_against_scipy_linprog():
    # independent cross-check on random tiny LPs (test scaffolding only)
    rng = np.random.default_rng(1)
    statuses = set()
    for _ in range(40):
        lp = random_standard_lp(rng, n_max=4, m_max=6)
        sol = oracle.solve_vertex_enum(lp)
        statuses.add(sol.status)
        res = linprog(lp.f, A_ub=lp.A, b_ub=lp.b, bounds=(0, None),
                      method="highs")
        if sol.status in ("optimal", "degenerate"):
            assert res.status == 0
            assert sol.objective == pytest.approx(res.fun, abs=1e-7)
            if sol.status == "optimal":
                assert np.abs(sol.x_star - res.x).max() <= 1e-6
        elif sol.status == "unbounded":
            assert res.status == 3
        else:
            assert res.status == 2
    # origin is always feasible for these, so infeasible must never appear
    assert "infeasible" not in statuses
    assert "optimal" in statuses


def test_chebyshev_reference_unit_square():
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.ones(4)
    sol = oracle.solve_chebyshev_reference(A, b)
    assert sol.status in ("optimal", "degenerate")
    assert np.allclose(sol.x_star[:2], [0.0, 0.0], atol=1e-9)
    assert sol.x_star[2] == pytest.approx(1.0, abs=1e-9)
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)


def test_chebyshev_reference_against_scipy():
    for seed in range(6):
        inst = gen_chebyshev(3, 8, seed=seed)
        sol = oracle.solve_chebyshev_reference(inst.A, inst.b)
        assert sol.status in ("optimal", "degenerate")
        n = inst.n_norms
        c = np.concatenate([np.zeros(3), [-1.0]])
        A_ub = np.hstack([inst.A, n[:, None]])
        res = linprog(c, A_ub=A_ub, b_ub=inst.b,
                      bounds=[(None, None)] * 3 + [(0, None)], method="highs")
        assert res.status == 0
        assert sol.objective == pytest.approx(res.fun, abs=1e-8)
        if sol.status == "optimal":
            assert np.abs(sol.x_star - res.x).max() <= 1e-6


def test_vertex_enum_feasibility_of_reported_point():
    rng = np.random.default_rng(2)
    for _ in range(10):
        lp = random_standard_lp(rng, n_max=4, m_max=6)
        sol = oracle.solve_vertex_enum(lp)
        if sol.x_star is not None:
            assert (lp.A @ sol.x_star <= lp.b + 1e-8).all()
            assert (sol.x_star >= -1e-9).all()


# ---------------------------------------------------------------------------
# the stacked enumeration against a plain per-subset loop


def _loop_solve_inequality_form(c, A_ub, b_ub):
    # one np.linalg.solve per N-subset of rows, in combinations order
    c = np.asarray(c, dtype=float)
    A = np.asarray(A_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    M, N = A.shape
    scale = max(1.0, float(np.abs(b).max()))
    vertices = []
    for rows in combinations(range(M), N):
        try:
            x = np.linalg.solve(A[list(rows)], b[list(rows)])
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if np.any(A @ x > b + 1e-9 * scale):
            continue
        vertices.append((float(np.dot(c, x)), x))
    if not vertices:
        return oracle.OracleSolution(status="infeasible")
    if _loop_has_improving_ray(c, A):
        return oracle.OracleSolution(status="unbounded")
    best_obj, best_x = min(vertices, key=lambda t: t[0])
    tie = any(abs(obj - best_obj) <= 1e-9
              and np.linalg.norm(x - best_x) > 1e-6 for obj, x in vertices)
    return oracle.OracleSolution(status="degenerate" if tie else "optimal",
                                 x_star=best_x, objective=best_obj)


def _loop_has_improving_ray(c, A):
    # one np.linalg.svd per (N-1)-subset of rows
    M, N = A.shape
    _, sv, vt = np.linalg.svd(A)
    null_mask = np.zeros(N, dtype=bool)
    null_mask[:len(sv)] = sv < 1e-10
    null_mask[len(sv):] = True
    for d in vt[null_mask]:
        if abs(np.dot(c, d)) > 1e-10:
            return True
    if N == 1:
        for d in (np.array([1.0]), np.array([-1.0])):
            if np.all(A @ d <= 1e-10) and np.dot(c, d) < -1e-10:
                return True
        return False
    for rows in combinations(range(M), N - 1):
        _, sv, vt = np.linalg.svd(A[list(rows)])
        ndirs = [vt[N - 1]] + [v for v, s in zip(vt[:N - 1], sv) if s < 1e-10]
        for d in ndirs:
            nd = np.linalg.norm(d)
            if nd < 1e-12:
                continue
            d = d / nd
            for dd in (d, -d):
                if np.all(A @ dd <= 1e-9) and np.dot(c, dd) < -1e-9:
                    return True
    return False


def _assert_stacked_equals_loop(monkeypatch, solve, *args):
    """Solve with the oracle and with the loop; return the common status.

    The loop decides unboundedness by its own ray search, so a status match
    also cross-checks the oracle's dual-feasible-basis rule."""
    stacked = solve(*args)
    with monkeypatch.context() as m:
        m.setattr(oracle, "solve_inequality_form", _loop_solve_inequality_form)
        reference = solve(*args)
    assert stacked.status == reference.status
    assert stacked.objective == reference.objective
    if reference.x_star is None:
        assert stacked.x_star is None
    else:
        assert np.array_equal(stacked.x_star, reference.x_star)
    return stacked.status


def _integer_lp(rng):
    # small integer data with a repeated row: singular subsets, repeated
    # vertices and tied optima
    N = int(rng.integers(1, 5))
    M = int(rng.integers(1, 6))
    A = rng.integers(-2, 3, size=(M, N)).astype(float)
    b = rng.integers(-1, 4, size=M).astype(float)
    k = int(rng.integers(M))
    return StandardLP(f=rng.integers(-1, 2, size=N).astype(float),
                      A=np.vstack([A, A[k]]), b=np.append(b, b[k]))


def test_stacked_oracle_equals_loop_on_chebyshev(monkeypatch):
    for seed in range(10):
        inst = gen_chebyshev(6, 12, seed=seed)
        _assert_stacked_equals_loop(
            monkeypatch, oracle.solve_chebyshev_reference, inst.A, inst.b)


def test_stacked_oracle_equals_loop_on_criterion_4_draws(monkeypatch):
    # the generator of the acceptance suite's oracle-equivalence criterion
    rng = np.random.default_rng(404)
    statuses = set()
    for _ in range(150):
        N = int(rng.integers(1, 5))
        M = int(rng.integers(1, 7))
        lp = StandardLP(f=rng.normal(size=N), A=rng.normal(size=(M, N)),
                        b=rng.uniform(0.5, 2.0, size=M))
        statuses.add(_assert_stacked_equals_loop(
            monkeypatch, oracle.solve_vertex_enum, lp))
    assert {"optimal", "unbounded"} <= statuses


@pytest.mark.parametrize("block", [oracle._BLOCK, 3])
def test_stacked_oracle_equals_loop_on_integer_lps(monkeypatch, block):
    # a block of 3 puts many block boundaries, and blocks with no
    # nonsingular subset, inside each instance
    monkeypatch.setattr(oracle, "_BLOCK", block)
    rng = np.random.default_rng(7)
    statuses = set()
    for _ in range(80):
        statuses.add(_assert_stacked_equals_loop(
            monkeypatch, oracle.solve_vertex_enum, _integer_lp(rng)))
    assert statuses == {"optimal", "degenerate", "unbounded", "infeasible"}


def test_stacked_oracle_equals_loop_across_blocks(monkeypatch):
    # C(16, 8) = 12,870 subsets, several blocks; A >= 0 keeps it bounded, and
    # the multipliers are solved after the last block, at the optimum only
    assert comb(16, 8) > 3 * oracle._BLOCK
    rng = np.random.default_rng(8)
    lp = StandardLP(f=-rng.uniform(0.5, 1.5, size=8),
                    A=rng.uniform(0.1, 1.0, size=(8, 8)),
                    b=rng.uniform(0.5, 2.0, size=8))
    assert _assert_stacked_equals_loop(
        monkeypatch, oracle.solve_vertex_enum, lp) == "optimal"


def test_stacked_ray_search_equals_loop_on_rank_deficient_rows(monkeypatch):
    # zero rows give singular bases and (N-1)-subsets whose nullspace has
    # more than one dimension; the sign rows -I make the origin a vertex
    rng = np.random.default_rng(9)
    statuses = []
    for _ in range(200):
        N = int(rng.integers(2, 5))
        M = int(rng.integers(1, 6))
        A = rng.integers(-1, 2, size=(M, N)).astype(float)
        A[rng.random(M) < 0.3] = 0.0
        c = rng.integers(-1, 2, size=N).astype(float)
        statuses.append(_assert_stacked_equals_loop(
            monkeypatch, lambda *args: oracle.solve_inequality_form(*args),
            c, np.vstack([A, -np.eye(N)]), np.append(np.ones(M), np.zeros(N))))
    assert 0 < statuses.count("unbounded") < 200


def test_multipliers_are_solved_only_at_the_optimum(monkeypatch):
    # the vertex solves take stacked right-hand sides (n, N, 1), the
    # multiplier solve the one column -c; C(13, 7) = 1,716 bases per 6x12
    # reference, of which only the optimal vertex's need multipliers
    batches = []
    solve = np.linalg.solve

    def recorded(a, b):
        if b.ndim == 2:
            batches.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    for seed in range(5):
        inst = gen_chebyshev(6, 12, seed=seed)
        assert oracle.solve_chebyshev_reference(inst.A, inst.b).status == "optimal"
    assert len(batches) == 5
    assert max(batches) <= 4


def test_screened_blocks_equal_unscreened_ones(monkeypatch):
    # a block of subsets is solved first and screened with slogdet only when
    # a singular subset makes the stacked solve raise (the repeated-row and
    # zero-row tests above reach that path); forced on every block of
    # instances with no singular subset, it gives the same solution bitwise
    solve, slogdet = np.linalg.solve, np.linalg.slogdet
    pending = []   # a screen whose solve has not come yet
    screens = []   # each screened solve's right-hand side ndim, and whether
                   # its screen kept every matrix

    def screen(a):
        sign = slogdet(a)[0]
        pending.append(bool((sign != 0.0).all()))
        return sign, None

    def solve_screened(a, b):
        if not pending and b.ndim == 3:   # a block of vertex solves
            raise np.linalg.LinAlgError("Singular matrix")
        if pending:
            screens.append((b.ndim, pending.pop()))
        return solve(a, b)

    for seed in range(3):
        inst = gen_chebyshev(6, 12, seed=seed)
        want = oracle.solve_chebyshev_reference(inst.A, inst.b)
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "slogdet", screen)
            m.setattr(np.linalg, "solve", solve_screened)
            got = oracle.solve_chebyshev_reference(inst.A, inst.b)
        assert want.status == got.status == "optimal"
        assert got.objective == want.objective
        assert np.array_equal(got.x_star, want.x_star)
    # one block per instance, and the multipliers' own screen at its optimum
    assert screens == [(3, True), (2, True)] * 3


def test_oracle_enumerates_only_n_subsets(monkeypatch):
    # one enumeration decides every status, bounded or not
    ks = []
    blocks = oracle._subset_blocks

    def recorded(M, k):
        ks.append(k)
        return blocks(M, k)

    monkeypatch.setattr(oracle, "_subset_blocks", recorded)
    bounded = StandardLP(f=[-1.0, -2.0], A=[[1.0, 1.0], [2.0, 1.0]],
                         b=[4.0, 6.0])
    unbounded = StandardLP(f=[-1.0, 0.0], A=[[-1.0, 1.0]], b=[1.0])
    assert oracle.solve_vertex_enum(bounded).status == "optimal"
    assert oracle.solve_vertex_enum(unbounded).status == "unbounded"
    assert ks == [2, 2]


def test_fewer_rows_than_columns_has_no_vertex():
    sol = oracle.solve_inequality_form(
        c=np.ones(3), A_ub=np.ones((2, 3)), b_ub=np.ones(2))
    assert sol.status == "infeasible"


def test_stacked_oracle_equals_loop_in_one_dimension(monkeypatch):
    for c, A, b, status in [([1.0], [[-1.0], [1.0]], [3.0, 2.0], "optimal"),
                            ([1.0], [[1.0], [1.0]], [2.0, 5.0], "unbounded"),
                            ([-1.0], [[1.0], [-1.0]], [1.0, -2.0], "infeasible"),
                            ([0.0], [[1.0], [-1.0]], [1.0, 1.0], "degenerate")]:
        assert _assert_stacked_equals_loop(
            monkeypatch, lambda *args: oracle.solve_inequality_form(*args),
            np.array(c), np.array(A), np.array(b)) == status
