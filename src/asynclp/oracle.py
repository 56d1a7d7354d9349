"""Brute-force LP reference solver for small instances.

One enumeration of every N-subset of rows decides every status, so its
failure modes are independent of the fixed-point machinery it is used to
check.  A subset's solution that satisfies all rows is a vertex.  Once one
exists, A has rank N and the LP is bounded exactly when some basis S of an
optimal vertex has multipliers y = -A_S'^-1 c >= 0 (Farkas' lemma), so the
multipliers are solved after the enumeration, on the bases of the vertices
tied at the minimum only.  Meant for N up to ~8 and a few hundred thousand
subsets; larger instances raise ValueError.

Subsets are taken in combinations order, _BLOCK at a time, in stacked LAPACK
calls: the same getrf/gesv per matrix as one call per subset, so the
vertices are bitwise the per-subset loop's.  A block is screened for
singular subsets only when its solve raises.  One inscribed-ball reference
takes about 1.8 ms at 6x12 (3.1 ms when every block was screened) and
0.8-1.3 s at 10x20 (BLAS pinned to one thread, shared 2-core VM).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb

import numpy as np

from .formulation import StandardLP

_FEAS_TOL = 1e-9
_TIE_TOL = 1e-9
_POINT_TOL = 1e-6
_MAX_SUBSETS = 500_000
_BLOCK = 4096          # subsets per stacked LAPACK call


@dataclass(frozen=True)
class OracleSolution:
    """status: optimal | infeasible | unbounded | degenerate (ties).

    x_star / objective are meaningful for optimal and degenerate (one of the
    tied optima is reported).
    """

    status: str
    x_star: np.ndarray | None = None
    objective: float | None = None


def solve_inequality_form(c: np.ndarray, A_ub: np.ndarray,
                          b_ub: np.ndarray) -> OracleSolution:
    """minimize c'y subject to A_ub y <= b_ub, y free.

    Assumes the feasible set is pointed (true whenever A_ub has full column
    rank on the active sets, e.g. after appending sign constraints), in which
    case a nonempty feasible set contains a vertex and a bounded problem
    attains its optimum at one.  Multipliers count as non-negative down to
    -_FEAS_TOL, scaled by max|c| as the primal test is by max|b|.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    M, N = A.shape
    if comb(M, N) > _MAX_SUBSETS:
        raise ValueError(
            f"instance too large for enumeration: C({M},{N}) subsets"
        )

    limit = b + _FEAS_TOL * max(1.0, float(np.abs(b).max()))
    floor = -_FEAS_TOL * max(1.0, float(np.abs(c).max()))
    found: list[np.ndarray] = []
    bases: list[np.ndarray] = []       # the row subset of each vertex found
    for rows in _subset_blocks(M, N):
        subs = A[rows]
        try:
            x = np.linalg.solve(subs, b[rows][..., None])[..., 0]
        except np.linalg.LinAlgError:
            # a stacked solve raises if any one matrix is singular; slogdet's
            # getrf gives sign 0 on exactly the zero pivots that make gesv
            # raise, and each matrix left takes the same gesv call again
            keep = np.linalg.slogdet(subs)[0] != 0.0
            rows, subs = rows[keep], subs[keep]
            x = np.linalg.solve(subs, b[rows][..., None])[..., 0]
        ok = np.isfinite(x).all(axis=1)
        ok[ok] = ~(_stacked_matvec(A, x[ok]) > limit).any(axis=1)
        found.append(x[ok])
        bases.append(rows[ok])
    vertices = np.concatenate(found) if found else np.empty((0, N))

    if len(vertices) == 0:
        return OracleSolution(status="infeasible")

    objectives = _stacked_dot(np.broadcast_to(c, vertices.shape), vertices)
    best = int(np.argmin(objectives))     # the first of equal minima
    best_obj, best_x = float(objectives[best]), vertices[best].copy()
    near = np.flatnonzero(np.abs(objectives - best_obj) <= _TIE_TOL)
    # bounded iff some basis at the optimum has y >= 0 on A_S' y = -c; getrf
    # can miss on A_S' the zero pivot it meets on A_S (giving huge spurious
    # y), and the reverse, so the transposes get their own guard
    subs_t = A[np.concatenate(bases)[near]].transpose(0, 2, 1)
    basis = np.linalg.slogdet(subs_t)[0] != 0.0
    y = np.linalg.solve(subs_t[basis], -c[:, None])[..., 0]
    y = y[np.isfinite(y).all(axis=1)]
    if not (y >= floor).all(axis=1).any():
        return OracleSolution(status="unbounded")
    tie = any(np.linalg.norm(vertices[i] - best_x) > _POINT_TOL for i in near)
    if tie:
        return OracleSolution(status="degenerate", x_star=best_x, objective=best_obj)
    return OracleSolution(status="optimal", x_star=best_x, objective=best_obj)


def _subset_blocks(M: int, k: int):
    """Every k-subset of range(M) in combinations order, as (n, k) row-index
    arrays of at most _BLOCK subsets each."""
    subsets = combinations(range(M), k)
    while True:
        block = np.fromiter(chain.from_iterable(islice(subsets, _BLOCK)),
                            dtype=np.intp)
        if block.size == 0:
            return
        yield block.reshape(-1, k)


def _stacked_matvec(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Row i is A @ X[i], by the same gemv call (X @ A.T differs in the
    last bits)."""
    return np.matmul(A, X[..., None])[..., 0]


def _stacked_dot(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Entry i is np.dot(U[i], V[i]), by the same dot routine."""
    return np.matmul(U[:, None, :], V[..., None])[:, 0, 0]


def solve_vertex_enum(lp: StandardLP) -> OracleSolution:
    """Reference solution of a standard-form LP by vertex enumeration.

    Appends the sign constraints -x <= 0 and enumerates; the feasible set
    {A x <= b, x >= 0} is pointed, so the case analysis of
    solve_inequality_form applies directly.
    """
    M, N = lp.A.shape
    A_ub = np.vstack([lp.A, -np.eye(N)])
    b_ub = np.concatenate([lp.b, np.zeros(N)])
    return solve_inequality_form(lp.f, A_ub, b_ub)


def solve_chebyshev_reference(A: np.ndarray, b: np.ndarray) -> OracleSolution:
    """Reference inscribed-ball solution: minimize -r over
    [A | n][x; r] <= b, -r <= 0, with n the row norms of A.

    Returns y = [x_c..., r] in x_star.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    M, N = A.shape
    n = np.linalg.norm(A, axis=1)
    A_ub = np.vstack([
        np.hstack([A, n[:, None]]),
        np.concatenate([np.zeros(N), [-1.0]])[None, :],
    ])
    b_ub = np.concatenate([b, [0.0]])
    c = np.concatenate([np.zeros(N), [-1.0]])
    return solve_inequality_form(c, A_ub, b_ub)
