"""Answer checks made apart from the program under test.

References come from scipy's HiGHS `linprog` on the same instance data the
program received; property checks are plain numpy on the program's outputs.
Each check returns a list of error strings (empty when it passes).
"""

from __future__ import annotations

import numpy as np

# The program stops at a fixed-point residual of 1e-8; answers a hundred
# times further off than that are wrong, not imprecise.
ANSWER_TOL = 1e-6
ORTHO_TOL = 1e-9


def highs_radius(A: np.ndarray, b: np.ndarray) -> float:
    """Largest inscribed-ball radius of {x : A x <= b} by HiGHS."""
    from scipy.optimize import linprog

    M, N = A.shape
    norms = np.linalg.norm(A, axis=1)
    c = np.zeros(N + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=np.hstack([A, norms[:, None]]), b_ub=b,
                  bounds=[(None, None)] * N + [(0, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on the Chebyshev instance: {res.message}")
    return float(res.x[-1])


def highs_l1(A: np.ndarray, b: np.ndarray) -> float:
    """min ||x||_1 subject to A x = b by HiGHS, with x = u - v, u, v >= 0."""
    from scipy.optimize import linprog

    N = A.shape[1]
    res = linprog(np.ones(2 * N), A_eq=np.hstack([A, -A]), b_eq=b,
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on the basis pursuit instance: {res.message}")
    return float(res.fun)


def close(label: str, got: float, want: float) -> list[str]:
    if abs(got - want) <= ANSWER_TOL * max(1.0, abs(want)):
        return []
    return [f"{label}: {got!r} against HiGHS {want!r}"]


def orthogonal(label: str, G: np.ndarray) -> list[str]:
    err = float(np.abs(G.T @ G - np.eye(G.shape[0])).max())
    return [] if err <= ORTHO_TOL else [f"{label}: G'G - I reaches {err:.2e}"]


def ball_inside(A: np.ndarray, b: np.ndarray, center: np.ndarray,
                radius: float) -> list[str]:
    """The recovered ball lies in the polytope: A c + ||a_i|| r <= b, r >= 0."""
    slack = b - A @ center - np.linalg.norm(A, axis=1) * radius
    worst = max(float(-slack.min()), -radius)
    return [] if worst <= ANSWER_TOL else [f"ball leaves the polytope by {worst:.2e}"]


def solves_system(A: np.ndarray, b: np.ndarray, x: np.ndarray) -> list[str]:
    err = float(np.linalg.norm(A @ x - b))
    return [] if err <= ANSWER_TOL else [f"||Ax - b|| = {err:.2e}"]
