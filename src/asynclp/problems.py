"""Benchmark problem families: largest inscribed ball and basis pursuit.

Both are encoded directly in the asynchronous form (no detour through the
standard-form embedding), which keeps their operator blocks small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formulation import AsyncFormProblem, Kind, Role, VariableSpec
from .stationarity import StationaritySystem


# ---------------------------------------------------------------------------
# largest inscribed ball (Chebyshev center)

@dataclass(frozen=True)
class ChebyshevInstance:
    """Polytope {x : A x <= b}; sought: center and radius of the largest
    inscribed ball, i.e. minimize -r subject to a_i'x + ||a_i|| r <= b_i, r >= 0."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2 or b.shape != (A.shape[0],):
            raise ValueError("A must be M x N with b of length M")
        norms = np.linalg.norm(A, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("A contains a zero row")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def n_norms(self) -> np.ndarray:
        return np.linalg.norm(self.A, axis=1)


def gen_chebyshev(N: int, M: int, seed: int = 0) -> ChebyshevInstance:
    """Random bounded polytope containing the unit ball.

    The first N+1 face directions are a randomly rotated positive basis
    (the N coordinate directions plus the negated diagonal), which forces
    the recession cone to {0}, so the polytope is bounded for every draw;
    the remaining M-N-1 directions are i.i.d. random unit vectors.  Exact
    antipodal pairs are deliberately avoided: slab-only polytopes leave the
    inscribed-ball center free to slide along the non-binding directions,
    making every instance a tied optimum.  Offsets b_i ~ U(1, 3) keep the
    unit ball strictly inside.  Deterministic per seed.
    """
    if N < 1 or M < N + 1:
        raise ValueError("need N >= 1 and M >= N + 1 (fewer faces cannot "
                         "bound a polytope)")
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(N, N)))
    base = np.vstack([np.eye(N), -np.ones((1, N)) / np.sqrt(N)]) @ Q.T
    rows = [base]
    if M > N + 1:
        extra = rng.normal(size=(M - N - 1, N))
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
        rows.append(extra)
    A = np.vstack(rows)
    b = rng.uniform(1.0, 3.0, size=M)
    return ChebyshevInstance(A=A, b=b)


def chebyshev_encode(inst: ChebyshevInstance) -> AsyncFormProblem:
    """Asynchronous form of the inscribed-ball program.

    B = [[1, 0, 0], [-n, -A, b]] over inputs [r1, x_c, t] and outputs [r2, z]:
    row one ties r2 = r1 (force the radius non-negative), the block row gives
    z = b t - A x_c - n r1, the slack of each face, with t pinned to 1.
    Inputs: r1 carries cost -1 (maximize the radius), x_c is free with zero
    cost, t is fixed at 1.  Outputs r2 and z are non-negative.
    """
    M, N = inst.A.shape
    n = inst.n_norms
    B = np.block([
        [np.ones((1, 1)), np.zeros((1, N)), np.zeros((1, 1))],
        [-n[:, None], -inst.A, inst.b[:, None]],
    ])
    inputs = (
        VariableSpec("r1", Role.INPUT, Kind.LINEAR_COST, 1, rho=np.array([-1.0])),
        VariableSpec("x_c", Role.INPUT, Kind.LINEAR_COST, N, rho=np.zeros(N)),
        VariableSpec("t", Role.INPUT, Kind.FIXED, 1, rho=np.array([1.0])),
    )
    outputs = (
        VariableSpec("r2", Role.OUTPUT, Kind.NON_NEGATIVE, 1),
        VariableSpec("z", Role.OUTPUT, Kind.NON_NEGATIVE, M),
    )
    return AsyncFormProblem(B=B, inputs=inputs, outputs=outputs)


def chebyshev_recover(system: StationaritySystem,
                      c2: np.ndarray) -> tuple[np.ndarray, float]:
    """(center, radius) from a converged nonlinear-coordinate state."""
    d1, c1 = system.recover_affine(c2)
    z1 = (d1 + c1) / 2.0
    # affine coordinates are [r1, x_c(0..N-1), t] in declaration order
    N = system.n_affine - 2
    return z1[1:N + 1].copy(), float(z1[0])


# ---------------------------------------------------------------------------
# basis pursuit

@dataclass(frozen=True)
class BasisPursuitInstance:
    """minimize ||x||_1 subject to A x = b, with the planted solution kept."""

    A: np.ndarray
    b: np.ndarray
    x_true: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        x = np.asarray(self.x_true, dtype=float)
        if A.ndim != 2 or b.shape != (A.shape[0],) or x.shape != (A.shape[1],):
            raise ValueError("need A (M x N), b (M,), x_true (N,)")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "x_true", x)


def gen_basis_pursuit(N: int, M: int, sparsity: int, seed: int = 0) -> BasisPursuitInstance:
    """Gaussian sensing matrix with unit-norm columns and a planted sparse x.

    Support drawn uniformly; values are random signs scaled by U(0.5, 1.5)
    magnitudes; b = A x_true.  Deterministic per seed.
    """
    if not 0 < sparsity <= N:
        raise ValueError("sparsity must lie in 1..N")
    if M >= N:
        raise ValueError("basis pursuit expects an underdetermined system (M < N)")
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(M, N))
    A /= np.linalg.norm(A, axis=0, keepdims=True)
    x = np.zeros(N)
    support = rng.choice(N, size=sparsity, replace=False)
    x[support] = rng.choice([-1.0, 1.0], size=sparsity) * rng.uniform(0.5, 1.5, size=sparsity)
    return BasisPursuitInstance(A=A, b=A @ x, x_true=x)


def basis_pursuit_encode(inst: BasisPursuitInstance) -> AsyncFormProblem:
    """Asynchronous form of basis pursuit: B = A, l1-cost input x, output
    A x fixed at b.  Here the nonlinear block is the input side."""
    M, N = inst.A.shape
    inputs = (VariableSpec("x", Role.INPUT, Kind.L1_COST, N),)
    outputs = (VariableSpec("Ax", Role.OUTPUT, Kind.FIXED, M, rho=inst.b),)
    return AsyncFormProblem(B=inst.A.copy(), inputs=inputs, outputs=outputs)


def basis_pursuit_recover(system: StationaritySystem, d2: np.ndarray,
                          c2: np.ndarray) -> np.ndarray:
    """x from a converged state; x occupies all nonlinear coordinates."""
    return (d2 + c2) / 2.0


# ---------------------------------------------------------------------------
# serialization

def instance_to_dict(inst) -> dict:
    if isinstance(inst, ChebyshevInstance):
        return {"kind": "chebyshev", "A": inst.A.tolist(), "b": inst.b.tolist()}
    if isinstance(inst, BasisPursuitInstance):
        return {"kind": "basis_pursuit", "A": inst.A.tolist(),
                "b": inst.b.tolist(), "x_true": inst.x_true.tolist()}
    raise TypeError(f"unsupported instance type {type(inst).__name__}")


def instance_from_dict(d: dict):
    kind = d.get("kind")
    if kind == "chebyshev":
        return ChebyshevInstance(A=np.asarray(d["A"], dtype=float),
                                 b=np.asarray(d["b"], dtype=float))
    if kind == "basis_pursuit":
        return BasisPursuitInstance(A=np.asarray(d["A"], dtype=float),
                                    b=np.asarray(d["b"], dtype=float),
                                    x_true=np.asarray(d["x_true"], dtype=float))
    raise ValueError(f"unknown instance kind {kind!r}")
