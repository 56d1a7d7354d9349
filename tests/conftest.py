"""Shared generators for the test suite (plain helpers, imported by name)."""

from __future__ import annotations

import numpy as np

from asynclp import (
    AsyncFormProblem,
    Kind,
    Role,
    StandardLP,
    VariableSpec,
    gen_basis_pursuit,
    gen_chebyshev,
    basis_pursuit_encode,
    chebyshev_encode,
    to_asynchronous_form,
)
from asynclp.stationarity import ReductionSingularError, build_system


def random_standard_lp(rng: np.random.Generator, n_max: int = 6,
                       m_max: int = 8) -> StandardLP:
    """Random dense LP with the origin feasible (b > 0)."""
    N = int(rng.integers(2, n_max + 1))
    M = int(rng.integers(2, m_max + 1))
    A = rng.normal(size=(M, N))
    b = rng.uniform(0.5, 2.0, size=M)
    f = rng.normal(size=N)
    return StandardLP(f=f, A=A, b=b)


def random_async_problem(rng: np.random.Generator) -> AsyncFormProblem:
    """One of the three encodings, chosen at random."""
    pick = int(rng.integers(3))
    if pick == 0:
        return to_asynchronous_form(random_standard_lp(rng))
    if pick == 1:
        n = int(rng.integers(2, 5))
        return chebyshev_encode(gen_chebyshev(n, 2 * n + 2,
                                              seed=int(rng.integers(10_000))))
    n = int(rng.integers(8, 17))
    m = max(2, n // 2)
    s = int(rng.integers(1, max(2, m // 2)))
    return basis_pursuit_encode(gen_basis_pursuit(n, m, s,
                                                  seed=int(rng.integers(10_000))))


def random_sided_system(rng: np.random.Generator, two_sided: bool):
    """The reduced system of a random async-form problem with P, Q <= 8, one
    variable per coordinate, each of a random kind.  Nonlinear coordinates
    sit on both sides, or (one-sided, as in every encoder) on one side drawn
    at random; draws without an affine coordinate, without a nonlinear one
    on each such side, or that reduce refuses, are drawn again."""
    affine, every = [Kind.FIXED, Kind.LINEAR_COST], list(Kind)
    while True:
        P, Q = (int(n) for n in rng.integers(1, 9, size=2))
        nl_role = Role.INPUT if rng.random() < 0.5 else Role.OUTPUT
        specs = {}
        for role, n in ((Role.INPUT, Q), (Role.OUTPUT, P)):
            pool = every if two_sided or role is nl_role else affine
            specs[role] = tuple(
                VariableSpec(f"{role.value}{i}", role, kind, 1,
                             rho=rng.normal(size=1) if kind.is_affine else None)
                for i, kind in enumerate(pool[j] for j in
                                         rng.integers(len(pool), size=n)))
        all_specs = specs[Role.INPUT] + specs[Role.OUTPUT]
        nonlinear = {v.role for v in all_specs if not v.kind.is_affine}
        if nonlinear != ({Role.INPUT, Role.OUTPUT} if two_sided else {nl_role}) \
                or all(not v.kind.is_affine for v in all_specs):
            continue
        try:
            return build_system(AsyncFormProblem(
                B=rng.normal(size=(P, Q)), inputs=specs[Role.INPUT],
                outputs=specs[Role.OUTPUT]))
        except ReductionSingularError:
            continue


def two_sided_problem(rng: np.random.Generator) -> AsyncFormProblem:
    """K = 14 nonlinear coordinates of both kinds (| . | and l1 maps) on both
    sides, among fixed and linear-cost ones, on a random 8 x 9 B."""
    decls = [("a", Role.INPUT, Kind.FIXED, 2), ("p", Role.INPUT, Kind.NON_NEGATIVE, 4),
             ("q", Role.INPUT, Kind.L1_COST, 3), ("c", Role.OUTPUT, Kind.LINEAR_COST, 1),
             ("r", Role.OUTPUT, Kind.NON_NEGATIVE, 3), ("w", Role.OUTPUT, Kind.L1_COST, 4)]
    specs = [VariableSpec(name, role, kind, n,
                          rho=rng.normal(scale=3.0, size=n) if kind.is_affine
                          else None)
             for name, role, kind, n in decls]
    return AsyncFormProblem(
        B=rng.normal(size=(8, 9)),
        inputs=tuple(v for v in specs if v.role is Role.INPUT),
        outputs=tuple(v for v in specs if v.role is Role.OUTPUT))


def mini_fixed_problem() -> AsyncFormProblem:
    """Scalar system with a known closed-form fixed point.

    B = [[1]], input u fixed at 1, output v >= 0.  The reduced system is
    d2 = -|d2| + 2 with unique fixed point d2* = 1, recovering u = v = 1.
    """
    return AsyncFormProblem(
        B=np.array([[1.0]]),
        inputs=(VariableSpec("u", Role.INPUT, Kind.FIXED, 1, rho=np.array([1.0])),),
        outputs=(VariableSpec("v", Role.OUTPUT, Kind.NON_NEGATIVE, 1),),
    )
