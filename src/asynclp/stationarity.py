"""Stationarity system: orthogonal operator, memoryless maps, and affine reduction.

Optimality of the equality-constrained program is written as a fixed point of

    d = G c,    c = m(d),

where G is the orthogonal operator built from the constraint matrix B and m acts
coordinate-wise, its shape determined by each vector's kind and side:

    kind          input            output
    fixed         c = -d + 2 rho   c =  d - 2 rho
    linear_cost   c =  d - 2 rho   c = -d + 2 rho
    non_negative  c =  |d|         c = -|d|
    l1_cost       c =  m1(d)       c = -m1(d)

with m1 the saturating soft map: d+2 below -1, -d on [-1, 1], d-2 above 1.
This table is written once, in _AFFINE_SLOPE (the input-side slope s of the
affine maps, c = s (d - 2 rho)) and _BASE (the input-side base map of the
nonlinear kinds); the output side negates both.
At a fixed point the solution is read off as z1 = (d + c)/2 on input
coordinates and z2 = (d - c)/2 on output coordinates.

Affine coordinates (fixed / linear_cost) satisfy c = S d + h with diagonal
S (+-1) and constant h, so they can be eliminated, leaving a reduced system
over the nonlinear coordinates:

    d2 = G' m(d2) + e,   G' = G22 + G21 (I - S G11)^{-1} S G12,
                         e  = G21 (I - S G11)^{-1} h.

G' is again an isometry, which is what makes the iteration non-expansive.
The eliminated coordinates are affine in c2 as well: with W = (I - S G11)^{-1}
and X = W S G12 (both needed for G'), (I - G11 S)^{-1} = S W S and
W S G11 = W - I give

    d1 = D c2 + d0,   D = S X,   d0 = S (W h - h),

so recovery and the objective are maps precomputed once by reduce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formulation import AsyncFormProblem, Kind, Role, validate_async_form


class ReductionSingularError(RuntimeError):
    """Raised when the affine elimination is numerically singular."""


# ceiling on the 1-norm condition number of (I - S G11); beyond it the
# elimination is refused
_COND_LIMIT = 1e12


def build_R(B: np.ndarray) -> np.ndarray:
    """Skew-symmetric coupling [[0, -B'], [B, 0]] for a P x Q constraint matrix."""
    B = np.asarray(B, dtype=float)
    P, Q = B.shape
    R = np.zeros((Q + P, Q + P))
    R[:Q, Q:] = -B.T
    R[Q:, :Q] = B
    return R


def build_G(B: np.ndarray) -> np.ndarray:
    """Orthogonal operator (I + R)(I - R)^{-1} with R = build_R(B).

    The resolvent of a skew-symmetric R is always well defined (I - R has no
    zero eigenvalue), and the result is special orthogonal with no -1
    eigenvalue.  It is evaluated as G = 2 (I - R)^{-1} - I, with
    I - R = [[I_Q, B'], [-B, I_P]] inverted through the Schur complement of
    its larger identity block.  Let C = B if P <= Q and C = B' otherwise, so
    C has r = min(P, Q) rows and c columns, and solve once

        (I_r + C C') [T, U] = [C, I_r],   T: r x c,  U: r x r.

    Then

        P <= Q:  G = [[I_Q - 2 B'T,  -2 T'     ],
                      [2 T,           2 U - I_P]]
        P >  Q:  G = [[2 U - I_Q,     -2 T      ],
                      [2 T',          I_P - 2 B T]]

    in the coordinate order of build_R (Q inputs, then P outputs).
    """
    B = np.asarray(B, dtype=float)
    P, Q = B.shape
    wide = P <= Q
    C = B if wide else B.T
    r, c = C.shape
    X = np.linalg.solve(np.eye(r) + C @ C.T, np.hstack([C, np.eye(r)]))
    T, U = X[:, :c], X[:, c:]
    outer = np.eye(c) - 2.0 * (C.T @ T)
    gram = 2.0 * U - np.eye(r)
    if wide:
        return np.block([[outer, -2.0 * T.T], [2.0 * T, gram]])
    return np.block([[gram, -2.0 * T], [2.0 * T.T, outer]])


def build_G_factored(B: np.ndarray) -> np.ndarray:
    """Same operator via the factored form (I + R)^2 diag((I+B'B)^{-1}, (I+BB')^{-1}).

    Independent construction used to cross-check build_G: it exploits
    R^2 = -diag(B'B, BB') instead of inverting I - R directly.
    """
    B = np.asarray(B, dtype=float)
    P, Q = B.shape
    R = build_R(B)
    blk = np.zeros((Q + P, Q + P))
    blk[:Q, :Q] = np.linalg.inv(np.eye(Q) + B.T @ B)
    blk[Q:, Q:] = np.linalg.inv(np.eye(P) + B @ B.T)
    IR = np.eye(Q + P) + R
    return IR @ IR @ blk


def m1(d):
    """Saturating map for l1-cost coordinates: d+2 (d < -1), -d (|d| <= 1), d-2 (d > 1)."""
    d = np.asarray(d, dtype=float)
    return np.where(d < -1.0, d + 2.0, np.where(d > 1.0, d - 2.0, -d))


# The map table of the module docstring (input side; outputs negate both).
_SIGN = {Role.INPUT: 1.0, Role.OUTPUT: -1.0}
_AFFINE_SLOPE = {Kind.FIXED: -1.0, Kind.LINEAR_COST: 1.0}
_BASE = {Kind.NON_NEGATIVE: np.abs, Kind.L1_COST: m1}


def apply_nonlinearity(kind: Kind, role: Role, d, rho=0.0, gamma: float = 1.0):
    """Coordinate-wise stationarity map for one (kind, side) pair.

    gamma scales only the non-affine kinds (non_negative, l1_cost); affine maps
    are always applied exactly.
    """
    kind = Kind(kind)
    sign = _SIGN[Role(role)]
    d = np.asarray(d, dtype=float)
    if kind in _AFFINE_SLOPE:
        s = sign * _AFFINE_SLOPE[kind]
        return s * d - 2.0 * s * np.asarray(rho, dtype=float)
    return sign * (gamma * _BASE[kind](d))


def _coordinate_tables(problem: AsyncFormProblem):
    """Flatten variable declarations into per-coordinate arrays.

    Coordinates are ordered inputs-then-outputs, each group in declaration
    order.  Returns (kinds, sign, rho) over all Q+P coordinates, with sign
    +1 on inputs and -1 on outputs.
    """
    kinds: list[Kind] = []
    sign: list[float] = []
    rho: list[float] = []
    for v in problem.specs():
        r = v.rho if v.rho is not None else np.zeros(v.length)
        for i in range(v.length):
            kinds.append(v.kind)
            sign.append(_SIGN[v.role])
            rho.append(float(r[i]))
    return kinds, np.asarray(sign), np.asarray(rho)


@dataclass
class StationaritySystem:
    """Reduced fixed-point system d2 = G' m(d2) + e plus recovery data.

    Attributes
    ----------
    problem : AsyncFormProblem
    G : ndarray           full orthogonal operator
    Gprime : ndarray      reduced isometry over the nonlinear coordinates
    e : ndarray           constant offset from the eliminated affine block
    s, h : ndarray        diagonal of S and offset h of the affine maps
    affine_idx, nonlinear_idx : ndarray
        full-space coordinate indices of the two partitions, declaration order.
    nl_sign : ndarray     +1 on input coordinates, -1 on output coordinates
    nl_is_l1 : ndarray    bool; True where the base map is m1 rather than | . |
    aff_sign : ndarray    +1 on affine input coordinates, -1 on affine outputs
    D, d0 : ndarray       recovery map d1 = D c2 + d0 of the affine coordinates
    objective_c2, objective_0 : ndarray, float
        linear-cost part of the objective, objective_c2 . c2 + objective_0
    """

    problem: AsyncFormProblem
    G: np.ndarray
    Gprime: np.ndarray
    e: np.ndarray
    s: np.ndarray
    h: np.ndarray
    affine_idx: np.ndarray
    nonlinear_idx: np.ndarray
    nl_sign: np.ndarray
    nl_is_l1: np.ndarray
    G11: np.ndarray
    G12: np.ndarray
    G21: np.ndarray
    aff_sign: np.ndarray
    D: np.ndarray
    d0: np.ndarray
    objective_c2: np.ndarray
    objective_0: float

    def __post_init__(self):
        # the base map is chosen once: np.where only when the kinds mix, which
        # gives the same values as m1 or | . | alone where they do not
        if self.nl_is_l1.all():
            self._base = m1
        elif self.nl_is_l1.any():
            self._base = self._mixed_base
        else:
            self._base = np.abs

    @property
    def n_nonlinear(self) -> int:
        return len(self.nonlinear_idx)

    @property
    def n_affine(self) -> int:
        return len(self.affine_idx)

    # -- nonlinearity over the reduced coordinates --------------------------

    def _mixed_base(self, d2: np.ndarray) -> np.ndarray:
        return np.where(self.nl_is_l1, m1(d2), np.abs(d2))

    def m(self, d2: np.ndarray, gamma: float = 1.0) -> np.ndarray:
        return (gamma * self._base(d2)) * self.nl_sign

    def m_scalar(self, k: int, d: float, gamma: float = 1.0) -> float:
        """Single-coordinate m, bit-identical to the vector path."""
        if self.nl_is_l1[k]:
            base = d + 2.0 if d < -1.0 else (d - 2.0 if d > 1.0 else -d)
        else:
            base = abs(d)
        return (gamma * base) * self.nl_sign[k]

    def operator(self, d2: np.ndarray, gamma: float = 1.0) -> np.ndarray:
        """T(d2) = G' m(d2) + e (gamma-scaled nonlinearity)."""
        return self.Gprime @ self.m(d2, gamma) + self.e

    def residual(self, d2: np.ndarray, gamma: float = 1.0) -> float:
        """||d2 - (G' m(d2) + e)||_2; convergence is judged at gamma = 1."""
        return float(np.linalg.norm(d2 - self.operator(d2, gamma)))

    # -- recovery ------------------------------------------------------------

    def recover_affine(self, c2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eliminated coordinates from a nonlinear-coordinate state.

        d1 = D c2 + d0 (= (I - G11 S)^{-1} (G12 c2 + G11 h)),  c1 = S d1 + h.
        """
        d1 = self.D @ c2 + self.d0
        return d1, self.s * d1 + self.h

    def variable_vector(self, d2: np.ndarray, c2: np.ndarray) -> np.ndarray:
        """All variables' values, in full coordinate order (inputs then outputs).

        z = (d + c)/2 on input coordinates and (d - c)/2 on output
        coordinates; the affine ones cost one K1 x K product.
        """
        d1, c1 = self.recover_affine(c2)
        z = np.empty(self.n_affine + self.n_nonlinear)
        z[self.affine_idx] = (d1 + self.aff_sign * c1) / 2.0
        z[self.nonlinear_idx] = (d2 + self.nl_sign * c2) / 2.0
        return z

    def recover_variables(self, d2: np.ndarray, c2: np.ndarray) -> dict[str, np.ndarray]:
        """Per-variable values from the current reduced state."""
        z = self.variable_vector(d2, c2)
        return {name: z[sl] for name, sl in self.problem.variable_slices().items()}

    def objective(self, d2: np.ndarray, c2: np.ndarray) -> float:
        """Objective of the program at the reduced state.

        The linear costs sit on affine coordinates, so their part is affine in
        c2; the l1 costs add ||z2||_1 over their nonlinear coordinates.
        """
        z2 = (d2 + self.nl_sign * c2) / 2.0
        return (float(self.objective_c2 @ c2) + self.objective_0
                + float(np.abs(z2[self.nl_is_l1]).sum()))

    def dump(self, path) -> None:
        """Binary dump of the operator data (numpy .npz; see README for keys)."""
        np.savez(
            path,
            G=self.G,
            Gprime=self.Gprime,
            e=self.e,
            s=self.s,
            h=self.h,
            affine_idx=self.affine_idx,
            nonlinear_idx=self.nonlinear_idx,
        )


def reduce(G: np.ndarray, problem: AsyncFormProblem) -> StationaritySystem:
    """Eliminate the affine coordinates of a stationarity system.

    Parameters
    ----------
    G : ndarray
        Orthogonal operator for problem.B (typically build_G(problem.B)).
    problem : AsyncFormProblem
        Must be well-formed and contain at least one affine and one nonlinear
        coordinate.

    Raises
    ------
    ValueError
        On validation failures or an empty partition.
    ReductionSingularError
        When I - S G11 is singular, or its 1-norm condition number
        ||I - S G11||_1 ||(I - S G11)^{-1}||_1, taken from the inverse the
        elimination needs anyway, exceeds 1e12.
    """
    errors = validate_async_form(problem)
    if errors:
        raise ValueError("invalid problem: " + "; ".join(errors))
    kinds, sign, rho = _coordinate_tables(problem)
    n = len(kinds)
    if G.shape != (n, n):
        raise ValueError(f"G has shape {G.shape}, expected ({n}, {n})")

    affine_mask = np.asarray([k.is_affine for k in kinds])
    affine_idx = np.flatnonzero(affine_mask)
    nonlinear_idx = np.flatnonzero(~affine_mask)
    if len(affine_idx) == 0 or len(nonlinear_idx) == 0:
        raise ValueError(
            "reduction needs at least one affine and one nonlinear coordinate"
        )

    # affine maps c = S d + h, coordinate-wise, from the map table
    s = sign[affine_idx] * np.asarray([_AFFINE_SLOPE[kinds[i]] for i in affine_idx])
    h = -2.0 * s * rho[affine_idx]

    nl_sign = sign[nonlinear_idx]
    nl_is_l1 = np.asarray([_BASE[kinds[i]] is m1 for i in nonlinear_idx])

    G11 = G[np.ix_(affine_idx, affine_idx)]
    G12 = G[np.ix_(affine_idx, nonlinear_idx)]
    G21 = G[np.ix_(nonlinear_idx, affine_idx)]
    G22 = G[np.ix_(nonlinear_idx, nonlinear_idx)]

    K1 = len(affine_idx)
    M_red = np.eye(K1) - s[:, None] * G11     # I - S G11
    try:
        W = np.linalg.inv(M_red)
    except np.linalg.LinAlgError as exc:
        raise ReductionSingularError(
            "reduction singular: I - S G11 is singular"
        ) from exc
    # `not <=` also refuses an inverse that overflowed to inf or nan
    if not np.linalg.norm(M_red, 1) * np.linalg.norm(W, 1) <= _COND_LIMIT:
        raise ReductionSingularError(
            "reduction singular: cond_1(I - S G11) exceeds 1e12"
        )
    X = W @ (s[:, None] * G12)
    Wh = W @ h
    Gprime = G22 + G21 @ X
    e = G21 @ Wh

    # recovery d1 = D c2 + d0 (module docstring); on linear-cost coordinates
    # z = d1 - rho on either side, so the linear objective is affine in c2
    D = s[:, None] * X
    d0 = s * (Wh - h)
    cost = np.where([kinds[i] is Kind.LINEAR_COST for i in affine_idx],
                    rho[affine_idx], 0.0)

    return StationaritySystem(
        problem=problem,
        G=G,
        Gprime=Gprime,
        e=e,
        s=s,
        h=h,
        affine_idx=affine_idx,
        nonlinear_idx=nonlinear_idx,
        nl_sign=nl_sign,
        nl_is_l1=nl_is_l1,
        G11=G11,
        G12=G12,
        G21=G21,
        aff_sign=sign[affine_idx],
        D=D,
        d0=d0,
        objective_c2=cost @ D,
        objective_0=float(cost @ (d0 - rho[affine_idx])),
    )


def build_system(problem: AsyncFormProblem) -> StationaritySystem:
    """Convenience: build_G on problem.B followed by reduce."""
    return reduce(build_G(problem.B), problem)
