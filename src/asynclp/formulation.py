"""Problem representations: standard-form LPs and their asynchronous (signal-flow) form.

A standard-form program

    minimize f'x  subject to  A x <= b,  x >= 0

is rewritten as an equality-constrained program over two variable groups,

    minimize w'z1  subject to  B z1 = z2,  z2 >= 0,

by introducing slacks y = b - A x and carrying b along as a fixed vector:
z1 = [b; x], z2 = [x; y], B = [[0, I], [I, -A]].  Every vector then appears in
the linear relations, and each one is either fixed, unconstrained (optionally
carrying a linear or l1 cost), or constrained non-negative.  Costs may only sit
on unconstrained vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class Role(str, Enum):
    """Which side of B z1 = z2 a vector lives on."""

    INPUT = "input"
    OUTPUT = "output"


class Kind(str, Enum):
    """Constraint/cost status of a vector.

    fixed         -- pinned to a known value rho
    linear_cost   -- unconstrained, contributes rho'z to the objective
    non_negative  -- constrained z >= 0, no cost
    l1_cost       -- unconstrained, contributes ||z||_1 to the objective
    """

    FIXED = "fixed"
    LINEAR_COST = "linear_cost"
    NON_NEGATIVE = "non_negative"
    L1_COST = "l1_cost"

    @property
    def is_affine(self) -> bool:
        """True for kinds whose stationarity map is affine (eliminable)."""
        return self in (Kind.FIXED, Kind.LINEAR_COST)


def _as_float_array(x, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class StandardLP:
    """minimize f'x subject to A x <= b, x >= 0."""

    f: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = _as_float_array(self.A, "A", 2)
        f = _as_float_array(self.f, "f", 1)
        b = _as_float_array(self.b, "b", 1)
        M, N = A.shape
        if M < 1 or N < 1:
            raise ValueError("A must have at least one row and one column")
        if f.shape != (N,):
            raise ValueError(f"f has length {f.shape[0]}, expected {N}")
        if b.shape != (M,):
            raise ValueError(f"b has length {b.shape[0]}, expected {M}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "b", b)

    @property
    def shape(self) -> tuple[int, int]:
        return self.A.shape

    def objective(self, x: np.ndarray) -> float:
        return float(np.dot(self.f, x))


@dataclass(frozen=True)
class VariableSpec:
    """One named vector in the asynchronous form.

    rho is the pinned value (fixed) or the linear cost vector (linear_cost).
    The constructor only coerces; problem-level rules are checked by
    validate_async_form so that malformed declarations can be reported rather
    than refused.
    """

    name: str
    role: Role
    kind: Kind
    length: int
    rho: np.ndarray | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("variable name must be non-empty")
        object.__setattr__(self, "role", Role(self.role))
        object.__setattr__(self, "kind", Kind(self.kind))
        if not isinstance(self.length, (int, np.integer)) or self.length < 1:
            raise ValueError(f"variable {self.name!r}: length must be an "
                             "integer >= 1")
        if self.rho is not None:
            object.__setattr__(self, "rho", _as_float_array(self.rho, f"rho[{self.name}]", 1))


@dataclass(frozen=True)
class AsyncFormProblem:
    """Equality-constrained form: B maps the stacked inputs to the stacked outputs.

    Inputs are stacked in declaration order to form z1 (length = B columns) and
    outputs to form z2 (length = B rows).
    """

    B: np.ndarray
    inputs: tuple[VariableSpec, ...]
    outputs: tuple[VariableSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "B", _as_float_array(self.B, "B", 2))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        for v in self.inputs:
            if v.role is not Role.INPUT:
                raise ValueError(f"{v.name!r} declared among inputs but has role {v.role.value}")
        for v in self.outputs:
            if v.role is not Role.OUTPUT:
                raise ValueError(f"{v.name!r} declared among outputs but has role {v.role.value}")

    @property
    def input_length(self) -> int:
        return sum(v.length for v in self.inputs)

    @property
    def output_length(self) -> int:
        return sum(v.length for v in self.outputs)

    def specs(self) -> tuple[VariableSpec, ...]:
        return self.inputs + self.outputs

    def variable_slices(self) -> dict[str, slice]:
        """Slice of each variable in the full coordinate vector (inputs then outputs)."""
        out: dict[str, slice] = {}
        pos = 0
        for v in self.specs():
            out[v.name] = slice(pos, pos + v.length)
            pos += v.length
        return out

    def objective_value(self, values: dict[str, np.ndarray]) -> float:
        """Objective of the program at the given per-variable values."""
        total = 0.0
        for v in self.specs():
            if v.kind is Kind.LINEAR_COST:
                total += float(np.dot(v.rho, values[v.name]))
            elif v.kind is Kind.L1_COST:
                total += float(np.abs(values[v.name]).sum())
        return total


def to_asynchronous_form(lp: StandardLP) -> AsyncFormProblem:
    """Embed a standard-form LP.

    Produces B = [[0, I], [I, -A]] with inputs [b (fixed), x1 (linear cost f)]
    and outputs [x2, y] both non-negative; x2 mirrors x1 and y is the slack
    b - A x1.  The objective transfers exactly: w'z1 = f'x.
    """
    M, N = lp.A.shape
    B = np.zeros((N + M, M + N))
    np.fill_diagonal(B[:N, M:], 1.0)
    np.fill_diagonal(B[N:, :M], 1.0)
    np.negative(lp.A, out=B[N:, M:])
    inputs = (
        VariableSpec("b", Role.INPUT, Kind.FIXED, M, rho=lp.b),
        VariableSpec("x1", Role.INPUT, Kind.LINEAR_COST, N, rho=lp.f),
    )
    outputs = (
        VariableSpec("x2", Role.OUTPUT, Kind.NON_NEGATIVE, N),
        VariableSpec("y", Role.OUTPUT, Kind.NON_NEGATIVE, M),
    )
    return AsyncFormProblem(B=B, inputs=inputs, outputs=outputs)


def validate_async_form(problem: AsyncFormProblem) -> list[str]:
    """Report every rule violation (empty list means well-formed).

    Checked: dimension bookkeeping between B and the declared vectors, rho
    presence/length for fixed and linear-cost vectors, and the convention that
    cost may only be attached to unconstrained vectors.
    """
    errors: list[str] = []
    P, Q = problem.B.shape
    if problem.input_length != Q:
        errors.append(
            f"input lengths sum to {problem.input_length} but B has {Q} columns"
        )
    if problem.output_length != P:
        errors.append(
            f"output lengths sum to {problem.output_length} but B has {P} rows"
        )
    seen: set[str] = set()
    for v in problem.specs():
        if v.name in seen:
            errors.append(f"duplicate variable name {v.name!r}")
        seen.add(v.name)
        if v.kind in (Kind.FIXED, Kind.LINEAR_COST):
            if v.rho is None:
                errors.append(f"{v.name!r} is {v.kind.value} but has no rho")
            elif v.rho.shape != (v.length,):
                errors.append(
                    f"{v.name!r}: rho has length {v.rho.shape[0]}, expected {v.length}"
                )
        elif v.kind is Kind.NON_NEGATIVE:
            if v.rho is not None and np.any(v.rho != 0.0):
                errors.append(
                    f"{v.name!r} is non-negative but carries a nonzero cost; "
                    "cost vectors must be unconstrained"
                )
        elif v.kind is Kind.L1_COST:
            if v.rho is not None:
                errors.append(f"{v.name!r} is l1_cost and must not carry rho")
    return errors
