import dataclasses
import json

import numpy as np
import pytest

import asynclp
from asynclp import engine, problems
from asynclp.formulation import (Kind, Role, StandardLP, to_asynchronous_form,
                                 validate_async_form)
from asynclp.stationarity import build_system


# ---------------------------------------------------------------------------
# inscribed-ball generator and encoding

def test_gen_chebyshev_structure():
    inst = problems.gen_chebyshev(3, 8, seed=0)
    assert inst.A.shape == (8, 3) and inst.b.shape == (8,)
    assert np.allclose(np.linalg.norm(inst.A, axis=1), 1.0, atol=1e-12)
    # offsets keep the unit ball strictly inside
    assert inst.b.min() >= 1.0 and inst.b.max() <= 3.0
    # deterministic per seed
    again = problems.gen_chebyshev(3, 8, seed=0)
    assert np.array_equal(again.A, inst.A) and np.array_equal(again.b, inst.b)
    other = problems.gen_chebyshev(3, 8, seed=1)
    assert not np.array_equal(other.A, inst.A)


def test_gen_chebyshev_always_bounded():
    # the leading N+1 rows are a rotated positive basis: the first N rows are
    # orthonormal and the (N+1)-th is their negated sum / sqrt(N).  Then
    # A[:N+1] @ d <= 0 forces d = 0, so the recession cone is trivial and the
    # polytope is bounded for every draw.
    for seed in range(10):
        inst = problems.gen_chebyshev(4, 9, seed=seed)
        head = inst.A[:4]
        assert np.abs(head @ head.T - np.eye(4)).max() <= 1e-12
        assert np.allclose(inst.A[4], -head.sum(axis=0) / 2.0, atol=1e-12)


def test_gen_chebyshev_minimal_m_and_validation():
    inst = problems.gen_chebyshev(2, 3, seed=0)
    assert inst.A.shape == (3, 2)
    assert np.allclose(np.linalg.norm(inst.A, axis=1), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        problems.gen_chebyshev(2, 2)  # fewer than N+1 faces
    with pytest.raises(ValueError):
        problems.gen_chebyshev(0, 4)


def test_chebyshev_instance_rejects_zero_row():
    with pytest.raises(ValueError):
        problems.ChebyshevInstance(A=np.array([[1.0, 0.0], [0.0, 0.0]]),
                                   b=np.array([1.0, 1.0]))


def test_chebyshev_encode_blocks():
    inst = problems.gen_chebyshev(3, 6, seed=2)
    prob = problems.chebyshev_encode(inst)
    M, N = inst.A.shape
    assert prob.B.shape == (M + 1, N + 2)
    assert np.array_equal(prob.B[0], np.concatenate([[1.0], np.zeros(N + 1)]))
    assert np.allclose(prob.B[1:, 0], -inst.n_norms, atol=1e-15)
    assert np.array_equal(prob.B[1:, 1:N + 1], -inst.A)
    assert np.array_equal(prob.B[1:, N + 1], inst.b)
    r1, x_c, t = prob.inputs
    assert r1.kind is Kind.LINEAR_COST and np.array_equal(r1.rho, [-1.0])
    assert x_c.kind is Kind.LINEAR_COST and np.array_equal(x_c.rho, np.zeros(N))
    assert t.kind is Kind.FIXED and np.array_equal(t.rho, [1.0])
    r2, z = prob.outputs
    assert r2.kind is Kind.NON_NEGATIVE and r2.length == 1
    assert z.kind is Kind.NON_NEGATIVE and z.length == M
    assert validate_async_form(prob) == []


def test_chebyshev_unit_square_exact():
    # the largest ball in [-1, 1]^2 has radius 1 at the origin
    inst = problems.ChebyshevInstance(
        A=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
        b=np.ones(4))
    system = build_system(problems.chebyshev_encode(inst))
    schedule = engine.ScheduleConfig(mode="sync", homotopy="ramp:0.5:2000")
    state, _ = engine.run(system, schedule, max_equiv_iters=2100, tol=1e-10)
    assert state.converged
    center, radius = problems.chebyshev_recover(system, state.c2)
    assert radius == pytest.approx(1.0, abs=1e-7)
    assert np.abs(center).max() <= 1e-7
    # objective of the encoded problem is -radius
    values = system.recover_variables(state.d2, state.c2)
    assert system.problem.objective_value(values) == pytest.approx(-1.0, abs=1e-7)


def test_chebyshev_recover_matches_recover_variables():
    inst = problems.gen_chebyshev(4, 10, seed=3)
    system = build_system(problems.chebyshev_encode(inst))
    schedule = engine.ScheduleConfig(mode="bernoulli", p=0.5, seed=0,
                                     homotopy="bp")
    state, _ = engine.run(system, schedule, max_equiv_iters=4000, tol=1e-10)
    assert state.converged
    center, radius = problems.chebyshev_recover(system, state.c2)
    values = system.recover_variables(state.d2, state.c2)
    assert np.allclose(center, values["x_c"], atol=1e-12)
    assert radius == pytest.approx(float(values["r1"][0]), abs=1e-12)
    # the found ball is feasible and locally maximal: touches >= N+1 faces
    slack = inst.b - inst.A @ center - inst.n_norms * radius
    assert slack.min() >= -1e-7
    assert (slack <= 1e-6).sum() >= inst.A.shape[1] + 1


# ---------------------------------------------------------------------------
# basis-pursuit generator and encoding

def test_gen_basis_pursuit_structure():
    inst = problems.gen_basis_pursuit(24, 12, 3, seed=0)
    assert inst.A.shape == (12, 24)
    assert np.allclose(np.linalg.norm(inst.A, axis=0), 1.0, atol=1e-12)
    assert (inst.x_true != 0).sum() == 3
    nz = np.abs(inst.x_true[inst.x_true != 0])
    assert nz.min() >= 0.5 and nz.max() <= 1.5
    assert np.allclose(inst.b, inst.A @ inst.x_true, atol=1e-15)
    again = problems.gen_basis_pursuit(24, 12, 3, seed=0)
    assert np.array_equal(again.A, inst.A)
    assert np.array_equal(again.x_true, inst.x_true)


def test_gen_basis_pursuit_validation():
    with pytest.raises(ValueError):
        problems.gen_basis_pursuit(8, 4, 0)
    with pytest.raises(ValueError):
        problems.gen_basis_pursuit(8, 4, 9)
    with pytest.raises(ValueError):
        problems.gen_basis_pursuit(8, 8, 2)  # not underdetermined


def test_basis_pursuit_encode():
    inst = problems.gen_basis_pursuit(16, 8, 2, seed=1)
    prob = problems.basis_pursuit_encode(inst)
    assert np.array_equal(prob.B, inst.A)
    (x,) = prob.inputs
    assert x.kind is Kind.L1_COST and x.role is Role.INPUT and x.length == 16
    (ax,) = prob.outputs
    assert ax.kind is Kind.FIXED and np.array_equal(ax.rho, inst.b)
    assert validate_async_form(prob) == []


def test_basis_pursuit_small_recovery():
    inst = problems.gen_basis_pursuit(16, 8, 2, seed=4)
    system = build_system(problems.basis_pursuit_encode(inst))
    schedule = engine.ScheduleConfig(mode="bernoulli", p=0.5, seed=0,
                                     homotopy="bp")
    state, _ = engine.run(system, schedule, max_equiv_iters=2000, tol=1e-10)
    assert state.converged
    x = problems.basis_pursuit_recover(system, state.d2, state.c2)
    assert np.abs(x - inst.x_true).max() <= 1e-6
    assert np.abs(inst.A @ x - inst.b).max() <= 1e-8
    values = system.recover_variables(state.d2, state.c2)
    assert np.allclose(values["x"], x, atol=1e-12)
    assert system.problem.objective_value(values) == pytest.approx(
        np.abs(inst.x_true).sum(), abs=1e-6)


# ---------------------------------------------------------------------------
# problem files

def test_instance_roundtrips():
    cheb = problems.gen_chebyshev(3, 6, seed=5)
    back = problems.problem_from_dict(problems.problem_to_dict(cheb))
    assert isinstance(back, problems.ChebyshevInstance)
    assert np.array_equal(back.A, cheb.A) and np.array_equal(back.b, cheb.b)

    bp = problems.gen_basis_pursuit(12, 6, 2, seed=5)
    back = problems.problem_from_dict(problems.problem_to_dict(bp))
    assert isinstance(back, problems.BasisPursuitInstance)
    assert np.array_equal(back.A, bp.A)
    assert np.array_equal(back.x_true, bp.x_true)

    with pytest.raises(ValueError):
        problems.problem_from_dict({"kind": "mystery"})
    with pytest.raises(TypeError):
        problems.problem_to_dict(object())


def _assert_same(a, b):
    """Exact equality of two problems: same classes, and every field equal,
    arrays in shape, dtype and value."""
    assert type(a) is type(b)
    if isinstance(b, tuple):
        assert len(a) == len(b)
        for u, v in zip(a, b):
            _assert_same(u, v)
    elif isinstance(b, np.ndarray):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.array_equal(a, b)
    elif dataclasses.is_dataclass(b):
        for f in dataclasses.fields(b):
            _assert_same(getattr(a, f.name), getattr(b, f.name))
    else:
        assert a == b


def _problem_of_kind(kind):
    lp = StandardLP(f=[-1.0, -2.0], A=[[1.0, 1.0], [2.0, 1.0]], b=[4.0, 6.0])
    if kind == "standard_lp":
        return lp
    if kind == "async_form":   # its output specs carry rho=None
        return to_asynchronous_form(lp)
    if kind == "chebyshev":
        return problems.gen_chebyshev(3, 6, seed=5)
    return problems.gen_basis_pursuit(12, 6, 2, seed=5)


@pytest.mark.parametrize("kind", list(problems.KINDS))
def test_problem_file_roundtrip(kind, tmp_path):
    # one file layer for all four kinds, through both exports of load_problem
    problem = _problem_of_kind(kind)
    path = tmp_path / f"{kind}.json"
    problems.save_problem(problem, path)
    saved = json.loads(path.read_text())
    assert list(saved) == ["kind"] + [f.name for f in
                                      dataclasses.fields(problem)]
    assert saved["kind"] == kind
    for load in (problems.load_problem, asynclp.load_problem):
        _assert_same(load(path), problem)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("cls, field", [
    (problems.ChebyshevInstance, "A"), (problems.ChebyshevInstance, "b"),
    (problems.BasisPursuitInstance, "A"), (problems.BasisPursuitInstance, "b"),
    (problems.BasisPursuitInstance, "x_true")])
def test_instances_refuse_non_finite_entries(cls, field, value):
    inst = problems.gen_basis_pursuit(12, 6, 2, seed=5)
    data = {f.name: getattr(inst, f.name).copy()
            for f in dataclasses.fields(cls)}
    data[field].flat[3] = value
    with pytest.raises(ValueError, match="non-finite"):
        cls(**data)


@pytest.mark.parametrize("edit", ["missing", "unknown"])
@pytest.mark.parametrize("kind", list(problems.KINDS))
def test_problem_from_dict_refuses_missing_and_unknown_keys(kind, edit):
    d = problems.problem_to_dict(_problem_of_kind(kind))
    if edit == "missing":
        del d[next(key for key in d if key != "kind")]
    else:
        d["extra"] = 1.0
    with pytest.raises(ValueError, match=edit):
        problems.problem_from_dict(d)
    # a variable spec of an async_form file is checked the same way
    if kind == "async_form":
        d = problems.problem_to_dict(_problem_of_kind(kind))
        if edit == "missing":
            del d["inputs"][0]["role"]
        else:
            d["inputs"][0]["sign"] = 1
        with pytest.raises(ValueError, match=edit):
            problems.problem_from_dict(d)
