import numpy as np
import pytest

from asynclp import formulation as fm
from asynclp import problems

from conftest import random_standard_lp


def test_standard_lp_coerces_lists_to_arrays():
    lp = fm.StandardLP(f=[1, 0], A=[[1, 1]], b=[2])
    assert lp.A.dtype == float and lp.A.shape == (1, 2)
    assert lp.shape == (1, 2)
    assert lp.objective([3.0, 5.0]) == 3.0


def test_standard_lp_rejects_bad_shapes():
    with pytest.raises(ValueError):
        fm.StandardLP(f=[1.0], A=[[1.0, 1.0]], b=[2.0])       # f too short
    with pytest.raises(ValueError):
        fm.StandardLP(f=[1.0, 0.0], A=[[1.0, 1.0]], b=[2.0, 3.0])  # b too long
    with pytest.raises(ValueError):
        fm.StandardLP(f=[1.0, 0.0], A=[1.0, 1.0], b=[2.0])    # A not 2-d
    with pytest.raises(ValueError):
        fm.StandardLP(f=[np.nan, 0.0], A=[[1.0, 1.0]], b=[2.0])


def test_embedding_matrix_small():
    lp = fm.StandardLP(f=[1.0, 0.0], A=[[1.0, 1.0]], b=[2.0])
    prob = fm.to_asynchronous_form(lp)
    expected = np.array([
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [1.0, -1.0, -1.0],
    ])
    assert np.array_equal(prob.B, expected)


def test_embedding_specs_and_validation():
    rng = np.random.default_rng(0)
    for _ in range(10):
        lp = random_standard_lp(rng)
        M, N = lp.shape
        prob = fm.to_asynchronous_form(lp)
        names = [v.name for v in prob.specs()]
        assert names == ["b", "x1", "x2", "y"]
        b_spec, x1_spec, x2_spec, y_spec = prob.specs()
        assert b_spec.kind is fm.Kind.FIXED and np.array_equal(b_spec.rho, lp.b)
        assert x1_spec.kind is fm.Kind.LINEAR_COST
        assert np.array_equal(x1_spec.rho, lp.f)
        assert x2_spec.kind is fm.Kind.NON_NEGATIVE and x2_spec.length == N
        assert y_spec.kind is fm.Kind.NON_NEGATIVE and y_spec.length == M
        assert prob.input_length == M + N and prob.output_length == N + M
        assert fm.validate_async_form(prob) == []


def test_objective_transfers_exactly():
    rng = np.random.default_rng(1)
    for _ in range(20):
        lp = random_standard_lp(rng)
        prob = fm.to_asynchronous_form(lp)
        M, N = lp.shape
        x = rng.normal(size=N)
        values = {"b": lp.b, "x1": x, "x2": np.abs(x), "y": rng.normal(size=M)}
        assert prob.objective_value(values) == pytest.approx(lp.objective(x), abs=1e-12)


def test_objective_includes_l1_terms():
    prob = fm.AsyncFormProblem(
        B=np.ones((1, 2)),
        inputs=(fm.VariableSpec("x", fm.Role.INPUT, fm.Kind.L1_COST, 2),),
        outputs=(fm.VariableSpec("z", fm.Role.OUTPUT, fm.Kind.FIXED, 1,
                                 rho=np.array([1.0])),),
    )
    assert prob.objective_value({"x": np.array([-2.0, 3.0]), "z": np.array([1.0])}) == 5.0


def test_variable_slices_cover_all_coordinates():
    rng = np.random.default_rng(2)
    lp = random_standard_lp(rng)
    prob = fm.to_asynchronous_form(lp)
    slices = prob.variable_slices()
    M, N = lp.shape
    assert slices["b"] == slice(0, M)
    assert slices["x1"] == slice(M, M + N)
    assert slices["x2"] == slice(M + N, M + 2 * N)
    assert slices["y"] == slice(M + 2 * N, 2 * M + 2 * N)


def _valid_pair():
    inputs = (fm.VariableSpec("u", fm.Role.INPUT, fm.Kind.FIXED, 1,
                              rho=np.array([1.0])),)
    outputs = (fm.VariableSpec("v", fm.Role.OUTPUT, fm.Kind.NON_NEGATIVE, 1),)
    return inputs, outputs


def test_validate_flags_dimension_mismatch():
    inputs, outputs = _valid_pair()
    prob = fm.AsyncFormProblem(B=np.ones((2, 1)), inputs=inputs, outputs=outputs)
    errors = fm.validate_async_form(prob)
    assert any("rows" in e for e in errors)


def test_validate_flags_duplicate_names():
    inputs = (fm.VariableSpec("u", fm.Role.INPUT, fm.Kind.FIXED, 1,
                              rho=np.array([1.0])),)
    outputs = (fm.VariableSpec("u", fm.Role.OUTPUT, fm.Kind.NON_NEGATIVE, 1),)
    prob = fm.AsyncFormProblem(B=np.ones((1, 1)), inputs=inputs, outputs=outputs)
    assert any("duplicate" in e for e in fm.validate_async_form(prob))


def test_validate_flags_rho_problems():
    # fixed without rho
    prob = fm.AsyncFormProblem(
        B=np.ones((1, 1)),
        inputs=(fm.VariableSpec("u", fm.Role.INPUT, fm.Kind.FIXED, 1),),
        outputs=(fm.VariableSpec("v", fm.Role.OUTPUT, fm.Kind.NON_NEGATIVE, 1),),
    )
    assert any("no rho" in e for e in fm.validate_async_form(prob))
    # linear cost with wrong-length rho
    prob = fm.AsyncFormProblem(
        B=np.ones((1, 2)),
        inputs=(fm.VariableSpec("u", fm.Role.INPUT, fm.Kind.LINEAR_COST, 2,
                                rho=np.array([1.0])),),
        outputs=(fm.VariableSpec("v", fm.Role.OUTPUT, fm.Kind.NON_NEGATIVE, 1),),
    )
    assert any("length" in e for e in fm.validate_async_form(prob))


def test_validate_flags_cost_on_constrained_vector():
    prob = fm.AsyncFormProblem(
        B=np.ones((1, 1)),
        inputs=(fm.VariableSpec("u", fm.Role.INPUT, fm.Kind.FIXED, 1,
                                rho=np.array([1.0])),),
        outputs=(fm.VariableSpec("v", fm.Role.OUTPUT, fm.Kind.NON_NEGATIVE, 1,
                                 rho=np.array([2.0])),),
    )
    assert any("non-negative" in e for e in fm.validate_async_form(prob))
    prob = fm.AsyncFormProblem(
        B=np.ones((1, 1)),
        inputs=(fm.VariableSpec("u", fm.Role.INPUT, fm.Kind.L1_COST, 1,
                                rho=np.array([1.0])),),
        outputs=(fm.VariableSpec("v", fm.Role.OUTPUT, fm.Kind.FIXED, 1,
                                 rho=np.array([0.0])),),
    )
    assert any("l1_cost" in e for e in fm.validate_async_form(prob))


def test_role_mismatch_raises_at_construction():
    with pytest.raises(ValueError):
        fm.AsyncFormProblem(
            B=np.ones((1, 1)),
            inputs=(fm.VariableSpec("v", fm.Role.OUTPUT, fm.Kind.NON_NEGATIVE, 1),),
            outputs=(fm.VariableSpec("u", fm.Role.INPUT, fm.Kind.FIXED, 1,
                                     rho=np.array([1.0])),),
        )


def test_kind_is_affine_partition():
    assert fm.Kind.FIXED.is_affine and fm.Kind.LINEAR_COST.is_affine
    assert not fm.Kind.NON_NEGATIVE.is_affine and not fm.Kind.L1_COST.is_affine


def test_standard_lp_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    lp = random_standard_lp(rng)
    path = tmp_path / "lp.json"
    problems.save_problem(lp, path)
    back = problems.load_problem(path)
    assert isinstance(back, fm.StandardLP)
    assert np.array_equal(back.A, lp.A)
    assert np.array_equal(back.b, lp.b)
    assert np.array_equal(back.f, lp.f)


def test_async_form_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    prob = fm.to_asynchronous_form(random_standard_lp(rng))
    path = tmp_path / "prob.json"
    problems.save_problem(prob, path)
    back = problems.load_problem(path)
    assert isinstance(back, fm.AsyncFormProblem)
    assert np.array_equal(back.B, prob.B)
    for a, b in zip(back.specs(), prob.specs()):
        assert a.name == b.name and a.role is b.role and a.kind is b.kind
        assert a.length == b.length
        if b.rho is None:
            assert a.rho is None
        else:
            assert np.array_equal(a.rho, b.rho)
    assert fm.validate_async_form(back) == []


def test_problem_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        problems.problem_from_dict({"kind": "mystery"})
