import numpy as np
import pytest

from asynclp import engine
from asynclp import stationarity as st
from asynclp.formulation import (AsyncFormProblem, Kind, Role, StandardLP,
                                 VariableSpec, to_asynchronous_form)

from asynclp.problems import (basis_pursuit_encode, chebyshev_encode,
                              gen_basis_pursuit, gen_chebyshev)

from conftest import (mini_fixed_problem, random_async_problem, random_sided_system,
                      random_standard_lp, two_sided_problem)


# ---------------------------------------------------------------------------
# operator construction

def test_build_R_structure():
    rng = np.random.default_rng(0)
    B = rng.normal(size=(3, 5))
    R = st.build_R(B)
    assert R.shape == (8, 8)
    assert np.array_equal(R[:5, 5:], -B.T)
    assert np.array_equal(R[5:, :5], B)
    assert np.array_equal(R[:5, :5], np.zeros((5, 5)))
    assert np.allclose(R, -R.T)


def test_G_for_unit_B_equals_rotation():
    G = st.build_G(np.array([[1.0]]))
    expected = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.allclose(G, expected, atol=1e-14)
    # B'B = I here, so G collapses to R itself
    assert np.abs(G - st.build_R(np.array([[1.0]]))).max() <= 1e-14


def test_G_special_orthogonal_no_minus_one_eigenvalue():
    rng = np.random.default_rng(1)
    for _ in range(20):
        P = int(rng.integers(1, 8))
        Q = int(rng.integers(1, 8))
        G = st.build_G(rng.normal(size=(P, Q)))
        n = P + Q
        assert np.abs(G.T @ G - np.eye(n)).max() <= 1e-11
        assert np.linalg.det(G) == pytest.approx(1.0, abs=1e-9)
        eigs = np.linalg.eigvals(G)
        assert np.abs(eigs + 1.0).min() > 1e-6


def test_factored_construction_agrees():
    rng = np.random.default_rng(2)
    for _ in range(20):
        P = int(rng.integers(1, 8))
        Q = int(rng.integers(1, 8))
        B = rng.normal(size=(P, Q))
        assert np.abs(st.build_G(B) - st.build_G_factored(B)).max() <= 1e-10


@pytest.mark.parametrize("shape", [(3, 7), (5, 5), (7, 3), (1, 1), (12, 30),
                                   (30, 12)])
def test_build_G_is_the_cayley_transform(shape):
    # build_G goes through the smaller Gram matrix; compare with the direct
    # (P+Q)-sized solve of the definition
    rng = np.random.default_rng(sum(shape))
    for _ in range(10):
        B = rng.normal(size=shape)
        R = st.build_R(B)
        n = R.shape[0]
        expected = np.linalg.solve(np.eye(n) - R, np.eye(n) + R)
        G = st.build_G(B)
        assert G.shape == (n, n)
        assert np.abs(G - expected).max() <= 1e-12


@pytest.mark.parametrize("shape", [(40, 100), (100, 40)])
def test_G_orthogonal_on_badly_scaled_B(shape):
    # ||B||_2 is in the thousands; the direct (P+Q)-sized solve loses
    # orthogonality to ~1e-12 here
    rng = np.random.default_rng(4)
    B = 1000.0 * rng.normal(size=shape) / np.sqrt(shape[0])
    G = st.build_G(B)
    assert np.abs(G.T @ G - np.eye(G.shape[0])).max() <= 1e-14


def test_G_equals_R_iff_square_orthogonal():
    rng = np.random.default_rng(3)
    # square orthogonal B (R^2 = -I): the Cayley transform collapses to R
    B, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    assert np.abs(st.build_G(B) - st.build_R(B)).max() <= 1e-12
    # tall B with orthonormal columns is NOT enough: R has a null space on
    # ker(B^T), where G acts as the identity while R acts as zero
    X = rng.normal(size=(6, 4))
    Btall, _ = np.linalg.qr(X)
    diff = st.build_G(Btall) - st.build_R(Btall)
    assert np.abs(diff).max() > 1e-3
    # generic B: G != R
    B = rng.normal(size=(6, 4))
    assert np.abs(st.build_G(B) - st.build_R(B)).max() > 1e-3


# ---------------------------------------------------------------------------
# nonlinearities

def test_m1_exact_values():
    assert st.m1(0.5) == -0.5
    assert st.m1(1.0) == -1.0
    assert st.m1(-1.0) == 1.0
    assert st.m1(2.0) == 0.0
    assert st.m1(-3.0) == -1.0
    assert np.array_equal(st.m1([-1.5, 0.0, 4.0]), np.array([0.5, 0.0, 2.0]))


def test_float_base_maps_equal_the_array_forms_bitwise():
    # the float form of each base map (coordinate_kernel's) gives the array
    # form's bits on every piece of m1, at its breakpoints and on signed zeros
    system = st.build_system(two_sided_problem(np.random.default_rng(0)))
    edge = np.nextafter(1.0, 2.0)
    d = np.concatenate([[-0.0, 0.0, -1.0, 1.0, -edge, edge],
                        np.random.default_rng(1).normal(scale=3.0, size=200)])
    forms = {system.base_maps(k) for k in range(system.n_nonlinear)}
    assert {on_arrays for on_arrays, _ in forms} == {np.abs, st.m1}
    for on_arrays, on_floats in forms:
        assert np.array([on_floats(x) for x in d.tolist()]).tobytes() \
            == on_arrays(d).tobytes()


def test_nonlinearity_table_all_eight():
    d = np.array([-2.0, -0.5, 0.0, 0.7, 3.0])
    rho = np.array([1.0, -1.0, 0.5, 0.0, 2.0])
    cases = {
        (Kind.FIXED, Role.INPUT): -d + 2 * rho,
        (Kind.FIXED, Role.OUTPUT): d - 2 * rho,
        (Kind.LINEAR_COST, Role.INPUT): d - 2 * rho,
        (Kind.LINEAR_COST, Role.OUTPUT): -d + 2 * rho,
        (Kind.NON_NEGATIVE, Role.INPUT): np.abs(d),
        (Kind.NON_NEGATIVE, Role.OUTPUT): -np.abs(d),
        (Kind.L1_COST, Role.INPUT): st.m1(d),
        (Kind.L1_COST, Role.OUTPUT): -st.m1(d),
    }
    for (kind, role), expected in cases.items():
        got = st.apply_nonlinearity(kind, role, d, rho=rho)
        assert np.allclose(got, expected, atol=1e-15), (kind, role)


def test_gamma_scales_only_nonaffine_kinds():
    d = np.array([-2.0, 0.7])
    rho = np.array([1.0, -1.0])
    for kind in (Kind.FIXED, Kind.LINEAR_COST):
        full = st.apply_nonlinearity(kind, Role.INPUT, d, rho=rho, gamma=1.0)
        half = st.apply_nonlinearity(kind, Role.INPUT, d, rho=rho, gamma=0.5)
        assert np.array_equal(full, half)
    for kind in (Kind.NON_NEGATIVE, Kind.L1_COST):
        full = st.apply_nonlinearity(kind, Role.OUTPUT, d, gamma=1.0)
        half = st.apply_nonlinearity(kind, Role.OUTPUT, d, gamma=0.5)
        assert np.allclose(half, 0.5 * full, atol=1e-15)


def test_m_scalar_bit_identical_to_vector_path():
    rng = np.random.default_rng(4)
    for _ in range(5):
        system = st.build_system(random_async_problem(rng))
        d2 = rng.normal(scale=2.0, size=system.n_nonlinear)
        for gamma in (1.0, 0.3):
            vec = system.m(d2, gamma)
            for k in range(system.n_nonlinear):
                assert system.m_scalar(k, d2[k], gamma) == vec[k]


def _eight_kind_problem(rng):
    """Every affine (kind, role) pair, linear-cost outputs included (no encoder
    produces one), plus nonlinear inputs and outputs of both kinds, declared
    interleaved so that neither partition is one contiguous run."""
    decls = [("a", Role.INPUT, Kind.FIXED, 2), ("b", Role.INPUT, Kind.LINEAR_COST, 2),
             ("p", Role.INPUT, Kind.NON_NEGATIVE, 2), ("q", Role.INPUT, Kind.L1_COST, 1),
             ("c", Role.OUTPUT, Kind.FIXED, 2), ("f", Role.OUTPUT, Kind.LINEAR_COST, 2),
             ("r", Role.OUTPUT, Kind.NON_NEGATIVE, 2), ("w", Role.OUTPUT, Kind.L1_COST, 1)]
    specs = [VariableSpec(name, role, kind, n,
                          rho=rng.normal(size=n) if kind.is_affine else None)
             for name, role, kind, n in decls]
    return AsyncFormProblem(
        B=rng.normal(size=(7, 7)),
        inputs=tuple(v for v in specs if v.role is Role.INPUT),
        outputs=tuple(v for v in specs if v.role is Role.OUTPUT))


def test_reduce_reads_the_same_table_as_apply_nonlinearity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        problem = _eight_kind_problem(rng)
        system = st.build_system(problem)
        coords = [(v.kind, v.role, None if v.rho is None else v.rho[i])
                  for v in problem.specs() for i in range(v.length)]
        d = rng.normal(scale=2.0, size=50)
        for j, i in enumerate(system.affine_idx):
            kind, role, rho = coords[i]
            assert np.array_equal(st.apply_nonlinearity(kind, role, d, rho=rho),
                                  system.s[j] * d + system.h[j]), (kind, role)
        d2 = rng.normal(scale=2.0, size=system.n_nonlinear)
        for gamma in (1.0, 0.4):
            expected = [st.apply_nonlinearity(*coords[i][:2], d2[k], gamma=gamma)
                        for k, i in enumerate(system.nonlinear_idx)]
            assert np.array_equal(system.m(d2, gamma), expected)


def test_m_equals_the_where_form_bitwise():
    # m picks its base map once per system; on all-abs, all-l1 and mixed
    # systems it must give the np.where form bit for bit
    rng = np.random.default_rng(11)
    mixed = AsyncFormProblem(
        B=rng.normal(size=(3, 3)),
        inputs=(VariableSpec("a", Role.INPUT, Kind.FIXED, 1, rho=np.ones(1)),
                VariableSpec("q", Role.INPUT, Kind.L1_COST, 2)),
        outputs=(VariableSpec("r", Role.OUTPUT, Kind.NON_NEGATIVE, 3),))
    problems = [chebyshev_encode(gen_chebyshev(4, 8, seed=1)),
                basis_pursuit_encode(gen_basis_pursuit(16, 8, 2, seed=1)), mixed]
    for problem, l1 in zip(problems, ("none", "all", "some")):
        system = st.build_system(problem)
        assert l1 == ("all" if system.nl_is_l1.all() else
                      "some" if system.nl_is_l1.any() else "none")
        for gamma in (1.0, 0.3):
            d2 = rng.normal(scale=2.0, size=system.n_nonlinear)
            expected = (gamma * np.where(system.nl_is_l1, st.m1(d2),
                                         np.abs(d2))) * system.nl_sign
            assert np.array_equal(system.m(d2, gamma), expected)


# ---------------------------------------------------------------------------
# reduction

def test_mini_system_reduction_closed_form():
    system = st.build_system(mini_fixed_problem())
    assert np.allclose(system.Gprime, [[1.0]], atol=1e-14)
    assert np.allclose(system.e, [2.0], atol=1e-14)
    assert np.array_equal(system.s, [-1.0])
    assert np.array_equal(system.h, [2.0])
    # unique fixed point d2* = 1 (from d2 = -|d2| + 2)
    d2 = np.array([1.0])
    assert system.residual(d2) <= 1e-14
    c2 = system.m(d2)
    values = system.recover_variables(d2, c2)
    assert values["u"] == pytest.approx(1.0, abs=1e-14)
    assert values["v"] == pytest.approx(1.0, abs=1e-14)


def test_standard_embedding_S_and_h_exact():
    rng = np.random.default_rng(5)
    for _ in range(10):
        lp = random_standard_lp(rng)
        M, N = lp.shape
        system = st.build_system(to_asynchronous_form(lp))
        assert np.array_equal(system.s,
                              np.concatenate([-np.ones(M), np.ones(N)]))
        assert np.array_equal(system.h,
                              np.concatenate([2 * lp.b, -2 * lp.f]))


def test_offset_cross_form():
    # e must match the direct formula 2 G21 (I - S G11)^{-1} [b; -f]
    rng = np.random.default_rng(6)
    for _ in range(10):
        lp = random_standard_lp(rng)
        M, N = lp.shape
        system = st.build_system(to_asynchronous_form(lp))
        S = np.diag(system.s)
        v = np.concatenate([lp.b, -lp.f])
        e_direct = 2.0 * system.G21 @ np.linalg.solve(
            np.eye(M + N) - S @ system.G11, v)
        assert np.abs(system.e - e_direct).max() <= 1e-10


def test_reduced_operator_is_symmetric_only_when_one_sided():
    # G' is orthogonal on every problem, but symmetric (to rounding) only
    # when every nonlinear coordinate sits on one side, as in each encoder;
    # with nonlinear coordinates on both sides it is in general far from it
    rng = np.random.default_rng(17)
    asymmetry = {}
    for two_sided in (False, True):
        asymmetry[two_sided] = []
        for _ in range(40):
            Gp = random_sided_system(rng, two_sided).Gprime
            assert np.abs(Gp.T @ Gp - np.eye(len(Gp))).max() <= 1e-9
            asymmetry[two_sided].append(np.abs(Gp - Gp.T).max())
    assert max(asymmetry[False]) <= 1e-12
    assert max(asymmetry[True]) > 0.1


def test_reduced_operator_is_isometry():
    rng = np.random.default_rng(7)
    for _ in range(10):
        system = st.build_system(random_async_problem(rng))
        K = system.n_nonlinear
        err = np.abs(system.Gprime.T @ system.Gprime - np.eye(K)).max()
        assert err <= 1e-10


def test_recovery_satisfies_problem_relations_at_fixed_point():
    rng = np.random.default_rng(8)
    raw = random_standard_lp(rng)
    # cap the simplex so the feasible set is bounded and a fixed point exists
    # (a random A alone can leave an unbounded recession direction)
    lp = StandardLP(f=raw.f,
                    A=np.vstack([raw.A, np.ones(raw.A.shape[1])]),
                    b=np.append(raw.b, 10.0))
    M, N = lp.shape
    system = st.build_system(to_asynchronous_form(lp))
    schedule = engine.ScheduleConfig(mode="bernoulli", p=0.5, seed=1,
                                     homotopy="bp")
    state, _ = engine.run(system, schedule, max_equiv_iters=4000, tol=1e-11)
    assert state.converged
    values = system.recover_variables(state.d2, state.c2)
    z1 = np.concatenate([values["b"], values["x1"]])
    z2 = np.concatenate([values["x2"], values["y"]])
    B = system.problem.B
    assert np.abs(B @ z1 - z2).max() <= 1e-8
    assert np.abs(values["b"] - lp.b).max() <= 1e-8
    assert np.abs(values["x2"] - values["x1"]).max() <= 1e-8
    assert np.abs(values["y"] - (lp.b - lp.A @ values["x1"])).max() <= 1e-8
    assert values["x2"].min() >= -1e-8 and values["y"].min() >= -1e-8


def _dense_elimination(G, problem):
    """Reference reduction: np.ix_ blocks of G, the map table read per
    coordinate, and LU solves only (no inverse).  Returns the blocks and
    (Gprime, e, D, d0, objective_c2, objective_0)."""
    coords = [(v.kind, v.role, 0.0 if v.rho is None else v.rho[i])
              for v in problem.specs() for i in range(v.length)]
    aff = np.array([i for i, c in enumerate(coords) if c[0].is_affine])
    nl = np.array([i for i, c in enumerate(coords) if not c[0].is_affine])
    sign = np.array([1.0 if coords[i][1] is Role.INPUT else -1.0 for i in aff])
    s = sign * np.array([-1.0 if coords[i][0] is Kind.FIXED else 1.0 for i in aff])
    rho = np.array([coords[i][2] for i in aff])
    h = -2.0 * s * rho
    G11, G12 = G[np.ix_(aff, aff)], G[np.ix_(aff, nl)]
    G21, G22 = G[np.ix_(nl, aff)], G[np.ix_(nl, nl)]
    # c1 = S d1 + h eliminated from d1 = G11 c1 + G12 c2, d2 = G21 c1 + G22 c2
    K1 = len(aff)
    sol = np.linalg.solve(np.eye(K1) - s[:, None] * G11,
                          np.column_stack([s[:, None] * G12, h]))
    Gprime = G22 + G21 @ sol[:, :-1]
    e = G21 @ sol[:, -1]
    # (I - G11 S) d1 = G12 c2 + G11 h
    rec = np.linalg.solve(np.eye(K1) - G11 * s, np.column_stack([G12, G11 @ h]))
    D, d0 = rec[:, :-1], rec[:, -1]
    # z1 = (d1 + sign c1)/2 on affine coordinates; rho is the linear cost
    cost = np.array([coords[i][2] if coords[i][0] is Kind.LINEAR_COST else 0.0
                     for i in aff])
    scale = (1.0 + sign * s) / 2.0
    objective_c2 = cost @ (scale[:, None] * D)
    objective_0 = float(cost @ (scale * d0 + sign * h / 2.0))
    return ((G11, G12, G21),
            (Gprime, e, D, d0, objective_c2, objective_0))


def _reduction_cases():
    rng = np.random.default_rng(13)
    cases = [("interleaved", _eight_kind_problem(rng)) for _ in range(10)]
    cases += [("standard", to_asynchronous_form(random_standard_lp(rng)))
              for _ in range(4)]
    cases += [("chebyshev", chebyshev_encode(gen_chebyshev(n, m, seed=n)))
              for n, m in ((3, 8), (10, 20))]
    cases += [("basis_pursuit", basis_pursuit_encode(
        gen_basis_pursuit(n, m, k, seed=n))) for n, m, k in ((16, 8, 2), (64, 32, 4))]
    return cases


def test_reduce_equals_dense_elimination():
    # the interleaved layout takes reduce's np.ix_ path, the three encoders
    # (Chebyshev's B is tall, basis pursuit's wide) its contiguous-view path
    for layout, problem in _reduction_cases():
        G = st.build_G(problem.B)
        system = st.reduce(G, problem)
        contiguous = all(np.all(np.diff(idx) == 1)
                         for idx in (system.affine_idx, system.nonlinear_idx))
        assert contiguous == (layout != "interleaved")
        blocks, expected = _dense_elimination(G, problem)
        for got, want in zip((system.G11, system.G12, system.G21), blocks):
            assert np.array_equal(got, want), layout
        got = (system.Gprime, system.e, system.D, system.d0,
               system.objective_c2, system.objective_0)
        for name, g, w in zip(("Gprime", "e", "D", "d0", "objective_c2",
                               "objective_0"), got, expected):
            assert np.abs(np.asarray(g) - w).max() <= 1e-12, (layout, name)


def test_benchmark_scale_operators_are_orthogonal():
    # the 512 x 200 basis-pursuit set-up of the benchmark's bp-large
    # workload, held to its orthogonality bound on G (1e-9) and to 1e-10 on G'
    problem = basis_pursuit_encode(gen_basis_pursuit(512, 200, 16))
    system = st.reduce(st.build_G(problem.B), problem)
    G, Gp = system.G, system.Gprime
    assert np.abs(G.T @ G - np.eye(len(G))).max() <= 1e-9
    assert np.abs(Gp.T @ Gp - np.eye(len(Gp))).max() <= 1e-10


def test_reduce_rejects_invalid_and_unpartitioned_problems():
    from asynclp.formulation import AsyncFormProblem, VariableSpec
    # missing rho -> validation failure
    bad = AsyncFormProblem(
        B=np.ones((1, 1)),
        inputs=(VariableSpec("u", Role.INPUT, Kind.FIXED, 1),),
        outputs=(VariableSpec("v", Role.OUTPUT, Kind.NON_NEGATIVE, 1),),
    )
    with pytest.raises(ValueError, match="invalid problem"):
        st.build_system(bad)
    # no affine coordinates -> not reducible
    allnl = AsyncFormProblem(
        B=np.ones((1, 1)),
        inputs=(VariableSpec("u", Role.INPUT, Kind.NON_NEGATIVE, 1),),
        outputs=(VariableSpec("v", Role.OUTPUT, Kind.NON_NEGATIVE, 1),),
    )
    with pytest.raises(ValueError, match="at least one"):
        st.build_system(allnl)
    # G of the wrong size
    with pytest.raises(ValueError, match="shape"):
        st.reduce(np.eye(3), mini_fixed_problem())


def test_reduce_refuses_uncoupled_cost_input():
    # a linear-cost input whose column of B is zero makes I - S G11 exactly
    # singular (inv raises); with the column merely nonzero the block is
    # still rank-deficient here (rank <= P < Q), and rounding leaves it
    # invertible, so the 1-norm condition number must refuse it
    for eps in (0.0, 1e-3):
        problem = AsyncFormProblem(
            B=np.array([[1.0, eps, 2.0], [0.5, 0.0, -1.0]]),
            inputs=(VariableSpec("u", Role.INPUT, Kind.LINEAR_COST, 3,
                                 rho=np.array([1.0, 1.0, 0.0])),),
            outputs=(VariableSpec("y", Role.OUTPUT, Kind.NON_NEGATIVE, 2),))
        with pytest.raises(st.ReductionSingularError):
            st.build_system(problem)


def test_maps_of_a_stack_of_states_equal_the_one_state_maps_bitwise():
    # the monitoring maps take the states of one system as the rows of a 2-D
    # array (engine.run_trials); each row's value is bitwise its own call's
    rng = np.random.default_rng(18)
    problems = [random_async_problem(rng) for _ in range(4)]
    problems += [chebyshev_encode(gen_chebyshev(6, 12, seed=1)),
                 basis_pursuit_encode(gen_basis_pursuit(64, 32, 4, seed=3))]
    for problem in problems:
        system = st.build_system(problem)
        d2 = rng.normal(scale=2.0, size=(5, system.n_nonlinear))
        c2 = rng.normal(scale=2.0, size=(5, system.n_nonlinear))
        reference = engine.reference_coordinates(
            system, {v.name: rng.normal() for v in problem.specs()[::2]})
        stacked = [system.operator(d2, 0.7), system.residual(d2),
                   system.objective(d2, c2), system.variable_vector(d2, c2),
                   *system.recover_affine(c2),
                   *engine.Trajectory.measure(system, d2, c2, reference)]
        for r in range(5):
            one = [system.operator(d2[r], 0.7), system.residual(d2[r]),
                   system.objective(d2[r], c2[r]),
                   system.variable_vector(d2[r], c2[r]),
                   *system.recover_affine(c2[r]),
                   *engine.Trajectory.measure(system, d2[r], c2[r], reference)]
            for got, want in zip(stacked, one):
                assert np.array_equal(got[r], want)
        assert isinstance(one[1], float) and isinstance(one[2], float)


def _objective_with_l1_sum(system, d2, c2):
    # the objective as written before systems with no l1 coordinate skipped
    # the empty l1 sum
    z2 = (d2 + system.nl_sign * c2) / 2.0
    l1 = np.ascontiguousarray(np.abs(z2[..., system.nl_is_l1])).sum(axis=-1)
    value = (np.matmul(system.objective_c2, c2[..., None])[..., 0]
             + system.objective_0 + l1)
    return float(value) if value.ndim == 0 else value


def test_objective_is_the_l1_sum_formula_bitwise():
    # the l1 sum skips the gather of l1 coordinates when none is l1 and when
    # all are (basis pursuit, measured once per unit as a (T, K) stack)
    rng = np.random.default_rng(23)
    problems = [random_async_problem(rng) for _ in range(6)]
    problems += [chebyshev_encode(gen_chebyshev(10, 20, seed=2)),
                 to_asynchronous_form(random_standard_lp(rng)),
                 basis_pursuit_encode(gen_basis_pursuit(16, 8, 2, seed=1)),
                 AsyncFormProblem(
                     B=rng.normal(size=(3, 3)),
                     inputs=(VariableSpec("x", Role.INPUT, Kind.L1_COST, 2),
                             VariableSpec("u", Role.INPUT, Kind.FIXED, 1,
                                          rho=np.array([1.0]))),
                     outputs=(VariableSpec("y", Role.OUTPUT,
                                           Kind.NON_NEGATIVE, 3),))]
    kinds = set()
    for problem in problems:
        system = st.build_system(problem)
        kinds.add((bool(system.nl_is_l1.any()), bool(system.nl_is_l1.all())))
        K = system.n_nonlinear
        d2 = rng.normal(scale=2.0, size=(7, K))
        c2 = rng.normal(scale=2.0, size=(7, K))
        c2[0] = 0.0
        for args in [(d2, c2), (d2[3], c2[3]), (d2[0], c2[0]),
                     (system.e, np.zeros(K))]:
            got, want = system.objective(*args), _objective_with_l1_sum(system, *args)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert kinds == {(False, False), (True, False), (True, True)}


def test_monitoring_map_equals_full_recovery():
    # recovery and the objective come from maps precomputed by reduce; check
    # them against the LU solve of (I - G11 S) d1 = G12 c2 + G11 h and the
    # per-variable assembly, at random states
    rng = np.random.default_rng(12)
    problems = [random_async_problem(rng) for _ in range(8)]
    problems += [chebyshev_encode(gen_chebyshev(6, 12, seed=1)),
                 chebyshev_encode(gen_chebyshev(10, 20, seed=2)),
                 basis_pursuit_encode(gen_basis_pursuit(64, 32, 4, seed=3))]
    for problem in problems:
        system = st.build_system(problem)
        K, K1 = system.n_nonlinear, system.n_affine
        for _ in range(3):
            d2 = rng.normal(scale=2.0, size=K)
            c2 = rng.normal(scale=2.0, size=K)
            d1 = np.linalg.solve(np.eye(K1) - system.G11 * system.s,
                                 system.G12 @ c2 + system.G11 @ system.h)
            got_d1, got_c1 = system.recover_affine(c2)
            assert np.abs(got_d1 - d1).max() <= 1e-12
            assert np.array_equal(got_c1, system.s * got_d1 + system.h)

            d = np.empty(K1 + K)
            c = np.empty(K1 + K)
            d[system.affine_idx], c[system.affine_idx] = d1, system.s * d1 + system.h
            d[system.nonlinear_idx], c[system.nonlinear_idx] = d2, c2
            slices = problem.variable_slices()
            values = {v.name: (d[slices[v.name]] + c[slices[v.name]]) / 2.0
                      if v.role is Role.INPUT else
                      (d[slices[v.name]] - c[slices[v.name]]) / 2.0
                      for v in problem.specs()}
            recovered = system.recover_variables(d2, c2)
            assert recovered.keys() == values.keys()
            for name in values:
                assert np.abs(recovered[name] - values[name]).max() <= 1e-12

            names = list(values)[::2]
            reference = {n: rng.normal(size=len(values[n])) for n in names}
            traj = engine.Trajectory()
            traj.record(system, 0.0, d2, c2,
                        engine.reference_coordinates(system, reference))
            assert traj.residual == [system.residual(d2)]
            assert traj.objective[0] == pytest.approx(
                problem.objective_value(values), rel=0.0, abs=1e-12)
            dist = np.sqrt(sum(np.sum((values[n] - reference[n]) ** 2)
                               for n in names))
            assert traj.dist_to_ref[0] == pytest.approx(dist, rel=0.0, abs=1e-12)


def test_dump_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    system = st.build_system(to_asynchronous_form(random_standard_lp(rng)))
    path = tmp_path / "system.npz"
    system.dump(path)
    data = np.load(path)
    assert set(data.files) == {"G", "Gprime", "e", "s", "h",
                               "affine_idx", "nonlinear_idx"}
    assert np.array_equal(data["Gprime"], system.Gprime)
    assert np.array_equal(data["e"], system.e)
    assert np.array_equal(data["affine_idx"], system.affine_idx)
