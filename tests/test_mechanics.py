from dataclasses import replace

import numpy as np
import pytest

from pidpbc import (Gains, MechanicalSystem, SingularInertiaError, State,
                    assemble_inertia, coriolis_decomposition, forward_dynamics,
                    linear_system)
from pidpbc.mechanics import mau_gradient, muu_gradient

from conftest import BENCH, PSI
from oracles import christoffel_coriolis, reduced_unactuated_dynamics
from synthetic import make_synthetic, random_state


def test_inertia_assembly_cart_pendulum(cart):
    M = assemble_inertia(cart, [PSI])
    expected = np.array([[0.14 * 0.215 ** 2, 0.14 * 0.215],
                         [0.14 * 0.215, 0.58]])
    assert np.allclose(M, expected, atol=1e-12)
    assert np.allclose(M, [[0.0064715, 0.0301], [0.0301, 0.58]], atol=1e-7)


def test_inertia_constant_system_independent_of_qu():
    lin = linear_system(M=[[2.0, 1.0], [1.0, 1.0]], S_u=[[1.0]])
    M0 = assemble_inertia(lin, [0.0])
    for q in (-1.3, 0.4, 2.0):
        assert np.array_equal(assemble_inertia(lin, [q]), M0)


def test_inertia_assembly_matches_block_concatenation():
    sys_ = make_synthetic(1, 2, seed=5)
    rng = np.random.default_rng(7)
    for _ in range(10):
        q_u = rng.uniform(-1, 1, 1)
        M = assemble_inertia(sys_, q_u)
        muu, mau = sys_.muu(q_u), sys_.mau(q_u)
        oracle = np.vstack([np.hstack([muu, mau.T]), np.hstack([mau, sys_.maa])])
        assert np.allclose(M, oracle, atol=0, rtol=0)
        assert np.allclose(M, M.T, atol=1e-14)


def test_coriolis_decomposition_zero_velocity(cart):
    st = State([0.4], [0.1], [0.0], [0.0])
    cmu, dmu, act = coriolis_decomposition(cart, st)
    assert np.all(cmu == 0) and np.all(dmu == 0) and np.all(act == 0)


def test_dmu_vanishes_without_actuated_velocity():
    sys_ = make_synthetic(2, 2, seed=3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        st = State(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2),
                   rng.normal(size=2), np.zeros(2))
        _, dmu, _ = coriolis_decomposition(sys_, st)
        assert np.abs(dmu).max() < 1e-14


def test_decomposition_matches_christoffel(cart):
    rng = np.random.default_rng(11)
    for sys_ in (cart, make_synthetic(1, 2, seed=1), make_synthetic(2, 2, seed=2)):
        for _ in range(50):
            st = random_state(sys_, rng)
            cmu, dmu, act = coriolis_decomposition(sys_, st)
            full = christoffel_coriolis(sys_, st)
            stacked = np.concatenate([cmu + dmu, act])
            assert np.abs(stacked - full).max() <= 1e-8 * (1 + np.abs(full).max())


def test_christoffel_trivial_cases():
    lin = linear_system(M=[[2.0, 1.0], [1.0, 1.0]], S_u=[[1.0]])
    st = State([0.3], [0.2], [1.1], [-0.4])
    assert np.abs(christoffel_coriolis(lin, st)).max() == 0.0


def test_christoffel_matches_finite_difference_bracket(cart):
    st = State([PSI + 0.3], [0.0], [1.0], [0.5])
    h = 1e-6
    qd = st.qd
    # central-difference Jacobian of q -> M(q_u) qd
    J = np.zeros((2, 2))
    for k in range(1):  # only the unactuated coordinate enters
        Mp = assemble_inertia(cart, st.q_u + h)
        Mm = assemble_inertia(cart, st.q_u - h)
        J[:, k] = ((Mp - Mm) / (2 * h)) @ qd
    oracle = J @ qd - 0.5 * J.T @ qd
    assert np.allclose(christoffel_coriolis(cart, st), oracle, atol=1e-7)


def test_skew_symmetry_of_coriolis():
    rng = np.random.default_rng(23)
    for sys_ in (make_synthetic(1, 2, seed=4), make_synthetic(2, 2, seed=6)):
        for _ in range(500):
            st = random_state(sys_, rng)
            Cqd = christoffel_coriolis(sys_, st)
            h = 1e-6
            # Mdot along the velocity, by finite differences
            qu_p = st.q_u + h * st.qd_u
            qu_m = st.q_u - h * st.qd_u
            Mdot = (assemble_inertia(sys_, qu_p) - assemble_inertia(sys_, qu_m)) / (2 * h)
            val = st.qd @ (Mdot @ st.qd) - 2.0 * st.qd @ Cqd
            assert abs(val) <= 1e-8 * (1 + np.linalg.norm(st.qd) ** 4)


def test_forward_dynamics_equilibrium(cart):
    st = State([0.0], [0.3], [0.0], [0.0])
    tau = cart.gradVa(st.q_a)
    qdd = forward_dynamics(cart, st, tau)
    assert np.abs(qdd).max() < 1e-14


def test_forward_dynamics_linear_form():
    M = np.array([[2.0, 1.0], [1.0, 1.0]])
    lin = linear_system(M=M, S_u=[[1.5]], S_a=[[0.7]])
    rng = np.random.default_rng(2)
    S = np.diag([1.5, 0.7])
    for _ in range(10):
        q = rng.normal(size=2)
        qd = rng.normal(size=2)
        tau = rng.normal(size=1)
        st = State(q[:1], q[1:], qd[:1], qd[1:])
        oracle = np.linalg.solve(M, np.array([0.0, tau[0]]) - S @ q)
        assert np.allclose(forward_dynamics(lin, st, tau), oracle, atol=1e-12)


def test_forward_dynamics_residual():
    rng = np.random.default_rng(9)
    for sys_ in (make_synthetic(1, 2, seed=8), make_synthetic(2, 2, seed=9)):
        for _ in range(25):
            st = random_state(sys_, rng)
            tau = rng.normal(size=sys_.m)
            qdd = forward_dynamics(sys_, st, tau)
            M = assemble_inertia(sys_, st.q_u)
            resid = M @ qdd + christoffel_coriolis(sys_, st) \
                + np.concatenate([sys_.gradVu(st.q_u), sys_.gradVa(st.q_a)]) \
                - np.concatenate([np.zeros(sys_.s), tau])
            assert np.linalg.norm(resid) <= 1e-10 * (1 + np.linalg.norm(tau))


def test_reduced_dynamics_matches_forward(cart):
    rng = np.random.default_rng(31)
    for sys_ in (cart, make_synthetic(2, 2, seed=12)):
        for _ in range(25):
            st = random_state(sys_, rng)
            u = rng.normal(size=sys_.m)
            tau = u + sys_.gradVa(st.q_a)
            oracle = forward_dynamics(sys_, st, tau)[: sys_.s]
            assert np.allclose(reduced_unactuated_dynamics(sys_, st, u), oracle,
                               atol=1e-10)


def test_reduced_dynamics_trivial_zero():
    lin = linear_system(M=[[2.0, 1.0], [1.0, 1.0]], S_u=[[0.0]])
    st = State([0.7], [-0.2], [1.3], [0.4])
    # constant inertia and no unactuated potential: nothing drives q_u
    assert np.abs(reduced_unactuated_dynamics(lin, st, np.zeros(1))).max() < 1e-14


def test_gradient_fallback_matches_analytic():
    sys_ = make_synthetic(2, 2, seed=21)
    stripped = MechanicalSystem(
        s=sys_.s, m=sys_.m, muu_fn=sys_.muu_fn, mau_fn=sys_.mau_fn, maa=sys_.maa,
        Vu_fn=sys_.Vu_fn, gradVu_fn=sys_.gradVu_fn,
        Va_fn=sys_.Va_fn, gradVa_fn=sys_.gradVa_fn)
    rng = np.random.default_rng(3)
    for _ in range(10):
        q_u = rng.uniform(-1, 1, 2)
        assert np.allclose(muu_gradient(stripped, q_u), muu_gradient(sys_, q_u), atol=1e-9)
        assert np.allclose(mau_gradient(stripped, q_u), mau_gradient(sys_, q_u), atol=1e-9)


def test_singular_inertia_reports_configuration():
    bad = MechanicalSystem(
        s=1, m=1,
        muu_fn=lambda q: np.array([[0.0]]),  # massless unactuated block
        mau_fn=lambda q: np.array([[0.0]]),
        maa=np.array([[1.0]]),
        Vu_fn=lambda q: 0.0, gradVu_fn=lambda q: np.zeros(1),
        Va_fn=lambda q: 0.0, gradVa_fn=lambda q: np.zeros(1))
    st = State([0.5], [0.0], [0.0], [0.0])
    with pytest.raises(SingularInertiaError) as err:
        forward_dynamics(bad, st, np.zeros(1))
    assert "0.5" in str(err.value)


def test_state_validation():
    with pytest.raises(ValueError):
        State([np.nan], [0.0], [0.0], [0.0])
    with pytest.raises(ValueError):
        State([0.0, 1.0], [0.0], [0.0], [0.0])


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("entry", ["K_P", "K_I", "K_D", "q_a_star", "maa", "affine_Va slope"])
def test_non_finite_gain_and_plant_data_is_refused_naming_the_entry(cart, entry, value):
    # a non-finite gain, target or plant constant is an input error where it
    # enters, never a run that ends non-finite or a "singular" verdict
    if entry == "maa":
        make = lambda: replace(cart, maa=value)  # noqa: E731
    elif entry == "affine_Va slope":
        make = lambda: replace(cart, affine_Va=([value], 0.0))  # noqa: E731
    else:
        kwargs = {**BENCH, "q_u_star": [0.0], "q_a_star": [0.0]}
        kwargs[entry] = [value] if entry == "q_a_star" else value
        make = lambda: Gains(**kwargs)  # noqa: E731
    with pytest.raises(ValueError, match=f"^{entry} must be finite"):
        make()


@pytest.mark.parametrize("kwargs, message", [
    (dict(M=[[2.0, 5.0], [1.0, 1.0]], S_u=[[1.0]]), "M must be symmetric"),
    (dict(M=[[1.0, 2.0], [2.0, 1.0]], S_u=[[1.0]]), "M must be positive definite"),
    (dict(M=np.eye(3), S_u=[[1.0, 2.0], [0.0, 1.0]]), "S_u must be symmetric"),
    (dict(M=np.eye(4), S_u=np.eye(2), S_a=[[1.0, 0.5], [0.0, 1.0]]), "S_a must be symmetric"),
    (dict(M=[[2.0, 1.0], [1.0, np.nan]], S_u=[[1.0]]), "M must be finite"),
    (dict(M=[[1.0, 0.0], [0.0, 0.0]], S_u=[[1.0]]), "maa must be positive definite"),
], ids=["asymmetric-M", "indefinite-M", "asymmetric-S_u", "asymmetric-S_a", "nan-M",
        "singular-m_aa"])
def test_linear_system_refuses_matrices_outside_the_class(kwargs, message):
    # an asymmetric block would be dropped silently, and an asymmetric
    # stiffness gives a gradient that is not the one of its potential
    with pytest.raises(ValueError, match=message):
        linear_system(**kwargs)


def test_symmetry_bound_is_absolute_on_the_matrix_scale():
    # |A - A'| <= 1e-12 max(1, max |A|) with no relative slack per entry: an
    # off-diagonal pair 1e-5 apart is asymmetric, not a coupling of 1.0;
    # rounding at the matrix's own scale is not
    with pytest.raises(ValueError, match="M must be symmetric"):
        linear_system(M=[[2.0, 1.00001], [1.0, 1.0]], S_u=[[1.0]])
    with pytest.raises(ValueError, match="S_u must be symmetric"):
        linear_system(M=np.eye(3), S_u=[[1.0, 2e-12], [0.0, 1.0]])
    big = 1e6 * np.array([[2.0, 1.0], [1.0, 1.0]])
    big[0, 1] += 1e-7
    assert linear_system(M=big, S_u=[[1.0]]).mau(np.zeros(1)).tolist() == [[big[1, 0]]]


def test_singular_inertia_is_refused_and_scalar_blocks_are_accepted():
    # positive definite is the rule for M, the precondition of the step's
    # L D L' solve: a singular M with a positive definite m_aa is refused by
    # name; a scalar m_aa or S_a means a multiple of I
    for M in ([[1.0, 1.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValueError, match="M must be positive definite"):
            linear_system(M=M, S_u=[[1.0]])
    lin = linear_system(M=np.diag([3.0, 2.0, 2.0]), S_u=[[1.0]], S_a=0.5)
    assert lin.gradVa(np.array([1.0, -2.0])).tolist() == [0.5, -1.0]
    assert np.array_equal(replace(lin, maa=2.0).maa, 2.0 * np.eye(2))
    with pytest.raises(ValueError, match="maa must be positive definite"):
        replace(lin, maa=[[1.0, 2.0], [2.0, 1.0]])
