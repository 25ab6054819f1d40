import dataclasses

import numpy as np
import pytest

from pidpbc import (IntegrabilityError, MechanicalSystem, QuadratureError, State,
                    assemble_inertia, linear_system, passive_outputs,
                    potential_integral_VN, power_balance_residual,
                    robust_storage, schur_unactuated, simulate,
                    storage_functions)
from pidpbc.passivity import holding_potential_V0, locked_matrix_Ma, velocity_outputs

from conftest import PSI, bench_gains
from synthetic import make_synthetic, random_state

ML = 0.14 * 0.215
TOTAL = 0.58


def test_schur_cart_pendulum(cart):
    val = schur_unactuated(cart, [PSI])
    assert np.allclose(val, [[0.14 * 0.215 ** 2 * 0.44 / 0.58]], atol=1e-12)
    assert abs(val[0, 0] - 0.0049094) < 1e-7


def test_schur_block_diagonal_unchanged():
    lin = linear_system(M=[[2.0, 0.0], [0.0, 1.0]], S_u=[[1.0]])
    assert np.allclose(schur_unactuated(lin, [0.3]), [[2.0]], atol=0)


def test_schur_matches_dense_oracle():
    rng = np.random.default_rng(5)
    sys_ = make_synthetic(2, 2, seed=14)
    for _ in range(10):
        q_u = rng.uniform(-1, 1, 2)
        M = assemble_inertia(sys_, q_u)
        s = sys_.s
        oracle = M[:s, :s] - M[:s, s:] @ np.linalg.solve(M[s:, s:], M[s:, :s])
        assert np.allclose(schur_unactuated(sys_, q_u), oracle, atol=1e-12)


def test_locked_matrix_cart_pendulum(cart):
    Ma = locked_matrix_Ma(cart, [PSI])
    assert np.allclose(Ma, [[ML ** 2 / TOTAL, ML], [ML, TOTAL]], atol=1e-12)
    assert abs(Ma[0, 0] - 0.0015621) < 1e-7


def test_locked_matrix_zero_coupling():
    lin = linear_system(M=[[2.0, 0.0], [0.0, 1.0]], S_u=[[1.0]])
    assert np.allclose(locked_matrix_Ma(lin, [0.1]), [[0.0, 0.0], [0.0, 1.0]], atol=0)


def test_inertia_splits_into_locked_plus_schur():
    sys_ = make_synthetic(2, 2, seed=15)
    rng = np.random.default_rng(8)
    for _ in range(10):
        q_u = rng.uniform(-1, 1, 2)
        M = assemble_inertia(sys_, q_u)
        gap = M - locked_matrix_Ma(sys_, q_u)
        expected = np.zeros_like(M)
        expected[:2, :2] = schur_unactuated(sys_, q_u)
        assert np.abs(gap - expected).max() < 1e-12


def test_passive_outputs_cart_pendulum(cart):
    st = State([PSI], [0.0], [1.0], [0.5])
    out = passive_outputs(cart, st, bench_gains())
    assert abs(out.y_u[0] + ML / TOTAL) < 1e-12       # -0.051897
    assert abs(out.y_a[0] - (0.5 + ML / TOTAL)) < 1e-12
    assert abs(out.y_u[0] + 0.051897) < 1e-6


def test_passive_outputs_trivial():
    sys_ = make_synthetic(2, 2, seed=16)
    st = State(np.ones(2), np.ones(2), np.zeros(2), np.zeros(2))
    out = passive_outputs(sys_, st, bench_gains())
    assert np.all(out.y_u == 0) and np.all(out.y_a == 0) and np.all(out.y_d == 0)


def test_equal_weights_reduce_to_velocity_feedback(cart):
    g = bench_gains(k_a=7.0, k_u=7.0 + 1e-12)  # k_a = k_u is rejected, approach it
    st = State([0.3], [0.1], [1.3], [-0.7])
    out = passive_outputs(cart, st, g)
    assert np.allclose(out.y_d, 7.0 * st.qd_a, atol=1e-10)


def test_output_partition_is_exact():
    rng = np.random.default_rng(17)
    for sys_ in (make_synthetic(1, 2, seed=18), make_synthetic(2, 2, seed=19)):
        for _ in range(50):
            st = random_state(sys_, rng)
            y_u, y_a = velocity_outputs(sys_, st)
            assert np.array_equal(y_a, st.qd_a - y_u)


def test_storage_functions_cart_pendulum(cart):
    st = State([PSI], [0.0], [1.0], [0.0])
    H_u, H_a, H = storage_functions(cart, st)
    schur = 0.14 * 0.215 ** 2 * 0.44 / 0.58
    assert abs(H_u - (0.5 * schur + 0.14 * 9.81 * 0.215 * np.cos(PSI))) < 1e-12
    st0 = State([0.5], [0.2], [0.0], [0.0])
    H_u0, H_a0, _ = storage_functions(cart, st0)
    assert H_u0 == cart.Vu([0.5]) and H_a0 == 0.0


def test_storage_sum_identity():
    rng = np.random.default_rng(20)
    for sys_ in (make_synthetic(1, 2, seed=22), make_synthetic(2, 2, seed=24)):
        for _ in range(100):
            st = random_state(sys_, rng)
            H_u, H_a, H = storage_functions(sys_, st)
            assert abs(H_u + H_a - H) < 1e-13 * (1 + abs(H))


def test_coupling_potential_cart_pendulum(cart):
    q = np.array([0.7])
    vn = potential_integral_VN(cart, q)
    assert abs(vn[0] - ML / TOTAL * np.sin(0.7 - PSI)) < 1e-12
    assert abs(potential_integral_VN(cart, [PSI])[0]) < 1e-15


def test_coupling_potential_constant_block_is_linear():
    lin = linear_system(M=[[2.0, 1.0], [1.0, 1.0]], S_u=[[1.0]])
    q = np.array([0.8])
    assert np.allclose(potential_integral_VN(lin, q), [1.0 / 1.0 * 0.8], atol=1e-12)


def test_coupling_potential_quadrature_matches_closed_form():
    sys_ = make_synthetic(2, 2, seed=26)
    stripped = MechanicalSystem(
        s=sys_.s, m=sys_.m, muu_fn=sys_.muu_fn, mau_fn=sys_.mau_fn,
        muu_jac=sys_.muu_jac, mau_jac=sys_.mau_jac, maa=sys_.maa,
        Vu_fn=sys_.Vu_fn, gradVu_fn=sys_.gradVu_fn,
        Va_fn=sys_.Va_fn, gradVa_fn=sys_.gradVa_fn)  # no VN_fn: quadrature path
    rng = np.random.default_rng(2)
    for _ in range(5):
        qa, qb = rng.uniform(-1, 1, (2, 2))
        diff_quad = potential_integral_VN(stripped, qa) - potential_integral_VN(stripped, qb)
        diff_exact = sys_.VN_fn(qa) - sys_.VN_fn(qb)
        assert np.allclose(diff_quad, diff_exact, atol=1e-9)
    # Jacobian of the quadrature result equals maa^{-1} m_au
    q0 = np.array([0.3, -0.4])
    h = 1e-6
    J = np.zeros((2, 2))
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        J[:, k] = (potential_integral_VN(stripped, q0 + e)
                   - potential_integral_VN(stripped, q0 - e)) / (2 * h)
    assert np.abs(J - sys_.maa_inv @ sys_.mau(q0)).max() < 1e-6


def test_coupling_potential_quadrature_matches_cart_pendulum_form(cart):
    stripped = MechanicalSystem(
        s=1, m=1, muu_fn=cart.muu_fn, mau_fn=cart.mau_fn,
        muu_jac=cart.muu_jac, mau_jac=cart.mau_jac, maa=cart.maa,
        Vu_fn=cart.Vu_fn, gradVu_fn=cart.gradVu_fn,
        Va_fn=cart.Va_fn, gradVa_fn=cart.gradVa_fn)
    for qa, qb in ((0.7, -0.4), (0.3, 0.0), (1.2, 0.9)):
        diff_quad = potential_integral_VN(stripped, [qa]) \
            - potential_integral_VN(stripped, [qb])
        diff_exact = ML / TOTAL * (np.sin(qa - PSI) - np.sin(qb - PSI))
        assert abs(diff_quad[0] - diff_exact) < 1e-10


@pytest.mark.parametrize("s, m, seed", [(2, 2, 26), (3, 3, 26)])
def test_coupling_potential_quadrature_cost_and_accuracy(s, m, seed):
    # a timing-free guard of the quadrature: field evaluations per sample
    # over a batch with |q_u| <= 3, and agreement with the closed form
    sys_ = make_synthetic(s, m, seed=seed)
    calls = []
    counted = dataclasses.replace(sys_, VN_fn=None,
                                  mau_fn=lambda q: calls.append(1) or sys_.mau_fn(q))
    q = np.random.default_rng(4).uniform(-3.0, 3.0, (200, s))
    vn = potential_integral_VN(counted, q)
    exact = np.array([sys_.VN_fn(p) for p in q])
    assert np.abs(vn - exact).max() <= 1e-13
    if s == 2:
        assert len(calls) <= 32 * len(q)


def test_coupling_potential_quadrature_refuses_to_guess():
    # a gradient field too oscillatory for the finest rule (4096 nodes)
    wild = MechanicalSystem(
        s=1, m=1, muu_fn=lambda q: [[2.0]], mau_fn=lambda q: [[np.cos(1e4 * q[0])]],
        maa=[[1.0]], Vu_fn=lambda q: 0.0, gradVu_fn=lambda q: [0.0],
        Va_fn=lambda q: 0.0, gradVa_fn=lambda q: [0.0])
    with pytest.raises(QuadratureError, match=r"q_u=\[1\.\].*differ by"):
        potential_integral_VN(wild, [1.0])


def test_coupling_potential_refuses_non_gradient_rows():
    bad = make_synthetic(2, 2, seed=28, integrable=False)
    with pytest.raises(IntegrabilityError):
        potential_integral_VN(bad, [0.4, -0.2])


def test_holding_potential_and_robust_storage(cart):
    # the holding potential must rate-match -s_a . y_u along trajectories;
    # as a state function that pins it to +s_a . V_N up to a constant
    s_a = cart.affine_Va[0][0]
    q = np.array([0.5])
    vn = potential_integral_VN(cart, q)[0]
    assert abs(holding_potential_V0(cart, q) - s_a * vn) < 1e-14

    st = State([0.5], [-0.2], [0.8], [0.3])
    Hb_u, Hb_a = robust_storage(cart, st)
    H_u, H_a, H = storage_functions(cart, st)
    assert abs(Hb_u + Hb_a - (H + cart.Va(st.q_a))) < 1e-12


def test_robust_storage_zero_slope():
    sys_ = make_synthetic(2, 2, seed=30)
    zeroed = MechanicalSystem(
        s=sys_.s, m=sys_.m, muu_fn=sys_.muu_fn, mau_fn=sys_.mau_fn,
        muu_jac=sys_.muu_jac, mau_jac=sys_.mau_jac, maa=sys_.maa,
        Vu_fn=sys_.Vu_fn, gradVu_fn=sys_.gradVu_fn,
        Va_fn=lambda q: 2.5, gradVa_fn=lambda q: np.zeros(2),
        affine_Va=(np.zeros(2), 2.5), VN_fn=sys_.VN_fn)
    st = random_state(zeroed, np.random.default_rng(1))
    H_u, H_a, _ = storage_functions(zeroed, st)
    Hb_u, Hb_a = robust_storage(zeroed, st)
    assert abs(Hb_u - (H_u - 2.5)) < 1e-14
    assert abs(Hb_a - (H_a + 2.5 + 2.5)) < 1e-14


def test_holding_potential_rate_along_trace(cart, gains_robust):
    tr = simulate(cart, gains_robust, [0.3, -0.2], [0.0, 0.0], t_end=1.0, dt=1e-4)
    s_a = cart.affine_Va[0]
    v0 = np.array([holding_potential_V0(cart, tr.q_u[k]) for k in range(tr.n_samples)])
    dv0 = np.gradient(v0, tr.dt)
    target = -(tr.y_u @ s_a)
    denom = max(np.abs(target).max(), 1e-12)
    assert np.abs(dv0[2:-2] - target[2:-2]).max() / denom < 1e-6


def test_power_balance_residual_vanishes():
    rng = np.random.default_rng(12)
    for sys_ in (make_synthetic(1, 2, seed=34), make_synthetic(2, 2, seed=36)):
        for _ in range(100):
            st = random_state(sys_, rng)
            L = power_balance_residual(sys_, st)
            assert abs(L) <= 1e-8 * (1 + np.linalg.norm(st.qd) ** 2)


def test_storage_rates_along_short_trace(cart, gains_cancel):
    tr = simulate(cart, gains_cancel, [0.3, -0.2], [0.0, 0.0], t_end=2.0, dt=1e-4)
    power_u = np.einsum("ij,ij->i", tr.u + tr.d, tr.y_u)
    dH = np.gradient(tr.H_u, tr.dt)
    denom = np.abs(power_u).max()
    assert np.abs(dH[1:-1] - power_u[1:-1]).max() / denom < 1e-4
