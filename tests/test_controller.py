import numpy as np
import pytest

from pidpbc import (ControllerState, GainSignWarning, Gains, State,
                    WellPosednessError, approx_control, closed_form_z1,
                    exact_control, forward_dynamics, integrator_init,
                    linear_system, passive_outputs, pi_control, plant_input,
                    wellposedness_matrix_K)
from pidpbc.controller import feedforward_S

from conftest import PSI, bench_gains
from synthetic import make_synthetic, random_state

M_P, M_C, ELL = 0.14, 0.44, 0.215
TOTAL = M_C + M_P


def closed_form_K(q_u, k_e, k_a, k_u, K_D):
    """Scalar well-posedness factor for the cart-pendulum.

    The coupling term carries ``+k_u``: substituting the accelerations into
    the output derivative gives the input coefficient
    ``k_a/maa + k_u mau^2/(maa^2 muu_s)``, and the second term is negative
    for the bundled swing-up gains (k_u < 0).
    """
    c2 = np.cos(q_u - PSI) ** 2
    s2 = np.sin(q_u - PSI) ** 2
    N = M_P * c2 / (TOTAL * (M_C + M_P * s2))
    return k_e + k_a * K_D / TOTAL + k_u * K_D * N


def test_gain_sign_warning_names_the_caller():
    with pytest.warns(GainSignWarning) as record:
        Gains(k_e=5.0, k_a=50.0, k_u=-500.0, K_P=1.0, K_I=2.0, K_D=0.1,
              q_u_star=[0.0], q_a_star=[0.0])
    assert record[0].filename == __file__


def test_gain_validation():
    with pytest.raises(ValueError):
        bench_gains(k_e=0.0)
    with pytest.raises(ValueError):
        bench_gains(k_a=3.0, k_u=3.0)
    with pytest.raises(ValueError):
        bench_gains(K_I=0.0)
    with pytest.raises(ValueError):
        bench_gains(K_P=-1.0)
    with pytest.raises(ValueError):
        bench_gains(K_D=-0.2)
    with pytest.raises(ValueError):
        bench_gains(mode="nope")
    with pytest.warns(GainSignWarning):
        Gains(k_e=1.0, k_a=2.0, k_u=-1.0, K_P=1.0, K_I=1.0, K_D=0.0,
              q_u_star=[0.0], q_a_star=[0.0])


@pytest.mark.parametrize("name", ["k_e", "k_a", "k_u", "filter_a"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_gains_reject_non_finite_weights(name, value):
    with pytest.raises(ValueError, match=name):
        bench_gains(**{name: value})


def test_gains_test_each_weight_for_zero_on_its_own():
    # their product underflows to 0.0, but no weight is zero
    g = Gains(k_e=1e-120, k_a=1e-120, k_u=2e-120, K_P=1.0, K_I=1.0, K_D=0.1,
              q_u_star=[0.0], q_a_star=[0.0])
    assert g.k_e * g.k_a * g.k_u == 0.0
    for name in ("k_e", "k_a", "k_u"):
        with pytest.raises(ValueError, match=f"{name} must be nonzero"):
            bench_gains(**{name: 0.0})


@pytest.mark.parametrize("bad, good, m", [
    (dict(k_u=1e200), dict(k_u=1e150), 1),  # (k_a - k_u)^2
    (dict(k_a=1e200, k_u=1.0), dict(k_a=1e150, k_u=1.0), 1),  # k_a^2
    (dict(k_e=1e307), dict(k_e=1e305), 1),  # k_e k_a
    (dict(k_e=-1e306), dict(k_e=-1e305), 1),  # k_e k_u
    (dict(k_a=-1e308, k_u=1e308), dict(k_a=-1e150, k_u=1e150), 1),  # k_a - k_u
    (dict(k_e=1e200), dict(k_e=1e150), 2),  # |k_e|^m, the PI law's det K
], ids=["k_u", "k_a", "k_e-k_a", "k_e-k_u", "difference", "k_e-power"])
def test_gains_refuse_weights_that_overflow_a_coefficient(bad, good, m):
    def gains(weights):
        return Gains(**{**dict(k_e=5.0, k_a=50.0, k_u=-500.0, K_P=1.0, K_I=2.0, K_D=0.1),
                        **weights}, q_u_star=[0.0] * m, q_a_star=[0.0] * m)
    with pytest.raises(ValueError, match="overflow a coefficient"):
        gains(bad)
    gains(good)


def test_wellposedness_matrix_without_derivative_gain(cart):
    g = bench_gains(K_D=0.0)
    K = wellposedness_matrix_K(cart, g, [0.7])
    assert np.allclose(K, 5.0 * np.eye(1), atol=0)


def test_wellposedness_matrix_cart_pendulum(cart):
    g = bench_gains()
    # where the coupling vanishes both sign conventions agree
    K_perp = wellposedness_matrix_K(cart, g, [PSI + np.pi / 2])[0, 0]
    assert abs(K_perp - (5.0 + 50.0 * 0.1 / TOTAL)) < 1e-12
    assert abs(K_perp - 13.6207) < 1e-4
    # at the incline normal the k_u term is active and negative
    K_psi = wellposedness_matrix_K(cart, g, [PSI])[0, 0]
    assert abs(K_psi - closed_form_K(PSI, 5.0, 50.0, -500.0, 0.1)) < 1e-12
    assert abs(K_psi + 13.8088) < 1e-4
    for q in (-0.4, 0.1, 0.9):
        assert abs(wellposedness_matrix_K(cart, g, [q])[0, 0]
                   - closed_form_K(q, 5.0, 50.0, -500.0, 0.1)) < 1e-12


def test_wellposedness_matrix_is_the_input_coefficient(cart):
    """K must be exactly the matrix multiplying u once accelerations are
    substituted into the output derivative (checked by finite differences
    of the acceleration map)."""
    g = bench_gains()
    st = State([0.25], [0.1], [0.6], [-0.3])
    eps = 1e-6
    out = passive_outputs(cart, st, g)

    def yd_dot(u):
        qdd = forward_dynamics(cart, st, u + cart.gradVa(st.q_a))
        # d/dt y_d = k_a qdd_a + (k_a-k_u) maa^{-1} (mau_dot qd_u + mau qdd_u)
        from pidpbc.mechanics import mau_gradient
        dmau = mau_gradient(cart, st.q_u)
        mau_dot = np.einsum("ijk,k->ij", dmau, st.qd_u)
        return g.k_a * qdd[1:] + (g.k_a - g.k_u) * cart.maa_inv @ (
            mau_dot @ st.qd_u + cart.mau(st.q_u) @ qdd[:1])

    feedthrough = (yd_dot(np.array([eps])) - yd_dot(np.array([-eps]))) / (2 * eps)
    K_expected = g.k_e + float(g.K_D[0, 0]) * feedthrough[0]
    K = wellposedness_matrix_K(cart, g, st.q_u)[0, 0]
    assert abs(K - K_expected) < 1e-6


def test_feedforward_vanishes_without_derivative_gain(cart):
    g = bench_gains(K_D=0.0)
    st = State([0.3], [0.1], [1.2], [-0.5])
    assert np.all(feedforward_S(cart, g, st) == 0)


def test_feedforward_vanishes_for_constant_coupling_without_potential():
    lin = linear_system(M=[[2.0, 1.0], [1.0, 1.0]], S_u=[[0.0]])
    g = bench_gains(K_D=0.5)
    for qd_a in (-1.0, 0.0, 2.0):
        st = State([0.4], [0.2], [0.0], [qd_a])
        assert np.abs(feedforward_S(lin, g, st)).max() < 1e-14


def test_feedforward_robust_rest_value(cart):
    g = bench_gains(mode="robust_A8")
    st = State([0.0], [0.0], [0.0], [0.0])
    c2 = np.cos(PSI) ** 2
    N0 = M_P * c2 / (TOTAL * (M_C + M_P - M_P * c2))
    s_a = -TOTAL * 9.81 * np.sin(PSI)
    expected = -(-500.0) * 0.1 * N0 * s_a + 50.0 * 0.1 * 9.81 * np.sin(PSI)
    got = feedforward_S(cart, g, st)[0]
    assert abs(got - expected) < 1e-10


def test_exact_control_trivial_zero(cart):
    g = bench_gains(K_D=0.0)
    st = State([0.8], [0.1], [0.0], [0.0])
    u = exact_control(cart, g, st, ControllerState(z1=np.zeros(1)))
    assert np.all(u == 0)


def test_exact_control_zero_at_assigned_equilibrium(cart, gains_cancel):
    z1_0, kappa = integrator_init(cart, gains_cancel, np.array([0.0, 0.0]))
    st = State([0.0], [0.0], [0.0], [0.0])
    u = exact_control(cart, gains_cancel, st, ControllerState(z1=z1_0))
    assert np.abs(u).max() < 1e-12
    # and the full closed-loop vector field vanishes there
    tau = plant_input(cart, gains_cancel, u, st.q_a)
    qdd = forward_dynamics(cart, st, tau)
    y_d = passive_outputs(cart, st, gains_cancel).y_d
    field = np.concatenate([st.qd, qdd, y_d])
    assert np.linalg.norm(field) < 1e-12


def test_exact_control_singularity_guard(cart):
    g = bench_gains()
    # the scalar well-posedness factor crosses zero near |q_u - psi| = 0.72
    root_offset = 0.719874
    st = State([PSI + root_offset], [0.0], [0.3], [0.0])
    K = wellposedness_matrix_K(cart, g, st.q_u)[0, 0]
    with pytest.raises(WellPosednessError):
        exact_control(cart, g, st, ControllerState(z1=np.zeros(1)),
                      det_tol=abs(K) * 1.01)


def test_approx_control_matches_pi_at_filter_equilibrium(cart):
    g = bench_gains()
    st = State([0.4], [-0.1], [0.7], [0.2])
    y_d = passive_outputs(cart, st, g).y_d
    cs = ControllerState(z1=np.array([1.3]), z2=y_d.copy())
    u, z1dot, z2dot = approx_control(cart, g, st, cs)
    expected = -(g.K_P @ y_d + g.K_I @ cs.z1) / g.k_e
    assert np.allclose(u, expected, atol=1e-14)
    assert np.array_equal(z1dot, y_d)
    assert np.all(z2dot == 0)


def test_approx_equals_exact_without_derivative_gain(cart):
    g = bench_gains(K_D=0.0)
    rng = np.random.default_rng(6)
    for _ in range(20):
        st = random_state(cart, rng)
        cs = ControllerState(z1=rng.normal(size=1), z2=rng.normal(size=1))
        u_a, _, _ = approx_control(cart, g, st, cs)
        u_e = exact_control(cart, g, st, cs)
        u_pi = pi_control(cart, g, st, cs)
        assert np.allclose(u_a, u_e, atol=1e-12)
        assert np.allclose(u_pi, u_e, atol=1e-12)


def test_integrator_init_values(cart, gains_cancel):
    z1_0, kappa = integrator_init(cart, gains_cancel, np.array([0.0, 0.0]))
    assert np.all(z1_0 == 0)

    q0 = np.array([np.deg2rad(20.0), -0.6])
    z1_0, kappa = integrator_init(cart, gains_cancel, q0)
    coupling = M_P * ELL / TOTAL
    expected = 50.0 * (-0.6) + 550.0 * (0.0 - coupling * np.sin(-PSI))
    assert abs(z1_0[0] - expected) < 1e-12
    assert abs(z1_0[0] + 20.2376) < 1e-3
    kappa_expected = -50.0 * 0.0 + 550.0 * coupling * np.sin(PSI)
    assert abs(kappa[0] - kappa_expected) < 1e-12

    bad = Gains(k_e=5.0, k_a=50.0, k_u=-500.0, K_P=1.0, K_I=2.0, K_D=0.1,
                q_u_star=[0.1], q_a_star=[0.0])
    with pytest.raises(ValueError, match="critical point"):
        integrator_init(cart, bad, q0)


@pytest.mark.parametrize("mode", ["cancel_Va", "robust_A8"])
def test_integrator_offset_depends_on_the_target_alone(cart, mode):
    g = bench_gains(mode=mode).with_target(q_a_star=[-0.3])
    starts = (np.array([np.deg2rad(20.0), -0.6]), np.array([-0.4, 0.25]))
    (z1_a, kappa_a), (z1_b, kappa_b) = (integrator_init(cart, g, q0) for q0 in starts)
    assert np.array_equal(kappa_a, kappa_b)
    assert not np.array_equal(z1_a, z1_b)
    shift = -g.k_e * np.linalg.solve(g.K_I, cart.affine_Va[0]) if mode == "robust_A8" else 0.0
    st = State([0.0], [-0.3], [0.0], [0.0])
    assert np.abs(closed_form_z1(cart, g, st, kappa_a) - shift).max() < 1e-12


def test_closed_form_z1(cart, gains_cancel):
    q0 = np.array([np.deg2rad(20.0), -0.6])
    z1_0, kappa = integrator_init(cart, gains_cancel, q0)
    st0 = State(q0[:1], q0[1:], [0.0], [0.0])
    assert np.allclose(closed_form_z1(cart, gains_cancel, st0, kappa), z1_0, atol=1e-14)
    st = State([0.5], [0.3], [0.0], [0.0])
    coupling = M_P * ELL / TOTAL
    expected = 50.0 * 0.3 + 550.0 * coupling * np.sin(0.5 - PSI) + kappa[0]
    assert abs(closed_form_z1(cart, gains_cancel, st, kappa)[0] - expected) < 1e-12


def test_plant_input_modes(cart):
    u = np.array([0.7])
    s_a = cart.affine_Va[0]
    g_cancel = bench_gains(mode="cancel_Va")
    g_robust = bench_gains(mode="robust_A8")
    assert np.allclose(plant_input(cart, g_cancel, u, [0.4]), u + s_a, atol=1e-14)
    assert np.array_equal(plant_input(cart, g_robust, u, [0.4]), u)

    free = linear_system(M=[[2.0, 1.0], [1.0, 1.0]], S_u=[[1.0]])  # V_a = 0
    assert np.array_equal(plant_input(free, g_cancel, u, [0.4]),
                          plant_input(free, g_robust, u, [0.4]))

    noaffine = make_synthetic(1, 1, seed=40, affine_va=False)
    with pytest.raises(ValueError):
        plant_input(noaffine, g_robust, u, [0.4])


def test_robust_init_makes_target_an_equilibrium(cart):
    g = bench_gains(mode="robust_A8")
    z1_rob, _ = integrator_init(cart, g, g.q_star)
    st = State([0.0], [0.0], [0.0], [0.0])
    tau = exact_control(cart, g, st, ControllerState(z1=z1_rob))
    qdd = forward_dynamics(cart, st, plant_input(cart, g, tau, st.q_a))
    assert np.abs(qdd).max() < 1e-10
    y_d = passive_outputs(cart, st, g).y_d
    assert np.all(y_d == 0)


def test_pid_equivalence_along_trajectory(cart, gains_cancel, bench_trace):
    tr = bench_trace
    g = gains_cancel
    yd = tr.y_d[:, 0]
    ydd = np.full_like(yd, np.nan)
    ydd[2:-2] = (-yd[4:] + 8 * yd[3:-1] - 8 * yd[1:-3] + yd[:-4]) / (12 * tr.dt)
    resid = g.k_e * tr.u[:, 0] + g.K_P[0, 0] * yd + g.K_I[0, 0] * tr.z1[:, 0] \
        + g.K_D[0, 0] * ydd
    mask = np.ones(tr.n_samples, bool)
    mask[:2] = mask[-2:] = False
    for k, _, _ in tr.segments[1:]:
        mask[k - 2: k + 3] = False
    rel = np.abs(resid[mask]) / (1.0 + np.abs(tr.u[mask, 0]))
    assert rel.max() <= 1e-4
