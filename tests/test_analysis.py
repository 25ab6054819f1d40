import warnings
from dataclasses import replace

import numpy as np
import pytest

from pidpbc import (Gains, State, assemble_inertia, check_A7,
                    check_assumptions, closed_form_z1, desired_inertia_Md,
                    desired_potential_Vd, integrator_init, linear_closed_loop,
                    linear_system, lyapunov_Hd_and_U, passive_outputs,
                    pinned_linear_2dof, simulate, storage_functions,
                    wellposedness_matrix_K)
from pidpbc import analysis
from pidpbc.analysis import fd_gradient, scan_A5

from conftest import PSI, bench_gains, random_gains
from oracles import pencil_determinant
from synthetic import make_synthetic, random_state

MGL = 0.14 * 9.81 * 0.215


def box_for(sys_, lo=-1.0, hi=1.0):
    return np.tile([lo, hi], (sys_.n, 1))


def test_assumptions_cart_pendulum(cart):
    box = np.array([[-np.pi / 3, np.pi / 3], [-1.0, 1.0]])
    rep = check_assumptions(cart, box, n_samples=300, seed=0)
    assert rep.passed
    assert rep.checks["A1"].status == "pass"
    assert rep.checks["A2"].status == "pass"
    assert rep.checks["A3"].status == "pass"
    for key in ("A4", "A6", "A8", "A9"):
        assert rep.checks[key].status == "sampled-pass"
    assert rep.checks["A5"].status == "not-applicable"
    text = rep.to_text()
    assert "A9" in text and "sampled-pass" in text


def test_assumptions_a9_witness_near_degenerate_coupling(cart):
    # a box that includes the configurations where the coupling vanishes
    box = np.array([[PSI - 2.0, PSI + 2.0], [-1.0, 1.0]])
    rep = check_assumptions(cart, box, n_samples=600, seed=1)
    a9 = rep.checks["A9"]
    assert a9.status == "sampled-pass"
    dist = min(abs(a9.witness[0] - (PSI + np.pi / 2)),
               abs(a9.witness[0] - (PSI - np.pi / 2)))
    assert dist < 0.1


def test_assumptions_block_diagonal_fails_a9():
    lin = linear_system(M=[[2.0, 0.0], [0.0, 1.0]], S_u=[[1.0]])
    rep = check_assumptions(lin, box_for(lin), n_samples=200, seed=2)
    assert rep.checks["A9"].status == "fail"
    assert rep.checks["A6"].status == "sampled-pass"
    assert not rep.passed


def test_assumptions_a9_gradient_collision_fails():
    # S_u = 0 makes every gradient of V_u zero, so the first two samples,
    # apart and of equal gradient, are the first colliding pair
    lin = linear_system(M=[[2.0, 1.0], [1.0, 1.0]], S_u=[[0.0]])
    rep = check_assumptions(lin, box_for(lin), n_samples=50, seed=4)
    a9 = rep.checks["A9"]
    rng = np.random.default_rng(4)
    qu = rng.uniform(-1.0, 1.0, size=(50, 1))
    assert a9.status == "fail" and not rep.passed
    assert np.array_equal(a9.witness, qu[:2])
    assert a9.note == "gradient of the unactuated potential collides at two samples"


def test_gradient_collision_screen_finds_the_first_pair_in_any_block(monkeypatch):
    rng = np.random.default_rng(5)
    q = rng.uniform(-1.0, 1.0, size=(40, 2))
    grads = rng.uniform(-1.0, 1.0, size=(40, 2))
    grads[33] = grads[17]  # first colliding pair in row-major order
    grads[25] = grads[20]
    grads[9], q[9] = grads[5], q[5] + 1e-8  # equal gradients, but no distance apart
    want = next((i, j) for i in range(40) for j in range(i + 1, 40)
                if np.linalg.norm(q[j] - q[i]) > 1e-6 and np.linalg.norm(grads[j] - grads[i]) < 1e-9)
    assert want == (17, 33)
    for block in (1 << 14, 120, 40, 1):  # all rows at once, 3 rows, 1 row, 1 row
        monkeypatch.setattr(analysis, "_COLLISION_BLOCK", block)
        assert analysis._gradient_collision(q, grads) == want
        assert analysis._gradient_collision(q[:17], grads[:17]) is None


def test_assumptions_linear_structural_pass():
    rep = check_assumptions(pinned_linear_2dof(), box_for(pinned_linear_2dof()),
                            n_samples=200, seed=3)
    for key in ("A1", "A2", "A3"):
        assert rep.checks[key].status == "pass"
    assert rep.passed


def test_assumptions_non_gradient_coupling_fails_a6():
    bad = make_synthetic(2, 2, seed=42, integrable=False)
    rep = check_assumptions(bad, box_for(bad), n_samples=200, seed=4)
    assert rep.checks["A6"].status == "fail"
    assert rep.checks["A6"].residual > 1e-6


def test_desired_inertia_reduces_to_plant_inertia(cart):
    # with unit weights and no derivative gain the shaped inertia is the
    # plant inertia; approach the excluded k_a == k_u point by a limit
    g = Gains(k_e=1.0, k_a=1.0 + 1e-9, k_u=1.0, K_P=1.0, K_I=1.0, K_D=0.0,
              q_u_star=[0.0], q_a_star=[0.0])
    for q in (-0.5, 0.2, 1.0):
        Md = desired_inertia_Md(cart, g, [q])
        assert np.abs(Md - assemble_inertia(cart, [q])).max() < 1e-6


def test_kinetic_identity_of_shaped_inertia(cart):
    rng = np.random.default_rng(9)
    systems = [(cart, bench_gains()),
               (make_synthetic(1, 2, seed=44), None),
               (make_synthetic(2, 2, seed=46), None)]
    for sys_, g in systems:
        if g is None:
            g = random_gains(sys_, rng)
        for _ in range(200):
            st = random_state(sys_, rng)
            H_u, H_a, _ = storage_functions(sys_, st)
            y_d = passive_outputs(sys_, st, g).y_d
            lhs = g.k_e * (g.k_a * H_a + g.k_u * H_u) + 0.5 * y_d @ (g.K_D @ y_d)
            Md = desired_inertia_Md(sys_, g, st.q_u)
            rhs = 0.5 * st.qd @ (Md @ st.qd) + g.k_e * g.k_u * sys_.Vu(st.q_u)
            assert abs(lhs - rhs) < 1e-10


def test_desired_potential_at_target(cart, gains_cancel):
    val = desired_potential_Vd(cart, gains_cancel, np.zeros(2))
    assert abs(val - 5.0 * (-500.0) * MGL) < 1e-9
    grad = fd_gradient(lambda q: desired_potential_Vd(cart, gains_cancel, q),
                       np.zeros(2))
    assert np.linalg.norm(grad) < 1e-6


def test_shaped_energy_identity(cart, gains_cancel):
    rng = np.random.default_rng(13)
    for sys_, g in ((cart, gains_cancel),
                    (make_synthetic(2, 2, seed=48), None)):
        if g is None:
            g = random_gains(sys_, rng)
        lyap = lyapunov_Hd_and_U(sys_, g)
        _, kappa = integrator_init(sys_, g, np.zeros(sys_.n))
        for _ in range(100):
            st = random_state(sys_, rng)
            z1 = closed_form_z1(sys_, g, st, kappa)
            assert abs(lyap.U(st, z1) - lyap.H_d(st)) < 1e-10
    # at the assigned equilibrium the shaped energy equals the potential floor
    st0 = State([0.0], [0.0], [0.0], [0.0])
    lyap = lyapunov_Hd_and_U(cart, gains_cancel)
    assert abs(lyap.H_d(st0) - lyap.V_d(np.zeros(2))) < 1e-14


def test_lyapunov_U_matches_robust_trace_column(cart, gains_robust):
    # in robust_A8 mode U weights the shifted storage pair Hbar_u, Hbar_a
    tr = simulate(cart, gains_robust, [0.25, -0.3], [0.0, 0.0], t_end=1.0, dt=1e-3)
    lyap = lyapunov_Hd_and_U(cart, gains_robust)
    scale = np.abs(tr.U).max()
    for k in range(0, tr.n_samples, 50):
        assert abs(lyap.U(tr.state_at(k), tr.z1[k]) - tr.U[k]) <= 1e-9 * scale, k


def test_shaped_energy_dissipation_along_trace(cart, gains_cancel):
    tr = simulate(cart, gains_cancel, [0.3, -0.2], [0.0, 0.0], t_end=2.0, dt=1e-4)
    diss = tr.y_d[:, 0] ** 2 * gains_cancel.K_P[0, 0]
    dU = np.gradient(tr.U, tr.dt)
    assert np.abs(dU[1:-1] + diss[1:-1]).max() / diss.max() < 1e-4


def test_a7_certificate_on_operating_window(cart, gains_cancel):
    # the shaped inertia is positive definite for |q_u - psi| below 0.72 rad
    # (41.25deg) with the benchmark gains; this grid, which holds the whole
    # benchmark run (q_u in [-15.1deg, 21.0deg]), sits well inside
    grid = np.linspace(np.deg2rad(-16.0), np.deg2rad(35.0), 121).reshape(-1, 1)
    res = check_A7(cart, gains_cancel, grid)
    assert res.passed
    assert res.min_eig_profile.min() > 0
    assert np.all(np.linalg.eigvalsh(res.hessian) > 0)


def test_a7_indefinite_outside_operating_window(cart, gains_cancel):
    # outside that window the certificate honestly reports indefiniteness,
    # even though simulations that stay inside it converge
    res = check_A7(cart, gains_cancel,
                   np.linspace(-np.pi / 3, np.pi / 3, 121).reshape(-1, 1))
    assert not res.passed
    assert res.min_eig_profile.min() < 0
    k = int(np.argmin(res.min_eig_profile))
    assert res.grid[k, 0] < -np.deg2rad(20.0)


def test_a7_fails_with_positive_product_of_outer_gains(cart):
    g = bench_gains(k_u=500.0)  # k_e k_u > 0 keeps the potential maximum
    grid = np.linspace(-0.3, 0.3, 41).reshape(-1, 1)
    res = check_A7(cart, g, grid)
    assert not res.passed
    assert np.linalg.eigvalsh(res.hessian).min() < 0


def test_check_a7_computes_the_target_coupling_potential_once(monkeypatch):
    # without a closed-form V_N every V_N value is an adaptive quadrature;
    # the finite-difference stencil of V_d must reuse V_N(q_u*) rather than
    # recompute it at each of its 272 points, and the gradient and the Hessian
    # each evaluate their whole stencil in one call
    from pidpbc import analysis, passivity
    sys_ = replace(make_synthetic(2, 2, seed=50), VN_fn=None)
    g = Gains(k_e=1.0, k_a=1.5, k_u=2.5, K_P=np.eye(2) * 5, K_I=np.eye(2) * 2,
              K_D=np.eye(2) * 0.1, q_u_star=np.zeros(2), q_a_star=np.zeros(2))
    quadrature, shaped = passivity._quadrature_VN, analysis._shaped_potential
    inside = [False]
    calls = {"target": 0, "evaluations": 0, "quadratures": 0}

    def count_quadrature(sys_, q_u):
        calls["quadratures"] += 1
        # V_N(q_u*) for the shaped potential's offset, not its V_N(q_u) term
        calls["target"] += not inside[0] and np.array_equal(q_u, g.q_u_star)
        return quadrature(sys_, q_u)

    def count_shaped(*args):
        calls["evaluations"] += 1
        inside[0] = True
        try:
            return shaped(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(passivity, "_quadrature_VN", count_quadrature)
    monkeypatch.setattr(analysis, "_shaped_potential", count_shaped)
    res = check_A7(sys_, g, np.linspace(-0.1, 0.1, 3)[:, None] * np.ones(2))
    assert res.passed
    assert calls["target"] == 1
    assert calls["evaluations"] == 2
    assert calls["quadratures"] == 1 + calls["evaluations"]


def test_a7_convex_case_passes():
    lin = pinned_linear_2dof()
    g = Gains(k_e=1.0, k_a=1.0, k_u=0.5, K_P=1.0, K_I=1.0, K_D=0.0,
              q_u_star=[0.0], q_a_star=[0.0])
    res = check_A7(lin, g, np.linspace(-1, 1, 21).reshape(-1, 1))
    assert res.passed


def test_scan_a5_detects_sign_change(cart, gains_cancel):
    sym = np.linspace(-np.pi / 3, np.pi / 3, 241).reshape(-1, 1)
    res = scan_A5(cart, gains_cancel, sym)
    assert res["sign_change"] and not res["pass"]
    gate = np.linspace(-0.26, 0.61, 121).reshape(-1, 1)
    res = scan_A5(cart, gains_cancel, gate)
    assert res["pass"] and res["min_abs_det"] > 3.0


def test_grid_scans_read_the_coupling_block_once_per_point(cart):
    # K and M_d each go through the Schur complement, which reads m_au again;
    # each scan still calls mau_fn once per grid point, and its results are
    # bitwise those of the public functions point by point
    sys2 = make_synthetic(2, 2, seed=50)
    grid2 = np.stack(np.meshgrid(*2 * [np.linspace(-0.5, 0.5, 7)]), axis=-1).reshape(-1, 2)
    cases = [(sys2, random_gains(sys2, np.random.default_rng(50)), grid2),
             (cart, bench_gains(), np.linspace(-0.26, 0.61, 31).reshape(-1, 1))]
    for plant, g, grid in cases:
        calls = []
        counted = replace(plant, mau_fn=lambda q, fn=plant.mau_fn: calls.append(1) or fn(q))
        dets = scan_A5(counted, g, grid)["dets"]
        assert len(calls) == len(grid), plant.name
        calls.clear()
        profile = check_A7(counted, g, grid).min_eig_profile
        assert len(calls) == len(grid), plant.name
        want_dets = [np.linalg.det(wellposedness_matrix_K(plant, g, q)) for q in grid]
        want_profile = [np.linalg.eigvalsh(desired_inertia_Md(plant, g, q)).min() for q in grid]
        assert np.array_equal(dets, want_dets) and np.array_equal(profile, want_profile)


def test_linear_closed_loop_pinned_instance():
    lin = pinned_linear_2dof()
    g = Gains(k_e=1.0, k_a=1.0, k_u=-1.0, K_P=4.0, K_I=2.0, K_D=1.0,
              q_u_star=[0.0], q_a_star=[0.0])
    lcl = linear_closed_loop(lin, g)
    coeffs, oracle = pencil_determinant(lcl.coeff_s2, lcl.coeff_s1, lcl.coeff_s0)
    assert np.allclose(coeffs, [2.0, 4.0, 2.0, 0.0, 1.0], atol=1e-8)
    assert not lcl.hurwitz
    assert abs(lcl.max_real - oracle.real.max()) < 1e-8
    # every root appears in the pencil spectrum
    for r in lcl.roots:
        assert np.min(np.abs(oracle - r)) < 1e-6


def test_linear_closed_loop_decoupled_not_hurwitz():
    lin = linear_system(M=[[2.0, 0.0], [0.0, 1.0]], S_u=[[3.0]])
    g = Gains(k_e=1.0, k_a=1.0, k_u=0.5, K_P=2.0, K_I=1.0, K_D=0.5,
              q_u_star=[0.0], q_a_star=[0.0])
    lcl = linear_closed_loop(lin, g)
    assert not lcl.hurwitz
    # the unactuated mode is an undamped oscillator at sqrt(S_u/m_uu)
    omega = np.sqrt(3.0 / 2.0)
    gap = np.min(np.abs(lcl.roots - 1j * omega))
    assert gap < 1e-6


def test_hurwitz_flag_matches_pencil_spectrum():
    lin = pinned_linear_2dof()
    rng = np.random.default_rng(33)
    for _ in range(30):
        g = random_gains(lin, rng)
        lcl = linear_closed_loop(lin, g)
        _, oracle = pencil_determinant(lcl.coeff_s2, lcl.coeff_s1, lcl.coeff_s0)
        assert lcl.hurwitz == bool(oracle.real.max() < -1e-8)
        assert abs(lcl.max_real - oracle.real.max()) < 1e-7


def test_singular_leading_matrix_is_not_hurwitz():
    # det C2 = det M det K(0) / k_e = 0: A5 fails at the target, so the loop
    # has an infinite pole although its three finite poles are stable
    lin = linear_system(M=[[2.0, 1.0], [1.0, 1.0]], S_u=[[-1.0]], S_a=[[0.0]])
    g = Gains(k_e=0.5, k_a=0.5, k_u=-2.5, K_P=0.5, K_I=0.1, K_D=0.25,
              q_u_star=[0.0], q_a_star=[0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lcl = linear_closed_loop(lin, g)
    assert np.linalg.det(lcl.coeff_s2) == 0.0
    assert lcl.hurwitz is False
    assert lcl.max_real == np.inf
    finite = lcl.roots[np.isfinite(lcl.roots)]
    _, oracle = pencil_determinant(lcl.coeff_s2, lcl.coeff_s1, lcl.coeff_s0)
    assert finite.size == oracle.size == 3 and oracle.real.max() < 0
    assert max(np.min(np.abs(oracle - r)) for r in finite) < 1e-8


def _qz_poles(lcl):
    from scipy.linalg import eigvals  # test-only dependency: the package has no QZ
    n = len(lcl.coeff_s2)
    I, O = np.eye(n), np.zeros((n, n))
    return eigvals(np.block([[O, I], [-lcl.coeff_s0, -lcl.coeff_s1]]),
                   np.block([[I, O], [O, lcl.coeff_s2]]))


def _assert_poles_match_qz(lcl):
    qz = _qz_poles(lcl)
    assert np.array_equal(lcl.roots, np.sort_complex(lcl.roots))
    assert np.count_nonzero(np.isinf(lcl.roots)) == np.count_nonzero(~np.isfinite(qz))
    ours, qz = lcl.roots[np.isfinite(lcl.roots)], qz[np.isfinite(qz)]
    assert ours.size == qz.size
    # nearest neighbours both ways: a one-to-one match within 1e-10 relative
    gap = np.abs(ours[:, None] - qz[None, :])
    assert np.all(gap.min(axis=1) <= 1e-10 * np.abs(ours))
    assert np.all(gap.min(axis=0) <= 1e-10 * np.abs(qz))


def test_linear_closed_loop_poles_match_qz(cart):
    lin = pinned_linear_2dof()
    rng = np.random.default_rng(33)  # the gain sets of test_hurwitz_flag_matches_pencil_spectrum
    loops = [linear_closed_loop(lin, random_gains(lin, rng)) for _ in range(30)]
    loops += [linear_closed_loop(cart, bench_gains(k_u=k_u)) for k_u in (-500.0, -450.0)]
    for s, m, seed in ((1, 2, 60), (2, 1, 61), (2, 2, 62), (3, 2, 63), (2, 3, 64)):
        plant = make_synthetic(s, m, seed=seed)  # n = 3, 4, 5: beyond the 2x2 oracle
        rng = np.random.default_rng(seed)
        loops += [linear_closed_loop(plant, random_gains(plant, rng)) for _ in range(3)]
    for lcl in loops:
        _assert_poles_match_qz(lcl)


def test_singular_leading_matrix_has_the_infinite_poles_of_qz():
    lin = linear_system(M=[[2.0, 1.0], [1.0, 1.0]], S_u=[[-1.0]], S_a=[[0.0]])
    g = Gains(k_e=0.5, k_a=0.5, k_u=-2.5, K_P=0.5, K_I=0.1, K_D=0.25,
              q_u_star=[0.0], q_a_star=[0.0])
    lcl = linear_closed_loop(lin, g)
    assert np.count_nonzero(np.isinf(lcl.roots)) == 1
    _assert_poles_match_qz(lcl)


def test_pole_on_the_first_shift_takes_the_second(monkeypatch):
    # S_u = 0 leaves s^2 [m_uu, m_au^T] as the unactuated row of the loop, so
    # s = 0 is an exact double pole: with 0.0 as the first shift LAPACK finds
    # A - 0 B singular, and the second shift gives the poles
    lin = linear_system(M=[[2.0, 1.0], [1.0, 1.0]], S_u=[[0.0]])
    g = Gains(k_e=1.0, k_a=1.0, k_u=0.5, K_P=4.0, K_I=2.0, K_D=1.0,
              q_u_star=[0.0], q_a_star=[0.0])
    second = analysis.POLE_SHIFTS[1]
    monkeypatch.setattr(analysis, "POLE_SHIFTS", (second,))
    direct = linear_closed_loop(lin, g).roots
    monkeypatch.setattr(analysis, "POLE_SHIFTS", (0.0, second))
    lcl = linear_closed_loop(lin, g)
    assert np.array_equal(lcl.roots, direct)
    assert not lcl.hurwitz
    coeffs, _ = pencil_determinant(lcl.coeff_s2, lcl.coeff_s1, lcl.coeff_s0)
    assert np.allclose(coeffs, [0.0, 0.0, 3.0, 6.0, 2.5], atol=1e-12)
    # a double root moves by about sqrt(eps) in either method, so the pair at
    # zero is counted and the other two poles are matched to QZ
    qz = _qz_poles(lcl)
    at_zero, qz_at_zero = np.abs(lcl.roots) < 1e-6, np.abs(qz) < 1e-6
    assert np.count_nonzero(at_zero) == np.count_nonzero(qz_at_zero) == 2
    rest = lcl.roots[~at_zero]
    assert np.abs(rest - np.sort_complex(np.roots([2.5, 6.0, 3.0]))).max() < 1e-12
    gap = np.abs(rest[:, None] - qz[~qz_at_zero][None, :])
    assert np.all(gap.min(axis=1) <= 1e-10 * np.abs(rest))


def test_pole_at_the_first_shift_and_a_pencil_singular_everywhere():
    g = Gains(k_e=1.0, k_a=1.0, k_u=0.5, K_P=4.0, K_I=2.0, K_D=1.0,
              q_u_star=[0.0], q_a_star=[0.0])
    # decoupled with S_u = -m_uu: the unactuated poles are exactly -1 and +1,
    # the first shift
    lcl = linear_closed_loop(linear_system(M=np.eye(2), S_u=[[-1.0]]), g)
    assert lcl.max_real == 1.0 and lcl.hurwitz is False
    _assert_poles_match_qz(lcl)
    # no inertia on q_u: det(C2 s^2 + C1 s + C0) vanishes for every s; the
    # inertia [[0, 0], [0, 1]], which linear_system refuses, is the identity
    # with its (zero) coupling block in place of m_uu
    decoupled = linear_system(M=np.eye(2), S_u=[[0.0]])
    lcl = linear_closed_loop(replace(decoupled, muu_fn=decoupled.mau_fn), g)
    assert np.isnan(lcl.roots).all() and np.isnan(lcl.max_real)
    assert lcl.hurwitz is False


# local poles of the cart-pendulum loop linearised at the upright target, for
# the benchmark gains and the k_u = -450 variant
CART_ROOTS = {
    -500.0: [-6.250146532, -4.546985726, -2.170546800 - 5.607232578j,
             -2.170546800 + 5.607232578j],
    -450.0: [-5.369720003 - 0.324698044j, -5.369720003 + 0.324698044j,
             -3.010568808 - 6.135869470j, -3.010568808 + 6.135869470j],
}


@pytest.mark.parametrize("k_u", sorted(CART_ROOTS))
def test_linear_closed_loop_linearises_cart_at_target(cart, k_u):
    lcl = linear_closed_loop(cart, bench_gains(k_u=k_u))
    # sort on rounded values: the two roots of a conjugate pair may have real
    # parts one ulp apart, which would order the pair by that ulp
    roots = lcl.roots[np.argsort(np.round(lcl.roots, 9))]
    assert np.abs(roots - CART_ROOTS[k_u]).max() < 1e-6
    _, oracle = pencil_determinant(lcl.coeff_s2, lcl.coeff_s1, lcl.coeff_s0)
    oracle = oracle[np.argsort(np.round(oracle, 9))]
    assert np.abs(oracle - roots).max() < 1e-8
    assert lcl.hurwitz
    assert lcl.max_real == roots.real.max()


def test_assignable_equilibria(cart):
    assert np.abs(cart.gradVu([0.0])).max() < 1e-15
    assert np.abs(cart.gradVu([np.pi])).max() < 1e-12
    val = cart.gradVu([0.1])[0]
    assert abs(val + MGL * np.sin(0.1)) < 1e-12 and abs(val) > 1e-8
