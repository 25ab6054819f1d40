"""Independent oracles the tests compare the package against.

No function here has a caller in the package: each recomputes a quantity
the package obtains another way, so the two routes can cross-check.
"""

import math

import numpy as np
from numpy.polynomial import polynomial as P

from pidpbc import (ControllerState, Gains, MechanicalSystem, SingularInertiaError, State,
                    passive_outputs, storage_functions)
from pidpbc.mechanics import Array, _mv, coriolis_decomposition, mau_gradient, muu_gradient
from pidpbc.sim import _bind, _check_run, _rk4


def christoffel_coriolis(sys: MechanicalSystem, st: State) -> Array:
    """Full Coriolis force from the kinetic-energy bracket identity.

    Evaluates ``[J - J^T / 2] qd`` where ``J`` is the Jacobian of
    ``q -> M(q_u) qd``; independent of :func:`coriolis_decomposition` so the
    two can cross-check each other.
    """
    dmuu = muu_gradient(sys, st.q_u)
    dmau = mau_gradient(sys, st.q_u)
    n, s = sys.n, sys.s
    dM = np.zeros((n, n, s))
    dM[:s, :s, :] = dmuu
    dM[s:, :s, :] = dmau
    dM[:s, s:, :] = np.transpose(dmau, (1, 0, 2))
    J = np.zeros((n, n))
    J[:, :s] = np.einsum("ijk,j->ik", dM, st.qd)
    return J @ st.qd - 0.5 * J.T @ st.qd


def reduced_unactuated_dynamics(sys: MechanicalSystem, st: State, u: Array) -> Array:
    """Unactuated accelerations after eliminating the actuated row.

    Solves the Schur-complement form of the dynamics driven by the
    post-cancellation input ``u`` (the force left after the actuated
    potential gradient has been compensated).
    """
    u = np.asarray(u, dtype=float).reshape(sys.m)
    mau = sys.mau(st.q_u)
    muu = sys.muu(st.q_u)
    muu_s = muu - mau.T @ sys.maa_inv @ mau
    cmu_qdu, dmu, act_row = coriolis_decomposition(sys, st)
    rhs = mau.T @ (sys.maa_inv @ (act_row - u)) - (cmu_qdu + dmu + sys.gradVu(st.q_u))
    try:
        return np.linalg.solve(muu_s, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularInertiaError(st.q_u, "singular Schur complement") from exc


def approx_control(sys: MechanicalSystem, gains: Gains, st: State,
                   cs: ControllerState) -> tuple[Array, Array, Array]:
    """Explicit law with a filtered derivative estimate, in closed form.

    Returns ``(u, z1_dot, z2_dot)`` where the derivative of ``y_d`` is
    approximated by ``z2' = filter_a * (y_d - z2)``; no matrix solve is
    involved.  The simulator integrates the generated lines of the same law.
    """
    out = passive_outputs(sys, st, gains)
    z2 = cs.z2 if cs.z2 is not None else np.zeros(out.y_d.shape)
    deriv = gains.filter_a * (out.y_d - z2)
    u = -(_mv(gains.K_P, out.y_d) + _mv(gains.K_I, cs.z1) + _mv(gains.K_D, deriv)) / gains.k_e
    return u, out.y_d, deriv


def pencil_determinant(C2: Array, C1: Array, C0: Array) -> tuple[Array, Array]:
    """Ascending coefficients and roots of ``det(C2 s^2 + C1 s + C0)``.

    Expands the 2x2 determinant exactly in polynomial arithmetic, trimming
    only exactly zero leading coefficients; independent of the shift-invert
    route of :func:`linear_closed_loop`, whose finite poles these roots must
    match.
    """
    E = np.stack([C0, C1, C2], axis=-1)  # E[i, j]: ascending entry (i, j)
    assert E.shape == (2, 2, 3)
    det = P.polysub(P.polymul(E[0, 0], E[1, 1]), P.polymul(E[0, 1], E[1, 0]))
    return det, P.polyroots(det)


def rk4_stages(rhs, dt: float):
    """One classical RK4 step of ``rhs``, ``(t, x) -> x`` on lists of floats:
    the stage loop that a generated ``rk4_run`` writes out."""
    half, sixth = 0.5 * dt, dt / 6.0

    def step(t: float, x: list) -> list:
        r1 = rhs(t, x)
        r2 = rhs(t + half, [a + half * b for a, b in zip(x, r1)])
        r3 = rhs(t + half, [a + half * b for a, b in zip(x, r2)])
        r4 = rhs(t + dt, [a + dt * b for a, b in zip(x, r3)])
        return [a + sixth * (b1 + 2.0 * (b2 + b3) + b4)
                for a, b1, b2, b3, b4 in zip(x, r1, r2, r3, r4)]

    return step


def with_stage_loop(rhs):
    """``rhs`` carrying an ``rk4_run(X, k0, k1, dt)``, which ``_rk4`` runs:
    the steps of :func:`rk4_stages` from row ``k0`` to row ``k1`` of ``X``,
    returning the step at which a stage or the new state stopped being
    finite, or ``k1``."""
    def rk4_run(X, k0: int, k1: int, dt: float) -> int:
        step, x, k = rk4_stages(rhs, dt), X[k0].tolist(), k0
        try:
            for k in range(k0, k1):
                x = step(k * dt, x)
                X[k + 1] = x
                if not all(map(math.isfinite, x)):
                    raise ArithmeticError
        except ArithmeticError:
            return k
        return k1

    rhs.rk4_run = rk4_run
    return rhs


def plant_response(sys: MechanicalSystem, drift_Va: bool):
    """The plant response ``qdd = qdd0 + G (u + d)`` of the generic closed
    loop, any ``s`` and ``m``: its ``"response"`` kernel, whose
    ``response(x)`` on a state list starting with ``(q, qd)`` returns the
    ``n x (1 + m)`` solution of ``M(q_u)`` as a flat row-major list, the
    drift ``qdd0`` (with ``-grad V_a`` when ``drift_Va``) in column 0 and
    ``G = M^{-1} [0; I]`` in the rest.  It raises ``ArithmeticError`` on a
    non-finite position before any callback and ``SingularInertiaError``
    where a pivot of ``M = L D L'`` is not positive and finite."""
    return _bind(sys, "response", "robust_A8" if drift_Va else "cancel_Va",
                 np.zeros(sys.n))["kernel"]


def simulate_open_loop(sys: MechanicalSystem, q0, qd0, t_end: float, dt: float) -> dict:
    """Integrate the raw plant under zero force: the drift, with ``-grad
    V_a``, of the :func:`plant_response` that the generic closed loop runs,
    through the stage loop.

    Returns time, positions, velocities and the total energy, which is
    conserved for the unforced plant and serves as the integrator audit.
    Raises as ``simulate``, and ends in ``SimulationAborted`` too where the
    inertia is not positive definite (a pivot of its ``L D L'`` factors is
    not positive and finite).
    """
    s, n = sys.s, sys.n
    q0, qd0, n_steps = _check_run(n, q0, qd0, t_end, dt)
    response, width = plant_response(sys, drift_Va=True), 1 + sys.m

    def rhs(t, x):
        try:
            return x[n:] + response(x)[::width]
        except SingularInertiaError as exc:
            raise SingularInertiaError(exc.q_u, f"t={t:.6g}s") from None

    X = np.empty((n_steps + 1, 2 * n))
    X[0, :n], X[0, n:] = q0, qd0
    _rk4(with_stage_loop(rhs), X, 0, n_steps, dt)
    q, qd = X[:, :n], X[:, n:]
    energy = storage_functions(sys, State.from_vectors(q, qd, s))[2] + sys.Va(q[:, s:])
    return {"t": np.arange(n_steps + 1) * dt, "q": q, "qd": qd, "energy": energy}
