"""Independent oracles the tests compare the package against.

No function here has a caller in the package: each recomputes a quantity
the package obtains another way, so the two routes can cross-check.
"""

import numpy as np
from numpy.polynomial import polynomial as P

from pidpbc import MechanicalSystem, SingularInertiaError, State
from pidpbc.mechanics import Array, coriolis_decomposition, mau_gradient, muu_gradient


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
