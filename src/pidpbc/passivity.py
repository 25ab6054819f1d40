"""Passive outputs and storage functions for the underactuated plant class.

Splitting the unactuated kinetic-energy block through the Schur complement
of the constant actuated block yields two outputs whose weighted sum the PID
is wrapped around.  Both are passive with respect to the post-cancellation
input; a second pair of storage functions covers the mode that keeps the
affine actuated potential in the loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mechanics import (
    Array,
    MechanicalSystem,
    State,
    _T,
    _block2x2,
    _mv,
    _per_point,
    _points,
    _quad,
    _reuse,
    assemble_inertia,
    coriolis_decomposition,
    mau_gradient,
    muu_gradient,
)

VN_TOL = 1e-10  # agreement of a V_N quadrature's Kronrod and Gauss sums that stops the doubling
VN_CHECK_TOL = 1e-6  # largest coupling-row asymmetry the quadrature accepts

# QUADPACK's qk15 rule (Piessens et al., 1983): rows (node, Kronrod weight,
# weight of the 7-point Gauss rule on every other node) of the nodes in
# [0, 1], mirrored into the 15 rows on [-1, 1]
_GK15 = np.array([(0.991455371120812639, 0.022935322010529225, 0.0),
                  (0.949107912342758525, 0.063092092629978553, 0.129484966168869693),
                  (0.864864423359769073, 0.104790010322250184, 0.0),
                  (0.741531185599394440, 0.140653259715525919, 0.279705391489276668),
                  (0.586087235467691130, 0.169004726639267903, 0.0),
                  (0.405845151377397167, 0.190350578064785410, 0.381830050505118945),
                  (0.207784955007898468, 0.204432940075298892, 0.0),
                  (0.0, 0.209482141084727828, 0.417959183673469388)])
_GK15 = np.concatenate([_GK15[:-1] * (-1.0, 1.0, 1.0), _GK15[::-1]])


@dataclass(frozen=True)
class PassiveOutputs:
    """The two passive outputs and their gain-weighted combination."""

    y_u: Array
    y_a: Array
    y_d: Array


def schur_unactuated(sys: MechanicalSystem, q_u: Array) -> Array:
    """Schur complement ``m_uu - m_au^T maa^{-1} m_au``; the effective
    unactuated inertia."""
    q_u = _points(q_u, sys.s)
    mau = sys.mau(q_u)
    out = sys.muu(q_u) - _T(mau) @ sys.maa_inv @ mau
    return 0.5 * (out + _T(out))


def locked_matrix_Ma(sys: MechanicalSystem, q_u: Array) -> Array:
    """Rank-m inertia remainder; the full inertia minus the Schur block."""
    mau = sys.mau(_points(q_u, sys.s))
    top = _T(mau) @ sys.maa_inv @ mau
    return _block2x2(0.5 * (top + _T(top)), _T(mau), mau, sys.maa)


def velocity_outputs(sys: MechanicalSystem, st: State) -> tuple[Array, Array]:
    """The raw output pair ``(y_u, y_a)``; they sum to ``qd_a`` exactly."""
    y_u = -_mv(sys.maa_inv, _mv(sys.mau(st.q_u), st.qd_u))
    return y_u, st.qd_a - y_u


def passive_outputs(sys: MechanicalSystem, st: State, gains) -> PassiveOutputs:
    y_u, y_a = velocity_outputs(sys, st)
    return PassiveOutputs(y_u=y_u, y_a=y_a, y_d=gains.k_a * y_a + gains.k_u * y_u)


def storage_functions(sys: MechanicalSystem, st: State) -> tuple[float, float, float]:
    """Storage pair ``(H_u, H_a)`` and total energy ``H``; ``H_u + H_a = H``.

    ``H`` is evaluated from the assembled inertia matrix, independently of
    the split, so the sum rule is a genuine cross-check.
    """
    qd = st.qd
    H_u = 0.5 * _quad(st.qd_u, schur_unactuated(sys, st.q_u)) + sys.Vu(st.q_u)
    H_a = 0.5 * _quad(qd, locked_matrix_Ma(sys, st.q_u))
    H = 0.5 * _quad(qd, assemble_inertia(sys, st.q_u)) + sys.Vu(st.q_u)
    return H_u, H_a, H


class IntegrabilityError(ValueError):
    """The coupling block rows are not gradient fields, so no coupling
    potential exists."""


class QuadratureError(ValueError):
    """The coupling-potential quadrature did not converge at its finest rule."""


def coupling_row_asymmetry(sys: MechanicalSystem, q_u: Array) -> float:
    """Worst asymmetry of the coupling-row Jacobians at ``q_u``.

    Zero (up to derivative error) exactly when every row of ``m_au`` is a
    gradient field, which is what makes the coupling potential well defined.
    """
    dmau = mau_gradient(sys, _points(q_u, sys.s))
    return np.max(np.abs(dmau - _T(dmau)), axis=(-3, -2, -1))


def potential_integral_VN(sys: MechanicalSystem, q_u: Array) -> Array:
    """Coupling potential with Jacobian ``maa^{-1} m_au(q_u)``.

    Uses the closed form when the system carries one; otherwise integrates
    the field along the straight path from the origin with Gauss-Kronrod
    (7, 15) panels (``_GK15``), doubling the panel count from 1 up to 512
    (7680 nodes) until a panel count's Kronrod sum and the Gauss sum on
    every other node agree to ``VN_TOL``; the value is the Kronrod sum.  Over
    a batch, each sample stops doubling on its own, and each panel count runs
    only for the samples that have not yet converged.  Raises
    :class:`IntegrabilityError` when the coupling rows are not gradient
    fields and :class:`QuadratureError` when a sample has not converged at
    512 panels.  The quadrature normalization fixes the value at the origin
    to zero; only differences of this potential enter the controller, so the
    offset is immaterial.
    """
    q_u = _points(q_u, sys.s)
    if sys.VN_fn is not None:
        return _per_point(sys.VN_fn, q_u, (sys.m,))
    return _reuse((potential_integral_VN, id(sys)), q_u, lambda: _quadrature_VN(sys, q_u))


def _quadrature_VN(sys: MechanicalSystem, q_u: Array) -> Array:
    points = q_u.reshape(-1, sys.s)
    asym = np.reshape(coupling_row_asymmetry(sys, q_u), -1)
    bad = np.nonzero(asym > VN_CHECK_TOL)[0]
    if bad.size:
        raise IntegrabilityError(
            f"coupling rows are not gradient fields at q_u={points[bad[0]]} "
            f"(asymmetry {asym[bad[0]]:.3e}); the coupling potential does not exist")

    def estimate(q: Array, panels: int) -> tuple[Array, Array]:
        # node by node, so memory stays proportional to the number of samples
        kronrod, gauss = np.zeros((2, q.shape[0], sys.m))
        for p in range(panels):
            for x, wk, wg in _GK15.tolist():  # on [p, p + 1] / panels
                t = (p + 0.5 + 0.5 * x) / panels
                f = (sys.maa_inv @ (sys.mau(t * q) @ q[..., None]))[..., 0]
                kronrod += (0.5 * wk / panels) * f
                if wg:
                    gauss += (0.5 * wg / panels) * f
        return kronrod, gauss

    out = np.empty((points.shape[0], sys.m))
    active, panels = np.arange(points.shape[0]), 1
    while active.size:
        if panels > 512:
            raise QuadratureError(
                f"V_N quadrature did not converge at q_u={points[active[0]]}: the Kronrod and "
                f"Gauss sums on 512 panels differ by {gap[0]:.3e} (tolerance {VN_TOL:g})")
        kronrod, gauss = estimate(points[active], panels)
        out[active] = kronrod
        gap = np.max(np.abs(kronrod - gauss), axis=-1)
        pending = ~(gap < VN_TOL)
        active, gap = active[pending], gap[pending]
        panels *= 2
    return out.reshape(q_u.shape[:-1] + (sys.m,))


def holding_potential_V0(sys: MechanicalSystem, q_u: Array) -> float:
    """State-function form of the coupled supply from the affine actuated
    potential: ``s_a @ V_N(q_u) + c0``.

    Its rate along trajectories is ``-s_a @ y_u``, which is exactly the term
    that must be moved between the two storage functions for the raw-force
    input to supply both of them.
    """
    s_a, c0 = sys.affine_potential()
    return np.einsum("i,...i->...", s_a, potential_integral_VN(sys, q_u)) + c0


def robust_storage(sys: MechanicalSystem, st: State) -> tuple[float, float]:
    """Storage pair for the loop that keeps the affine actuated potential.

    The pair sums to ``H + V_a(q_a)`` and is passive with respect to the raw
    force input rather than the post-cancellation one.
    """
    H_u, H_a, _ = storage_functions(sys, st)
    V0 = holding_potential_V0(sys, st.q_u)
    return H_u - V0, H_a + sys.Va(st.q_a) + V0


def power_balance_residual(sys: MechanicalSystem, st: State) -> float:
    """Residual of the internal power-balance identity of the output split.

    The rate of the unactuated storage equals the supplied power plus this
    scalar, which vanishes identically for the plant class; evaluating it is
    a direct check on the Coriolis decomposition and the Schur-complement
    rate.
    """
    mau = sys.mau(st.q_u)
    cmu_qdu, dmu, act_row = coriolis_decomposition(sys, st)
    # rate of the Schur complement along qd_u
    muu_dot = np.einsum("ijk,k->ij", muu_gradient(sys, st.q_u), st.qd_u)
    mau_dot = np.einsum("ijk,k->ij", mau_gradient(sys, st.q_u), st.qd_u)
    schur_dot = muu_dot - mau_dot.T @ sys.maa_inv @ mau - mau.T @ sys.maa_inv @ mau_dot
    return float(0.5 * st.qd_u @ (schur_dot @ st.qd_u)
                 + (mau @ st.qd_u) @ (sys.maa_inv @ act_row) - st.qd_u @ (cmu_qdu + dmu))
