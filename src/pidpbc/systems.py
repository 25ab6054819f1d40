"""Built-in example plants."""

from __future__ import annotations

import math

import numpy as np

from .mechanics import MechanicalSystem, _as_matrix, with_forms

GRAVITY = 9.81  # m/s^2


def _formula(expr, ndim: int):
    """Plant callback of a one-entry block with ``ndim`` axes, written once as
    ``expr(x, lib=math)`` over the one coordinate ``x``: ``expr`` itself is
    the float form, the point callback reads ``q[0]``, and the batch form
    binds ``lib`` to numpy over ``q[..., 0]`` with the block's axes appended."""
    index = (Ellipsis, 0) + (None,) * ndim
    return with_forms(lambda q: expr(float(q[0])), float_form=expr,
                      batch_form=lambda q: expr(q[index], np))


def cart_pendulum_incline(pendulum_mass: float = 0.14, cart_mass: float = 0.44,
                          length: float = 0.215, psi: float = math.radians(20.0),
                          gravity: float = GRAVITY) -> MechanicalSystem:
    """Cart on an inclined plane carrying an inverted pendulum.

    ``q_u`` is the pendulum angle measured from the upright vertical, ``q_a``
    the cart position along the plane, and the single input is a force on
    the cart.  The incline angle ``psi`` tilts the coupling term and makes
    the actuated potential affine with slope ``-(M_c + m) g sin(psi)``.

    Every block has one entry, so each formula is one expression in the
    coordinate over :mod:`math` (point and float forms) or numpy (batch
    form), with the constant factors folded when the plant is built.
    """
    m, M_c, ell = pendulum_mass, cart_mass, length
    total = M_c + m
    s_a = -total * gravity * math.sin(psi)
    muu = m * ell ** 2
    m_ell = m * ell
    m_g_ell = m * gravity * ell
    coupling = m_ell / total

    return MechanicalSystem(
        s=1, m=1,
        muu_fn=_formula(lambda th, lib=math: muu, 2),
        muu_jac=_formula(lambda th, lib=math: 0.0, 3),
        mau_fn=_formula(lambda th, lib=math: m_ell * lib.cos(th - psi), 2),
        mau_jac=_formula(lambda th, lib=math: -m_ell * lib.sin(th - psi), 3),
        maa=np.array([[total]]),
        Vu_fn=_formula(lambda th, lib=math: m_g_ell * lib.cos(th), 0),
        gradVu_fn=_formula(lambda th, lib=math: -m_g_ell * lib.sin(th), 1),
        Va_fn=_formula(lambda x, lib=math: s_a * x, 0),
        gradVa_fn=_formula(lambda x, lib=math: s_a, 1),
        affine_Va=(np.array([s_a]), 0.0),
        VN_fn=_formula(lambda th, lib=math: coupling * lib.sin(th - psi), 1),
        name="cart-pendulum-incline",
    )


def linear_system(M, S_u, S_a=None, name: str = "linear") -> MechanicalSystem:
    """Linear plant with constant inertia ``M`` and block-diagonal stiffness.

    ``M`` is symmetric positive definite, a singular actuated block refused
    by that name; ``S_u`` and ``S_a`` are symmetric, and ``S_u`` sets the
    unactuated dimension.  The coupling potential is exact (``maa^{-1} m_au
    q_u``), and when the actuated stiffness is zero the actuated potential is
    the zero affine function, so both controller modes apply.  Each formula
    is one numpy expression that keeps leading axes, so it is both the point
    callback and its batch form; with ``s = m = 1`` it also carries a float
    form over the same matrix entries.
    """
    M = _as_matrix(M, len(np.atleast_2d(M)), "M")
    S_u = _as_matrix(S_u, len(np.atleast_2d(S_u)), "S_u")
    s, m = len(S_u), len(M) - len(S_u)
    S_a = _as_matrix(0.0 if S_a is None else S_a, m, "S_a")
    muu, mau = M[:s, :s].copy(), M[s:, :s].copy()
    maa = _as_matrix(M[s:, s:].copy(), m, "maa", definite=True)  # named before M's own rule
    _as_matrix(M, s + m, "M", definite=True)
    maa_inv_mau = np.linalg.solve(maa, mau)
    affine = (np.zeros(m), 0.0) if not np.any(S_a) else None
    zeros_u, zeros_a = np.zeros((s, s, s)), np.zeros((m, s, s))

    def forms(point, scalar):  # constants and einsum serve a point and a batch alike
        return with_forms(point, batch_form=point, float_form=scalar if s == m == 1 else None)

    def constant(A):
        a = float(A.flat[0])
        return lambda q: A, lambda x: a

    # einsum and np.sum add from +0.0, so the float forms add +0.0 too: a
    # product that is -0.0 comes out +0.0 in every form
    def matvec(A):
        a = float(A.flat[0])
        return lambda q: np.einsum("ij,...j->...i", A, q), lambda x: a * x + 0.0

    def quadratic(grad):
        point, scalar = grad
        return (lambda q: 0.5 * np.sum(q * point(q), axis=-1),
                lambda x: 0.5 * (x * scalar(x) + 0.0))

    gradVu, gradVa = matvec(S_u), matvec(S_a)
    return MechanicalSystem(
        s=s, m=m,
        muu_fn=forms(*constant(muu)),
        muu_jac=forms(*constant(zeros_u)),
        mau_fn=forms(*constant(mau)),
        mau_jac=forms(*constant(zeros_a)),
        maa=maa,
        Vu_fn=forms(*quadratic(gradVu)),
        gradVu_fn=forms(*gradVu),
        Va_fn=forms(*quadratic(gradVa)),
        gradVa_fn=forms(*gradVa),
        affine_Va=affine,
        VN_fn=forms(*matvec(maa_inv_mau)),
        name=name,
    )


def pinned_linear_2dof() -> MechanicalSystem:
    """Two-mass linear benchmark with inertial coupling and an unactuated
    spring; the instance used by the linear stability tests."""
    return linear_system(M=[[2.0, 1.0], [1.0, 1.0]], S_u=[[1.0]], S_a=[[0.0]],
                         name="linear-2dof")
