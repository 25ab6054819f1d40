"""Built-in example plants."""

from __future__ import annotations

import math

import numpy as np

from .mechanics import MechanicalSystem

GRAVITY = 9.81  # m/s^2


def cart_pendulum_incline(pendulum_mass: float = 0.14, cart_mass: float = 0.44,
                          length: float = 0.215, psi: float = math.radians(20.0),
                          gravity: float = GRAVITY) -> MechanicalSystem:
    """Cart on an inclined plane carrying an inverted pendulum.

    ``q_u`` is the pendulum angle measured from the upright vertical, ``q_a``
    the cart position along the plane, and the single input is a force on
    the cart.  The incline angle ``psi`` tilts the coupling term and makes
    the actuated potential affine with slope ``-(M_c + m) g sin(psi)``.

    Every block has one entry, so the callbacks return Python floats from
    :mod:`math`, with the constant factors folded when the plant is built.
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
        muu_fn=lambda q_u: muu,
        muu_jac=lambda q_u: 0.0,
        mau_fn=lambda q_u: m_ell * math.cos(q_u[0] - psi),
        mau_jac=lambda q_u: -m_ell * math.sin(q_u[0] - psi),
        maa=np.array([[total]]),
        Vu_fn=lambda q_u: m_g_ell * math.cos(q_u[0]),
        gradVu_fn=lambda q_u: -m_g_ell * math.sin(q_u[0]),
        Va_fn=lambda q_a: s_a * float(q_a[0]),
        gradVa_fn=lambda q_a: s_a,
        affine_Va=(np.array([s_a]), 0.0),
        VN_fn=lambda q_u: coupling * math.sin(q_u[0] - psi),
        name="cart-pendulum-incline",
    )


def linear_system(M, S_u, S_a=None, name: str = "linear") -> MechanicalSystem:
    """Linear plant with constant inertia ``M`` and block-diagonal stiffness.

    The unactuated dimension is read off ``S_u``.  The coupling potential is
    exact (``maa^{-1} m_au q_u``), and when the actuated stiffness is zero
    the actuated potential is the zero affine function, so both controller
    modes apply.
    """
    M = np.asarray(M, dtype=float)
    S_u = np.atleast_2d(np.asarray(S_u, dtype=float))
    s = S_u.shape[0]
    m = M.shape[0] - s
    if S_a is None:
        S_a = np.zeros((m, m))
    S_a = np.atleast_2d(np.asarray(S_a, dtype=float))
    muu = M[:s, :s].copy()
    mau = M[s:, :s].copy()
    maa = M[s:, s:].copy()
    maa_inv_mau = np.linalg.solve(maa, mau)
    affine = (np.zeros(m), 0.0) if not np.any(S_a) else None

    return MechanicalSystem(
        s=s, m=m,
        muu_fn=lambda q_u: muu,
        muu_jac=lambda q_u: np.zeros((s, s, s)),
        mau_fn=lambda q_u: mau,
        mau_jac=lambda q_u: np.zeros((m, s, s)),
        maa=maa,
        Vu_fn=lambda q_u: 0.5 * q_u @ (S_u @ q_u),
        gradVu_fn=lambda q_u: S_u @ q_u,
        Va_fn=lambda q_a: 0.5 * q_a @ (S_a @ q_a),
        gradVa_fn=lambda q_a: S_a @ q_a,
        affine_Va=affine,
        VN_fn=lambda q_u: maa_inv_mau @ q_u,
        name=name,
    )


def pinned_linear_2dof() -> MechanicalSystem:
    """Two-mass linear benchmark with inertial coupling and an unactuated
    spring; the instance used by the linear stability tests."""
    return linear_system(M=[[2.0, 1.0], [1.0, 1.0]], S_u=[[1.0]], S_a=[[0.0]],
                         name="linear-2dof")
