"""Randomized synthetic plants with exact derivative data for the tests.

Construction guarantees a globally positive definite inertia matrix: the
unactuated block is a dominant constant plus a small sinusoidal ripple, and
the coupling rows are gradients of smooth potentials (so the coupling
potential has a closed form).  Every derivative callback is analytic, which
keeps the identity checks at tight tolerances.
"""

import math

import numpy as np

from pidpbc import MechanicalSystem
from pidpbc.mechanics import with_forms


def _random_spd(rng, k, scale=1.0):
    A = rng.normal(size=(k, k))
    return scale * (A @ A.T + k * np.eye(k))


def _draws(rng, s: int, m: int) -> tuple:
    """``(C0, C1, alpha, a_rows, b_rows, c_rows, maa, P, beta, gamma)`` of a
    synthetic plant, drawn from ``rng`` in a fixed order."""
    C1 = rng.normal(size=(s, s))
    C1 = 0.5 * (C1 + C1.T)
    alpha = rng.normal(size=s)

    # coupling rows: gradients of W_i = a_i.q + b_i cos(c_i.q)
    a_rows = rng.normal(size=(m, s))
    b_rows = rng.normal(size=m) * 0.5
    c_rows = rng.normal(size=(m, s))

    maa = _random_spd(rng, m)

    # dominant constant block sized so the Schur complement stays positive
    mau_bound = np.abs(a_rows).sum() + np.abs(b_rows @ np.abs(c_rows))
    lam_maa = np.linalg.eigvalsh(maa).min()
    C0 = _random_spd(rng, s) + (mau_bound ** 2 / lam_maa + np.abs(C1).sum() + 1.0) * np.eye(s)

    P = _random_spd(rng, s, scale=0.5)
    beta = 0.3 * rng.normal()
    gamma = rng.normal(size=s)
    return C0, C1, alpha, a_rows, b_rows, c_rows, maa, P, beta, gamma


def make_synthetic(s: int, m: int, seed: int, integrable: bool = True,
                   affine_va: bool = True) -> MechanicalSystem:
    rng = np.random.default_rng(seed)
    C0, C1, alpha, a_rows, b_rows, c_rows, maa, P, beta, gamma = _draws(rng, s, m)
    maa_inv = np.linalg.inv(maa)

    def muu_fn(q):
        return C0 + 0.3 * np.sin(alpha @ q) * C1

    def muu_jac(q):
        base = 0.3 * np.cos(alpha @ q) * C1
        return np.einsum("ij,k->ijk", base, alpha)

    if integrable:
        def mau_fn(q):
            return a_rows - (b_rows * np.sin(c_rows @ q))[:, None] * c_rows

        def mau_jac(q):
            phase = np.cos(c_rows @ q) * b_rows
            return -np.einsum("i,ij,ik->ijk", phase, c_rows, c_rows)

        def W(q):
            return a_rows @ q + b_rows * np.cos(c_rows @ q)

        def VN_fn(q):
            return maa_inv @ (W(q) - W(np.zeros(s)))
    else:
        # rotate the sinusoidal direction so the row Jacobians are asymmetric
        shift = np.roll(np.eye(s), 1, axis=0)

        def mau_fn(q):
            return a_rows - (b_rows * np.sin(c_rows @ q))[:, None] * (c_rows @ shift.T)

        def mau_jac(q):
            phase = np.cos(c_rows @ q) * b_rows
            return -np.einsum("i,ij,ik->ijk", phase, c_rows @ shift.T, c_rows)

        VN_fn = None

    if affine_va:
        s_a = rng.normal(size=m)
        c0 = float(rng.normal())
        Va_fn = lambda q: float(s_a @ q) + c0
        gradVa_fn = lambda q: s_a.copy()
        affine = (s_a, c0)
    else:
        Sa = _random_spd(rng, m, scale=0.3)
        Va_fn = lambda q: 0.5 * float(q @ (Sa @ q))
        gradVa_fn = lambda q: Sa @ q
        affine = None

    return MechanicalSystem(
        s=s, m=m,
        muu_fn=muu_fn, muu_jac=muu_jac,
        mau_fn=mau_fn, mau_jac=mau_jac,
        maa=maa,
        Vu_fn=lambda q: 0.5 * float(q @ (P @ q)) + beta * np.cos(gamma @ q),
        gradVu_fn=lambda q: P @ q - beta * np.sin(gamma @ q) * gamma,
        Va_fn=Va_fn, gradVa_fn=gradVa_fn,
        affine_Va=affine,
        VN_fn=VN_fn,
        name=f"synthetic-s{s}m{m}-{seed}",
    )


def formula_plant(seed: int) -> MechanicalSystem:
    """The plant of ``make_synthetic(2, 2, seed)`` with every block written
    once, as ``expr(q0, q1, lib=math)`` over the coordinates with the
    arithmetic operators and ``lib`` functions: nested tuples of the block's
    shape (a float for the potentials).  ``expr`` is the block's float form,
    and its point callback is ``expr`` at the point's floats, so the two
    agree by construction."""
    rng = np.random.default_rng(seed)
    S = M = range(2)
    C0, C1, alpha, a_rows, b_rows, c_rows, maa, P, beta, gamma = _draws(rng, 2, 2)
    s_a, c0 = rng.normal(size=2), float(rng.normal())
    C0, C1, alpha, a_rows, b_rows, c_rows, P, gamma, s_a, maa_inv = (
        x.tolist() for x in (C0, C1, alpha, a_rows, b_rows, c_rows, P, gamma, s_a,
                             np.linalg.inv(maa)))

    def dot(a, q):  # a . q, summed left to right
        out = a[0] * q[0]
        for x, y in zip(a[1:], q[1:]):
            out = out + x * y
        return out

    def muu(q0, q1, lib=math):
        r = 0.3 * lib.sin(dot(alpha, (q0, q1)))
        return tuple(tuple(C0[i][j] + r * C1[i][j] for j in S) for i in S)

    def muu_jac(q0, q1, lib=math):
        r = 0.3 * lib.cos(dot(alpha, (q0, q1)))
        return tuple(tuple(tuple(r * C1[i][j] * alpha[k] for k in S) for j in S) for i in S)

    # coupling rows: gradients of W_i = a_i.q + b_i cos(c_i.q)
    def mau(q0, q1, lib=math):
        return tuple(tuple(a_rows[i][j] - b_rows[i] * lib.sin(dot(c_rows[i], (q0, q1)))
                           * c_rows[i][j] for j in S) for i in M)

    def mau_jac(q0, q1, lib=math):
        return tuple(tuple(tuple(-(b_rows[i] * lib.cos(dot(c_rows[i], (q0, q1)))) * c_rows[i][j]
                                 * c_rows[i][k] for k in S) for j in S) for i in M)

    def VN(q0, q1, lib=math):  # maa^{-1} (W(q) - W(0))
        W = [dot(a_rows[i], (q0, q1)) + b_rows[i] * lib.cos(dot(c_rows[i], (q0, q1)))
             - b_rows[i] for i in M]
        return tuple(dot(maa_inv[i], W) for i in M)

    def Vu(q0, q1, lib=math):
        q = (q0, q1)
        return 0.5 * dot(q, [dot(P[k], q) for k in S]) + beta * lib.cos(dot(gamma, q))

    def gradVu(q0, q1, lib=math):
        q = (q0, q1)
        return tuple(dot(P[k], q) - beta * lib.sin(dot(gamma, q)) * gamma[k] for k in S)

    def Va(q0, q1, lib=math):
        return dot(s_a, (q0, q1)) + c0

    def gradVa(q0, q1, lib=math):
        return tuple(s_a)

    def formula(expr):
        return with_forms(lambda q: expr(*map(float, q)), float_form=expr)

    return MechanicalSystem(
        s=2, m=2, muu_fn=formula(muu), muu_jac=formula(muu_jac), mau_fn=formula(mau),
        mau_jac=formula(mau_jac), maa=maa, Vu_fn=formula(Vu), gradVu_fn=formula(gradVu),
        Va_fn=formula(Va), gradVa_fn=formula(gradVa), affine_Va=(np.array(s_a), c0),
        VN_fn=formula(VN), name=f"formula-s2m2-{seed}")


def block_diagonal_plant():
    """Plant with zero inertia coupling; not strongly inertially coupled."""
    from pidpbc import linear_system
    return linear_system(M=[[2.0, 0.0], [0.0, 1.0]], S_u=[[1.0]],
                         name="block-diagonal")


def random_state(sys, rng, pos_scale=1.0, vel_scale=1.0):
    from pidpbc import State
    return State(
        q_u=rng.uniform(-pos_scale, pos_scale, sys.s),
        q_a=rng.uniform(-pos_scale, pos_scale, sys.m),
        qd_u=rng.normal(scale=vel_scale, size=sys.s),
        qd_a=rng.normal(scale=vel_scale, size=sys.m),
    )


def nonintegrable_plant():
    """s = m = 2 plant whose coupling rows are not gradient fields, so it has
    no coupling potential."""
    return make_synthetic(2, 2, seed=28, integrable=False)
