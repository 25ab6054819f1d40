"""Randomized synthetic plants with exact derivative data for the tests.

Construction guarantees a globally positive definite inertia matrix: the
unactuated block is a dominant constant plus a small sinusoidal ripple, and
the coupling rows are gradients of smooth potentials (so the coupling
potential has a closed form).  Every derivative callback is analytic, which
keeps the identity checks at tight tolerances.
"""

import numpy as np

from pidpbc import MechanicalSystem


def _random_spd(rng, k, scale=1.0):
    A = rng.normal(size=(k, k))
    return scale * (A @ A.T + k * np.eye(k))


def make_synthetic(s: int, m: int, seed: int, integrable: bool = True,
                   affine_va: bool = True) -> MechanicalSystem:
    rng = np.random.default_rng(seed)

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
