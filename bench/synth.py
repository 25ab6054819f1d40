"""Seeded s = m = 2 plant, gains and initial state for the 2-dof workloads.

The plant follows the construction of the test suite's synthetic plants: a
dominant constant unactuated inertia block plus a small ripple, coupling rows
that are gradients of smooth potentials (so the coupling potential has a
closed form), an affine actuated potential and analytic derivative
callbacks.  It is a copy on purpose, so that an edit to the tests cannot
silently change a benchmark workload.

Gains are drawn sign-consistent (``k_e > 0``, ``k_a > 0``, ``k_u > k_a``).
The only redraw is the library's own A5 anchor check, the one
``pidpbc sweep`` applies before it simulates a gain set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from pidpbc import Gains, MechanicalSystem, scan_A5

S = M = 2
T_END = 2.0
DT = 1e-3
GATE_POINTS = 61
GATE_PAD = 0.2618
BOX_PAD = 0.5
MAX_DRAWS = 100


@dataclass
class Synthetic:
    system: MechanicalSystem
    gains: Gains
    q0: np.ndarray
    qd0: np.ndarray
    gate_grid: np.ndarray      # (GATE_POINTS**2, 2) q_u grid for the A5/A7 scans
    check_box: np.ndarray      # (4, 2) sampling box for check_assumptions


def _random_spd(rng, k, scale=1.0):
    A = rng.normal(size=(k, k))
    return scale * (A @ A.T + k * np.eye(k))


def make_plant(rng) -> MechanicalSystem:
    s, m = S, M
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
    s_a = rng.normal(size=m)
    c0 = float(rng.normal())

    def muu_fn(q):
        return C0 + 0.3 * np.sin(alpha @ q) * C1

    def muu_jac(q):
        return np.einsum("ij,k->ijk", 0.3 * np.cos(alpha @ q) * C1, alpha)

    def mau_fn(q):
        return a_rows - (b_rows * np.sin(c_rows @ q))[:, None] * c_rows

    def mau_jac(q):
        phase = np.cos(c_rows @ q) * b_rows
        return -np.einsum("i,ij,ik->ijk", phase, c_rows, c_rows)

    def W(q):
        return a_rows @ q + b_rows * np.cos(c_rows @ q)

    def VN_fn(q):
        return maa_inv @ (W(q) - W(np.zeros(s)))

    return MechanicalSystem(
        s=s, m=m,
        muu_fn=muu_fn, muu_jac=muu_jac,
        mau_fn=mau_fn, mau_jac=mau_jac,
        maa=maa,
        Vu_fn=lambda q: 0.5 * float(q @ (P @ q)) + beta * np.cos(gamma @ q),
        gradVu_fn=lambda q: P @ q - beta * np.sin(gamma @ q) * gamma,
        Va_fn=lambda q: float(s_a @ q) + c0,
        gradVa_fn=lambda q: s_a.copy(),
        affine_Va=(s_a, c0),
        VN_fn=VN_fn,
        name="bench-synthetic-s2m2",
    )


def _draw_gains(rng, mode: str) -> Gains:
    k_e = rng.uniform(0.5, 2.0)
    k_a = rng.uniform(0.5, 2.0)
    k_u = k_a + rng.uniform(0.5, 1.5)
    return Gains(k_e=k_e, k_a=k_a, k_u=k_u,
                 K_P=_random_spd(rng, M), K_I=_random_spd(rng, M),
                 K_D=0.3 * _random_spd(rng, M),
                 q_u_star=np.zeros(S), q_a_star=np.zeros(M), mode=mode)


def make_synthetic(seed: int, mode: str = "robust_A8") -> Synthetic:
    """Plant, gains, initial state and scan grids drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    plant = make_plant(rng)
    for _ in range(MAX_DRAWS):
        gains = _draw_gains(rng, mode)
        q0 = rng.uniform(-0.3, 0.3, size=S + M)
        anchors = np.vstack([q0[:S], gains.q_u_star])
        if scan_A5(plant, gains, anchors)["pass"]:
            break
    else:
        raise RuntimeError(f"seed {seed}: no gain set passed the A5 anchor check")
    anchors = np.vstack([q0, gains.q_star])
    lo, hi = anchors.min(axis=0), anchors.max(axis=0)
    axes = [np.linspace(lo[j] - GATE_PAD, hi[j] + GATE_PAD, GATE_POINTS) for j in range(S)]
    mesh = np.meshgrid(*axes, indexing="ij")
    gate_grid = np.stack([ax.ravel() for ax in mesh], axis=1)
    check_box = np.stack([lo - BOX_PAD, hi + BOX_PAD], axis=1)
    return Synthetic(system=plant, gains=gains, q0=q0, qd0=np.zeros(S + M),
                     gate_grid=gate_grid, check_box=check_box)


def without_closed_form(sys: MechanicalSystem) -> MechanicalSystem:
    """The same plant with ``V_N`` left to the library's quadrature."""
    return replace(sys, VN_fn=None)
