"""PID controller wrapped around the weighted passive output.

The control law is the PID

    k_e u = -(K_P y_d + K_I z1 + K_D yd_dot),    z1' = y_d,

around ``y_d = k_a y_a + k_u y_u``.  Because ``yd_dot`` contains the
accelerations, the law is realised implicitly: substituting the plant
dynamics turns it into a linear system ``K(q_u) u = -K_P y_d - K_I z1 - S``,
with no numerical differentiation; at ``K_D = 0`` it is the PI law.  The
simulator and its trace's ``u`` and ``det K`` use the defining equations
(:mod:`.sim`); these closed forms stay for ``scan_A5`` (``K``) and the
benchmark's probes (:func:`exact_control`, :func:`pi_control`).  The
simulator's filtered variant is not adequate for fast control action.

Two plant-side modes are supported: ``cancel_Va`` feeds ``tau = u + grad
V_a(q_a)`` so the actuated potential is cancelled, while ``robust_A8``
applies the controller output directly as ``tau`` and relies on the actuated
potential being affine.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .mechanics import (Array, MechanicalSystem, State, _T, _as_matrix, _finite, _mv, _points,
                        _solve, coriolis_decomposition)
from .passivity import passive_outputs, potential_integral_VN, schur_unactuated

MODES = ("cancel_Va", "robust_A8")
CRIT_TOL = 1e-8  # largest |grad V_u(q_u*)| of an assignable target
DET_TOL = 1e-10  # singularity floor on |det K|, relative to det K = k_e^m of the PI law


class GainSignWarning(UserWarning):
    """The outer gains do not share a sign; the L2 disturbance bound does
    not apply, although equilibrium shaping may still succeed."""


class WellPosednessError(RuntimeError):
    """The implicit control law is singular: ``|det K|`` fell below ``floor``."""

    def __init__(self, q_u: Array, det: float, floor: float, t: Optional[float] = None):
        self.q_u, self.det, self.floor, self.t = np.asarray(q_u, dtype=float), det, floor, t
        at = f" at t={t:.6g}s" if t is not None else ""
        super().__init__(f"well-posedness matrix singular{at}, q_u={self.q_u}, "
                         f"|det K|={abs(self.det):.3e} below {self.floor:.3e}")

    def __reduce__(self):  # pickle and copy rebuild from the fields, not the message
        return type(self), (self.q_u, self.det, self.floor, self.t)


@dataclass(frozen=True)
class Gains:
    """Controller gains, target position, and derivative-filter speed.

    ``k_e``, ``k_a``, ``k_u`` are the nonzero outer weights (``k_a != k_u``),
    none so large that a scalar coefficient of ``M_d`` or ``K`` overflows;
    ``K_P``, ``K_I`` positive definite and ``K_D`` semidefinite (``K_D = 0``
    is the PI law), each as :func:`.mechanics._as_matrix` reads it.  The finite
    ``q_u_star``/``q_a_star`` fix the desired equilibrium; the unactuated part
    must be a critical point of ``V_u``.  ``filter_a`` only matters for the
    filtered law.
    """

    k_e: float
    k_a: float
    k_u: float
    K_P: Array
    K_I: Array
    K_D: Array
    q_u_star: Array
    q_a_star: Array
    mode: str = "cancel_Va"
    filter_a: float = 200.0

    def __post_init__(self):
        for name in ("k_e", "k_a", "k_u", "filter_a"):
            _finite(getattr(self, name), name)
        for name in ("k_e", "k_a", "k_u"):  # one by one: a product of tiny weights underflows
            if getattr(self, name) == 0.0:
                raise ValueError(f"{name} must be nonzero")
        if self.k_a == self.k_u:
            raise ValueError("k_a and k_u must differ")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.filter_a <= 0:
            raise ValueError("filter_a must be positive")
        for name in ("q_u_star", "q_a_star"):
            object.__setattr__(self, name, _finite(getattr(self, name), name).reshape(-1))
        m = self.q_a_star.size
        k_e, k_a, k_u = (float(getattr(self, name)) for name in ("k_e", "k_a", "k_u"))
        try:  # the scalar coefficients of M_d, of K and of the floor |k_e|^m
            coefficients = ((k_a - k_u) ** 2, k_a * (k_a - k_u), k_a ** 2, k_e * k_a,
                            k_e * k_u, abs(k_e) ** m)
        except OverflowError:  # a Python float's ** raises where * gives inf
            coefficients = (math.inf,)
        if not all(map(math.isfinite, coefficients)):
            # no comma: the message is a field of the sweep table's CSV
            raise ValueError(f"k_e={k_e:g} k_a={k_a:g} k_u={k_u:g} overflow a coefficient of "
                             f"the shaped inertia or of K; (k_a - k_u)^2; k_a (k_a - k_u); "
                             f"k_a^2; k_e k_a; k_e k_u and |k_e|^m must be finite")
        for name, definite in (("K_P", True), ("K_I", True), ("K_D", False)):
            object.__setattr__(self, name, _as_matrix(getattr(self, name), m, name, definite))
        if not self.sign_consistent:
            warnings.warn(
                "sign(k_e), sign(k_a), sign(k_u) differ; the L2 disturbance "
                "bound does not apply", GainSignWarning, stacklevel=3)

    @property
    def sign_consistent(self) -> bool:
        return np.sign(self.k_e) == np.sign(self.k_a) == np.sign(self.k_u)

    @property
    def q_star(self) -> Array:
        return np.concatenate([self.q_u_star, self.q_a_star])

    def with_target(self, q_u_star=None, q_a_star=None) -> "Gains":
        """Copy with a new target position (used for setpoint steps)."""
        kwargs = {k: v for k, v in (("q_u_star", q_u_star), ("q_a_star", q_a_star))
                  if v is not None}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GainSignWarning)
            return replace(self, **kwargs)


@dataclass
class ControllerState:
    """Integrator state ``z1`` and, for the filtered law, filter state ``z2``
    (one vector each, or batches with leading sample axes)."""

    z1: Array
    z2: Optional[Array] = None

    def __post_init__(self):
        self.z1 = _points(self.z1, -1)
        if self.z2 is not None:
            self.z2 = np.asarray(self.z2, dtype=float).reshape(self.z1.shape)


def det_floor(gains: Gains) -> float:
    """Least ``|det K|`` of a well-posed sample, relative to the PI law's ``|k_e|^m``:
    scaling ``(k_e, K_P, K_I, K_D)`` together changes neither loop nor verdict."""
    return DET_TOL * abs(gains.k_e) ** gains.K_P.shape[0]


def wellposedness_matrix_K(sys: MechanicalSystem, gains: Gains, q_u: Array) -> Array:
    """Matrix multiplying ``u`` in the implicit form of the PID law.

    ``K = k_e I + k_a K_D maa^{-1}
         + k_u K_D maa^{-1} m_au (m_uu^s)^{-1} m_au^T maa^{-1}``.
    The law is well posed wherever this matrix is nonsingular.
    """
    q_u = _points(q_u, sys.s)
    K = gains.k_e * np.eye(sys.m) + gains.k_a * gains.K_D @ sys.maa_inv
    mau = sys.mau(q_u)
    muu_s = schur_unactuated(sys, q_u)
    w = np.linalg.solve(muu_s, _T(mau) @ sys.maa_inv)
    return K + gains.k_u * gains.K_D @ sys.maa_inv @ mau @ w


def feedforward_S(sys: MechanicalSystem, gains: Gains, st: State) -> Array:
    """State-dependent term absorbed from the derivative action.

    Identically zero when ``K_D = 0``.  In ``robust_A8`` mode the constant
    actuated-potential slope ``s_a`` enters the actuated rows like the
    velocity drift.  Solved with that drift, less ``(k_a - k_u) K_D
    maa^{-1} s_a``, it gives the share ``-(K(q_u) - k_e I) s_a``, the
    derivative part of the well-posedness matrix applied to it.
    """
    mau = sys.mau(st.q_u)
    muu_s = schur_unactuated(sys, st.q_u)
    cmu_qdu, dmu, act_row = coriolis_decomposition(sys, st)
    if gains.mode == "robust_A8":
        s_a = sys.affine_potential()[0]
        act_row = act_row + s_a
    inner = _solve(muu_s, _mv(_T(mau), _mv(sys.maa_inv, act_row))
                   - (cmu_qdu + dmu + sys.gradVu(st.q_u)))
    bracket = _mv(sys.maa_inv, act_row + _mv(mau, inner))
    S = -gains.k_u * _mv(gains.K_D, bracket)
    if gains.mode == "robust_A8":
        S = S - (gains.k_a - gains.k_u) * (gains.K_D @ sys.maa_inv @ s_a)
    return S


def exact_control(sys: MechanicalSystem, gains: Gains, st: State, cs: ControllerState,
                  *, det_tol: Optional[float] = None) -> Array:
    """Controller output of the implicit PID law.

    Solves ``K(q_u) u = -K_P y_d - K_I z1 - S(q, qd)``.  Feeding the result
    back makes the PID differential equation hold exactly, including the
    derivative term.  Raises :class:`WellPosednessError` when ``|det K|``
    falls below ``det_tol``, by default :func:`det_floor`; over a batch, at
    the sample with the smallest ``|det K|``.
    """
    det_tol = det_floor(gains) if det_tol is None else det_tol
    out = passive_outputs(sys, st, gains)
    rhs = -_mv(gains.K_P, out.y_d) - _mv(gains.K_I, cs.z1) - feedforward_S(sys, gains, st)
    K = wellposedness_matrix_K(sys, gains, st.q_u)
    det = np.linalg.det(K)
    if np.any(np.abs(det) < det_tol):
        k = np.unravel_index(np.argmin(np.abs(det)), det.shape)
        raise WellPosednessError(st.q_u[k], det[k], det_tol)
    return _solve(K, rhs)


def pi_control(sys: MechanicalSystem, gains: Gains, st: State, cs: ControllerState) -> Array:
    """PI law: :func:`exact_control` at ``K_D = 0``, written out as a reference."""
    out = passive_outputs(sys, st, gains)
    return -(_mv(gains.K_P, out.y_d) + _mv(gains.K_I, cs.z1)) / gains.k_e


def check_target(sys: MechanicalSystem, gains: Gains) -> None:
    """:class:`ValueError` unless the target is assignable: a critical point of
    ``V_u``, with affine actuated-potential data in ``robust_A8`` mode."""
    grad = np.linalg.norm(sys.gradVu(gains.q_u_star))
    if not grad <= CRIT_TOL:  # a NaN gradient fails too
        raise ValueError(f"target q_u*={gains.q_u_star} is not a critical point of the "
                         f"unactuated potential (|grad|={grad:.3e})")
    if gains.mode == "robust_A8":
        sys.affine_potential()


def integrator_init(sys: MechanicalSystem, gains: Gains, q0: Array) -> tuple[Array, Array]:
    """Integrator initialization that assigns the target equilibrium.

    Returns ``(z1_0, kappa)``: the offset

        kappa = -k_a q_a* - (k_a - k_u) V_N(q_u*)

    depends on the target alone, and ``z1_0`` is :func:`closed_form_z1` at
    ``q0``, so the integrator stays the position function with offset
    ``kappa`` for the whole run.  In ``robust_A8`` mode holding the plant at
    rest takes a constant force equal to the affine slope ``s_a``, which the
    integral term supplies: the offset shifts by ``-k_e K_I^{-1} s_a``.  The
    target must pass :func:`check_target`.
    """
    check_target(sys, gains)
    kappa = -gains.k_a * gains.q_a_star \
        - (gains.k_a - gains.k_u) * potential_integral_VN(sys, gains.q_u_star)
    if gains.mode == "robust_A8":
        kappa = kappa - gains.k_e * np.linalg.solve(gains.K_I, sys.affine_potential()[0])
    q0 = np.asarray(q0, dtype=float).reshape(sys.n)
    st0 = State(q0[: sys.s], q0[sys.s:], np.zeros(sys.s), np.zeros(sys.m))
    return closed_form_z1(sys, gains, st0, kappa), kappa


def closed_form_z1(sys: MechanicalSystem, gains: Gains, st: State, kappa: Array) -> Array:
    """Integrator value as a position function:
    ``k_a q_a + (k_a - k_u) V_N(q_u) + kappa``."""
    kappa = _points(kappa, sys.m)
    vn = potential_integral_VN(sys, st.q_u)
    return gains.k_a * st.q_a + (gains.k_a - gains.k_u) * vn + kappa


def plant_input(sys: MechanicalSystem, gains: Gains, u: Array, q_a: Array) -> Array:
    """Force applied to the plant for a given controller output.

    ``cancel_Va`` adds back the actuated potential gradient; ``robust_A8``
    passes it through unchanged, given the affine ``V_a`` its storage rests on.
    """
    u = _points(u, sys.m)
    if gains.mode == "cancel_Va":
        return u + sys.gradVa(_points(q_a, sys.m))
    sys.affine_potential()
    return u.copy()
