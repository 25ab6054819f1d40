"""Closed-loop simulation harness and trajectory-level verifications.

:func:`simulate` integrates only the state ``(q, qd, z1[, z2])`` with
fixed-step classical RK4, then builds every other trace column in one pass
over all samples through the public functions of :mod:`.passivity`,
:mod:`.controller` and :mod:`.analysis`, the same ones the checks use.  Every
verification (storage rates, dissipation, disturbance gain, convergence) can
be recomputed from the recorded trace alone.

The right-hand side integrates the PID as written.  One solve with ``M(q_u)``
gives the plant response ``qdd = qdd0 + G (u + d)``, a drift plus the input
map ``G = M^{-1} [0; I]``; the disturbance enters only there, unseen by the
law.  With ``y_d = L qd``, ``yd_dot = L qdd - (k_u - k_a) maa^{-1} m_au_dot
qd_u``, so the law becomes ``(k_e I + K_D L G) u = -K_P y_d - K_I z1 - K_D
yd_dot|_{u=0}``, whose matrix is the well-posedness matrix ``K(q_u)``.  The
closed forms of ``K`` and of the feedforward ``S`` live only in
:mod:`.controller`; the ``u`` and ``detK`` columns come from them, a second
route to the integrated law.  A scalar form of the same formulas serves an
``s = m = 1`` plant whose callbacks carry the float forms it calls (see
:mod:`.mechanics`); every other plant runs the generic form.  The generic
form keeps ``M``, the plant-response right-hand side and ``L`` in buffers
whose constant blocks are filled at build time, takes the Coriolis force
``Mdot qd - 1/2 d(qd' M qd)/dq`` from one inertia-derivative tensor ``dM``
(``Mdot = dM qd_u``), and forms the law's right-hand side as one product of
the stacked gains ``[-K_P, -K_I, c K_D maa^{-1}]`` with ``[y_d; z1;
act_row]``.  The tests pin the generic form to the reference functions and
the scalar form to the generic one, at random states and over whole runs.
The integrated state is a list of Python floats; the array forms convert at
their own boundary (``np.asarray`` in, ``tolist`` out).  The scalar form also
takes the whole RK4 step, its four stages on local floats, bitwise equal to
the stage loop every other right-hand side runs in :func:`_rk4`.  The diagnostics
pass evaluates each callback over all samples at once, through its batch
form when it has one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .mechanics import (Array, DynamicsError, MechanicalSystem, State, _quad,
                        assemble_inertia, forward_dynamics, mau_gradient, muu_gradient,
                        shared_samples)
from .controller import (ControllerState, Gains, WellPosednessError, approx_control,
                         check_target, closed_form_z1, det_floor, exact_control,
                         integrator_init, plant_input, wellposedness_matrix_K)
from .passivity import passive_outputs, robust_storage, storage_functions
from .analysis import lyapunov_Hd_and_U

CONTROLLERS = ("exact", "approx")  # the PI law is "exact" at K_D = 0
SWITCH_PAD = 2  # samples on each side of a setpoint switch the rate checks skip
L2_ESTIMATE_FRACTION = 0.5  # leading share of the trace that sets the L2 offset


@dataclass(frozen=True)
class SetpointStep:
    """Mid-run change of the target position.

    At the step instant the integrator is re-initialized from the current
    state with the new target, so the equilibrium-assignment construction
    stays valid on each interval.
    """

    t: float
    q_a_star: Array
    q_u_star: Optional[Array] = None


@dataclass
class Trace:
    """Uniformly sampled closed-loop trajectory with controller internals.

    ``segments`` holds ``(k0, k1, gains)`` per setpoint segment: its first and
    last sample and the gains carrying its target.  A step re-initializes
    ``z1`` at its sample, so a segment's ``k1`` is the next one's ``k0``.
    """

    t: Array
    q_u: Array
    q_a: Array
    qd_u: Array
    qd_a: Array
    z1: Array
    z1_closed: Array
    u: Array
    tau: Array
    d: Array
    y_u: Array
    y_a: Array
    y_d: Array
    H_u: Array
    H_a: Array
    H: Array
    H_d: Array
    U: Array
    detK: Array
    z2: Optional[Array] = None
    Hbar_u: Optional[Array] = None
    Hbar_a: Optional[Array] = None
    dt: float = 0.0
    controller: str = "exact"
    system: Optional[MechanicalSystem] = None
    gains: Optional[Gains] = None
    segments: tuple = ()

    def state_at(self, k: int) -> State:
        return State(self.q_u[k], self.q_a[k], self.qd_u[k], self.qd_a[k])

    @property
    def n_samples(self) -> int:
        return self.t.size

    @property
    def min_abs_detK(self) -> float:
        """Least ``|det K|`` over the samples (``nan`` unless the law is exact)."""
        return float(np.abs(self.detK).min()) if self.controller == "exact" else float("nan")


class SimulationAborted(DynamicsError):
    """Integration stopped before ``t_end`` (singularity or blow-up)."""


def _build_eval_generic(sys: MechanicalSystem, gains: Gains, controller: str,
                        disturbance, det_tol: float):
    """Array evaluation for any ``s`` and ``m``.  Each evaluation calls every
    plant callback it needs once and writes into buffers that keep their
    constant entries from the build, so one closure serves one run at a time."""
    s, m, n = sys.s, sys.m, sys.n
    exact, robust = controller == "exact", gains.mode == "robust_A8"
    c, k_e, K_D, filter_a = gains.k_u - gains.k_a, gains.k_e, gains.K_D, gains.filter_a
    # a plant without an analytic Jacobian gets the fourth-order difference
    muu_jac = sys.muu_jac or (lambda q_u: muu_gradient(sys, q_u))
    mau_jac = sys.mau_jac or (lambda q_u: mau_gradient(sys, q_u))
    # M with its m_aa block, dM[i, j, k] = d M_ij / d q_u[k], the plant-response
    # right-hand side [drift | 0; I] and L = [-c maa^{-1} m_au, k_a I]
    M, dM = np.zeros((n, n)), np.zeros((n, n, s))
    M[s:, s:] = sys.maa
    rhs = np.zeros((n, 1 + m))
    rhs[s:, 1:] = np.eye(m)
    L = np.zeros((m, n))
    L[:, s:] = gains.k_a * np.eye(m)
    L_u = -c * sys.maa_inv
    u1 = np.ones(1 + m)  # [1; u], so that qdd = sol @ u1
    k_eI = k_e * np.eye(m)
    # the law's right-hand side is one product with [y_d; z1; w]: w is act_row
    # in the exact law and the filtered derivative in the approximate one
    pid = np.hstack([-gains.K_P, -gains.K_I, c * K_D @ sys.maa_inv if exact else -K_D])

    def read(value, shape: tuple) -> Array:  # a callback result, as floats
        return np.asarray(value, dtype=float).reshape(shape)

    def eval_rhs(t: float, x) -> list:
        if not all(map(math.isfinite, x[:n])):  # callbacks see finite positions only
            raise ArithmeticError
        xv = np.asarray(x)
        q_u, qd = xv[:s], xv[n:2 * n]
        qd_u, z1v = qd[:s], xv[2 * n:2 * n + m]

        mau = read(sys.mau_fn(q_u), (m, s))
        M[:s, :s] = read(sys.muu_fn(q_u), (s, s))
        M[s:, :s] = mau
        M[:s, s:] = mau.T
        dmau = read(mau_jac(q_u), (m, s, s))
        dM[:s, :s] = read(muu_jac(q_u), (s, s, s))
        dM[s:, :s] = dmau
        dM[:s, s:] = dmau.transpose(1, 0, 2)
        # Coriolis force Mdot qd - 1/2 d(qd' M qd)/dq, the second term in the
        # unactuated rows only; Mdot qd's actuated rows are act_row
        mdot_qd = (dM @ qd_u) @ qd
        act_row = mdot_qd[s:]

        # plant response qdd = qdd0 + G (u + d): the drift qdd0 in column 0,
        # the input map G = M^{-1} [0; I] in the others; robust_A8 keeps the
        # actuated potential slope in the drift
        rhs[:s, 0] = 0.5 * (qd @ (qd @ dM)) - mdot_qd[:s] - read(sys.gradVu_fn(q_u), (s,))
        rhs[s:, 0] = -act_row - read(sys.gradVa_fn(xv[s:n]), (m,)) if robust else -act_row
        sol = np.linalg.solve(M, rhs)

        # y_d = L qd and yd_dot = L qdd - c maa^{-1} act_row
        L[:, :s] = L_u @ mau
        y_d = L @ qd
        if exact:
            # the PID as written, with yd_dot substituted: the matrix on u is K(q_u)
            KD_Lsol = K_D @ (L @ sol)
            K = k_eI + KD_Lsol[:, 1:]
            detK = float(np.linalg.det(K))
            if abs(detK) < det_tol:
                raise WellPosednessError(q_u, detK, det_tol, t)
            u = np.linalg.solve(K, pid @ np.concatenate((y_d, z1v, act_row)) - KD_Lsol[:, 0])
            tail = (y_d,)
        else:
            z2dot = filter_a * (y_d - xv[2 * n + m:])
            u = (pid @ np.concatenate((y_d, z1v, z2dot))) / k_e
            tail = (y_d, z2dot)
        # the disturbance enters at the plant input only; the law never sees it
        if disturbance is not None:
            u = u + np.asarray(disturbance(t), dtype=float).reshape(m)
        u1[1:] = u
        return np.concatenate((qd, sol @ u1) + tail).tolist()

    return eval_rhs


def _scalar_forms(sys: MechanicalSystem, mode: str) -> Optional[list]:
    """The float forms of ``muu_fn``, ``mau_fn``, ``gradVu_fn``, ``muu_jac``,
    ``mau_jac`` and, in ``robust_A8`` mode, ``gradVa_fn``: the callbacks the
    ``s = m = 1`` step calls.  ``None`` unless the plant has ``s = m = 1`` and
    each of them carries its float form."""
    names = ["muu_fn", "mau_fn", "gradVu_fn", "muu_jac", "mau_jac"]
    if mode == "robust_A8":
        names.append("gradVa_fn")
    forms = [getattr(getattr(sys, name), "float_form", None) for name in names]
    return forms if sys.s == sys.m == 1 and all(forms) else None


def _build_eval_scalar(sys: MechanicalSystem, gains: Gains, controller: str,
                       disturbance, det_tol: float):
    """Float-only evaluation for s = m = 1; formula-identical to the generic
    path, with the 2x2 inverse in closed form.  It calls only the float forms
    of :func:`_scalar_forms`, which the plant must carry, so every evaluation
    runs on Python floats.  The returned closure carries ``rk4_step(dt)``,
    the whole RK4 step of :func:`_rk4` on local floats (see there)."""
    muu_fn, mau_fn, gradVu_fn, dmuu_fn, dmau_fn, *robust = _scalar_forms(sys, gains.mode)
    gradVa_fn = robust[0] if robust else None
    use_z2 = controller == "approx"
    k_e, k_a, filter_a = gains.k_e, gains.k_a, gains.filter_a
    c = gains.k_u - gains.k_a
    KP, KI, KD = (float(mat[0, 0]) for mat in (gains.K_P, gains.K_I, gains.K_D))
    maa = float(sys.maa[0, 0])

    def field(t, q_u, q_a, qd_u, qd_a, z1, z2) -> tuple:
        """``(qdd_u, qdd_a, y_d, z2dot)``; ``z2dot`` is 0.0 in the exact law,
        so a ``z2`` slot held at 0.0 serves both laws."""
        if not (math.isfinite(q_u) and math.isfinite(q_a)):  # callbacks see finite positions only
            raise ArithmeticError
        muu = muu_fn(q_u)
        mau = mau_fn(q_u)
        act_row = dmau_fn(q_u) * qd_u * qd_u

        # plant response qdd = qdd0 + G (u + d); the velocity cross terms
        # cancel exactly for s = m = 1; robust_A8 keeps the actuated slope
        f_u = -(0.5 * dmuu_fn(q_u) * qd_u * qd_u + gradVu_fn(q_u))
        f_a = -act_row - gradVa_fn(q_a) if gradVa_fn else -act_row
        det_M = muu * maa - mau * mau
        qdd0_u = (maa * f_u - mau * f_a) / det_M
        qdd0_a = (muu * f_a - mau * f_u) / det_M
        G_u, G_a = -mau / det_M, muu / det_M

        # y_d = L qd with L = [-c m_au / maa, k_a]
        L_u = -c * mau / maa
        y_d = L_u * qd_u + k_a * qd_a
        if use_z2:
            z2dot = filter_a * (y_d - z2)
            # (KD filter_a) (y_d - z2), not KD z2dot: a different rounding
            u = -(KP * y_d + KI * z1 + KD * filter_a * (y_d - z2)) / k_e
        else:
            z2dot = 0.0
            K = k_e + KD * (L_u * G_u + k_a * G_a)
            if abs(K) < det_tol:
                raise WellPosednessError(np.array([q_u]), K, det_tol, t)
            ydot0 = L_u * qdd0_u + k_a * qdd0_a - c * act_row / maa
            u = (-(KP * y_d) - KI * z1 - KD * ydot0) / K
        if disturbance is not None:
            u += np.asarray(disturbance(t), dtype=float).reshape(1).item()
        return qdd0_u + G_u * u, qdd0_a + G_a * u, y_d, z2dot

    def eval_rhs(t: float, x) -> list:
        xdot = [x[2], x[3], *field(t, *x[:5], x[5] if use_z2 else 0.0)]
        return xdot if use_z2 else xdot[:5]

    def rk4_step(dt: float):
        half, sixth = 0.5 * dt, dt / 6.0

        def step(t: float, x) -> list:
            # _rk4_stages written out per entry, each sum in its order
            q_u, q_a, v_u, v_a, z1 = x[0], x[1], x[2], x[3], x[4]
            z2 = x[5] if use_z2 else 0.0
            a_u, a_a, y, w = field(t, q_u, q_a, v_u, v_a, z1, z2)
            v_u2, v_a2 = v_u + half * a_u, v_a + half * a_a
            a_u2, a_a2, y2, w2 = field(t + half, q_u + half * v_u, q_a + half * v_a,
                                       v_u2, v_a2, z1 + half * y, z2 + half * w)
            v_u3, v_a3 = v_u + half * a_u2, v_a + half * a_a2
            a_u3, a_a3, y3, w3 = field(t + half, q_u + half * v_u2, q_a + half * v_a2,
                                       v_u3, v_a3, z1 + half * y2, z2 + half * w2)
            v_u4, v_a4 = v_u + dt * a_u3, v_a + dt * a_a3
            a_u4, a_a4, y4, w4 = field(t + dt, q_u + dt * v_u3, q_a + dt * v_a3,
                                       v_u4, v_a4, z1 + dt * y3, z2 + dt * w3)
            x = [q_u + sixth * (v_u + 2.0 * (v_u2 + v_u3) + v_u4),
                 q_a + sixth * (v_a + 2.0 * (v_a2 + v_a3) + v_a4),
                 v_u + sixth * (a_u + 2.0 * (a_u2 + a_u3) + a_u4),
                 v_a + sixth * (a_a + 2.0 * (a_a2 + a_a3) + a_a4),
                 z1 + sixth * (y + 2.0 * (y2 + y3) + y4)]
            if use_z2:
                x.append(z2 + sixth * (w + 2.0 * (w2 + w3) + w4))
            return x

        return step

    eval_rhs.rk4_step = rk4_step
    return eval_rhs


def _rk4_stages(rhs: Callable[[float, list], list], dt: float):
    """One classical RK4 step of ``rhs``, ``(t, x) -> x`` on lists of floats."""
    half, sixth = 0.5 * dt, dt / 6.0

    def step(t: float, x: list) -> list:
        r1 = rhs(t, x)
        r2 = rhs(t + half, [a + half * b for a, b in zip(x, r1)])
        r3 = rhs(t + half, [a + half * b for a, b in zip(x, r2)])
        r4 = rhs(t + dt, [a + dt * b for a, b in zip(x, r3)])
        return [a + sixth * (b1 + 2.0 * (b2 + b3) + b4)
                for a, b1, b2, b3, b4 in zip(x, r1, r2, r3, r4)]

    return step


def _rk4(rhs: Callable[[float, list], list], X: Array, k0: int, k1: int, dt: float) -> None:
    """Classical RK4 steps from row ``k0`` to row ``k1`` of ``X`` in place.

    The state is a list of Python floats.  A step is ``rhs.rk4_step(dt)``
    when ``rhs`` carries one, as the ``s = m = 1`` closure does: its four
    stages run on local floats, bitwise equal to the stage loop
    :func:`_rk4_stages`, which every other ``rhs`` takes.  Every early stop
    of a run is the :class:`SimulationAborted` raised here: a new state is
    not finite, a step divides by zero, or ``rhs`` raises
    :class:`.WellPosednessError` at a stage or at the last state; ``rhs``
    raises :class:`ArithmeticError` on a non-finite stage state before any
    plant callback sees it.
    """
    make_step = getattr(rhs, "rk4_step", None)
    step = make_step(dt) if make_step else _rk4_stages(rhs, dt)
    x = X[k0].tolist()
    # divergence is detected by the explicit finiteness check, so the
    # transient inf/nan arithmetic on the way there stays silent
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for k in range(k0, k1):
                t = k * dt
                x = step(t, x)
                X[k + 1] = x
                if not all(map(math.isfinite, x)):
                    raise ArithmeticError
            rhs(k1 * dt, x)
        except WellPosednessError as exc:
            raise SimulationAborted(str(exc)) from exc
        except (ArithmeticError, np.linalg.LinAlgError):  # a zero divisor is inf/nan in numpy
            raise SimulationAborted(f"state became non-finite at t={t + dt:.6g}s") from None


def _diagnose(sys: MechanicalSystem, X: Array, dt: float, controller: str, disturbance,
              segments: list) -> dict:
    """Every trace column from the integrated states, in one pass over all
    samples through the reference functions; ``segments`` as in :class:`Trace`."""
    s, m, n = sys.s, sys.m, sys.n
    N = X.shape[0]
    gains = segments[0][2]
    t = np.arange(N) * dt
    st = State(X[:, :s], X[:, s:n], X[:, n:n + s], X[:, n + s:2 * n])
    z1 = X[:, 2 * n:2 * n + m]
    z2 = X[:, 2 * n + m:] if controller == "approx" else None
    d = np.zeros((N, m)) if disturbance is None else \
        np.array([np.asarray(disturbance(tk), dtype=float).reshape(m) for tk in t])
    cols = dict(t=t, q_u=st.q_u, q_a=st.q_a, qd_u=st.qd_u, qd_a=st.qd_a, z1=z1, z2=z2, d=d)
    with shared_samples(st.q_u, st.q_a):
        cs = ControllerState(z1, z2)
        # the integration already judged every sample by det_floor
        u = exact_control(sys, gains, st, cs, det_tol=0.0) if controller == "exact" \
            else approx_control(sys, gains, st, cs)[0]
        out = passive_outputs(sys, st, gains)
        cols["H_u"], cols["H_a"], cols["H"] = storage_functions(sys, st)
        if sys.affine_Va is not None:
            cols["Hbar_u"], cols["Hbar_a"] = robust_storage(sys, st)
        # a setpoint step changes only the target, which enters z1_closed and
        # H_d; each segment's step sample is overwritten by the next segment
        cols["z1_closed"], cols["H_d"] = np.empty((N, m)), np.empty(N)
        for k0, k1, g in segments:
            kappa = integrator_init(sys, g, X[k0, :n])[1]
            cols["z1_closed"][k0:k1 + 1] = closed_form_z1(sys, g, st, kappa)[k0:k1 + 1]
            cols["H_d"][k0:k1 + 1] = lyapunov_Hd_and_U(sys, g).H_d(st)[k0:k1 + 1]
        cols.update(
            u=u, tau=plant_input(sys, gains, u + d, st.q_a),
            y_u=out.y_u, y_a=out.y_a, y_d=out.y_d,
            U=lyapunov_Hd_and_U(sys, gains).U(st, z1),
            detK=np.linalg.det(wellposedness_matrix_K(sys, gains, st.q_u)))
    return cols


def _grid_index(t: float, dt: float, t_end: float, what: str) -> int:
    """Number ``k >= 1`` of steps ``dt`` that reach time ``t`` (to within
    ``1e-9 max(1, t_end)``), or :class:`ValueError` naming ``what``."""
    k = int(round(t / dt))
    if k < 1 or abs(k * dt - t) > 1e-9 * max(1.0, t_end):
        raise ValueError(f"{what} {t:g} is not a positive whole number of steps of dt={dt:g}")
    return k


def _check_run(n: int, q0, qd0, t_end: float, dt: float) -> tuple:
    """``(q0, qd0, n_steps)`` of a run, or :class:`ValueError` on invalid input."""
    q0, qd0 = (np.asarray(v, dtype=float).reshape(n) for v in (q0, qd0))
    if not (np.all(np.isfinite(q0)) and np.all(np.isfinite(qd0))):
        raise ValueError(f"q0 and qd0 must be finite, got {q0} and {qd0}")
    if not (np.isfinite(dt) and dt > 0.0 and np.isfinite(t_end)):
        raise ValueError(f"dt must be finite and positive and t_end finite, got {dt}, {t_end}")
    return q0, qd0, _grid_index(t_end, dt, t_end, "t_end")


def check_closed_loop(sys: MechanicalSystem, gains: Gains, q0, qd0, t_end: float, dt: float,
                      controller: str, setpoints: Sequence[SetpointStep]) -> tuple:
    """``(q0, qd0, segments)`` of a closed-loop run (``segments`` as in
    :class:`Trace`), or :class:`ValueError` unless ``controller`` is one of
    :data:`CONTROLLERS`, the run passes :func:`_check_run`, every setpoint time
    is finite and, up to ``t_end``, on the grid and every segment's target passes
    :func:`.check_target`.  Steps after ``t_end`` are dropped, steps on one
    sample act as one (the last one winning), and a step on the last sample
    starts no segment."""
    if controller not in CONTROLLERS:
        raise ValueError(f"controller must be one of {CONTROLLERS}, got {controller!r}; "
                         f"the PI law is K_D = 0")
    q0, qd0, n_steps = _check_run(sys.n, q0, qd0, t_end, dt)
    if not all(np.isfinite(sp.t) for sp in setpoints):
        raise ValueError(f"setpoint times must be finite, got {[sp.t for sp in setpoints]}")
    steps = {_grid_index(sp.t, dt, t_end, "setpoint time"): sp
             for sp in sorted(setpoints, key=lambda sp: sp.t) if sp.t <= t_end * (1 + 1e-12)}
    bounds = [0] + sorted(k for k in steps if k < n_steps) + [n_steps]
    segments, g = [], gains
    for k0, k1 in zip(bounds, bounds[1:]):
        if k0:
            g = g.with_target(q_u_star=steps[k0].q_u_star, q_a_star=steps[k0].q_a_star)
        check_target(sys, g)
        segments.append((k0, k1, g))
    return q0, qd0, segments


def simulate(sys: MechanicalSystem, gains: Gains, q0, qd0, t_end: float, dt: float,
             *, controller: str = "exact",
             disturbance: Optional[Callable[[float], Array]] = None,
             setpoints: Sequence[SetpointStep] = ()) -> Trace:
    """Integrate the closed loop and record a full diagnostic trace.

    ``controller`` selects the implicit law (``"exact"``), whose PI form is
    ``K_D = 0``, or the filtered approximation (``"approx"``).  The external
    signal ``disturbance`` is added to the controller output at the plant
    input junction; the controller never sees it.  It must be a function of
    time alone, since the ``d`` column evaluates it again at the sample times
    after the integration.  The integrator starts, and restarts at each
    setpoint step, where :func:`.integrator_init` makes the target an
    equilibrium of the loop.

    Raises :class:`ValueError` before the first step when the run breaks a
    rule of :func:`check_closed_loop`, which also splits it into setpoint
    segments, and :class:`SimulationAborted` (see :func:`_rk4`) when the exact
    law falls below :func:`.det_floor` or the state stops being finite; the
    message carries the time, and a singular one ``q_u``, ``|det K|`` and the floor.
    """
    s, m, n = sys.s, sys.m, sys.n
    q0, qd0, segments = check_closed_loop(sys, gains, q0, qd0, t_end, dt, controller, setpoints)

    use_z2 = controller == "approx"
    # the derivative filter starts on the current output to avoid a kick
    z2 = [passive_outputs(sys, State.from_vectors(q0, qd0, s), gains).y_d] if use_z2 else []
    x = np.concatenate([q0, qd0, np.zeros(m)] + z2)

    builder = _build_eval_generic if _scalar_forms(sys, gains.mode) is None \
        else _build_eval_scalar
    eval_rhs = builder(sys, gains, controller, disturbance, det_floor(gains))

    X = np.empty((segments[-1][1] + 1, x.size))
    X[0] = x
    for k0, k1, g in segments:
        X[k0, 2 * n: 2 * n + m] = integrator_init(sys, g, X[k0, :n])[0]
        _rk4(eval_rhs, X, k0, k1, dt)

    cols = _diagnose(sys, X, dt, controller, disturbance, segments)
    return Trace(**cols, dt=dt, controller=controller, system=sys, gains=gains,
                 segments=tuple(segments))


def simulate_open_loop(sys: MechanicalSystem, q0, qd0, t_end: float, dt: float) -> dict:
    """Integrate the raw plant under zero force.

    Returns time, positions, velocities and the total energy, which is
    conserved for the unforced plant and serves as the integrator audit.
    Raises :class:`SimulationAborted` and :class:`ValueError` as :func:`simulate`.
    """
    s, n = sys.s, sys.n
    q0, qd0, n_steps = _check_run(n, q0, qd0, t_end, dt)

    def rhs(t, x):
        if not all(map(math.isfinite, x)):  # State refuses a non-finite entry
            raise ArithmeticError
        xv = np.asarray(x)
        st = State.from_vectors(xv[:n], xv[n:], s)
        return np.concatenate([st.qd, forward_dynamics(sys, st, np.zeros(sys.m))]).tolist()

    X = np.empty((n_steps + 1, 2 * n))
    X[0, :n], X[0, n:] = q0, qd0
    _rk4(rhs, X, 0, n_steps, dt)
    q, qd = X[:, :n], X[:, n:]
    energy = 0.5 * _quad(qd, assemble_inertia(sys, q[:, :s])) \
        + sys.Vu(q[:, :s]) + sys.Va(q[:, s:])
    return {"t": np.arange(n_steps + 1) * dt, "q": q, "qd": qd, "energy": energy}


# ---------------------------------------------------------------------------
# Trajectory-level verifications
# ---------------------------------------------------------------------------

_PASSIVITY_PAIRS = {
    "u->y_u": ("H_u", "y_u", "u_total"),
    "u->y_a": ("H_a", "y_a", "u_total"),
    "tau->ybar_u": ("Hbar_u", "y_u", "tau"),
    "tau->ybar_a": ("Hbar_a", "y_a", "tau"),
}


def verify_passivity(trace: Trace, which: str = "u->y_u") -> float:
    """Worst relative mismatch between a storage rate and its supplied power.

    The storage derivative comes from central differences of the recorded
    column, the power from the recorded input and output; endpoints are
    excluded.  Disturbances count as part of the input, since they enter at
    the same junction.
    """
    if which not in _PASSIVITY_PAIRS:
        raise ValueError(f"unknown pair {which!r}; options: {sorted(_PASSIVITY_PAIRS)}")
    store_name, y_name, input_name = _PASSIVITY_PAIRS[which]
    store = getattr(trace, store_name)
    if store is None:
        raise ValueError(f"trace has no {store_name} column (affine potential data missing)")
    if input_name == "u_total":
        force = trace.u + trace.d
    else:
        force = trace.tau
    power = np.einsum("ij,ij->i", force, getattr(trace, y_name))
    dstore = np.gradient(store, trace.dt)
    mask = _interior_mask(trace)
    resid = np.abs(dstore[mask] - power[mask])
    denom = np.max(np.abs(power))
    if denom == 0.0:
        denom = 1.0
    return float(resid.max() / denom)


def _interior_mask(trace: Trace) -> np.ndarray:
    mask = np.ones(trace.n_samples, dtype=bool)
    mask[0] = mask[-1] = False
    for k, _, _ in trace.segments[1:]:
        mask[max(0, k - SWITCH_PAD): k + SWITCH_PAD + 1] = False
    return mask


def verify_lyapunov(trace: Trace) -> dict:
    """Check the dissipation identity of the shaped energy along the trace.

    The rate of the recorded Lyapunov column must equal minus the weighted
    square of the combined output, and the column must be non-increasing up
    to integration tolerance.  Samples adjacent to setpoint switches are
    skipped, since the integrator state jumps there.
    """
    diss = np.einsum("ij,jk,ik->i", trace.y_d, trace.gains.K_P, trace.y_d)
    dU = np.gradient(trace.U, trace.dt)
    mask = _interior_mask(trace)
    resid = np.abs(dU[mask] + diss[mask])
    denom = diss.max() if diss.max() > 0 else 1.0
    steps_ok = np.ones(trace.n_samples - 1, dtype=bool)
    for k, _, _ in trace.segments[1:]:
        steps_ok[max(0, k - 1): k + 1] = False
    dU_step = np.diff(trace.U)
    monotone = bool(np.all(dU_step[steps_ok] <= 1e-8 * trace.dt))
    return {
        "max_residual": float(resid.max() / denom),
        "monotone": monotone,
        "dissipation": diss,
    }


def verify_l2_gain(trace: Trace) -> dict:
    """Prefix-integral disturbance-gain check for sign-consistent gains.

    Computes running integrals of ``|y_d|^2`` and ``|d|^2 / lambda_min(K_P)``.
    The offset constant is estimated as the worst prefix gap over the leading
    ``L2_ESTIMATE_FRACTION`` of the trace and the inequality is then required at
    every sample, so the estimate genuinely predicts the tail rather than
    restating it.  With inconsistent gain signs the bound does not apply and
    the result says so.
    """
    gains = trace.gains
    if not gains.sign_consistent:
        return {"applicable": False}
    lam = float(np.linalg.eigvalsh(gains.K_P).min())
    yd2 = np.einsum("ij,ij->i", trace.y_d, trace.y_d)
    d2 = np.einsum("ij,ij->i", trace.d, trace.d)
    def running_trapezoid(y):  # integral from the first sample, 0 there
        return np.concatenate([[0.0], np.cumsum(trace.dt * (y[1:] + y[:-1]) / 2.0)])
    lhs, rhs = running_trapezoid(yd2), running_trapezoid(d2) / lam
    gap = lhs - rhs
    n_est = max(1, int(round(L2_ESTIMATE_FRACTION * trace.n_samples)))
    beta3 = float(gap[:n_est].max())
    slack = rhs + beta3 - lhs
    k_star = int(np.argmax(gap))
    tol = 1e-9 * max(1.0, abs(beta3), float(rhs[-1]))
    return {
        "applicable": True,
        "lhs": lhs, "rhs": rhs, "beta3": beta3, "slack": slack,
        "holds": bool(np.all(slack >= -tol)),
        "peak_time": float(trace.t[k_star]),
        "peak_fraction": k_star / (trace.n_samples - 1),
    }


def tail_residuals(trace: Trace) -> dict:
    """Invariance-principle residuals at the end of a converged run.

    On any trajectory that has settled, the combined output, the controller
    output, and the unactuated potential gradient must all have died out;
    their final magnitudes are what an invariance argument drives to zero.
    """
    grad = trace.system.gradVu(trace.q_u[-1])
    return {
        "y_d": float(np.abs(trace.y_d[-1]).max()),
        "u": float(np.abs(trace.u[-1]).max()),
        "gradVu": float(np.abs(grad).max()),
    }


def detect_convergence(trace: Trace, q_star, tol_q: float, tol_v: float,
                       window: float) -> dict:
    """Settling detector: position within ``tol_q`` (per coordinate) and
    velocity norm within ``tol_v`` over the trailing ``window`` seconds."""
    q_star = np.asarray(q_star, dtype=float).reshape(-1)
    q = np.hstack([trace.q_u, trace.q_a])
    qd = np.hstack([trace.qd_u, trace.qd_a])
    q_err = np.max(np.abs(q - q_star), axis=1)
    v = np.linalg.norm(qd, axis=1)
    ok = (q_err <= tol_q) & (v <= tol_v)
    n_window = int(round(window / trace.dt))
    tail = ok[-(n_window + 1):] if n_window > 0 else ok[-1:]
    converged = bool(np.all(tail))
    if not np.all(ok):
        last_bad = int(np.max(np.nonzero(~ok)[0]))
        settle = float(trace.t[last_bad + 1]) if last_bad + 1 < trace.n_samples else float("inf")
    else:
        settle = 0.0
    return {"converged": converged, "settle_time": settle}


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

# (Trace field, CSV stem) in column order: a 2-D field numbers its stem per
# entry, a 1-D field keeps it, and a field the run did not record is left out
_CSV_COLUMNS = (("t", "t"), ("q_u", "q_u"), ("q_a", "q_a"), ("qd_u", "qd_u"), ("qd_a", "qd_a"),
                ("z1", "z1_"), ("u", "u"), ("y_u", "y_u"), ("y_a", "y_a"), ("y_d", "y_d"),
                ("H_u", "H_u"), ("H_a", "H_a"), ("H_d", "H_d"), ("U", "U"), ("detK", "detK"),
                ("d", "d"), ("tau", "tau"), ("z1_closed", "z1_closed_"), ("H", "H"),
                ("z2", "z2_"), ("Hbar_u", "Hbar_u"), ("Hbar_a", "Hbar_a"))


def _column_layout(trace: Trace) -> list:
    layout = []
    for field, stem in _CSV_COLUMNS:
        col = getattr(trace, field)
        if col is not None and col.ndim == 1:
            layout.append((stem, col))
        elif col is not None:
            layout.extend((f"{stem}{j}", c) for j, c in enumerate(col.T))
    return layout


def write_trace_csv(trace: Trace, path) -> None:
    """Write the trace with a single header row and 17 significant digits."""
    layout = _column_layout(trace)
    data = np.column_stack([col for _, col in layout])
    row_fmt = ",".join(["%.17g"] * data.shape[1]) + "\n"
    # the bytes of np.savetxt, formatted by one % operation per block of
    # rows; the block's temporary floats and strings add to peak memory, by
    # 2.5 MB at 1024 rows of a 35-column trace and by nothing seen at 128
    with open(path, "w") as fh:
        fh.write(",".join(name for name, _ in layout) + "\n")
        for i in range(0, len(data), 128):
            block = data[i:i + 128]
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def write_column_map(trace: Trace, path) -> None:
    """gnuplot-style column map: 1-based column index and name per line."""
    layout = _column_layout(trace)
    with open(path, "w") as fh:
        for i, (name, _) in enumerate(layout, start=1):
            fh.write(f"{i} {name}\n")


def read_trace_csv(path) -> dict:
    """Read a trace CSV back into a dict of named column arrays."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}
