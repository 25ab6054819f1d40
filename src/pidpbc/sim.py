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
route to the integrated law.

Every plant runs one generated evaluation (:func:`_kernel_code`): for each
structure ``(s, m, law, mode)`` one straight-line function on local floats,
every index resolved and the plant's and gains' numbers bound as its
globals, so plants and gains of one structure share one code object,
compiled on first use.  It reads each callback once by the rules of
:mod:`.mechanics`; an ``s = m = 1`` plant whose callbacks carry their float
forms gets the variant that calls those on floats and builds no array.  It
solves ``M`` by an unpivoted ``L D L'``, ``M`` being positive definite: a
zero pivot is a :class:`ZeroDivisionError`, which :func:`_rk4` aborts on.
At ``m = 1``, ``K`` is its own determinant and divides; beyond, ``K`` goes
to the float64 gufuncs behind ``np.linalg`` (``det``, ``solve1``) without
its wrapper, where a singular ``K`` is NaN.  The same source holds the
whole RK4 step on local floats, bitwise the stage loop of :func:`_rk4`.  The
open-loop energy audit :func:`simulate_open_loop` (at ``u = 0``) integrates
the kernel's plant response alone (:func:`_plant_response`), which refuses
a pivot that is not positive.  The tests pin the response to
``forward_dynamics``, the evaluation to the reference functions, and the
float reads to the array reads, at random states and over whole runs.
The step's first stages and a run's last state copy its reads of callbacks
without a batch form into per-sample rows, which the diagnostics pass
reuses (a callback is a function of its point alone, see :mod:`.mechanics`);
it evaluates every other callback over all samples at once, through its
batch form when it has one.

:func:`write_trace` writes the run's record, numpy's ``.npy`` format with
one named float64 field per column, which :func:`read_trace` gives back
bitwise; :func:`write_trace_csv` exports the same columns serially with the
bytes of ``np.savetxt`` at 17 significant digits.  A failed write of either
leaves no partial trace.
"""

from __future__ import annotations

import functools
import itertools
import linecache
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.linalg import _umath_linalg as _lapack

from .mechanics import (Array, DynamicsError, MechanicalSystem, SingularInertiaError, State,
                        _finite, _jacobian, _read, _reuse, shared_samples)
from .controller import (ControllerState, Gains, WellPosednessError, approx_control,
                         check_target, closed_form_z1, det_floor, exact_control,
                         integrator_init, plant_input, wellposedness_matrix_K)
from .passivity import passive_outputs, robust_storage, storage_functions
from .analysis import lyapunov_Hd_and_U

CONTROLLERS = ("exact", "approx")  # the PI law is "exact" at K_D = 0
SWITCH_PAD = 2  # samples on each side of a setpoint switch the rate checks skip
L2_ESTIMATE_FRACTION = 0.5  # leading share of the trace that sets the L2 offset
CSV_BLOCK_ROWS = 128  # rows per % operation of the CSV writer


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


def _read_specs(s: int, m: int) -> tuple:
    """``(stem, callback name, shape)`` of each read of a generic evaluation at
    ``q_u``, in the order a kernel stores them."""
    return (("U", "muu_fn", (s, s)), ("A", "mau_fn", (m, s)), ("dU", "muu_jac", (s, s, s)),
            ("dA", "mau_jac", (m, s, s)), ("gu", "gradVu_fn", (s,)))


def _float_reads(sys: MechanicalSystem, mode: str) -> bool:
    """Whether the plant has ``s = m = 1`` and each callback a kernel calls
    carries its float form (see :mod:`.mechanics`): those of
    :func:`_read_specs` and, in ``robust_A8`` mode, ``gradVa_fn``."""
    names = [fn for _, fn, _ in _read_specs(1, 1)] + ["gradVa_fn"] * (mode == "robust_A8")
    return sys.s == sys.m == 1 and all(getattr(getattr(sys, name), "float_form", None)
                                       for name in names)


def _sum(pairs) -> Optional[str]:
    """``a * b + ...`` over name pairs, a structural zero (``None``) left out
    and a structural one (``"1"``) never multiplied; ``None`` if no term is left."""
    terms = [b if a == "1" else a if b == "1" else f"{a} * {b}"
             for a, b in pairs if a is not None and b is not None]
    return " + ".join(terms) or None


def _target(stem: str, shape: tuple) -> str:
    """Nested assignment target ``((stem_0_0, ...), ...)`` of a ``tolist()``."""
    if not shape:
        return stem
    return "(" + "".join(_target(f"{stem}_{i}", shape[1:]) + ", " for i in range(shape[0])) + ")"


@functools.cache
def _kernel_code(s: int, m: int, law: str, mode: str, floats: bool) -> tuple:
    """``(code, linecache entry)`` of the generated evaluation of one
    structure, compiled on first use: straight-line code on local floats,
    every index resolved, plant and gain numbers only as names that
    :func:`_bind` binds.  ``law`` is ``"exact"``, ``"approx"`` or
    ``"response"`` (the plant response of :func:`_plant_response` alone); the
    drift keeps ``-grad V_a`` in ``mode`` ``robust_A8``.  With ``floats``
    (``s = m = 1``, see :func:`_float_reads`) each callback is its float form
    at the float ``q0``, and ``q_u`` becomes an array only where it is raised.
    A closed loop's source defines ``field``, which takes the state entries
    and returns the derivatives of all but the positions, ``kernel(t, x)``
    over a state list, and ``rk4_step`` (see :func:`_step_lines`)."""
    n, closed, robust = s + m, law != "response", mode == "robust_A8"
    q, v, z, w = ([f"{c}{i}" for i in range(k)] for c, k in zip("qvzw", (n, n, m, m)))
    reads, rows, X = _read_specs(s, m), range(n), [[None] * (1 + m) for _ in range(n)]
    state = q + v + (z + (w if law == "approx" else []) if closed else [])
    lines = ["def kernel(t, x, sample=True):", f"    {', '.join(state)}, = x",
             f"    return [{', '.join(v)}, *field(t, {', '.join(state)}, sample)]", "",
             f"def field(t, {', '.join(state)}, sample):"] if closed else ["def kernel(x):"]

    def emit(*code):
        lines.extend("    " + line for line in code)

    def vector(names):
        return f"array(({''.join(a + ', ' for a in names)}))"

    if not closed:
        emit(f"{', '.join(state)}, = x[:{2 * n}]")
    emit(f"if not ({' and '.join(f'isfinite({a})' for a in q)}):",  # callbacks see finite q
         "    raise ArithmeticError")
    if floats:
        qu, values = vector(q[:1]), [stem + "_0" * len(shape) for stem, _, shape in reads]
        emit(*(f"{name} = {fn}(q0)" for name, (_, fn, _) in zip(values, reads)),
             *(["ga_0 = gradVa_fn(q1)"] if robust else []))
    else:
        qu, values = "qu", [f"r{i}" for i in range(len(reads))]
        emit(f"qu = {vector(q[:s])}",
             *(f"r{i} = read({fn}(qu), {shape})" for i, (_, fn, shape) in enumerate(reads)))
    if closed:
        emit("if sample and kept:", f"    store(t, ({', '.join(values)}))")
    if not floats:
        emit(*(f"{_target(stem, shape)} = r{i}.tolist()"
               for i, (stem, _, shape) in enumerate(reads)))
        if robust:
            emit(f"{_target('ga', (m,))} = read(gradVa_fn({vector(q[s:])}), ({m},)).tolist()")
    # the Coriolis force Mdot qd - 1/2 d(qd' M qd)/dq: h = dM_uu qd_u, g and e
    # the two contractions of dM_au with qd_u, act the actuated rows of Mdot qd
    for i, k in itertools.product(range(s), range(s)):
        emit(f"h_{i}_{k} = {_sum((f'dU_{i}_{j}_{k}', v[j]) for j in range(s))}")
    for a, k in itertools.product(range(m), range(s)):
        emit(f"g_{a}_{k} = {_sum((f'dA_{a}_{j}_{k}', v[j]) for j in range(s))}",
             f"e_{a}_{k} = {_sum((f'dA_{a}_{k}_{j}', v[j]) for j in range(s))}")
    for a in range(m):
        emit(f"act{a} = {_sum((f'g_{a}_{k}', v[k]) for k in range(s))}",
             f"f{s + a} = -act{a}" + (f" - ga_{a}" if robust else ""))
    for k in range(s):
        emit(f"f{k} = ({_sum((v[i], f'h_{i}_{k}') for i in range(s))}) / 2 - "
             f"({_sum((f'h_{k}_{j}', v[j]) for j in range(s))}) + "
             f"{_sum((f'(g_{a}_{k} - e_{a}_{k})', v[s + a]) for a in range(m))} - gu_{k}")

    def entry(i, j):  # M, with its constant m_aa block
        if max(i, j) < s:
            return f"U_{i}_{j}"
        return f"maa_{i - s}_{j - s}" if min(i, j) >= s else f"A_{max(i, j) - s}_{min(i, j)}"

    def combine(name, base, pairs):  # name = base - sum; a structural value stays one
        terms = _sum(pairs)
        if terms:
            emit(f"{name} = {base} - ({terms})" if base else f"{name} = -({terms})")
        return name if terms else base

    # M = L D L' unpivoted, M being positive definite, with W = L D; the test
    # a Cholesky factorisation makes of M is the one of the pivots d
    for j in rows:
        emit(f"d{j} = {entry(j, j)}" + "".join(f" - W_{j}_{k} * L_{j}_{k}" for k in range(j)))
        if not closed:
            emit(f"if not 0 < d{j} < inf:", f"    raise SingularInertiaError({qu})")
        for i in range(j + 1, n):
            emit(f"W_{i}_{j} = {entry(i, j)}" + "".join(f" - W_{i}_{k} * L_{j}_{k}"
                                                          for k in range(j)),
                 f"L_{i}_{j} = W_{i}_{j} / d{j}")
    # M X = [f | 0; I]: X's column 0 is the drift qdd0, the others G
    for c in range(1 + m):
        y = []
        for i in rows:
            b = f"f{i}" if c == 0 else "1" if i == s + c - 1 else None
            y.append(combine(f"p{c}_{i}", b, [(f"L_{i}_{k}", y[k]) for k in range(i)]))
        for i in reversed(rows):
            if y[i]:
                emit(f"X_{i}_{c} = {y[i]} / d{i}")
            X[i][c] = combine(f"X_{i}_{c}", y[i] and f"X_{i}_{c}",
                              [(f"L_{k}_{i}", X[k][c]) for k in range(i + 1, n)])
    if closed:
        _law_tail(emit, s, m, law, v, X, qu)
        lines += _step_lines(state, n)
    else:
        emit(f"return [{', '.join(sum(X, []))}]")
    source = "\n".join(lines) + "\n"
    name = f"<pidpbc kernel s={s} m={m} {law} {mode}{' float reads' if floats else ''}>"
    return compile(source, name, "exec"), (len(source), None, source.splitlines(True), name)


def _law_tail(emit: Callable, s: int, m: int, law: str, v: list, X: list, qu: str) -> None:
    """Emit the closed-loop law after the plant response ``X`` of
    :func:`_kernel_code`: ``u``, the disturbance and the returned field."""
    # y_d = L qd with L = [Lc m_au, k_a I], Lc = -c maa^{-1}
    for a in range(m):
        emit(*(f"Lm_{a}_{j} = {_sum((f'Lc_{a}_{b}', f'A_{b}_{j}') for b in range(m))}"
               for j in range(s)),
             f"y{a} = {_sum((f'Lm_{a}_{j}', v[j]) for j in range(s))} + ka * {v[s + a]}")

    def pid(a, last):  # row a of K_P y_d + K_I z1 + K_D last
        return " + ".join(_sum((f"{G}_{a}_{b}", f"{x}{b}") for b in range(m))
                          for G, x in (("KP", "y"), ("KI", "z"), ("KD", last)))

    if law == "exact":
        # the PID as written, with yd_dot = L qdd - c maa^{-1} act: the matrix on
        # u is K(q_u), the rest the derivative at u = 0, yd0 = L qdd0 + Lc act
        for a in range(m):
            emit(*(f"Ls_{a}_{c} = {_sum((f'Lm_{a}_{j}', X[j][c]) for j in range(s))}"
                   f" + ka * {X[s + a][c]}" for c in range(1 + m)),
                 f"yd{a} = Ls_{a}_0 + {_sum((f'Lc_{a}_{b}', f'act{b}') for b in range(m))}")
        K = [[("ke + " if a == b else "") + _sum((f"KD_{a}_{c}", f"Ls_{c}_{b + 1}")
                                                 for c in range(m)) for b in range(m)]
             for a in range(m)]
        # a NaN det K is left to the non-finite abort; at m = 1, K is its own
        # det, and an exact zero divides (a ZeroDivisionError, the same abort)
        floor = ("if abs(detK) < det_tol:",
                 f"    raise WellPosednessError({qu}, detK, det_tol, t)")
        if m == 1:
            emit(f"detK = {K[0][0]}", *floor, f"u_0 = -({pid(0, 'yd')}) / detK")
        else:
            rhs = "".join(f"-({pid(a, 'yd')}), " for a in range(m))
            emit(f"K = array(({''.join('(' + ', '.join(row) + ', ), ' for row in K)}))",
                 "detK = float(det(K))", *floor,
                 f"{_target('u', (m,))} = solve1(K, array(({rhs}))).tolist()")
    else:
        emit(*(f"zd{a} = fa * (y{a} - w{a})" for a in range(m)),
             *(f"u_{a} = -({pid(a, 'zd')}) / ke" for a in range(m)))
    # the disturbance enters at the plant input only; the law never sees it
    emit("if dist is not None:",
         f"    {_target('dd', (m,))} = read(dist(t), ({m},)).tolist()",
         *(f"    u_{a} = u_{a} + dd_{a}" for a in range(m)))
    qdd = (_sum([(X[i][0], "1")] + [(X[i][c + 1], f"u_{c}") for c in range(m)])
           for i in range(s + m))
    tail = [f"y{a}" for a in range(m)] + [f"zd{a}" for a in range(m) if law == "approx"]
    emit(f"return {', '.join([*qdd, *tail])},")


def _step_lines(state: list, n: int) -> list:
    """Source of ``rk4_step(dt)``, the whole RK4 step of ``field`` on the
    state names ``state``, whose first ``n`` are positions: :func:`_rk4_stages`
    over ``kernel`` written out per entry, each sum in its order, so the step
    is bitwise the stage loop (a position's derivative is its stage's
    velocity, which ``kernel`` returns as it is).  Only the first stage is a
    sample."""
    xs = [state] + [[f"{a}_{j}" for a in state] for j in (1, 2, 3)]
    ds = [x[n:2 * n] + [f"k{j}_{i}" for i in range(n, len(state))] for j, x in enumerate(xs)]
    lines = ["", "def rk4_step(dt):", "    half, sixth = dt / 2, dt / 6", "",
             "    def step(t, x):", f"        {', '.join(state)}, = x"]
    for j, (t, h) in enumerate((("t", None), ("t + half", "half"), ("t + half", "half"),
                                ("t + dt", "dt"))):
        if h:  # the stage state, a step h along the previous stage's derivative
            lines += [f"        {b} = {a} + {h} * {d}" for a, b, d in zip(state, xs[j], ds[j - 1])]
        lines.append(f"        {''.join(k + ', ' for k in ds[j][n:])}= field({t}, "
                     f"{', '.join(xs[j])}, {not h})")
    sums = (f"{a} + sixth * ({d0} + 2 * ({d1} + {d2}) + {d3})"
            for a, d0, d1, d2, d3 in zip(state, *ds))
    return lines + [f"        return [{', '.join(sums)}]", "", "    return step"]


def _bind(sys: MechanicalSystem, law: str, mode: str, **names) -> dict:
    """The namespace of a new instance of :func:`_kernel_code`'s source for
    ``sys``, holding ``kernel`` (and ``rk4_step``), whose globals bind its
    callbacks (their float forms where :func:`_float_reads` holds; an inertia
    block without a Jacobian by the rule of :func:`.mechanics._jacobian`), the
    entries of ``m_aa`` and ``names``."""
    s, m, floats = sys.s, sys.m, _float_reads(sys, mode)
    code, entry = _kernel_code(s, m, law, mode, floats)
    linecache.cache[entry[3]] = entry  # a traceback shows the generated line
    fns = dict(muu_fn=sys.muu_fn, mau_fn=sys.mau_fn, gradVu_fn=sys.gradVu_fn,
               gradVa_fn=sys.gradVa_fn, muu_jac=_jacobian(sys.muu_fn, sys.muu_jac, (s, s)),
               mau_jac=_jacobian(sys.mau_fn, sys.mau_jac, (m, s)))
    if floats:
        fns = {name: getattr(fn, "float_form", None) for name, fn in fns.items()}
    env = dict(names, **fns, **_entries("maa", sys.maa), array=np.array, read=_read,
               isfinite=math.isfinite, inf=math.inf, det=_lapack.det, solve1=_lapack.solve1,
               WellPosednessError=WellPosednessError, SingularInertiaError=SingularInertiaError)
    exec(code, env)
    return env


def _entries(stem: str, mat: Array) -> dict:
    """``{stem_i_j: float}`` of the matrix ``mat``, as a kernel names its entries."""
    return {f"{stem}_{i}_{j}": float(x) for (i, j), x in np.ndenumerate(mat)}


def _plant_response(sys: MechanicalSystem, drift_Va: bool) -> Callable:
    """The plant response ``qdd = qdd0 + G (u + d)``, any ``s`` and ``m``:
    ``response(x)`` on a state list starting with ``(q, qd)`` returns the
    ``n x (1 + m)`` solution of ``M(q_u)`` as a flat row-major list, the drift
    ``qdd0`` (with ``-grad V_a`` when ``drift_Va``) in column 0 and ``G = M^{-1}
    [0; I]`` in the rest.  It raises :class:`ArithmeticError` on a non-finite
    position before any callback and :class:`.SingularInertiaError` where a
    pivot of ``M = L D L'`` is not positive and finite.  These are the lines
    of the generic closed loop (see :func:`_kernel_code`)."""
    return _bind(sys, "response", "robust_A8" if drift_Va else "cancel_Va")["kernel"]


def _build_eval_generic(sys: MechanicalSystem, gains: Gains, controller: str,
                        disturbance, det_tol: float):
    """The closed-loop evaluation of every plant: the kernel of
    :func:`_kernel_code` for ``(s, m, controller, gains.mode)`` bound to this
    plant, these gains, ``disturbance`` and ``det_tol``; one closure serves
    one run at a time.  It carries ``rk4_step(dt)``, the whole RK4 step of
    :func:`_rk4`, and ``record(n_samples, dt)``, which returns ``(callback,
    rows)`` pairs, one array of ``n_samples`` rows per callback of
    :func:`_read_specs` without a batch form; from then on each call
    ``sample`` copies its reads into row ``t / dt``: the first stage of each
    step and the last state of a run."""
    reads = [(getattr(sys, fn), shape) for _, fn, shape in _read_specs(sys.s, sys.m)]
    kept, sample_dt = [], 0.0  # (index in reads, rows) while a run records

    def record(n_samples: int, dt: float) -> list:
        nonlocal sample_dt
        # a batch form costs the diagnostics pass less than the copy per sample
        kept[:], sample_dt = [(i, np.empty((n_samples,) + shape))
                              for i, (fn, shape) in enumerate(reads)
                              if fn is not None and getattr(fn, "batch_form", None) is None], dt
        return [(reads[i][0], rows) for i, rows in kept]

    def store(t: float, values: tuple) -> None:
        for i, rows in kept:
            rows[round(t / sample_dt)] = values[i]

    env = _bind(sys, controller, gains.mode, kept=kept, store=store, dist=disturbance,
                det_tol=det_tol, ke=float(gains.k_e), ka=float(gains.k_a),
                fa=float(gains.filter_a), **_entries("KP", gains.K_P),
                **_entries("KI", gains.K_I), **_entries("KD", gains.K_D),
                **_entries("Lc", -(gains.k_u - gains.k_a) * sys.maa_inv))
    eval_rhs = env["kernel"]
    eval_rhs.rk4_step, eval_rhs.record = env["rk4_step"], record
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

    The state is a list of Python floats.  A step is ``rhs.rk4_step(dt)`` when
    ``rhs`` carries one (the generated closed-loop step), else the stage loop
    :func:`_rk4_stages` (the open-loop audit), bitwise alike.  The run holds
    one error state, in which every floating-point error is silent, so that a
    singular solve is NaN and divergence is caught by the explicit finiteness
    checks.  Every early stop is the :class:`SimulationAborted` raised here: a
    new state or the last state's derivative is not finite, or ``rhs`` raises
    :class:`.WellPosednessError`, :class:`.SingularInertiaError` or
    :class:`ArithmeticError` (a zero divisor, or a non-finite stage state,
    which no plant callback sees).
    """
    make_step = getattr(rhs, "rk4_step", None)
    step = make_step(dt) if make_step else _rk4_stages(rhs, dt)
    x = X[k0].tolist()
    with np.errstate(all="ignore"):
        try:
            for k in range(k0, k1):
                t = k * dt
                x = step(t, x)
                X[k + 1] = x
                if not all(map(math.isfinite, x)):
                    raise ArithmeticError
            if not all(map(math.isfinite, rhs(k1 * dt, x))):
                raise ArithmeticError
        except (WellPosednessError, SingularInertiaError) as exc:
            raise SimulationAborted(str(exc)) from exc
        except ArithmeticError:
            raise SimulationAborted(f"state became non-finite at t={t + dt:.6g}s") from None


def _diagnose(sys: MechanicalSystem, X: Array, dt: float, controller: str, disturbance,
              segments: list, reads: Sequence = ()) -> dict:
    """Every trace column from the integrated states, in one pass over all
    samples through the reference functions; ``segments`` as in :class:`Trace`,
    and ``reads`` ``(callback, values at each sample's q_u)`` pairs to reuse."""
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
        for fn, values in reads:  # stored as if the pass had called fn over st.q_u
            _reuse(fn, st.q_u, lambda values=values: values)
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
    q0, qd0 = (_finite(v, name).reshape(n) for v, name in ((q0, "q0"), (qd0, "qd0")))
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

    eval_rhs = _build_eval_generic(sys, gains, controller, disturbance, det_floor(gains))

    X = np.empty((segments[-1][1] + 1, x.size))
    X[0] = x
    reads = eval_rhs.record(len(X), dt) if hasattr(eval_rhs, "record") else ()
    for k0, k1, g in segments:
        X[k0, 2 * n: 2 * n + m] = integrator_init(sys, g, X[k0, :n])[0]
        _rk4(eval_rhs, X, k0, k1, dt)

    cols = _diagnose(sys, X, dt, controller, disturbance, segments, reads)
    return Trace(**cols, dt=dt, controller=controller, system=sys, gains=gains,
                 segments=tuple(segments))


def simulate_open_loop(sys: MechanicalSystem, q0, qd0, t_end: float, dt: float) -> dict:
    """Integrate the raw plant under zero force: the drift, with ``-grad
    V_a``, of the :func:`_plant_response` that the generic closed loop runs.

    Returns time, positions, velocities and the total energy, which is
    conserved for the unforced plant and serves as the integrator audit.
    Raises as :func:`simulate`, and ends in :class:`SimulationAborted` too
    where the inertia is not positive definite (a pivot of its ``L D L'``
    factors is not positive and finite).
    """
    s, n = sys.s, sys.n
    q0, qd0, n_steps = _check_run(n, q0, qd0, t_end, dt)
    response, width = _plant_response(sys, drift_Va=True), 1 + sys.m

    def rhs(t, x):
        try:
            return x[n:] + response(x)[::width]
        except SingularInertiaError as exc:
            raise SingularInertiaError(exc.q_u, f"t={t:.6g}s") from None

    X = np.empty((n_steps + 1, 2 * n))
    X[0, :n], X[0, n:] = q0, qd0
    _rk4(rhs, X, 0, n_steps, dt)
    q, qd = X[:, :n], X[:, n:]
    energy = storage_functions(sys, State.from_vectors(q, qd, s))[2] + sys.Va(q[:, s:])
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
# Trace serialization
# ---------------------------------------------------------------------------

# (Trace field, column stem) in column order: a 2-D field numbers its stem per
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


def _write_rows(fh, data: Array, row_fmt: str) -> None:
    """The rows of ``data`` as ``np.savetxt`` writes them, one ``%`` operation
    per block of ``CSV_BLOCK_ROWS``; a block's temporary floats and strings
    add to peak memory, by 2.5 MB at 1024 rows of a 35-column trace and by
    nothing seen at 128."""
    for i in range(0, len(data), CSV_BLOCK_ROWS):
        block = data[i:i + CSV_BLOCK_ROWS]
        fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def _write_whole(path, mode: str, write: Callable) -> None:
    """``write(fh)`` into ``path`` opened with ``mode``.  An unwritable path
    fails at the open and is left as it was; any later failure removes
    ``path`` before it propagates, so a failed write leaves no partial file."""
    fh = open(path, mode)
    try:
        with fh:
            write(fh)
    except BaseException:
        os.remove(path)
        raise


def write_trace(trace: Trace, path) -> None:
    """Write the trace as the run's record: numpy's ``.npy`` format holding a
    structured array with one ``<f8`` field per column, named and ordered as
    the CSV header, so the file describes itself.  :func:`read_trace` gives
    the columns back bitwise."""
    layout = _column_layout(trace)
    record = np.empty(trace.n_samples, dtype=[(name, "<f8") for name, _ in layout])
    for name, col in layout:
        record[name] = col
    _write_whole(path, "wb", lambda fh: np.save(fh, record, allow_pickle=False))


def read_trace(path) -> dict:
    """Read a :func:`write_trace` record into a dict of named column arrays,
    as :func:`read_trace_csv` does; nothing in the file is unpickled.  A file
    that is not a one-dimensional float64 record array is a ValueError naming
    ``path``."""
    try:
        record = np.load(path, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise ValueError(f"{path}: not a trace record: {exc}") from exc
    names = getattr(getattr(record, "dtype", None), "names", None)  # a .npz has no dtype
    if not (names and record.ndim == 1
            and all(record.dtype[name] == np.dtype("<f8") for name in names)):
        raise ValueError(f"{path}: not a trace record: need a 1-D array of <f8 fields")
    return {name: record[name] for name in names}


def write_trace_csv(trace: Trace, path) -> None:
    """Write the trace with a single header row and 17 significant digits,
    the bytes of ``np.savetxt``; a failed write leaves no partial file."""
    layout = _column_layout(trace)
    data = np.column_stack([col for _, col in layout])
    row_fmt = ",".join(["%.17g"] * data.shape[1]) + "\n"

    def write(fh):
        fh.write(",".join(name for name, _ in layout) + "\n")
        _write_rows(fh, data, row_fmt)

    _write_whole(path, "w", write)


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
