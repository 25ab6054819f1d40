"""Closed-loop simulation harness and trajectory-level verifications.

:func:`simulate` integrates only the state ``(q, qd, z1[, z2])`` with
fixed-step classical RK4, then builds every other trace column in one pass
over all samples: the law's ``u`` and ``detK`` through the integrated law's
own lines, every other one through the public functions of
:mod:`.passivity`, :mod:`.controller` and :mod:`.analysis`, the same ones the
checks use.  Every verification (storage rates, dissipation, disturbance
gain, convergence) can be recomputed from the recorded trace alone.

The right-hand side integrates the PID as written.  One solve with ``M(q_u)``
gives the plant response ``qdd = qdd0 + G (u + d)``, a drift plus the input
map ``G = M^{-1} [0; I]``; the disturbance enters only there, unseen by the
law.  With ``y_d = L qd``, ``yd_dot = L qdd - (k_u - k_a) maa^{-1} m_au_dot
qd_u``, so the law becomes ``(k_e I + K_D L G) u = -K_P y_d - K_I z1 - K_D
yd_dot|_{u=0}``, whose matrix is the well-posedness matrix ``K(q_u)``.  The
closed forms of ``K`` and of the feedforward ``S`` live only in
:mod:`.controller`, for the checks.

Every plant runs one generated evaluation (:func:`_kernel_code`): for each
structure ``(s, m, law, mode)`` one straight-line function on local floats,
the plant's and gains' numbers bound as its globals, compiled on first use.
It reads each callback once, in one line, through its float form (see
:mod:`.mechanics`): inlined as the formula the form records on traced floats
(:func:`_inline`), or called where the recorder cannot follow it, through an
adapter (:func:`_adapter`) for a callback without one.  It solves ``M`` by
an unpivoted ``L D L'`` (a zero pivot is a :class:`ZeroDivisionError`, which
:func:`_rk4` aborts on) and ``K`` by Cramer's rule on named minors for every
``m``, which divides only by ``det K`` (see :func:`_law_tail`).
The same source holds the RK4 loop over a setpoint segment
(:func:`_loop_lines`), bitwise the classical stage loop.  The step's first
stages copy their reads into per-sample rows, which the diagnostics pass
reuses for each callback without a batch form; it evaluates every other one
over all samples through its batch form, and takes the ``u`` and ``detK``
columns from the evaluation's own lines bound to those columns.

:func:`write_trace` writes the run's record, numpy's ``.npy`` format with
one named float64 field per column, which :func:`read_trace` gives back
bitwise; :func:`write_trace_csv` exports the same columns serially with the
bytes of ``np.savetxt`` at 17 significant digits.  A failed write of either
leaves no partial trace.
"""

from __future__ import annotations

import ast
import collections
import functools
import inspect
import itertools
import linecache
import math
import operator
import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .mechanics import (Array, DynamicsError, MechanicalSystem, SingularInertiaError, State,
                        _finite, _jacobian, _per_point, _read, _reuse, shared_samples)
from .controller import (Gains, WellPosednessError, check_target, closed_form_z1, det_floor,
                         integrator_init, plant_input)
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


def _read_specs(s: int, m: int, mode: str = "cancel_Va") -> tuple:
    """``(stem, callback name, shape)`` of each read of a generic evaluation,
    those at ``q_u`` in the order a kernel stores them (``ga``, at ``q_a``, never)."""
    return (("U", "muu_fn", (s, s)), ("A", "mau_fn", (m, s)), ("dU", "muu_jac", (s, s, s)),
            ("dA", "mau_jac", (m, s, s)), ("gu", "gradVu_fn", (s,))) \
        + (("ga", "gradVa_fn", (m,)),) * (mode == "robust_A8")


def _callbacks(sys: MechanicalSystem) -> dict:
    """Each callback of :func:`_read_specs` by name (see :func:`.mechanics._jacobian`)."""
    return dict(muu_fn=sys.muu_fn, mau_fn=sys.mau_fn, gradVu_fn=sys.gradVu_fn,
                gradVa_fn=sys.gradVa_fn, muu_jac=_jacobian(sys.muu_fn, sys.muu_jac, (sys.s,) * 2),
                mau_jac=_jacobian(sys.mau_fn, sys.mau_jac, (sys.m, sys.s)))


def _names(stem: str, shape: tuple) -> list:
    """``[stem_0_0, ...]``, the names of a block's entries in row-major order."""
    return [stem + "".join(f"_{i}" for i in index) for index in np.ndindex(shape)]


def _sum(pairs) -> Optional[str]:
    """``a * b + ...`` over name pairs, a structural zero (``None``) left out
    and a structural one (``"1"``) never multiplied; ``None`` if no term is left."""
    terms = [b if a == "1" else a if b == "1" else f"{a} * {b}"
             for a, b in pairs if a is not None and b is not None]
    return " + ".join(terms) or None


def _signed(terms) -> Optional[str]:
    """``a - b + ...`` over ``(sign, expression)`` pairs, a structural zero
    (a false expression) left out; ``None`` if no term is left."""
    text = " ".join(f"{sign} {x}" for sign, x in terms if x)
    return (text[2:] if text[0] == "+" else "-" + text[2:]) if text else None


def _target(stem: str, shape: tuple) -> str:
    """Nested assignment target ``((stem_0_0, ...), ...)`` of nested sequences."""
    if not shape:
        return stem
    return "(" + "".join(_target(f"{stem}_{i}", shape[1:]) + ", " for i in range(shape[0])) + ")"


def _entries_of(value, shape: tuple) -> list:
    """The entries of a float form's ``value``, nested tuples (or lists) of
    ``shape``, in row-major order; :class:`ValueError` on any other nesting."""
    if not shape:
        return [value]
    if not isinstance(value, (tuple, list)) or len(value) != shape[0]:
        raise ValueError(f"a float form's result is not nested as {shape}")
    return [entry for row in value for entry in _entries_of(row, shape[1:])]


class _Traced:
    """A float that a float form computes on while a :class:`_Tape` records:
    the arithmetic operators and unary minus record a line.  Whatever looks at
    its value (truth, a comparison, ``float``, ``__index__``, a hash) spoils
    the recording and raises, and a numpy ufunc refuses it."""

    __slots__ = ("tape", "name")
    __array_ufunc__ = None

    def __init__(self, tape: "_Tape", name: str):
        self.tape, self.name = tape, name

    def _look(self, *args):
        self.tape.spoiled = True
        raise TypeError("a traced float form looked at its argument's value")

    __bool__ = __float__ = __index__ = __hash__ = _look
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _look

    def _binary(symbol, fn):
        template = f"{{0}} {symbol} {{1}}"
        return (lambda a, b: a.tape.record(template, fn, a, b),
                lambda a, b: a.tape.record(template, fn, b, a))

    __add__, __radd__ = _binary("+", operator.add)
    __sub__, __rsub__ = _binary("-", operator.sub)
    __mul__, __rmul__ = _binary("*", operator.mul)
    __truediv__, __rtruediv__ = _binary("/", operator.truediv)
    __pow__, __rpow__ = _binary("**", operator.pow)
    del _binary

    def __neg__(self):
        return self.tape.record("-{0}", operator.neg, self)


class _Lib:
    """The recording ``lib`` of a :class:`_Tape`: a :mod:`math` function
    records a call where an argument is traced and runs on constants alone."""

    __slots__ = ("_tape",)

    def __init__(self, tape: "_Tape"):
        self._tape = tape

    def __getattr__(self, name: str):
        fn = getattr(math, name)
        if not callable(fn):
            return fn

        def call(*args):
            if not any(isinstance(a, _Traced) for a in args):
                return fn(*args)
            slots = ", ".join(f"{{{i}}}" for i in range(len(args)))
            return self._tape.record(f"math_{name}({slots})", fn, *args)

        return call


class _Tape:
    """The straight-line source of float forms called on :class:`_Traced`
    arguments: each distinct operation on the same operands is one line; a
    constant operand is a name bound to the object itself, and ``lib.<fn>``
    of the recording :class:`_Lib` records a call of that :mod:`math` function."""

    def __init__(self):
        self.ops, self.memo, self.consts, self.spoiled = [], {}, {}, False

    def operand(self, value) -> _Traced:
        if isinstance(value, _Traced) and value.tape is self:
            return value
        if not isinstance(value, (int, float)):
            raise TypeError(f"a traced float form computed on {type(value).__name__}")
        # an id outlives no constant: the tape holds each one
        return self.consts.setdefault(id(value), (_Traced(self, f"c{len(self.consts)}"), value))[0]

    def record(self, template: str, fn: Callable, *operands) -> _Traced:
        refs = tuple(map(self.operand, operands))
        key = (template, tuple(ref.name for ref in refs))
        if key not in self.memo:
            self.memo[key] = _Traced(self, f"o{len(self.ops)}")
            self.ops.append((self.memo[key], fn, template, refs, key))
        return self.memo[key]

    def rollback(self, n_ops: int, n_consts: int) -> None:
        for op in self.ops[n_ops:]:
            del self.memo[op[4]]
        del self.ops[n_ops:]
        for key in list(self.consts)[n_consts:]:
            del self.consts[key]

    def replay(self, args: dict) -> dict:
        """Every recorded value with the arguments ``{name: float}``."""
        values = dict(args, **{ref.name: value for ref, value in self.consts.values()})
        for out, fn, _, refs, _ in self.ops:
            values[out.name] = fn(*(values[ref.name] for ref in refs))
        return values


def _inline(reads: list, at: dict) -> tuple:
    """``((lines, zeros), names)`` of the reads ``(stem, global name, float
    form, argument names, shape)`` of a kernel: each form called once on
    :class:`_Traced` arguments (and the recording ``lib`` where it takes one)
    becomes the recorded lines that assign its entries' names
    (:func:`_names`), or no line for a constant entry, which ``names`` binds
    to its name (a structural zero, in ``zeros``, where it is ``+0.0``).  A
    form that is ``None`` (an adapter), whose recording is spoiled, whose
    result is not floats nested as ``shape``, or one of whose entries the
    lines do not give bitwise with the arguments ``at`` is called, as
    ``target = name(arguments)``, and its recording leaves no line.
    ``names`` binds the constants and the ``math`` functions too."""
    tape, items, zeros, names = _Tape(), [], set(), {}
    for stem, name, form, args, shape in reads:
        mark = len(tape.ops), len(tape.consts)
        try:  # a form without an inspectable signature is called
            if form is None:
                raise TypeError(f"{name} is an adapter")
            lib = {"lib": _Lib(tape)} if "lib" in inspect.signature(form).parameters else {}
            out = _entries_of(form(*(_Traced(tape, a) for a in args), **lib), shape)
            if tape.spoiled or not all(isinstance(v, (_Traced, float)) for v in out):
                raise TypeError(f"{name} is not traceable")
            values = tape.replay(at)
            want = _entries_of(form(*(at[a] for a in args)), shape)
            for v, w in zip(out, want):
                got = values[v.name] if isinstance(v, _Traced) else v
                if type(got) is not type(w) or float.hex(got) != float.hex(w):
                    raise ValueError(f"{name} does not replay bitwise")
        except Exception:  # whatever a form does with a recorded value, it is then called
            tape.rollback(*mark)
            tape.spoiled = False
            items.append(f"{_target(stem, shape)} = {name}({', '.join(args)})")
            continue
        new = tape.ops[mark[0]:]
        items += new
        fresh = {id(op[0]) for op in new}
        for target, v in zip(_names(stem, shape), out):
            if isinstance(v, float):  # a constant entry binds its own name
                names[target] = v
                if v == 0.0 and math.copysign(1.0, v) > 0:
                    zeros.add(target)
            elif id(v) in fresh:  # its line assigns the entry
                fresh.discard(id(v))
                v.name = target
            else:  # an argument, another entry or a line of an earlier read
                items.append(f"{target} = {v.name}")
    names.update((ref.name, value) for ref, value in tape.consts.values())
    names.update((op[2].split("(")[0], op[1]) for op in tape.ops if op[2].startswith("math_"))
    lines = tuple(item if isinstance(item, str) else
                  f"{item[0].name} = {item[2].format(*(ref.name for ref in item[3]))}"
                  for item in items)
    return (lines, frozenset(zeros)), names


_SOURCES = itertools.count(1)  # numbers the generated sources in a process


@functools.cache
def _kernel_code(s: int, m: int, law: str, mode: str, reads: Optional[tuple]) -> tuple:
    """``(code, linecache entry)`` of the generated evaluation of one
    structure, compiled on first use and numbered in its name: straight-line
    code on local floats, every index resolved, plant and gain numbers only
    as names that :func:`_bind` binds.  ``law`` is ``"exact"``, ``"approx"``
    or ``"response"`` (the plant response alone, which the tests' open-loop
    audit binds); the drift keeps ``-grad V_a`` in ``mode`` ``robust_A8``.
    The reads are the lines of ``reads``, the ``(lines, zeros)`` of
    :func:`_inline`, and an entry in ``zeros`` is left out of every sum.  A
    closed loop's source defines ``field``, which takes the state entries and
    returns the derivatives of all but the positions, ``kernel(t, x)`` over a
    state list, and ``rk4_run`` (:func:`_loop_lines`), whose four stages per
    step are the lines of ``field``.

    With ``reads`` ``None`` it is the samples evaluation, which
    :func:`_diagnose` binds to numpy columns: ``samples`` on the velocities,
    integrators and filters returns ``(u_0, ...), detK`` by the lines of
    ``field``, ``K`` under either law, every read entry a free name and every
    branch dropped (guards, ``det K`` floor, disturbance, store): an array has
    no truth value, and the run took each branch already."""
    n, closed = s + m, law != "response"
    q, v, z, w = ([f"{c}{i}" for i in range(k)] for c, k in zip("qvzw", (n, n, m, m)))
    stage = functools.partial(_field_lines, s, m, law, mode, reads or ((), frozenset()))
    if reads is None:
        state = v + z + (w if law == "approx" else [])
        body, _ = stage(state, "t", False, True)
        lines = [f"def samples({', '.join(state)}):",
                 *("    " + line for line in body if not line.startswith(("if ", " "))),
                 f"    return ({''.join(f'u_{a}, ' for a in range(m))}), detK"]
    elif closed:
        state = q + v + z + (w if law == "approx" else [])
        body, out = stage(state[n:], "t", True)
        lines = ["def kernel(t, x):", f"    {', '.join(state)}, = x",
                 f"    return [{', '.join(v)}, *field(t, {', '.join(state)})]", "",
                 f"def field(t, {', '.join(state)}):", *("    " + line for line in body),
                 f"    return {', '.join(out)},", *_loop_lines(stage, state, n)]
    else:
        body, out = stage(v, None, False)
        lines = ["def kernel(x):", f"    {', '.join(q + v)}, = x[:{2 * n}]",
                 *("    " + line for line in body), f"    return [{', '.join(out)}]"]
    source = "\n".join(lines) + "\n"
    kind = "kernel" if reads is not None else "samples"
    name = f"<pidpbc {kind} s={s} m={m} {law} {mode} #{next(_SOURCES)}>"
    return compile(source, name, "exec"), (len(source), None, source.splitlines(True), name)


def _field_lines(s: int, m: int, law: str, mode: str, reads: tuple, names: list,
                 t: Optional[str], sample: bool, monitor: bool = False) -> tuple:
    """``(lines, derivatives)`` of one evaluation of :func:`_kernel_code`'s
    structure on the positions ``q0, q1, ...`` and the state entries after
    them, ``names`` (velocities, integrators, filters), at the time ``t``: the
    statements, each branch's body four spaces in, and the expressions of the
    derivatives of all but the positions (of a plant response, its flat
    solution).  The first two lines test the positions; only a ``sample``
    evaluation stores its reads, and a ``monitor`` one computes ``det K``
    under either law."""
    n, closed, robust = s + m, law != "response", mode == "robust_A8"
    q, v = [f"q{i}" for i in range(n)], names[:n]
    rows, X = range(n), [[None] * (1 + m) for _ in range(n)]
    qu = f"({''.join(a + ', ' for a in q[:s])})"  # only where it is raised
    lines = [f"if not ({' and '.join(f'isfinite({a})' for a in q)}):",  # callbacks see finite q
             "    raise ArithmeticError", *reads[0]]
    if sample:
        stored = [x for stem, _, shape in _read_specs(s, m) for x in _names(stem, shape)]
        lines += ["if kept:", f"    store({t}, ({', '.join(stored)}))"]

    def emit(*code):
        lines.extend(code)

    def define(name, expr):  # name = expr, or None where expr is a structural zero
        if expr:
            emit(f"{name} = {expr}")
        return expr and name

    def read(name):  # a read entry, or None where it is a structural zero
        return None if name in reads[1] else name

    # the Coriolis force Mdot qd - 1/2 d(qd' M qd)/dq: h = dM_uu qd_u, g and e
    # the two contractions of dM_au with qd_u (at s = 1, e is g), act the
    # actuated rows of Mdot qd
    h, g, e, f, act = {}, {}, {}, {}, []
    for i, k in itertools.product(range(s), range(s)):
        h[i, k] = define(f"h_{i}_{k}", _sum((read(f"dU_{i}_{j}_{k}"), v[j]) for j in range(s)))
    for a, k in itertools.product(range(m), range(s)):
        terms = [_sum((read(f"dA_{a}_{j}_{k}"), v[j]) for j in range(s)),
                 _sum((read(f"dA_{a}_{k}_{j}"), v[j]) for j in range(s))]
        g[a, k] = define(f"g_{a}_{k}", terms[0])
        e[a, k] = g[a, k] if terms[1] == terms[0] else define(f"e_{a}_{k}", terms[1])
    for a in range(m):
        act.append(define(f"act{a}", _sum((g[a, k], v[k]) for k in range(s))))
        f[s + a] = define(f"f{s + a}", _signed([("-", act[a]),
                                                ("-", robust and read(f"ga_{a}"))]))
    for k in range(s):
        moving = _sum((v[i], h[i, k]) for i in range(s))
        Mdot = _sum((h[k, j], v[j]) for j in range(s))
        cross = _sum((f"({g[a, k]} - {e[a, k]})", v[s + a])
                     for a in range(m) if g[a, k] != e[a, k])
        f[k] = define(f"f{k}", _signed([("+", moving and f"({moving}) / 2"),
                                        ("-", Mdot and f"({Mdot})"), ("+", cross),
                                        ("-", read(f"gu_{k}"))]))

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
            b = f[i] if c == 0 else "1" if i == s + c - 1 else None
            y.append(combine(f"p{c}_{i}", b, [(f"L_{i}_{k}", y[k]) for k in range(i)]))
        for i in reversed(rows):
            if y[i]:
                emit(f"X_{i}_{c} = {y[i]} / d{i}")
            X[i][c] = combine(f"X_{i}_{c}", y[i] and f"X_{i}_{c}",
                              [(f"L_{k}_{i}", X[k][c]) for k in range(i + 1, n)])
    if not closed:
        return lines, sum(X, [])
    return lines, _law_tail(emit, s, m, law, names, t, X, qu, act, monitor)


def _law_tail(emit: Callable, s: int, m: int, law: str, names: list, t: str, X: list, qu: str,
              act: list, monitor: bool) -> list:
    """Emit the closed-loop law after the plant response ``X`` and the
    actuated Coriolis rows ``act`` of :func:`_field_lines` (``names`` the
    velocities, integrators and filters): ``u``, ``det K`` under the exact
    law or a ``monitor``, and the disturbance; return the derivatives of all
    but the positions."""
    n = s + m
    v, z, w = names[:n], names[n:n + m], names[n + m:]
    # y_d = L qd with L = [Lc m_au, k_a I], Lc = -c maa^{-1}
    for a in range(m):
        emit(*(f"Lm_{a}_{j} = {_sum((f'Lc_{a}_{b}', f'A_{b}_{j}') for b in range(m))}"
               for j in range(s)),
             f"y{a} = {_sum((f'Lm_{a}_{j}', v[j]) for j in range(s))} + ka * {v[s + a]}")

    def pid(a, last):  # row a of K_P y_d + K_I z1 + K_D last
        return " + ".join(_sum((f"{G}_{a}_{b}", x[b]) for b in range(m))
                          for G, x in (("KP", [f"y{b}" for b in range(m)]), ("KI", z),
                                       ("KD", [f"{last}{b}" for b in range(m)])))

    def named(stem, shape, exprs):  # the entries of K or b, one line each at m >= 2
        if m == 1:
            return exprs
        emit(*map("{} = {}".format, _names(stem, shape), exprs))
        return _names(stem, shape)

    if law == "exact" or monitor:
        # the PID as written, with yd_dot = L qdd - c maa^{-1} act: the matrix on
        # u is K(q_u), the rest the derivative at u = 0, yd0 = L qdd0 + Lc act
        for a in range(m):
            emit(*(f"Ls_{a}_{c} = {_sum((f'Lm_{a}_{j}', X[j][c]) for j in range(s))}"
                   f" + ka * {X[s + a][c]}" for c in range(1 + m)),
                 f"yd{a} = "
                 f"{_sum([(f'Ls_{a}_0', '1')] + [(f'Lc_{a}_{b}', act[b]) for b in range(m)])}")
        K = named("K", (m, m), [("ke + " if a == b else "")
                                + _sum((f"KD_{a}_{c}", f"Ls_{c}_{b + 1}") for c in range(m))
                                for a, b in itertools.product(range(m), range(m))])
        columns = [K[c::m] for c in range(m)]
        # K u = b by Cramer's rule for every m: each minor D_cols of [K | b]'s
        # leading rows, expanded along its last row, is one line (det K the
        # full one), and u_j = +-D(all columns but j) / det K; an exact zero
        # det K divides (a ZeroDivisionError), a NaN is left to the same abort
        @functools.cache
        def minor(cols):  # D_cols, an entry of the first row, or "1" for no column
            r, full = len(cols) - 1, cols == tuple(range(m))
            if r < 1 and not full:
                return columns[cols[0]][0] if cols else "1"
            name = "detK" if full else "D_" + "_".join(map(str, cols))
            terms = [("+-"[(r + k) % 2], _sum([(columns[c][r], minor(cols[:k] + cols[k + 1:]))]))
                     for k, c in enumerate(cols)]
            emit(f"{name} = {_signed(terms)}")
            return name

        minor(tuple(range(m)))
        emit("if abs(detK) < det_tol:", f"    raise WellPosednessError({qu}, detK, det_tol, {t})")
    if law == "exact":
        columns.append(named("b", (m,), [f"-({pid(a, 'yd')})" for a in range(m)]))
        emit(*(f"u_{j} = {'-' * ((m - 1 - j) % 2)}"
               f"{minor(tuple(c for c in range(m + 1) if c != j))} / detK" for j in range(m)))
    else:
        emit(*(f"zd{a} = fa * (y{a} - {w[a]})" for a in range(m)),
             *(f"u_{a} = -({pid(a, 'zd')}) / ke" for a in range(m)))
    # the disturbance enters at the plant input only; the law never sees it
    emit("if dist is not None:",
         f"    {_target('dd', (m,))} = read(dist({t}), ({m},)).tolist()",
         *(f"    u_{a} = u_{a} + dd_{a}" for a in range(m)))
    qdd = [_sum([(X[i][0], "1")] + [(X[i][c + 1], f"u_{c}") for c in range(m)])
           for i in range(n)]
    return qdd + [f"y{a}" for a in range(m)] + [f"zd{a}" for a in range(m) if law == "approx"]


def _invariant(lines: list, inputs: set) -> list:
    """The top-level ``name = expr`` lines among ``lines`` that assign their
    name once from globals (names that neither ``lines`` assign nor
    ``inputs`` hold) and names of earlier such lines: what a run computes
    once.  A name assigned twice, or in a branch, is never one of them."""
    tree = ast.parse("\n".join(lines))
    stored = collections.Counter(node.id for node in ast.walk(tree)
                                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store))
    known, hoisted = set(), []
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                and stored[node.targets[0].id] == 1
                and all(x.id in known or x.id not in stored and x.id not in inputs
                        for x in ast.walk(node.value) if isinstance(x, ast.Name))):
            known.add(node.targets[0].id)
            hoisted.append(lines[node.lineno - 1])
    return hoisted


def _loop_lines(stage: Callable, state: list, n: int) -> list:
    """Source of ``rk4_run(X, k0, k1, dt)``: classical RK4 steps of the
    evaluation ``stage`` from row ``k0`` to row ``k1`` of the float64 array
    ``X`` in place, on the state names ``state``, whose first ``n`` are
    positions.  ``stage(names, t, sample)`` is :func:`_field_lines` on the
    positions ``q0, q1, ...`` and ``names``.  The state lives in local
    floats, the step start's positions as ``q0_0, ...``; each step holds four
    stages of lines, the first a sample that does not test its positions
    again, and the lines :func:`_invariant` finds run once before the loop.
    A stage state is ``x + h k`` and the new state ``x + dt/6 (k1 + 2 (k2 +
    k3) + k4)``, every sum in its order, so each row is bitwise the classical
    stage loop (a position's derivative is its stage's velocity); it is
    stored entry by entry into a flat view of ``X``.  It returns the step at
    which a stage or the new state stopped being finite (a zero divisor
    too), else ``k1``."""
    width = len(state)
    rest = [[a if j == 0 else f"{a}_{j}" for a in state[n:]] for j in range(4)]
    ds = [r[:n] + [f"k{j}_{i}" for i in range(n, width)] for j, r in enumerate(rest)]
    x = [f"{a}_0" for a in state[:n]] + state[n:]
    bodies = [stage(names, t, j == 0)
              for j, (names, t) in enumerate(zip(rest, ("t", "t + half", "t + half", "t + dt")))]
    hoisted = _invariant(bodies[0][0], {"t", *state})
    loop = []
    for j, (h, (body, out)) in enumerate(zip((None, "half", "half", "dt"), bodies)):
        if h:  # the stage state, a step h along the previous stage's derivative
            loop += [f"{a} = {b} + {h} * {d}"
                     for a, b, d in zip(state[:n] + rest[j], x, ds[j - 1])]
        else:  # the step's start, whose positions the last new state's test passed
            loop += [f"{a} = {b}" for a, b in zip(state[:n], x)]
            body = body[2:]
        loop += [line for line in body if line not in hoisted]
        loop += [f"{d} = {expr}" for d, expr in zip(ds[j][n:], out)]
    loop += [f"{a} = {a} + sixth * ({d0} + 2 * ({d1} + {d2}) + {d3})"
             for a, d0, d1, d2, d3 in zip(x, *ds)]
    loop += [f"at += {width}", *(f"flat[at{f' + {i}' if i else ''}] = {a}"
                                 for i, a in enumerate(x)),
             f"if not ({' and '.join(f'isfinite({a})' for a in x)}):", "    raise ArithmeticError"]
    return ["", "def rk4_run(X, k0, k1, dt):", "    half, sixth = dt / 2, dt / 6",
            '    flat = memoryview(X).cast("B").cast("d")', f"    at = k0 * {width}",
            f"    {', '.join(x)}, = flat[at:at + {width}]", "    k = k0", "    try:",
            *("        " + line for line in hoisted), "        for k in range(k0, k1):",
            "            t = k * dt", *("            " + line for line in loop),
            "    except ArithmeticError:", "        return k", "    return k1"]


def _bind(sys: MechanicalSystem, law: str, mode: str, at: Array, **names) -> dict:
    """The namespace of a new instance of :func:`_kernel_code`'s source for
    ``sys``, holding ``kernel`` (and ``rk4_run``), whose globals bind the
    entries of ``m_aa``, ``names`` and the float form (or :func:`_adapter`)
    of each callback it reads (:func:`_callbacks`); :func:`_inline` inlines a
    float form, checked at the position ``at``, or calls it."""
    s, m = sys.s, sys.m
    q = [f"q{i}" for i in range(sys.n)]
    callbacks = _callbacks(sys)
    fns, reads = {}, []
    for stem, name, shape in _read_specs(s, m, mode):
        if math.prod(shape) == 1:  # a one-entry block's form returns a float
            stem, shape = _names(stem, shape)[0], ()
        form = getattr(callbacks[name], "float_form", None)
        fns[name] = form or _adapter(callbacks[name], shape)
        reads.append((stem, name, form, q[s:] if name == "gradVa_fn" else q[:s], shape))
    lines, consts = _inline(reads, dict(zip(q, map(float, at))))
    code, entry = _kernel_code(s, m, law, mode, lines)
    linecache.cache[entry[3]] = entry  # a traceback shows the generated line
    env = dict(names, **consts, **fns, **_entries("maa", sys.maa), read=_read,
               isfinite=math.isfinite, inf=math.inf, WellPosednessError=WellPosednessError,
               SingularInertiaError=SingularInertiaError)
    exec(code, env)
    return env


def _adapter(fn: Callable, shape: tuple) -> Callable:
    """The float form of the callback ``fn`` that has none: ``fn`` at the
    array of its coordinates, read by :func:`.mechanics._read` into floats
    nested as ``shape``."""
    return lambda *x: _read(fn(np.array(x)), shape).tolist()


def _entries(stem: str, mat: Array) -> dict:
    """``{stem_i_j: float}`` of the matrix ``mat``, as a kernel names its entries."""
    return {f"{stem}_{i}_{j}": float(x) for (i, j), x in np.ndenumerate(mat)}


def _constants(sys: MechanicalSystem, gains: Gains) -> dict:
    """The law's numbers by the names a kernel and a samples evaluation read."""
    Lc = -(gains.k_u - gains.k_a) * sys.maa_inv
    return dict(ke=float(gains.k_e), ka=float(gains.k_a), fa=float(gains.filter_a),
                **_entries("KP", gains.K_P), **_entries("KI", gains.K_I),
                **_entries("KD", gains.K_D), **_entries("Lc", Lc))


def _build_eval_generic(sys: MechanicalSystem, gains: Gains, controller: str,
                        disturbance, det_tol: float):
    """The closed-loop evaluation of every plant: the kernel of
    :func:`_kernel_code` for ``(s, m, controller, gains.mode)`` bound to this
    plant, these gains, ``disturbance`` and ``det_tol``; one closure serves
    one run at a time.  It carries ``rk4_run(X, k0, k1, dt)``, the RK4 loop
    over a setpoint segment that :func:`_rk4` runs, and ``record(n_samples,
    dt)``, which returns ``(callback, rows)`` pairs for each callback of
    :func:`_read_specs` without a batch form, its ``n_samples`` rows a view
    of one array; from then on each step's first stage and each call of the
    closure (a run's last state) copy every read entry into row ``t / dt``."""
    reads = [(getattr(sys, fn), shape) for _, fn, shape in _read_specs(sys.s, sys.m)]
    kept, sample_dt = [], 0.0  # [the (n_samples, entries) array] while a run records

    def record(n_samples: int, dt: float) -> list:
        nonlocal sample_dt
        ends = np.cumsum([0] + [math.prod(shape) for _, shape in reads])
        # a batch form costs the diagnostics pass less than the copy per sample
        keep = [i for i, (fn, _) in enumerate(reads)
                if fn is not None and getattr(fn, "batch_form", None) is None]
        kept[:], sample_dt = [np.empty((n_samples, ends[-1]))] if keep else [], dt
        return [(reads[i][0], kept[0][:, ends[i]:ends[i + 1]].reshape((n_samples,) + reads[i][1]))
                for i in keep]

    def store(t: float, values: tuple) -> None:
        kept[0][round(t / sample_dt)] = values

    env = _bind(sys, controller, gains.mode, gains.q_star, kept=kept, store=store,
                dist=disturbance, det_tol=det_tol, **_constants(sys, gains))
    eval_rhs = env["kernel"]
    eval_rhs.rk4_run, eval_rhs.record = env["rk4_run"], record
    return eval_rhs


def _rk4(rhs: Callable[[float, list], list], X: Array, k0: int, k1: int, dt: float) -> None:
    """Classical RK4 steps from row ``k0`` to row ``k1`` of ``X`` in place.

    The steps are ``rhs.rk4_run(X, k0, k1, dt)``, the generated loop of
    :func:`_build_eval_generic`, which returns the step at which the state
    stopped being finite, or ``k1``; then ``rhs`` checks the last state's
    derivative.  The run holds one error state, in which every
    floating-point error is silent, so that a singular solve is NaN and
    divergence is caught by the explicit finiteness checks.  Every early
    stop is the :class:`SimulationAborted` raised here: a new state or the
    last state's derivative is not finite, or ``rhs`` raises
    :class:`.WellPosednessError`, :class:`.SingularInertiaError` or
    :class:`ArithmeticError` (a zero divisor, or a non-finite stage state,
    which no plant callback sees).
    """
    with np.errstate(all="ignore"):
        try:
            k = rhs.rk4_run(X, k0, k1, dt)
            if k == k1:
                k -= 1  # the last state's derivative aborts with the last step
                if all(map(math.isfinite, rhs(k1 * dt, X[k1].tolist()))):
                    return
        except (WellPosednessError, SingularInertiaError) as exc:
            raise SimulationAborted(str(exc)) from exc
        except ArithmeticError:
            pass
    raise SimulationAborted(f"state became non-finite at t={k * dt + dt:.6g}s")


def _diagnose(sys: MechanicalSystem, X: Array, dt: float, controller: str, disturbance,
              segments: list, reads: Sequence = ()) -> dict:
    """Every trace column from the integrated states, in one pass over all
    samples; ``segments`` as in :class:`Trace`, and ``reads`` ``(callback,
    values at each sample's q_u)`` pairs to reuse.  ``u`` and ``detK`` are
    the samples evaluation of :func:`_kernel_code` bound to numpy: each read
    entry the column of its callback over the samples, the law's numbers
    those of the run's kernel (:func:`_constants`)."""
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
            _reuse(fn, st.q_u, lambda values=values: np.ascontiguousarray(values))
        # the integration already judged every sample by det_floor
        code, entry = _kernel_code(s, m, controller, gains.mode, None)
        linecache.cache[entry[3]] = entry
        env = dict(_constants(sys, gains), **_entries("maa", sys.maa))
        for stem, name, shape in _read_specs(s, m, gains.mode):
            block = _per_point(_callbacks(sys)[name], st.q_a if stem == "ga" else st.q_u, shape)
            env.update(zip(_names(stem, shape), block.reshape(N, -1).T))
        exec(code, env)
        u, cols["detK"] = env["samples"](*X[:, n:].T)
        u = np.stack(u, axis=-1)
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
            U=lyapunov_Hd_and_U(sys, gains).U(st, z1))
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
    force = trace.u + trace.d if input_name == "u_total" else trace.tau
    power = np.einsum("ij,ij->i", force, getattr(trace, y_name))
    dstore = np.gradient(store, trace.dt)
    mask = _interior_mask(trace)
    resid = np.abs(dstore[mask] - power[mask])
    denom = np.max(np.abs(power)) or 1.0
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
    return {"max_residual": float(resid.max() / denom), "monotone": monotone,
            "dissipation": diss}


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
    return {"y_d": float(np.abs(trace.y_d[-1]).max()), "u": float(np.abs(trace.u[-1]).max()),
            "gradVu": float(np.abs(grad).max())}


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
    per block of ``CSV_BLOCK_ROWS`` rows, which bounds the temporary strings."""
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
