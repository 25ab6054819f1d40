"""Underactuated Euler-Lagrange plant models and their dynamics.

The plant class covered here has a constant input matrix that feeds forces
only into the last ``m`` generalized coordinates, an inertia matrix that
depends only on the unactuated coordinates ``q_u`` with a constant actuated
block ``m_aa``, and a potential energy that separates as
``V(q) = V_u(q_u) + V_a(q_a)``.  Coordinates are ordered unactuated first,
so ``q = [q_u; q_a]``.

``State``, the plant accessors, the inertia derivatives, ``assemble_inertia``
and ``coriolis_decomposition`` take one point or a batch with leading sample
axes and keep those axes in their results, as do the passivity, controller
and analysis functions that build a trace.

A plant callback takes one point, a float array of shape ``(s,)`` or
``(m,)``, and returns any array-like holding its block's entries in row-major
order, so a one-entry block may be a plain Python float.  It may carry two
more forms of the same formula, attached by :func:`with_forms`: a *float
form* (a Python float in, a float out) and a *batch form* (a ``(..., k)``
array in, an array that broadcasts to ``(..., *block)`` out, in one numpy
call).  The integration of an ``s = m = 1`` plant calls the float forms
when every callback it reads carries one, and reads arrays otherwise.
:func:`_read` is the one reader of a result at a point; :func:`_per_point`
takes a batch through the batch form, or point by point (:func:`_loop_points`)
without one.  :func:`_jacobian` is the one rule for a block's derivative: the
analytic Jacobian, or the central difference without one.  The forms travel
with the callback object, so replacing a callback in a plant
(``dataclasses.replace``) drops them with it.  During integration callbacks
are only called at finite positions.  A callback is a function of its point
alone: the simulator's diagnostics reuse the values the integration read at
each sample.  Every matrix that enters a plant or gains passes the one check
:func:`_as_matrix`.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

Array = np.ndarray
FD_STEP = 1e-5  # step of every fourth-order central difference


class DynamicsError(RuntimeError):
    """Raised when the plant equations cannot be evaluated."""


class SingularInertiaError(DynamicsError):
    """Raised when the inertia matrix fails to factor at a queried point."""

    def __init__(self, q_u: Array, detail: str = ""):
        self.q_u, self.detail = np.asarray(q_u, dtype=float), detail
        msg = f"inertia matrix not positive definite at q_u={self.q_u}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)

    def __reduce__(self):  # pickle and copy rebuild from the fields, not the message
        return type(self), (self.q_u, self.detail)


def _T(a: Array) -> Array:
    """Transpose of the last two axes."""
    return np.swapaxes(a, -1, -2)


def _mv(a: Array, x: Array) -> Array:
    """Matrix-vector product over leading axes."""
    return np.einsum("...ij,...j->...i", a, x)


def _quad(x: Array, a: Array) -> Array:
    """Quadratic form ``x^T a x`` over leading axes."""
    return np.einsum("...i,...ij,...j->...", x, a, x)


def _solve(a: Array, b: Array) -> Array:
    """Solution of ``a x = b`` for vectors ``b`` over leading axes."""
    return np.linalg.solve(a, b[..., None])[..., 0]


def _block2x2(tl: Array, tr: Array, bl: Array, br: Array) -> Array:
    """``[[tl, tr], [bl, br]]`` over the leading axes of ``tl``."""
    s, m = tl.shape[-1], br.shape[-1]
    out = np.empty(tl.shape[:-2] + (s + m, s + m))
    out[..., :s, :s] = tl
    out[..., :s, s:] = tr
    out[..., s:, :s] = bl
    out[..., s:, s:] = br
    return out


def _points(x, k: int) -> Array:
    """``x`` as float coordinates: one point of shape ``(k,)`` (anything with
    ``k`` entries; ``k = -1`` flattens), or a batch of shape ``(..., k)``."""
    x = np.asarray(x, dtype=float)
    return x.reshape(k) if x.ndim <= 1 else x


_shared: ContextVar = ContextVar("pidpbc_shared_samples", default=None)


@contextmanager
def shared_samples(*batches: Array):
    """Inside the block, each plant callback and coupling potential runs once
    over each of ``batches`` (the array objects themselves, which must not
    change); later calls get the stored, read-only result."""
    token = _shared.set(({id(b): b for b in batches}, {}))
    try:
        yield
    finally:
        _shared.reset(token)


def _reuse(key, q: Array, compute: Callable[[], Array]) -> Array:
    """``compute()``, stored under ``key`` while ``q`` is a shared batch."""
    shared = _shared.get()
    if shared is None or shared[0].get(id(q)) is not q:
        return compute()
    results = shared[1]
    out = results.get((key, id(q)))
    if out is None:
        out = results[(key, id(q))] = compute()
        out.flags.writeable = False
    return out


def with_forms(point: Callable, *, float_form: Optional[Callable] = None,
               batch_form: Optional[Callable] = None) -> Callable:
    """``point``, a plant callback, carrying the float and batch forms of its
    formula (see the module docstring); each form must agree with ``point``
    bitwise."""
    point.float_form, point.batch_form = float_form, batch_form
    return point


def _loop_points(fn: Callable[[Array], Array], q: Array, shape: tuple) -> Array:
    """``fn`` at every point of the batch ``q``, each result reshaped to ``shape``."""
    points = q.reshape(-1, q.shape[-1])
    out = np.empty((len(points),) + shape)
    # stacking block by block bounds the temporary list of results
    for i in range(0, len(points), 1024):
        block = points[i:i + 1024]
        out[i:i + 1024] = np.array([fn(p) for p in block], dtype=float).reshape(
            (len(block),) + shape)
    return out.reshape(q.shape[:-1] + shape)


def _batch(form: Callable[[Array], Array], q: Array, shape: tuple) -> Array:
    """The batch form ``form`` at ``q``, broadcast into a new array."""
    out = np.empty(q.shape[:-1] + shape)
    out[...] = form(q)
    return out


def _read(value, shape: tuple) -> Array:
    """A callback's result at one point, as floats of ``shape``."""
    return np.asarray(value, dtype=float).reshape(shape)


def _per_point(fn: Callable[[Array], Array], q: Array, shape: tuple) -> Array:
    """Plant callback ``fn`` at ``q`` of shape ``(k,)`` or ``(..., k)``, each
    result reshaped to ``shape``; a batch goes through ``fn``'s batch form in
    one call when it has one, and point by point otherwise."""
    q = np.asarray(q, dtype=float)
    if q.ndim <= 1:
        return _read(fn(q), shape)
    form = getattr(fn, "batch_form", None)
    if form is None:
        return _reuse(fn, q, lambda: _loop_points(fn, q, shape))
    return _reuse(fn, q, lambda: _batch(form, q, shape))


def _finite(value, name: str) -> Array:
    """``value`` as floats, or :class:`ValueError` naming ``name`` unless finite."""
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {value}")
    return arr


def _as_matrix(value, n: int, name: str, definite: Optional[bool] = None) -> Array:
    """``value`` (a scalar means that multiple of ``I``) as an ``(n, n)`` finite,
    symmetric matrix, positive definite if ``definite``, semidefinite if
    ``definite is False``; :class:`ValueError` naming ``name`` otherwise."""
    mat = _finite(value, name)
    mat = np.atleast_2d(mat * np.eye(n) if mat.ndim == 0 else mat)
    if mat.shape != (n, n):
        raise ValueError(f"{name} must be scalar or {(n, n)}, got {mat.shape}")
    # |A - A'| <= 1e-12 max(1, max |A|): an absolute bound on A's own scale
    if np.any(np.abs(mat - mat.T) > 1e-12 * max(1.0, np.abs(mat).max(initial=0.0))):
        raise ValueError(f"{name} must be symmetric")
    least = np.inf if definite is None else np.linalg.eigvalsh(mat).min()
    if (least <= 0.0) if definite else (least < -1e-12):
        raise ValueError(f"{name} must be positive {'definite' if definite else 'semidefinite'}")
    return mat


@dataclass(frozen=True)
class MechanicalSystem:
    """Definition of an underactuated mechanical plant.

    Instances are immutable and every operation on them is a pure function,
    so concurrent read access is safe.

    Each callback returns the entries of the shape named below and may
    carry float and batch forms, under the contract of the module docstring.

    Parameters
    ----------
    s, m : int
        Number of unactuated and actuated degrees of freedom; the total is
        ``n = s + m``.
    muu_fn : callable
        ``q_u -> (s, s)`` symmetric unactuated inertia block.
    mau_fn : callable
        ``q_u -> (m, s)`` coupling inertia block.
    maa : array
        Constant symmetric positive definite ``(m, m)`` actuated block; a
        scalar means that multiple of the identity.
    Vu_fn, gradVu_fn : callable
        Unactuated potential ``q_u -> float`` and its gradient ``q_u -> (s,)``.
    Va_fn, gradVa_fn : callable
        Actuated potential ``q_a -> float`` and its gradient ``q_a -> (m,)``.
    muu_jac, mau_jac : callable, optional
        Analytic derivative tensors ``q_u -> (s, s, s)`` and
        ``q_u -> (m, s, s)`` with ``[i, j, k] = d block[i, j] / d q_u[k]``.
        When absent, fourth-order central differences are used; analytic
        callbacks are preferred because the Coriolis identities are sensitive
        to derivative error.
    affine_Va : (s_a, c0), optional
        Declares ``V_a(q_a) = s_a @ q_a + c0``; required by the controller
        mode that skips the actuated-potential cancellation.
    VN_fn : callable, optional
        Closed-form coupling potential ``q_u -> (m,)`` whose Jacobian is
        ``maa^{-1} m_au(q_u)``; computed by quadrature when absent.
    """

    s: int
    m: int
    muu_fn: Callable[[Array], Array]
    mau_fn: Callable[[Array], Array]
    maa: Array
    Vu_fn: Callable[[Array], float]
    gradVu_fn: Callable[[Array], Array]
    Va_fn: Callable[[Array], float]
    gradVa_fn: Callable[[Array], Array]
    muu_jac: Optional[Callable[[Array], Array]] = None
    mau_jac: Optional[Callable[[Array], Array]] = None
    affine_Va: Optional[tuple] = None
    VN_fn: Optional[Callable[[Array], Array]] = None
    name: str = "mechanical-system"
    maa_inv: Array = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "maa", _as_matrix(self.maa, self.m, "maa", definite=True))
        object.__setattr__(self, "maa_inv", np.linalg.inv(self.maa))
        if self.affine_Va is not None:
            s_a, c0 = self.affine_Va
            s_a = _finite(s_a, "affine_Va slope").reshape(self.m)
            object.__setattr__(self, "affine_Va", (s_a, float(_finite(c0, "affine_Va offset"))))

    @property
    def n(self) -> int:
        return self.s + self.m

    def affine_potential(self) -> tuple:
        """``(s_a, c0)`` of the affine ``V_a``, or :class:`ValueError` without it."""
        if self.affine_Va is None:
            raise ValueError(f"{self.name} has no affine V_a data, which robust_A8 mode requires")
        return self.affine_Va

    def muu(self, q_u: Array) -> Array:
        return _per_point(self.muu_fn, q_u, (self.s, self.s))

    def mau(self, q_u: Array) -> Array:
        return _per_point(self.mau_fn, q_u, (self.m, self.s))

    def Vu(self, q_u: Array):
        return _per_point(self.Vu_fn, q_u, ())[()]

    def gradVu(self, q_u: Array) -> Array:
        return _per_point(self.gradVu_fn, q_u, (self.s,))

    def Va(self, q_a: Array):
        return _per_point(self.Va_fn, q_a, ())[()]

    def gradVa(self, q_a: Array) -> Array:
        return _per_point(self.gradVa_fn, q_a, (self.m,))


@dataclass(frozen=True)
class State:
    """Generalized position/velocity split into unactuated/actuated parts;
    each part is one vector, or a batch with the same leading axes in all four."""

    q_u: Array
    q_a: Array
    qd_u: Array
    qd_a: Array

    def __post_init__(self):
        for name in ("q_u", "q_a", "qd_u", "qd_a"):
            object.__setattr__(self, name, _points(_finite(getattr(self, name), name), -1))
        if self.q_u.shape != self.qd_u.shape or self.q_a.shape != self.qd_a.shape \
                or self.q_u.shape[:-1] != self.q_a.shape[:-1]:
            raise ValueError("position/velocity dimensions do not match")

    @property
    def q(self) -> Array:
        return np.concatenate([self.q_u, self.q_a], axis=-1)

    @property
    def qd(self) -> Array:
        return np.concatenate([self.qd_u, self.qd_a], axis=-1)

    @classmethod
    def from_vectors(cls, q: Array, qd: Array, s: int) -> "State":
        q, qd = _points(q, -1), _points(qd, -1)
        return cls(q[..., :s], q[..., s:], qd[..., :s], qd[..., s:])


# ---------------------------------------------------------------------------
# Derivatives of the inertia blocks
# ---------------------------------------------------------------------------

def _stencil(x: Array) -> Array:
    """``x + o e_k`` for the offsets ``o = 2h, h, -h, -2h`` (``h = FD_STEP``)
    and every direction ``k``, along two new leading axes ``(4, n)``."""
    shifts = np.multiply.outer([2.0, 1.0, -1.0, -2.0], FD_STEP * np.eye(x.shape[-1]))
    return x + shifts.reshape(shifts.shape[:2] + (1,) * (x.ndim - 1) + shifts.shape[2:])


def _central(v: Array) -> Array:
    """Fourth-order central difference along the offset axis 0 of ``v``."""
    return (-v[0] + 8 * v[1] - 8 * v[2] + v[3]) / (12 * FD_STEP)


def _jacobian(block: Callable, jac: Optional[Callable], shape: tuple) -> Callable:
    """The callback ``q_u -> d block[i, j] / d q_u[k]`` of the block ``block``
    with entries of ``shape``: the analytic Jacobian ``jac``, or without one
    the fourth-order central difference of ``block``."""
    if jac is not None:
        return jac
    return lambda q: np.moveaxis(_central(_per_point(block, _stencil(q), shape)), 0, -1)


def muu_gradient(sys: MechanicalSystem, q_u: Array) -> Array:
    """Derivative tensor ``d m_uu[i, j] / d q_u[k]`` of shape (..., s, s, s)."""
    return _per_point(_jacobian(sys.muu_fn, sys.muu_jac, (sys.s,) * 2), q_u, (sys.s,) * 3)


def mau_gradient(sys: MechanicalSystem, q_u: Array) -> Array:
    """Derivative tensor ``d m_au[i, j] / d q_u[k]`` of shape (..., m, s, s)."""
    s, m = sys.s, sys.m
    return _per_point(_jacobian(sys.mau_fn, sys.mau_jac, (m, s)), q_u, (m, s, s))


# ---------------------------------------------------------------------------
# Inertia assembly and Coriolis terms
# ---------------------------------------------------------------------------

def assemble_inertia(sys: MechanicalSystem, q_u: Array) -> Array:
    """Full inertia matrix ``[[m_uu, m_au^T], [m_au, m_aa]]`` at ``q_u``."""
    q_u = _points(q_u, sys.s)
    muu = sys.muu(q_u)
    mau = sys.mau(q_u)
    return _block2x2(0.5 * (muu + _T(muu)), _T(mau), mau, sys.maa)


def coriolis_decomposition(sys: MechanicalSystem, st: State):
    """Coriolis force split into its unactuated and actuated-row pieces.

    Returns ``(Cmu_qdu, Dmu, act_row)`` where ``Cmu_qdu + Dmu`` is the
    unactuated-row Coriolis force and ``act_row`` the actuated-row one.
    ``Dmu`` collects the velocity cross terms; it vanishes whenever
    ``qd_a = 0`` or ``qd = 0``.
    """
    dmuu = muu_gradient(sys, st.q_u)
    dmau = mau_gradient(sys, st.q_u)
    # Jacobian of q_u -> m_uu(q_u) qd_u, holding qd_u fixed
    j_uu = np.einsum("...ijk,...j->...ik", dmuu, st.qd_u)
    cmu = j_uu - 0.5 * _T(j_uu)
    # Jacobians of q_u -> m_au^T qd_a and q_u -> m_au qd_u
    j_ua = np.einsum("...jik,...j->...ik", dmau, st.qd_a)
    j_au = np.einsum("...ijk,...j->...ik", dmau, st.qd_u)
    dmu = _mv(j_ua, st.qd_u) - _mv(_T(j_au), st.qd_a)
    act_row = _mv(j_au, st.qd_u)
    return _mv(cmu, st.qd_u), dmu, act_row


def forward_dynamics(sys: MechanicalSystem, st: State, tau: Array) -> Array:
    """Accelerations of the open-loop plant under the applied force ``tau``."""
    tau = np.asarray(tau, dtype=float).reshape(sys.m)
    M = assemble_inertia(sys, st.q_u)
    cmu_qdu, dmu, act_row = coriolis_decomposition(sys, st)
    rhs = -np.concatenate([sys.gradVu(st.q_u), sys.gradVa(st.q_a)], axis=-1)
    rhs[: sys.s] -= cmu_qdu + dmu
    rhs[sys.s:] += tau - act_row
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise SingularInertiaError(st.q_u, str(exc)) from exc
    y = np.linalg.solve(L, rhs)
    return np.linalg.solve(L.T, y)
