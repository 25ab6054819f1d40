"""Structural assumption checks and stability certificates.

Numerics cannot certify the global statements behind the controller design,
so every sampled or gridded check reports ``sampled-pass`` rather than
``pass`` and carries its worst-case witness.  The shaped kinetic/potential
pair assembled here doubles as the Lyapunov function of the closed loop; its
defining identities are exact and are exercised by the test suite at random
states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .mechanics import (Array, MechanicalSystem, State, _T, _block2x2, _central, _points,
                        _quad, _stencil, assemble_inertia, shared_samples)
from .passivity import (VN_CHECK_TOL, coupling_row_asymmetry, passive_outputs,
                        potential_integral_VN, robust_storage, schur_unactuated, storage_functions)
from .controller import Gains, det_floor, wellposedness_matrix_K

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_SAMPLED = "sampled-pass"
STATUS_NA = "not-applicable"

A7_GRAD_TOL = 1e-6  # largest |grad V_d(q*)| check_A7 accepts

ASSUMPTION_NAMES = {
    "A1": "constant input matrix [0; I]",
    "A2": "inertia depends only on unactuated coordinates",
    "A3": "constant actuated inertia block",
    "A4": "separable potential, unactuated part bounded below",
    "A5": "well-posedness matrix nonsingular (gain-dependent)",
    "A6": "coupling-block rows are gradient fields",
    "A7": "shaped inertia positive definite, shaped potential has a minimum",
    "A8": "actuated potential affine",
    "A9": "strong inertial coupling, injective unactuated potential gradient",
}


@dataclass
class AssumptionCheck:
    status: str
    residual: Optional[float] = None
    witness: Optional[Array] = None
    note: str = ""


@dataclass
class AssumptionReport:
    checks: dict = field(default_factory=dict)
    seed: int = 0
    n_samples: int = 0

    @property
    def passed(self) -> bool:
        return all(c.status != STATUS_FAIL for c in self.checks.values())

    def to_text(self) -> str:
        lines = [f"assumption checks ({self.n_samples} samples, seed {self.seed})"]
        for key in sorted(self.checks):
            c = self.checks[key]
            line = f"  {key} [{c.status:>12}]  {ASSUMPTION_NAMES[key]}"
            if c.residual is not None:
                line += f"  worst={c.residual:.3e}"
            if c.witness is not None:
                line += f"  witness={np.array2string(np.atleast_1d(c.witness), precision=4)}"
            if c.note:
                line += f"  ({c.note})"
            lines.append(line)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        out = {"seed": self.seed, "n_samples": self.n_samples, "passed": self.passed}
        for key, c in self.checks.items():
            out[key] = {
                "status": c.status,
                "name": ASSUMPTION_NAMES[key],
                "residual": None if c.residual is None else float(c.residual),
                "witness": None if c.witness is None else np.atleast_1d(c.witness).tolist(),
                "note": c.note,
            }
        return out


def check_assumptions(sys: MechanicalSystem, sample_box, n_samples: int = 400,
                      seed: int = 0) -> AssumptionReport:
    """Verify the structural plant assumptions on a sampling box.

    ``sample_box`` is an ``(n, 2)`` array of per-coordinate bounds, ordered
    unactuated first.  Structural facts guaranteed by the plant container
    (constant input matrix, inertia depending only on ``q_u``, constant
    actuated block, separable potential) report ``pass``; everything that is
    sampled reports at best ``sampled-pass``.  Failures are reported with a
    witness point, never raised.
    """
    box = np.asarray(sample_box, dtype=float).reshape(sys.n, 2)
    rng = np.random.default_rng(seed)
    qu_samples = rng.uniform(box[: sys.s, 0], box[: sys.s, 1], size=(n_samples, sys.s))
    qa_samples = rng.uniform(box[sys.s:, 0], box[sys.s:, 1], size=(n_samples, sys.m))

    report = AssumptionReport(seed=seed, n_samples=n_samples)
    structural = "structural: guaranteed by the plant container"
    report.checks["A1"] = AssumptionCheck(STATUS_PASS, note=structural)
    report.checks["A2"] = AssumptionCheck(STATUS_PASS, note=structural)
    report.checks["A3"] = AssumptionCheck(STATUS_PASS, note=structural)

    vu = sys.Vu(qu_samples)
    k = int(np.argmin(vu))
    report.checks["A4"] = AssumptionCheck(
        STATUS_SAMPLED, residual=float(vu[k]), witness=qu_samples[k],
        note="separability structural; sampled minimum of the unactuated potential shown")

    report.checks["A5"] = AssumptionCheck(
        STATUS_NA, note="gain-dependent; use scan_A5 with a gain set")
    report.checks["A7"] = AssumptionCheck(
        STATUS_NA, note="gain-dependent; use check_A7 with a gain set")

    # A6: symmetry of the coupling-row Jacobians, to the V_N quadrature's own tolerance
    asym = coupling_row_asymmetry(sys, qu_samples)
    k = int(np.argmax(asym))
    status = STATUS_SAMPLED if asym[k] <= VN_CHECK_TOL else STATUS_FAIL
    report.checks["A6"] = AssumptionCheck(status, residual=float(asym[k]), witness=qu_samples[k])

    # A8: declared affine actuated potential matches the callable
    if sys.affine_Va is None:
        report.checks["A8"] = AssumptionCheck(STATUS_NA, note="no affine data declared")
    else:
        s_a, c0 = sys.affine_Va
        resid = np.abs(sys.Va(qa_samples) - np.einsum("i,...i->...", s_a, qa_samples) - c0)
        k = int(np.argmax(resid))
        status = STATUS_SAMPLED if resid[k] <= 1e-9 else STATUS_FAIL
        report.checks["A8"] = AssumptionCheck(status, residual=float(resid[k]),
                                              witness=qa_samples[k])

    # A9: smallest singular value of the coupling block, plus an injectivity
    # screen on the unactuated potential gradient
    sigmas = np.linalg.svd(sys.mau(qu_samples), compute_uv=False).min(axis=-1)
    k = int(np.argmin(sigmas))
    if sigmas.max() < 1e-9:
        report.checks["A9"] = AssumptionCheck(
            STATUS_FAIL, residual=float(sigmas.max()), witness=qu_samples[k],
            note=f"rank of the coupling block below {sys.s} at every sample")
    else:
        pair = _gradient_collision(qu_samples, sys.gradVu(qu_samples))
        if pair is None:
            report.checks["A9"] = AssumptionCheck(
                STATUS_SAMPLED, residual=float(sigmas[k]), witness=qu_samples[k],
                note=f"worst coupling singular value {sigmas[k]:.3e}")
        else:
            report.checks["A9"] = AssumptionCheck(
                STATUS_FAIL, residual=float(sigmas[k]), witness=qu_samples[list(pair)],
                note="gradient of the unactuated potential collides at two samples")
    return report


_COLLISION_BLOCK = 1 << 14  # sample pairs per block of the A9 screen


def _gradient_collision(q: Array, grads: Array):
    """First sample pair ``(i, j)``, ``i < j`` in row-major order, that lies
    apart (``|q_j - q_i| > 1e-6``) but shares its gradient (``|g_j - g_i| <
    1e-9``), or ``None``.  Distances are taken a block of rows at a time, so
    no temporary grows to ``n^2``."""
    n = len(q)
    rows = max(1, _COLLISION_BLOCK // n)
    qT, gT = q.T.copy(), grads.T.copy()  # coordinates first: the sums run over rows

    def dist(xT, i0, i1):  # [r, c]: |x_j - x_i| for i = i0 + r, j = i0 + 1 + c
        d = xT[:, None, i0 + 1:] - xT[:, i0:i1, None]
        d *= d
        return np.sqrt(d.sum(axis=0))

    for i0 in range(0, n - 1, rows):
        i1 = min(i0 + rows, n - 1)
        bad = np.triu((dist(qT, i0, i1) > 1e-6) & (dist(gT, i0, i1) < 1e-9))
        if bad.any():
            r, c = np.unravel_index(np.argmax(bad), bad.shape)
            return i0 + int(r), i0 + 1 + int(c)
    return None


def scan_A5(sys: MechanicalSystem, gains: Gains, q_u_grid) -> dict:
    """Determinant of the well-posedness matrix over a grid of ``q_u``.

    Reports the minimum magnitude, its location, and whether the determinant
    changes sign between neighbouring grid points (a singularity inside the
    range); it passes with no sign change and no point below :func:`.det_floor`.
    """
    grid = np.atleast_2d(np.asarray(q_u_grid, dtype=float).reshape(-1, sys.s))
    with shared_samples(grid):  # K and its Schur complement share m_au
        dets = np.linalg.det(wellposedness_matrix_K(sys, gains, grid))
    k = int(np.argmin(np.abs(dets)))
    crossing = bool(np.any(np.sign(dets[:-1]) * np.sign(dets[1:]) < 0))
    ok = (not crossing) and abs(dets[k]) >= det_floor(gains)
    return {"pass": ok, "min_abs_det": float(np.abs(dets[k])), "witness": grid[k],
            "sign_change": crossing, "dets": dets}


# ---------------------------------------------------------------------------
# Shaped energy (closed-loop Lyapunov data)
# ---------------------------------------------------------------------------

def desired_inertia_Md(sys: MechanicalSystem, gains: Gains, q_u: Array) -> Array:
    """Shaped inertia matrix of the closed loop.

    Its quadratic form reproduces the gain-weighted kinetic storage plus the
    derivative-term square, which is the identity the tests pin down.
    """
    k_e, k_a, k_u = gains.k_e, gains.k_a, gains.k_u
    K_D = gains.K_D
    q_u = _points(q_u, sys.s)
    mau = sys.mau(q_u)
    mauT = _T(mau)
    muu_s = schur_unactuated(sys, q_u)
    maa_inv = sys.maa_inv
    coup = mauT @ maa_inv @ mau
    A = k_e * k_u * muu_s + k_e * k_a * coup \
        + (k_a - k_u) ** 2 * mauT @ maa_inv @ K_D @ maa_inv @ mau
    off = k_e * k_a * mauT + k_a * (k_a - k_u) * mauT @ maa_inv @ K_D
    return _block2x2(0.5 * (A + _T(A)), off, _T(off), k_e * k_a * sys.maa + k_a ** 2 * K_D)


def _shaped_potential(sys: MechanicalSystem, gains: Gains, q_u: Array, q_a: Array,
                      vn_star: Array):
    v = gains.k_a * (q_a - gains.q_a_star) \
        + (gains.k_a - gains.k_u) * (potential_integral_VN(sys, q_u) - vn_star)
    return gains.k_e * gains.k_u * sys.Vu(q_u) + 0.5 * _quad(v, gains.K_I)


def desired_potential_Vd(sys: MechanicalSystem, gains: Gains, q: Array):
    """Shaped potential with its critical point at the target position."""
    return lyapunov_Hd_and_U(sys, gains).V_d(q)


@dataclass(frozen=True)
class LyapunovData:
    """Evaluators for the shaped energy and its integrator-sided twin."""

    sys: MechanicalSystem
    gains: Gains
    vn_star: Array

    def V_d(self, q: Array):
        """Shaped potential at ``q``, with the stored ``V_N(q_u*)``."""
        q = _points(q, self.sys.n)
        return _shaped_potential(self.sys, self.gains, q[..., : self.sys.s],
                                 q[..., self.sys.s:], self.vn_star)

    def H_d(self, st: State):
        """``qd^T M_d qd / 2 + V_d``."""
        Md = desired_inertia_Md(self.sys, self.gains, st.q_u)
        return 0.5 * _quad(st.qd, Md) \
            + _shaped_potential(self.sys, self.gains, st.q_u, st.q_a, self.vn_star)

    def U(self, st: State, z1: Array):
        """Gain-weighted storage pair plus the derivative and integrator
        squares; the pair is :func:`robust_storage` in ``robust_A8`` mode."""
        g = self.gains
        z1 = _points(z1, self.sys.m)
        if g.mode == "robust_A8":
            store_u, store_a = robust_storage(self.sys, st)
        else:
            store_u, store_a, _ = storage_functions(self.sys, st)
        y_d = passive_outputs(self.sys, st, g).y_d
        return g.k_e * (g.k_a * store_a + g.k_u * store_u) \
            + 0.5 * _quad(y_d, g.K_D) + 0.5 * _quad(z1, g.K_I)


def lyapunov_Hd_and_U(sys: MechanicalSystem, gains: Gains) -> LyapunovData:
    """Build the shaped-energy evaluators for a gain set.

    At the position-function integrator ``U`` (storage plus integrator square)
    equals ``H_d``, plus in ``robust_A8`` mode the constant ``k_e (k_a V_a(q_a*)
    + (k_a - k_u) V_0(q_u*)) + k_e^2 s_a^T K_I^{-1} s_a / 2`` (``V_0`` the holding
    potential); the two take different paths, so the match is a real check.
    """
    return LyapunovData(sys=sys, gains=gains,
                        vn_star=potential_integral_VN(sys, gains.q_u_star))


# ---------------------------------------------------------------------------
# Finite differences for the shaped-potential certificates
# ---------------------------------------------------------------------------

def fd_gradient(fn: Callable[[Array], Array], x: Array) -> Array:
    """Fourth-order central-difference gradient; ``fn`` maps a stack of
    points of shape ``(k, n)`` to their ``k`` values and is called once."""
    x = np.asarray(x, dtype=float)
    return _central(np.reshape(fn(_stencil(x).reshape(-1, x.size)), (4, x.size)))


def fd_hessian(fn: Callable[[Array], Array], x: Array) -> Array:
    """Hessian from fourth-order differences of the gradient; ``fn`` as in
    :func:`fd_gradient`, called once on the stencil of stencils."""
    x = np.asarray(x, dtype=float)
    n = x.size
    v = np.reshape(fn(_stencil(_stencil(x)).reshape(-1, n)), (4, n, 4, n))
    H = _central(np.moveaxis(_central(v), 1, 0))  # [i, k]: d/dx_k of component i
    return 0.5 * (H + H.T)


@dataclass
class A7Result:
    passed: bool
    min_eig_profile: Array
    grid: Array
    grad_norm: float
    hessian: Array
    hessian_eigs: Array
    note: str = ("grid-local certificate: positive definiteness is checked at the "
                 "grid points and at the target only, not globally")


def check_A7(sys: MechanicalSystem, gains: Gains, q_u_grid) -> A7Result:
    """Gain admissibility: shaped inertia positive definite on the grid and
    shaped potential with a verified isolated minimum at the target."""
    grid = np.atleast_2d(np.asarray(q_u_grid, dtype=float).reshape(-1, sys.s))
    with shared_samples(grid):  # M_d and its Schur complement share m_au
        profile = np.linalg.eigvalsh(desired_inertia_Md(sys, gains, grid)).min(axis=-1)
    Vd = lyapunov_Hd_and_U(sys, gains).V_d
    grad = fd_gradient(Vd, gains.q_star)
    hess = fd_hessian(Vd, gains.q_star)
    hess_eigs = np.linalg.eigvalsh(hess)
    passed = bool(profile.min() > 0.0 and np.linalg.norm(grad) <= A7_GRAD_TOL
                  and hess_eigs.min() > 0.0)
    return A7Result(passed=passed, min_eig_profile=profile, grid=grid,
                    grad_norm=float(np.linalg.norm(grad)), hessian=hess,
                    hessian_eigs=hess_eigs)


# ---------------------------------------------------------------------------
# Closed loop linearised at the target: polynomial matrix and Hurwitz test
# ---------------------------------------------------------------------------

# real shifts of linear_closed_loop, the second where the first is a pole; both
# positive, so a loop with a pole at or near a shift is unstable whatever its roots
POLE_SHIFTS = (1.0, 2.0 ** 0.5)


@dataclass
class LinearClosedLoop:
    coeff_s2: Array
    coeff_s1: Array
    coeff_s0: Array
    roots: Array
    max_real: float
    hurwitz: bool


def linear_closed_loop(sys: MechanicalSystem, gains: Gains) -> LinearClosedLoop:
    """Quadratic polynomial matrix of the closed loop linearised at the
    target ``(q*, 0)``, and its local stability verdict.

    At rest on the target the Coriolis terms vanish to first order, so every
    plant of the class linearises with the inertia ``M(q_u*)``, the
    stiffness ``S_u = Hess V_u(q_u*)`` (the symmetrised fourth-order
    difference of ``gradVu``, one batched call) and the integrator coupling
    ``m0 = (k_a - k_u) m_aa^{-1} m_au(q_u*)``; on a linear plant this is the
    exact closed loop.  The equilibrium is locally exponentially stable
    exactly when the determinant of ``C2 s^2 + C1 s + C0`` is a Hurwitz
    polynomial, and ``max_real`` is then the local decay rate.  The poles
    are those of the first-order pencil ``A - s B``, ``A = [[0, I], [-C0,
    -C1]]``, ``B = diag(I, C2)``, found by shift-invert: each eigenvalue
    ``mu`` of ``X = (A - sigma B)^{-1} B`` is a pole ``sigma + 1/mu``.  A
    ``mu`` within numpy's rank tolerance of zero (``2n eps ||X||_2``, as in
    ``matrix_rank``) is an infinite pole.  ``C2`` is singular exactly when A5
    fails at the target; the loop then has an infinite pole, ``max_real`` is
    ``inf`` and it is never reported Hurwitz.  ``sigma`` is the first of
    :data:`POLE_SHIFTS`, the second only where the first is itself a pole
    (LAPACK finds ``A - sigma B`` exactly singular).  A pencil singular at
    both shifts (``det(C2 s^2 + C1 s + C0)`` vanishing identically, as for
    an unactuated coordinate without inertia) has NaN roots and is not
    Hurwitz.  The roots come in ``np.sort_complex`` order.
    """
    q_u_star = gains.q_u_star
    M = assemble_inertia(sys, q_u_star)
    J = _central(sys.gradVu(_stencil(q_u_star)))  # [k, i]: d/dq_k of component i
    S_u = 0.5 * (J + J.T)
    s, n = sys.s, sys.n
    muu = M[:s, :s]
    mau = M[s:, :s]
    k_e, k_a, k_u = gains.k_e, gains.k_a, gains.k_u
    m0 = (k_a - k_u) * sys.maa_inv @ mau

    C2 = np.zeros((n, n))
    C2[:s, :s] = muu
    C2[:s, s:] = mau.T
    C2[s:, :s] = mau + gains.K_D @ m0 / k_e
    C2[s:, s:] = sys.maa + k_a * gains.K_D / k_e
    C1 = np.zeros((n, n))
    C1[s:, :s] = gains.K_P @ m0 / k_e
    C1[s:, s:] = k_a * gains.K_P / k_e
    C0 = np.zeros((n, n))
    C0[:s, :s] = S_u
    C0[s:, :s] = gains.K_I @ m0 / k_e
    C0[s:, s:] = k_a * gains.K_I / k_e

    I, O = np.eye(n), np.zeros((n, n))
    A = np.block([[O, I], [-C0, -C1]])
    B = np.block([[I, O], [O, C2]])
    roots = np.full(2 * n, complex(np.nan, 0.0))  # a pencil singular at every shift
    for sigma in POLE_SHIFTS:
        try:
            X = np.linalg.solve(A - sigma * B, B)
        except np.linalg.LinAlgError:  # sigma is a pole
            continue
        mu = np.linalg.eigvals(X)
        finite = np.abs(mu) > 2 * n * np.finfo(float).eps * np.linalg.norm(X, 2)
        roots[:] = np.inf
        roots[finite] = sigma + 1.0 / mu[finite]
        break
    roots = np.sort_complex(roots)
    max_real = float(roots.real.max())
    return LinearClosedLoop(
        coeff_s2=C2, coeff_s1=C1, coeff_s0=C0, roots=roots, max_real=max_real,
        hurwitz=bool(max_real < -1e-8))
