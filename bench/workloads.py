"""The four closed-loop workloads of the benchmark.

Each workload is a fixed sequence of operations that one client runs in a
closed loop: an operation starts only after the previous one has returned.
``prepare`` builds the inputs from the seed, and every operation's outcome is
compared with its pinned expectation by ``Op.check``, outside the timed
region.

All calls into pidpbc go through module attributes (``sim.simulate``, not a
name imported from the package), so the traced run can put spans around them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from pidpbc import GainSignWarning, analysis, cli, controller, scenario as scn, sim

import synth

NAMES = ("reproduce", "sweep", "generic_2dof", "quadrature_2dof")

REPRODUCE_EXAMPLES = ("cart_pendulum", "cart_pendulum_ku450", "linear")

SWEEP_SCENARIO = "cart_pendulum"
SWEEP_PARAM = "k_u"
SWEEP_PROBE_VALUE = -500.0          # the bundled gain; its trajectory feeds the probes
# (status class, a7 column, settling) of every row of
# `pidpbc sweep --param k_u --values=-300,-400,-500,-600,-1000` on the bundled
# cart_pendulum scenario, as the command printed them before this benchmark
SWEEP_EXPECTED = {
    -300.0: ("aborted", "marked", ""),
    -400.0: ("simulated", "marked", "settled"),
    -500.0: ("simulated", "pass", "settled"),
    -600.0: ("simulated", "pass", "settled"),
    -1000.0: ("simulated", "pass", "not-settled"),
}

# tolerances of `pidpbc reproduce`
LYAPUNOV_TOL = 1e-3
Z1_GAP_TOL = 1e-6
# the quadrature run must integrate the same states as the closed-form run:
# V_N only enters the integrator start (to the quadrature tolerance 1e-10)
# and the recorded diagnostics
STATE_MATCH_TOL = 1e-8
# scan results against the per-point public functions, relative to the
# largest magnitude on the grid; the finite-difference Hessian at the target
# is noisier (step 1e-5), so its eigenvalues get a looser tolerance
SCAN_MATCH_TOL = 1e-10
HESSIAN_MATCH_TOL = 1e-6
QUADRATURE_T_END = 0.5
ASSUMPTION_SAMPLES = 400

_ABORT_TIME = re.compile(r"at t=([-+0-9.eE]+)s")


def steps_before_abort(message: str, dt: float) -> int:
    """Closed-loop steps integrated before an abort, read from its message."""
    match = _ABORT_TIME.search(message)
    if match is None:
        raise ValueError(f"no abort time in {message!r}")
    return int(math.floor(float(match.group(1)) / dt + 1e-9))


@dataclass
class Op:
    """One operation of a pass.

    ``run(ctx)`` is timed; ``check(outcome, ctx)`` returns the mismatches
    against the pinned expectation and ``steps(outcome, ctx)`` the closed-loop
    RK4 steps the operation integrated.  ``ctx`` carries the pass's output
    directory and what earlier operations of the pass produced.
    """

    name: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], list]
    steps: Callable[[object, dict], int] = lambda outcome, ctx: 0


@dataclass
class Workload:
    name: str
    ops: list
    # picks (system with a closed-form V_N, gains, trace) for the layer probes
    # from the (op name, trace) pairs of the simulate calls of a traced pass
    probe: Callable[[list], tuple]


@dataclass
class CliOutcome:
    rc: int
    out: Path
    stderr: str


def _cli(argv: list, out: Path) -> CliOutcome:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv + ["--out", str(out)])
    return CliOutcome(rc, out, err.getvalue())


# ---------------------------------------------------------------------------
# Inputs (what the set-up time covers)
# ---------------------------------------------------------------------------

@dataclass
class SweepInputs:
    scenario_path: Path
    scenario: object
    values: list


def build_inputs(name: str, seed: int, workdir: Path):
    """Scenarios, plants and gains of one workload, built from ``seed``."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; options: {NAMES}")
    rng = np.random.default_rng(seed)
    with warnings.catch_warnings():
        # the bundled gains are sign-indefinite on purpose (swing-up shaping)
        warnings.simplefilter("ignore", GainSignWarning)
        return _build_inputs(name, rng, seed, workdir)


def _build_inputs(name, rng, seed, workdir):
    if name == "reproduce":
        order = [REPRODUCE_EXAMPLES[i] for i in rng.permutation(len(REPRODUCE_EXAMPLES))]
        # `pidpbc reproduce` builds its own scenarios; these are built only so
        # that the set-up time covers building the scenario, plant and gains
        for ex in order:
            scn.scenario_from_dict(scn.builtin_scenario(ex))
        return order
    if name == "sweep":
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / f"{SWEEP_SCENARIO}.yaml"
        path.write_text(yaml.safe_dump(scn.builtin_scenario(SWEEP_SCENARIO), sort_keys=False))
        values = [list(SWEEP_EXPECTED)[i] for i in rng.permutation(len(SWEEP_EXPECTED))]
        return SweepInputs(path, scn.load_scenario(path), values)
    mode = "robust_A8" if name == "generic_2dof" else "cancel_Va"
    return synth.make_synthetic(seed, mode=mode)


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def _reproduce_op(example: str) -> Op:
    def run(ctx):
        return _cli(["reproduce", example], ctx["out"] / example)

    def check(outcome, ctx):
        if outcome.rc != 0:
            return [f"reproduce {example} exited {outcome.rc}: {outcome.stderr.strip()}"]
        return []

    def steps(outcome, ctx):
        summary = json.loads((outcome.out / "summary.json").read_text())
        return int(round(summary["t_end"] / summary["dt"]))

    return Op(f"reproduce:{example}", run, check, steps)


def _reproduce(seed: int, order: list) -> Workload:
    def probe(simulated):
        trace = next(tr for op, tr in simulated if op == "reproduce:cart_pendulum")
        return trace.system, trace.gains, trace

    return Workload("reproduce", [_reproduce_op(ex) for ex in order], probe)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_rows(out: Path) -> dict:
    with open(out / f"sweep_{SWEEP_PARAM}.csv", newline="") as fh:
        return {float(row["value"]): row for row in csv.DictReader(fh)}


def _settling(settle_time: str) -> str:
    if settle_time == "":
        return ""
    return "not-settled" if settle_time == "not-settled" else "settled"


def _sweep(seed: int, inputs: SweepInputs) -> Workload:
    sc = inputs.scenario
    argv = ["sweep", "--scenario", str(inputs.scenario_path), "--param", SWEEP_PARAM,
            "--values=" + ",".join(f"{v:g}" for v in inputs.values)]

    def run(ctx):
        return _cli(argv, ctx["out"] / "sweep")

    def check(outcome, ctx):
        if outcome.rc != 0:
            return [f"sweep exited {outcome.rc}: {outcome.stderr.strip()}"]
        rows = _sweep_rows(outcome.out)
        if sorted(rows) != sorted(SWEEP_EXPECTED):
            return [f"sweep rows {sorted(rows)} != {sorted(SWEEP_EXPECTED)}"]
        bad = []
        for value, expected in SWEEP_EXPECTED.items():
            row = rows[value]
            got = (row["status"].split(":")[0], row["a7"], _settling(row["settle_time"]))
            if got != expected:
                bad.append(f"sweep {SWEEP_PARAM}={value:g}: got {got}, expected {expected}")
        return bad

    def steps(outcome, ctx):
        total = 0
        for row in _sweep_rows(outcome.out).values():
            if row["status"] == "simulated":
                total += int(round(sc.t_end / sc.dt))
            elif row["status"].startswith("aborted"):
                total += steps_before_abort(row["status"], sc.dt)
        return total

    def probe(simulated):
        trace = next(tr for _, tr in simulated if tr.gains.k_u == SWEEP_PROBE_VALUE)
        return trace.system, trace.gains, trace

    return Workload("sweep", [Op("sweep", run, check, steps)], probe)


# ---------------------------------------------------------------------------
# generic_2dof and quadrature_2dof
# ---------------------------------------------------------------------------

def _lyapunov_checks(trace, lyap: dict) -> list:
    bad = []
    if lyap["max_residual"] > LYAPUNOV_TOL:
        bad.append(f"dissipation identity residual {lyap['max_residual']:.3g} > {LYAPUNOV_TOL}")
    if not lyap["monotone"]:
        bad.append("shaped energy U is not monotone")
    gap = float(np.abs(trace.z1 - trace.z1_closed).max())
    if gap > Z1_GAP_TOL:
        bad.append(f"integrator vs closed form gap {gap:.3g} > {Z1_GAP_TOL}")
    return bad


def _complete(trace, t_end: float, dt: float) -> list:
    n = int(round(t_end / dt)) + 1
    if trace.n_samples != n:
        return [f"trace has {trace.n_samples} samples, expected {n}"]
    if not np.all(np.isfinite(trace.q_u)) or not np.all(np.isfinite(trace.U)):
        return ["trace has non-finite entries"]
    return []


def _trace_steps(outcome, ctx) -> int:
    return outcome.n_samples - 1


def _mismatch(what: str, got, want, tol: float) -> list:
    """Message if ``got`` differs from ``want`` by more than ``tol`` relative
    to the largest magnitude of ``want``."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape} != {want.shape}"]
    dev = float(np.abs(got - want).max()) / max(float(np.abs(want).max()), 1e-300)
    if dev <= tol:
        return []
    return [f"{what} deviates by {dev:.3g} (relative) from the per-point reference"]


def _scan_reference(plant, gains, grid) -> dict:
    """The A5/A7 scan results rebuilt from the per-point public functions."""
    dets = np.array([np.linalg.det(controller.wellposedness_matrix_K(plant, gains, q))
                     for q in grid])
    profile = np.array([np.linalg.eigvalsh(analysis.desired_inertia_Md(plant, gains, q)).min()
                        for q in grid])
    Vd = lambda q: analysis.desired_potential_Vd(plant, gains, q)  # noqa: E731
    grad_norm = float(np.linalg.norm(analysis.fd_gradient(Vd, gains.q_star)))
    hess_eigs = np.linalg.eigvalsh(analysis.fd_hessian(Vd, gains.q_star))
    return {"dets": dets,
            "sign_change": bool(np.any(np.sign(dets[:-1]) * np.sign(dets[1:]) < 0)),
            "profile": profile, "hessian_eigs": hess_eigs,
            "a7_passed": bool(profile.min() > 0.0 and grad_norm <= 1e-6
                              and hess_eigs.min() > 0.0)}


def _generic(seed: int, syn: synth.Synthetic) -> Workload:
    plant, gains = syn.system, syn.gains
    # reference scan results, made once outside the timed passes
    ref = _scan_reference(plant, gains, syn.gate_grid)

    def assumptions(ctx):
        return analysis.check_assumptions(plant, syn.check_box,
                                          n_samples=ASSUMPTION_SAMPLES, seed=seed)

    def check_assumptions(report, ctx):
        # the plant is built with gradient coupling rows and an affine V_a
        return [f"{k} reported {report.checks[k].status}" for k in ("A6", "A8")
                if report.checks[k].status != analysis.STATUS_SAMPLED]

    def a5(ctx):
        return analysis.scan_A5(plant, gains, syn.gate_grid)

    def check_a5(res, ctx):
        # det K > 0 everywhere for sign-consistent positive gains
        bad = _mismatch("scan_A5 dets", res["dets"], ref["dets"], SCAN_MATCH_TOL)
        if not res["pass"] or res["sign_change"] or ref["sign_change"]:
            bad.append(f"scan_A5 failed on the gate grid: pass {res['pass']}, sign change "
                       f"{res['sign_change']} (reference {ref['sign_change']}), "
                       f"min |det K| {res['min_abs_det']:.3g}")
        return bad

    def a7(ctx):
        return analysis.check_A7(plant, gains, syn.gate_grid)

    def check_a7(res, ctx):
        bad = _mismatch("check_A7 min_eig_profile", res.min_eig_profile, ref["profile"],
                        SCAN_MATCH_TOL)
        bad += _mismatch("check_A7 hessian_eigs", res.hessian_eigs, ref["hessian_eigs"],
                         HESSIAN_MATCH_TOL)
        if res.grad_norm > 1e-6:
            bad.append(f"shaped potential gradient {res.grad_norm:.3g} at the target")
        if res.passed != ref["a7_passed"]:
            bad.append(f"check_A7 passed {res.passed}, reference {ref['a7_passed']}")
        return bad

    def simulate(ctx):
        ctx["trace"] = sim.simulate(plant, gains, syn.q0, syn.qd0, synth.T_END, synth.DT)
        return ctx["trace"]

    def check_simulate(trace, ctx):
        return _complete(trace, synth.T_END, synth.DT)

    def verify(ctx):
        trace = ctx["trace"]
        out = {pair: sim.verify_passivity(trace, pair)
               for pair in ("u->y_u", "u->y_a", "tau->ybar_u", "tau->ybar_a")}
        out["lyapunov"] = sim.verify_lyapunov(trace)
        out["l2"] = sim.verify_l2_gain(trace)
        out["convergence"] = sim.detect_convergence(trace, gains.q_star, 0.01, 0.01, window=0.2)
        out["tail"] = sim.tail_residuals(trace)
        ctx["verified"] = out
        return out

    def check_verify(out, ctx):
        return _lyapunov_checks(ctx["trace"], out["lyapunov"])

    def write_csv(ctx):
        path = ctx["out"] / "trace.csv"
        ctx["out"].mkdir(parents=True, exist_ok=True)
        sim.write_trace_csv(ctx["trace"], path)
        return path

    def check_write(path, ctx):
        return [] if path.stat().st_size > 0 else ["empty trace CSV"]

    def read_csv(ctx):
        cols = sim.read_trace_csv(ctx["out"] / "trace.csv")
        # recompute the summary from the columns alone
        dt = cols["t"][1] - cols["t"][0]
        y_d = np.column_stack([cols[f"y_d{j}"] for j in range(synth.M)])
        diss = np.einsum("ij,jk,ik->i", y_d, gains.K_P, y_d)
        dU = np.gradient(cols["U"], dt)
        lyap = float(np.abs(dU[1:-1] + diss[1:-1]).max() / diss.max())
        gap = max(float(np.abs(cols[f"z1_{j}"] - cols[f"z1_closed_{j}"]).max())
                  for j in range(synth.M))
        return {"rows": cols["t"].size, "lyapunov_residual": lyap, "z1_closed_form_gap": gap}

    def check_read(got, ctx):
        trace = ctx["trace"]
        want = {"rows": trace.n_samples,
                "lyapunov_residual": ctx["verified"]["lyapunov"]["max_residual"],
                "z1_closed_form_gap": float(np.abs(trace.z1 - trace.z1_closed).max())}
        return [f"{k} from the CSV {got[k]!r} != {want[k]!r}" for k in want
                if abs(got[k] - want[k]) > 1e-12 * max(1.0, abs(want[k]))]

    ops = [Op("check_assumptions", assumptions, check_assumptions),
           Op("scan_A5", a5, check_a5),
           Op("check_A7", a7, check_a7),
           Op("simulate", simulate, check_simulate, _trace_steps),
           Op("verify", verify, check_verify),
           Op("write_trace_csv", write_csv, check_write),
           Op("read_trace_csv", read_csv, check_read)]

    def probe(simulated):
        trace = simulated[0][1]
        return plant, gains, trace

    return Workload("generic_2dof", ops, probe)


def _quadrature(seed: int, syn: synth.Synthetic) -> Workload:
    closed = syn.system
    plant = synth.without_closed_form(closed)
    gains = syn.gains
    # reference run with the closed-form V_N, made once outside the timed passes
    ref = sim.simulate(closed, gains, syn.q0, syn.qd0, QUADRATURE_T_END, synth.DT)

    def simulate(ctx):
        return sim.simulate(plant, gains, syn.q0, syn.qd0, QUADRATURE_T_END, synth.DT)

    def check(trace, ctx):
        bad = _complete(trace, QUADRATURE_T_END, synth.DT)
        if bad:
            return bad
        bad = _lyapunov_checks(trace, sim.verify_lyapunov(trace))
        dev = max(float(np.abs(getattr(trace, c) - getattr(ref, c)).max())
                  for c in ("q_u", "q_a", "qd_u", "qd_a"))
        if dev > STATE_MATCH_TOL:
            bad.append(f"states differ from the closed-form V_N run by {dev:.3g}")
        return bad

    def probe(simulated):
        return closed, gains, simulated[0][1]

    return Workload("quadrature_2dof", [Op("simulate", simulate, check, _trace_steps)], probe)


def prepare(name: str, seed: int, workdir: Path) -> Workload:
    inputs = build_inputs(name, seed, workdir)
    builder = {"reproduce": _reproduce, "sweep": _sweep,
               "generic_2dof": _generic, "quadrature_2dof": _quadrature}[name]
    return builder(seed, inputs)
