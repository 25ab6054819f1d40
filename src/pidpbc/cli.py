"""Command-line front end.

Commands:
  check      assumption report plus gain-certificate scans for a scenario
  simulate   run the closed loop, write the trace record (trace.npy) and a summary;
             --csv also exports trace.csv
  sweep      vary one gain over a list of values and tabulate the outcomes
  reproduce  run a pinned bundled example and assert its expected outcomes

Exit codes: 0 success, 2 assumption failure, 3 runtime singularity,
4 acceptance failure, 5 invalid input (a malformed or unreadable scenario or --values,
or a plant whose coupling potential V_N cannot be computed), 6 output could not be
written (an --out that cannot be a writable directory, found before any run, or a
failed write; a failed trace write leaves no partial trace file).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys as _stdsys
import warnings
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from . import analysis, scenario as scn, sim
from .controller import Gains, GainSignWarning
from .passivity import IntegrabilityError, QuadratureError
from .sim import SimulationAborted

EXIT_OK = 0
EXIT_ASSUMPTION = 2
EXIT_SINGULARITY = 3
EXIT_ACCEPTANCE = 4
EXIT_INPUT = 5
EXIT_OUTPUT = 6

# `reproduce`: position error and speed bound over the trailing window of
# every setpoint segment
SETTLE_TOL = 0.01
SETTLE_WINDOW = 1.0  # s

SWEEP_PARAMS = ("k_a", "k_u", "k_e", "K_P", "K_I", "K_D", "a")


def _load(args) -> scn.Scenario:
    sc = scn.load_scenario(args.scenario)
    overrides = {key: value for key in ("dt", "t_end", "controller")
                 if (value := getattr(args, key, None)) is not None}
    return replace(sc, **overrides) if overrides else sc


class OutputError(Exception):
    """An output path that cannot be written; the message names it."""


@contextmanager
def _writing(path: Path):
    """``path``, its directory made; an OSError in the block is an :class:`OutputError`."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        yield path
    except OSError as exc:
        raise OutputError(f"{path}: {exc}") from exc


def _usable_out(path) -> Path:
    """``path`` if its nearest existing ancestor is a writable directory, else
    :class:`OutputError`; creates nothing, so rejected input leaves no output."""
    near = Path(path).absolute()
    while not os.path.exists(near):  # False, not an error, where it cannot look
        near = near.parent
    if not (near.is_dir() and os.access(near, os.W_OK | os.X_OK)):
        raise OutputError(f"{path}: {near} is not a writable directory")
    return Path(path)


def _write(path: Path, text: str):
    with _writing(path):
        path.write_text(text)


def _finite_or_null(value):
    """``value`` with each non-finite float, at any depth, as ``None``."""
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return None if isinstance(value, (float, np.floating)) and not np.isfinite(value) else value


def _json(payload: dict) -> str:
    """Strict JSON of ``payload``: a non-finite float (an unsettled run's
    ``settle_time``, the approximate law's ``min_abs_detK``) is ``null``."""
    return json.dumps(_finite_or_null(payload), indent=2, default=float, allow_nan=False)


def _write_json(path: Path, payload: dict):
    _write(path, _json(payload) + "\n")


def _gains_payload(gains: Gains) -> dict:
    return {
        "k_e": gains.k_e, "k_a": gains.k_a, "k_u": gains.k_u,
        "K_P": gains.K_P.tolist(), "K_I": gains.K_I.tolist(),
        "K_D": gains.K_D.tolist(), "mode": gains.mode,
        "q_u_star": gains.q_u_star.tolist(), "q_a_star": gains.q_a_star.tolist(),
        "filter_a": gains.filter_a,
    }


def _run_checks(sc: scn.Scenario) -> tuple:
    report = analysis.check_assumptions(sc.system, sc.check_box,
                                        n_samples=sc.check_samples, seed=sc.seed)
    a5 = analysis.scan_A5(sc.system, sc.gains, sc.gate_grid)
    text = report.to_text() + "\n"
    text += (f"  A5 [{'pass' if a5['pass'] else 'FAIL':>12}]  scan on gate grid: "
             f"min |det K| = {a5['min_abs_det']:.4g}\n")
    if report.checks["A6"].status == analysis.STATUS_FAIL:
        # V_N, which shapes the potential A7 scans, exists only under A6
        a7_scan = {"skipped": "coupling rows are not gradient fields (A6), so V_N does not exist"}
        text += f"  A7 [{'skipped':>12}]  {a7_scan['skipped']}"
    else:
        a7 = analysis.check_A7(sc.system, sc.gains, sc.gate_grid)
        a7_scan = {"pass": a7.passed, "min_eig_Md": float(a7.min_eig_profile.min()),
                   "grad_norm_Vd_at_target": a7.grad_norm,
                   "hessian_eigs_Vd_at_target": a7.hessian_eigs.tolist()}
        text += (f"  A7 [{'pass' if a7.passed else 'FAIL':>12}]  scan on gate grid: "
                 f"min eig of shaped inertia = {a7.min_eig_profile.min():.4g}, "
                 f"|grad Vd(target)| = {a7.grad_norm:.3g}")
    payload = {
        "assumptions": report.to_dict(),
        "A5_scan": {"pass": a5["pass"], "min_abs_det": a5["min_abs_det"],
                    "witness": np.atleast_1d(a5["witness"]).tolist(),
                    "sign_change": a5["sign_change"]},
        "A7_scan": a7_scan,
        "gate_grid_bounds": [[float(sc.gate_grid[:, j].min()),
                              float(sc.gate_grid[:, j].max())]
                             for j in range(sc.gate_grid.shape[1])],
    }
    return payload, report.passed and a5["pass"] and a7_scan.get("pass", False), text


def cmd_check(args) -> int:
    sc = _load(args)
    out = _usable_out(args.out) if args.out else None
    payload, ok, text = _run_checks(sc)
    if not sc.gains.sign_consistent:
        text += ("\n  note: outer gain signs differ, so the L2 disturbance bound "
                 "does not apply (deliberate for swing-up style shaping)")
    print(text)
    if out:
        _write_json(out / "check.json", payload)
        _write(out / "check.txt", text + "\n")
    return EXIT_OK if ok else EXIT_ASSUMPTION


def _summarize(sc: scn.Scenario, trace: sim.Trace) -> dict:
    conv = sim.detect_convergence(trace, trace.segments[-1][2].q_star, tol_q=0.01,
                                  tol_v=0.01, window=min(0.5, sc.t_end / 10))
    summary = {
        "label": sc.label,
        "controller": trace.controller,
        "gains": _gains_payload(sc.gains),
        "dt": trace.dt,
        "t_end": float(trace.t[-1]),
        "min_abs_detK": trace.min_abs_detK,
        "converged": conv["converged"],
        "settle_time": conv["settle_time"],
        "peak_abs_u": float(np.abs(trace.u).max()),
        "final_q": np.hstack([trace.q_u[-1], trace.q_a[-1]]).tolist(),
        "passivity_residual_u_to_yu": sim.verify_passivity(trace, "u->y_u"),
        "passivity_residual_u_to_ya": sim.verify_passivity(trace, "u->y_a"),
    }
    if trace.Hbar_u is not None:
        summary["passivity_residual_tau_to_ybar_u"] = sim.verify_passivity(trace, "tau->ybar_u")
        summary["passivity_residual_tau_to_ybar_a"] = sim.verify_passivity(trace, "tau->ybar_a")
    lyap = sim.verify_lyapunov(trace)
    summary["lyapunov_residual"] = lyap["max_residual"]
    summary["lyapunov_monotone"] = lyap["monotone"]
    summary["z1_closed_form_gap"] = float(np.abs(trace.z1 - trace.z1_closed).max())
    l2 = sim.verify_l2_gain(trace)
    summary["l2_gain"] = {k: v for k, v in l2.items() if not isinstance(v, np.ndarray)}
    return summary


def _simulate_and_write(sc: scn.Scenario, out: Path, extra: dict, csv_export: bool):
    """Run the scenario, then write the trace record, its column map, the
    summary plus ``extra`` and, with ``csv_export``, the trace CSV into
    ``out``; ``(trace, summary)``.  A failed trace write leaves no partial
    trace file."""
    trace = sim.simulate(sc.system, sc.gains, sc.q0, sc.qd0, sc.t_end, sc.dt,
                         controller=sc.controller, disturbance=sc.disturbance,
                         setpoints=sc.setpoints)
    with _writing(out / "trace.npy") as path:
        sim.write_trace(trace, path)
    if csv_export:
        with _writing(out / "trace.csv") as path:
            sim.write_trace_csv(trace, path)
    with _writing(out / "trace.columns") as path:
        sim.write_column_map(trace, path)
    summary = {**_summarize(sc, trace), **extra}
    _write_json(out / "summary.json", summary)
    return trace, summary


def cmd_simulate(args) -> int:
    sc = _load(args)
    out = _usable_out(args.out)
    trace, summary = _simulate_and_write(sc, out, {}, args.csv)
    print(f"wrote {out / 'trace.npy'} ({trace.n_samples} samples)")
    print(_json({k: summary[k] for k in ("converged", "settle_time", "peak_abs_u",
                                         "min_abs_detK", "lyapunov_residual")}))
    return EXIT_OK


def _sweep_gains(base: Gains, param: str, value: float) -> Gains:
    if param in ("k_a", "k_u", "k_e"):
        return replace(base, **{param: value})
    if param == "a":
        return replace(base, filter_a=value)
    return replace(base, **{param: value * getattr(base, param)})


def cmd_sweep(args) -> int:
    try:
        values = [float(v) for v in args.values.split(",")]
    except ValueError:
        print(f"invalid --values {args.values!r}: need numbers", file=_stdsys.stderr)
        return EXIT_INPUT
    sc = _load(args)
    out = _usable_out(args.out)
    fields = ("value", "status", "settle_time", "peak_abs_u", "min_abs_detK", "a7", "dissipated")
    rows = []
    for value in values:
        row = {**dict.fromkeys(fields, ""), "value": value}
        try:
            gains = _sweep_gains(sc.gains, args.param, value)
        except ValueError as exc:
            row["status"] = f"rejected: {exc}"
            rows.append(row)
            continue
        # A7 is a sufficient certificate only, so a failing scan is marked but
        # the value is still simulated; a singular well-posedness matrix at
        # the anchor points would abort immediately, so that one gates.
        a7 = analysis.check_A7(sc.system, gains, sc.gate_grid)
        row["a7"] = "pass" if a7.passed else "marked"
        anchors = np.vstack([sc.q0[: sc.system.s].reshape(1, -1),
                             gains.q_u_star.reshape(1, -1)])
        a5 = analysis.scan_A5(sc.system, gains, anchors)
        if not a5["pass"]:
            row["status"] = "singular at anchors: not simulated"
            rows.append(row)
            continue
        try:
            trace = sim.simulate(sc.system, gains, sc.q0, sc.qd0, sc.t_end, sc.dt,
                                 controller=sc.controller, disturbance=sc.disturbance,
                                 setpoints=sc.setpoints)
        except SimulationAborted as exc:
            row["status"] = f"aborted: {exc}"
            rows.append(row)
            continue
        conv = sim.detect_convergence(trace, trace.segments[-1][2].q_star, 0.01, 0.01,
                                      window=min(0.5, sc.t_end / 10))
        diss = sim.verify_lyapunov(trace)["dissipation"]
        row.update(status="simulated",
                   settle_time=conv["settle_time"] if conv["converged"] else "not-settled",
                   peak_abs_u=f"{np.abs(trace.u).max():.4g}",
                   min_abs_detK=f"{trace.min_abs_detK:.4g}",
                   dissipated=f"{np.trapezoid(diss, dx=trace.dt):.6g}")
        rows.append(row)

    # a status may carry commas (a singular-K abort names q_u), so fields are quoted
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    table = buf.getvalue()
    print(table, end="")
    _write(out / f"sweep_{args.param}.csv", table)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    name = args.example
    failures = []
    doc = scn.builtin_scenario(name)
    sc = scn.scenario_from_dict(doc)
    out = _usable_out(args.out)
    _write(out / "scenario.yaml", yaml.safe_dump(doc, sort_keys=False))

    payload, checks_ok, text = _run_checks(sc)
    print(text)
    _write_json(out / "check.json", payload)
    if not checks_ok:
        failures.append("assumption/gain checks failed on the scenario gate grid")

    lcl = analysis.linear_closed_loop(sc.system, sc.gains)
    extra = {"hurwitz": lcl.hurwitz, "max_real": lcl.max_real}
    if not lcl.hurwitz:
        failures.append("closed loop linearised at the target is not Hurwitz")
    if name.startswith("cart_pendulum"):
        # informational: the shaped-inertia certificate on a symmetric grid
        # about the upright position; for the bundled gains it is known to
        # fail near the lower edge even though the run itself converges
        a7_sym = analysis.check_A7(sc.system, sc.gains,
                                   np.linspace(-np.pi / 3, np.pi / 3, 121).reshape(-1, 1))
        extra["a7_symmetric_grid"] = {
            "pass": a7_sym.passed,
            "min_eig_Md": float(a7_sym.min_eig_profile.min()),
            "note": "informational; the gating certificate uses the scenario gate grid",
        }
    trace, summary = _simulate_and_write(sc, out, extra, args.csv)

    # every setpoint segment ends settled on its own target
    q = np.hstack([trace.q_u, trace.q_a])
    speed = np.linalg.norm(np.hstack([trace.qd_u, trace.qd_a]), axis=1)
    n_window = int(round(SETTLE_WINDOW / trace.dt))
    for i, (k0, k1, g) in enumerate(trace.segments, 1):
        tail = slice(max(k0, k1 - n_window), k1 + 1)
        if (np.abs(q[tail] - g.q_star).max() > SETTLE_TOL
                or speed[tail].max() > SETTLE_TOL):
            failures.append(f"setpoint segment {i} ({k0 * trace.dt:g}-{k1 * trace.dt:g}s) "
                            f"not settled on {g.q_star.tolist()} over its last "
                            f"{SETTLE_WINDOW:g}s")
    if not trace.min_abs_detK > 0:
        failures.append("well-posedness monitor saw a singular point")
    if summary["lyapunov_residual"] > 1e-3:
        failures.append(f"dissipation identity residual {summary['lyapunov_residual']:.3g}")
    if summary["z1_closed_form_gap"] > 1e-6:
        failures.append(f"integrator vs closed form gap {summary['z1_closed_form_gap']:.3g}")

    if failures:
        print("reproduction FAILED:", file=_stdsys.stderr)
        for f in failures:
            print(f"  - {f}", file=_stdsys.stderr)
        _write_json(out / "failures.json", {"failures": failures})
        return EXIT_ACCEPTANCE
    print(f"reproduction OK; artifacts in {out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pidpbc",
        description="PID passivity-based control of underactuated mechanical systems")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", required=True, help="scenario YAML file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--dt", type=float, default=None, help="override time step [s]")
        p.add_argument("--t-end", dest="t_end", type=float, default=None,
                       help="override horizon [s]")
        p.add_argument("--controller", choices=sim.CONTROLLERS, default=None,
                       help="override controller form")

    p_check = sub.add_parser("check", help="assumption and gain-certificate checks")
    p_check.add_argument("--scenario", required=True)
    p_check.add_argument("--out", default=None)
    p_check.set_defaults(func=cmd_check)

    p_sim = sub.add_parser("simulate", help="closed-loop run with trace/summary output")
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="vary one gain over a list of values")
    add_common(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values (scale factors for K_P/K_I/K_D); "
                              "use --values=-450,-500 for negative lists")
    p_sweep.set_defaults(func=cmd_sweep)

    p_rep = sub.add_parser("reproduce", help="run a pinned bundled example")
    p_rep.add_argument("example", choices=scn.EXAMPLES)
    p_rep.add_argument("--out", default="out")
    p_rep.set_defaults(func=cmd_reproduce)
    for p in (p_sim, p_rep):
        p.add_argument("--csv", action="store_true",
                       help="also export the trace as trace.csv (17 significant digits)")

    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():  # the caller's filters come back unchanged
            warnings.simplefilter("ignore", GainSignWarning)
            return args.func(args)
    except (scn.ScenarioError, IntegrabilityError, QuadratureError) as exc:
        print(f"invalid scenario: {exc}", file=_stdsys.stderr)
        return EXIT_INPUT
    except SimulationAborted as exc:
        print(f"simulation aborted: {exc}", file=_stdsys.stderr)
        return EXIT_SINGULARITY
    except OutputError as exc:
        print(f"output could not be written: {exc}", file=_stdsys.stderr)
        return EXIT_OUTPUT


if __name__ == "__main__":
    raise SystemExit(main())
