"""Spans around the public functions of pidpbc's layers, and layer probes.

Used by the traced run only.  ``Tracer.install`` replaces each public
function listed in ``TRACED`` at its module attribute with a wrapper that
records a span (name, start, end, parent, operation id); ``uninstall`` puts
the originals back.  Calls that ``cli`` and the benchmark make through
module attributes become spans.  Calls that a module makes through names it
imported itself stay invisible.

``probe_layers`` times the reference functions of ``passivity``,
``controller``, ``mechanics`` and ``analysis`` per call, on states sampled
from a trace of the workload.
"""

from __future__ import annotations

import inspect
import os
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import pidpbc
from pidpbc import ControllerState, SimulationAborted

import synth
from workloads import steps_before_abort

TRACED = {
    "cli": ("main",),
    "scenario": ("builtin_scenario", "scenario_from_dict", "load_scenario"),
    "sim": ("simulate", "write_trace_csv", "write_column_map", "read_trace_csv",
            "verify_passivity", "verify_lyapunov", "verify_l2_gain",
            "detect_convergence", "tail_residuals"),
    "analysis": ("check_assumptions", "scan_A5", "check_A7", "linear_closed_loop"),
}

VERIFY = ("sim.verify_passivity", "sim.verify_lyapunov", "sim.verify_l2_gain",
          "sim.detect_convergence", "sim.tail_residuals")


@dataclass
class Span:
    name: str
    op: int
    parent: Optional[int]
    start: float
    end: float = float("nan")
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one operation id per benchmark operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.ops: list[dict] = []          # id -> {"name", "pass"}
        self.simulated: list[tuple] = []   # (op name, Trace) of completed simulate calls
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def begin_op(self, name: str, pass_index: int):
        self.ops.append({"name": name, "pass": pass_index})

    def install(self):
        for layer, names in TRACED.items():
            module = getattr(pidpbc, layer)
            for fn_name in names:
                original = getattr(module, fn_name)
                self._saved.append((module, fn_name, original))
                setattr(module, fn_name, self._wrap(f"{layer}.{fn_name}", original))

    def uninstall(self):
        while self._saved:
            module, fn_name, original = self._saved.pop()
            setattr(module, fn_name, original)

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            span = Span(name, len(self.ops) - 1,
                        self._stack[-1] if self._stack else None, time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except SimulationAborted as exc:
                dt = signature.bind(*args, **kwargs).arguments["dt"]
                steps = steps_before_abort(str(exc), dt)
                span.info.update(steps=steps, rhs_evals=4 * steps, aborted=1)
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            self._annotate(span, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def _annotate(self, span: Span, arguments: dict, result):
        if span.name == "sim.simulate":
            steps = result.n_samples - 1
            span.info.update(steps=steps, rhs_evals=4 * steps + 1, aborted=0)
            self.simulated.append((self.ops[span.op]["name"], result))
        elif span.name == "sim.write_trace_csv":
            span.info["bytes"] = os.path.getsize(arguments["path"])
        elif span.name in ("analysis.scan_A5", "analysis.check_A7"):
            span.info["points"] = np.asarray(arguments["q_u_grid"]).size // arguments["sys"].s

    def dump(self) -> dict:
        return {"ops": self.ops,
                "spans": [{"name": s.name, "op": s.op, "parent": s.parent,
                           "start": s.start, "end": s.end, **s.info} for s in self.spans]}


def self_times(spans: list[Span], first: int = 0) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans nest (one thread), so the children never overlap.  ``first`` is the
    index of ``spans[0]`` in the tracer's full list, which parent ids refer to.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None and s.parent >= first:
            child[s.parent - first] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[Span], first: int) -> dict:
    """Per-layer metrics of one traced pass, from its spans."""
    total: dict[str, float] = {}
    info: dict[str, float] = {}
    self_by_layer: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans, first)):
        total[s.name] = total.get(s.name, 0.0) + s.duration
        layer = s.name.split(".")[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + own
        for key, value in s.info.items():
            info[key] = info.get(key, 0) + value
    count = {}
    for s in spans:
        count[s.name] = count.get(s.name, 0) + 1

    def t(name):
        return total.get(name, 0.0)

    simulate_s = t("sim.simulate")
    rhs = info.get("rhs_evals", 0)
    write_s = t("sim.write_trace_csv")
    csv_bytes = info.get("bytes", 0)
    points = info.get("points", 0)
    scan_s = t("analysis.scan_A5") + t("analysis.check_A7")
    return {
        "sim.simulate_s": simulate_s,
        "sim.steps": info.get("steps", 0),
        "sim.rhs_evals": rhs,
        "sim.us_per_rhs_eval": 1e6 * simulate_s / rhs if rhs else 0.0,
        "sim.trajectories": count.get("sim.simulate", 0),
        "sim.aborted": info.get("aborted", 0),
        "sim.verify_s": sum(t(name) for name in VERIFY),
        "sim.csv_write_s": write_s,
        "sim.csv_read_s": t("sim.read_trace_csv"),
        "sim.csv_bytes": csv_bytes,
        "sim.csv_write_MBps": csv_bytes / 1e6 / write_s if write_s else 0.0,
        "analysis.check_assumptions_s": t("analysis.check_assumptions"),
        "analysis.scan_A5_s": t("analysis.scan_A5"),
        "analysis.check_A7_s": t("analysis.check_A7"),
        "analysis.linear_closed_loop_s": t("analysis.linear_closed_loop"),
        "analysis.grid_points": points,
        "analysis.us_per_grid_point": 1e6 * scan_s / points if points else 0.0,
        "scenario.load_s": self_by_layer.get("scenario", 0.0),
        "cli.self_s": self_by_layer.get("cli", 0.0),
    }


# ---------------------------------------------------------------------------
# Layer probes
# ---------------------------------------------------------------------------

PROBE_STATES = 16
PROBE_REPEATS = 5


def probe_layers(system, gains, trace) -> dict:
    """Median µs per call of each reference function over sampled states.

    ``system`` carries a closed-form ``V_N``; the quadrature probe uses the
    same plant without it.
    """
    from pidpbc import analysis, controller, mechanics, passivity

    idx = np.linspace(0, trace.n_samples - 1, PROBE_STATES).astype(int)
    states = [trace.state_at(k) for k in idx]
    cstates = [ControllerState(trace.z1[k]) for k in idx]
    taus = [trace.tau[k] for k in idx]
    quad = synth.without_closed_form(system)
    calls = {
        "passivity.potential_integral_VN_closed_us":
            lambda i: passivity.potential_integral_VN(system, states[i].q_u),
        "passivity.potential_integral_VN_quad_us":
            lambda i: passivity.potential_integral_VN(quad, states[i].q_u),
        "passivity.storage_functions_us":
            lambda i: passivity.storage_functions(system, states[i]),
        "controller.exact_control_us":
            lambda i: controller.exact_control(system, gains, states[i], cstates[i]),
        "controller.pi_control_us":
            lambda i: controller.pi_control(system, gains, states[i], cstates[i]),
        "mechanics.forward_dynamics_us":
            lambda i: mechanics.forward_dynamics(system, states[i], taus[i]),
        "analysis.desired_inertia_Md_us":
            lambda i: analysis.desired_inertia_Md(system, gains, states[i].q_u),
    }
    out = {}
    for name, call in calls.items():
        per_call = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            for i in range(PROBE_STATES):
                call(i)
            per_call.append((time.perf_counter() - t0) / PROBE_STATES)
        out[name] = 1e6 * float(np.median(per_call))
    return out
