"""Scenario files: strict YAML descriptions of a system, gains, and a run.

Keys carry explicit units where the quantity has one (``psi_deg``,
``t_end_s``); generalized coordinates are plain ``q_u``/``q_a`` in radians
and meters for the cart-pendulum builtin.  Unknown keys are rejected so a
typo cannot silently fall back to a default, and any entry that does not
parse raises :class:`ScenarioError` naming it.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np
import yaml

from .mechanics import MechanicalSystem
from .controller import Gains
from .sim import SetpointStep, check_closed_loop
from . import systems


_floats = partial(np.asarray, dtype=float)


class ScenarioError(ValueError):
    """Malformed scenario file."""


def _require_keys(section: dict, allowed: set, name: str):
    unknown = set(section) - allowed
    if unknown:
        raise ScenarioError(f"unknown keys in [{name}]: {sorted(unknown)}; "
                            f"allowed: {sorted(allowed)}")


def _entry(section: dict, name: str, default=None, convert=float):
    """``convert`` of the entry ``name`` (dotted, its last part the key in
    ``section``), ``default`` when absent; :class:`ScenarioError` naming the
    entry when it does not convert, or is absent and has no default."""
    key = name.rsplit(".", 1)[1]
    if default is None and key not in section:
        raise ScenarioError(f"{name} is required")
    try:
        return convert(section.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{name}: {type(exc).__name__}: {exc}") from exc


def _vec(section: dict, name: str, default, length: int) -> np.ndarray:
    arr = _entry(section, name, default, lambda v: _floats(v).reshape(-1))
    if arr.size != length:
        raise ScenarioError(f"{name} must have {length} entries, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ScenarioError(f"{name} has non-finite entries: {arr}")
    return arr


@dataclass
class Scenario:
    label: str
    system: MechanicalSystem
    gains: Gains
    q0: np.ndarray
    qd0: np.ndarray
    t_end: float
    dt: float
    controller: str
    setpoints: list
    disturbance: Optional[Callable[[float], np.ndarray]]
    check_box: np.ndarray          # (n, 2) sampling box for assumption checks
    check_samples: int
    seed: int
    gate_grid: np.ndarray          # q_u grid for the A5/A7 scans

    def __post_init__(self):
        # runs on dataclasses.replace too, so command-line overrides are checked
        try:
            check_closed_loop(self.system, self.gains, self.q0, self.qd0, self.t_end, self.dt,
                              self.controller, self.setpoints)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc


# key -> (argument of systems.cart_pendulum_incline, conversion); an absent
# key keeps the builder's own default
_CART_KEYS = {"pendulum_mass_kg": ("pendulum_mass", float), "cart_mass_kg": ("cart_mass", float),
              "pendulum_length_m": ("length", float), "gravity_mps2": ("gravity", float),
              "psi_deg": ("psi", lambda v: np.deg2rad(float(v)))}
_SYSTEM_KEYS = {
    "cart_pendulum_incline": {"kind", *_CART_KEYS},
    "linear_chain": {"kind", "inertia", "stiffness_unactuated", "stiffness_actuated"},
    "custom": {"kind", "factory"},
}


def _build_system(section: dict) -> MechanicalSystem:
    kind = section.get("kind")
    if kind not in _SYSTEM_KEYS:
        raise ScenarioError(f"system.kind must be one of {sorted(_SYSTEM_KEYS)}, got {kind!r}")
    _require_keys(section, _SYSTEM_KEYS[kind], "system")
    if kind == "cart_pendulum_incline":
        return systems.cart_pendulum_incline(**{
            arg: _entry(section, f"system.{key}", convert=convert)
            for key, (arg, convert) in _CART_KEYS.items() if key in section})
    if kind == "linear_chain":
        M = section.get("inertia", [[2.0, 1.0], [1.0, 1.0]])
        S_u = section.get("stiffness_unactuated", [[1.0]])
        S_a = section.get("stiffness_actuated")
        return systems.linear_system(M, S_u, S_a, name="linear-chain")
    spec = section.get("factory")
    if not spec or ":" not in spec:
        raise ScenarioError("custom system needs factory: \"module:callable\"")
    mod_name, fn_name = spec.split(":", 1)
    factory = getattr(importlib.import_module(mod_name), fn_name)
    sys_ = factory()
    if not isinstance(sys_, MechanicalSystem):
        raise ScenarioError(f"factory {spec} did not return a MechanicalSystem")
    return sys_


def _build_disturbance(section: Optional[dict], m: int):
    if section is None:
        return None
    _require_keys(section, {"kind", "amplitude", "frequency_hz", "phase_rad"}, "disturbance")
    kind = section.get("kind", "none")
    if kind == "none":
        return None
    if kind != "sinusoid":
        raise ScenarioError(f"disturbance.kind must be 'none' or 'sinusoid', got {kind!r}")
    amp = _vec(section, "disturbance.amplitude", np.zeros(m), m)
    freq = _entry(section, "disturbance.frequency_hz", 1.0)
    phase = _entry(section, "disturbance.phase_rad", 0.0)
    omega = 2.0 * np.pi * freq
    return lambda t: amp * np.sin(omega * t + phase)


_TOP_KEYS = {"label", "system", "gains", "initial", "target", "run",
             "disturbance", "check"}
_GAIN_KEYS = {"k_e", "k_a", "k_u", "K_P", "K_I", "K_D", "mode", "filter_a"}
_INITIAL_KEYS = {"q_u", "q_a", "qd_u", "qd_a"}
_TARGET_KEYS = {"q_u", "q_a", "steps"}
_RUN_KEYS = {"t_end_s", "dt_s", "controller"}
_CHECK_KEYS = {"q_u_box", "q_a_box", "samples", "seed", "gate_pad", "gate_points",
               "gate_grid"}


def scenario_from_dict(doc: dict) -> Scenario:
    """The scenario of a parsed document; :class:`ScenarioError` on any malformed entry."""
    try:
        return _parse(doc)
    except ScenarioError:
        raise
    except (TypeError, ValueError, LookupError, ImportError, AttributeError) as exc:
        raise ScenarioError(f"{type(exc).__name__}: {exc}") from exc


def _parse(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a mapping")
    _require_keys(doc, _TOP_KEYS, "scenario")
    if "system" not in doc or "gains" not in doc:
        raise ScenarioError("scenario needs [system] and [gains] sections")

    sys_ = _build_system(dict(doc["system"]))
    s, m = sys_.s, sys_.m

    gsec = dict(doc["gains"])
    _require_keys(gsec, _GAIN_KEYS, "gains")

    tsec = dict(doc.get("target", {}))
    _require_keys(tsec, _TARGET_KEYS, "target")
    q_u_star = _vec(tsec, "target.q_u", np.zeros(s), s)
    q_a_star = _vec(tsec, "target.q_a", np.zeros(m), m)

    gain = lambda key, default=None, convert=float: _entry(  # noqa: E731
        gsec, f"gains.{key}", default, convert)
    # mode and filter_a keep the defaults of Gains unless the document sets them
    optional = {key: gain(key, None, convert)
                for key, convert in (("mode", str), ("filter_a", float)) if key in gsec}
    gains = Gains(
        k_e=gain("k_e"), k_a=gain("k_a"), k_u=gain("k_u"), K_P=gain("K_P", None, _floats),
        K_I=gain("K_I", None, _floats), K_D=gain("K_D", 0.0, _floats),
        q_u_star=q_u_star, q_a_star=q_a_star, **optional)

    isec = dict(doc.get("initial", {}))
    _require_keys(isec, _INITIAL_KEYS, "initial")
    q0 = np.concatenate([_vec(isec, "initial.q_u", np.zeros(s), s),
                         _vec(isec, "initial.q_a", np.zeros(m), m)])
    qd0 = np.concatenate([_vec(isec, "initial.qd_u", np.zeros(s), s),
                          _vec(isec, "initial.qd_a", np.zeros(m), m)])

    setpoints = []
    for step in tsec.get("steps", []) or []:
        step = dict(step)
        _require_keys(step, {"t_s", "q_a", "q_u"}, "target.steps[]")
        setpoints.append(SetpointStep(
            t=_entry(step, "target.steps[].t_s"),
            q_a_star=_vec(step, "target.steps[].q_a", None, m),
            q_u_star=None if "q_u" not in step else _vec(step, "target.steps[].q_u", None, s),
        ))

    rsec = dict(doc.get("run", {}))
    _require_keys(rsec, _RUN_KEYS, "run")
    t_end = _entry(rsec, "run.t_end_s", 10.0)
    dt = _entry(rsec, "run.dt_s", 1e-3)
    controller = rsec.get("controller", "exact")

    csec = dict(doc.get("check", {}))
    _require_keys(csec, _CHECK_KEYS, "check")
    box = lambda key, k: _entry(csec, f"check.{key}", [[-1.0, 1.0]] * k,  # noqa: E731
                                lambda v: _floats(v).reshape(k, 2))
    check_box = np.vstack([box("q_u_box", s), box("q_a_box", m)])
    samples = _entry(csec, "check.samples", 400, int)
    points = _entry(csec, "check.gate_points", 121, int)
    if min(samples, points) < 1:
        raise ScenarioError(f"check.samples and gate_points must be >= 1, got {samples}, {points}")
    seed = _entry(csec, "check.seed", 0, int)

    # A5/A7 gate grid: either explicit, or the hull of the initial and target
    # unactuated positions padded outward (gain certificates are checked where
    # the run is expected to live, not on an arbitrary symmetric box)
    if "gate_grid" in csec:
        bounds = box("gate_grid", s)
    else:
        pad = _entry(csec, "check.gate_pad", 0.2618)
        anchors = [q0[:s], q_u_star]
        anchors += [sp.q_u_star for sp in setpoints if sp.q_u_star is not None]
        anchors = np.stack(anchors)
        bounds = np.stack([anchors.min(axis=0) - pad, anchors.max(axis=0) + pad], axis=1)
    axes = [np.linspace(lo, hi, points) for lo, hi in bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    gate_grid = np.stack([ax.ravel() for ax in mesh], axis=1)

    return Scenario(
        label=str(doc.get("label", "scenario")),
        system=sys_, gains=gains, q0=q0, qd0=qd0,
        t_end=t_end, dt=dt, controller=controller,
        setpoints=setpoints,
        disturbance=_build_disturbance(doc.get("disturbance"), m),
        check_box=check_box, check_samples=samples, seed=seed,
        gate_grid=gate_grid,
    )


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    return scenario_from_dict(doc)


# ---------------------------------------------------------------------------
# Pinned builtin scenarios
# ---------------------------------------------------------------------------

EXAMPLES = ("cart_pendulum", "cart_pendulum_ku450", "linear")


def builtin_scenario(name: str) -> dict:
    """Pinned scenario documents for the bundled examples."""
    if name in ("cart_pendulum", "cart_pendulum_ku450"):
        doc = {
            "label": name,
            "system": {"kind": "cart_pendulum_incline", "pendulum_mass_kg": 0.14,
                       "cart_mass_kg": 0.44, "pendulum_length_m": 0.215,
                       "psi_deg": 20.0, "gravity_mps2": 9.81},
            "gains": {"k_e": 5.0, "k_a": 50.0, "k_u": -500.0,
                      "K_P": 1.0, "K_I": 2.0, "K_D": 0.1, "mode": "cancel_Va"},
            "initial": {"q_u": [float(np.deg2rad(20.0))], "q_a": [-0.6]},
            "target": {"q_u": [0.0], "q_a": [0.0],
                       "steps": [{"t_s": 5.0, "q_a": [-0.3]}]},
            "run": {"t_end_s": 10.0, "dt_s": 1e-3, "controller": "exact"},
            "check": {"q_u_box": [[-1.0471975511965976, 1.0471975511965976]],
                      "q_a_box": [[-1.0, 1.0]], "samples": 400, "seed": 0},
        }
        if name == "cart_pendulum_ku450":
            doc["gains"]["k_u"] = -450.0
        return doc
    if name == "linear":
        return {
            "label": "linear",
            "system": {"kind": "linear_chain", "inertia": [[2.0, 1.0], [1.0, 1.0]],
                       "stiffness_unactuated": [[1.0]], "stiffness_actuated": [[0.0]]},
            "gains": {"k_e": 2.0, "k_a": 0.75, "k_u": 0.25,
                      "K_P": 2.0, "K_I": 1.5, "K_D": 0.3},
            "initial": {"q_u": [0.4], "q_a": [-0.3]},
            "target": {"q_u": [0.0], "q_a": [0.0]},
            "run": {"t_end_s": 60.0, "dt_s": 5e-3, "controller": "exact"},
            "check": {"q_u_box": [[-1.0, 1.0]], "q_a_box": [[-1.0, 1.0]],
                      "samples": 400, "seed": 0},
        }
    raise ScenarioError(f"unknown builtin scenario {name!r}; options: {', '.join(EXAMPLES)}")
