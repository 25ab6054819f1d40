import contextlib
import copy
import io
import json
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import pidpbc
from pidpbc import read_trace_csv, simulate
from pidpbc.cli import main as cli_main
from pidpbc.scenario import ScenarioError, builtin_scenario, scenario_from_dict


def write_scenario(tmp_path, doc, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return path


def test_import_loads_no_scipy():
    # importing scipy costs about 0.3 s; the few functions that need it
    # import it on first call, so every command starts without it
    code = "import sys, pidpbc; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = dict(os.environ, PYTHONPATH=str(Path(pidpbc.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_l2_gain_loads_no_scipy_integrate():
    # the running integrals are numpy's, so a sign-consistent run does not
    # pay the scipy.integrate import
    code = ("import sys; from pidpbc import scenario, simulate, verify_l2_gain; "
            "sc = scenario.scenario_from_dict(scenario.builtin_scenario('linear')); "
            "tr = simulate(sc.system, sc.gains, sc.q0, sc.qd0, 1.0, sc.dt); "
            "assert verify_l2_gain(tr)['applicable']; "
            "print('scipy.integrate' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(pidpbc.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


# one instance of every exception class of the package, each field set
PACKAGE_ERRORS = [
    pidpbc.DynamicsError("plant equations cannot be evaluated"),
    pidpbc.SingularInertiaError(np.array([0.3]), "Cholesky failed"),
    pidpbc.SingularInertiaError(np.array([0.3, -0.1])),
    pidpbc.WellPosednessError(np.array([0.3]), -2.5e-12, 1e-10, 0.617),
    pidpbc.WellPosednessError(np.array([0.3, 0.2]), 3e-11, 1e-10),
    pidpbc.SimulationAborted("state became non-finite at t=0.617s"),
    pidpbc.IntegrabilityError("coupling rows are not gradient fields"),
    pidpbc.QuadratureError("V_N quadrature did not converge"),
    ScenarioError("gains.k_e is required"),
    pidpbc.GainSignWarning("sign(k_e), sign(k_a), sign(k_u) differ"),
]


def test_every_package_exception_class_has_a_pickle_case():
    import importlib
    import inspect
    import pkgutil
    classes = set()
    for info in pkgutil.iter_modules(pidpbc.__path__):
        module = importlib.import_module(f"pidpbc.{info.name}")
        classes.update(cls for _, cls in inspect.getmembers(module, inspect.isclass)
                       if issubclass(cls, BaseException) and cls.__module__ == module.__name__)
    assert classes == {type(exc) for exc in PACKAGE_ERRORS}


@pytest.mark.parametrize("copy_of", [lambda exc: pickle.loads(pickle.dumps(exc)), copy.copy],
                         ids=["pickle", "copy"])
@pytest.mark.parametrize("exc", PACKAGE_ERRORS, ids=lambda exc: type(exc).__name__)
def test_package_errors_survive_pickle_and_copy(exc, copy_of):
    # an abort raised in a worker process reaches the caller as itself
    got = copy_of(exc)
    assert type(got) is type(exc) and str(got) == str(exc)
    assert vars(got).keys() == vars(exc).keys()
    for name, value in vars(exc).items():
        assert np.array_equal(getattr(got, name), value) if isinstance(value, np.ndarray) \
            else getattr(got, name) == value, name


def test_builtin_scenarios_load():
    for name in ("cart_pendulum", "cart_pendulum_ku450", "linear"):
        sc = scenario_from_dict(builtin_scenario(name))
        assert sc.system.n == 2
        assert sc.gains.K_P.shape == (1, 1)
    sc = scenario_from_dict(builtin_scenario("cart_pendulum_ku450"))
    assert sc.gains.k_u == -450.0
    with pytest.raises(ScenarioError):
        builtin_scenario("nope")


def test_absent_keys_take_the_defaults_of_their_constructors():
    # a document that leaves out the cart's parameters and the gains' mode
    # and filter speed gets the defaults of cart_pendulum_incline and Gains
    import dataclasses
    doc = builtin_scenario("cart_pendulum")
    doc["system"] = {"kind": "cart_pendulum_incline"}
    del doc["gains"]["mode"]
    sc = scenario_from_dict(doc)
    defaults = {f.name: f.default for f in dataclasses.fields(pidpbc.Gains)}
    assert (sc.gains.mode, sc.gains.filter_a) == (defaults["mode"], defaults["filter_a"])
    plant = pidpbc.cart_pendulum_incline()
    q = np.linspace(-1.0, 1.0, 9)[:, None]
    for name in ("muu", "mau", "Vu", "gradVu", "Va", "gradVa"):
        assert np.array_equal(getattr(sc.system, name)(q), getattr(plant, name)(q)), name
    assert np.array_equal(sc.system.maa, plant.maa)


def _run(sc):
    return simulate(sc.system, sc.gains, sc.q0, sc.qd0, sc.t_end, sc.dt,
                    controller=sc.controller, setpoints=sc.setpoints)


def test_setpoint_segments():
    tr = _run(scenario_from_dict(builtin_scenario("cart_pendulum")))
    assert [(k0, k1, g.q_star.tolist()) for k0, k1, g in tr.segments] == [
        (0, 5000, [0.0, 0.0]), (5000, 10000, [0.0, -0.3])]
    # a step after the horizon never takes effect, so it sets no target
    doc = builtin_scenario("cart_pendulum")
    doc["run"]["t_end_s"] = 4.0
    tr = _run(scenario_from_dict(doc))
    assert [(k0, k1) for k0, k1, _ in tr.segments] == [(0, 4000)]
    assert tr.segments[-1][2].q_star.tolist() == [0.0, 0.0]


def test_simulate_up_to_the_step_is_judged_on_the_first_target(tmp_path):
    # the bundled step is at 5 s: a 5 s run ends on it, which starts no
    # segment, so the run is judged against the target it tracked
    doc = builtin_scenario("cart_pendulum")
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "o"
    assert cli_main(["simulate", "--scenario", str(path), "--out", str(out),
                     "--t-end", "5"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert abs(summary["settle_time"] - 2.289) < 1e-9
    doc["run"]["t_end_s"] = 5.0
    tr = _run(scenario_from_dict(doc))
    assert [(k0, k1) for k0, k1, _ in tr.segments] == [(0, 5000)]
    # z1 runs on through the last sample instead of jumping to the new target
    assert abs(tr.z1[-1, 0] - tr.z1[-2, 0]) < 1e-2


def test_unknown_keys_rejected(tmp_path):
    doc = builtin_scenario("cart_pendulum")
    doc["system"]["psi_degrees"] = 20.0
    with pytest.raises(ScenarioError, match="psi_degrees"):
        scenario_from_dict(doc)
    doc = builtin_scenario("cart_pendulum")
    doc["typo_section"] = {}
    with pytest.raises(ScenarioError, match="typo_section"):
        scenario_from_dict(doc)


def test_gain_invariants_enforced_at_load():
    doc = builtin_scenario("cart_pendulum")
    doc["gains"]["k_u"] = doc["gains"]["k_a"]
    with pytest.raises(ValueError, match="differ"):
        scenario_from_dict(doc)
    doc = builtin_scenario("linear")
    doc["gains"]["K_I"] = 0.0
    with pytest.raises(ValueError, match="positive definite"):
        scenario_from_dict(doc)


def test_dimension_mismatch_rejected():
    doc = builtin_scenario("cart_pendulum")
    doc["initial"]["q_a"] = [0.1, 0.2]
    with pytest.raises(ScenarioError, match="entries"):
        scenario_from_dict(doc)


def test_custom_factory_and_check_exit_codes(tmp_path):
    # block-diagonal inertia: strong inertial coupling fails, exit code 2
    doc = {
        "system": {"kind": "custom", "factory": "synthetic:block_diagonal_plant"},
        "gains": {"k_e": 1.0, "k_a": 1.0, "k_u": 0.5, "K_P": 1.0, "K_I": 1.0},
    }
    path = write_scenario(tmp_path, doc)
    assert cli_main(["check", "--scenario", str(path)]) == 2


def test_check_passes_for_benchmark(tmp_path):
    path = write_scenario(tmp_path, builtin_scenario("cart_pendulum"))
    out = tmp_path / "chk"
    assert cli_main(["check", "--scenario", str(path), "--out", str(out)]) == 0
    payload = json.loads((out / "check.json").read_text())
    assert payload["assumptions"]["passed"]
    assert payload["A5_scan"]["pass"] and payload["A7_scan"]["pass"]
    assert payload["assumptions"]["A9"]["status"] == "sampled-pass"


def test_simulate_writes_deterministic_artifacts(tmp_path):
    doc = builtin_scenario("cart_pendulum")
    doc["run"]["t_end_s"] = 2.0
    path = write_scenario(tmp_path, doc)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli_main(["simulate", "--scenario", str(path), "--out", str(out1)]) == 0
    assert cli_main(["simulate", "--scenario", str(path), "--out", str(out2)]) == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert (out1 / "trace.columns").exists()


def test_summary_recomputable_from_csv(tmp_path):
    doc = builtin_scenario("cart_pendulum")
    doc["run"]["t_end_s"] = 2.0
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "o"
    assert cli_main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    cols = read_trace_csv(out / "trace.csv")
    dt = cols["t"][1] - cols["t"][0]
    assert abs(summary["peak_abs_u"] - np.abs(cols["u0"]).max()) < 1e-15
    # recompute the storage-rate residual from the CSV columns alone
    power = (cols["u0"] + cols["d0"]) * cols["y_u0"]
    dH = np.gradient(cols["H_u"], dt)
    resid = np.abs(dH[1:-1] - power[1:-1]).max() / np.abs(power).max()
    assert abs(resid - summary["passivity_residual_u_to_yu"]) < 1e-12
    # dissipation identity from the CSV columns alone
    KP = np.asarray(summary["gains"]["K_P"])[0, 0]
    dU = np.gradient(cols["U"], dt)
    resid = np.abs(dU[1:-1] + KP * cols["y_d0"][1:-1] ** 2).max() \
        / (KP * cols["y_d0"] ** 2).max()
    assert abs(resid - summary["lyapunov_residual"]) < 1e-12
    # the exact law's min |det K| is taken over the recorded samples
    assert summary["min_abs_detK"] == np.abs(cols["detK"]).min()


def test_simulate_singularity_exit_code(tmp_path):
    doc = builtin_scenario("cart_pendulum")
    doc["initial"]["q_u"] = [float(np.deg2rad(20.0) + 0.85)]
    doc["initial"]["qd_u"] = [-2.0]
    doc["target"]["steps"] = []
    doc["run"]["t_end_s"] = 2.0
    path = write_scenario(tmp_path, doc)
    assert cli_main(["simulate", "--scenario", str(path),
                     "--out", str(tmp_path / "s")]) == 3


def _with(section, key, value):
    def edit(doc):
        doc[section][key] = value
    return edit


def _top(key, value):
    def edit(doc):
        doc[key] = value
    return edit


def _robust_on_quadratic_Va(doc):
    doc.clear()
    doc.update(builtin_scenario("linear"))
    doc["system"]["stiffness_actuated"] = [[0.5]]
    doc["gains"]["mode"] = "robust_A8"


# edits of the cart scenario whose target the integrator cannot assign
UNASSIGNABLE = {
    "target-not-critical": _with("target", "q_u", [0.3]),
    "step-target-not-critical": _with("target", "steps",
                                      [{"t_s": 5.0, "q_a": [-0.3], "q_u": [0.3]}]),
    "robust-quadratic-Va": _robust_on_quadratic_Va,
}


@pytest.mark.parametrize("edit", [
    _with("system", "psi_degrees", 20.0),  # unknown key
    _with("gains", "k_e", float("nan")),
    _with("run", "dt_s", 0.0),
    _with("run", "t_end_s", float("nan")),
    _with("initial", "q_u", [float("nan")]),
    _top("system", 5),
    _top("initial", [1, 2]),
    _with("target", "steps", [5]),
    _with("target", "steps", {"t_s": 1}),
    *(_with("target", "steps", [{"t_s": t_s, "q_a": [-0.3]}])
      for t_s in (float("nan"), float("inf"), float("-inf"))),
    _with("run", "t_end_s", "abc"),
    _with("check", "q_u_box", [1.0]),
    _top("system", {"kind": "custom", "factory": "no_such_mod:make"}),
    _top("system", {"kind": "custom", "factory": "pidpbc.systems:nope"}),
    _with("check", "samples", 0),
    _with("check", "samples", -3),
    _with("check", "gate_points", 0),
    _with("run", "controller", "pi"),  # the PI law is K_D: 0
    _with("gains", "filter_b", 200.0),  # the filter has one speed, filter_a
    *UNASSIGNABLE.values(),
], ids=["unknown-key", "nan-k_e", "zero-dt", "nan-t_end", "nan-q0", "system-scalar",
        "initial-list", "step-scalar", "steps-mapping", "step-t-nan", "step-t-inf",
        "step-t--inf", "t_end-text", "box-short",
        "factory-module", "factory-callable", "zero-samples", "negative-samples",
        "zero-gate-points", "controller-pi", "filter_b", *UNASSIGNABLE])
def test_malformed_scenario_exit_code(tmp_path, capsys, edit):
    doc = builtin_scenario("cart_pendulum")
    edit(doc)
    path = write_scenario(tmp_path, doc)
    assert cli_main(["simulate", "--scenario", str(path),
                     "--out", str(tmp_path / "s")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("invalid scenario:") and err.count("\n") == 1


@pytest.mark.parametrize("section, key, value", [
    ("run", "t_end_s", "abc"),
    ("check", "q_u_box", [1.0]),
    ("check", "samples", "many"),
    ("gains", "filter_a", "fast"),
    ("gains", "K_P", "abc"),
    ("system", "psi_deg", [20.0, 30.0]),
    ("initial", "q_a", "left"),
    ("check", "seed", None),
])
def test_unparsable_entry_is_named(tmp_path, capsys, section, key, value):
    doc = builtin_scenario("cart_pendulum")
    doc[section][key] = value
    path = write_scenario(tmp_path, doc)
    assert cli_main(["check", "--scenario", str(path)]) == 5
    err = capsys.readouterr().err
    assert err.startswith(f"invalid scenario: {section}.{key}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", [["check"], ["simulate"],
                                     ["sweep", "--param", "k_e", "--values", "2"]],
                         ids=["check", "simulate", "sweep"])
@pytest.mark.parametrize("edit", UNASSIGNABLE.values(), ids=UNASSIGNABLE)
def test_unassignable_target_exit_code(tmp_path, capsys, command, edit):
    # the target rules hold for every command, and fail before any output
    doc = builtin_scenario("cart_pendulum")
    edit(doc)
    path = write_scenario(tmp_path, doc)
    assert cli_main([*command, "--scenario", str(path), "--out", str(tmp_path / "o")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("invalid scenario:") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [["check"], ["simulate"],
                                     ["sweep", "--param", "k_e", "--values", "2"]],
                         ids=["check", "simulate", "sweep"])
def test_plant_without_coupling_potential_exit_code(tmp_path, capsys, command):
    # V_N does not exist when the coupling rows are not gradient fields
    doc = {
        "system": {"kind": "custom", "factory": "synthetic:nonintegrable_plant"},
        "gains": {"k_e": 1.0, "k_a": 1.0, "k_u": 0.5, "K_P": 1.0, "K_I": 1.0},
    }
    path = write_scenario(tmp_path, doc)
    rc = cli_main([*command, "--scenario", str(path), "--out", str(tmp_path / "o")])
    out, err = capsys.readouterr()
    if command == ["check"]:
        # the assumption report already shows the failure; the A5 scan runs,
        # and the A7 scan, which needs V_N, is marked skipped
        assert rc == 2 and err == ""
        assert "  A6 [        fail]" in out and "  A5 [" in out
        assert "  A7 [     skipped]  coupling rows are not gradient fields" in out
        payload = json.loads((tmp_path / "o" / "check.json").read_text())
        assert payload["assumptions"]["A6"]["status"] == "fail"
        assert "not gradient fields" in payload["A7_scan"]["skipped"]
        return
    assert rc == 5
    assert "not gradient fields" in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_check_verdict_does_not_depend_on_the_scale_of_the_pid_gains(tmp_path, capsys):
    # the bundled cart with (k_e, K_P, K_I, K_D) scaled by 2^-40 is the same
    # loop: its smallest |det K| (about 2.8e-12) is far above the floor
    # 1e-10 |k_e|, and a short run completes
    doc = builtin_scenario("cart_pendulum")
    for key in ("k_e", "K_P", "K_I", "K_D"):
        doc["gains"][key] *= 2.0 ** -40
    path = write_scenario(tmp_path, doc)
    assert cli_main(["check", "--scenario", str(path)]) == 0
    assert "A5 [        pass]" in capsys.readouterr().out
    assert cli_main(["simulate", "--scenario", str(path), "--t-end", "0.1",
                     "--out", str(tmp_path / "o")]) == 0


@settings(derandomize=True, deadline=None, max_examples=25)
@given(st.data())
def test_no_scenario_ends_in_a_traceback(data):
    # drawn targets, steps, modes, actuated stiffness, controllers and grids,
    # valid or not: every command ends in one of its own exit codes
    draw = data.draw
    name = draw(st.sampled_from(["cart_pendulum", "linear"]))
    critical = [0.0, float(np.pi)] if name == "cart_pendulum" else [0.0]
    doc = builtin_scenario(name)
    doc["target"]["q_u"] = [draw(st.sampled_from(critical + [0.3]))]
    step = {"t_s": 0.02, "q_a": [0.1]}
    step_q_u = draw(st.sampled_from([None] + critical + [0.3]))
    if step_q_u is not None:
        step["q_u"] = [step_q_u]
    doc["target"]["steps"] = [step]
    doc["gains"]["mode"] = draw(st.sampled_from(["cancel_Va", "robust_A8"]))
    if name == "linear":
        doc["system"]["stiffness_actuated"] = [[draw(st.sampled_from([0.0, 0.5]))]]
    doc["run"]["controller"] = draw(st.sampled_from(["exact", "approx", "pi"]))
    doc["run"]["t_end_s"] = draw(st.sampled_from([0.05, 0.04, 0.0405]))
    doc["run"]["dt_s"] = draw(st.sampled_from([1e-3, 5e-3, 3e-3]))
    with tempfile.TemporaryDirectory() as tmp:
        path = write_scenario(Path(tmp), doc)
        for command, allowed in (("check", {0, 2, 5}), ("simulate", {0, 3, 5})):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = cli_main([command, "--scenario", str(path), "--out", f"{tmp}/o"])
            assert rc in allowed, (command, rc)
            if rc == 5:
                assert err.getvalue().startswith("invalid scenario:")
                assert err.getvalue().count("\n") == 1


def test_bad_command_line_override_exit_code(tmp_path):
    path = write_scenario(tmp_path, builtin_scenario("cart_pendulum"))
    assert cli_main(["simulate", "--scenario", str(path), "--dt", "0",
                     "--out", str(tmp_path / "s")]) == 5
    assert cli_main(["check", "--scenario", str(tmp_path / "missing.yaml")]) == 5


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("example, overrides", [
    ("linear", ["--dt", "0.007"]),  # 60 s is not a whole number of steps
    ("cart_pendulum", ["--t-end", "9", "--dt", "0.003"]),  # nor is the 5 s step
], ids=["t_end-off-grid", "setpoint-off-grid"])
def test_off_grid_override_exit_code(tmp_path, capsys, command, example, overrides):
    path = write_scenario(tmp_path, builtin_scenario(example))
    extra = ["--param", "k_u", "--values=-500"] if command == "sweep" else []
    assert cli_main([command, "--scenario", str(path), *overrides, *extra,
                     "--out", str(tmp_path / "o")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("invalid scenario:") and err.count("\n") == 1
    assert "whole number of steps" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("option", [["--param", "b", "--values", "200"],
                                    ["--param", "k_u", "--values=-500", "--controller", "pi"]],
                         ids=["param-b", "controller-pi"])
def test_removed_sweep_options_are_usage_errors(tmp_path, option):
    # the filter has one speed (--param a), and the PI law is K_D: 0
    path = write_scenario(tmp_path, builtin_scenario("cart_pendulum"))
    with pytest.raises(SystemExit) as exc:
        cli_main(["sweep", "--scenario", str(path), *option, "--out", str(tmp_path / "sw")])
    assert exc.value.code == 2
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("values", ["--values=abc", "--values=-300,,"])
def test_sweep_bad_values_exit_code(tmp_path, capsys, values):
    path = write_scenario(tmp_path, builtin_scenario("cart_pendulum"))
    assert cli_main(["sweep", "--scenario", str(path), "--param", "k_u", values,
                     "--out", str(tmp_path / "sw")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("invalid --values") and err.count("\n") == 1
    assert not (tmp_path / "sw").exists()


# `pidpbc sweep --param k_u --values=-300,-400,-500,-600,-1000` on the
# bundled cart, byte for byte: its stdout, and its CSV file
BUNDLED_SWEEP_TABLE = """\
value,status,settle_time,peak_abs_u,min_abs_detK,a7,dissipated
-300.0,aborted: state became non-finite at t=0.617s,,,,marked,
-400.0,simulated,6.5040000000000004,8.817,0.8123,marked,745.172
-500.0,simulated,7.851,4.594,2.976,pass,679.081
-600.0,simulated,9.0,3.855,5.591,pass,619.459
-1000.0,simulated,not-settled,2.845,17.77,pass,456.278
"""


def test_bundled_sweep_table_is_pinned(tmp_path, capsys):
    path = write_scenario(tmp_path, builtin_scenario("cart_pendulum"))
    out = tmp_path / "sw"
    assert cli_main(["sweep", "--scenario", str(path), "--param", "k_u",
                     "--values=-300,-400,-500,-600,-1000", "--out", str(out)]) == 0
    assert capsys.readouterr().out == BUNDLED_SWEEP_TABLE
    assert (out / "sweep_k_u.csv").read_text() == BUNDLED_SWEEP_TABLE


@pytest.mark.parametrize("command", [["check"], ["simulate"]])
def test_gains_that_overflow_a_coefficient_are_invalid_input(tmp_path, capsys, command):
    # a finite k_u whose (k_a - k_u)^2 overflows is refused at load, before
    # any scan or integration, as one line
    doc = builtin_scenario("cart_pendulum")
    doc["gains"]["k_u"] = 1.0e200
    path = write_scenario(tmp_path, doc)
    assert cli_main([*command, "--scenario", str(path), "--out", str(tmp_path / "o")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("invalid scenario: ") and "overflow a coefficient" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_sweep_rejects_a_value_that_overflows_a_coefficient(tmp_path):
    doc = builtin_scenario("cart_pendulum")
    doc["run"]["t_end_s"] = 0.1
    doc["target"]["steps"] = []
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "sw"
    assert cli_main(["sweep", "--scenario", str(path), "--param", "k_u",
                     "--values=1e308,-500", "--out", str(out)]) == 0
    lines = (out / "sweep_k_u.csv").read_text().splitlines()
    assert lines[1].startswith("1e+308,rejected: k_e=5 k_a=50 k_u=1e+308 overflow a coefficient")
    assert lines[2].startswith("-500.0,simulated,")
    assert [line.count(",") for line in lines] == [6] * 3


def test_sweep_rows(tmp_path):
    doc = builtin_scenario("cart_pendulum")
    doc["run"]["t_end_s"] = 2.0
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "sw"
    assert cli_main(["sweep", "--scenario", str(path), "--param", "k_e",
                     "--values", "0,5", "--out", str(out)]) == 0
    lines = (out / "sweep_k_e.csv").read_text().splitlines()
    assert lines[0].startswith("value,status")
    assert "rejected" in lines[1]
    assert "simulated" in lines[2]


def test_sweep_ke_values_all_converge(tmp_path):
    doc = builtin_scenario("cart_pendulum")
    doc["run"]["t_end_s"] = 30.0  # the softest setting settles around t=13
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "sw"
    assert cli_main(["sweep", "--scenario", str(path), "--param", "k_e",
                     "--values", "2,5,10", "--out", str(out)]) == 0
    lines = (out / "sweep_k_e.csv").read_text().splitlines()[1:]
    assert len(lines) == 3
    for ln in lines:
        fields = ln.split(",")
        assert fields[1] == "simulated"
        assert fields[2] != "not-settled" and float(fields[2]) < 30.0


def test_sweep_dissipation_ordering(tmp_path):
    doc = builtin_scenario("cart_pendulum")
    doc["run"]["t_end_s"] = 3.0
    doc["target"]["steps"] = []
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "sw"
    assert cli_main(["sweep", "--scenario", str(path), "--param", "K_P",
                     "--values", "0.5,1,2", "--out", str(out)]) == 0
    lines = (out / "sweep_K_P.csv").read_text().splitlines()[1:]
    # every value simulates; the per-sample dissipation/output ratio is the
    # scaled gain, so bigger scale => faster energy drain early on
    assert all("simulated" in ln for ln in lines)


def test_reproduce_cart_pendulum(tmp_path):
    out = tmp_path / "rep"
    assert cli_main(["reproduce", "cart_pendulum", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"]
    assert summary["min_abs_detK"] > 0
    assert summary["z1_closed_form_gap"] <= 1e-6
    # the loop linearised at the upright target is locally stable
    assert summary["hurwitz"] is True
    assert abs(summary["max_real"] + 2.1705468) < 1e-6
    # the certificate on the symmetric grid is reported, and known indefinite
    assert summary["a7_symmetric_grid"]["pass"] is False
    assert (out / "trace.csv").exists() and (out / "check.json").exists()


def test_reproduce_fails_on_an_unsettled_segment(tmp_path, monkeypatch):
    # ending the run half a second after the step leaves the second setpoint
    # segment unsettled, while the first one still settles
    def short(name):
        doc = builtin_scenario(name)
        doc["run"]["t_end_s"] = 5.5
        return doc

    monkeypatch.setattr("pidpbc.scenario.builtin_scenario", short)
    out = tmp_path / "rep"
    assert cli_main(["reproduce", "cart_pendulum", "--out", str(out)]) == 4
    failures = json.loads((out / "failures.json").read_text())["failures"]
    assert len(failures) == 1
    assert failures[0].startswith("setpoint segment 2 (5-5.5s) not settled")


def test_reproduce_ku450(tmp_path):
    out = tmp_path / "rep450"
    assert cli_main(["reproduce", "cart_pendulum_ku450", "--out", str(out)]) == 0


def test_reproduce_linear(tmp_path):
    out = tmp_path / "replin"
    assert cli_main(["reproduce", "linear", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["hurwitz"] and summary["converged"]
