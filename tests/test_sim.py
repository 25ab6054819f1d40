import itertools
from dataclasses import replace

import numpy as np
import pytest

import pidpbc.sim
from pidpbc import (ControllerState, Gains, SetpointStep, SimulationAborted, State,
                    approx_control, detect_convergence, exact_control, forward_dynamics,
                    integrator_init, linear_system, passive_outputs, pi_control,
                    plant_input, read_trace_csv, scan_A5, simulate, verify_l2_gain,
                    verify_lyapunov, verify_passivity, write_column_map,
                    write_trace_csv)
from pidpbc.controller import MODES, det_floor
from pidpbc.sim import (CONTROLLERS, _build_eval_generic, _build_eval_scalar, _rk4,
                        simulate_open_loop)

from conftest import PSI, Q0, QD0, bench_gains, random_gains
from synthetic import make_synthetic, random_state


TOY_GAINS = dict(k_e=1.0, k_a=2.0, k_u=1.0, K_P=1.0, K_I=1.0, K_D=0.1)
DISTURBANCES = (None, lambda t: np.array([0.3 * np.sin(4.0 * t)]))


def _toy():
    return linear_system(M=[[2.0, 0.5], [0.5, 1.0]], S_u=[[2.0]], name="toy")


def _pin_cases(cart):
    """(plant, gains factory, random-state box for q_u) of the pinned plants:
    the cart inside its well-posedness window and the toy plant, whose
    derivative feedthrough is filter-stable."""
    toy_gains = lambda mode: Gains(q_u_star=[0.0], q_a_star=[0.0], mode=mode, **TOY_GAINS)
    return [(cart, lambda mode: bench_gains(mode=mode), (-0.3, 0.9)),
            (_toy(), toy_gains, (-1.0, 1.0))]


def test_scalar_closure_matches_generic_at_random_states(cart):
    rng = np.random.default_rng(7)
    for plant, make_gains, (lo, hi) in _pin_cases(cart):
        for controller, mode, dist in itertools.product(CONTROLLERS, MODES, DISTURBANCES):
            g = make_gains(mode)
            use_z2 = controller == "approx"
            args = (plant, g, controller, dist, 0.0)
            scalar, generic = _build_eval_scalar(*args), _build_eval_generic(*args)
            for _ in range(50):
                x = rng.uniform(-1.0, 1.0, 6 if use_z2 else 5)
                x[0] = rng.uniform(lo, hi)
                t = rng.uniform(0.0, 10.0)
                a, b = np.array(scalar(t, x.tolist())), np.array(generic(t, x.tolist()))
                assert np.abs(a - b).max() < 1e-11 * (1.0 + np.abs(b).max()), \
                    (plant.name, controller, mode, dist is not None, x)


@pytest.mark.parametrize("s,m", [(2, 2), (2, 1), (1, 2), (3, 2)])
def test_generic_closure_matches_reference_functions(s, m):
    # the closure solves the plant response and the PID as written; the
    # reference route is the closed-form law K(q_u) u = -K_P y_d - K_I z1 - S
    # fed through the plant junction and the open-loop dynamics
    plant = make_synthetic(s, m, seed=20 + 3 * s + m)
    rng = np.random.default_rng(10 * s + m)
    dist = lambda t: 0.3 * np.sin(4.0 * t + np.arange(m))  # noqa: E731
    for law, mode, d in itertools.product(("exact", "approx", "pi"), MODES, (None, dist)):
        g = random_gains(plant, rng, mode=mode)
        if law == "pi":  # the PI law is the exact one at K_D = 0
            g = replace(g, K_D=0.0)
        controller = "approx" if law == "approx" else "exact"
        use_z2 = controller == "approx"
        rhs = _build_eval_generic(plant, g, controller, d, 0.0)
        for _ in range(20):
            st = random_state(plant, rng)
            cs = ControllerState(rng.normal(size=m), rng.normal(size=m))
            t = rng.uniform(0.0, 10.0)
            if law == "exact":
                u = exact_control(plant, g, st, cs, det_tol=0.0)
            elif law == "approx":
                u, _, z2dot = approx_control(plant, g, st, cs)
            else:
                u = pi_control(plant, g, st, cs)
            force = u if d is None else u + d(t)
            qdd = forward_dynamics(plant, st, plant_input(plant, g, force, st.q_a))
            want = np.concatenate([st.qd, qdd, passive_outputs(plant, st, g).y_d]
                                  + ([z2dot] if use_z2 else []))
            x = np.concatenate([st.q, st.qd, cs.z1] + ([cs.z2] if use_z2 else []))
            got = rhs(t, x)
            assert np.abs(got - want).max() <= 1e-11 * (1.0 + np.abs(want).max()), \
                (law, mode, d is not None)


def test_scalar_closure_matches_generic_over_whole_runs(cart):
    runs = [(cart, bench_gains(mode=mode), "exact", d, Q0, 500)
            for mode in MODES for d in DISTURBANCES]
    toy = _toy()
    g_toy = Gains(q_u_star=[0.0], q_a_star=[0.0], **TOY_GAINS)
    runs += [(toy, g, ctl, None, np.array([0.3, 0.1]), 1000)
             for g, ctl in ((g_toy, "approx"), (replace(g_toy, K_D=0.0), "exact"))]
    for plant, g, controller, d, q0, n_steps in runs:
        use_z2 = controller == "approx"
        x0 = np.concatenate([q0, np.zeros(2), integrator_init(plant, g, q0)[0],
                             np.zeros(1 if use_z2 else 0)])
        args = (plant, g, controller, d, 1e-10)
        paths = []
        for builder in (_build_eval_scalar, _build_eval_generic):
            X = np.empty((n_steps + 1, x0.size))
            X[0] = x0
            _rk4(builder(*args), X, 0, n_steps, 1e-3)
            paths.append(X)
        scale = 1.0 + np.abs(paths[1]).max(axis=0)
        assert np.all(np.abs(paths[0] - paths[1]).max(axis=0) < 1e-11 * scale), \
            (plant.name, controller, g.mode, d is not None)


def _reference_rhs(plant, g, controller, d):
    """The closed-loop field through the reference functions: the law of
    ``exact_control`` or ``approx_control``, through ``plant_input`` and
    ``forward_dynamics``; a list in and out like the built steps."""
    s, m, n = plant.s, plant.m, plant.n

    def rhs(t, x):
        x = np.asarray(x)
        st = State.from_vectors(x[:n], x[n:2 * n], s)
        if controller == "exact":
            u = exact_control(plant, g, st, ControllerState(x[2 * n:2 * n + m]), det_tol=0.0)
            tail = []
        else:
            u, _, z2dot = approx_control(plant, g, st, ControllerState(x[2 * n:2 * n + m],
                                                                       x[2 * n + m:]))
            tail = [z2dot]
        force = u if d is None else u + d(t)
        qdd = forward_dynamics(plant, st, plant_input(plant, g, force, st.q_a))
        return np.concatenate([st.qd, qdd, passive_outputs(plant, st, g).y_d] + tail).tolist()

    return rhs


def _disturbance(m):
    return lambda t: 0.3 * np.sin(4.0 * t + np.arange(m))


def _counted(plant, calls):
    """``plant`` with every callback appending its name to ``calls``."""
    names = ("muu_fn", "mau_fn", "muu_jac", "mau_jac", "gradVu_fn", "gradVa_fn",
             "Vu_fn", "Va_fn", "VN_fn")
    return replace(plant, **{name: (lambda q, fn=getattr(plant, name), name=name:
                                    calls.append(name) or fn(q)) for name in names})


@pytest.mark.parametrize("mode", MODES)
def test_generic_step_calls_each_callback_once(mode):
    # one evaluation reads each callback it needs exactly once: both inertia
    # blocks, their Jacobians, gradVu and, in robust_A8 only, gradVa
    plant = make_synthetic(2, 2, seed=5)
    g = random_gains(plant, np.random.default_rng(5), mode=mode)
    rng = np.random.default_rng(6)
    want = ["gradVu_fn", "mau_fn", "mau_jac", "muu_fn", "muu_jac"]
    if mode == "robust_A8":
        want.append("gradVa_fn")
    for controller in CONTROLLERS:
        calls = []
        rhs = _build_eval_generic(_counted(plant, calls), g, controller, None, 0.0)
        rhs(0.0, rng.normal(size=2 * plant.n + plant.m * (2 if controller == "approx" else 1)))
        assert sorted(calls) == sorted(want), (controller, calls)


@pytest.mark.parametrize("s,m", [(2, 1), (1, 2)])
def test_generic_step_reads_any_row_major_callback_result(s, m):
    # a callback may return nested lists, a flat row-major list, or a plain
    # float for a one-entry block: the same floats, so bitwise the same field
    plant = make_synthetic(s, m, seed=30 + s)
    names = ("muu_fn", "mau_fn", "muu_jac", "mau_jac", "gradVu_fn", "gradVa_fn")
    forms = {"nested": lambda v: np.asarray(v).tolist(),
             "flat": lambda v: np.ravel(v).tolist(),
             "float": lambda v: float(np.asarray(v).item()) if np.size(v) == 1
             else np.asarray(v).tolist()}
    rng = np.random.default_rng(s + 10 * m)
    for mode, controller in itertools.product(MODES, CONTROLLERS):
        g = random_gains(plant, rng, mode=mode)
        rhs = _build_eval_generic(plant, g, controller, None, 0.0)
        xs = [rng.normal(size=2 * plant.n + m * (2 if controller == "approx" else 1)).tolist()
              for _ in range(5)]
        want = [rhs(0.0, x) for x in xs]
        for form in forms.values():
            listed = replace(plant, **{name: (lambda q, fn=getattr(plant, name): form(fn(q)))
                                       for name in names})
            got = _build_eval_generic(listed, g, controller, None, 0.0)
            assert [got(0.0, x) for x in xs] == want, (mode, controller)


def test_generic_step_differentiates_a_plant_without_jacobians():
    # without muu_jac/mau_jac the step takes the fourth-order difference of
    # the inertia blocks, as the reference functions do
    rng = np.random.default_rng(12)
    for s, m in ((2, 2), (1, 2)):
        plant = replace(make_synthetic(s, m, seed=40 + s), muu_jac=None, mau_jac=None)
        for mode, controller, d in itertools.product(MODES, CONTROLLERS, (None, _disturbance(m))):
            g = random_gains(plant, rng, mode=mode)
            args = (plant, g, controller, d)
            rhs, ref = _build_eval_generic(*args, 0.0), _reference_rhs(*args)
            for _ in range(5):
                st = random_state(plant, rng)
                x = np.concatenate([st.q, st.qd, rng.normal(size=m * (2 if controller == "approx"
                                                                        else 1))])
                t = rng.uniform(0.0, 10.0)
                got, want = np.array(rhs(t, x)), np.array(ref(t, x))
                assert np.abs(got - want).max() <= 1e-11 * (1.0 + np.abs(want).max()), \
                    (s, m, mode, controller, d is not None)


def test_generic_closure_matches_the_reference_functions_over_whole_runs():
    # the s > 1 counterpart of the scalar pin: whole RK4 runs of the generic
    # step against the field of the reference functions; each plant runs
    # both laws, both modes, and with and without a disturbance
    runs = [(2, 2, "exact", "cancel_Va", False), (2, 2, "approx", "robust_A8", True),
            (2, 1, "exact", "robust_A8", True), (2, 1, "approx", "cancel_Va", False)]
    for s, m, controller, mode, disturbed in runs:
        plant = make_synthetic(s, m, seed=60 + m)
        g = random_gains(plant, np.random.default_rng(60 + m), mode=mode)
        d = _disturbance(m) if disturbed else None
        q0 = np.linspace(0.2, -0.1, plant.n)
        st0 = State.from_vectors(q0, np.zeros(plant.n), s)
        x0 = np.concatenate([q0, np.zeros(plant.n), integrator_init(plant, g, q0)[0]]
                            + ([passive_outputs(plant, st0, g).y_d] if controller == "approx"
                               else []))
        paths = []
        for rhs in (_build_eval_generic(plant, g, controller, d, 0.0),
                    _reference_rhs(plant, g, controller, d)):
            X = np.empty((201, x0.size))
            X[0] = x0
            _rk4(rhs, X, 0, 200, 1e-3)
            paths.append(X)
        scale = 1.0 + np.abs(paths[1]).max(axis=0)
        assert np.all(np.abs(paths[0] - paths[1]).max(axis=0) < 1e-11 * scale), \
            (s, m, controller, mode, disturbed)


def test_robust_start_makes_the_target_an_equilibrium(cart):
    # the integrator value simulate chooses must zero the closed-loop field
    # at (q*, 0) in robust_A8 mode, for every law, on the cart and on random
    # s = m = 2 plants
    sys2 = make_synthetic(2, 2, seed=3)
    g2 = random_gains(sys2, np.random.default_rng(3), mode="robust_A8")
    for plant, g in ((cart, bench_gains(mode="robust_A8")), (sys2, g2)):
        n = plant.n
        builder = _build_eval_scalar if plant.s == plant.m == 1 else _build_eval_generic
        for controller in CONTROLLERS:
            tr = simulate(plant, g, g.q_star, np.zeros(n), t_end=1e-3, dt=1e-3,
                          controller=controller)
            use_z2 = controller == "approx"
            x = np.concatenate([g.q_star, np.zeros(n), tr.z1[0]]
                               + ([tr.z2[0]] if use_z2 else []))
            rhs = builder(plant, g, controller, None, 1e-10)(0.0, x)
            assert np.abs(rhs).max() <= 1e-12, (plant.name, controller, rhs)


def test_robust_run_reaches_its_target(cart):
    tr = simulate(cart, bench_gains(mode="robust_A8"), Q0, QD0, t_end=10.0, dt=1e-3)
    assert detect_convergence(tr, [0.0, 0.0], 0.01, 0.01, window=0.5)["converged"]


def test_equilibrium_start_stays_put(cart, gains_cancel):
    tr = simulate(cart, gains_cancel, [0.0, 0.0], [0.0, 0.0], t_end=2.0, dt=1e-3)
    q = np.hstack([tr.q_u, tr.q_a])
    qd = np.hstack([tr.qd_u, tr.qd_a])
    assert np.abs(q).max() <= 1e-9 and np.abs(qd).max() <= 1e-9
    conv = detect_convergence(tr, [0.0, 0.0], 0.01, 0.01, window=0.5)
    assert conv["converged"] and conv["settle_time"] == 0.0


def test_open_loop_energy_conservation(cart):
    out = simulate_open_loop(cart, [0.3, 0.0], [0.5, 0.1], t_end=10.0, dt=1e-3)
    drift = np.abs(out["energy"] - out["energy"][0]).max()
    assert drift <= 1e-6


@pytest.mark.parametrize("dt", [0.0, np.nan])
def test_open_loop_rejects_a_bad_step(cart, dt):
    with pytest.raises(ValueError, match="dt"):
        simulate_open_loop(cart, [0.3, 0.0], [0.5, 0.1], t_end=1.0, dt=dt)


def _stage_loop(builder):
    """``builder`` with each closure wrapped so that it carries no
    ``rk4_step``: :func:`_rk4` then runs its stage loop over it."""
    def build(*args):
        rhs = builder(*args)
        return lambda t, x: rhs(t, x)
    return build


def test_scalar_rk4_step_is_bitwise_the_stage_loop(cart, monkeypatch):
    # the s = m = 1 closure's own RK4 step against _rk4's stage loop over the
    # same closure: every integrated row bit for bit, on both built-in plants,
    # with both laws, both modes, a disturbance and a setpoint step; a slow
    # derivative filter keeps the filtered law on the cart finite
    lin = _linear_example()
    plants = [(cart, lambda mode: bench_gains(mode=mode, filter_a=5.0), Q0),
              (lin.system, lambda mode: replace(lin.gains, mode=mode), lin.q0)]
    steps = [SetpointStep(1.0, np.array([-0.3]))]
    for (plant, make_gains, q0), controller, mode, d in itertools.product(
            plants, CONTROLLERS, MODES, DISTURBANCES):
        g = make_gains(mode)
        assert callable(_build_eval_scalar(plant, g, controller, d, 1e-10).rk4_step)
        rows = []
        for builder in (_build_eval_scalar, _stage_loop(_build_eval_scalar)):
            monkeypatch.setattr(pidpbc.sim, "_build_eval_scalar", builder)
            tr = simulate(plant, g, q0, np.zeros(2), t_end=2.0, dt=1e-3,
                          controller=controller, disturbance=d, setpoints=steps)
            rows.append(np.hstack([tr.q_u, tr.q_a, tr.qd_u, tr.qd_a, tr.z1]
                                  + ([tr.z2] if controller == "approx" else [])))
        assert np.array_equal(*rows), (plant.name, controller, mode, d is not None)


def _rk4_abort_message(plant, g, builder, q0, qd0, n_steps, det_tol=None):
    """The abort message of a closed-loop run driven through ``_rk4``, with
    ``simulate``'s singularity floor unless ``det_tol`` is given."""
    X = np.empty((n_steps + 1, 2 * plant.n + plant.m))
    X[0] = np.concatenate([q0, qd0, integrator_init(plant, g, q0)[0]])
    floor = det_floor(g) if det_tol is None else det_tol
    with pytest.raises(SimulationAborted) as err:
        _rk4(builder(plant, g, "exact", None, floor), X, 0, n_steps, 1e-3)
    return str(err.value)


def test_zero_divisor_aborts_like_a_non_finite_state(cart, gains_cancel):
    # Python floats raise on a zero divisor where numpy floats gave inf/nan;
    # both builders must still end in the non-finite abort, never in a
    # ZeroDivisionError or OverflowError
    singular = linear_system(M=[[1.0, 1.0], [1.0, 1.0]], S_u=[[1.0]], name="singular")
    g = Gains(q_u_star=[0.0], q_a_star=[0.0], **TOY_GAINS)
    cases = [(singular, g, [0.3, 0.1], [0.0, 0.0], 0.001),
             (cart, gains_cancel, [PSI + 0.85, -0.6], [-2.0, 0.0], 0.216)]
    for plant, gg, q0, qd0, t_abort in cases:
        want = f"state became non-finite at t={t_abort:.6g}s"
        with pytest.raises(SimulationAborted) as err:
            simulate(plant, gg, q0, qd0, t_end=1.0, dt=1e-3)
        assert str(err.value) == want
        for builder in (_build_eval_scalar, _build_eval_generic):
            assert _rk4_abort_message(plant, gg, builder, q0, qd0, 1000, 0.0) == want


def test_sweep_abort_row_is_the_same_through_both_builders(cart):
    # the aborting row of `pidpbc sweep --param k_u` on the bundled cart
    g = bench_gains(k_u=-300.0)
    want = "state became non-finite at t=0.617s"
    with pytest.raises(SimulationAborted) as err:
        simulate(cart, g, Q0, QD0, t_end=10.0, dt=1e-3,
                 setpoints=[SetpointStep(5.0, np.array([-0.3]))])
    assert str(err.value) == want
    for builder in (_build_eval_scalar, _stage_loop(_build_eval_scalar), _build_eval_generic):
        assert _rk4_abort_message(cart, g, builder, Q0, QD0, 1000) == want


def _linear_example():
    from pidpbc import scenario
    return scenario.scenario_from_dict(scenario.builtin_scenario("linear"))


@pytest.mark.parametrize("mode,n_calls", [("cancel_Va", 5), ("robust_A8", 6)])
def test_scalar_rhs_stays_on_floats(cart, monkeypatch, mode, n_calls):
    # a timing-free guard of the s = m = 1 fast path on both built-in plants:
    # one evaluation calls the float form of each plant callback it needs
    # once, on Python floats, and returns Python floats, and the integration
    # never calls an accessor
    import dataclasses
    from pidpbc import mechanics
    names = ("muu_fn", "mau_fn", "muu_jac", "mau_jac", "gradVu_fn", "gradVa_fn",
             "Vu_fn", "Va_fn", "VN_fn")
    lin = _linear_example()
    x = [0.3, -0.2, 0.1, 0.05, 0.01]
    rhss = []
    for plant, g in ((cart, bench_gains(mode=mode)), (lin.system, replace(lin.gains, mode=mode))):
        calls = []

        def counted(fn):
            def form(x):
                calls.append(type(x))
                return fn.float_form(x)
            return mechanics.with_forms(lambda q: fn(q), float_form=form,
                                        batch_form=fn.batch_form)

        counted_plant = dataclasses.replace(plant, **{k: counted(getattr(plant, k))
                                                      for k in names})
        out = _build_eval_scalar(counted_plant, g, "exact", None, 1e-10)(0.0, x)
        assert calls == [float] * n_calls, plant.name
        assert type(out) is list and all(type(v) is float for v in out)
        rhs = _build_eval_scalar(plant, g, "exact", None, 1e-10)
        assert out == rhs(0.0, x)
        rhss.append(rhs)

    def per_point(*args, **kwargs):
        raise AssertionError("mechanics._per_point entered during _rk4")

    monkeypatch.setattr(mechanics, "_per_point", per_point)
    for rhs in rhss:
        X = np.empty((21, 5))
        X[0] = x
        _rk4(rhs, X, 0, 20, 1e-3)
        assert np.all(np.isfinite(X))


@pytest.mark.parametrize("bad", [lambda g: [g, 99.0], lambda g: np.array([g, 99.0])],
                         ids=["list", "array"])
def test_scalar_reader_refuses_a_result_with_two_entries(cart, bad):
    # a callback without a float form sends the run to the array step, where
    # a result holding more than one entry is an error, never its first entry
    gradVu = cart.gradVu_fn
    plant = replace(cart, gradVu_fn=lambda q_u: bad(gradVu(q_u)))
    with pytest.raises(ValueError, match="cannot reshape array of size 2"):
        simulate(plant, bench_gains(), Q0, QD0, t_end=0.01, dt=1e-3)
    with pytest.raises(ValueError):
        plant.gradVu(np.array([0.3]))


def test_simulate_builds_the_scalar_step_only_for_a_plant_with_every_float_form(
        cart, monkeypatch):
    # the s = m = 1 float step for the built-in plants; the array step for a
    # plant lacking a float form the step calls (gradVa's only in robust_A8),
    # whose run is still the float step's within the pinned bound
    built = []
    for builder in (_build_eval_scalar, _build_eval_generic):
        monkeypatch.setattr(pidpbc.sim, builder.__name__,
                            lambda *args, b=builder: built.append(b) or b(*args))
    lin = _linear_example()
    synthetic = make_synthetic(1, 1, seed=3)
    point_gradVu = replace(cart, gradVu_fn=lambda q_u: cart.gradVu_fn(q_u))
    point_gradVa = replace(cart, gradVa_fn=lambda q_a: cart.gradVa_fn(q_a))
    cases = [(cart, bench_gains(), Q0, _build_eval_scalar),
             (lin.system, lin.gains, lin.q0, _build_eval_scalar),
             (point_gradVu, bench_gains(), Q0, _build_eval_generic),
             (point_gradVa, bench_gains(), Q0, _build_eval_scalar),
             (point_gradVa, bench_gains(mode="robust_A8"), Q0, _build_eval_generic),
             (synthetic, random_gains(synthetic, np.random.default_rng(3)), [0.1, 0.0],
              _build_eval_generic)]
    runs = []
    for plant, g, q0, want in cases:
        built.clear()
        runs.append(simulate(plant, g, q0, np.zeros(2), t_end=0.5, dt=1e-3))
        assert built == [want], (plant.name, g.mode)
    for tr in runs[2:4]:
        for col in ("q_u", "q_a", "qd_u", "qd_a", "z1"):
            a, b = getattr(tr, col), getattr(runs[0], col)
            assert np.abs(a - b).max() < 1e-11 * (1.0 + np.abs(b).max()), col


def test_both_builders_read_a_disturbance_by_one_rule(cart, gains_cancel):
    # a disturbance with the wrong number of entries is the same error through
    # both builders, not a plant callback's
    x = [0.3, -0.2, 0.1, 0.05, 0.01]
    messages = set()
    for builder in (_build_eval_scalar, _build_eval_generic):
        with pytest.raises(ValueError) as err:
            builder(cart, gains_cancel, "exact", lambda t: [0.1, 0.2], 1e-10)(0.0, x)
        messages.add(str(err.value))
    assert messages == {"cannot reshape array of size 2 into shape (1,)"}


@pytest.mark.parametrize("mode", ["cancel_Va", "robust_A8"])
def test_builtin_plants_never_loop_callbacks_point_by_point(cart, no_point_loop, mode):
    # a timing-free guard of the diagnostics pass: the cart and the linear
    # example evaluate every trace column through their batch forms, while
    # a plant whose callbacks have none still goes through the loop
    from conftest import PointLoopEntered
    from pidpbc import scenario
    lin = scenario.scenario_from_dict(scenario.builtin_scenario("linear"))
    runs = [(cart, bench_gains(mode=mode), Q0, QD0),
            (lin.system, replace(lin.gains, mode=mode), lin.q0, lin.qd0)]
    for plant, g, q0, qd0 in runs:
        assert simulate(plant, g, q0, qd0, t_end=0.1, dt=1e-3).n_samples == 101
    synthetic = make_synthetic(1, 1, seed=3)
    with pytest.raises(PointLoopEntered):
        simulate(synthetic, random_gains(synthetic, np.random.default_rng(3), mode=mode),
                 [0.1, 0.0], [0.0, 0.0], t_end=0.1, dt=1e-3)


def test_cart_callbacks_agree_with_their_derivatives_and_batches(cart):
    # the float callbacks against fourth-order differences of their
    # primitives and V_N's definition (Jacobian maa^{-1} m_au), and the
    # accessors over a batch against the same accessors point by point
    from pidpbc import potential_integral_VN
    from pidpbc.mechanics import mau_gradient, muu_gradient
    rng = np.random.default_rng(11)
    h = 1e-3

    def d4(fn, q):
        f = lambda dq: fn(np.array([q + dq]))
        return (-f(2 * h) + 8.0 * f(h) - 8.0 * f(-h) + f(-2 * h)) / (12.0 * h)

    for q in rng.uniform(-np.pi, np.pi, 20):
        p = np.array([q])
        assert abs(cart.mau_jac(p) - d4(cart.mau_fn, q)) <= 1e-8
        assert abs(cart.gradVu_fn(p) - d4(cart.Vu_fn, q)) <= 1e-8
        assert abs(d4(cart.VN_fn, q) - cart.mau_fn(p) / cart.maa[0, 0]) <= 1e-8

    batch = rng.uniform(-np.pi, np.pi, (7, 1))
    accessors = {
        "muu": (cart.muu, (7, 1, 1)),
        "mau": (cart.mau, (7, 1, 1)),
        "gradVu": (cart.gradVu, (7, 1)),
        "Vu": (cart.Vu, (7,)),
        "muu_gradient": (lambda q: muu_gradient(cart, q), (7, 1, 1, 1)),
        "mau_gradient": (lambda q: mau_gradient(cart, q), (7, 1, 1, 1)),
        "potential_integral_VN": (lambda q: potential_integral_VN(cart, q), (7, 1)),
    }
    for name, (fn, shape) in accessors.items():
        out = fn(batch)
        assert out.shape == shape, name
        for i, p in enumerate(batch):
            assert np.shape(fn(p)) == shape[1:], name
            assert np.abs(out[i] - fn(p)).max() <= 1e-15, name


def test_open_loop_blow_up_aborts_like_the_closed_loop(cart, gains_cancel):
    # a stage state that is no longer finite ends the run as SimulationAborted,
    # not as the ValueError State raises on it
    want = "state became non-finite at t=0.001s"
    with pytest.raises(SimulationAborted) as err:
        simulate_open_loop(cart, [0.1, 0.0], [1e200, 0.0], t_end=0.01, dt=1e-3)
    assert str(err.value) == want
    with pytest.raises(SimulationAborted) as err:
        simulate(cart, gains_cancel, [0.1, 0.0], [1e200, 0.0], t_end=0.01, dt=1e-3)
    assert str(err.value) == want
    for builder in (_build_eval_scalar, _build_eval_generic):
        assert _rk4_abort_message(cart, gains_cancel, builder, [0.1, 0.0], [1e200, 0.0],
                                  10) == want


def test_only_a_non_finite_stage_position_is_an_abort(cart, gains_cancel):
    # a non-finite position is an ArithmeticError (the abort) before any
    # callback sees it; a ValueError a callback raises at a finite state
    # (here a math domain error) is the plant's own and surfaces unchanged
    # through both builders
    import dataclasses
    import math
    for builder, bad, i in itertools.product((_build_eval_scalar, _build_eval_generic),
                                             (np.inf, -np.inf, np.nan), (0, 1)):
        x = [0.3, -0.2, 0.1, 0.05, 0.01]
        x[i] = bad
        with pytest.raises(ArithmeticError):
            builder(cart, gains_cancel, "exact", None, 1e-10)(0.0, x)
    from pidpbc.mechanics import with_forms
    plant = dataclasses.replace(cart, gradVu_fn=with_forms(lambda q_u: math.sqrt(q_u[0]),
                                                           float_form=math.sqrt))
    for builder in (_build_eval_scalar, _build_eval_generic):
        X = np.empty((11, 5))
        X[0] = [-0.3, -0.2, 0.1, 0.05, 0.01]
        with pytest.raises(ValueError, match="math domain error"):
            _rk4(builder(plant, gains_cancel, "exact", None, 1e-10), X, 0, 10, 1e-3)


def test_output_partition_column(cart, gains_cancel):
    tr = simulate(cart, gains_cancel, Q0, QD0, t_end=1.0, dt=1e-3)
    assert np.array_equal(tr.y_a, tr.qd_a - tr.y_u)
    assert np.abs(tr.y_u + tr.y_a - tr.qd_a).max() < 1e-15


def test_integrator_matches_closed_form(cart, gains_cancel, bench_trace):
    assert np.abs(bench_trace.z1 - bench_trace.z1_closed).max() <= 1e-6


def test_trace_identity_columns(bench_trace):
    assert np.abs(bench_trace.y_u + bench_trace.y_a - bench_trace.qd_a).max() < 1e-15
    # the shaped energy equals its integrator twin up to the (tiny) gap
    # between the integrated z1 and its position-function value
    assert np.abs(bench_trace.U - bench_trace.H_d).max() < 1e-7


def test_tail_residuals_on_converged_run(bench_trace):
    from pidpbc import tail_residuals
    res = tail_residuals(bench_trace)
    assert all(v < 1e-3 for v in res.values()), res


def test_setpoint_steps_reinitialize(cart, gains_cancel, bench_trace):
    k5 = int(round(5.0 / bench_trace.dt))
    z1_0, _ = integrator_init(
        cart, gains_cancel.with_target(q_a_star=np.array([-0.3])),
        np.concatenate([bench_trace.q_u[k5], bench_trace.q_a[k5]]))
    assert np.allclose(bench_trace.z1[k5], z1_0, atol=1e-12)


def test_steps_on_one_sample_give_one_segment_boundary(cart, gains_cancel):
    steps = [SetpointStep(1.0, np.array([-0.3])), SetpointStep(1.0, np.array([-0.2]))]
    tr = simulate(cart, gains_cancel, Q0, QD0, t_end=2.0, dt=1e-3, setpoints=steps)
    assert [(k0, k1) for k0, k1, _ in tr.segments] == [(0, 1000), (1000, 2000)]
    # the last step on the sample wins, as its z1 re-initialization shows
    g = tr.segments[1][2]
    assert g.q_a_star.tolist() == [-0.2]
    q_step = [tr.q_u[1000, 0], tr.q_a[1000, 0]]
    assert np.array_equal(tr.z1[1000], integrator_init(cart, g, q_step)[0])


def test_unassignable_step_target_is_rejected_before_the_first_step(cart, gains_cancel,
                                                                    monkeypatch):
    def integrate(*args):
        raise AssertionError("integrated before the step target was checked")
    monkeypatch.setattr(pidpbc.sim, "_rk4", integrate)
    with pytest.raises(ValueError, match="critical point"):
        simulate(cart, gains_cancel, Q0, QD0, t_end=10.0, dt=1e-3,
                 setpoints=[SetpointStep(5.0, [-0.3], [0.3])])


def test_grid_validation(cart, gains_cancel):
    with pytest.raises(ValueError):
        simulate(cart, gains_cancel, Q0, QD0, t_end=1.0005, dt=1e-3)
    with pytest.raises(ValueError):
        simulate(cart, gains_cancel, Q0, QD0, t_end=1.0, dt=1e-3,
                 setpoints=[SetpointStep(0.50037, np.array([-0.3]))])


@pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan, np.inf])
def test_simulate_rejects_a_bad_step(cart, gains_cancel, dt):
    with pytest.raises(ValueError, match="dt"):
        simulate(cart, gains_cancel, Q0, QD0, t_end=1.0, dt=dt)


@pytest.mark.parametrize("t_end", [np.nan, np.inf])
def test_simulate_rejects_a_non_finite_horizon(cart, gains_cancel, t_end):
    with pytest.raises(ValueError, match="t_end"):
        simulate(cart, gains_cancel, Q0, QD0, t_end=t_end, dt=1e-3)


@pytest.mark.parametrize("which", ["q0", "qd0"])
def test_simulate_rejects_a_non_finite_initial_state(cart, gains_cancel, which):
    start = {"q0": Q0.copy(), "qd0": QD0.copy()}
    start[which][0] = np.nan
    with pytest.raises(ValueError, match=which):
        simulate(cart, gains_cancel, start["q0"], start["qd0"], t_end=1.0, dt=1e-3)


def test_singularity_abort_reports_time_and_configuration(cart, gains_cancel):
    # swinging inward from beyond the zero of the well-posedness factor must
    # cross it; a finite threshold catches the crossing before the forces
    # blow up, and both builders stop with the same abort, carrying the
    # time, the configuration, |det K| and the floor; the scalar closure's
    # own step and the stage loop over it stop alike
    q0, qd0 = [PSI + 0.85, 0.0], [-2.0, 0.0]
    messages = {_rk4_abort_message(cart, gains_cancel, builder, q0, qd0, 2000, 0.5)
                for builder in (_build_eval_scalar, _stage_loop(_build_eval_scalar),
                                _build_eval_generic)}
    assert len(messages) == 1
    message = messages.pop()
    assert message.startswith("well-posedness matrix singular at t=")
    assert "q_u=[" in message and message.endswith("below 5.000e-01")
    # with the default tiny floor the forces explode first, which is
    # reported as the non-finite abort
    with pytest.raises(SimulationAborted, match="state became non-finite"):
        simulate(cart, gains_cancel, q0, qd0, t_end=2.0, dt=1e-3)


def test_scaling_the_pid_gains_together_changes_neither_run_nor_verdict(cart):
    # k_e u = -(K_P y_d + K_I z1 + K_D yd_dot) is the same loop when the four
    # gains are scaled together; a power of two scales every product exactly,
    # so the run is bitwise the same and the singularity floor scales with
    # det K, however small or large the gains
    synthetic = make_synthetic(2, 2, seed=8)  # k_e < 0
    step = [SetpointStep(1.0, np.array([-0.3]))]
    cases = [(cart, bench_gains(mode=mode), Q0, QD0, 2.0, step,
              np.linspace(-1.2, 1.2, 241)) for mode in MODES]
    cases += [(synthetic, random_gains(synthetic, np.random.default_rng(8), mode=mode),
               [0.2, -0.1, 0.1, 0.3], np.zeros(4), 0.5, (),
               np.stack(np.meshgrid(*2 * [np.linspace(-1.0, 1.0, 11)]), axis=-1))
              for mode in MODES]
    for plant, g, q0, qd0, t_end, setpoints, grid in cases:
        base = simulate(plant, g, q0, qd0, t_end=t_end, dt=1e-3, setpoints=setpoints)
        scan = scan_A5(plant, g, grid)
        for c in (2.0 ** -40, 2.0 ** 10):
            gc = replace(g, k_e=c * g.k_e, K_P=c * g.K_P, K_I=c * g.K_I, K_D=c * g.K_D)
            tr = simulate(plant, gc, q0, qd0, t_end=t_end, dt=1e-3, setpoints=setpoints)
            for name in ("q_u", "q_a", "qd_u", "qd_a", "z1", "u"):
                assert np.array_equal(getattr(tr, name), getattr(base, name)), \
                    (plant.name, g.mode, c, name)
            scan_c = scan_A5(plant, gc, grid)
            assert (scan_c["pass"], scan_c["sign_change"]) == (scan["pass"], scan["sign_change"])
            want = c ** plant.m * scan["dets"]
            assert np.all(np.abs(scan_c["dets"] - want) <= 1e-14 * np.abs(want))


def test_divergent_gains_do_not_converge(cart):
    g = bench_gains(k_u=500.0)  # keeps the upright potential maximum
    try:
        tr = simulate(cart, g, Q0, QD0, t_end=5.0, dt=1e-3)
        conv = detect_convergence(tr, [0.0, 0.0], 0.01, 0.01, window=0.5)
        assert not conv["converged"]
    except SimulationAborted:
        pass  # running off the shaped-energy bowl may hit the singularity


def test_verify_passivity_trivial_and_disturbed(cart, gains_cancel):
    tr = simulate(cart, gains_cancel, [0.0, 0.0], [0.0, 0.0], t_end=1.0, dt=1e-3)
    assert verify_passivity(tr, "u->y_u") == 0.0
    dist = lambda t: np.array([0.3 * np.sin(4.0 * t)])
    tr = simulate(cart, gains_cancel, [0.1, 0.0], [0.0, 0.0], t_end=2.0, dt=1e-4,
                  disturbance=dist)
    assert verify_passivity(tr, "u->y_u") <= 1e-4
    assert verify_passivity(tr, "u->y_a") <= 1e-4
    with pytest.raises(ValueError):
        verify_passivity(tr, "nope")


def test_dissipation_scales_with_proportional_gain(cart):
    for scale in (0.5, 1.0, 2.0):
        g = bench_gains(K_P=scale)
        tr = simulate(cart, g, [0.2, -0.1], [0.0, 0.0], t_end=1.0, dt=1e-3)
        diss = verify_lyapunov(tr)["dissipation"]
        yd2 = tr.y_d[:, 0] ** 2
        nz = yd2 > 1e-16
        ratios = diss[nz] / yd2[nz]
        assert np.allclose(ratios, scale, rtol=1e-12)


def test_verify_lyapunov_monotone(cart, gains_robust):
    tr = simulate(cart, gains_robust, [0.25, -0.3], [0.0, 0.0], t_end=2.0, dt=1e-4)
    res = verify_lyapunov(tr)
    assert res["monotone"] and res["max_residual"] <= 1e-4


def test_l2_gain_trivial_and_sign_gate(cart, gains_cancel):
    toy = linear_system(M=[[2.0, 0.5], [0.5, 1.0]], S_u=[[2.0]], name="toy")
    import pidpbc
    g = pidpbc.Gains(k_e=1.0, k_a=2.0, k_u=1.0, K_P=1.0, K_I=1.0, K_D=0.1,
                     q_u_star=[0.0], q_a_star=[0.0])
    tr = simulate(toy, g, [0.0, 0.0], [0.0, 0.0], t_end=2.0, dt=1e-3)
    res = verify_l2_gain(tr)
    assert res["applicable"] and res["beta3"] == 0.0 and res["holds"]
    # sign-inconsistent gains: bound not applicable
    tr = simulate(cart, gains_cancel, [0.1, 0.0], [0.0, 0.0], t_end=1.0, dt=1e-3)
    assert verify_l2_gain(tr) == {"applicable": False}


@pytest.mark.parametrize("n_steps", [1, 9, 10_000])
def test_l2_gain_running_integrals_equal_scipy_trapezoid(n_steps):
    from scipy.integrate import cumulative_trapezoid
    g = Gains(q_u_star=[0.0], q_a_star=[0.0], **TOY_GAINS)
    tr = simulate(_toy(), g, [0.3, 0.1], [0.0, 0.0], t_end=n_steps * 1e-3, dt=1e-3,
                  disturbance=DISTURBANCES[1])
    res = verify_l2_gain(tr)
    for key, col, scale in (("lhs", tr.y_d, 1.0), ("rhs", tr.d, g.K_P[0, 0])):
        want = cumulative_trapezoid(np.einsum("ij,ij->i", col, col), dx=tr.dt)
        assert np.array_equal(res[key], np.concatenate([[0.0], want]) / scale), key


def test_removed_controller_is_rejected(cart, gains_cancel):
    # the PI law is the exact one at K_D = 0
    with pytest.raises(ValueError, match="controller"):
        simulate(cart, gains_cancel, Q0, QD0, t_end=1e-3, dt=1e-3, controller="pi")


def test_pi_run_reports_the_loop_that_ran():
    # at K_D = 0 the shaped energy is the PI loop's: it dissipates as
    # -y_d' K_P y_d, and the well-posedness matrix is k_e I
    g = Gains(q_u_star=[0.0], q_a_star=[0.0], **{**TOY_GAINS, "K_D": 0.0})
    tr = simulate(_toy(), g, [0.3, 0.1], [0.0, 0.0], t_end=5.0, dt=1e-3)
    lyap = verify_lyapunov(tr)
    assert lyap["monotone"] and lyap["max_residual"] <= 1e-4
    assert tr.min_abs_detK == abs(g.k_e)


def test_trace_csv_roundtrip_and_determinism(cart, gains_cancel, tmp_path):
    tr = simulate(cart, gains_cancel, Q0, QD0, t_end=0.2, dt=1e-3)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(tr, p1)
    write_trace_csv(tr, p2)
    assert p1.read_bytes() == p2.read_bytes()
    cols = read_trace_csv(p1)
    assert np.array_equal(cols["t"], tr.t)
    assert np.array_equal(cols["q_u0"], tr.q_u[:, 0])
    assert np.array_equal(cols["U"], tr.U)
    order = list(cols)
    assert order[:6] == ["t", "q_u0", "q_a0", "qd_u0", "qd_a0", "z1_0"]
    assert order[6:15] == ["u0", "y_u0", "y_a0", "y_d0", "H_u", "H_a", "H_d",
                           "U", "detK"]
    assert order[15] == "d0"
    write_column_map(tr, tmp_path / "cols.map")
    lines = (tmp_path / "cols.map").read_text().splitlines()
    assert lines[0] == "1 t" and lines[1] == "2 q_u0"
    # every stem, with two entries each, and the filter and robust storage columns
    plant = make_synthetic(2, 2, seed=3)
    g = random_gains(plant, np.random.default_rng(3), mode="robust_A8")
    tr = simulate(plant, g, [0.1, 0, 0, 0], np.zeros(4), t_end=0.05, dt=1e-3,
                  controller="approx")
    write_trace_csv(tr, p1)
    assert p1.read_text().splitlines()[0] == (
        "t,q_u0,q_u1,q_a0,q_a1,qd_u0,qd_u1,qd_a0,qd_a1,z1_0,z1_1,u0,u1,y_u0,y_u1,"
        "y_a0,y_a1,y_d0,y_d1,H_u,H_a,H_d,U,detK,d0,d1,tau0,tau1,z1_closed_0,z1_closed_1,"
        "H,z2_0,z2_1,Hbar_u,Hbar_a")


def test_trace_csv_bytes_are_those_of_savetxt(cart, gains_cancel, tmp_path):
    # the block-wise writer against np.savetxt, on a cart trace of several
    # blocks of rows, the last one partial, and an s = m = 2 approx trace of
    # less than one, with a signed zero, subnormal, tiny and huge values
    from pidpbc.sim import _column_layout
    plant = make_synthetic(2, 2, seed=3)
    g = random_gains(plant, np.random.default_rng(3), mode="robust_A8")
    traces = [simulate(cart, gains_cancel, Q0, QD0, t_end=1.2, dt=1e-3),
              simulate(plant, g, [0.1, 0, 0, 0], np.zeros(4), t_end=0.05, dt=1e-3,
                       controller="approx")]
    special = [-0.0, 5e-324, -2.5e-310, 1e-300, 1.7976931348623157e308, -1e300, 0.1, 1 / 3]
    for tr in traces:
        tr = replace(tr, H=tr.H.copy())
        tr.H[:len(special)] = special
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_trace_csv(tr, got)
        layout = _column_layout(tr)
        np.savetxt(want, np.column_stack([col for _, col in layout]), delimiter=",",
                   header=",".join(name for name, _ in layout), comments="", fmt="%.17g")
        assert got.read_bytes() == want.read_bytes(), tr.n_samples


def test_richardson_self_consistency(cart, gains_cancel):
    sp = [SetpointStep(2.0, np.array([-0.3]))]
    tr1 = simulate(cart, gains_cancel, Q0, QD0, t_end=4.0, dt=1e-3, setpoints=sp)
    tr2 = simulate(cart, gains_cancel, Q0, QD0, t_end=4.0, dt=5e-4, setpoints=sp)
    end1 = np.hstack([tr1.q_u[-1], tr1.q_a[-1], tr1.qd_u[-1], tr1.qd_a[-1]])
    end2 = np.hstack([tr2.q_u[-1], tr2.q_a[-1], tr2.qd_u[-1], tr2.qd_a[-1]])
    assert np.abs(end1 - end2).max() < 1e-6


def test_generic_multi_dof_closed_loop_runs():
    # the randomized plants are deliberately inertia-dominant, so settling is
    # slow; what must hold on any horizon is the dissipation structure and
    # the integrator identity
    sys_ = make_synthetic(2, 2, seed=50)
    import pidpbc
    g = pidpbc.Gains(k_e=1.0, k_a=1.5, k_u=2.5, K_P=np.eye(2) * 5, K_I=np.eye(2) * 2,
                     K_D=np.eye(2) * 0.1, q_u_star=np.zeros(2), q_a_star=np.zeros(2))
    tr = simulate(sys_, g, 0.2 * np.ones(4), np.zeros(4), t_end=10.0, dt=1e-3)
    assert np.abs(tr.z1 - tr.z1_closed).max() < 1e-6
    res = verify_lyapunov(tr)
    assert res["monotone"] and res["max_residual"] < 1e-2
    floor = tr.H_d.min()
    assert tr.U[-1] - floor < 0.2 * (tr.U[0] - floor)
    assert np.abs(np.hstack([tr.q_u, tr.q_a])).max() < 1.0
