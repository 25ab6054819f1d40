import itertools
import linecache
import math
import os
import re
from dataclasses import fields, replace

import numpy as np
import pytest

import pidpbc.sim
from pidpbc import (ControllerState, Gains, SetpointStep, SimulationAborted, State,
                    check_A7, detect_convergence, exact_control, forward_dynamics,
                    integrator_init, linear_closed_loop, linear_system, passive_outputs,
                    pi_control, pinned_linear_2dof,
                    plant_input, read_trace, read_trace_csv, scan_A5, simulate,
                    verify_l2_gain, verify_lyapunov, verify_passivity, wellposedness_matrix_K,
                    write_column_map, write_trace, write_trace_csv)
from pidpbc.controller import MODES, det_floor
from pidpbc.scenario import builtin_scenario, scenario_from_dict
from pidpbc.sim import CONTROLLERS, _build_eval_generic, _kernel_code, _rk4

from conftest import PSI, Q0, QD0, bench_gains, random_gains
from oracles import approx_control, plant_response, simulate_open_loop, with_stage_loop
from synthetic import formula_plant, make_synthetic, random_state


TOY_GAINS = dict(k_e=1.0, k_a=2.0, k_u=1.0, K_P=1.0, K_I=1.0, K_D=0.1)
DISTURBANCES = (None, lambda t: np.array([0.3 * np.sin(4.0 * t)]))


def _toy():
    return linear_system(M=[[2.0, 0.5], [0.5, 1.0]], S_u=[[2.0]], name="toy")


def _adapters(plant):
    """``plant`` with the float forms stripped: each callback a new point
    callback that keeps only its batch form, so the kernel calls an adapter
    that reads it."""
    from pidpbc.mechanics import with_forms
    names = ("muu_fn", "mau_fn", "muu_jac", "mau_jac", "gradVu_fn", "gradVa_fn",
             "Vu_fn", "Va_fn", "VN_fn")
    return replace(plant, **{name: with_forms(lambda q, fn=fn: fn(q), batch_form=fn.batch_form)
                             for name, fn in ((name, getattr(plant, name)) for name in names)})


CALLBACKS = ("muu_fn", "mau_fn", "muu_jac", "mau_jac", "gradVu_fn", "gradVa_fn")


def _called_forms(plant):
    """``plant`` with each float form wrapped so that the recorder cannot
    follow it (``float`` of its arguments): the kernel calls the float forms,
    as it calls any form it cannot inline."""
    from pidpbc.mechanics import with_forms
    return replace(plant, **{name: with_forms(lambda q, fn=fn: fn(q), batch_form=fn.batch_form,
                                              float_form=lambda *x, f=fn.float_form:
                                              f(*map(float, x)))
                             for name, fn in ((name, getattr(plant, name)) for name in CALLBACKS)})


def _called_callbacks(rhs):
    """The plant callbacks that the source of the kernel ``rhs`` calls."""
    source = "".join(linecache.getlines(rhs.__code__.co_filename))
    return {name for name in CALLBACKS if re.search(rf"\b{name}\(", source)}


def _three_read_paths(plant, g, controller, d):
    """The kernels of ``plant``, any s and m, with its float forms inlined,
    with them called and with adapters of its point callbacks, each checked
    to be what it is: the first calls no plant callback, the others call
    every one they read, the second its float forms, the third adapters."""
    plants = (plant, _called_forms(plant), _adapters(plant))
    paths = [_build_eval_generic(p, g, controller, d, 1e-10) for p in plants]
    needed = set(CALLBACKS[:5]) | ({"gradVa_fn"} if g.mode == "robust_A8" else set())
    assert [_called_callbacks(rhs) for rhs in paths] == [set(), needed, needed]
    for p, rhs, form in zip(plants[1:], paths[1:], (True, False)):
        assert all((rhs.__globals__[name] is getattr(p, name).float_form) == form
                   for name in needed), (plant.name, form)
    return paths


def _pin_cases(cart):
    """(plant, gains factory, random-state box for q_u, disturbance) of the
    pinned plants: the cart inside its well-posedness window, the toy plant,
    whose derivative feedthrough is filter-stable, and an s = m = 2 plant
    written in formula forms."""
    toy_gains = lambda mode: Gains(q_u_star=[0.0], q_a_star=[0.0], mode=mode, **TOY_GAINS)
    formula = formula_plant(6)
    return [(cart, lambda mode: bench_gains(mode=mode), (-0.3, 0.9), DISTURBANCES[1]),
            (_toy(), toy_gains, (-1.0, 1.0), DISTURBANCES[1]),
            (formula, lambda mode: random_gains(formula, np.random.default_rng(6), mode=mode),
             (-1.0, 1.0), _disturbance(2))]


def test_the_three_read_paths_agree_at_random_states(cart):
    # the three read paths of a plant: its float forms inlined, the same
    # forms called (wrapped so that they cannot be inlined), and the same
    # plant with its float forms stripped, which adapters of its point
    # callbacks serve: the field bit for bit at random states, with both
    # laws, both modes, with and without a disturbance, at s = m = 1 and
    # s = m = 2
    rng = np.random.default_rng(7)
    for plant, make_gains, (lo, hi), dist in _pin_cases(cart):
        n, m = plant.n, plant.m
        for controller, mode, d in itertools.product(CONTROLLERS, MODES, (None, dist)):
            g = make_gains(mode)
            inlined, called, adapters = _three_read_paths(plant, g, controller, d)
            for _ in range(50):
                x = rng.uniform(-1.0, 1.0, 2 * n + m * (2 if controller == "approx" else 1))
                x[:plant.s] = rng.uniform(lo, hi, plant.s)
                t = rng.uniform(0.0, 10.0)
                want = adapters(t, x.tolist())
                assert inlined(t, x.tolist()) == called(t, x.tolist()) == want, \
                    (plant.name, controller, mode, d is not None, x)


def test_the_three_read_paths_agree_over_whole_runs(cart):
    # the three read paths of a plant (float forms inlined, the same forms
    # called, and adapters): every trace column bit for bit, on both
    # built-in plants and an s = m = 2 plant in formula forms, with both
    # laws, both modes, with and without a disturbance, across a setpoint
    # step; a slow derivative filter keeps the filtered law on the cart finite
    lin = _linear_example()
    formula = formula_plant(6)
    runs = [(cart, lambda mode: bench_gains(mode=mode, filter_a=5.0),
             dict(t_end=2.0, q0=Q0, target=-0.3), DISTURBANCES[1]),
            (lin.system, lambda mode: replace(lin.gains, mode=mode),
             dict(t_end=2.0, q0=lin.q0, target=-0.3), DISTURBANCES[1]),
            (formula, lambda mode: random_gains(formula, np.random.default_rng(6), mode=mode),
             dict(t_end=0.1), _disturbance(2))]
    for (plant, make_gains, run, dist), controller, mode in itertools.product(
            runs, CONTROLLERS, MODES):
        for d in (None, dist):
            g = make_gains(mode)
            _three_read_paths(plant, g, controller, d)
            inlined, *others = (_generic_run(p, g, controller, d, **run)
                                for p in (plant, _called_forms(plant), _adapters(plant)))
            for f, other in itertools.product(fields(inlined), others):
                col = getattr(inlined, f.name)
                if isinstance(col, np.ndarray):
                    assert np.array_equal(col, getattr(other, f.name)), \
                        (plant.name, controller, mode, d is not None, f.name)


@pytest.mark.parametrize("s,m", [(2, 2), (2, 1), (1, 2), (3, 2), (3, 3), (4, 1)])
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
    # one evaluation reads each callback it needs exactly once, at its own
    # coordinates: both inertia blocks, their Jacobians and gradVu at q_u
    # and, in robust_A8 only, gradVa at q_a, also where gradVa has one entry
    want = ["gradVu_fn", "mau_fn", "mau_jac", "muu_fn", "muu_jac"]
    if mode == "robust_A8":
        want.append("gradVa_fn")
    for s, m in ((2, 2), (2, 1)):
        plant = make_synthetic(s, m, seed=5)
        g = random_gains(plant, np.random.default_rng(5), mode=mode)
        rng = np.random.default_rng(6)
        for controller in CONTROLLERS:
            calls = []
            watched = replace(plant, **{name: (lambda q, fn=getattr(plant, name), name=name:
                                               calls.append((name, list(q))) or fn(q))
                                        for name in CALLBACKS})
            x = rng.normal(size=2 * plant.n + m * (2 if controller == "approx" else 1))
            _build_eval_generic(watched, g, controller, None, 0.0)(0.0, x)
            assert sorted(name for name, _ in calls) == sorted(want), (s, m, controller, calls)
            for name, q in calls:
                assert q == list(x[s:plant.n] if name == "gradVa_fn" else x[:s]), (s, m, name)


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
    # whole RK4 runs of the generic step against the field of the reference
    # functions, beyond s = m = 1; each plant runs
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
                    with_stage_loop(_reference_rhs(plant, g, controller, d))):
            X = np.empty((201, x0.size))
            X[0] = x0
            _rk4(rhs, X, 0, 200, 1e-3)
            paths.append(X)
        scale = 1.0 + np.abs(paths[1]).max(axis=0)
        assert np.all(np.abs(paths[0] - paths[1]).max(axis=0) < 1e-11 * scale), \
            (s, m, controller, mode, disturbed)


def _permuted(plant, g, pu, pa):
    """``plant`` and ``g`` in the coordinates ``q_u[pu]`` and ``q_a[pa]``: the
    callbacks, m_aa, the affine V_a, the gain matrices and the target."""
    iu, ia = np.argsort(pu), np.argsort(pa)

    def at(fn, inverse, *index):  # fn in the new coordinates, its entries permuted
        return lambda q: np.asarray(fn(q[inverse]))[np.ix_(*index)] if index else fn(q[inverse])

    s_a, c0 = plant.affine_Va
    moved = replace(plant, muu_fn=at(plant.muu_fn, iu, pu, pu),
                    mau_fn=at(plant.mau_fn, iu, pa, pu), muu_jac=at(plant.muu_jac, iu, pu, pu, pu),
                    mau_jac=at(plant.mau_jac, iu, pa, pu, pu), maa=plant.maa[np.ix_(pa, pa)],
                    Vu_fn=at(plant.Vu_fn, iu), gradVu_fn=at(plant.gradVu_fn, iu, pu),
                    Va_fn=at(plant.Va_fn, ia), gradVa_fn=at(plant.gradVa_fn, ia, pa),
                    VN_fn=at(plant.VN_fn, iu, pa), affine_Va=(s_a[pa], c0))
    return moved, replace(g, K_P=g.K_P[np.ix_(pa, pa)], K_I=g.K_I[np.ix_(pa, pa)],
                          K_D=g.K_D[np.ix_(pa, pa)], q_u_star=g.q_u_star[pu],
                          q_a_star=g.q_a_star[pa])


@pytest.mark.parametrize("s,m,seed", [(2, 2, 0), (2, 2, 1), (2, 2, 2), (3, 2, 0)])
def test_permuting_the_coordinates_permutes_the_trace(s, m, seed):
    # a metamorphic relation no reference in the step's own index order can
    # share: permute the unactuated coordinates among themselves and the
    # actuated ones among themselves, in the callbacks, gains, start and
    # target, and every trace column comes out permuted (det K, the energies
    # and the other scalars unchanged), both laws, both modes
    plant = make_synthetic(s, m, seed=seed)
    pu, pa = np.roll(np.arange(s), 1), np.arange(m)[::-1]
    q0 = np.linspace(0.2, -0.1, plant.n)
    q0_moved = np.concatenate([q0[:s][pu], q0[s:][pa]])
    for controller, mode in itertools.product(CONTROLLERS, MODES):
        g = random_gains(plant, np.random.default_rng(seed), mode=mode)
        moved, g_moved = _permuted(plant, g, pu, pa)
        run = dict(t_end=0.1, dt=1e-3, controller=controller)
        want = simulate(plant, g, q0, np.zeros(plant.n), **run)
        got = simulate(moved, g_moved, q0_moved, np.zeros(plant.n), **run)
        for f in fields(want):
            col = getattr(want, f.name)
            if not isinstance(col, np.ndarray):
                continue
            if col.ndim == 2:
                col = col[:, pu if f.name in ("q_u", "qd_u") else pa]
            assert np.abs(getattr(got, f.name) - col).max() <= 1e-13 * np.abs(col).max(), \
                (controller, mode, f.name)


def _calls_outside_branches(source):
    """The called names and attributes of ``source``, leaving out the branches
    that raise and the disturbance branch."""
    import ast
    tree, skipped = ast.parse(source), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and (isinstance(node.body[0], ast.Raise)
                                         or "dist" in ast.unparse(node.test)):
            skipped.update(map(id, ast.walk(node)))
    return {node.func.id if isinstance(node.func, ast.Name) else "." + node.func.attr
            for node in ast.walk(tree) if isinstance(node, ast.Call) and id(node) not in skipped}


def _float_literals(rhs):
    import ast
    source = "".join(linecache.getlines(rhs.__code__.co_filename))
    assert source.startswith("def kernel("), rhs.__code__.co_filename
    return [node.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, float)]


def _loop_calls(rhs):
    """The names that the ``for`` body of the kernel's ``rk4_run`` calls,
    leaving out its raise branches and its disturbance branches, and the
    names of the functions the source defines."""
    import ast
    tree = ast.parse("".join(linecache.getlines(rhs.__code__.co_filename)))
    run = next(node for node in tree.body if getattr(node, "name", None) == "rk4_run")
    loop = next(node for node in ast.walk(run) if isinstance(node, ast.For))
    calls = _calls_outside_branches("\n".join(map(ast.unparse, loop.body)))
    return calls, [node.name for node in tree.body if isinstance(node, ast.FunctionDef)]


def test_one_code_object_serves_a_structure_and_its_source_has_no_number(cart):
    # plant and gain numbers are the kernel's globals, never its source: two
    # plants and gain sets of one structure share one code object, and the
    # source holds no float literal; another law is another structure
    from pidpbc import cart_pendulum_incline
    built = []
    for seed in (1, 2):
        plant = make_synthetic(2, 2, seed=seed)
        built.append(_build_eval_generic(plant, random_gains(plant, np.random.default_rng(seed)),
                                         "exact", None, 0.0))
    assert built[0].__code__ is built[1].__code__
    assert built[0].__globals__ is not built[1].__globals__
    approx = _build_eval_generic(plant, random_gains(plant, np.random.default_rng(3)), "approx",
                                 None, 0.0)
    assert approx.__code__ is not built[0].__code__
    assert _float_literals(built[0]) == _float_literals(approx) == []
    # the built-in plants' float forms are inlined: two carts with other
    # masses and inclines share the cart's code object, each traced source
    # holds no float literal and calls no plant callback, and the linear
    # chain, of the same structure but other formulas, has its own source
    # under its own name; a timing-free guard of the s = m = 1 fast path:
    # it builds no array and calls no reader, det or solve outside its raise
    # branches and the disturbance branch; the source holds one RK4, the
    # segment loop, whose for body calls nothing but the recorded math forms
    # and store outside those branches.  No kernel or samples evaluation of
    # any s and m calls det, solve1 or array there: K is solved by Cramer's
    # rule in its own lines, and a built kernel binds none of the three
    other_cart = cart_pendulum_incline(pendulum_mass=0.2, cart_mass=0.6, psi=np.radians(12.0))
    lin = _linear_example()
    solves = {"array", "det", "solve1"}
    array_calls = solves | {"read", ".tolist"}
    for controller, mode in itertools.product(CONTROLLERS, MODES):
        carts = [_build_eval_generic(p, bench_gains(mode=mode), controller, None, 1e-10)
                 for p in (cart, other_cart)]
        chain = _build_eval_generic(lin.system, replace(lin.gains, mode=mode), controller, None,
                                    1e-10)
        assert carts[0].__code__ is carts[1].__code__
        assert carts[0].__globals__["c0"] != carts[1].__globals__["c0"]
        names = [rhs.__code__.co_filename for rhs in (carts[0], chain)]
        assert names[0] != names[1]
        for name, rhs in zip(names, (carts[0], chain)):
            assert name.startswith(f"<pidpbc kernel s=1 m=1 {controller} {mode} #")
            assert _float_literals(rhs) == [] and _called_callbacks(rhs) == set(), name
            assert not _calls_outside_branches("".join(linecache.getlines(name))) & array_calls
            calls, defined = _loop_calls(rhs)
            assert defined == ["kernel", "field", "rk4_run"], name
            assert {c for c in calls if not c.startswith("math_")} <= {"store"}, (name, calls)
        assert any(c.startswith("math_") for c in _loop_calls(carts[0])[0])
        for s, m in itertools.product((1, 2, 3), repeat=2):
            for reads in (((), frozenset()), None):
                source = "".join(_kernel_code(s, m, controller, mode, reads)[1][2])
                assert not _calls_outside_branches(source) & solves, (s, m, reads)
    for s, m in itertools.product((1, 2, 3), repeat=2):
        plant = make_synthetic(s, m, seed=10 * s + m)
        rhs = _build_eval_generic(plant, random_gains(plant, np.random.default_rng(s)), "exact",
                                  None, 1e-10)
        assert not solves & set(rhs.__globals__), (s, m)


def test_a_traceback_from_the_kernel_shows_the_generated_line():
    # the kernel is compiled under a name that gives its structure, and its
    # source is in linecache: a zero pivot of a singular M (a ZeroDivisionError,
    # which a run reports as the non-finite abort) points at its line, also
    # in a kernel with inlined float forms, whose name is its source's own
    import traceback
    plant = make_synthetic(2, 2, seed=93)
    singular = replace(plant, muu_fn=lambda q_u: np.zeros((2, 2)))
    g = random_gains(plant, np.random.default_rng(93))
    # m_uu = m_au = m_aa = 1, the float forms of the coupling block in place of m_uu
    coupled = linear_system(M=[[2.0, 1.0], [1.0, 1.0]], S_u=[[1.0]])
    cases = [(singular, g, [0.1] * 10, "<pidpbc kernel s=2 m=2 exact cancel_Va #",
              "L_1_0 = W_1_0 / d0"),
             (replace(coupled, muu_fn=coupled.mau_fn), Gains(q_u_star=[0.0], q_a_star=[0.0],
                                                            **TOY_GAINS),
              [0.1] * 5, "<pidpbc kernel s=1 m=1 exact cancel_Va #",
              "X_1_0 = p0_1 / d1")]
    for plant, gains, x, filename, line in cases:
        rhs = _build_eval_generic(plant, gains, "exact", None, 0.0)
        with pytest.raises(ZeroDivisionError) as err:
            rhs(0.0, x)
        frame = traceback.extract_tb(err.value.__traceback__)[-1]
        assert frame.filename == rhs.__code__.co_filename and frame.filename.startswith(filename)
        assert frame.line == linecache.getline(frame.filename, frame.lineno).strip() == line


def test_robust_start_makes_the_target_an_equilibrium(cart):
    # the integrator value simulate chooses must zero the closed-loop field
    # at (q*, 0) in robust_A8 mode, for every law, on the cart and on random
    # s = m = 2 plants
    sys2 = make_synthetic(2, 2, seed=3)
    g2 = random_gains(sys2, np.random.default_rng(3), mode="robust_A8")
    for plant, g in ((cart, bench_gains(mode="robust_A8")), (sys2, g2)):
        n = plant.n
        for controller in CONTROLLERS:
            tr = simulate(plant, g, g.q_star, np.zeros(n), t_end=1e-3, dt=1e-3,
                          controller=controller)
            use_z2 = controller == "approx"
            x = np.concatenate([g.q_star, np.zeros(n), tr.z1[0]]
                               + ([tr.z2[0]] if use_z2 else []))
            rhs = _build_eval_generic(plant, g, controller, None, 1e-10)(0.0, x)
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


def test_plant_response_matches_forward_dynamics_at_random_states(cart):
    # the response the generic closed loop and the open-loop audit integrate:
    # its drift with -grad V_a is the plant under zero force, without it the
    # plant under +grad V_a, and each input column the response to a unit force
    rng = np.random.default_rng(12)
    plants = (cart, pinned_linear_2dof(), make_synthetic(2, 2, seed=41),
              make_synthetic(1, 1, seed=42))
    for plant in plants:
        with_Va, without_Va = plant_response(plant, True), plant_response(plant, False)
        for _ in range(20):
            st = random_state(plant, rng)
            x = np.concatenate([st.q, st.qd]).tolist()
            sol, without = (np.reshape(response(x), (plant.n, 1 + plant.m))
                            for response in (with_Va, without_Va))
            drift = forward_dynamics(plant, st, np.zeros(plant.m))
            pairs = [(sol[:, 0], drift),
                     (without[:, 0], forward_dynamics(plant, st, plant.gradVa(st.q_a)))]
            pairs += [(sol[:, 1 + j], forward_dynamics(plant, st, e) - drift)
                      for j, e in enumerate(np.eye(plant.m))]
            scale = 1.0 + max(np.abs(want).max() for _, want in pairs)
            for got, want in pairs:
                assert np.abs(got - want).max() <= 1e-12 * scale, (plant.name, st)


@pytest.mark.parametrize("dt", [0.0, np.nan])
def test_open_loop_rejects_a_bad_step(cart, dt):
    with pytest.raises(ValueError, match="dt"):
        simulate_open_loop(cart, [0.3, 0.0], [0.5, 0.1], t_end=1.0, dt=dt)


def _stage_loop(builder):
    """``builder`` with each closure wrapped so that its ``rk4_run`` is the
    stage loop over it, and it carries no ``record``."""
    def build(*args):
        rhs = builder(*args)
        return with_stage_loop(lambda t, x: rhs(t, x))
    return build


def _generic_runs():
    """(plant, gains, controller, disturbance) of generic-path runs: two
    plants without batch forms, both laws, both modes, with and without a
    disturbance."""
    runs = []
    for s, m in ((2, 2), (2, 1)):
        plant = make_synthetic(s, m, seed=80 + m)
        for controller, mode, d in itertools.product(CONTROLLERS, MODES,
                                                     (None, _disturbance(m))):
            g = random_gains(plant, np.random.default_rng(80 + m), mode=mode)
            runs.append((plant, g, controller, d))
    return runs


def _generic_run(plant, g, controller, d, t_end=0.3, q0=None, target=0.1):
    """A run from a rest start, by default off the target, with a setpoint
    step to ``target`` half way."""
    n, m = plant.n, plant.m
    steps = [SetpointStep(t_end / 2, np.full(m, target))]
    q0 = np.linspace(0.2, -0.1, n) if q0 is None else q0
    return simulate(plant, g, q0, np.zeros(n), t_end=t_end, dt=1e-3, controller=controller,
                    disturbance=d, setpoints=steps)


def test_the_inlined_rk4_run_is_bitwise_the_stage_loop(cart, monkeypatch):
    # the generated RK4 loop of a kernel that calls no plant callback
    # against _rk4's stage loop over the same closure: every integrated row
    # bit for bit, on both built-in plants and an s = m = 2 plant in formula
    # forms, with both laws, both modes, a disturbance and a setpoint step; a
    # slow derivative filter keeps the filtered law on the cart finite
    lin = _linear_example()
    formula = formula_plant(6)
    plants = [(cart, lambda mode: bench_gains(mode=mode, filter_a=5.0),
               dict(t_end=2.0, q0=Q0, target=-0.3), DISTURBANCES[1]),
              (lin.system, lambda mode: replace(lin.gains, mode=mode),
               dict(t_end=2.0, q0=lin.q0, target=-0.3), DISTURBANCES[1]),
              (formula, lambda mode: random_gains(formula, np.random.default_rng(6), mode=mode),
               dict(t_end=0.1), _disturbance(2))]
    for (plant, make_gains, run, dist), controller, mode, disturbed in itertools.product(
            plants, CONTROLLERS, MODES, (False, True)):
        g, d = make_gains(mode), dist if disturbed else None
        rhs = _build_eval_generic(plant, g, controller, d, 1e-10)
        assert _called_callbacks(rhs) == set() and callable(rhs.rk4_run)
        rows = []
        for builder in (_build_eval_generic, _stage_loop(_build_eval_generic)):
            monkeypatch.setattr(pidpbc.sim, "_build_eval_generic", builder)
            tr = _generic_run(plant, g, controller, d, **run)
            rows.append(np.hstack([tr.q_u, tr.q_a, tr.qd_u, tr.qd_a, tr.z1]
                                  + ([tr.z2] if controller == "approx" else [])))
        assert np.array_equal(*rows), (plant.name, controller, mode, d is not None)


def test_generic_rk4_step_is_bitwise_the_stage_loop(monkeypatch):
    # the closure's own generated RK4 step against _rk4's stage loop over the
    # same closure: every integrated row bit for bit, with both laws, both
    # modes, with and without a disturbance, and a setpoint step, on two
    # plants without batch forms
    for plant, g, controller, d in _generic_runs():
        assert callable(_build_eval_generic(plant, g, controller, d, 1e-10).rk4_run)
        rows = []
        for builder in (_build_eval_generic, _stage_loop(_build_eval_generic)):
            monkeypatch.setattr(pidpbc.sim, "_build_eval_generic", builder)
            tr = _generic_run(plant, g, controller, d)
            rows.append(np.hstack([tr.q_u, tr.q_a, tr.qd_u, tr.qd_a, tr.z1]
                                  + ([tr.z2] if controller == "approx" else [])))
        assert np.array_equal(*rows), (plant.s, plant.m, controller, g.mode, d is not None)


def test_reused_reads_give_bitwise_the_trace_of_the_unseeded_pass(monkeypatch):
    # the stage loop over a closure without record() leaves the diagnostics
    # pass unseeded: every callback is called again at every sample; the
    # reads the step copied give every column bit for bit, across a
    # setpoint step, also where a plant differentiates its inertia blocks
    runs = _generic_runs()[::3]
    plant = replace(make_synthetic(2, 2, seed=82), muu_jac=None, mau_jac=None)
    runs.append((plant, random_gains(plant, np.random.default_rng(82)), "exact", None))
    for plant, g, controller, d in runs:
        traces = []
        for builder in (_build_eval_generic, _stage_loop(_build_eval_generic)):
            monkeypatch.setattr(pidpbc.sim, "_build_eval_generic", builder)
            tr = _generic_run(plant, g, controller, d)
            traces.append({f.name: getattr(tr, f.name) for f in fields(tr)
                           if isinstance(getattr(tr, f.name), np.ndarray)})
        assert traces[0].keys() == traces[1].keys()
        for name, col in traces[0].items():
            assert np.array_equal(col, traces[1][name]), (name, controller, g.mode)


def test_a_run_and_its_trace_call_no_closed_form_of_the_law(cart, monkeypatch):
    # the trace's u and detK come from the integrated law's own lines: with
    # every closed form of the law raising wherever it is named, runs of both
    # laws and both modes, disturbed and across a setpoint step, still end
    # with finite law columns
    import sys
    import oracles

    def refuse(*args, **kwargs):
        raise AssertionError("a closed form of the law was called")

    modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "pidpbc"]
    for module, name in itertools.product(modules + [oracles], ("exact_control", "feedforward_S",
                                                                "approx_control",
                                                                "wellposedness_matrix_K")):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, refuse)
    syn = make_synthetic(2, 2, seed=8)
    for (plant, make_gains), controller, mode in itertools.product(
            ((cart, lambda mode: bench_gains(mode=mode, filter_a=5.0)),
             (syn, lambda mode: random_gains(syn, np.random.default_rng(8), mode=mode))),
            CONTROLLERS, MODES):
        tr = _generic_run(plant, make_gains(mode), controller, _disturbance(plant.m))
        assert len(tr.segments) == 2 and np.any(tr.d != 0.0)
        for col in (tr.u, tr.tau, tr.detK):
            assert np.all(np.isfinite(col)), (plant.name, controller, mode)


def test_law_columns_match_the_closed_forms():
    # the u, tau and detK columns against the closed forms of the law, the
    # implicit one of pidpbc.controller and the filtered one of the oracles,
    # with det K by np.linalg.det: within 1e-13 of each column's largest
    # entry, on the bundled examples and on s = m = 2 and s = 3, m = 2
    # plants under both laws and both modes
    runs = []
    for example in ("cart_pendulum", "cart_pendulum_ku450", "linear"):
        sc = scenario_from_dict(builtin_scenario(example))
        runs.append(simulate(sc.system, sc.gains, sc.q0, sc.qd0, sc.t_end, sc.dt,
                             controller=sc.controller, disturbance=sc.disturbance,
                             setpoints=sc.setpoints))
    for (s, m), controller, mode in itertools.product(((2, 2), (3, 2)), CONTROLLERS, MODES):
        plant = make_synthetic(s, m, seed=8)
        runs.append(_generic_run(plant, random_gains(plant, np.random.default_rng(8), mode=mode),
                                 controller, _disturbance(m)))
    for tr in runs:
        plant, g = tr.system, tr.gains
        st = State(tr.q_u, tr.q_a, tr.qd_u, tr.qd_a)
        if tr.controller == "exact":
            u = exact_control(plant, g, st, ControllerState(tr.z1), det_tol=0.0)
        else:
            u = approx_control(plant, g, st, ControllerState(tr.z1, tr.z2))[0]
        want = dict(u=u, tau=plant_input(plant, g, u + tr.d, tr.q_a),
                    detK=np.linalg.det(wellposedness_matrix_K(plant, g, tr.q_u)))
        for name, col in want.items():
            assert np.abs(getattr(tr, name) - col).max() <= 1e-13 * np.abs(col).max(), \
                (plant.name, tr.controller, g.mode, name)


def test_a_K_with_a_zero_leading_entry_is_solved():
    # K = k_e I + K_D L G = [[0, 5], [-1, 6]] is nonsingular with a zero
    # leading entry, which an unpivoted elimination divides by: the run needs
    # only det K = 5 (A5), its loop is Hurwitz, and the detK and u columns
    # are the implicit law's within 1e-13 of their largest entries
    plant = linear_system(M=[[6.0, 1.0, -2.0], [1.0, 1.0, 0.0], [-2.0, 0.0, 1.0]], S_u=[[1.0]],
                          S_a=np.zeros((2, 2)))
    g = Gains(k_e=1.0, k_a=1.0, k_u=2.0, K_P=np.eye(2), K_I=0.5 * np.eye(2),
              K_D=np.ones((2, 2)), q_u_star=[0.0], q_a_star=[0.0, 0.0])
    assert np.array_equal(wellposedness_matrix_K(plant, g, np.zeros(1)), [[0.0, 5.0], [-1.0, 6.0]])
    assert linear_closed_loop(plant, g).max_real < 0.0
    tr = simulate(plant, g, [0.1, -0.1, 0.2], np.zeros(3), t_end=0.5, dt=1e-3)
    assert np.abs(tr.detK - 5.0).max() <= 5e-13
    u = exact_control(plant, g, State(tr.q_u, tr.q_a, tr.qd_u, tr.qd_a), ControllerState(tr.z1),
                      det_tol=0.0)
    assert np.abs(tr.u - u).max() <= 1e-13 * np.abs(u).max()


@pytest.mark.parametrize("mode", MODES)
def test_each_recorded_callback_is_called_once_less_per_sample(monkeypatch, mode):
    # the first stage's reads of m_uu, m_au, their Jacobians and grad V_u
    # stand in for the diagnostics pass's calls at every sample; V_u, V_a,
    # grad V_a and V_N are not read by the step and are called as often as
    # without the reuse
    recorded = {"muu_fn", "mau_fn", "muu_jac", "mau_jac", "gradVu_fn"}
    plant = make_synthetic(2, 2, seed=83)
    g = random_gains(plant, np.random.default_rng(83), mode=mode)
    counts = []
    for builder in (_build_eval_generic, _stage_loop(_build_eval_generic)):
        monkeypatch.setattr(pidpbc.sim, "_build_eval_generic", builder)
        calls = []
        n_samples = _generic_run(_counted(plant, calls), g, "exact", None).n_samples
        counts.append({name: calls.count(name) for name in set(calls)})
    reused, unseeded = counts
    assert reused.keys() == unseeded.keys() and recorded <= reused.keys()
    for name, n_calls in unseeded.items():
        assert reused[name] == n_calls - (n_samples if name in recorded else 0), name


def test_a_plant_with_batch_forms_records_nothing(cart, gains_cancel):
    # a batch form costs the diagnostics pass less than a copy per sample;
    # the s = m = 2 chain runs the generic step in simulate
    chain = linear_system(M=np.diag([3.0, 3.0, 1.0, 1.0]) + 0.5, S_u=np.eye(2))
    g = Gains(q_u_star=np.zeros(2), q_a_star=np.zeros(2), **TOY_GAINS)
    for plant, gg in ((cart, gains_cancel), (chain, g)):
        for controller in CONTROLLERS:
            rhs = _build_eval_generic(plant, gg, controller, None, 1e-10)
            assert rhs.record(11, 1e-3) == [], (plant.name, controller)
    # a callback without one among them is recorded alone
    point_mau = replace(cart, mau_fn=lambda q_u: cart.mau_fn(q_u))
    rows = _build_eval_generic(point_mau, gains_cancel, "exact", None, 1e-10).record(11, 1e-3)
    assert [(fn, arr.shape) for fn, arr in rows] == [(point_mau.mau_fn, (11, 1, 1))]


def test_an_aborted_generic_run_keeps_its_message(cart, gains_cancel, monkeypatch):
    # a cart whose grad V_u has no float form calls it through an adapter
    # and records the reads; its aborts read as those of the stage loop: the
    # non-finite state of a wide start and of the k_u = -300 sweep row, and
    # a singular K under a high floor
    plant = replace(cart, gradVu_fn=lambda q_u: cart.gradVu_fn(q_u))
    wide = ([PSI + 0.85, -0.6], [-2.0, 0.0])
    for g, (q0, qd0), t in ((gains_cancel, wide, 0.216),
                            (bench_gains(k_u=-300.0), (Q0, QD0), 0.617)):
        messages = []
        for builder in (_build_eval_generic, _stage_loop(_build_eval_generic)):
            monkeypatch.setattr(pidpbc.sim, "_build_eval_generic", builder)
            with pytest.raises(SimulationAborted) as err:
                simulate(plant, g, q0, qd0, t_end=1.0, dt=1e-3)
            messages.append(str(err.value))
        assert messages == [f"state became non-finite at t={t:.6g}s"] * 2
    monkeypatch.undo()

    def recording(*args):
        rhs = _build_eval_generic(*args)
        rhs.record(2001, 1e-3)
        return rhs

    q0, qd0 = [PSI + 0.85, 0.0], [-2.0, 0.0]
    messages = {_rk4_abort_message(plant, gains_cancel, builder, q0, qd0, 2000, 0.5)
                for builder in (recording, _stage_loop(_build_eval_generic))}
    assert len(messages) == 1 and messages.pop().startswith("well-posedness matrix singular at t=")


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
    # the generated step and the stage loop must still end in the non-finite
    # abort, never in a ZeroDivisionError or OverflowError
    # m_uu = m_au = m_aa = 1: the inertia [[1, 1], [1, 1]], which linear_system
    # refuses, with the float forms of the coupling block in place of m_uu
    coupled = linear_system(M=[[2.0, 1.0], [1.0, 1.0]], S_u=[[1.0]])
    singular = replace(coupled, muu_fn=coupled.mau_fn, name="singular")
    g = Gains(q_u_star=[0.0], q_a_star=[0.0], **TOY_GAINS)
    cases = [(singular, g, [0.3, 0.1], [0.0, 0.0], 0.001),
             (cart, gains_cancel, [PSI + 0.85, -0.6], [-2.0, 0.0], 0.216)]
    for plant, gg, q0, qd0, t_abort in cases:
        want = f"state became non-finite at t={t_abort:.6g}s"
        with pytest.raises(SimulationAborted) as err:
            simulate(plant, gg, q0, qd0, t_end=1.0, dt=1e-3)
        assert str(err.value) == want
        for builder in (_build_eval_generic, _stage_loop(_build_eval_generic)):
            assert _rk4_abort_message(plant, gg, builder, q0, qd0, 1000, 0.0) == want


def test_sweep_abort_row_is_the_same_through_both_builders(cart):
    # the aborting row of `pidpbc sweep --param k_u` on the bundled cart
    g = bench_gains(k_u=-300.0)
    want = "state became non-finite at t=0.617s"
    with pytest.raises(SimulationAborted) as err:
        simulate(cart, g, Q0, QD0, t_end=10.0, dt=1e-3,
                 setpoints=[SetpointStep(5.0, np.array([-0.3]))])
    assert str(err.value) == want
    for builder in (_build_eval_generic, _stage_loop(_build_eval_generic)):
        assert _rk4_abort_message(cart, g, builder, Q0, QD0, 1000) == want


def test_the_segment_loop_aborts_as_the_stage_loop(cart, monkeypatch):
    # each abort of a whole run through the generated segment loop reads as
    # the stage loop's, message and time: a state that stops being finite in
    # the second setpoint segment (the step's absolute offset), the det K
    # floor there, a zero pivot of the constant inertia [[1, 1], [1, 1]]
    # (computed before the loop) and the k_u = -300 sweep row
    coupled = linear_system(M=[[2.0, 1.0], [1.0, 1.0]], S_u=[[1.0]])
    singular = replace(coupled, muu_fn=coupled.mau_fn, name="singular")

    def floored(builder):  # builder with the det K floor raised to 0.5
        return lambda *args: builder(*args[:-1], 0.5)

    cases = [(cart, bench_gains(k_u=-500.0), Q0, QD0, 1.0, -0.9, None,
              "state became non-finite at t=1.351s"),
             (cart, bench_gains(), [PSI + 0.85, 0.0], [-2.0, 0.0], 0.1, -0.3, floored,
              "well-posedness matrix singular at t=0.524s"),
             (singular, Gains(q_u_star=[0.0], q_a_star=[0.0], **TOY_GAINS), [0.3, 0.1],
              [0.0, 0.0], 0.5, 0.2, None, "state became non-finite at t=0.001s"),
             (cart, bench_gains(k_u=-300.0), Q0, QD0, 5.0, -0.3, None,
              "state became non-finite at t=0.617s")]
    for plant, g, q0, qd0, t_step, target, wrap, want in cases:
        messages = []
        for builder in (_build_eval_generic, _stage_loop(_build_eval_generic)):
            monkeypatch.setattr(pidpbc.sim, "_build_eval_generic",
                                wrap(builder) if wrap else builder)
            with pytest.raises(SimulationAborted) as err:
                simulate(plant, g, q0, qd0, t_end=10.0, dt=1e-3,
                         setpoints=[SetpointStep(t_step, np.array([target]))])
            messages.append(str(err.value))
        assert messages[0] == messages[1] and messages[0].startswith(want), (plant.name, messages)


def test_a_math_domain_error_at_a_finite_state_propagates(cart, monkeypatch):
    # an inlined math_sqrt of a negative q_u is not an abort: its ValueError
    # leaves the run as it leaves the stage loop
    from pidpbc.systems import _formula
    plant = replace(cart, gradVu_fn=_formula(lambda th, lib=math: -0.3 * lib.sqrt(th), 1))
    rhs = _build_eval_generic(plant, bench_gains(), "exact", None, 1e-10)
    assert _called_callbacks(rhs) == set() and "math_sqrt" in rhs.__globals__
    for builder in (_build_eval_generic, _stage_loop(_build_eval_generic)):
        monkeypatch.setattr(pidpbc.sim, "_build_eval_generic", builder)
        with pytest.raises(ValueError, match="math domain error"):
            simulate(plant, bench_gains(), Q0, QD0, t_end=3.0, dt=1e-3)


def test_a_run_enters_the_evaluation_once_per_segment(cart, monkeypatch):
    # a timing-free guard of the segment loop: its stages are inlined, so a
    # whole run calls the kernel's field only for each segment's last state,
    # on the cart and on an s = m = 2 plant read through adapters
    calls = []

    def counting(*args):
        rhs = _build_eval_generic(*args)
        field = rhs.__globals__["field"]
        rhs.__globals__["field"] = lambda t, *x: calls.append(t) or field(t, *x)
        return rhs

    monkeypatch.setattr(pidpbc.sim, "_build_eval_generic", counting)
    synthetic = make_synthetic(2, 2, seed=82)
    runs = [(cart, bench_gains(), dict(t_end=10.0, q0=Q0, target=-0.3)),
            (synthetic, random_gains(synthetic, np.random.default_rng(82)), {})]
    for plant, g, run in runs:
        calls.clear()
        tr = _generic_run(plant, g, "exact", None, **run)
        assert len(tr.segments) == 2 and tr.n_samples > 300, plant.name
        assert calls == [k1 * 1e-3 for _, k1, _ in tr.segments], plant.name


def _linear_example():
    from pidpbc import scenario
    return scenario.scenario_from_dict(scenario.builtin_scenario("linear"))


@pytest.mark.parametrize("mode,n_calls", [("cancel_Va", 5), ("robust_A8", 6)])
def test_scalar_rhs_stays_on_floats(cart, monkeypatch, mode, n_calls):
    # a timing-free guard of the float forms of both built-in plants: the
    # build records each float form it needs once; where the recorder cannot
    # follow a form (here it takes float() of its argument), one evaluation
    # calls it once, on Python floats, and returns Python floats, bitwise the
    # inlined forms, and the integration never calls an accessor
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
                return fn.float_form(float(x))
            return mechanics.with_forms(lambda q: fn(q), float_form=form,
                                        batch_form=fn.batch_form)

        counted_plant = dataclasses.replace(plant, **{k: counted(getattr(plant, k))
                                                      for k in names})
        counted_rhs = _build_eval_generic(counted_plant, g, "exact", None, 1e-10)
        assert len(calls) == n_calls and float not in calls, plant.name
        calls.clear()
        out = counted_rhs(0.0, x)
        assert calls == [float] * n_calls, plant.name
        assert type(out) is list and all(type(v) is float for v in out)
        rhs = _build_eval_generic(plant, g, "exact", None, 1e-10)
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


def test_the_recorder_cannot_be_fooled_silently():
    # whatever looks at a traced value's own value spoils the recording and
    # raises; a numpy ufunc refuses it
    import operator
    from pidpbc.sim import _Tape, _Traced
    looks = (bool, float, operator.index, hash, lambda x: x == 0.0, lambda x: x != 0.0,
             lambda x: x < 0.0, lambda x: x <= 0.0, lambda x: x > 0.0, lambda x: x >= 0.0,
             lambda x: 0.0 < x, np.cos, np.negative, math.cos)
    for look in looks:
        tape = _Tape()
        with pytest.raises(TypeError):
            look(_Traced(tape, "q0") * 2.0)
        assert tape.spoiled or look in (np.cos, np.negative)


def test_a_float_form_written_over_its_argument_and_lib_is_inlined(cart):
    # every operator the recorder follows, reflected too, on float and int
    # constants, with operations that share an operand: the form is inlined,
    # and the run is bitwise the run of the same plant that calls the form
    from pidpbc.mechanics import with_forms
    grad = cart.gradVu_fn.float_form

    def form(x, lib=math):
        g = grad(x, lib)
        return g * 2.0 - g * 1.0 + ((1.0 * x) ** 2 / (3 + lib.cos(x)) - -x / 4 + 2 ** -x - 1) * 1e-3

    plant = replace(cart, gradVu_fn=with_forms(lambda q: form(float(q[0])), float_form=form))
    assert _called_callbacks(_build_eval_generic(plant, bench_gains(), "exact", None, 1e-10)) \
        == set()
    inlined, called = (simulate(p, bench_gains(), Q0, QD0, t_end=1.0, dt=1e-3)
                       for p in (plant, _called_forms(plant)))
    for f in fields(inlined):
        col = getattr(inlined, f.name)
        if isinstance(col, np.ndarray):
            assert np.array_equal(getattr(called, f.name), col), f.name


def test_a_float_form_the_recorder_cannot_follow_is_called(cart):
    # a form that branches on its argument, compares it, takes float() of it,
    # calls math or a numpy ufunc on it itself, ends in an int or gives
    # another value when it is not traced is called at every read; a refused
    # recording leaves no line, and the run is bitwise the cart's, whose
    # forms are inlined
    from pidpbc.mechanics import with_forms
    mau, grad = cart.mau_fn.float_form, cart.gradVu_fn.float_form
    cases = [("gu_0", "gradVu_fn", lambda x: grad(x) if x > 0 else grad(x)),
             ("gu_0", "gradVu_fn", lambda x: grad(x) if x == 0 else grad(x)),
             ("gu_0", "gradVu_fn", lambda x: grad(float(x))),
             ("A_0_0", "mau_fn", lambda x: mau(x, math)),
             ("gu_0", "gradVu_fn", lambda x: grad(np.positive(x))),
             ("gu_0", "gradVu_fn", lambda x, lib=math: grad(x, lib) if lib.exp(x) > 0 else 0.0),
             ("dU_0_0_0", "muu_jac", lambda x: 0),
             ("A_0_0", "mau_fn", lambda x, lib=math: mau(x, lib) if type(x) is float else 1.0)]
    run = dict(t_end=1.0, dt=1e-3)
    want = simulate(cart, bench_gains(), Q0, QD0, **run)
    for target, name, form in cases:
        fn = getattr(cart, name)
        plant = replace(cart, **{name: with_forms(lambda q, fn=fn: fn(q), float_form=form,
                                                  batch_form=fn.batch_form)})
        rhs = _build_eval_generic(plant, bench_gains(), "exact", None, 1e-10)
        source = linecache.getlines(rhs.__code__.co_filename)
        assert _called_callbacks(rhs) == {name}, target
        assert f"    {target} = {name}(q0)\n" in source and "math_exp" not in "".join(source)
        got = simulate(plant, bench_gains(), Q0, QD0, **run)
        for f in fields(want):
            col = getattr(want, f.name)
            if isinstance(col, np.ndarray):
                assert np.array_equal(getattr(got, f.name), col), (target, f.name)
    # at s = 2 a form nested otherwise than its block (a row short, or flat)
    # is called, and its read raises ValueError; one whose entry does not
    # replay bitwise is called, and the run is bitwise the inlined plant's
    formula = formula_plant(6)
    g = random_gains(formula, np.random.default_rng(6))
    muu = formula.muu_fn.float_form

    def odd(q0, q1, lib=math):  # its last entry is another number when traced
        (a, b), (c, d) = muu(q0, q1, lib)
        return (a, b), (c, d if type(q0) is float else 1.0)

    cases = [(lambda q0, q1, lib=math: (muu(q0, q1, lib)[0], muu(q0, q1, lib)[1][:1]),
              "not enough"),
             (lambda q0, q1, lib=math: sum(muu(q0, q1, lib), ()), "too many"), (odd, None)]
    want = _generic_run(formula, g, "exact", None)
    for form, error in cases:
        plant = replace(formula, muu_fn=with_forms(lambda q: formula.muu_fn(q), float_form=form))
        rhs = _build_eval_generic(plant, g, "exact", None, 1e-10)
        assert _called_callbacks(rhs) == {"muu_fn"}, error
        assert "    ((U_0_0, U_0_1, ), (U_1_0, U_1_1, ), ) = muu_fn(q0, q1)\n" \
            in linecache.getlines(rhs.__code__.co_filename)
        if error:
            with pytest.raises(ValueError, match=f"{error} values to unpack"):
                _generic_run(plant, g, "exact", None)
            continue
        got = _generic_run(plant, g, "exact", None)
        for f in fields(want):
            col = getattr(want, f.name)
            if isinstance(col, np.ndarray):
                assert np.array_equal(getattr(got, f.name), col), f.name


@pytest.mark.parametrize("bad", [lambda g: [g, 99.0], lambda g: np.array([g, 99.0])],
                         ids=["list", "array"])
def test_scalar_reader_refuses_a_result_with_two_entries(cart, bad):
    # a callback without a float form is read through its adapter, where a
    # result holding more than one entry is an error, never its first entry
    gradVu = cart.gradVu_fn
    plant = replace(cart, gradVu_fn=lambda q_u: bad(gradVu(q_u)))
    with pytest.raises(ValueError, match="cannot reshape array of size 2"):
        simulate(plant, bench_gains(), Q0, QD0, t_end=0.01, dt=1e-3)
    with pytest.raises(ValueError):
        plant.gradVu(np.array([0.3]))


def test_simulate_inlines_each_float_form_and_calls_the_rest(cart, monkeypatch):
    # the kernel inlines the float forms of the built-in plants and calls a
    # callback without one (gradVa's only in robust_A8) through an adapter,
    # still inlining the others; each such run is bitwise the inlined run
    built = []
    monkeypatch.setattr(pidpbc.sim, "_build_eval_generic",
                        lambda *args: built.append(_build_eval_generic(*args)) or built[-1])
    lin = _linear_example()
    synthetic = make_synthetic(1, 1, seed=3)
    point_gradVu = replace(cart, gradVu_fn=lambda q_u: cart.gradVu_fn(q_u))
    point_gradVa = replace(cart, gradVa_fn=lambda q_a: cart.gradVa_fn(q_a))
    cases = [(cart, bench_gains(), Q0, set()),
             (lin.system, lin.gains, lin.q0, set()),
             (point_gradVu, bench_gains(), Q0, {"gradVu_fn"}),
             (point_gradVa, bench_gains(), Q0, set()),
             (cart, bench_gains(mode="robust_A8"), Q0, set()),
             (point_gradVa, bench_gains(mode="robust_A8"), Q0, {"gradVa_fn"}),
             (synthetic, random_gains(synthetic, np.random.default_rng(3)), [0.1, 0.0],
              set(CALLBACKS[:5]))]
    runs = []
    for plant, g, q0, called in cases:
        built.clear()
        runs.append(simulate(plant, g, q0, np.zeros(2), t_end=0.5, dt=1e-3))
        assert [_called_callbacks(rhs) for rhs in built] == [called], (plant.name, g.mode)
    for want, got in ((0, 2), (0, 3), (4, 5)):
        for f in fields(runs[want]):
            col = getattr(runs[want], f.name)
            if isinstance(col, np.ndarray):
                assert np.array_equal(getattr(runs[got], f.name), col), (got, f.name)


def test_both_builders_read_a_disturbance_by_one_rule(cart, gains_cancel):
    # a disturbance with the wrong number of entries is the same error through
    # the float forms and adapters, the step and the stage loop, not a plant
    # callback's
    x = [0.3, -0.2, 0.1, 0.05, 0.01]
    messages = set()
    for builder, plant in itertools.product(
            (_build_eval_generic, _stage_loop(_build_eval_generic)), (cart, _adapters(cart))):
        with pytest.raises(ValueError) as err:
            builder(plant, gains_cancel, "exact", lambda t: [0.1, 0.2], 1e-10)(0.0, x)
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
    # a stage state that is no longer finite, or an inertia that is not
    # positive definite, ends the run as SimulationAborted naming the time
    flat = replace(cart, muu_fn=lambda q_u: [[0.0]])
    with pytest.raises(SimulationAborted) as err:
        simulate_open_loop(flat, [0.3, 0.0], [0.5, 0.1], t_end=0.01, dt=1e-3)
    assert str(err.value) == "inertia matrix not positive definite at q_u=[0.3] (t=0s)"
    want = "state became non-finite at t=0.001s"
    with pytest.raises(SimulationAborted) as err:
        simulate_open_loop(cart, [0.1, 0.0], [1e200, 0.0], t_end=0.01, dt=1e-3)
    assert str(err.value) == want
    with pytest.raises(SimulationAborted) as err:
        simulate(cart, gains_cancel, [0.1, 0.0], [1e200, 0.0], t_end=0.01, dt=1e-3)
    assert str(err.value) == want
    for builder in (_build_eval_generic, _stage_loop(_build_eval_generic)):
        assert _rk4_abort_message(cart, gains_cancel, builder, [0.1, 0.0], [1e200, 0.0],
                                  10) == want


def test_a_run_calls_no_np_linalg_wrapper_per_step(monkeypatch):
    # the generic step and the open-loop audit solve M and K in their own
    # lines: np.linalg's solve, det and cholesky run per run (the
    # diagnostics pass, the integrator start), never per step, so a run ten
    # times longer calls them as often
    plant = make_synthetic(2, 2, seed=91)
    g = random_gains(plant, np.random.default_rng(91))
    calls = []
    for name in ("solve", "det", "cholesky"):
        monkeypatch.setattr(np.linalg, name, lambda *a, fn=getattr(np.linalg, name), name=name,
                            **kw: calls.append(name) or fn(*a, **kw))
    q0, qd0 = np.linspace(0.2, -0.1, plant.n), np.zeros(plant.n)
    counts = []
    for t_end in (0.01, 0.1):
        calls.clear()
        for controller in CONTROLLERS:
            simulate(plant, g, q0, qd0, t_end=t_end, dt=1e-3, controller=controller)
        simulate_open_loop(plant, q0, qd0, t_end=t_end, dt=1e-3)
        counts.append(sorted(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("controller", CONTROLLERS)
def test_a_singular_inertia_at_the_last_state_aborts_the_run(controller):
    # the evaluation at a run's last state is judged like every stage: an
    # inertia singular there alone gives a NaN response, which ends in the
    # non-finite abort at t_end, never in a "singularity" exit nor in an
    # error of the diagnostics pass
    plant = make_synthetic(2, 2, seed=92)
    g = random_gains(plant, np.random.default_rng(92))
    q0, qd0 = np.linspace(0.2, -0.1, plant.n), np.zeros(plant.n)
    run = dict(t_end=0.05, dt=1e-3, controller=controller)
    last = simulate(plant, g, q0, qd0, **run).q_u[-1]

    def zero_at_last(fn):
        return lambda q_u: np.zeros((2, 2)) if np.array_equal(q_u, last) else fn(q_u)

    singular = replace(plant, muu_fn=zero_at_last(plant.muu_fn),
                       mau_fn=zero_at_last(plant.mau_fn))
    with pytest.raises(SimulationAborted) as err:
        simulate(singular, g, q0, qd0, **run)
    assert str(err.value) == "state became non-finite at t=0.05s"


def test_only_a_non_finite_stage_position_is_an_abort(cart, gains_cancel):
    # a non-finite position is an ArithmeticError (the abort) before any
    # callback sees it; a ValueError a callback raises at a finite state
    # (here a math domain error) is the plant's own and surfaces unchanged
    # through the generated step and the stage loop
    import dataclasses
    import math
    for builder, bad, i in itertools.product((_build_eval_generic,
                                              _stage_loop(_build_eval_generic)),
                                             (np.inf, -np.inf, np.nan), (0, 1)):
        x = [0.3, -0.2, 0.1, 0.05, 0.01]
        x[i] = bad
        with pytest.raises(ArithmeticError):
            builder(cart, gains_cancel, "exact", None, 1e-10)(0.0, x)
    from pidpbc.mechanics import with_forms
    plant = dataclasses.replace(cart, gradVu_fn=with_forms(lambda q_u: math.sqrt(q_u[0]),
                                                           float_form=math.sqrt))
    for builder in (_build_eval_generic, _stage_loop(_build_eval_generic)):
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
    # blow up, and the generated step and the stage loop over the same
    # closure, on the float forms and on adapters, stop with the same abort,
    # carrying the time, the configuration, |det K| and the floor
    q0, qd0 = [PSI + 0.85, 0.0], [-2.0, 0.0]
    messages = {_rk4_abort_message(plant, gains_cancel, builder, q0, qd0, 2000, 0.5)
                for builder in (_build_eval_generic, _stage_loop(_build_eval_generic))
                for plant in (cart, _adapters(cart))}
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
        max_real = linear_closed_loop(plant, g).max_real
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
            assert linear_closed_loop(plant, gc).max_real == max_real, (plant.name, g.mode, c)


def test_scaling_the_passive_output_weights_together_changes_neither_run_nor_verdict(cart):
    # k_e u = -(K_P y_d + K_I z1 + K_D yd_dot) with y_d linear in (k_e, k_a,
    # k_u): scaling the three weights by a power of two scales y_d, z1 and
    # both sides of the law exactly, so q, qd and u are bitwise the same, z1
    # scales exactly, and so does K = k_e I + K_D L G, whose det scales with
    # c^m; on the cart and on an s = m = 2 plant
    grid = scenario_from_dict(builtin_scenario("cart_pendulum")).gate_grid
    synthetic = make_synthetic(2, 2, seed=8)
    cases = [(cart, bench_gains(mode=mode), Q0, QD0, 3.0, grid) for mode in MODES]
    cases += [(synthetic, random_gains(synthetic, np.random.default_rng(8), mode=mode),
               [0.2, -0.1, 0.1, 0.3], np.zeros(4), 0.5,
               np.stack(np.meshgrid(*2 * [np.linspace(-1.0, 1.0, 11)]), axis=-1))
              for mode in MODES]
    for plant, g, q0, qd0, t_end, grid in cases:
        base = simulate(plant, g, q0, qd0, t_end=t_end, dt=1e-3)
        scan, max_real = scan_A5(plant, g, grid), linear_closed_loop(plant, g).max_real
        for c in (2.0 ** -3, 2.0 ** 4):
            gc = replace(g, k_e=c * g.k_e, k_a=c * g.k_a, k_u=c * g.k_u)
            tr = simulate(plant, gc, q0, qd0, t_end=t_end, dt=1e-3)
            for name in ("q_u", "q_a", "qd_u", "qd_a", "u"):
                assert np.array_equal(getattr(tr, name), getattr(base, name)), \
                    (plant.name, g.mode, c, name)
            assert np.array_equal(tr.z1, c * base.z1), (plant.name, g.mode, c)
            assert np.array_equal(wellposedness_matrix_K(plant, gc, tr.q_u),
                                  c * wellposedness_matrix_K(plant, g, base.q_u)), \
                (plant.name, g.mode, c)
            # the detK column is K's full minor, sums of products of m
            # entries, each scaled exactly by c
            assert np.array_equal(tr.detK, c ** plant.m * base.detK), (plant.name, g.mode, c)
            scan_c = scan_A5(plant, gc, grid)
            assert (scan_c["pass"], scan_c["sign_change"]) == (scan["pass"], scan["sign_change"])
            assert linear_closed_loop(plant, gc).max_real == max_real, (plant.name, g.mode, c)
        if plant is cart:
            # the A7 verdict is pinned at 2^-3 only: |grad V_d(q*)| scales
            # with c^2, and at 2^4 it reaches 9.70e-7 against the absolute
            # A7_GRAD_TOL = 1e-6, so a scale-aware tolerance must come first
            gc = replace(g, k_e=g.k_e / 8, k_a=g.k_a / 8, k_u=g.k_u / 8)
            assert check_A7(cart, gc, grid).passed == check_A7(cart, g, grid).passed, g.mode


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


def _first_rows(tr, rows: int):
    """``tr`` cut to its first ``rows`` samples."""
    return replace(tr, **{f.name: getattr(tr, f.name)[:rows] for f in fields(tr)
                          if isinstance(getattr(tr, f.name), np.ndarray)})


def _savetxt_bytes(tr, path) -> bytes:
    from pidpbc.sim import _column_layout
    layout = _column_layout(tr)
    np.savetxt(path, np.column_stack([col for _, col in layout]), delimiter=",",
               header=",".join(name for name, _ in layout), comments="", fmt="%.17g")
    return path.read_bytes()


def test_trace_csv_bytes_are_those_of_savetxt(cart, gains_cancel, bench_trace, tmp_path):
    # the block-wise writer against np.savetxt, on the benchmark run (several
    # blocks of rows, the last one partial) and an s = m = 2 approx trace of
    # less than one, with a signed zero, subnormal, tiny and huge values
    plant = make_synthetic(2, 2, seed=3)
    g = random_gains(plant, np.random.default_rng(3), mode="robust_A8")
    traces = [bench_trace, simulate(plant, g, [0.1, 0, 0, 0], np.zeros(4), t_end=0.05,
                                    dt=1e-3, controller="approx")]
    special = [-0.0, 5e-324, -2.5e-310, 1e-300, 1.7976931348623157e308, -1e300, 0.1, 1 / 3]
    for tr in traces:
        tr = replace(tr, H=tr.H.copy())
        tr.H[:len(special)] = special[:tr.n_samples]
        write_trace_csv(tr, tmp_path / "got.csv")
        want = _savetxt_bytes(tr, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == want, tr.n_samples
    assert sorted(os.listdir(tmp_path)) == ["got.csv", "want.csv"]


@pytest.mark.parametrize("cores", [1, 2, 3, 4])
def test_trace_csv_bytes_do_not_depend_on_the_share_count(bench_trace, tmp_path, monkeypatch,
                                                          cores):
    # the writer is serial: on a machine that reports 1-4 cores it forks no
    # worker, and the benchmark run cut to fewer rows than a block, one block,
    # one block and a row, several blocks and a partial last one, and the
    # whole run, each gives the bytes of np.savetxt
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    for rows in (2, 127, 128, 129, 1201, 10_001):
        tr = _first_rows(bench_trace, rows)
        write_trace_csv(tr, tmp_path / "got.csv")
        want = _savetxt_bytes(tr, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == want, rows
    assert forks == []
    assert sorted(os.listdir(tmp_path)) == ["got.csv", "want.csv"]


def test_trace_record_reads_back_bitwise(cart, gains_cancel, tmp_path):
    # an s = m = 1 run, and an s = m = 2 approx robust_A8 run with every
    # column: the record names its fields as the CSV header does, in order
    from pidpbc.sim import _column_layout
    plant = make_synthetic(2, 2, seed=3)
    g = random_gains(plant, np.random.default_rng(3), mode="robust_A8")
    traces = [simulate(cart, gains_cancel, Q0, QD0, t_end=0.2, dt=1e-3,
                       disturbance=DISTURBANCES[1]),
              simulate(plant, g, [0.1, 0, 0, 0], np.zeros(4), t_end=0.05, dt=1e-3,
                       controller="approx")]
    assert len(_column_layout(traces[1])) == 35
    for tr in traces:
        path = tmp_path / "trace.npy"
        write_trace(tr, path)
        cols = read_trace(path)
        layout = _column_layout(tr)
        assert list(cols) == [name for name, _ in layout]
        for name, col in layout:
            assert cols[name].dtype == np.float64 and cols[name].tobytes() == col.tobytes(), name
        write_trace_csv(tr, tmp_path / "trace.csv")
        assert list(read_trace_csv(tmp_path / "trace.csv")) == list(cols)


class _Unpickled:
    """Makes the directory ``marker`` when unpickled."""

    def __init__(self, marker):
        self.marker = marker

    def __reduce__(self):
        return os.mkdir, (str(self.marker),)


def test_read_trace_refuses_what_is_not_a_float64_record(tmp_path):
    # a pickle, an object array, a plain float array, an integer field, a
    # 2-D record, an archive and an empty file: each is a ValueError naming
    # the path, and nothing in the file is unpickled
    import pickle
    marker = tmp_path / "unpickled"
    payloads = {
        "pickled.npy": lambda fh: pickle.dump(_Unpickled(marker), fh),
        "object.npy": lambda fh: np.save(fh, np.array([_Unpickled(marker)]), allow_pickle=True),
        "plain.npy": lambda fh: np.save(fh, np.zeros(3)),
        "int_field.npy": lambda fh: np.save(fh, np.zeros(3, dtype=[("t", "<f8"), ("k", "<i8")])),
        "two_d.npy": lambda fh: np.save(fh, np.zeros((3, 2), dtype=[("t", "<f8")])),
        "archive.npz": lambda fh: np.savez(fh, t=np.zeros(3)),
        "empty.npy": lambda fh: None,
    }
    for name, write in payloads.items():
        with open(tmp_path / name, "wb") as fh:
            write(fh)
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / name}: not a trace record")):
            read_trace(tmp_path / name)
    assert not marker.exists()


def test_a_failed_write_leaves_no_file(bench_trace, tmp_path, monkeypatch):
    # the record's and the CSV's writer each fail after part of the file is out
    def fail(fh, *args, **kwargs):
        fh.write(b"\x93NUMPY" if "b" in fh.mode else "t,q_u0")
        raise RuntimeError("disk fails")

    monkeypatch.setattr(pidpbc.sim, "_write_rows", fail)
    monkeypatch.setattr(np, "save", fail)
    for writer in (write_trace, write_trace_csv):
        with pytest.raises(RuntimeError, match="disk fails"):
            writer(bench_trace, tmp_path / "trace")
        assert os.listdir(tmp_path) == [], writer.__name__


def test_an_unwritable_path_fails_and_is_left_as_it_was(bench_trace, tmp_path):
    path = tmp_path / "trace"
    path.mkdir()
    for writer in (write_trace, write_trace_csv):
        with pytest.raises(IsADirectoryError):
            writer(bench_trace, path)
    assert os.listdir(tmp_path) == ["trace"] and os.listdir(path) == []


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
