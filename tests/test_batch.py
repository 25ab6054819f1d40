"""Batched reference functions agree with their per-point calls.

The simulator builds every trace column by calling the public functions on
a stack of samples, so each batch-aware function is pinned here against a
loop over the same states.
"""

import itertools
from dataclasses import astuple, replace

import numpy as np
import pytest

from pidpbc import (ControllerState, State, assemble_inertia,
                    cart_pendulum_incline, closed_form_z1, coriolis_decomposition,
                    desired_inertia_Md, desired_potential_Vd, exact_control, linear_system,
                    lyapunov_Hd_and_U, passive_outputs, pi_control, pinned_linear_2dof,
                    plant_input, potential_integral_VN, robust_storage, schur_unactuated,
                    storage_functions, wellposedness_matrix_K)
from pidpbc.controller import feedforward_S
from pidpbc.mechanics import _per_point, _stencil
from pidpbc.passivity import holding_potential_V0, locked_matrix_Ma, velocity_outputs

from conftest import random_gains
from oracles import approx_control
from synthetic import make_synthetic, random_state

N_STATES = 7


def stack(states):
    return State(*(np.stack([getattr(st, f) for st in states])
                   for f in ("q_u", "q_a", "qd_u", "qd_a")))


def assert_batch_matches(name, batched, per_point):
    """``batched`` (array or tuple of arrays) equals the stacked per-point results."""
    if isinstance(batched, tuple):
        for j, part in enumerate(batched):
            assert_batch_matches(f"{name}[{j}]", part, [r[j] for r in per_point])
        return
    ref = np.stack([np.asarray(r, dtype=float) for r in per_point])
    got = np.asarray(batched, dtype=float)
    assert got.shape == ref.shape, (name, got.shape, ref.shape)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), name


@pytest.mark.parametrize("s,m", [(1, 1), (2, 2), (2, 1)])
@pytest.mark.parametrize("mode", ["cancel_Va", "robust_A8"])
def test_batched_reference_functions_match_per_point(s, m, mode):
    rng = np.random.default_rng(100 * s + m)
    sys_ = make_synthetic(s, m, seed=7 * s + m)
    g = random_gains(sys_, rng, mode=mode)
    states = [random_state(sys_, rng) for _ in range(N_STATES)]
    z1s = rng.normal(size=(N_STATES, m))
    z2s = rng.normal(size=(N_STATES, m))
    us = rng.normal(size=(N_STATES, m))
    kappa = rng.normal(size=m)
    st = stack(states)
    cs = ControllerState(z1s, z2s)
    lyap = lyapunov_Hd_and_U(sys_, g)
    point_cs = [ControllerState(z1, z2) for z1, z2 in zip(z1s, z2s)]

    cases = {
        "State.q": lambda x: x.q,
        "State.qd": lambda x: x.qd,
        "muu": lambda x: sys_.muu(x.q_u),
        "mau": lambda x: sys_.mau(x.q_u),
        "Vu": lambda x: sys_.Vu(x.q_u),
        "gradVu": lambda x: sys_.gradVu(x.q_u),
        "Va": lambda x: sys_.Va(x.q_a),
        "gradVa": lambda x: sys_.gradVa(x.q_a),
        "velocity_outputs": lambda x: velocity_outputs(sys_, x),
        "passive_outputs": lambda x: astuple(passive_outputs(sys_, x, g)),
        "schur_unactuated": lambda x: schur_unactuated(sys_, x.q_u),
        "locked_matrix_Ma": lambda x: locked_matrix_Ma(sys_, x.q_u),
        "storage_functions": lambda x: storage_functions(sys_, x),
        "robust_storage": lambda x: robust_storage(sys_, x),
        "holding_potential_V0": lambda x: holding_potential_V0(sys_, x.q_u),
        "potential_integral_VN": lambda x: potential_integral_VN(sys_, x.q_u),
        "coriolis_decomposition": lambda x: coriolis_decomposition(sys_, x),
        "assemble_inertia": lambda x: assemble_inertia(sys_, x.q_u),
        "wellposedness_matrix_K": lambda x: wellposedness_matrix_K(sys_, g, x.q_u),
        "feedforward_S": lambda x: feedforward_S(sys_, g, x),
        "closed_form_z1": lambda x: closed_form_z1(sys_, g, x, kappa),
        "desired_inertia_Md": lambda x: desired_inertia_Md(sys_, g, x.q_u),
        "desired_potential_Vd": lambda x: desired_potential_Vd(sys_, g, x.q),
        "H_d": lambda x: lyap.H_d(x),
    }
    for name, fn in cases.items():
        assert_batch_matches(name, fn(st), [fn(x) for x in states])

    with_controller = {
        "exact_control": lambda x, c: exact_control(sys_, g, x, c),
        "approx_control": lambda x, c: approx_control(sys_, g, x, c),
        "pi_control": lambda x, c: pi_control(sys_, g, x, c),
        "U": lambda x, c: lyap.U(x, c.z1),
    }
    for name, fn in with_controller.items():
        assert_batch_matches(name, fn(st, cs), [fn(x, c) for x, c in zip(states, point_cs)])
    assert_batch_matches("plant_input", plant_input(sys_, g, us, st.q_a),
                         [plant_input(sys_, g, u, x.q_a) for u, x in zip(us, states)])

    # the same plant without the closed-form coupling potential: adaptive
    # quadrature per sample
    quad = replace(sys_, VN_fn=None)
    assert_batch_matches("potential_integral_VN (quadrature)",
                         potential_integral_VN(quad, st.q_u),
                         [potential_integral_VN(quad, x.q_u) for x in states])


# ---------------------------------------------------------------------------
# Float and batch forms of the built-in plants' callbacks
# ---------------------------------------------------------------------------

CALLBACKS = ("muu_fn", "mau_fn", "muu_jac", "mau_jac", "Vu_fn", "gradVu_fn",
             "Va_fn", "gradVa_fn", "VN_fn")


def _blocks(sys_):
    """``name -> (coordinate count, block shape)`` of every plant callback."""
    s, m = sys_.s, sys_.m
    return {"muu_fn": (s, (s, s)), "mau_fn": (s, (m, s)), "muu_jac": (s, (s, s, s)),
            "mau_jac": (s, (m, s, s)), "Vu_fn": (s, ()), "gradVu_fn": (s, (s,)),
            "Va_fn": (m, ()), "gradVa_fn": (m, (m,)), "VN_fn": (s, (m,))}


@pytest.mark.parametrize("plant", [
    cart_pendulum_incline(),
    pinned_linear_2dof(),
    linear_system(M=[[3.0, 0.4, 1.0, 0.2], [0.4, 2.0, 0.3, 0.5],
                     [1.0, 0.3, 2.0, 0.1], [0.2, 0.5, 0.1, 1.5]],
                  S_u=[[1.0, 0.3], [0.3, 2.0]], S_a=[[0.7, 0.1], [0.1, 0.4]]),
], ids=["cart", "pinned_linear_2dof", "linear_s2m2"])
def test_batch_forms_equal_their_point_callbacks_bitwise(plant, no_point_loop):
    # each built-in callback has a batch form, the accessors take it (the
    # per-point loop raises), and it equals the point callback sample by
    # sample, bit for bit, over any leading axes
    rng = np.random.default_rng(23)
    for name, (k, block) in _blocks(plant).items():
        fn = getattr(plant, name)
        assert fn.batch_form is not None, name
        for q in (rng.uniform(-np.pi, np.pi, (7, k)), rng.uniform(-np.pi, np.pi, (3, 4, k)),
                  _stencil(rng.uniform(-np.pi, np.pi, (7, k)))):
            got = _per_point(fn, q, block)
            assert got.shape == q.shape[:-1] + block, name
            for idx in np.ndindex(q.shape[:-1]):
                want = np.asarray(fn(q[idx]), dtype=float).reshape(block)
                assert np.array_equal(got[idx], want), (name, idx)


def test_float_forms_equal_their_point_callbacks_bitwise():
    # every float form of the built-in s = m = 1 plants returns a Python float
    # with the bits of its point callback's one entry, the sign of a zero
    # included (einsum and np.sum add from +0.0 in the linear chain)
    from pidpbc import scenario
    plants = [cart_pendulum_incline(), pinned_linear_2dof(),
              scenario.scenario_from_dict(scenario.builtin_scenario("linear")).system,
              linear_system(M=[[2.0, 0.3], [0.3, 1.5]], S_u=[[3.0]], S_a=[[0.0]]),
              linear_system(M=[[1.5, -0.4], [-0.4, 0.8]], S_u=[[-2.5]], S_a=[[0.7]])]
    xs = [0.0, -0.0] + np.random.default_rng(29).uniform(-np.pi, np.pi, 200).tolist()
    for plant, name in itertools.product(plants, CALLBACKS):
        fn = getattr(plant, name)
        for x in xs:
            got = fn.float_form(x)
            want = np.asarray(fn(np.array([x])), dtype=float).reshape(-1)
            assert type(got) is float, (plant.name, name)
            assert np.array([got]).tobytes() == want.tobytes(), (plant.name, name, x)


def test_replacing_a_callback_drops_its_forms():
    # the forms belong to the callback object, so a replaced callback cannot
    # leave a stale one behind: without V_N the quadrature runs, and a new
    # coupling block is called once per sample
    cart = cart_pendulum_incline()
    q = np.random.default_rng(31).uniform(-1.5, 1.5, (7, 1))
    quad = replace(cart, VN_fn=None)
    offset = potential_integral_VN(cart, np.zeros(1))  # the quadrature is 0 at the origin
    assert np.abs(potential_integral_VN(quad, q) - (potential_integral_VN(cart, q) - offset)
                  ).max() <= 1e-13

    calls = []
    counted = lambda p: calls.append(p) or cart.mau_fn(p)
    plant = replace(cart, mau_fn=counted)
    assert getattr(plant.mau_fn, "batch_form", None) is None
    assert np.array_equal(plant.mau(q), cart.mau(q))
    assert len(calls) == len(q)
