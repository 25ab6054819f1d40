"""Property tests over drawn synthetic plants.

They add to the fixed-seed identity tests, at the same bounds, over plants
with ``s, m`` in 1..3, drawn seeds and both plant-side modes.  Hypothesis
runs derandomized, so every run draws the same examples.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from pidpbc import (ControllerState, closed_form_z1, coriolis_decomposition,
                    exact_control, forward_dynamics, integrator_init, lyapunov_Hd_and_U,
                    passive_outputs, pi_control, plant_input, storage_functions)
from pidpbc.controller import MODES
from pidpbc.passivity import holding_potential_V0
from pidpbc.sim import _build_eval_generic

from conftest import random_gains
from oracles import approx_control, christoffel_coriolis
from synthetic import make_synthetic, random_state

PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)
STATES = 10  # random states per drawn plant


@st.composite
def plants(draw):
    """A synthetic plant with ``s, m`` in 1..3 and a generator seeded apart from it."""
    s, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    plant = make_synthetic(s, m, seed=draw(st.integers(0, 2**32 - 1)))
    return plant, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@PROPERTY
@given(plants())
def test_storage_functions_sum_to_the_energy(case):
    plant, rng = case
    for _ in range(STATES):
        H_u, H_a, H = storage_functions(plant, random_state(plant, rng))
        assert abs(H_u + H_a - H) < 1e-13 * (1 + abs(H))


@PROPERTY
@given(plants())
def test_coriolis_decomposition_matches_christoffel(case):
    plant, rng = case
    for _ in range(STATES):
        x = random_state(plant, rng)
        cmu, dmu, act = coriolis_decomposition(plant, x)
        full = christoffel_coriolis(plant, x)
        assert np.abs(np.concatenate([cmu + dmu, act]) - full).max() \
            <= 1e-8 * (1 + np.abs(full).max())


@PROPERTY
@given(plants(), st.sampled_from(MODES))
def test_shaped_energy_equals_U_at_the_closed_form_integrator(case, mode):
    plant, rng = case
    g = random_gains(plant, rng, mode=mode)
    lyap = lyapunov_Hd_and_U(plant, g)
    _, kappa = integrator_init(plant, g, np.zeros(plant.n))
    gaps = [lyap.U(x, closed_form_z1(plant, g, x, kappa)) - lyap.H_d(x)
            for x in (random_state(plant, rng) for _ in range(STATES))]
    # the robust_A8 storage and integrator offset carry the affine potential,
    # so in that mode U exceeds H_d by the constant lyapunov_Hd_and_U states
    offset = 0.0
    if mode == "robust_A8":
        s_a = plant.affine_Va[0]
        offset = g.k_e * (g.k_a * plant.Va(g.q_a_star)
                          + (g.k_a - g.k_u) * holding_potential_V0(plant, g.q_u_star)) \
            + 0.5 * g.k_e ** 2 * s_a @ np.linalg.solve(g.K_I, s_a)
    assert max(abs(gap - offset) for gap in gaps) < 1e-10 * (1 + abs(offset))


@PROPERTY
@given(plants(), st.sampled_from(("exact", "approx", "pi")), st.sampled_from(MODES),
       st.booleans())
def test_generic_closure_matches_the_reference_route(case, law, mode, disturbed):
    # as test_generic_closure_matches_reference_functions; "pi" is the exact
    # closure at K_D = 0 against the PI law written out
    plant, rng = case
    m = plant.m
    g = random_gains(plant, rng, mode=mode)
    if law == "pi":
        g = replace(g, K_D=0.0)
    controller = "approx" if law == "approx" else "exact"
    use_z2 = controller == "approx"
    d = (lambda t: 0.3 * np.sin(4.0 * t + np.arange(m))) if disturbed else None
    rhs = _build_eval_generic(plant, g, controller, d, 0.0)
    for _ in range(STATES):
        x = random_state(plant, rng)
        cs = ControllerState(rng.normal(size=m), rng.normal(size=m))
        t = rng.uniform(0.0, 10.0)
        if law == "exact":
            u = exact_control(plant, g, x, cs, det_tol=0.0)
        elif law == "approx":
            u, _, z2dot = approx_control(plant, g, x, cs)
        else:
            u = pi_control(plant, g, x, cs)
        force = u if d is None else u + d(t)
        qdd = forward_dynamics(plant, x, plant_input(plant, g, force, x.q_a))
        want = np.concatenate([x.qd, qdd, passive_outputs(plant, x, g).y_d]
                              + ([z2dot] if use_z2 else []))
        got = rhs(t, np.concatenate([x.q, x.qd, cs.z1] + ([cs.z2] if use_z2 else [])))
        assert np.abs(got - want).max() <= 1e-11 * (1.0 + np.abs(want).max()), \
            (plant.name, law, mode, disturbed)
