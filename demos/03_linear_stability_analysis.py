"""Closed-loop pole analysis, exact for linear plants and local for the rest.

For a constant-inertia plant with block-diagonal stiffness the closed loop
is a quadratic matrix polynomial in the Laplace variable; asymptotic
stability is equivalent to its determinant being Hurwitz.  The script builds
the polynomial, takes its poles from the first-order pencil by
shift-invert, and confirms the predicted decay rate in simulation.  Any
plant of the class linearises at its target to the same polynomial (inertia
and potential Hessian taken at the target), so the cart-pendulum gets its
local poles too.
"""

import numpy as np

from pidpbc import (Gains, cart_pendulum_incline, linear_closed_loop,
                    pinned_linear_2dof, simulate)

plant = pinned_linear_2dof()
print("inertia:\n", np.array([[2.0, 1.0], [1.0, 1.0]]))
print("unactuated stiffness: 1.0\n")

print("== a gain set that is NOT stabilizing ==")
g_bad = Gains(k_e=1.0, k_a=1.0, k_u=-1.0, K_P=4.0, K_I=2.0, K_D=1.0,
              q_u_star=[0.0], q_a_star=[0.0])
lcl = linear_closed_loop(plant, g_bad)
print("poles:", np.round(lcl.roots, 4))
print("Hurwitz:", lcl.hurwitz)

print("\n== a stabilizing gain set ==")
g = Gains(k_e=2.0, k_a=0.75, k_u=0.25, K_P=2.0, K_I=1.5, K_D=0.3,
          q_u_star=[0.0], q_a_star=[0.0])
lcl = linear_closed_loop(plant, g)
print("poles:", np.round(lcl.roots, 4))
print("Hurwitz:", lcl.hurwitz, " slowest real part:", round(lcl.max_real, 4))

T = round(20.0 / abs(lcl.max_real) / 5e-3) * 5e-3
trace = simulate(plant, g, [0.4, -0.3], [0.0, 0.0], t_end=T, dt=5e-3)
qn = np.linalg.norm(np.hstack([trace.q_u, trace.q_a]), axis=1)
half = trace.n_samples // 2
A = np.vstack([trace.t[half:], np.ones(trace.n_samples - half)]).T
slope = np.linalg.lstsq(A, np.log(qn[half:]), rcond=None)[0][0]
print(f"\nsimulated over {T:.0f}s: fitted decay rate {slope:.4f} "
      f"vs slowest pole {lcl.max_real:.4f}")
print(f"final position error: {qn[-1]:.2e}")

print("\n== the cart-pendulum on the incline, linearised at the upright target ==")
cart = cart_pendulum_incline()
for k_u in (-500.0, -450.0):
    g_cart = Gains(k_e=5.0, k_a=50.0, k_u=k_u, K_P=1.0, K_I=2.0, K_D=0.1,
                   q_u_star=[0.0], q_a_star=[0.0])
    lcl_cart = linear_closed_loop(cart, g_cart)
    print(f"k_u={k_u:g}: poles", np.sort_complex(np.round(lcl_cart.roots, 4)))
    print("  Hurwitz:", lcl_cart.hurwitz, " local decay rate:", round(lcl_cart.max_real, 4))
