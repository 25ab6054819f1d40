"""When the filtered derivative works, and when it cannot.

The implicit law realises the derivative action by solving a small linear
system each step; the common practical alternative replaces the derivative
with a first-order filter.  The filter closes an algebraic loop through the
plant's acceleration feedthrough, so its fast pole sits at roughly
``-K a / k_e`` with ``K`` the well-posedness factor and ``a`` the filter
speed.  When ``K / k_e < 0`` (the benchmark cart-pendulum gains) that pole is
unstable and the filtered loop diverges no matter how fast the filter.
"""

import numpy as np

from pidpbc import (Gains, SimulationAborted, cart_pendulum_incline,
                    linear_system, simulate, wellposedness_matrix_K)

print("== a plant where the filter works ==")
toy = linear_system(M=[[2.0, 0.5], [0.5, 1.0]], S_u=[[2.0]], name="toy")
g = Gains(k_e=1.0, k_a=2.0, k_u=1.0, K_P=1.0, K_I=1.0, K_D=0.1,
          q_u_star=[0.0], q_a_star=[0.0])
K = wellposedness_matrix_K(toy, g, [0.0])[0, 0]
print(f"well-posedness factor K = {K:.3f}, K/k_e = {K / 1.0:+.3f} > 0 "
      f"=> filter pole ~ {-K / 1.0:.2f} * a, stable")
exact = simulate(toy, g, [0.5, -0.3], [0.0, 0.0], t_end=10.0, dt=1e-3)
for ab in (25.0, 50.0, 100.0, 200.0):
    ga = Gains(k_e=1.0, k_a=2.0, k_u=1.0, K_P=1.0, K_I=1.0, K_D=0.1,
               q_u_star=[0.0], q_a_star=[0.0], filter_a=ab)
    tr = simulate(toy, ga, [0.5, -0.3], [0.0, 0.0], t_end=10.0, dt=1e-3,
                  controller="approx")
    dev = max(np.abs(tr.q_u - exact.q_u).max(), np.abs(tr.q_a - exact.q_a).max())
    print(f"  a = b = {ab:5.0f}: sup position deviation from implicit law "
          f"= {dev:.5f}")
print("  (deviation shrinks as the filter gets faster)")

print("\n== the benchmark cart-pendulum: filtered law diverges ==")
plant = cart_pendulum_incline()
gb = Gains(k_e=5.0, k_a=50.0, k_u=-500.0, K_P=1.0, K_I=2.0, K_D=0.1,
           q_u_star=[0.0], q_a_star=[0.0])
psi = np.deg2rad(20.0)
K = wellposedness_matrix_K(plant, gb, [psi])[0, 0]
print(f"well-posedness factor at the incline normal: K = {K:.3f}, "
      f"K/k_e = {K / 5.0:+.3f} < 0 => unstable filter pole "
      f"~ {-K / 5.0:.2f} * a")
q0 = [np.deg2rad(20.0), -0.6]
for ab in (50.0, 200.0, 400.0):
    ga = Gains(k_e=5.0, k_a=50.0, k_u=-500.0, K_P=1.0, K_I=2.0, K_D=0.1,
               q_u_star=[0.0], q_a_star=[0.0], filter_a=ab)
    try:
        tr = simulate(plant, ga, q0, [0.0, 0.0], t_end=10.0, dt=2e-4,
                      controller="approx")
        print(f"  a = b = {ab:5.0f}: completed but wildly off "
              f"(cart reached |q_a| = {np.abs(tr.q_a).max():.1f} m)")
    except SimulationAborted as exc:
        print(f"  a = b = {ab:5.0f}: {exc}")
print("  (the implicit law stabilizes this plant without trouble; "
      "use controller='exact' here)")
