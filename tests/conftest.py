import warnings

import numpy as np
import pytest

from pidpbc import Gains, GainSignWarning, SetpointStep, cart_pendulum_incline, simulate

warnings.filterwarnings("ignore", category=GainSignWarning)

BENCH = dict(k_e=5.0, k_a=50.0, k_u=-500.0, K_P=1.0, K_I=2.0, K_D=0.1)
Q0 = np.array([np.deg2rad(20.0), -0.6])
QD0 = np.zeros(2)
PSI = np.deg2rad(20.0)


def bench_gains(mode="cancel_Va", **overrides):
    kw = {**BENCH, **overrides}
    return Gains(q_u_star=[0.0], q_a_star=[0.0], mode=mode, **kw)


class PointLoopEntered(AssertionError):
    """A batch went through the per-point callback loop."""


@pytest.fixture
def no_point_loop(monkeypatch):
    """Makes the per-point callback loop over a batch raise
    :class:`PointLoopEntered`, so a test can show a path never enters it."""
    from pidpbc import mechanics

    def refuse(fn, q, shape):
        raise PointLoopEntered(f"{fn!r} looped over a batch of shape {q.shape}")

    monkeypatch.setattr(mechanics, "_loop_points", refuse)


@pytest.fixture(scope="session")
def cart():
    return cart_pendulum_incline()


@pytest.fixture(scope="session")
def gains_cancel():
    return bench_gains()


@pytest.fixture(scope="session")
def gains_robust():
    return bench_gains(mode="robust_A8")


@pytest.fixture(scope="session")
def bench_trace(cart, gains_cancel):
    """The benchmark run: setpoint step at t=5s, dt=1e-3."""
    return simulate(cart, gains_cancel, Q0, QD0, t_end=10.0, dt=1e-3,
                    setpoints=[SetpointStep(5.0, np.array([-0.3]))])


@pytest.fixture(scope="session")
def fine_trace_cancel(cart, gains_cancel):
    """High-resolution (dt=1e-4) run for the storage-rate checks."""
    return simulate(cart, gains_cancel, Q0, QD0, t_end=10.0, dt=1e-4)


@pytest.fixture(scope="session")
def fine_trace_robust(cart, gains_robust):
    return simulate(cart, gains_robust, Q0, QD0, t_end=10.0, dt=1e-4)


def random_spd(rng, k, scale=1.0):
    A = rng.normal(size=(k, k))
    return scale * (A @ A.T + k * np.eye(k))


def random_gains(sys_, rng, mode="cancel_Va"):
    """Valid random gain set for an arbitrary plant."""
    k_e = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
    k_a = rng.uniform(0.5, 2.0)
    k_u = k_a + rng.uniform(0.5, 1.5)
    return Gains(k_e=k_e, k_a=k_a, k_u=k_u,
                 K_P=random_spd(rng, sys_.m), K_I=random_spd(rng, sys_.m),
                 K_D=0.3 * random_spd(rng, sys_.m),
                 q_u_star=np.zeros(sys_.s), q_a_star=np.zeros(sys_.m), mode=mode)
