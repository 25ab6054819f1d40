"""PID passivity-based control of underactuated mechanical systems.

The package models Euler-Lagrange plants whose inertia depends only on the
unactuated coordinates, builds the pair of passive outputs obtained by
splitting the kinetic energy through a Schur complement, wraps a PID around
their weighted sum, and verifies the resulting storage, dissipation, and
equilibrium-assignment identities numerically, both at random states and
along simulated trajectories.
"""

from .mechanics import (
    MechanicalSystem,
    State,
    DynamicsError,
    SingularInertiaError,
    assemble_inertia,
    coriolis_decomposition,
    forward_dynamics,
)
from .passivity import (
    PassiveOutputs,
    IntegrabilityError,
    QuadratureError,
    schur_unactuated,
    passive_outputs,
    storage_functions,
    potential_integral_VN,
    robust_storage,
    power_balance_residual,
)
from .controller import (
    Gains,
    ControllerState,
    GainSignWarning,
    WellPosednessError,
    wellposedness_matrix_K,
    exact_control,
    approx_control,
    pi_control,
    integrator_init,
    closed_form_z1,
    plant_input,
)
from .analysis import (
    AssumptionReport,
    check_assumptions,
    scan_A5,
    check_A7,
    desired_inertia_Md,
    desired_potential_Vd,
    lyapunov_Hd_and_U,
    linear_closed_loop,
)
from .sim import (
    Trace,
    SetpointStep,
    SimulationAborted,
    simulate,
    verify_passivity,
    verify_lyapunov,
    verify_l2_gain,
    detect_convergence,
    tail_residuals,
    write_trace_csv,
    write_column_map,
    read_trace_csv,
)
from .systems import cart_pendulum_incline, linear_system, pinned_linear_2dof

__version__ = "0.1.0"
