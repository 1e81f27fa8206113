"""Impedance shaping, passivity analysis, and simulation for flexible-joint robots."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .control import (
    ImpedanceGains,
    OuterLoop,
    ShapedParams,
    colgate_interval,
    gains_at,
    linear_control,
    nonlinear_control,
    outer_loop_torque,
    recover_shaped,
    synthesize_gains,
)
from .errors import (
    AssemblyError,
    ConfigurationError,
    DegenerateModelError,
    DivergenceError,
    FlexJointError,
    NotApplicableError,
    ParametrizationSingularError,
    RootFindingError,
    ShapingInfeasibleError,
    TransformSingularError,
    ValidationError,
)
from .lti import (
    EnvironmentImpedance,
    PassivityVerdict,
    RationalTF,
    StateSpace,
    TargetImpedance,
    admittance_1dof,
    assemble_closed_loop,
    assemble_coupled,
    assemble_plant_loop,
    env_impedance_tf,
    freq_response,
    poles_zeros,
    positive_real_check,
    ss_to_tf,
    target_admittance,
)
from .model import (
    LinearRobotParams,
    NonlinearRobotModel,
    OpenLoopState,
    as_model,
    open_loop_energy,
    open_loop_field,
    two_link_arm,
)
from .sim import (
    InputSignal,
    Scenario,
    SimResult,
    integrate,
    l2_distance,
    passivity_audit,
    simulate_closed_form,
    simulate_coupled,
    simulate_plant_with_controller,
    simulate_target_dynamics,
    stability_dt_cap,
)
from .transform import (
    ClosedLoopState,
    closed_loop_energy,
    closed_loop_field,
    equivalence_residual,
    from_closed,
    to_closed,
)

__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
