"""Every public entry that takes a plant rejects a part with another joint
count with ``ValidationError`` naming the part, before numpy sees it."""

import numpy as np
import pytest

from flexjoint import (
    ClosedLoopState,
    EnvironmentImpedance,
    ImpedanceGains,
    OpenLoopState,
    OuterLoop,
    Scenario,
    ShapedParams,
    ValidationError,
    closed_loop_energy,
    closed_loop_field,
    equivalence_residual,
    from_closed,
    linear_control,
    nonlinear_control,
    open_loop_energy,
    open_loop_field,
    outer_loop_torque,
    stability_dt_cap,
    synthesize_gains,
    to_closed,
)
from flexjoint.control import check_gain_consistency
from flexjoint.linalg import require_joints

# one-joint parts that fit the paper plant, two-joint parts that do not
X1, X2 = OpenLoopState.zero(1), OpenLoopState.zero(2)
Y1, Y2 = ClosedLoopState.unpack(np.zeros(4), 1), ClosedLoopState.unpack(np.zeros(8), 2)
SP2 = ShapedParams(np.eye(2), 2.0 * np.eye(2), np.zeros((2, 2)))
G2 = ImpedanceGains(0.5 * np.eye(2), np.eye(2), 2.5 * np.eye(2))
O2 = OuterLoop(np.eye(2), np.eye(2))
ENV2 = EnvironmentImpedance(2, 1.0, 2.0, 50.0)

# (entry, call on (plant, g1, sp1), name of the wrong part)
CASES = [
    ("stability_dt_cap", lambda m, g, sp: stability_dt_cap(Scenario(m, x0=X2)), "OpenLoopState"),
    ("stability_dt_cap", lambda m, g, sp: stability_dt_cap(Scenario(m, SP2)), "ShapedParams"),
    ("stability_dt_cap", lambda m, g, sp: stability_dt_cap(Scenario(m, G2)), "ImpedanceGains"),
    ("stability_dt_cap", lambda m, g, sp: stability_dt_cap(Scenario(m, sp, O2)), "OuterLoop"),
    ("stability_dt_cap", lambda m, g, sp: stability_dt_cap(Scenario(m, sp, environment=ENV2)),
     "EnvironmentImpedance"),
    ("to_closed", lambda m, g, sp: to_closed(X2, sp, m), "OpenLoopState"),
    ("to_closed", lambda m, g, sp: to_closed(X1, SP2, m), "ShapedParams"),
    ("from_closed", lambda m, g, sp: from_closed(Y2, sp, m), "ClosedLoopState"),
    ("from_closed", lambda m, g, sp: from_closed(Y1, SP2, m), "ShapedParams"),
    ("closed_loop_field", lambda m, g, sp: closed_loop_field(Y2, 0.0, 0.0, sp, m),
     "ClosedLoopState"),
    ("closed_loop_field", lambda m, g, sp: closed_loop_field(Y1, 0.0, 0.0, SP2, m),
     "ShapedParams"),
    ("closed_loop_energy", lambda m, g, sp: closed_loop_energy(Y2, sp, m), "ClosedLoopState"),
    ("closed_loop_energy", lambda m, g, sp: closed_loop_energy(Y1, SP2, m), "ShapedParams"),
    ("open_loop_field", lambda m, g, sp: open_loop_field(X2, 0.0, 0.0, m), "OpenLoopState"),
    ("open_loop_energy", lambda m, g, sp: open_loop_energy(X2, m), "OpenLoopState"),
    ("equivalence_residual", lambda m, g, sp: equivalence_residual(X2, 0.0, 0.0, g, sp, m),
     "OpenLoopState"),
    ("equivalence_residual", lambda m, g, sp: equivalence_residual(X1, 0.0, 0.0, G2, sp, m),
     "ImpedanceGains"),
    ("equivalence_residual", lambda m, g, sp: equivalence_residual(X1, 0.0, 0.0, g, SP2, m),
     "ShapedParams"),
    ("linear_control", lambda m, g, sp: linear_control(X2, 0.0, 0.0, g, m), "OpenLoopState"),
    ("linear_control", lambda m, g, sp: linear_control(X1, 0.0, 0.0, G2, m), "ImpedanceGains"),
    ("nonlinear_control", lambda m, g, sp: nonlinear_control(X2, 0.0, 0.0, g, m),
     "OpenLoopState"),
    ("nonlinear_control", lambda m, g, sp: nonlinear_control(X1, 0.0, 0.0, G2, m),
     "ImpedanceGains"),
    ("outer_loop_torque", lambda m, g, sp: outer_loop_torque(0.0, 0.0, O2, m), "OuterLoop"),
    ("check_gain_consistency", lambda m, g, sp: check_gain_consistency(G2, sp, m),
     "ImpedanceGains"),
    ("check_gain_consistency", lambda m, g, sp: check_gain_consistency(g, SP2, m),
     "ShapedParams"),
]


@pytest.mark.parametrize("entry, call, part", CASES,
                         ids=[f"{entry}-{part}" for entry, _, part in CASES])
def test_wrong_joint_count_is_a_validation_error(paper_plant, entry, call, part):
    g, sp = synthesize_gains(paper_plant, 1.5, 5e5)
    with pytest.raises(ValidationError, match=f"^{part} is 2-joint, plant is 1-joint$"):
        call(paper_plant, g, sp)


def test_require_joints_names_the_first_offender():
    require_joints(2, (None, X2, SP2, O2))
    with pytest.raises(KeyError, match="OuterLoop is 2-joint, plant is 1-joint"):
        require_joints(1, (X1, None, O2, SP2), KeyError)
