"""The one construction path: ``linalg.freeze`` decides the joint count of
every parameter type and chart state by one rule, coerces and freezes the
fields, and checks admissibility."""

import numpy as np
import pytest

from flexjoint import (
    EnvironmentImpedance,
    ImpedanceGains,
    LinearRobotParams,
    NonlinearRobotModel,
    OpenLoopState,
    OuterLoop,
    ShapedParams,
    TargetImpedance,
    ValidationError,
)
from flexjoint.linalg import as_matrix, as_vector

# (type, its first array field, a build from a joint count and one value for
# every array field); the count is used only by the types with an ``n`` field
TYPES = [
    (LinearRobotParams, "M", lambda n, v: LinearRobotParams(n, v, v, v, v)),
    (NonlinearRobotModel, "J",
     lambda n, v: NonlinearRobotModel(n, None, None, None, None, v, v, v)),
    (ShapedParams, "J_e", lambda n, v: ShapedParams(v, v, v)),
    (ImpedanceGains, "K_F", lambda n, v: ImpedanceGains(v, v, v)),
    (OuterLoop, "K_phi", lambda n, v: OuterLoop(v, v)),
    (EnvironmentImpedance, "M_h", lambda n, v: EnvironmentImpedance(n, v, v, v)),
    (TargetImpedance, "M_d", lambda n, v: TargetImpedance(n, v, v, v)),
    (OpenLoopState, "q", lambda n, v: OpenLoopState(v, v, v, v)),
]
WITH_N = [case for case in TYPES if "n" in case[0].__dataclass_fields__]
IDS = [case[0].__name__ for case in TYPES]
IDS_WITH_N = [case[0].__name__ for case in WITH_N]


def _raises(build, message):
    with pytest.raises(ValidationError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("cls, first, build", TYPES, ids=IDS)
def test_non_numeric_first_field_names_it(cls, first, build):
    _raises(lambda: build(1, "x"), f"{first} has non-numeric entries")


@pytest.mark.parametrize("cls, first, build", TYPES, ids=IDS)
def test_diagonal_vector_counts_its_joints(cls, first, build):
    diagonal = [1.0, 2.0]
    built = build(2, diagonal)
    assert built.n == 2
    coerce = as_vector if cls is OpenLoopState else as_matrix
    for name in cls.__dataclass_fields__:
        value = getattr(built, name)
        if isinstance(value, np.ndarray) and name != "phi_d":
            assert np.array_equal(value, coerce(diagonal, 2, name)), name
            assert not value.flags.writeable


@pytest.mark.parametrize("cls, first, build", TYPES, ids=IDS)
def test_zero_joints_are_refused(cls, first, build):
    # the n field is 0, or the first field is empty
    empty = [] if cls is OpenLoopState else np.zeros((0, 0))
    value = 1.0 if "n" in cls.__dataclass_fields__ else empty
    _raises(lambda: build(0, value), "joint count must be >= 1, got 0")


@pytest.mark.parametrize("n, message", [
    (1.5, "joint count must be an integer, got 1.5"),
    (True, "joint count must be an integer, got True"),
    (np.float64(2.0), "joint count must be an integer, got np.float64(2.0)"),
    (-1, "joint count must be >= 1, got -1"),
])
@pytest.mark.parametrize("cls, first, build", WITH_N, ids=IDS_WITH_N)
def test_bad_joint_count_field(cls, first, build, n, message):
    _raises(lambda: build(n, 1.0), message)


@pytest.mark.parametrize("cls, first, build", WITH_N, ids=IDS_WITH_N)
def test_numpy_integer_joint_count(cls, first, build):
    assert np.array_equal(getattr(build(np.int64(2), 1.0), first), np.eye(2))


def test_bad_outer_loop_gain_is_named_before_its_reference():
    # the PSD gains are checked before the vector phi_d is coerced
    with pytest.raises(ValidationError, match="^K_phi is not positive semidefinite"):
        OuterLoop(-1.0, 1.0, phi_d=[1.0, 2.0])
