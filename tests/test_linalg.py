"""The one definiteness path: ``cholesky_lower`` for one matrix or a stack,
and ``require_admissible``, which decides and names a failure in one pass."""

import numpy as np
import pytest

from conftest import rand_spd
from flexjoint.errors import ShapingInfeasibleError
from flexjoint.linalg import cholesky_lower, require_admissible

GOOD = np.array([[2.0, 0.5], [0.5, 1.0]])
INDEFINITE = np.array([[1.0, 2.0], [2.0, 1.0]])
# asymmetry 1, symmetric part [[1, 2.5], [2.5, 1]] indefinite
ASYMMETRIC_INDEFINITE = np.array([[1.0, 3.0], [2.0, 1.0]])


def entry(matrix, name, spd):
    return matrix, name, spd, lambda message: ShapingInfeasibleError(message, name)


def first_failure(entries):
    with pytest.raises(ShapingInfeasibleError) as exc:
        require_admissible(entries)
    return exc.value.matrix_name, str(exc.value)


def test_a_psd_failure_before_a_failing_spd_entry_is_named():
    assert first_failure([entry(GOOD, "A", True), entry(-np.eye(2), "B", False),
                          entry(INDEFINITE, "C", True)]) \
        == ("B", "B is not positive semidefinite (min eigenvalue -1.000e+00)")


@pytest.mark.parametrize("before", [[], [entry(GOOD, "G", True)]], ids=["alone", "after_good"])
def test_asymmetry_outranks_an_indefinite_symmetric_part(before):
    assert first_failure([*before, entry(ASYMMETRIC_INDEFINITE, "A", True)]) \
        == ("A", "A is not symmetric (asymmetry 1.000e+00)")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_one_matrix_has_the_bits_of_its_stack_member(n):
    rng = np.random.default_rng(n)
    stack = np.stack([rand_spd(rng, n, 1e-3, 1e3) for _ in range(3)])
    L = cholesky_lower(stack)
    for j, member in enumerate(stack):
        assert np.array_equal(cholesky_lower(member), L[j])


def test_one_matrix_failure_is_member_zero():
    with pytest.raises(ValueError) as exc:
        cholesky_lower(np.diag([1.0, 1e-14]))
    assert exc.value.member == 0
    assert exc.value.reason == str(exc.value) \
        == "pivot 1.000e-14 below threshold 1.000e-12 at index 1"


def test_stack_failure_reason_has_no_member_prefix():
    stack = np.stack([np.eye(2), np.eye(2), np.diag([1.0, -1.0])])
    with pytest.raises(ValueError) as exc:
        cholesky_lower(stack)
    assert exc.value.member == 2
    assert exc.value.reason == "nonpositive pivot, threshold 1.000e-12"
    assert str(exc.value) == "member 2: " + exc.value.reason
