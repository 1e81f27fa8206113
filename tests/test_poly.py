import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from flexjoint import ValidationError
from flexjoint.poly import aberth_roots, poly_from_roots, trim


def test_polyval_horner():
    # numpy's ascending order matches ours; the point comes first:
    # 2 + 3 s + s^2 at s = 2 -> 12
    assert P.polyval(2.0, [2.0, 3.0, 1.0]) == pytest.approx(12.0)
    vals = P.polyval(np.array([1j, 2j]), [1.0, 0.0, 1.0])
    assert vals[0] == pytest.approx(0.0)
    assert vals[1] == pytest.approx(-3.0)


def test_trim_drops_leading_noise():
    c = trim([1.0, 2.0, 1e-20])
    assert c.tolist() == [1.0, 2.0]
    assert trim([0.0]).tolist() == [0.0]


@pytest.mark.parametrize("bad", [[1.0, np.nan, 1.0, 2.0], [1.0, np.inf, 1.0, 2.0]])
def test_non_finite_coefficients_are_rejected(bad):
    with pytest.raises(ValidationError, match="finite"):
        trim(bad)
    with pytest.raises(ValidationError, match="finite"):
        aberth_roots(bad)


def test_quadratic_roots_match_formula():
    # 3 s^2 + 10 s + 100: hand-computed conjugate pair
    roots = aberth_roots([100.0, 10.0, 3.0])
    expected = complex(-5.0 / 3.0, np.sqrt(1100.0) / 6.0)
    upper = roots[np.argmax(roots.imag)]
    assert upper.real == pytest.approx(expected.real, rel=1e-12)
    assert upper.imag == pytest.approx(expected.imag, rel=1e-12)


def test_double_root():
    # numpy's companion eigenvalues are exactly -1 twice, so the iteration
    # starts from coincident points
    roots = aberth_roots(P.polymul([1.0, 1.0], [1.0, 1.0]))   # (s+1)^2
    assert np.all(np.abs(roots + 1.0) <= 1e-6)


@pytest.mark.parametrize("true", [[-1.0, -1.0, 0.5], [-1.0, -1.0 - 1e-6, 2.0]],
                         ids=["double-root", "roots-1e-6-apart"])
def test_coincident_starts_return_every_root(true):
    # both start the iteration from nearly coincident eigenvalues
    roots = aberth_roots(poly_from_roots(true))
    assert roots.size == 3 and np.all(np.isfinite(roots))
    assert np.all(np.abs(np.sort_complex(roots) - np.sort(true)) <= 1e-5)


def test_known_roots_are_recovered():
    # real roots and conjugate pairs, multiplied out by poly_from_roots
    rng = np.random.default_rng(34)
    for _ in range(40):
        real = rng.normal(0, 3, int(rng.integers(0, 5)))
        k = int(rng.integers(1 if real.size == 0 else 0, 3))
        upper = rng.normal(0, 3, k) + 1j * rng.uniform(0.1, 3.0, k)
        true = np.sort_complex(np.concatenate([real, upper, np.conj(upper)]))
        roots = np.sort_complex(aberth_roots(poly_from_roots(true)))
        assert roots.size == true.size
        assert np.max(np.abs(roots - true)) <= 1e-7 * max(1.0, float(np.max(np.abs(true))))


def test_origin_roots_are_exact():
    # s^2 (s + 2): zero constant terms factor out exactly
    roots = sorted(aberth_roots([0.0, 0.0, 2.0, 1.0]), key=lambda r: r.real)
    assert roots[0] == pytest.approx(-2.0, rel=1e-12)
    assert roots[1] == 0.0 and roots[2] == 0.0


def test_random_polynomials_match_numpy_oracle():
    rng = np.random.default_rng(31)
    for _ in range(50):
        deg = int(rng.integers(3, 9))
        c = rng.normal(0, 1, deg + 1)
        c[-1] += np.sign(c[-1]) + 0.5   # keep the leading coefficient sane
        mine = np.sort_complex(aberth_roots(c))
        oracle = np.sort_complex(np.roots(c[::-1]))
        assert np.max(np.abs(mine - oracle)) <= 1e-7 * max(1.0, np.max(np.abs(oracle)))


def test_conjugate_closure_is_exact():
    rng = np.random.default_rng(32)
    for _ in range(20):
        c = rng.normal(0, 1, 7)
        c[-1] += np.sign(c[-1]) + 0.5
        roots = aberth_roots(c)
        conj_set = {(r.real, -r.imag) for r in roots}
        assert {(r.real, r.imag) for r in roots} == conj_set


def test_residual_contract():
    rng = np.random.default_rng(33)
    for _ in range(20):
        roots_true = rng.normal(0, 2, 5)
        c = poly_from_roots(roots_true, leading=rng.uniform(0.5, 2.0))
        roots = aberth_roots(c)
        residuals = np.abs(P.polyval(roots, c))
        assert np.max(residuals) <= 1e-8 * np.max(np.abs(c))


def test_widely_scaled_coefficients():
    # stiffness-scale polynomial: s (0.15 s^2 + 0.3 s + 3e5)
    c = P.polymul([0.0, 1.0], [3e5, 0.3, 0.15])
    roots = aberth_roots(c)
    assert np.min(np.abs(roots)) == 0.0
    fast = roots[np.argmax(np.abs(roots))]
    assert abs(fast) == pytest.approx(np.sqrt(3e5 / 0.15), rel=1e-3)
