import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from flexjoint import RationalTF, RootFindingError, ValidationError
from flexjoint.poly import ROOT_BACKWARD_ERROR, aberth_roots, poly_from_roots, trim


def test_polyval_horner():
    # numpy's ascending order matches ours; the point comes first:
    # 2 + 3 s + s^2 at s = 2 -> 12
    assert P.polyval(2.0, [2.0, 3.0, 1.0]) == pytest.approx(12.0)
    vals = P.polyval(np.array([1j, 2j]), [1.0, 0.0, 1.0])
    assert vals[0] == pytest.approx(0.0)
    assert vals[1] == pytest.approx(-3.0)


def test_trim_drops_only_exact_zeros():
    assert trim([1.0, 2.0, 0.0, 0.0]).tolist() == [1.0, 2.0]
    assert trim([1.0, 2.0, 1e-20]).tolist() == [1.0, 2.0, 1e-20]
    assert trim([0.0, 0.0]).tolist() == [0.0]
    assert trim([0.0]).tolist() == [0.0]


def test_tiny_leading_coefficient_keeps_its_root():
    # 1e-20 s^2 + 2 s + 1: the leading coefficient is genuine, and so is its root
    roots = np.sort_complex(aberth_roots([1.0, 2.0, 1e-20]))
    assert roots.size == 2
    assert roots[0] == pytest.approx(-2e20, rel=1e-12)
    assert roots[1] == pytest.approx(-0.5, rel=1e-12)
    assert RationalTF([1.0], [1.0, 2.0, 1e-20]).den.tolist() == [1.0, 2.0, 1e-20]


def _graded_polynomials(seed):
    """200 polynomials with coefficient magnitudes graded by up to 1e21 from
    one end to the other, as in the stationary polynomials of the shaped
    loops, a quarter of them with the leading coefficient at 1e-20 of the
    largest, each followed by two trailing exact zeros."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(200):
        deg = int(rng.integers(1, 13))
        grade = rng.uniform(0.0, 21.0) * rng.choice([-1.0, 1.0]) * np.arange(deg + 1) / deg
        c = rng.normal(0.0, 1.0, deg + 1) * 10.0 ** (grade + rng.uniform(-1.0, 1.0, deg + 1))
        if rng.random() < 0.25:
            c[-1] = rng.choice([-1e-20, 1e-20]) * np.max(np.abs(c))
        out.append(np.r_[c, 0.0, 0.0])
    return out


@pytest.mark.parametrize("seed", [36, 37, 38])
def test_root_count_is_the_exact_degree(seed):
    # trailing exact zeros do not count toward the degree
    for padded in _graded_polynomials(seed):
        c = padded[:-2]
        roots = aberth_roots(padded)
        assert roots.size == c.size - 1
        backward = np.abs(P.polyval(roots, c)) / P.polyval(np.abs(roots), np.abs(c))
        assert np.max(backward) <= ROOT_BACKWARD_ERROR


def test_roots_spread_over_24_decades():
    # roots 1e20 and +-1.07e-4 j: the companion eigenvalues put both small
    # roots at 0, where coincident starts never separate, so only the
    # restart from the Newton polygon finds them
    roots = aberth_roots([-6717729.5206011785, 1410.8660966928246,
                          -589287196129443.1, 5.8928719612944305e-06])
    assert roots.size == 3
    assert np.sort(np.abs(roots)) == pytest.approx([1.0677e-4, 1.0677e-4, 1e20], rel=1e-4)


def test_independent_exponents_need_the_polygon_restart():
    # 4,000 sets with coefficient exponents drawn independently over 21
    # decades, a quarter with the leading coefficient at 1e-20 of the
    # largest; companion starts alone leave 11 of them uncertified
    rng = np.random.default_rng(40)
    for _ in range(4000):
        deg = int(rng.integers(1, 13))
        c = rng.normal(0.0, 1.0, deg + 1) * 10.0 ** rng.uniform(0.0, 21.0, deg + 1)
        if rng.random() < 0.25:
            c[-1] = rng.choice([-1e-20, 1e-20]) * np.max(np.abs(c))
        roots = aberth_roots(c)
        assert roots.size == deg
        backward = np.abs(P.polyval(roots, c)) / P.polyval(np.abs(roots), np.abs(c))
        assert np.max(backward) <= ROOT_BACKWARD_ERROR


def test_small_conjugate_pair_stays_complex():
    # the snap to the real axis is relative: +-1e-9 j is a pair, not a double root at 0
    assert poly_from_roots([1e-9j, -1e-9j]).tolist() == [1e-18, 0.0, 1.0]
    roots = aberth_roots([1e-18, 0.0, 1.0])
    assert np.all(roots.real == 0.0)
    assert np.sort(roots.imag) == pytest.approx([-1e-9, 1e-9], rel=1e-12)


def test_conjugate_within_tolerance_is_paired():
    c = poly_from_roots([2.0 + 3.0j, -1.0, 2.0 - (3.0 + 1e-9) * 1j])
    assert c == pytest.approx([13.0, 9.0, -3.0, 1.0], rel=1e-9)


@pytest.mark.parametrize("roots", [[], [1.0, -2.0], [1.0 + 2.0j, 1.0 - 2.0j, 3.0]],
                         ids=["no_roots", "real", "pair"])
def test_zero_leading_gives_the_zero_polynomial(roots):
    assert np.array_equal(poly_from_roots(roots, 0.0), [0.0])


def test_products_have_the_bits_of_polymul():
    # the factor-by-factor product through numpy's polymul is the reference
    rng = np.random.default_rng(9)
    for _ in range(200):
        roots, factors = [], []
        for _ in range(int(rng.integers(0, 6))):
            re, im = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), 2)
            if rng.random() < 0.5:
                roots.append(complex(re))
                factors.append([-re, 1.0])
            else:
                roots += [complex(re, im), complex(re, -im)]
                factors.append([re * re + im * im, -2.0 * re, 1.0])
        leading = float(rng.normal())
        expected = np.array([leading])
        for factor in factors:
            expected = P.polymul(expected, factor)
        assert poly_from_roots(roots, leading).tobytes() == expected.tobytes()


@pytest.mark.parametrize("roots", [
    [1.0 + 1.0j], [1.0 + 1.0j, 1.0 - 1.0j, 5.0j], [-1.0, 2.0 - 3.0j, -4.0],
    [2.0 + 3.0j, 2.0 - 3.0000001j],
])
def test_unpaired_complex_root_is_rejected(roots):
    # a partner further than _CONJ_RTOL |r| from the conjugate is none
    with pytest.raises(ValidationError, match="unpaired complex root"):
        poly_from_roots(roots)


@pytest.mark.parametrize("bad", [[], [[1.0, 2.0]]], ids=["empty", "two_dimensional"])
def test_malformed_coefficients_are_rejected(bad):
    with pytest.raises(ValidationError, match="non-empty 1-D sequence"):
        trim(bad)


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


def test_moved_root_is_refused(monkeypatch):
    # a root 1e-6 relative off its true place has a backward error far above 1e-12
    from flexjoint import poly
    refine = poly._aberth_iterate
    monkeypatch.setattr(poly, "_aberth_iterate",
                        lambda c, z: refine(c, z) * np.r_[1.0 + 1e-6, np.ones(z.size - 1)])
    c = poly_from_roots([-1.0, -2.0, -3.0, -5.0])
    with pytest.raises(RootFindingError, match="backward error") as info:
        aberth_roots(c)
    assert info.value.residuals.size == 4 and np.max(info.value.residuals) > 1e-8


def test_widely_scaled_coefficients():
    # stiffness-scale polynomial: s (0.15 s^2 + 0.3 s + 3e5)
    c = P.polymul([0.0, 1.0], [3e5, 0.3, 0.15])
    roots = aberth_roots(c)
    assert np.min(np.abs(roots)) == 0.0
    fast = roots[np.argmax(np.abs(roots))]
    assert abs(fast) == pytest.approx(np.sqrt(3e5 / 0.15), rel=1e-3)


# ---------------------------------------------------------------------------
# the same bits as Aberth written with P.polyval and P.polyder
# ---------------------------------------------------------------------------

def _reference_pairs(roots):
    remaining = list(roots)
    while remaining:
        r = remaining.pop(0)
        if abs(r.imag) <= 1e-8 * abs(r):
            yield r.real, 0.0
            continue
        gaps = [abs(o - r.conjugate()) for o in remaining]
        if not gaps or min(gaps) > 1e-8 * abs(r):
            yield r, None
        else:
            other = remaining.pop(int(np.argmin(gaps)))
            yield 0.5 * (r.real + other.real), 0.5 * (abs(r.imag) + abs(other.imag))


def reference_aberth_roots(coeffs):
    """The root finder with one ``P.polyval`` call per value, ``P.polyder``
    for the slope, and conjugates paired over numpy scalars; None when its
    certificate fails."""
    c_full = trim(coeffs)
    zeros_at_origin = int(np.argmax(c_full != 0.0))
    c = c_full[zeros_at_origin:]
    roots = [0.0 + 0.0j] * zeros_at_origin
    if c.size > 1:
        e = int(np.rint((np.log2(abs(c[0])) - np.log2(abs(c[-1]))) / (c.size - 1)))
        shift = e * np.arange(c.size)
        cw = np.ldexp(c, shift - np.max((np.frexp(c)[1] + shift)[c != 0]))
        z, dc = P.polyroots(cw).astype(complex), P.polyder(cw)
        for _ in range(400):
            p, dp = P.polyval(z, cw), P.polyval(z, dc)
            w = p / np.where(dp == 0.0, np.finfo(float).eps, dp)
            diff = z[:, None] - z[None, :]
            repulsion = np.divide(1.0, diff, out=np.zeros_like(diff), where=diff != 0)
            denom = 1.0 - w * np.sum(repulsion, axis=1)
            step = w / np.where(denom == 0.0, np.finfo(float).eps, denom)
            z = z - step
            if np.all(np.abs(step) <= 1e-14 * (1.0 + np.abs(z))):
                break
        roots.extend(complex(v) for v in z * 2.0 ** e)
    out = []
    ordered = sorted(np.array(roots, dtype=complex), key=lambda r: (-abs(r.imag), r.real))
    for re, im in _reference_pairs(ordered):
        if im is None:
            re, im = re.real, 0.0
        out.extend([complex(re, im), complex(re, -im)] if im else [complex(re, 0.0)])
    out = np.array(sorted(out, key=lambda r: (r.real, r.imag)), dtype=complex)
    residuals = np.abs(P.polyval(out, c_full))
    scale = P.polyval(np.abs(out), np.abs(c_full))
    backward = np.divide(residuals, scale, out=np.zeros_like(residuals), where=scale != 0.0)
    return out if np.all(backward <= ROOT_BACKWARD_ERROR) else None


def _design_polynomials(seed, count):
    """Numerators and denominators of ``count`` random n = 1..4 shaped loops
    with an outer loop, drawn as the design-screening benchmark draws them."""
    from conftest import rand_admissible_shaping, rand_plant
    from flexjoint import OuterLoop, assemble_closed_loop, ss_to_tf, synthesize_gains
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = 1 + i % 4
        plant = rand_plant(rng, n)
        J_e, K_e = rand_admissible_shaping(rng, plant)
        outer = OuterLoop(np.diag(rng.uniform(10.0, 200.0, n)), np.diag(rng.uniform(1.0, 20.0, n)))
        tf = ss_to_tf(assemble_closed_loop(plant, synthesize_gains(plant, J_e, K_e)[1], outer))
        out += [tf.num, tf.den]
    return out


def _paper_polynomials():
    from flexjoint import ss_to_tf
    from flexjoint.cli import ONEDOF_STUDY, _gain_study
    from flexjoint.config import parse_config
    target, loops = _gain_study(parse_config(ONEDOF_STUDY), "pzmap")
    tfs = [target] + [ss_to_tf(ss) for _, _, ss in loops]
    return [c for tf in tfs for c in (tf.num, tf.den)]


@pytest.mark.parametrize("family", ["paper", "designs", "graded-36", "graded-37", "graded-38"])
def test_roots_have_the_bits_of_the_reference(family):
    if family == "paper":
        polys = _paper_polynomials()
    elif family == "designs":
        polys = _design_polynomials(35, 100)
    else:
        polys = _graded_polynomials(int(family.split("-")[1]))
    for c in polys:
        expected = reference_aberth_roots(c)
        assert expected is not None and np.array_equal(aberth_roots(c), expected)
