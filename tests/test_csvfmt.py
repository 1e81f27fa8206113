"""``write_csv`` against ``format(x, ".17g")``, cell by cell, on families of
doubles chosen where a 17-digit formatter goes wrong."""

from fractions import Fraction

import numpy as np
import pytest

from flexjoint import csvfmt
from flexjoint.csvfmt import write_csv

COLS = 8


def _exact_ties(rng, n):
    """Doubles M 2^-k whose decimal expansion has exactly 18 significant
    digits, the last a 5: each lies on a 17-digit rounding tie."""
    out = []
    for k in range(2, 26):
        lo = -(-10 ** 17 // 5 ** k)
        hi = min(2 ** 53, 10 ** 18 // 5 ** k)
        if lo < hi:
            m = rng.integers(lo, hi, n // 24 + 1) | 1
            out.append(m[m < hi] / 2.0 ** k)
    return np.concatenate(out)


def _family(rng, n):
    """About ``n`` doubles: near-ties, powers of ten, notation boundaries,
    subnormals, trailing zeros and random bit patterns, half of them negated."""
    def ulps(x):
        return np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])

    digits = rng.integers(10 ** 16, 10 ** 17, n // 16)
    exps = rng.integers(-340, 291, n // 16)
    midpoints = np.array([float(f"{d}5e{e}") for d, e in zip(digits.tolist(), exps.tolist())])
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    bounds = np.concatenate([ulps(10.0 ** np.array([b] * 64) * rng.uniform(0.9999, 1.0001, 64))
                             for b in (-5, -4, 16, 17, 99, 100, -99, -100)])
    edges = ulps(np.array([1e-5, 1e-4, 1e16, 1e17, 1e99, 1e100, 1e-99, 1e-100]))
    subnormal = rng.integers(1, 2 ** 52, n // 16, dtype=np.uint64).view(float)
    round_numbers = np.concatenate([
        [1e5, 0.5, 123000.0, 0.25, 1.5, 12.75, 1e16, 1e17, 1.5e-5, 7.0, 100.0],
        rng.integers(-10 ** 6, 10 ** 6, n // 16) * 10.0 ** rng.integers(-8, 20, n // 16)])
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
                        1.7976931348623157e308])
    parts = [ulps(midpoints), ulps(_exact_ties(rng, n // 8)), ulps(powers), bounds, edges,
             subnormal, round_numbers, special,
             rng.normal(size=n // 8) * 10.0 ** rng.integers(-30, 30, n // 8)]
    bits = rng.integers(0, 2 ** 64, max(n - sum(p.size for p in parts), 0), dtype=np.uint64)
    x = np.concatenate(parts + [bits.view(float)])
    x = np.where(rng.random(x.size) < 0.5, x, -x)
    return x[:x.size // COLS * COLS].reshape(-1, COLS)


def _expected(header, values):
    return ("\n".join([",".join(header)] + [",".join(format(v + 0.0, ".17g") for v in row)
                                             for row in values.tolist()]) + "\n").encode()


@pytest.mark.parametrize("seed", range(4))
def test_family_matches_per_cell_format(tmp_path, seed):
    # four seeds of 2^18 cells each: 10^6 cells in all
    values = _family(np.random.default_rng(seed), 2 ** 18)
    assert values.size >= 2 ** 18 - COLS
    header = [f"c{i}" for i in range(COLS)]
    write_csv(tmp_path / "family.csv", header, values)
    assert (tmp_path / "family.csv").read_bytes() == _expected(header, values)


def test_kernel_certifies_most_cells():
    # the kernel, not the % fallback, formats random digits where long double is wider
    if np.finfo(np.longdouble).nmant < 63:
        pytest.skip("long double has no more precision than a double here")
    a = np.abs(np.random.default_rng(7).normal(size=10 ** 5)) * 1e3
    _, _, ok = csvfmt._digits17(a)
    assert ok.mean() > 0.95


def test_float64_wide_type_sends_every_cell_to_format(tmp_path, monkeypatch):
    monkeypatch.setattr(csvfmt, "_WIDE", np.float64)
    values = _family(np.random.default_rng(11), 2 ** 14)
    a = np.abs(values.ravel())
    a = a[np.isfinite(a) & (a > 0)]
    with np.errstate(all="ignore"):
        _, _, ok = csvfmt._digits17(a)
    assert not ok.any()
    header = [f"c{i}" for i in range(COLS)]
    write_csv(tmp_path / "f64.csv", header, values)
    assert (tmp_path / "f64.csv").read_bytes() == _expected(header, values)


@pytest.mark.parametrize("wide", [np.longdouble, np.float64])
def test_powers_of_ten_are_rounded_once(wide):
    # the certificate's error bound takes each 10^k of the table to be the
    # value of the wide type nearest the exact power
    pow10 = csvfmt._tables(wide)[0]
    bits = np.finfo(wide).nmant + 1
    checked = 0
    for X, value in zip(range(csvfmt._X_MIN, csvfmt._X_MAX + 1), pow10):
        if not np.finfo(wide).smallest_normal <= value <= np.finfo(wide).max:
            continue                                    # out of a double's range
        exact = Fraction(10) ** (16 - X)
        value = Fraction(*value.as_integer_ratio())
        e = value.numerator.bit_length() - value.denominator.bit_length()
        e -= value < Fraction(2) ** e                   # 2^e <= value < 2^(e + 1)
        assert abs(value - exact) <= Fraction(2) ** (e - bits), X
        checked += 1
    assert checked >= 600
