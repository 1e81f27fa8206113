"""Polynomial utilities on ascending coefficient arrays.

Coefficients are ordered constant-term first: ``c[k]`` multiplies ``s**k``.
Root finding uses the Aberth-Ehrlich simultaneous iteration with a
residual acceptance test against the coefficient norm; roots of real
polynomials are snapped into exact conjugate pairs afterwards.
"""

from __future__ import annotations

import numpy as np

from .errors import RootFindingError, ValidationError

# Residual acceptance: |p(root)| <= ROOT_RESIDUAL_RTOL * ||coeffs||_inf.
ROOT_RESIDUAL_RTOL = 1e-8
_CONJ_SNAP_RTOL = 1e-8


def trim(coeffs) -> np.ndarray:
    """Drop leading (highest-order) coefficients at or below 1e-13 of the largest."""
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if c.ndim != 1 or c.size == 0:
        raise ValidationError("coefficients must be a non-empty 1-D sequence")
    scale = float(np.max(np.abs(c)))
    if scale == 0.0:
        return np.zeros(1)
    keep = c.size
    while keep > 1 and abs(c[keep - 1]) <= 1e-13 * scale:
        keep -= 1
    return c[:keep].copy()


def polyval(coeffs, s):
    """Evaluate by Horner's rule; ``s`` may be complex and array-valued."""
    c = np.asarray(coeffs)
    out = np.zeros_like(np.asarray(s, dtype=complex))
    for ck in c[::-1]:
        out = out * s + ck
    return out


def polyder(coeffs) -> np.ndarray:
    c = np.asarray(coeffs, dtype=float)
    if c.size <= 1:
        return np.zeros(1)
    return c[1:] * np.arange(1, c.size)


def polymul(a, b) -> np.ndarray:
    return np.convolve(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def polyadd(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < b.size:
        a, b = b, a
    out = a.copy()
    out[:b.size] += b
    return out


def poly_from_roots(roots, leading: float = 1.0) -> np.ndarray:
    """Real polynomial with the given roots; conjugate pairs are multiplied
    as real quadratics so no imaginary residue leaks into the coefficients."""
    remaining = list(np.asarray(roots, dtype=complex))
    out = np.array([float(leading)])
    while remaining:
        r = remaining.pop(0)
        if abs(r.imag) <= _CONJ_SNAP_RTOL * (1.0 + abs(r)):
            out = polymul(out, [-r.real, 1.0])
            continue
        # find and consume the conjugate partner
        dists = [abs(other - r.conjugate()) for other in remaining]
        if not dists:
            raise ValidationError(f"unpaired complex root {r}")
        j = int(np.argmin(dists))
        other = remaining.pop(j)
        re = 0.5 * (r.real + other.real)
        im = 0.5 * (abs(r.imag) + abs(other.imag))
        out = polymul(out, [re * re + im * im, -2.0 * re, 1.0])
    return out


def _initial_circle(c: np.ndarray) -> np.ndarray:
    d = c.size - 1
    center = -c[d - 1] / (d * c[d])
    # Fujiwara-style inclusion radius
    mags = [abs(c[d - 1 - k] / c[d]) ** (1.0 / (k + 1)) for k in range(d)]
    radius = 2.0 * max(max(mags), 1e-3)
    angles = 2.0 * np.pi * np.arange(d) / d + 0.3935
    return center + radius * np.exp(1j * angles)


def _aberth_iterate(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    dc = np.arange(1, c.size) * c[1:]
    for _ in range(400):        # the iteration budget
        p = polyval(c, z)
        dp = polyval(dc, z)
        dp = np.where(dp == 0.0, np.finfo(float).eps, dp)
        w = p / dp
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        repulsion = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - w * repulsion
        denom = np.where(denom == 0.0, np.finfo(float).eps, denom)
        step = w / denom
        z = z - step
        if np.all(np.abs(step) <= 1e-14 * (1.0 + np.abs(z))):
            break
    return z


def _enforce_conjugates(roots: np.ndarray) -> np.ndarray:
    """Pair roots of a real polynomial into exact conjugates."""
    out = []
    remaining = list(roots)
    remaining.sort(key=lambda r: (-abs(r.imag), r.real))
    while remaining:
        r = remaining.pop(0)
        if abs(r.imag) <= _CONJ_SNAP_RTOL * (1.0 + abs(r)):
            out.append(complex(r.real, 0.0))
            continue
        dists = [abs(other - r.conjugate()) for other in remaining]
        if not dists:
            out.append(complex(r.real, 0.0))
            continue
        j = int(np.argmin(dists))
        partner = remaining.pop(j)
        re = 0.5 * (r.real + partner.real)
        im = 0.5 * (abs(r.imag) + abs(partner.imag))
        out.append(complex(re, im))
        out.append(complex(re, -im))
    return np.array(sorted(out, key=lambda r: (r.real, r.imag)), dtype=complex)


def aberth_roots(coeffs) -> np.ndarray:
    """All roots of a real polynomial via simultaneous iteration.

    Exact zero constant terms are factored out as roots at the origin;
    degrees one and two use closed forms.  Raises ``RootFindingError``
    when any residual ``|p(root)|`` exceeds the acceptance threshold
    after the iteration budget.
    """
    c_full = trim(coeffs)
    d = c_full.size - 1
    if d < 1:
        return np.zeros(0, dtype=complex)

    zeros_at_origin = 0
    c = c_full
    while c.size > 1 and c[0] == 0.0:
        zeros_at_origin += 1
        c = c[1:]
    roots = [0.0 + 0.0j] * zeros_at_origin

    d = c.size - 1
    if d >= 1:
        scale = float(np.max(np.abs(c)))
        cn = c / scale
        if d == 1:
            roots.append(complex(-cn[0] / cn[1]))
        elif d == 2:
            a2, a1, a0 = cn[2], cn[1], cn[0]
            disc = np.sqrt(complex(a1 * a1 - 4.0 * a2 * a0))
            qf = -0.5 * (a1 + disc) if a1 >= 0 else -0.5 * (a1 - disc)
            r1 = qf / a2
            r2 = a0 / qf if qf != 0 else 0.0 + 0.0j
            roots.extend([complex(r1), complex(r2)])
        else:
            z = _aberth_iterate(cn, _initial_circle(cn))
            roots.extend(complex(v) for v in z)

    out = _enforce_conjugates(np.array(roots, dtype=complex))
    residuals = np.abs(polyval(c_full, out))
    tol = ROOT_RESIDUAL_RTOL * float(np.max(np.abs(c_full)))
    if residuals.size and float(np.max(residuals)) > tol:
        raise RootFindingError(
            f"root residual {float(np.max(residuals)):.3e} exceeds {tol:.3e}",
            residuals=residuals)
    return out
