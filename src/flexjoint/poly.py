"""Polynomial utilities on ascending coefficient arrays.

Coefficients are ordered constant-term first (``c[k]`` multiplies
``s**k``), as in ``numpy.polynomial.polynomial``, which supplies the
arithmetic.  This module adds a relative ``trim``, real products of
conjugate pairs, and a certified root finder: Aberth-Ehrlich iteration
started from companion-matrix eigenvalues, roots of real polynomials
snapped into exact conjugate pairs, and a backward-error certificate
on every root.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import RootFindingError, ValidationError
from .linalg import as_floats

# Bound on each root's componentwise backward error |p(r)| / sum_k |c_k| |r|^k:
# the relative change of the coefficients that would make r an exact root.
ROOT_BACKWARD_ERROR = 1e-12
_CONJ_SNAP_RTOL = 1e-8


def trim(coeffs) -> np.ndarray:
    """Drop leading (highest-order) coefficients at or below 1e-13 of the largest.

    Non-finite coefficients raise ``ValidationError``.
    """
    c = np.atleast_1d(as_floats(coeffs, "coefficients"))
    if c.ndim != 1 or c.size == 0:
        raise ValidationError("coefficients must be a non-empty 1-D sequence")
    scale = float(np.max(np.abs(c)))
    if scale == 0.0:
        return np.zeros(1)
    keep = c.size
    while keep > 1 and abs(c[keep - 1]) <= 1e-13 * scale:
        keep -= 1
    return c[:keep].copy()


def poly_from_roots(roots, leading: float = 1.0) -> np.ndarray:
    """Real polynomial with the given roots; conjugate pairs are multiplied
    as real quadratics so no imaginary residue leaks into the coefficients."""
    remaining = list(np.asarray(roots, dtype=complex))
    out = np.array([float(leading)])
    while remaining:
        r = remaining.pop(0)
        if abs(r.imag) <= _CONJ_SNAP_RTOL * (1.0 + abs(r)):
            out = P.polymul(out, [-r.real, 1.0])
            continue
        # find and consume the conjugate partner
        dists = [abs(other - r.conjugate()) for other in remaining]
        if not dists:
            raise ValidationError(f"unpaired complex root {r}")
        j = int(np.argmin(dists))
        other = remaining.pop(j)
        re = 0.5 * (r.real + other.real)
        im = 0.5 * (abs(r.imag) + abs(other.imag))
        out = P.polymul(out, [re * re + im * im, -2.0 * re, 1.0])
    return out


def _aberth_iterate(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    dc = P.polyder(c)
    for _ in range(400):        # the iteration budget
        p = P.polyval(z, c)
        dp = P.polyval(z, dc)
        dp = np.where(dp == 0.0, np.finfo(float).eps, dp)
        w = p / dp
        diff = z[:, None] - z[None, :]
        # coincident points (the diagonal, or an exact multiple root) do not repel
        repulsion = np.divide(1.0, diff, out=np.zeros_like(diff), where=diff != 0)
        denom = 1.0 - w * np.sum(repulsion, axis=1)
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

    Exact zero constant terms are factored out as roots at the origin.
    The rest starts from the companion-matrix eigenvalues
    (``numpy.polynomial.polynomial.polyroots``) and is refined by
    Aberth-Ehrlich iteration.  Each root ``r`` is certified by its
    backward error ``|p(r)| / sum_k |c_k| |r|^k`` (an exact root at the
    origin of a polynomial with ``c_0 = 0`` counts as 0); a polynomial with
    any backward error above ``ROOT_BACKWARD_ERROR``, or not a number,
    raises ``RootFindingError`` carrying the backward errors.
    """
    c_full = trim(coeffs)
    zeros_at_origin = int(np.argmax(c_full != 0.0))     # 0 for the zero polynomial
    c = c_full[zeros_at_origin:]
    roots = [0.0 + 0.0j] * zeros_at_origin

    if c.size > 1:
        cn = c / float(np.max(np.abs(c)))
        z = _aberth_iterate(cn, P.polyroots(cn).astype(complex))
        roots.extend(complex(v) for v in z)

    out = _enforce_conjugates(np.array(roots, dtype=complex))
    residuals = np.abs(P.polyval(out, c_full))
    scale = P.polyval(np.abs(out), np.abs(c_full))
    backward = np.divide(residuals, scale, out=np.zeros_like(residuals), where=scale != 0.0)
    if not np.all(backward <= ROOT_BACKWARD_ERROR):
        raise RootFindingError(
            f"root backward error {float(np.max(backward)):.3e} exceeds "
            f"{ROOT_BACKWARD_ERROR:.0e}", residuals=backward)
    return out
