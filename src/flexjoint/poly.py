"""Polynomial utilities on ascending coefficient arrays.

Coefficients are ordered constant-term first (``c[k]`` multiplies
``s**k``), as in ``numpy.polynomial.polynomial``, which supplies the
arithmetic.  No coefficient is cut for being small: ``trim`` drops only
exact zeros.  This module adds real products of conjugate pairs and a
certified root finder: Aberth-Ehrlich iteration started from the
companion-matrix eigenvalues of the frequency-scaled polynomial, roots
snapped into exact conjugate pairs, and a backward-error certificate on
every root, with one restart from the Newton polygon when it fails.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import RootFindingError, ValidationError
from .linalg import as_floats

# Bound on each root's componentwise backward error |p(r)| / sum_k |c_k| |r|^k:
# the relative change of the coefficients that would make r an exact root.
ROOT_BACKWARD_ERROR = 1e-12
# Relative tolerance of conjugate symmetry: a root within it of the real axis
# is real, and two roots within it of each other's conjugate are a pair.
_CONJ_RTOL = 1e-8


def trim(coeffs) -> np.ndarray:
    """Drop exactly-zero leading (highest-order) coefficients; all-zero gives ``[0.0]``.

    Non-finite coefficients raise ``ValidationError``.
    """
    c = np.atleast_1d(as_floats(coeffs, "coefficients"))
    if c.ndim != 1 or c.size == 0:
        raise ValidationError("coefficients must be a non-empty 1-D sequence")
    nonzero = np.flatnonzero(c)
    return c[:nonzero[-1] + 1].copy() if nonzero.size else np.zeros(1)


def _pair_conjugates(roots):
    """Yield, in the given order, ``(re, 0.0)`` for a root with ``|im|`` at
    most ``_CONJ_RTOL`` of its modulus, ``(re, im)``, ``im > 0``, for a root
    and the remaining root nearest its conjugate, when that lies within
    ``_CONJ_RTOL`` of the modulus, averaged into ``re ± j im``, and
    ``(root, None)`` for a complex root left without such a partner.  The
    roots are Python ``complex`` numbers."""
    remaining = list(roots)
    while remaining:
        r = remaining.pop(0)
        if abs(r.imag) <= _CONJ_RTOL * abs(r):
            yield r.real, 0.0
            continue
        gaps = [abs(o - r.conjugate()) for o in remaining]
        if not gaps or min(gaps) > _CONJ_RTOL * abs(r):
            yield r, None
        else:
            other = remaining.pop(gaps.index(min(gaps)))
            yield 0.5 * (r.real + other.real), 0.5 * (abs(r.imag) + abs(other.imag))


def poly_from_roots(roots, leading: float = 1.0) -> np.ndarray:
    """Real polynomial with the given roots; conjugate pairs are multiplied
    as real quadratics so no imaginary residue leaks into the coefficients.
    A zero ``leading`` gives the zero polynomial ``[0.0]``.  A complex root
    without a conjugate partner raises ``ValidationError``."""
    out = np.array([float(leading)])
    for re, im in _pair_conjugates(np.asarray(roots, dtype=complex).tolist()):
        if im is None:
            raise ValidationError(f"unpaired complex root {re}")
        # each factor is monic, so the top coefficient stays ``leading``
        out = np.convolve(out, [-re, 1.0] if im == 0.0 else [re * re + im * im, -2.0 * re, 1.0])
    return out if out[-1] != 0.0 else np.zeros(1)


def _aberth_iterate(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    dc = P.polyder(c)
    for _ in range(400):        # the iteration budget
        p, dp = P.polyval(z, c), P.polyval(z, dc)
        dp = np.where(dp == 0.0, np.finfo(float).eps, dp)
        w = p / dp
        diff = z[:, None] - z[None, :]
        # coincident points (the diagonal, or an exact multiple root) do not repel
        repulsion = np.divide(1.0, diff, out=np.zeros_like(diff), where=diff != 0)
        denom = 1.0 - w * np.sum(repulsion, axis=1)
        denom = np.where(denom == 0.0, np.finfo(float).eps, denom)
        step = w / denom
        z = z - step
        if (np.abs(step) <= 1e-14 * (1.0 + np.abs(z))).all():
            break
    return z


def _enforce_conjugates(roots: list) -> np.ndarray:
    """Pair roots of a real polynomial into exact conjugates; a complex root
    without a partner keeps its real part."""
    out = []
    for re, im in _pair_conjugates(sorted(roots, key=lambda r: (-abs(r.imag), r.real))):
        if im is None:
            re, im = re.real, 0.0
        out.extend([complex(re, im), complex(re, -im)] if im else [complex(re, 0.0)])
    return np.array(sorted(out, key=lambda r: (r.real, r.imag)), dtype=complex)


def _polygon_starts(c: np.ndarray) -> np.ndarray:
    """Aberth starts from the Newton polygon of ``c`` (Bini, Numer.
    Algorithms 13, 1996): for each edge (i, j) of the upper convex hull of
    the points (k, log|c_k|), j - i points on the circle of radius
    (|c_i| / |c_j|)^(1/(j - i)), turned off the real axis."""
    k = np.flatnonzero(c)
    y = np.log(np.abs(c[k]))
    hull = []
    for i in range(k.size):
        # drop the last vertex while it lies on or below the chord to point i
        while len(hull) >= 2 and ((k[hull[-1]] - k[hull[-2]]) * (y[i] - y[hull[-2]])
                                  >= (y[hull[-1]] - y[hull[-2]]) * (k[i] - k[hull[-2]])):
            hull.pop()
        hull.append(i)
    starts = []
    for a, b in zip(hull, hull[1:]):
        m = int(k[b] - k[a])
        radius = np.exp((y[a] - y[b]) / m)
        starts.append(radius * np.exp(1j * (2.0 * np.pi * np.arange(m) / m + 0.7 + len(starts))))
    return np.concatenate(starts)


def _certify(roots: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Each root's backward error ``|p(r)| / sum_k |c_k| |r|^k``; 0 where the
    denominator is 0."""
    residual, scale = np.abs(P.polyval(roots, c)), P.polyval(np.abs(roots), np.abs(c))
    return np.divide(residual, scale, out=np.zeros_like(residual), where=scale != 0.0)


def aberth_roots(coeffs) -> np.ndarray:
    """All roots of a real polynomial via simultaneous iteration.

    Returns as many roots as the degree after ``trim``, however small the
    leading coefficient.  Exact zero constant terms are factored out as
    roots at the origin.  The rest, ``c_0 + ... + c_d s^d``, is solved in
    ``sigma = s / w``, with ``w`` the power of two nearest
    ``(|c_0| / |c_d|)^(1/d)``, a scaling without rounding: companion-matrix
    eigenvalues (``numpy.polynomial.polynomial.polyroots``) refined by
    Aberth-Ehrlich iteration.  Each root ``r`` is certified by its backward
    error ``|p(r)| / sum_k |c_k| |r|^k``, taken on the scaled coefficients at
    ``r / w``: the unscaled bits wherever those sums stay in range.  When
    any is above ``ROOT_BACKWARD_ERROR``, or not a number, the iteration
    restarts once from the Newton polygon's circles (``_polygon_starts``),
    which separate roots spread over many decades that the companion
    eigenvalues put on one point; if that fails too, ``RootFindingError``
    carries its backward errors.
    """
    c_full = trim(coeffs)
    zeros_at_origin = int(np.argmax(c_full != 0.0))     # 0 for the zero polynomial
    c = c_full[zeros_at_origin:]
    if c.size == 1:
        return np.zeros(zeros_at_origin, dtype=complex)

    e = int(np.rint((np.log2(abs(c[0])) - np.log2(abs(c[-1]))) / (c.size - 1)))
    shift = e * np.arange(c.size)
    cw = np.ldexp(c, shift - np.max((np.frexp(c)[1] + shift)[c != 0]))   # largest in [0.5, 1)
    scaled = np.concatenate([np.zeros(zeros_at_origin), cw])  # c_full(s) = 2^k scaled(s / 2^e)
    for starts in (lambda: P.polyroots(cw).astype(complex), lambda: _polygon_starts(cw)):
        z = _aberth_iterate(cw, starts())
        out = _enforce_conjugates([0j] * zeros_at_origin + (z * 2.0 ** e).tolist())
        backward = _certify(out * 2.0 ** -e, scaled)
        if np.all(backward <= ROOT_BACKWARD_ERROR):
            return out
    raise RootFindingError(
        f"root backward error {float(np.max(backward)):.3e} exceeds "
        f"{ROOT_BACKWARD_ERROR:.0e}", residuals=backward)
