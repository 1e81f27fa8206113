"""Dense linear-algebra helpers.

Linear solves go through LAPACK (LU with partial pivoting, via numpy);
definiteness checks apply their own pivot threshold to LAPACK's Cholesky
factor, so the threshold stays under our control.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

# Cholesky pivot fails below this fraction of the matrix norm.
SPD_PIVOT_RTOL = 1e-12
_TINY = np.finfo(float).tiny
# Largest array, in entries, that a run may ask for: 2^26, 512 MiB of float64,
# against 1.1e6 for the series of the bundled 100k-step 1-DOF study.  Sizes
# are checked against it before anything is allocated.
MAX_ARRAY_ENTRIES = 2 ** 26


def as_floats(value, name: str) -> np.ndarray:
    """``value`` as a float array; non-numeric or non-finite entries raise a
    ValidationError that names ``name``."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} has non-numeric entries") from None
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} has non-finite entries")
    return arr


def require_entries(entries: float, what: str, err=ValidationError) -> None:
    """Raise ``err`` naming ``what`` when an array of ``entries`` entries
    would exceed ``MAX_ARRAY_ENTRIES``."""
    if not entries <= MAX_ARRAY_ENTRIES:
        raise err(f"{what} would need {entries:.3g} array entries, above the bound "
                  f"of {MAX_ARRAY_ENTRIES} (2^26)")


def as_matrix(value, n: int, name: str = "matrix") -> np.ndarray:
    """Coerce a scalar, diagonal vector, or square array to an (n, n) float array.

    Scalars become ``value * I``; 1-D arrays of length n become diagonal
    matrices; 2-D input must already be (n, n).  An n x n matrix above
    ``MAX_ARRAY_ENTRIES`` raises ``ValidationError``.
    """
    require_entries(float(n) * n, f"{name} as a {n:.3g} x {n:.3g} matrix")
    arr = as_floats(value, name)
    if arr.ndim == 0:
        return float(arr) * np.eye(n)
    if arr.ndim == 1:
        if arr.shape[0] != n:
            raise ValidationError(f"{name}: expected {n} diagonal entries, got {arr.shape[0]}")
        return np.diag(arr)
    if arr.ndim == 2:
        if arr.shape != (n, n):
            raise ValidationError(f"{name}: expected shape ({n}, {n}), got {arr.shape}")
        return arr.copy()
    raise ValidationError(f"{name}: too many dimensions ({arr.ndim})")


def as_vector(value, n: int, name: str = "vector") -> np.ndarray:
    """Coerce a scalar or sequence to a length-n float vector."""
    arr = as_floats(value, name)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape != (n,):
        raise ValidationError(f"{name}: expected {n} entries, got shape {arr.shape}")
    return arr.copy()


def read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, set read-only like the fields of the frozen parameter types."""
    arr.setflags(write=False)
    return arr


def freeze(obj, names, n: int, coerce=as_matrix) -> None:
    """Replace each named field of a frozen dataclass by its coerced,
    read-only array (``as_matrix`` or ``as_vector``)."""
    for name in names:
        arr = coerce(getattr(obj, name), n, name)
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


def require_joints(n: int, parts, err=ValidationError) -> None:
    """Raise ``err`` naming the first part, not None, whose joint count ``.n``
    differs from the plant's ``n``."""
    for part in parts:
        if part is not None and part.n != n:
            raise err(f"{type(part).__name__} is {part.n}-joint, plant is {n}-joint")


def symmetry_error(a: np.ndarray) -> float:
    return float(np.abs(a - a.T).max()) if a.size else 0.0


def cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix, or of
    each member of a stack ``(k, m, m)``.

    Raises ValueError when any pivot ``L[k, k]^2`` falls below
    ``SPD_PIVOT_RTOL * ||a||_inf`` of its own matrix, or when LAPACK meets a
    nonpositive one; for a stack, the message names the first member that
    fails.
    """
    if a.ndim > 2:
        return _cholesky_stack(a)
    norm = float(np.abs(a).max()) if a.size else 0.0
    thresh = SPD_PIVOT_RTOL * max(norm, _TINY)
    try:
        L = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise ValueError(f"nonpositive pivot, threshold {thresh:.3e}") from None
    pivots = L.diagonal() ** 2
    low = pivots < thresh
    if low.any():
        k = int(low.argmax())
        raise ValueError(f"pivot {pivots[k]:.3e} below threshold {thresh:.3e} at index {k}")
    return L


def _cholesky_stack(a: np.ndarray) -> np.ndarray:
    """``cholesky_lower`` of each member of a stack, by one LAPACK call; when
    that call or a pivot fails, the members are checked one by one, and the
    ValueError names the first that fails, also as its ``member``."""
    thresh = SPD_PIVOT_RTOL * np.abs(a).max(axis=(1, 2), initial=_TINY)
    try:
        L = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        L = None
    if L is None or (L.diagonal(axis1=1, axis2=2) ** 2 < thresh[:, None]).any():
        for j, member in enumerate(a):
            try:
                cholesky_lower(member)
            except ValueError as exc:
                err = ValueError(f"member {j}: {exc}")
                err.member = j
                raise err from None
    return L


def require_symmetric(a: np.ndarray, name: str, err=ValidationError) -> None:
    """Raise ``err`` when the asymmetry exceeds ``1e-9 max(||a||_max, 1)``."""
    scale = max(float(np.abs(a).max()), 1.0) if a.size else 1.0
    if not symmetry_error(a) <= 1e-9 * scale:
        raise err(f"{name} is not symmetric (asymmetry {symmetry_error(a):.3e})")


def require_spd(a: np.ndarray, name: str, err=ValidationError) -> None:
    """Check symmetry and positive definiteness; raise ``err`` on failure."""
    require_symmetric(a, name, err)
    try:
        cholesky_lower(0.5 * (a + a.T))
    except ValueError as exc:
        raise err(f"{name} is not positive definite ({exc})") from None


def require_psd(a: np.ndarray, name: str, err=ValidationError) -> None:
    """Check symmetry and positive semidefiniteness; raise ``err`` on failure."""
    require_symmetric(a, name, err)
    w = np.linalg.eigvalsh(0.5 * (a + a.T))
    scale = max(float(np.abs(a).max()), 1.0)
    if w.size and w[0] < -1e-10 * scale:
        raise err(f"{name} is not positive semidefinite (min eigenvalue {w[0]:.3e})")


def require_admissible(entries) -> None:
    """``require_spd`` or ``require_psd`` of each ``(matrix, name, spd, err)``
    entry, all matrices of one shape, in one stacked pass: one symmetry
    reduction, one Cholesky factorization of the SPD entries and one
    ``eigvalsh`` of the PSD ones, at the same bounds.  When any entry fails,
    the single checks run in order, so the first failing matrix raises its
    ``err`` with their message."""
    a = np.stack([entry[0] for entry in entries])
    spd = np.array([entry[2] for entry in entries])
    scale = np.abs(a).max(axis=(1, 2), initial=1.0)        # max(||a||_max, 1)
    sym = 0.5 * (a + a.mT)
    ok = (np.abs(a - a.mT).max(axis=(1, 2), initial=0.0) <= 1e-9 * scale).all()
    if ok and spd.any():
        try:
            _cholesky_stack(sym[spd])
        except ValueError:
            ok = False
    if ok and not spd.all():
        psd = ~spd
        ok = not (np.linalg.eigvalsh(sym[psd])[:, :1] < -1e-10 * scale[psd, None]).any()
    if not ok:
        for matrix, name, is_spd, err in entries:
            (require_spd if is_spd else require_psd)(matrix, name, err)


def min_eigenvalue_sym(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (a + a.T))[0])


def solve(a: np.ndarray, b: np.ndarray, name: str, err=ValidationError) -> np.ndarray:
    """Solve ``a x = b`` via LU with partial pivoting; wrap singularity into ``err``."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise err(f"{name} is singular: {exc}") from None


def matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``a v`` for one matrix and vector, or row by row for stacks ``(..., n, n)``
    and ``(..., n)``."""
    return (a @ v[..., None])[..., 0]


def quad_form(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``v^T a v`` of one vector, or of each row of a sample matrix."""
    return np.vecdot(v, v @ a.T)


def pencil_max_frequency(stiffness: np.ndarray, mass: np.ndarray):
    """Largest undamped natural frequency of (stiffness, mass), in rad/s; for
    stacks ``(k, m, m)`` of both, the array of each member's frequency, from
    one Cholesky factorization, two solves and one ``eigvalsh``.

    Solves the generalized symmetric eigenproblem by Cholesky reduction of
    the mass matrix; the result is sqrt(max eigenvalue), clipped at zero.
    """
    L = cholesky_lower(0.5 * (mass + mass.mT))
    # B = L^-1 K L^-T, symmetric, same spectrum as the pencil
    y = np.linalg.solve(L, 0.5 * (stiffness + stiffness.mT))
    B = np.linalg.solve(L, y.mT).mT
    w = np.linalg.eigvalsh(0.5 * (B + B.mT))
    if w.ndim > 1:
        return np.sqrt(np.maximum(w[:, -1], 0.0))
    wmax = float(w[-1]) if w.size else 0.0
    return float(np.sqrt(max(wmax, 0.0)))
