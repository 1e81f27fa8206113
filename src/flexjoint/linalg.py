"""Dense linear-algebra helpers.

Linear solves go through LAPACK (LU with partial pivoting, via numpy);
definiteness checks apply their own pivot threshold to LAPACK's Cholesky
factor, so the threshold stays under our control.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import ShapingInfeasibleError, ValidationError

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
    return _square(as_floats(value, name), n, name)


def _square(arr: np.ndarray, n: int, name: str) -> np.ndarray:
    require_entries(float(n) * n, f"{name} as a {n:.3g} x {n:.3g} matrix")
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
    return _length(as_floats(value, name), n, name)


def _length(arr: np.ndarray, n: int, name: str) -> np.ndarray:
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape != (n,):
        raise ValidationError(f"{name}: expected {n} entries, got shape {arr.shape}")
    return arr.copy()


def read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, set read-only like the fields of the frozen parameter types."""
    arr.setflags(write=False)
    return arr


VECTOR, MATRIX, SPD, PSD = "vector", "matrix", "SPD", "PSD"     # the kinds of field


def freeze(obj, kinds: dict, n_field: str | None = None, err=ValidationError) -> None:
    """Build the fields named in ``kinds`` of a frozen parameter type, in
    order, as read-only length-n vectors (``VECTOR``) or (n, n) matrices
    (``MATRIX``, ``SPD``, ``PSD``, as ``as_matrix`` reads them), and after the
    last matrix check the SPD and PSD ones in one ``require_admissible`` pass,
    which raises ``err``, named as ``matrix_name`` for a ShapingInfeasibleError.
    n is the field ``n_field``, an integer >= 1 and not a bool; without one, 1
    for a scalar first field, else its leading dimension (a diagonal vector of
    length k counts k joints), set as ``obj.n``.  A bad n raises ValidationError."""
    names = list(kinds)
    if n_field is None:               # the first field, coerced once, gives n
        first = as_floats(getattr(obj, names[0]), names[0])
        n = first.shape[0] if first.ndim else 1
        object.__setattr__(obj, "n", n)
    else:
        n = getattr(obj, n_field)
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValidationError(f"joint count must be an integer, got {n!r}")
    if n < 1:
        raise ValidationError(f"joint count must be >= 1, got {n}")
    matrices = [name for name in names if kinds[name] != VECTOR]
    named = issubclass(err, ShapingInfeasibleError)
    checks = []
    for i, (name, kind) in enumerate(kinds.items()):
        arr = first if i == 0 and n_field is None else as_floats(getattr(obj, name), name)
        arr = read_only(_length(arr, n, name) if kind == VECTOR else _square(arr, n, name))
        object.__setattr__(obj, name, arr)
        if kind in (SPD, PSD):
            checks += [(arr, name, kind == SPD, partial(err, matrix_name=name) if named else err)]
        if checks and name == matrices[-1]:
            require_admissible(checks)


def require_joints(n: int, parts, err=ValidationError) -> None:
    """Raise ``err`` naming the first part, not None, whose joint count ``.n``
    differs from the plant's ``n``."""
    for part in parts:
        if part is not None and part.n != n:
            raise err(f"{type(part).__name__} is {part.n}-joint, plant is {n}-joint")


def cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix, or of
    each member of a stack ``(k, m, m)``, by one LAPACK call.

    Raises ValueError when a pivot ``L[k, k]^2`` falls below
    ``SPD_PIVOT_RTOL * ||a||_max`` of its own matrix or LAPACK meets a
    nonpositive one; only then are the members factored in order.  The
    error names the first that fails: ``member`` (0 for one matrix) and
    ``reason``, its message after ``"member j: "`` for a stack.
    """
    thresh = SPD_PIVOT_RTOL * np.abs(a).max(axis=(-2, -1), initial=_TINY)
    try:
        L = np.linalg.cholesky(a)
        if not (L.diagonal(axis1=-2, axis2=-1) ** 2 < thresh[..., None]).any():
            return L
    except np.linalg.LinAlgError:
        pass
    for j, (member, t) in enumerate(zip(a.reshape((-1,) + a.shape[-2:]), thresh.reshape(-1))):
        try:
            pivots = np.linalg.cholesky(member).diagonal() ** 2
        except np.linalg.LinAlgError:
            reason = f"nonpositive pivot, threshold {t:.3e}"
        else:
            low = pivots < t
            if not low.any():
                continue
            k = int(low.argmax())
            reason = f"pivot {pivots[k]:.3e} below threshold {t:.3e} at index {k}"
        err = ValueError(f"member {j}: {reason}" if a.ndim > 2 else reason)
        err.member, err.reason = j, reason
        raise err


def require_admissible(entries) -> None:
    """Check each ``(matrix, name, spd, err)`` entry, all of one shape, in one
    stacked pass: symmetry to ``1e-9 max(||a||_max, 1)``, then positive
    definiteness, or semidefiniteness to ``-1e-10 max(||a||_max, 1)`` when
    not ``spd``.  The first failing entry raises its ``err``."""
    matrices, names, spd, errs = zip(*entries)
    a, spd = np.stack(matrices), np.array(spd)
    scale = np.abs(a).max(axis=(1, 2), initial=1.0)        # max(||a||_max, 1)
    asym = np.abs(a - a.mT).max(axis=(1, 2), initial=0.0)
    sym = 0.5 * (a + a.mT)
    failed = {}                        # entry index -> how it fails
    if spd.any():
        try:
            cholesky_lower(sym[spd])
        except ValueError as exc:
            failed[int(np.flatnonzero(spd)[exc.member])] = f"positive definite ({exc.reason})"
    if not spd.all():
        psd = ~spd
        least = np.linalg.eigvalsh(sym[psd])[:, :1]        # one column, none when m = 0
        low = least < -1e-10 * scale[psd, None]
        if low.any():
            j = int(low.argmax())
            failed[int(np.flatnonzero(psd)[j])] = \
                f"positive semidefinite (min eigenvalue {least[j, 0]:.3e})"
    asymmetric = ~(asym <= 1e-9 * scale)
    if asymmetric.any():               # outranks the entry's definiteness
        i = int(asymmetric.argmax())
        failed[i] = f"symmetric (asymmetry {asym[i]:.3e})"
    if failed:
        i = min(failed)
        raise errs[i](f"{names[i]} is not {failed[i]}")


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
