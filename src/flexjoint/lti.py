"""LTI analysis of the shaped closed loop.

State-space assembly of every constant-mass chart (the plant under the
control law, the shaped loop, and its interconnection with a
mass-spring-damper environment), exact 1-DOF admittances, transfer
functions from the realization's poles and zeros (the eigenvalues of A and
of the zero dynamics, whose only tolerance is ``_ORIGIN_RTOL``), frequency
responses, pole/zero extraction, and a grid-based positive-real check.  A
``RationalTF`` keeps its poles and zeros: a converted one has them from the
realization, one built from coefficients finds them once, on first use.

The state-space frequency response is certified point by point: a modal
solve with one refinement step is kept where its componentwise backward
error is at most ``RESOLVENT_BACKWARD_ERROR`` (2^-48), and the other points
are solved by LU (see ``evaluate``).

The closed-loop admittance from external torque to link velocity for one
joint is

    Y(s) = (J_e s^2 + D_e s + K_e)
           / ( s [ J_e M s^2 + D_e (J_e + M) s + K_e (J_e + M) ] )

and the target admittance of a desired mass-spring-damper port is

    Y_d(s) = s / (M_d s^2 + K_d s + D_d).

Note the role of the target coefficients: ``K_d`` multiplies the velocity
term and ``D_d`` the position term in ``TargetImpedance``; keep that
naming in mind when reading parameter tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as P

from .control import ImpedanceGains, OuterLoop, ShapedParams
from .errors import (
    AssemblyError,
    NotApplicableError,
    ValidationError,
)
from .linalg import as_floats, freeze, read_only, require_admissible, require_joints
from .model import LinearRobotParams, as_model
from .poly import aberth_roots, poly_from_roots, trim

MAX_TF_STATES = 20
# Roots within this fraction of ||A||_F of the origin are exactly 0 in
# ``ss_to_tf``.  On the 3,200 loops of the benchmark's design pools, the
# scattered rigid-body roots reach 2.1e-10 of it, and the others are above 4.8e-5
_ORIGIN_RTOL = 1e-7
# The componentwise backward error that certifies a point of ``evaluate``:
# 2^-48 = 32 u, room above the rounding of the residual itself
RESOLVENT_BACKWARD_ERROR = 2.0 ** -48
_MAX_MODAL_COND = 2.0 ** 26.5   # 1 / sqrt(u): beyond it the modes are not tried
# Blocks of ``evaluate``, which bound its memory: points per modal block, and
# matrix entries (1 MiB) per stacked LU solve of the points it does not certify
_MODAL_BLOCK = 1024
_SOLVE_ENTRIES = 2 ** 16


@dataclass(frozen=True)
class StateSpace:
    """Dense state-space system (A, B, C, Dmat)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Dmat: np.ndarray

    def __post_init__(self):
        A, B, C, Dm = (np.atleast_2d(as_floats(getattr(self, name), name))
                       for name in ("A", "B", "C", "Dmat"))
        if A.shape[0] != A.shape[1]:
            raise ValidationError(f"A must be square, got {A.shape}")
        if B.shape[0] != A.shape[0]:
            raise ValidationError(f"B rows {B.shape[0]} != states {A.shape[0]}")
        if C.shape[1] != A.shape[0]:
            raise ValidationError(f"C cols {C.shape[1]} != states {A.shape[0]}")
        if Dm.shape != (C.shape[0], B.shape[1]):
            raise ValidationError(f"Dmat shape {Dm.shape} != ({C.shape[0]}, {B.shape[1]})")
        for name, mat in (("A", A), ("B", B), ("C", C), ("Dmat", Dm)):
            object.__setattr__(self, name, read_only(mat.copy()))

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class RationalTF:
    """Rational transfer function, ascending coefficients.

    ``cancelled`` records the common power of s stripped, as roots at the
    origin, when the function was converted from a state-space realization.
    The poles and zeros are kept read-only: ``ss_to_tf`` sets them, and a
    function built from coefficients finds each set once, on first use.
    """

    num: np.ndarray
    den: np.ndarray
    cancelled: tuple = ()

    def __post_init__(self):
        for name in ("num", "den"):
            object.__setattr__(self, name, read_only(trim(getattr(self, name))))
        if not self.den.any():
            raise ValidationError("denominator is identically zero")
        object.__setattr__(self, "cancelled", tuple(self.cancelled))

    @cached_property
    def _poles(self) -> np.ndarray:
        # a RootFindingError propagates and leaves nothing cached
        return read_only(aberth_roots(self.den))

    @cached_property
    def _zeros(self) -> np.ndarray:
        return read_only(aberth_roots(self.num))


@dataclass(frozen=True)
class EnvironmentImpedance:
    """Mass-spring-damper environment at the interaction port."""

    n: int
    M_h: np.ndarray
    D_h: np.ndarray
    K_h: np.ndarray

    def __post_init__(self):
        freeze(self, ("M_h", "D_h", "K_h"), self.n)
        require_admissible([(self.M_h, "M_h", False, ValidationError),
                            (self.D_h, "D_h", False, ValidationError),
                            (self.K_h, "K_h", False, ValidationError)])


@dataclass(frozen=True)
class TargetImpedance:
    """Desired port behaviour: M_d on acceleration, K_d on velocity, D_d on position."""

    n: int
    M_d: np.ndarray
    K_d: np.ndarray
    D_d: np.ndarray

    def __post_init__(self):
        freeze(self, ("M_d", "K_d", "D_d"), self.n)
        require_admissible([(self.M_d, "M_d", True, ValidationError),
                            (self.K_d, "K_d", True, ValidationError),
                            (self.D_d, "D_d", True, ValidationError)])


@dataclass(frozen=True)
class PassivityVerdict:
    """Outcome of ``positive_real_check``."""

    verdict: str                      # "passive" | "not-passive" | "inconclusive"
    condition: str | None = None      # first violated / doubtful condition
    witness: complex | float | None = None
    min_real: float | None = None     # minimum of Re tf(jw) over the grid


def assemble_closed_loop(m: LinearRobotParams, sp: ShapedParams,
                         outer: OuterLoop | None = None) -> StateSpace:
    """Shaped closed loop as a state-space system.

    States (q, phi, p, z), input tau_e, output the link velocity
    ``M^-1 p``.  With an outer loop, ``tau_u = -K_phi phi - D_phi phi'``
    is folded into the dynamics (the set-point shifts the equilibrium but
    not the transfer function, so it is ignored here).  Assumes a constant
    mass matrix and zero gravity.
    """
    return _shaped_loop(m, sp, outer, None)


def _shaped_loop(m: LinearRobotParams, sp: ShapedParams, outer: OuterLoop | None,
                 env: EnvironmentImpedance | None) -> StateSpace:
    """The shaped loop with the environment merged into the link, or alone
    when ``env`` is None; the coupled loop also takes a motor-side input."""
    if not isinstance(m, LinearRobotParams):
        raise ValidationError("state-space assembly requires a constant-mass plant")
    n = m.n
    require_joints(n, (sp, outer, env), AssemblyError)
    Z = np.zeros((n, n))
    M_h, D_h, K_h = (Z, Z, Z) if env is None else (env.M_h, env.D_h, env.K_h)
    if env is None:             # M + 0 is M
        Minv = as_model(m).Minv
    else:
        try:
            Minv = np.linalg.inv(m.M + M_h)
        except np.linalg.LinAlgError as exc:
            raise AssemblyError(f"singular inertia block: {exc}") from None
    Jeinv, Ke, De = sp.Jeinv, sp.K_e, sp.D_e

    q, phi, p, z = (slice(k * n, (k + 1) * n) for k in range(4))
    A = np.zeros((4 * n, 4 * n))
    A[q, p] = Minv
    A[phi, z] = Jeinv
    A[p, q], A[p, phi], A[p, p], A[p, z] = -Ke - K_h, Ke, -(De + D_h) @ Minv, De @ Jeinv
    A[z, q], A[z, phi], A[z, p], A[z, z] = Ke, -Ke, De @ Minv, -De @ Jeinv
    if outer is not None:
        A[z, phi] -= outer.K_phi
        A[z, z] -= outer.D_phi @ Jeinv
    B = np.vstack([Z, Z, np.eye(n), Z])
    if env is not None:
        B = np.hstack([B, np.vstack([Z, Z, Z, np.eye(n)])])
    return StateSpace(A, B, np.hstack([Z, Z, Minv, Z]), np.zeros((n, B.shape[1])))


def assemble_plant_loop(m: LinearRobotParams, g: ImpedanceGains,
                        outer: OuterLoop | None = None) -> StateSpace:
    """Plant under the impedance control law as a state-space system.

    States (q, theta, p, s); inputs tau_e and an extra auxiliary torque
    tau_u, as in ``assemble_coupled``.  The control law

        tau = K_F tau_e - K_G tau_a + K_H tau_u,   tau_a = K (theta - q) + D (theta' - q')

    drives the motor momentum.  The system is built from the plant
    matrices and the gains alone, never from the shaped chart, so it is an
    independent computation of the loop that ``assemble_closed_loop``
    writes in shaped coordinates.  The shaped motor coordinate follows from
    the gains as

        phi = (J - K_F M)^-1 (J theta - K_F M q),   phi' = (J - K_F M)^-1 (s - K_F p),

    and an outer loop folds ``tau_u = -K_phi phi - D_phi phi'`` into the
    dynamics (the set-point is left out, as in the other assemblies).
    Outputs: the link velocity ``M^-1 p``, ``phi``, ``phi'`` and ``tau``.
    The gains ``K_F = K_G = 0, K_H = I`` give the bare plant.
    """
    if not isinstance(m, LinearRobotParams):
        raise ValidationError("state-space assembly requires a constant-mass plant")
    n = m.n
    require_joints(n, (g, outer), AssemblyError)
    model = as_model(m)
    Minv, Jinv = model.Minv, model.Jinv
    try:
        Ninv = np.linalg.inv(m.J - g.K_F @ m.M)
    except np.linalg.LinAlgError as exc:
        raise AssemblyError(f"singular inertia block: {exc}") from None

    Z = np.zeros((n, n))
    I = np.eye(n)
    Ta = np.hstack([-m.K, m.K, -m.D @ Minv, m.D @ Jinv])
    Phi = Ninv @ np.hstack([-g.K_F @ m.M, m.J, Z, Z])
    Phid = Ninv @ np.hstack([Z, Z, -g.K_F, I])
    Tu = np.zeros((n, 4 * n))
    if outer is not None:
        Tu = -outer.K_phi @ Phi - outer.D_phi @ Phid
    Tau = -g.K_G @ Ta + g.K_H @ Tu
    qdot = np.hstack([Z, Z, Minv, Z])
    A = np.vstack([qdot, np.hstack([Z, Z, Z, Jinv]), Ta, -Ta + Tau])
    B = np.block([[Z, Z], [Z, Z], [I, Z], [g.K_F, g.K_H]])
    C = np.vstack([qdot, Phi, Phid, Tau])
    Dmat = np.vstack([np.zeros((3 * n, 2 * n)), np.hstack([g.K_F, g.K_H])])
    return StateSpace(A, B, C, Dmat)


def assemble_coupled(m: LinearRobotParams, sp: ShapedParams, env: EnvironmentImpedance,
                     outer: OuterLoop | None = None) -> StateSpace:
    """Closed loop coupled to the environment through the interaction port.

    The environment reaction enters the link equation with the
    environment mass merged into the link mass block:

        (M + M_h) q'' = K_e (phi - q) + D_e (phi' - q') - D_h q' - K_h q
        J_e phi''     = -K_e (phi - q) - D_e (phi' - q') + tau_u

    The damping through the transmission keeps the sign it has in the
    standalone closed loop, which is the energy-consistent choice.  States
    are (q, phi, pm, z) with ``pm = (M + M_h) q'``; the inputs are an
    extra external link torque and an extra motor-side torque, so the
    system is autonomous when the outer loop supplies ``tau_u``.
    """
    return _shaped_loop(m, sp, outer, env)


def admittance_1dof(sp: ShapedParams, M) -> RationalTF:
    """Exact single-joint admittance of the shaped loop (no outer loop)."""
    if sp.n != 1:
        raise NotApplicableError(f"closed-form admittance is defined for n=1, got n={sp.n}")
    M = float(np.atleast_2d(np.asarray(M, dtype=float))[0, 0])
    Je, Ke, De = float(sp.J_e[0, 0]), float(sp.K_e[0, 0]), float(sp.D_e[0, 0])
    num = np.array([Ke, De, Je])
    den = np.array([0.0, Ke * (Je + M), De * (Je + M), Je * M])
    return RationalTF(num, den)


def target_admittance(t: TargetImpedance) -> RationalTF:
    """Single-joint target admittance Y_d(s) = s / (M_d s^2 + K_d s + D_d)."""
    if t.n != 1:
        raise NotApplicableError(f"target admittance is defined for n=1, got n={t.n}")
    return RationalTF(np.array([0.0, 1.0]),
                      np.array([float(t.D_d[0, 0]), float(t.K_d[0, 0]), float(t.M_d[0, 0])]))


def env_impedance_tf(env: EnvironmentImpedance) -> RationalTF:
    """Single-joint environment impedance (M_h s^2 + D_h s + K_h) / s."""
    if env.n != 1:
        raise NotApplicableError(f"environment impedance TF is defined for n=1, got n={env.n}")
    return RationalTF(np.array([float(env.K_h[0, 0]), float(env.D_h[0, 0]),
                                float(env.M_h[0, 0])]),
                      np.array([0.0, 1.0]))


def ss_to_tf(ss: StateSpace, input_index: int = 0, output_index: int = 0) -> RationalTF:
    """Transfer function of one input/output pair of a state-space system,
    from the realization's poles and zeros; no polynomial is formed by
    recursion.

    The poles are ``eig(A)``.  With a feedthrough ``d != 0`` the gain is d
    and the zeros are ``eig(A - b c / d)``.  Otherwise r is the first k with
    ``c A^(k-1) b`` exactly nonzero, the gain is ``g = c A^(r-1) b`` and the
    zeros are the eigenvalues of the zero dynamics ``V^T (A - b c A^r / g) V``,
    V an orthonormal basis of the kernel of ``[c; cA; ...; cA^(r-1)]``
    (Emami-Naeini & Van Dooren, Automatica 18(4), 1982); without such a k
    the function is zero.  Roots within ``_ORIGIN_RTOL ||A||_F`` of the
    origin are set to 0, and zeros at the origin cancel poles there
    (recorded in ``cancelled``); other common factors of a non-minimal
    realization stay.  Each root set is only sorted: the eigenvalues of a
    real matrix come in exact conjugate pairs.  ``num = g
    poly_from_roots(zeros)``, ``den = poly_from_roots(poles)``, and the
    function keeps both root sets, so ``poles_zeros`` and
    ``positive_real_check`` find no roots.  Refused above ``MAX_TF_STATES``
    states, where expanded coefficients lose too much precision, and when a
    product on the way overflows float64 (``AssemblyError`` both); evaluate
    the resolvent at the frequencies of interest.
    """
    if ss.n_states > MAX_TF_STATES:
        raise AssemblyError(
            f"{ss.n_states} states exceed the {MAX_TF_STATES}-state limit for polynomial "
            "conversion; evaluate the frequency response from the state-space form instead")
    if not (0 <= input_index < ss.n_inputs and 0 <= output_index < ss.n_outputs):
        raise ValidationError("input or output index out of range")
    A, b, c = ss.A, ss.B[:, input_index], ss.C[output_index]
    g = float(ss.Dmat[output_index, input_index])
    zeros = np.empty(0)
    with np.errstate(over="ignore", invalid="ignore"):     # _finite refuses what overflows
        if g != 0.0:
            zeros = np.linalg.eigvals(_finite(A - np.outer(b, c) / g, "A - b c / d"))
        else:
            rows = [c]          # c A^k, k < r; a non-finite row makes its g non-finite
            for _ in range(ss.n_states):
                g = float(_finite(rows[-1] @ b, "c A^k b"))
                if g != 0.0:
                    V = np.linalg.svd(np.array(rows))[2][len(rows):].T
                    Z = V.T @ (A - np.outer(b, rows[-1] @ A) / g) @ V
                    zeros = np.linalg.eigvals(_finite(Z, "the zero dynamics"))
                    break
                rows.append(rows[-1] @ A)
        tol = _ORIGIN_RTOL * _finite(np.linalg.norm(A), "||A||_F")
    # the roots at the origin first, set to 0; k of them cancel
    poles, zeros = (sorted((0j if abs(r) <= tol else complex(r) for r in roots), key=abs)
                    for roots in (np.linalg.eigvals(A), zeros))
    k = min(poles.count(0j), zeros.count(0j))
    # LAPACK's real geev gives exact conjugate pairs and real roots a zero imaginary
    # part, and the origin snap maps a pair alike: sorting is all the pairing needed
    poles, zeros = np.sort_complex(poles[k:]), np.sort_complex(zeros[k:])
    tf = RationalTF(poly_from_roots(zeros, g), poly_from_roots(poles), (0j,) * k)
    object.__setattr__(tf, "_poles", read_only(poles))
    object.__setattr__(tf, "_zeros", read_only(zeros))
    return tf


def _finite(value, what: str):
    """``value`` when every entry is finite, else ``AssemblyError``: an
    overflowed product carries no digits, and LAPACK refuses it."""
    if not np.isfinite(value).all():
        raise AssemblyError(f"transfer function: {what} overflows float64; rescale the "
                            "plant or evaluate the response from the state-space form")
    return value


def evaluate(sys, svals) -> np.ndarray:
    """Complex response of a RationalTF or StateSpace at points ``svals``.

    The state-space path never goes through polynomial coefficients.  It
    evaluates the resolvent in the eigenbasis of A (``_modal_response``):
    one eigendecomposition per call, one step of iterative refinement, and
    a componentwise backward-error certificate at each point: with
    tau = ``RESOLVENT_BACKWARD_ERROR``, every row of the residual obeys

        |b - (sI - A) x| <= tau (|s| |x| + |A| |x| + |b|),

    which implies the normwise ||r|| <= tau ((|s| + ||A||_F) ||x|| + ||b||).
    Points that fail it (a defective or ill-conditioned A, a point on a
    pole, anything not finite) are solved by LU as ``(sI - A) x = B``, with
    ``_SOLVE_ENTRIES`` matrix entries per stacked solve; points landing
    exactly on a pole yield ``inf``.  The output has the shape of the input
    (a scalar gives one point).
    """
    svals = np.atleast_1d(np.asarray(svals, dtype=complex))
    if isinstance(sys, RationalTF):
        with np.errstate(divide="ignore", invalid="ignore"):
            numv = P.polyval(svals, sys.num)
            denv = P.polyval(svals, sys.den)
            out = np.where(denv == 0.0,
                           np.inf + 0.0j,
                           numv / np.where(denv == 0.0, 1.0, denv))
        return out
    if isinstance(sys, StateSpace):
        if sys.n_inputs != 1 or sys.n_outputs != 1:
            raise ValidationError("frequency evaluation expects a single input/output pair; "
                                  "select one with ss_to_tf or slice B and C")
        flat = svals.ravel()
        out, ok = _modal_response(sys, flat)
        rest = np.flatnonzero(~ok)
        step = max(1, _SOLVE_ENTRIES // sys.n_states ** 2)
        for lo in range(0, rest.size, step):
            idx = rest[lo:lo + step]
            out[idx] = _resolvent_block(sys, flat[idx])
        return out.reshape(svals.shape)
    raise ValidationError(f"unsupported system type {type(sys).__name__}")


def _modal_response(sys: StateSpace, s: np.ndarray):
    """``C (s_k I - A)^-1 B + D`` at the points ``s`` in the eigenbasis of A,
    and the mask of the points whose result is certified.

    With ``A = V diag(lam) V^-1`` the solve is ``x = V D V^-1 b``, D =
    diag(1 / (s - lam)).  One step of fixed-precision refinement,
    ``x += V D V^-1 r`` on the residual r = b - (sI - A) x, brings the
    backward error down to the working precision (Skeel, Math. Comp. 35,
    1980); the recomputed residual certifies each point by its
    componentwise backward error (Oettli & Prager, Numer. Math. 6, 1964).
    A normwise test would pass points whose output, a component of x far
    below ||x||, is wrong in the eleventh digit.  No point is certified when
    ``eig`` or ``inv`` fails, or when ``||V||_F ||V^-1||_F`` exceeds
    ``_MAX_MODAL_COND``: a shortcut for defective A, where few points pass.
    """
    out = np.empty(s.shape, dtype=complex)
    ok = np.zeros(s.shape, dtype=bool)
    try:
        lam, V = np.linalg.eig(sys.A)
        Vi = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        return out, ok
    if not np.linalg.norm(V) * np.linalg.norm(Vi) <= _MAX_MODAL_COND:
        return out, ok
    b, c, d = sys.B[:, 0], sys.C[0], sys.Dmat[0, 0]
    At, VT, ViT = sys.A.T.astype(complex), V.T, Vi.T
    abs_At, abs_b = np.abs(sys.A.T), np.abs(b)
    vb = Vi @ b
    with np.errstate(all="ignore"):             # a point on a pole fails below
        for lo in range(0, s.size, _MODAL_BLOCK):
            blk = slice(lo, lo + _MODAL_BLOCK)
            sk = s[blk, None]
            D = 1.0 / (sk - lam)
            x = (D * vb) @ VT
            r = b - (sk * x - x @ At)
            x += (D * (r @ ViT)) @ VT
            r = b - (sk * x - x @ At)
            ax = np.abs(x)
            tol = RESOLVENT_BACKWARD_ERROR * (np.abs(sk) * ax + ax @ abs_At + abs_b)
            ok[blk] = (np.abs(r) <= tol).all(axis=1) & np.isfinite(x).all(axis=1)
            out[blk] = x @ c + d
    return out, ok


def _resolvent_block(sys: StateSpace, s: np.ndarray) -> np.ndarray:
    """``C (s_k I - A)^-1 B + D`` for each point of ``s``, from one stacked solve.

    A batched solve raises for the whole stack when any member is exactly
    singular; only then are those members found (``slogdet`` sign 0, the
    same LU pivot test), set to ``inf``, and the rest solved.
    """
    n = sys.n_states
    Z = np.empty((s.size, n, n), dtype=complex)
    Z[:] = -sys.A
    Z.reshape(s.size, n * n)[:, ::n + 1] += s[:, None]
    b = np.broadcast_to(sys.B, (s.size, n, 1))
    out = np.full(s.size, np.inf + 0.0j)
    try:
        x = np.linalg.solve(Z, b)
    except np.linalg.LinAlgError:
        ok = np.linalg.slogdet(Z)[0] != 0
        x = np.linalg.solve(Z[ok], b[ok])
    else:
        ok = slice(None)
    out[ok] = x[..., 0] @ sys.C[0] + sys.Dmat[0, 0]
    return out


def _check_frequencies(omegas) -> np.ndarray:
    """Angular frequencies as a float array; finite and nonnegative, else ValidationError."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    if (omegas < 0.0).any() or not np.isfinite(omegas).all():
        raise ValidationError("frequencies must be finite and nonnegative")
    return omegas


def freq_response(sys, omegas):
    """Magnitude (dB) and phase (deg) at angular frequencies ``omegas``.

    Frequencies landing exactly on an imaginary-axis pole are flagged with
    an infinite magnitude.
    """
    H = evaluate(sys, 1j * _check_frequencies(omegas))
    with np.errstate(divide="ignore", invalid="ignore"):
        mag_db = 20.0 * np.log10(np.abs(H))
    phase_deg = np.where(np.isfinite(H), np.degrees(np.angle(H)), np.nan)
    return mag_db, phase_deg


def poles_zeros(tf: RationalTF):
    """Poles and zeros; conjugate symmetry is exact for real systems.  Both
    are copies of those the function keeps."""
    return tf._poles.copy(), tf._zeros.copy()


def _residue_at_simple_pole(tf: RationalTF, pole: complex) -> complex:
    dden = P.polyval(pole, P.polyder(tf.den))
    return complex(P.polyval(pole, tf.num) / dden)


def positive_real_check(tf: RationalTF, grid=None) -> PassivityVerdict:
    """Grid-based positive-real verdict for a real rational function.

    ``passive`` requires all poles in the closed left half-plane,
    imaginary-axis poles simple with nonnegative real residue, and
    Re tf(jw) >= -1e-9 on the grid.  Clear violations (pole real part or
    negative grid minimum beyond 1e-6) give ``not-passive`` with the first
    violated condition and its witness; the band between the two
    thresholds is reported as ``inconclusive`` since the grid cannot
    resolve it.
    """
    if grid is None:
        grid = np.logspace(-2, 3, 400)
    grid = _check_frequencies(grid)
    if grid.size == 0:
        raise ValidationError("frequency grid is empty")

    poles = tf._poles       # the zeros play no part in the verdict
    tight, loose = 1e-9, 1e-6
    marginal = None
    for pole in sorted(poles, key=lambda v: (-v.real, abs(v.imag))):
        scale = max(1.0, abs(pole))
        if pole.real > loose * scale:
            return PassivityVerdict("not-passive", "pole in right half-plane", pole)
        if pole.real > tight * scale:
            marginal = PassivityVerdict("inconclusive", "pole real part within grid doubt band",
                                        pole)
    for i, pole in enumerate(poles):
        scale = max(1.0, abs(pole))
        if abs(pole.real) <= tight * scale:
            others = [p for j, p in enumerate(poles) if j != i]
            if others and min(abs(pole - p) for p in others) <= loose * scale:
                return PassivityVerdict("not-passive", "repeated imaginary-axis pole", pole)
            res = _residue_at_simple_pole(tf, pole)
            if res.real < -tight * max(1.0, abs(res)):
                return PassivityVerdict("not-passive", "negative residue at imaginary-axis pole",
                                        pole)

    re_vals = np.real(evaluate(tf, 1j * grid))
    finite = re_vals[np.isfinite(re_vals)]
    min_re = float(finite.min()) if finite.size else 0.0
    wmin = float(grid[int(np.argmin(re_vals))]) if finite.size == re_vals.size else None
    if min_re < -loose:
        return PassivityVerdict("not-passive", "negative real part on frequency grid",
                                wmin, min_re)
    if min_re < -tight:
        return PassivityVerdict("inconclusive", "grid real-part minimum within doubt band",
                                wmin, min_re)
    if marginal is not None:
        return PassivityVerdict(marginal.verdict, marginal.condition, marginal.witness, min_re)
    return PassivityVerdict("passive", None, None, min_re)
