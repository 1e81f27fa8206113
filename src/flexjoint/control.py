"""Impedance controller synthesis and control-law evaluation.

The controller feeds back the external torque, the elastic joint torque,
and an auxiliary input:

    tau = K_F tau_e - K_G tau_a - K_F grad V(q) + K_H tau_u,
    tau_a = K (theta - q) + D (theta' - q')

and shapes the closed loop into a mechanical system with motor-side
inertia ``J_e``, joint stiffness ``K_e``, and damping ``D_e = D K^-1 K_e``.
Gains and shaped parameters are two parametrizations of the same
controller:

    K_F = -J K^-1 (K_e - K) M^-1
    K_H = J K^-1 K_e J_e^-1
    K_G = K_H - K_F - I

with the inverse map

    J_e = (K_F + K_G + I)^-1 (J - K_F M)
    K_e = K J^-1 (J - K_F M)
    D_e = D J^-1 (J - K_F M).

On a configuration-dependent plant the same formulas hold with ``M(q)``
evaluated at the instantaneous configuration; ``gains_at`` provides that
evaluation, and the extra Coriolis compensation lives in
``nonlinear_control``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import (
    ConfigurationError,
    NotApplicableError,
    ParametrizationSingularError,
    ShapingInfeasibleError,
    TransformSingularError,
    ValidationError,
)
from .linalg import (
    as_matrix,
    as_vector,
    freeze,
    matvec,
    read_only,
    require_admissible,
    solve,
)
from .model import NonlinearRobotModel, OpenLoopState, RobotModel, as_model

# (name, SPD rather than PSD, error) of each shaped matrix, in checking order
_SHAPING_CHECKS = tuple((name, name != "D_e", partial(ShapingInfeasibleError, matrix_name=name))
                        for name in ("J_e", "K_e", "D_e"))


@dataclass(frozen=True)
class ShapedParams:
    """Closed-loop inertia, stiffness, and damping (J_e, K_e, D_e).  Building
    one is the only admissibility check of a shaping (J_e, K_e SPD, D_e PSD),
    one stacked pass over the three; a failure raises ``ShapingInfeasibleError``
    naming the first failing matrix.  ``Jeinv`` is computed once, on first
    use, and is read-only."""

    J_e: np.ndarray
    K_e: np.ndarray
    D_e: np.ndarray

    def __post_init__(self):
        n = np.atleast_2d(np.asarray(self.J_e, dtype=float)).shape[0]
        freeze(self, ("J_e", "K_e", "D_e"), n)
        require_admissible([(getattr(self, name), name, spd, err)
                            for name, spd, err in _SHAPING_CHECKS])

    @property
    def n(self) -> int:
        return self.J_e.shape[0]

    @cached_property
    def Jeinv(self) -> np.ndarray:
        """J_e^-1."""
        return read_only(np.linalg.inv(self.J_e))

    @property
    def lossless(self) -> bool:
        """True when D_e is only semidefinite (no strict damping)."""
        scale = max(float(np.abs(self.D_e).max()), 1.0)
        return float(np.linalg.eigvalsh(0.5 * (self.D_e + self.D_e.T))[0]) <= 1e-10 * scale


@dataclass(frozen=True)
class ImpedanceGains:
    """Force-feedback, joint-torque, and auxiliary-input gains."""

    K_F: np.ndarray
    K_G: np.ndarray
    K_H: np.ndarray

    def __post_init__(self):
        n = np.atleast_2d(np.asarray(self.K_F, dtype=float)).shape[0]
        freeze(self, ("K_F", "K_G", "K_H"), n)

    @property
    def n(self) -> int:
        return self.K_F.shape[0]


@dataclass(frozen=True)
class ShapedLoop:
    """A plant under a shaping, the one owner of the matrices relating them:
    ``S = K_e^-1 K`` (theta to phi), ``Sinv = K^-1 K_e``, ``K_H = J K^-1 K_e
    J_e^-1`` and the configuration ``gains``, each computed once and read-only.
    Built with ``given`` gains, it checks them against the shaping
    (``ConfigurationError``) and ``K_H`` is theirs; ``as_model`` checks joints."""

    model: NonlinearRobotModel
    shaped: ShapedParams
    given: ImpedanceGains | None = None

    def __post_init__(self):
        g = self.given
        if g is None:
            return
        scale = max(float(np.abs(g.K_H).max()), 1.0)
        if gain_consistency_error(g) > 1e-8 * scale:
            raise ConfigurationError(
                f"gain triple violates K_H - K_G - K_F = I by {gain_consistency_error(g):.3e}")
        err = float(np.abs(g.K_H - ShapedLoop(self.model, self.shaped).K_H).max())
        if err > 1e-8 * scale:
            raise ConfigurationError(
                f"K_H inconsistent with shaped parameters (deviation {err:.3e})")

    @cached_property
    def S(self) -> np.ndarray:
        return read_only(solve(self.shaped.K_e, self.model.K, "K_e", TransformSingularError))

    @cached_property
    def Sinv(self) -> np.ndarray:
        return read_only(solve(self.model.K, self.shaped.K_e, "K", TransformSingularError))

    @cached_property
    def K_H(self) -> np.ndarray:
        if self.given is not None:
            return self.given.K_H
        return read_only(self.model.JKinv @ self.shaped.K_e @ self.shaped.Jeinv)

    @cached_property
    def _F(self) -> np.ndarray:       # K_F M(q) = -J K^-1 (K_e - K)
        return read_only(-self.model.JKinv @ (self.shaped.K_e - self.model.K))

    def gains(self, Minv: np.ndarray):
        """(K_F, K_G) at M(q)^-1, one matrix or a stack: K_F = -J K^-1
        (K_e - K) M(q)^-1 and K_G = K_H - K_F - I."""
        K_F = self._F @ Minv
        return K_F, self.K_H - K_F - np.eye(self.model.n)


@dataclass(frozen=True)
class OuterLoop:
    """Outer position loop tau_u = -K_phi (phi - phi_d) - D_phi phi' + gbar(phi)."""

    K_phi: np.ndarray
    D_phi: np.ndarray
    phi_d: np.ndarray = 0.0
    gravity_comp: bool = False

    def __post_init__(self):
        n = np.atleast_2d(np.asarray(self.K_phi, dtype=float)).shape[0]
        freeze(self, ("K_phi", "D_phi"), n)
        require_admissible([(self.K_phi, "K_phi", False, ValidationError),
                            (self.D_phi, "D_phi", False, ValidationError)])
        freeze(self, ("phi_d",), n, as_vector)

    @property
    def n(self) -> int:
        return self.K_phi.shape[0]


def _reference_q(model: NonlinearRobotModel, q_ref=None) -> np.ndarray:
    """The configuration ``q_ref`` as a length-n vector, zero by default."""
    return np.zeros(model.n) if q_ref is None else as_vector(q_ref, model.n, "q_ref")


def synthesize_gains(m: RobotModel, J_e, K_e, q_ref=None):
    """Controller gains realizing the shaping (J_e, K_e).

    Parameters
    ----------
    m : LinearRobotParams or NonlinearRobotModel
        Plant; for a configuration-dependent mass matrix the gains are
        evaluated at ``q_ref`` (default: the zero configuration).
    J_e, K_e : array_like
        Desired shaped inertia and stiffness, symmetric positive definite.

    Returns
    -------
    (ImpedanceGains, ShapedParams)
        The gain triple and the validated shaped parameters, including
        ``D_e = D K^-1 K_e``.

    Raises
    ------
    ShapingInfeasibleError
        If D_e fails to be symmetric positive semidefinite, or J_e / K_e
        are not admissible; ``matrix_name`` names the matrix.
    """
    model = as_model(m)
    n = model.n
    J_e = as_matrix(J_e, n, "J_e")
    K_e = as_matrix(K_e, n, "K_e")
    shaped = ShapedParams(J_e, K_e, model.D @ solve(model.K, K_e, "K"))
    return gains_at(model, shaped, q_ref), shaped


def gains_at(m: RobotModel, sp: ShapedParams, q) -> ImpedanceGains:
    """Gains consistent with the instantaneous mass matrix M(q): the
    ``ShapedLoop`` gains at M(q)^-1 and its K_H, with ``sp`` used as built.

    On a constant-mass plant this is independent of ``q`` and equals the
    ``synthesize_gains`` result; on a varying-mass plant the force-feedback
    gain follows the configuration, which is what makes the shaped closed
    loop exact along trajectories.
    """
    model = as_model(m, sp)
    loop = ShapedLoop(model, sp)
    K_F, K_G = loop.gains(model.inverse_mass(_reference_q(model, q)))
    return ImpedanceGains(K_F, K_G, loop.K_H)


def recover_shaped(m: RobotModel, K_F, K_G, q_ref=None) -> ShapedParams:
    """Shaped parameters (J_e, K_e, D_e) realized by the gain pair (K_F, K_G).

    Raises
    ------
    ParametrizationSingularError
        If ``K_F + K_G + I`` is singular.
    ShapingInfeasibleError
        If any recovered matrix fails its definiteness requirement; the
        offending matrix is named in the error.
    """
    model = as_model(m)
    n = model.n
    K_F = as_matrix(K_F, n, "K_F")
    K_G = as_matrix(K_G, n, "K_G")
    M = model.mass_of(_reference_q(model, q_ref))

    core = model.J - K_F @ M
    denom = K_F + K_G + np.eye(n)
    if abs(np.linalg.det(denom)) < 1e-12 * max(float(np.abs(denom).max()), 1.0) ** n:
        raise ParametrizationSingularError("K_F + K_G + I is singular")
    J_e = solve(denom, core, "K_F + K_G + I", ParametrizationSingularError)
    core_J = solve(model.J, core, "J")
    return ShapedParams(J_e, model.K @ core_J, model.D @ core_J)


def colgate_interval(m: RobotModel) -> tuple[float, float]:
    """Open interval of pure force-feedback gains K_F (with K_G = 0) that
    keep the single-joint closed loop passive: (-1, J/M)."""
    model = as_model(m)
    if model.n != 1:
        raise NotApplicableError(f"force-feedback interval is defined for n=1, got n={model.n}")
    M = float(model.mass_of(_reference_q(model))[0, 0])
    return (-1.0, float(model.J[0, 0]) / M)


def control_law(K_F, K_G, K_H, force, tau_a, tau_u) -> np.ndarray:
    """tau = K_F force - K_G tau_a + K_H tau_u for one state or each row,
    with ``force = tau_e - C(q, q') q' - grad V(q)``; ``K_F`` and ``K_G``
    may be stacks ``(..., n, n)`` that follow M(q)."""
    return matvec(K_F, force) - matvec(K_G, tau_a) + tau_u @ K_H.T


def _reference_control(x: OpenLoopState, tau_e, tau_u, g: ImpedanceGains, m: RobotModel,
                       coriolis: bool) -> np.ndarray:
    model = as_model(m, x, g)
    n = model.n
    tau_e = as_vector(tau_e, n, "tau_e")
    tau_u = as_vector(tau_u, n, "tau_u")
    t = model.chart_terms(x.q, x.theta, x.p, x.s, model.Jinv, model.K, model.D)
    force = tau_e - t.coriolis - t.grad_v if coriolis else tau_e - t.grad_v
    return control_law(g.K_F, g.K_G, g.K_H, force, t.tau_a, tau_u)


def linear_control(x: OpenLoopState, tau_e, tau_u, g: ImpedanceGains, m: RobotModel) -> np.ndarray:
    """Constant-mass control law tau = K_F tau_e - K_G tau_a - K_F grad V + K_H tau_u."""
    return _reference_control(x, tau_e, tau_u, g, m, coriolis=False)


def nonlinear_control(x: OpenLoopState, tau_e, tau_u, g: ImpedanceGains,
                      m: RobotModel) -> np.ndarray:
    """Varying-mass control law; adds Coriolis compensation -K_F C(q, q') q'.

    Reduces exactly to ``linear_control`` when the mass matrix is constant.
    For exact shaping on a varying-mass plant, pass gains consistent with
    the instantaneous configuration (see ``gains_at``).
    """
    return _reference_control(x, tau_e, tau_u, g, m, coriolis=True)


def outer_loop_torque(phi, phi_dot, o: OuterLoop, m: RobotModel) -> np.ndarray:
    """Outer-loop torque; gbar(phi) is the model gravity gradient at phi
    when gravity compensation is enabled, zero otherwise."""
    model = as_model(m, o)
    n = model.n
    phi = as_vector(phi, n, "phi")
    phi_dot = as_vector(phi_dot, n, "phi_dot")
    return outer_law(phi, phi_dot, o, model)


def outer_law(phi, phi_dot, o: OuterLoop, model: NonlinearRobotModel) -> np.ndarray:
    """Outer-loop torque of one state or of each row, without validation."""
    tau_u = -(phi - o.phi_d) @ o.K_phi.T - phi_dot @ o.D_phi.T
    if o.gravity_comp:
        tau_u = tau_u + model.gravity_grad_of(phi)
    return tau_u


def gain_consistency_error(g: ImpedanceGains) -> float:
    """Max-norm deviation of K_H - K_G - K_F from the identity."""
    return float(np.abs(g.K_H - g.K_G - g.K_F - np.eye(g.n)).max())


def check_gain_consistency(g: ImpedanceGains, sp: ShapedParams, m: RobotModel) -> None:
    """Verify that a gain triple matches the shaped parametrization.

    Checks the identity K_H - K_G - K_F = I and K_H = J K^-1 K_e J_e^-1,
    both independent of the configuration, to 1e-8 of max(||K_H||_max, 1).
    """
    ShapedLoop(as_model(m, g, sp), sp, g)
