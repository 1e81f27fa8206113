"""Flexible-joint robot models.

A flexible joint couples each motor to its link through an elastic
transmission: motor inertia ``J`` drives the link through joint stiffness
``K`` and joint damping ``D``, so actuation and external forces act on
different coordinates.  This module holds the constant-mass parameter set,
the configuration-dependent model, the momentum-space state container, and
evaluators for the total energy and the open-loop vector field

    q'     = M(q)^-1 p
    theta' = J^-1 s
    p'     = -grad V(q) + K (theta - q) + D (J^-1 s - M^-1 p)
             - 1/2 grad_q (p^T M(q)^-1 p) + tau_e
    s'     = -K (theta - q) - D (J^-1 s - M^-1 p) + tau

with link momenta ``p = M(q) q'`` and motor momenta ``s = J theta'``.
For a constant mass matrix the quadratic gradient term vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateModelError, NotApplicableError, ValidationError
from .linalg import (
    PSD,
    SPD,
    VECTOR,
    as_matrix,
    as_vector,
    freeze,
    matvec,
    quad_form,
    read_only,
    require_joints,
    solve,
)


@dataclass(frozen=True)
class LinearRobotParams:
    """Constant-mass flexible-joint plant.

    Parameters
    ----------
    n : int
        Joint count.
    M : array_like
        Link mass matrix, (n, n) symmetric positive definite.  Scalars and
        diagonal vectors are broadcast.
    J : array_like
        Motor inertia matrix, symmetric positive definite.
    K : array_like
        Joint stiffness matrix, symmetric positive definite.
    D : array_like
        Joint damping matrix, symmetric positive semidefinite.
    """

    n: int
    M: np.ndarray
    J: np.ndarray
    K: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        freeze(self, {"M": SPD, "J": SPD, "K": SPD, "D": PSD}, "n")

    @cached_property
    def _model(self) -> "NonlinearRobotModel":
        return NonlinearRobotModel.from_linear(self)


class ChartTerms(NamedTuple):
    """Field terms at a chart state (q, a, p, b), with ``a`` the motor-side
    coordinate and ``b`` its momentum; one state or each row of a batch."""

    Minv: np.ndarray            # M(q)^-1
    qdot: np.ndarray            # M(q)^-1 p
    coriolis: np.ndarray        # C(q, q') q'
    kinetic_grad: np.ndarray    # (1/2) d/dq [p^T M(q)^-1 p]
    adot: np.ndarray            # motor inertia^-1 b
    tau_a: np.ndarray           # transmission torque K (a - q) + D (a' - q')
    grad_v: np.ndarray          # grad V(q)

    def rates(self, tau_e, tau_motor):
        """Momentum rates (p', b') under link torque tau_e and motor torque tau_motor."""
        return tau_e - self.grad_v - self.kinetic_grad + self.tau_a, tau_motor - self.tau_a


def chart_energy(q, a, p, b, qdot, adot, K):
    """1/2 (p.q' + b.a' + (a - q)^T K (a - q)), one state or each row: with
    (theta, s, K) the plant energy, with (phi, z, K_e) the shaped storage,
    both without the gravity potential."""
    return 0.5 * (np.vecdot(p, qdot) + np.vecdot(b, adot) + quad_form(a - q, K))


def _no_potential(q):
    return np.zeros(np.shape(q)[:-1])


def _no_gravity(q):
    return np.zeros(np.shape(q))


def _constant_mass(M, q):
    lead = np.shape(q)[:-1]
    return np.broadcast_to(M, lead + M.shape) if lead else M


def _no_dmass(n, q):
    return np.zeros(np.shape(q)[:-1] + (n, n, n))


def _invert_mass(M: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(M)
    except np.linalg.LinAlgError as exc:
        raise DegenerateModelError(f"mass matrix is singular: {exc}") from None


@dataclass(frozen=True)
class NonlinearRobotModel:
    """Flexible-joint plant with configuration-dependent link dynamics.

    ``mass_of(q)`` returns the (n, n) link mass matrix, ``dmass_of(q)`` its
    configuration gradient stacked as (n, n, n) with ``dmass_of(q)[i]``
    equal to the partial derivative with respect to ``q[i]``.
    ``potential_of(q)`` is the gravity potential and ``gravity_grad_of(q)``
    its gradient.  The Coriolis matrix is derived from ``dmass_of`` through
    the Christoffel symbols, which makes ``Mdot - 2 C`` skew-symmetric.
    The inverses ``Jinv``, ``JKinv`` and, with ``constant_mass``, ``Minv``
    are computed once, on first use, and are read-only.

    All four callables must accept a batch of configurations ``(..., n)``
    and return the matching stack: ``(..., n, n)``, ``(..., n, n, n)``,
    ``(...)`` and ``(..., n)``.  The simulators evaluate them on single
    states and on whole sample matrices.
    """

    n: int
    mass_of: Callable[[np.ndarray], np.ndarray]
    dmass_of: Callable[[np.ndarray], np.ndarray]
    potential_of: Callable[[np.ndarray], float]
    gravity_grad_of: Callable[[np.ndarray], np.ndarray]
    J: np.ndarray
    K: np.ndarray
    D: np.ndarray
    constant_mass: bool = False

    def __post_init__(self):
        freeze(self, {"J": SPD, "K": SPD, "D": PSD}, "n")

    @cached_property
    def Jinv(self) -> np.ndarray:
        """J^-1."""
        return read_only(np.linalg.inv(self.J))

    @cached_property
    def JKinv(self) -> np.ndarray:
        """J K^-1, the left factor of the force-feedback and input gains."""
        return read_only(self.J @ np.linalg.inv(self.K))

    @cached_property
    def Minv(self) -> np.ndarray:
        """M^-1 of a constant-mass model; ``DegenerateModelError`` when M is
        singular, ``NotApplicableError`` when the mass varies."""
        if not self.constant_mass:
            raise NotApplicableError("M^-1 is a constant only for a constant-mass model")
        return read_only(_invert_mass(self.mass_of(np.zeros(self.n))))

    def inverse_mass(self, q: np.ndarray) -> np.ndarray:
        """M(q)^-1 of one configuration or of each row of ``(..., n)``; on a
        constant-mass model ``Minv`` or a read-only stack view of it."""
        if self.constant_mass:
            lead = np.shape(q)[:-1]
            return np.broadcast_to(self.Minv, lead + self.Minv.shape) if lead else self.Minv
        return _invert_mass(self.mass_of(q))

    @classmethod
    def from_linear(cls, params: LinearRobotParams,
                    potential_of=None, gravity_grad_of=None) -> "NonlinearRobotModel":
        """Wrap a constant-mass plant, optionally with a gravity potential."""
        n = params.n
        M = params.M
        if (potential_of is None) != (gravity_grad_of is None):
            raise ValidationError("provide both potential_of and gravity_grad_of, or neither")
        return cls(
            n=n,
            mass_of=partial(_constant_mass, M),
            dmass_of=partial(_no_dmass, n),
            potential_of=potential_of if potential_of is not None else _no_potential,
            gravity_grad_of=gravity_grad_of if gravity_grad_of is not None else _no_gravity,
            J=params.J,
            K=params.K,
            D=params.D,
            constant_mass=True,
        )

    def coriolis_of(self, q: np.ndarray, qdot: np.ndarray) -> np.ndarray:
        """Coriolis matrix from the Christoffel symbols of ``mass_of``; one
        state, or a stack for each row of ``(..., n)`` arrays."""
        if self.constant_mass:
            return np.zeros(np.shape(qdot) + (self.n,))
        dM = self.dmass_of(q)
        t1 = np.einsum("...ikj,...i->...kj", dM, qdot)
        t2 = np.einsum("...jki,...i->...kj", dM, qdot)
        t3 = np.einsum("...kij,...i->...kj", dM, qdot)
        return 0.5 * (t1 + t2 - t3)

    def kinetic_grad(self, q: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Gradient (1/2) d/dq [p^T M(q)^-1 p], zero for constant mass; one
        state or each row of ``(..., n)`` arrays."""
        return self.link_terms(q, p)[3]

    def link_terms(self, q: np.ndarray, p: np.ndarray) -> tuple:
        """(M(q)^-1, q', C(q, q') q', kinetic gradient) from ``inverse_mass``
        and one ``dmass_of`` call; one state or each row."""
        Minv = self.inverse_mass(q)
        qdot = matvec(Minv, p)
        if self.constant_mass:
            zero = np.zeros_like(qdot)
            return Minv, qdot, zero, zero
        dM = self.dmass_of(q)
        kinetic_grad = -0.5 * np.einsum("...i,...kij,...j->...k", qdot, dM, qdot)
        # C(q, q') q' = Mdot q' - 1/2 d/dq (q'^T M(q) q'): the Christoffel
        # matrix of coriolis_of applied to q', without forming it
        coriolis = np.einsum("...i,...ikj,...j->...k", qdot, dM, qdot) + kinetic_grad
        return Minv, qdot, coriolis, kinetic_grad

    def chart_terms(self, q, a, p, b, Jinv, K, D) -> ChartTerms:
        """Field terms at (q, a, p, b) with motor inertia ``Jinv^-1`` and
        joint stiffness and damping (K, D): the plant chart with (J, K, D),
        the shaped chart with (J_e, K_e, D_e).  One state or each row."""
        Minv, qdot, coriolis, kinetic_grad = self.link_terms(q, p)
        adot = b @ Jinv.T
        tau_a = (a - q) @ K.T + (adot - qdot) @ D.T
        return ChartTerms(Minv, qdot, coriolis, kinetic_grad, adot, tau_a, self.gravity_grad_of(q))


RobotModel = LinearRobotParams | NonlinearRobotModel


def as_model(m: RobotModel, *parts) -> NonlinearRobotModel:
    """Promote plant parameters to the general model form, built once per
    parameter set.  Each part that is not None (a state, shaping, gain set,
    outer loop or environment) must have the plant's joint count, else
    ``ValidationError`` names it."""
    model = m if isinstance(m, NonlinearRobotModel) else m._model
    require_joints(model.n, parts)
    return model


class ChartState:
    """Base of the chart states: four read-only length-n vectors, the link
    position ``q``, a motor coordinate, and their momenta; ``n`` is the joint count."""

    def __post_init__(self):
        freeze(self, {field.name: VECTOR for field in fields(self)})

    def pack(self) -> np.ndarray:
        return np.concatenate([getattr(self, field.name) for field in fields(self)])

    @classmethod
    def unpack(cls, vec: np.ndarray, n: int):
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (4 * n,):
            raise ValidationError(f"state vector: expected shape ({4 * n},), got {vec.shape}")
        return cls(vec[:n], vec[n:2 * n], vec[2 * n:3 * n], vec[3 * n:])


@dataclass(frozen=True)
class OpenLoopState(ChartState):
    """Plant state (q, theta, p, s) in link/motor positions and momenta."""

    q: np.ndarray
    theta: np.ndarray
    p: np.ndarray
    s: np.ndarray

    @classmethod
    def zero(cls, n: int) -> "OpenLoopState":
        return cls.unpack(np.zeros(4 * n), n)

    @classmethod
    def from_velocities(cls, q, theta, qdot, thetadot, m: RobotModel) -> "OpenLoopState":
        """Build the momentum state from velocities (p = M(q) q', s = J theta')."""
        model = as_model(m)
        q = as_vector(q, model.n, "q")
        return cls(q, theta, model.mass_of(q) @ as_vector(qdot, model.n, "qdot"),
                   model.J @ as_vector(thetadot, model.n, "thetadot"))


def open_loop_energy(x: OpenLoopState, m: RobotModel) -> float:
    """Total energy of the open-loop plant at state ``x``.

    Kinetic terms in both momenta, elastic energy of the joint deflection,
    plus the gravity potential.
    """
    model = as_model(m, x)
    qdot = solve(model.mass_of(x.q), x.p, "mass matrix", DegenerateModelError)
    thdot = solve(model.J, x.s, "J", DegenerateModelError)
    return float(chart_energy(x.q, x.theta, x.p, x.s, qdot, thdot, model.K)
                 + model.potential_of(x.q))


def open_loop_field(x: OpenLoopState, tau_e, tau, m: RobotModel) -> OpenLoopState:
    """Open-loop vector field; the returned container holds time derivatives."""
    model = as_model(m, x)
    n = model.n
    tau_e = as_vector(tau_e, n, "tau_e")
    tau = as_vector(tau, n, "tau")
    terms = model.chart_terms(x.q, x.theta, x.p, x.s, model.Jinv, model.K, model.D)
    return OpenLoopState(terms.qdot, terms.adot, *terms.rates(tau_e, tau))


def two_link_arm(link_lengths, link_masses, motor_inertias, joint_stiffness,
                 joint_damping, gravity: bool = False) -> NonlinearRobotModel:
    """Planar two-link arm with elastic joints.

    The link dynamics use the standard planar form: with shorthand
    ``b = m2 l1 lc2`` and ``c2 = cos(q2)``,

        M11 = m1 lc1^2 + m2 (l1^2 + lc2^2) + I1 + I2 + 2 b c2
        M12 = m2 lc2^2 + I2 + b c2
        M22 = m2 lc2^2 + I2

    The links are uniform rods: centers of mass at mid-link and link
    inertias ``m l^2 / 12``.  With ``gravity`` off the arm moves in a
    horizontal plane and the potential is identically zero.

    Parameters
    ----------
    link_lengths, link_masses : sequence of 2 floats
        Geometry and inertia of the two links (m, kg).
    motor_inertias : sequence of 2 floats
        Rotor inertias reflected to the joint axes (kg m^2).
    joint_stiffness, joint_damping : array_like
        Transmission stiffness (SPD) and damping (PSD), scalar, per-joint,
        or full 2 x 2.
    gravity : bool
        Include gravity, ``g = 9.81`` m/s^2, acting along -y of the link plane.
    """
    l1, l2 = as_vector(link_lengths, 2, "link_lengths").tolist()
    m1, m2 = as_vector(link_masses, 2, "link_masses").tolist()
    if min(l1, l2, m1, m2) <= 0.0:
        raise ValidationError("link lengths and masses must be positive")
    lc1, lc2 = 0.5 * l1, 0.5 * l2

    Jm = as_matrix(motor_inertias, 2, "motor_inertias")
    if np.any(np.diag(Jm) <= 0.0):
        raise ValidationError("motor inertias must be positive")

    try:        # a float ** raises on overflow, where a float * gives inf
        I1, I2 = m1 * l1 ** 2 / 12.0, m2 * l2 ** 2 / 12.0
        a = I1 + I2 + m1 * lc1 ** 2 + m2 * (l1 ** 2 + lc2 ** 2)
        b = m2 * l1 * lc2
        d = I2 + m2 * lc2 ** 2
        g1, g2 = (m1 * lc1 + m2 * l1) * 9.81, m2 * lc2 * 9.81
        finite = np.isfinite([a, b, d, g1, g2]).all()
    except OverflowError:
        finite = False
    if not finite:
        raise ValidationError(f"link_lengths {[l1, l2]} and link_masses {[m1, m2]} give "
                              "link inertias or gravity torques that overflow float64")
    # M(q) = M0 + cos(q2) M1 and dM/dq2 = -sin(q2) M1
    M0 = np.array([[a, d], [d, d]])
    M1 = np.array([[2.0 * b, b], [b, 0.0]])
    dM1 = np.stack([np.zeros((2, 2)), -M1])

    def mass_of(q):
        return M0 + np.cos(q[..., 1])[..., None, None] * M1

    def dmass_of(q):
        return np.sin(q[..., 1])[..., None, None, None] * dM1

    if gravity:
        def potential_of(q):
            return g1 * np.sin(q[..., 0]) + g2 * np.sin(q[..., 0] + q[..., 1])

        def gravity_grad_of(q):
            c12 = np.cos(q[..., 0] + q[..., 1])
            out = np.empty(c12.shape + (2,))
            out[..., 0] = g1 * np.cos(q[..., 0]) + g2 * c12
            out[..., 1] = g2 * c12
            return out
    else:
        potential_of, gravity_grad_of = _no_potential, _no_gravity

    return NonlinearRobotModel(
        n=2,
        mass_of=mass_of,
        dmass_of=dmass_of,
        potential_of=potential_of,
        gravity_grad_of=gravity_grad_of,
        J=Jm,
        K=as_matrix(joint_stiffness, 2, "joint_stiffness"),
        D=as_matrix(joint_damping, 2, "joint_damping"),
    )
