"""Coordinate change between the plant chart and the shaped chart.

The controller of this package turns the plant state (q, theta, p, s) into
a shaped mechanical system in coordinates (q, phi, p, z):

    phi = K_e^-1 (K_e - K) q + K_e^-1 K theta
    z   = J_e K_e^-1 (K_e - K) M(q)^-1 p + J_e K_e^-1 K J^-1 s

with closed-loop energy

    H = 1/2 p^T M(q)^-1 p + 1/2 z^T J_e^-1 z
        + 1/2 (phi - q)^T K_e (phi - q) + V(q)

and closed-loop dynamics of the same structure as the plant, with
(J_e, K_e, D_e) in place of (J, K, D).  ``equivalence_residual`` checks
numerically, state by state, that the controlled plant pushed through this
transform reproduces the shaped dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import ImpedanceGains, ShapedLoop, ShapedParams, control_law
from .errors import DegenerateModelError, TransformSingularError, ValidationError
from .linalg import as_vector, matvec, solve
from .model import (
    ChartState,
    OpenLoopState,
    RobotModel,
    as_model,
    chart_energy,
)

# Absolute floor applied when normalizing residuals near equilibria.
RESIDUAL_FLOOR = 1e-12


@dataclass(frozen=True)
class ClosedLoopState(ChartState):
    """Shaped state (q, phi, p, z): link coordinates pass through unchanged."""

    q: np.ndarray
    phi: np.ndarray
    p: np.ndarray
    z: np.ndarray


def switch_chart(q, a, qdot, adot, S):
    """Motor coordinate and velocity of the other chart, ``q + S (a - q)``
    and ``q' + S (a' - q')``, of one state or each row.  ``S = K_e^-1 K``
    maps theta to phi, ``S = K^-1 K_e`` back: K_e (phi - q) = K (theta - q).
    """
    return q + (a - q) @ S.T, qdot + (adot - qdot) @ S.T


def _chart_map(xv: np.ndarray, loop: ShapedLoop) -> np.ndarray:
    """The plant-to-shaped map of packed states ``(..., 4n) -> (..., 4n)``,
    one batched solve with M(q) and one with J per call."""
    model = loop.model
    q, theta, p, s = (xv[..., k * model.n:(k + 1) * model.n] for k in range(4))
    qdot = solve(model.mass_of(q), p[..., None], "mass matrix", DegenerateModelError)[..., 0]
    thdot = solve(model.J, s[..., None], "J")[..., 0]
    phi, phidot = switch_chart(q, theta, qdot, thdot, loop.S)
    return np.concatenate([q, phi, p, matvec(loop.shaped.J_e, phidot)], axis=-1)


def to_closed(x: OpenLoopState, sp: ShapedParams, m: RobotModel) -> ClosedLoopState:
    """Map the plant state into the shaped chart; M(q) at the state's q.
    The array chart map on one state, as a validated ``ClosedLoopState``."""
    return ClosedLoopState.unpack(_chart_map(x.pack(), ShapedLoop(as_model(m, x, sp), sp)), x.n)


def from_closed(y: ClosedLoopState, sp: ShapedParams, m: RobotModel) -> OpenLoopState:
    """Exact inverse of ``to_closed``."""
    model = as_model(m, y, sp)
    qdot = solve(model.mass_of(y.q), y.p, "mass matrix", DegenerateModelError)
    phidot = solve(sp.J_e, y.z, "J_e", TransformSingularError)
    theta, thdot = switch_chart(y.q, y.phi, qdot, phidot, ShapedLoop(model, sp).Sinv)
    return OpenLoopState(y.q, theta, y.p, model.J @ thdot)


def closed_loop_energy(y: ClosedLoopState, sp: ShapedParams, m: RobotModel) -> float:
    """Shaped total energy; the storage function of the closed loop."""
    model = as_model(m, y, sp)
    qdot = solve(model.mass_of(y.q), y.p, "mass matrix", DegenerateModelError)
    phidot = solve(sp.J_e, y.z, "J_e", TransformSingularError)
    return float(chart_energy(y.q, y.phi, y.p, y.z, qdot, phidot, sp.K_e)
                 + model.potential_of(y.q))


def closed_loop_field(y: ClosedLoopState, tau_e, tau_u, sp: ShapedParams,
                      m: RobotModel) -> ClosedLoopState:
    """Shaped vector field; the returned container holds time derivatives.

    Same interconnection-plus-damping structure as the plant, acting on the
    gradient of ``closed_loop_energy``; for a varying mass matrix the
    kinetic gradient term enters the p equation.
    """
    model = as_model(m, y, sp)
    n = model.n
    tau_e = as_vector(tau_e, n, "tau_e")
    tau_u = as_vector(tau_u, n, "tau_u")
    terms = model.chart_terms(y.q, y.phi, y.p, y.z, sp.Jeinv, sp.K_e, sp.D_e)
    return ClosedLoopState(terms.qdot, terms.adot, *terms.rates(tau_e, tau_u))


def equivalence_residual(x: OpenLoopState, tau_e, tau_u, g: ImpedanceGains,
                         sp: ShapedParams, m: RobotModel) -> float:
    """Pointwise mismatch between the controlled plant and the shaped dynamics.

    Evaluates the plant field under the control law at ``x``, pushes it
    through the Jacobian of the coordinate change (a five-point directional
    stencil, exact for the constant-mass case where the transform is
    linear), and subtracts the shaped field at the transformed state.  The
    stencil maps its five points ``x + c h x'``, c = -2, ..., 2, in one
    batched call, and its middle point is the transformed state; it
    differentiates ``mass_of`` itself, so a ``dmass_of`` that disagrees
    with ``mass_of`` shows up in the residual.  The plant's field terms at
    ``x`` give both the control torque and the plant field; on a
    varying-mass plant K_F and K_G follow M(q) at ``x``, with g's own K_H.

    Returns
    -------
    float
        Max-norm residual relative to the shaped field magnitude, floored
        at ``RESIDUAL_FLOOR`` near equilibria.

    Raises
    ------
    ConfigurationError
        If the gain triple is inconsistent with the shaped parameters.
    ValidationError
        If the norm of the state or of the plant field overflows float64.
    """
    model = as_model(m, x, g, sp)
    n = model.n
    tau_e = as_vector(tau_e, n, "tau_e")
    tau_u = as_vector(tau_u, n, "tau_u")
    loop = ShapedLoop(model, sp, g)

    # on a constant-mass plant C = 0, so this is linear_control with g
    K_F, K_G = (g.K_F, g.K_G) if model.constant_mass else loop.gains(model.inverse_mass(x.q))
    t = model.chart_terms(x.q, x.theta, x.p, x.s, model.Jinv, model.K, model.D)
    tau = control_law(K_F, K_G, g.K_H, tau_e - t.coriolis - t.grad_v, t.tau_a, tau_u)
    xv = x.pack()
    dx = np.concatenate([t.qdot, t.adot, *t.rates(tau_e, tau)])
    # directional derivative of the transform along the flow
    with np.errstate(over="ignore"):
        h = 1e-3 * max(float(np.linalg.norm(xv)), 1.0) / max(float(np.linalg.norm(dx)), 1e-9)
    if not 0.0 < h < np.inf:
        raise ValidationError("equivalence residual: the plant state or field overflows "
                              "float64; rescale the plant")
    y = _chart_map(xv + np.arange(-2.0, 3.0)[:, None] * h * dx, loop)
    dy_pushed = (y[0] - 8.0 * y[1] + 8.0 * y[3] - y[4]) / (12.0 * h)
    q, phi, p, z = (y[2, k * n:(k + 1) * n] for k in range(4))
    ts = model.chart_terms(q, phi, p, z, sp.Jeinv, sp.K_e, sp.D_e)
    dy_shaped = np.concatenate([ts.qdot, ts.adot, *ts.rates(tau_e, tau_u)])
    scale = max(float(np.abs(dy_shaped).max()), RESIDUAL_FLOOR)
    return float(np.abs(dy_pushed - dy_shaped).max()) / scale
