"""Time-domain simulation with energy and passivity accounting.

Scenarios integrate with classical fixed-step RK4.  On constant-mass
plants every chart is linear, and one RK4 step is applied as its exact
step matrix, which gives the same numbers as four field evaluations up to
rounding.  The supplied power ``qdot . tau_e + phidot . tau_u`` is
integrated with the same RK4 stages as the state so that the dissipation
inequality

    H(t) - H(0) - integral of supply  <=  0

can be audited at integration-order accuracy; ``H`` is the shaped storage
when a controller is active, the plant energy otherwise, and the total
stored energy (including the environment and the outer-loop spring) for
coupled runs.

The step size is capped at 1 / (20 w_max), where w_max is the largest
undamped natural frequency of the elastic stiffness/mass pencils involved
in the scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import (
    ImpedanceGains,
    OuterLoop,
    ShapedParams,
    check_gain_consistency,
    configuration_gains,
    control_law,
    outer_law,
    recover_shaped,
    synthesize_gains,
)
from .errors import DivergenceError, ValidationError
from .linalg import as_matrix, as_vector, pencil_max_frequency, quad_form
from .lti import (
    EnvironmentImpedance,
    assemble_closed_loop,
    assemble_coupled,
    assemble_plant_loop,
)
from .model import (
    LinearRobotParams,
    NonlinearRobotModel,
    OpenLoopState,
    RobotModel,
    as_model,
    chart_energy,
)
from .transform import switch_chart, to_closed

STABILITY_MARGIN = 20.0


@dataclass(frozen=True)
class InputSignal:
    """External torque profile applied at one joint."""

    kind: str = "zero"              # zero | step | sinusoid
    amplitude: float = 0.0
    joint: int = 0                  # 0-based joint index
    start: float = 0.0              # step onset [s]
    frequency: float = 0.0          # sinusoid angular frequency [rad/s]

    def __post_init__(self):
        if self.kind not in ("zero", "step", "sinusoid"):
            raise ValidationError(f"unknown input kind {self.kind!r}")
        if self.joint < 0:
            raise ValidationError("joint index must be nonnegative")

    @classmethod
    def zero(cls) -> "InputSignal":
        return cls()

    @classmethod
    def step(cls, amplitude: float, joint: int = 0, start: float = 0.0) -> "InputSignal":
        return cls("step", float(amplitude), joint, float(start))

    @classmethod
    def sinusoid(cls, amplitude: float, frequency: float, joint: int = 0) -> "InputSignal":
        return cls("sinusoid", float(amplitude), joint, 0.0, float(frequency))

    def scalar(self, t: float) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "step":
            return self.amplitude if t >= self.start else 0.0
        return self.amplitude * math.sin(self.frequency * t)

    def torque(self, t: float, n: int) -> np.ndarray:
        out = np.zeros(n)
        if self.kind != "zero":
            out[self.joint] = self.scalar(t)
        return out

    def torque_series(self, times: np.ndarray, n: int) -> np.ndarray:
        out = np.zeros((times.shape[0], n))
        if self.kind == "step":
            out[times >= self.start, self.joint] = self.amplitude
        elif self.kind == "sinusoid":
            out[:, self.joint] = self.amplitude * np.sin(self.frequency * times)
        return out


@dataclass(frozen=True)
class Scenario:
    """Simulation configuration.

    ``controller`` accepts either parametrization (gains or shaped
    parameters) or ``None`` for the bare plant.  ``dt=None`` picks a
    deterministic default below the stability cap.
    """

    plant: RobotModel
    controller: ImpedanceGains | ShapedParams | None = None
    outer: OuterLoop | None = None
    environment: EnvironmentImpedance | None = None
    input: InputSignal = InputSignal()
    T: float = 1.0
    dt: float | None = None
    x0: OpenLoopState | None = None

    def __post_init__(self):
        if self.T <= 0.0:
            raise ValidationError("horizon T must be positive")


@dataclass
class SimResult:
    """Trajectory plus controller and energy accounting series.

    Series not defined for a chart are ``None`` (the bare plant has no
    shaped coordinates; coupled runs have no motor state).  The passivity
    residual is ``H - H[0] - supply``, nonpositive up to integration error
    whenever the scenario is passive.
    """

    t: np.ndarray
    q: np.ndarray
    p: np.ndarray
    theta: np.ndarray | None
    s: np.ndarray | None
    phi: np.ndarray | None
    z: np.ndarray | None
    tau: np.ndarray | None
    tau_e: np.ndarray
    tau_u: np.ndarray | None
    H: np.ndarray
    supply: np.ndarray
    chart: str
    dt: float

    @property
    def passivity_residual(self) -> np.ndarray:
        return self.H - self.H[0] - self.supply


@dataclass(frozen=True)
class TargetResult:
    """Reference trajectory of the tracking target dynamics."""

    t: np.ndarray
    q: np.ndarray
    qdot: np.ndarray


def integrate(field, x0, dt: float, T: float, t0: float = 0.0):
    """Classical fixed-step RK4 over [t0, t0 + T].

    ``field(t, x)`` returns the state derivative.  The horizon is rounded
    to a whole number of steps.  Returns ``(t, X)`` with states in rows.

    Raises
    ------
    DivergenceError
        When the state becomes non-finite, reporting the offending time.
    """
    x0 = np.asarray(x0, dtype=float)
    if dt <= 0.0:
        raise ValidationError("dt must be positive")
    if T < dt:
        raise ValidationError("horizon T must be at least one step")
    nsteps = int(round(T / dt))
    out = np.empty((nsteps + 1, x0.shape[0]))
    out[0] = x0
    x = x0.copy()
    sixth = dt / 6.0
    half = 0.5 * dt
    for k in range(nsteps):
        t = t0 + k * dt
        k1 = field(t, x)
        k2 = field(t + half, x + half * k1)
        k3 = field(t + half, x + half * k2)
        k4 = field(t + dt, x + dt * k3)
        x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if not np.all(np.isfinite(x)):
            raise _divergence(t0 + (k + 1) * dt)
        out[k + 1] = x
    return t0 + dt * np.arange(nsteps + 1), out


def _divergence(time: float) -> DivergenceError:
    return DivergenceError(f"state became non-finite at t={time:.6g} s", time=time)


@dataclass(frozen=True)
class _Resolved:
    model: NonlinearRobotModel
    n: int
    x0: OpenLoopState
    shaped: ShapedParams            # (J, K, D) for the bare plant
    gains: ImpedanceGains           # K_F = K_G = 0, K_H = I for the bare plant
    dt: float


def _resolve(sc: Scenario, need_controller: bool = False) -> _Resolved:
    model = as_model(sc.plant)
    n = model.n
    x0 = sc.x0 if sc.x0 is not None else OpenLoopState.zero(n)
    if x0.n != n:
        raise ValidationError(f"initial state is {x0.n}-joint, plant is {n}-joint")
    if sc.input.kind != "zero" and sc.input.joint >= n:
        raise ValidationError(f"input joint {sc.input.joint} out of range for n={n}")

    if sc.controller is None:
        if need_controller:
            raise ValidationError("this simulation requires a controller")
        # the bare plant is the identity shaping, whose control torque is zero
        gains = ImpedanceGains(np.zeros((n, n)), np.zeros((n, n)), np.eye(n))
        shaped = ShapedParams(model.J, model.K, model.D)
    elif isinstance(sc.controller, ShapedParams):
        shaped = sc.controller
        gains, _ = synthesize_gains(model, shaped.J_e, shaped.K_e, q_ref=x0.q)
    elif isinstance(sc.controller, ImpedanceGains):
        gains = sc.controller
        shaped = recover_shaped(model, gains.K_F, gains.K_G, q_ref=x0.q)
        check_gain_consistency(gains, shaped, model)
    else:
        raise ValidationError(f"unsupported controller type {type(sc.controller).__name__}")
    if shaped.n != n:
        raise ValidationError(f"controller is {shaped.n}-joint, plant is {n}-joint")
    if sc.outer is not None:
        if sc.controller is None:
            raise ValidationError("an outer loop requires a controller")
        if sc.outer.n != n:
            raise ValidationError(f"outer loop is {sc.outer.n}-joint, plant is {n}-joint")
    if sc.environment is not None and sc.environment.n != n:
        raise ValidationError(f"environment is {sc.environment.n}-joint, plant is {n}-joint")

    cap = _dt_cap(model, x0.q, shaped if sc.controller is not None else None, sc)
    dt = sc.dt if sc.dt is not None else _default_dt(cap)
    if dt <= 0.0:
        raise ValidationError("dt must be positive")
    if dt > cap * (1.0 + 1e-9):
        raise ValidationError(
            f"dt={dt:g} exceeds the stability cap {cap:.3g} s "
            f"(margin {STABILITY_MARGIN:g} over the fastest elastic mode)")
    if sc.T < dt:
        raise ValidationError("horizon T must be at least one step")
    return _Resolved(model, n, x0, shaped, gains, dt)


def _default_dt(cap: float) -> float:
    if not np.isfinite(cap):
        return 1e-3
    x = 0.5 * cap
    exp = math.floor(math.log10(x)) - 1
    scale = 10.0 ** exp
    return math.floor(x / scale) * scale


def stability_dt_cap(sc: Scenario) -> float:
    """Largest admissible step, 1/(20 w_max) over the scenario's pencils."""
    model = as_model(sc.plant)
    q0 = sc.x0.q if sc.x0 is not None else np.zeros(model.n)
    shaped = sc.controller
    if isinstance(shaped, ImpedanceGains):
        shaped = recover_shaped(model, shaped.K_F, shaped.K_G, q_ref=q0)
    return _dt_cap(model, q0, shaped, sc)


def _dt_cap(model: NonlinearRobotModel, q0: np.ndarray, shaped: ShapedParams | None,
            sc: Scenario) -> float:
    n = model.n
    Mq = model.mass_of(q0)
    Z = np.zeros((n, n))
    wmax = 0.0

    def pencil(mass_blocks, stiff):
        mass = np.block([[mass_blocks[0], Z], [Z, mass_blocks[1]]])
        return pencil_max_frequency(stiff, mass)

    stiff_open = np.block([[model.K, -model.K], [-model.K, model.K]])
    wmax = max(wmax, pencil((Mq, model.J), stiff_open))

    if shaped is not None:
        Kq = shaped.K_e + (sc.environment.K_h if sc.environment is not None else Z)
        Kp = shaped.K_e + (sc.outer.K_phi if sc.outer is not None else Z)
        Mlink = Mq + (sc.environment.M_h if sc.environment is not None else Z)
        stiff_shaped = np.block([[Kq, -shaped.K_e], [-shaped.K_e, Kp]])
        wmax = max(wmax, pencil((Mlink, shaped.J_e), stiff_shaped))

    return float("inf") if wmax == 0.0 else 1.0 / (STABILITY_MARGIN * wmax)


# ---------------------------------------------------------------------------
# simulators
# ---------------------------------------------------------------------------

def simulate_plant_with_controller(sc: Scenario) -> SimResult:
    """Integrate the plant under the impedance control law.

    The control torque is evaluated at every integrator stage; on
    varying-mass plants the force-feedback gain follows the instantaneous
    mass matrix.  Runs the bare plant when ``controller`` is ``None``.
    """
    if sc.environment is not None:
        raise ValidationError("environment coupling is handled by simulate_coupled")
    return _simulate(sc, _resolve(sc), "open")


def simulate_closed_form(sc: Scenario) -> SimResult:
    """Integrate the shaped dynamics directly in (q, phi, p, z)."""
    if sc.environment is not None:
        raise ValidationError("environment coupling is handled by simulate_coupled")
    return _simulate(sc, _resolve(sc, need_controller=True), "closed")


def simulate_coupled(sc: Scenario) -> SimResult:
    """Integrate the shaped loop coupled to the environment.

    The environment mass is merged into the link mass block, which
    resolves the acceleration feedback without an algebraic loop.  The
    input signal, if any, acts as an extra external link torque on top of
    the environment reaction; the recorded ``tau_e`` is the total torque
    seen at the interaction port.  Constant-mass plants only.
    """
    if sc.environment is None:
        raise ValidationError("simulate_coupled requires an environment")
    if not isinstance(sc.plant, LinearRobotParams):
        raise ValidationError("environment coupling is implemented for constant-mass plants")
    return _simulate(sc, _resolve(sc, need_controller=True), "coupled")


def _simulate(sc: Scenario, r: _Resolved, chart: str) -> SimResult:
    linear = isinstance(sc.plant, LinearRobotParams)
    result = (_simulate_linear if linear else _simulate_varying)(sc, r, chart)
    if sc.controller is None:       # the bare plant has no shaped coordinates
        result.phi = result.z = result.tau_u = None
    return result


def _simulate_linear(sc: Scenario, r: _Resolved, chart: str) -> SimResult:
    """Any constant-mass chart as x' = A x + B u + c.

    ``(A, B)`` come from ``lti`` and the set-point constant c is added
    here.  Every series is an affine function of w = (x, u, 1), written
    once as a block of rows acting on w and evaluated on all samples; the
    supply rate is the quadratic form w . (Q w).  One RK4 step is the exact
    affine map x+ = P x + V[k], built once per run from the field x' = G w
    (the same numbers as four field evaluations, up to rounding), so the
    step loop is one matrix-vector product; the supply increments are one
    quadratic form of the stage states, summed afterwards.
    """
    plant, n, shaped, outer, env = sc.plant, r.n, r.shaped, sc.outer, sc.environment
    m, dim = 4 * n, 5 * n + 1

    def on_w(x_rows, u_rows=0.0, const=0.0):
        rows = np.zeros((x_rows.shape[0], dim))
        rows[:, :m] = x_rows
        rows[:, m:-1] = u_rows
        rows[:, -1] = const
        return rows

    loop = assemble_plant_loop(plant, r.gains, outer)
    # T maps the plant state (q, theta, p, s) to the shaped one (q, phi, p, z)
    T = np.eye(m)
    T[n:2 * n] = loop.C[n:2 * n]
    T[3 * n:] = shaped.J_e @ loop.C[2 * n:3 * n]
    set_point = outer.K_phi @ outer.phi_d if outer is not None else np.zeros(n)
    # S maps the chart state to the shaped state, X to the plant state
    if chart == "open":
        ss, S, X = loop, T, np.eye(m)
        c = loop.B[:, n:] @ set_point
    else:
        S = np.eye(m)
        if chart == "closed":
            ss = assemble_closed_loop(plant, shaped, outer)
        else:       # merged momentum (M + M_h) q' -> robot momentum M q'
            ss = assemble_coupled(plant, shaped, env, outer)
            S[2 * n:3 * n, 2 * n:3 * n] = plant.M @ np.linalg.inv(plant.M + env.M_h)
        c = np.concatenate([np.zeros(3 * n), set_point])
        X = np.linalg.solve(T, S)

    G = on_w(ss.A, ss.B[:, :n], c)                      # x' = G w
    u_w = on_w(np.zeros((n, m)), np.eye(n))
    set_point_w = on_w(np.zeros((n, m)), const=set_point)
    qdot_w = G[:n]
    phidot_w = S[n:2 * n] @ G
    tau_u_w = np.zeros((n, dim))
    if outer is not None:
        tau_u_w = set_point_w - outer.K_phi @ on_w(S[n:2 * n]) - outer.D_phi @ phidot_w
    if chart == "coupled":
        # port torque M q'' - tau_a, the transmission torque read off the
        # motor equation z' = -tau_a + tau_u; only the exogenous port power
        # enters the supply, the outer-loop spring is part of the storage
        tau_e_w = S[2 * n:3 * n] @ G + G[3 * n:] - tau_u_w
        Q = qdot_w.T @ u_w
    else:
        tau_e_w = u_w
        Q = qdot_w.T @ u_w + phidot_w.T @ tau_u_w
    tau_w = (loop.C[3 * n:] @ on_w(X) + loop.Dmat[3 * n:, :n] @ tau_e_w
             + loop.Dmat[3 * n:, n:] @ set_point_w)

    # one RK4 step acts on z = (x, u(t), u(t + h/2), u(t + h), 1): stage i
    # evaluates the field at w_i = W_i z, so x+ = P x + R e with e = z[m:]
    h, dz = r.dt, m + 3 * n + 1

    def on_z(x_rows, j):
        Wz = np.zeros((dim, dz))
        Wz[:m] = x_rows
        Wz[m:-1, m + j * n:m + (j + 1) * n] = np.eye(n)
        Wz[-1, -1] = 1.0
        return Wz

    ident = np.eye(m, dz)
    W1 = on_z(ident, 0)
    W2 = on_z(ident + 0.5 * h * G @ W1, 1)
    W3 = on_z(ident + 0.5 * h * G @ W2, 1)
    W4 = on_z(ident + h * G @ W3, 2)
    stages = (W1, W2, W3, W4)
    weights = (h / 6.0, h / 3.0, h / 3.0, h / 6.0)
    step = ident + sum(b * (G @ Wz) for b, Wz in zip(weights, stages))
    supply_form = sum(b * (Wz.T @ Q @ Wz) for b, Wz in zip(weights, stages))

    x0 = r.x0.pack() if chart == "open" else np.linalg.solve(S, T @ r.x0.pack())
    nsteps = int(round(sc.T / h))
    t = h * np.arange(nsteps + 1)
    signal = sc.input
    exo = np.hstack([signal.torque_series(t[:-1] + d, n) for d in (0.0, 0.5 * h, h)]
                    + [np.ones((nsteps, 1))])
    P, R = step[:, :m], step[:, m:]
    states = np.empty((nsteps + 1, m))
    states[0], states[1:] = x0, exo @ R.T           # row k + 1 starts as V[k]
    views = list(states)
    for x, x_next in zip(views, views[1:]):     # x+ = P x + V[k], in place
        x_next += np.dot(P, x)
    supply = np.append(0.0, np.cumsum(quad_form(np.hstack([states[:-1], exo]), supply_form)))
    # like integrate, flag the first non-finite state after the start
    diverged = ~(np.all(np.isfinite(states[1:]), axis=1) & np.isfinite(supply[1:]))
    if diverged.any():
        raise _divergence(float(t[1 + np.argmax(diverged)]))
    W = np.hstack([states, signal.torque_series(t, n), np.ones((t.shape[0], 1))])
    rows = np.vstack([on_w(S), on_w(X[n:2 * n]), on_w(X[3 * n:]),
                      qdot_w, phidot_w, tau_u_w, tau_e_w, tau_w])
    q, phi, p, z, theta, s, qdot, phidot, tau_u, tau_e, tau = np.split(W @ rows.T, 11, axis=1)
    H = chart_energy(q, phi, p, z, qdot, phidot, shaped.K_e)
    if chart == "coupled":
        theta = s = None
        H = H + 0.5 * (quad_form(qdot, env.M_h) + quad_form(q, env.K_h))
        if outer is not None:
            H = H + 0.5 * quad_form(phi - outer.phi_d, outer.K_phi)
    return SimResult(t, q, p, theta, s, phi, z, tau, tau_e, tau_u, H, supply,
                     chart=chart, dt=r.dt)


def _simulate_varying(sc: Scenario, r: _Resolved, chart: str) -> SimResult:
    """Either chart of a plant with a configuration-dependent mass matrix.

    The RK4 field evaluates the array functions of ``model``, ``control``
    and ``transform`` on one state per stage; the reconstruction evaluates
    them once on the whole sample matrix.
    """
    model, n, shaped, outer, signal = r.model, r.n, r.shaped, sc.outer, sc.input
    K, J_e, K_e = model.K, shaped.J_e, shaped.K_e
    Jinv, Jeinv = np.linalg.inv(model.J), np.linalg.inv(J_e)
    to_shaped, to_plant = np.linalg.solve(K_e, K), np.linalg.solve(K, K_e)
    K_H = r.gains.K_H
    gains_at_mass = configuration_gains(model, K_e, K_H)
    bare = sc.controller is None

    def split(x):
        return x[..., :n], x[..., n:2 * n], x[..., 2 * n:3 * n], x[..., 3 * n:4 * n]

    def outer_torque(phi, phidot):
        return outer_law(phi, phidot, outer, model) if outer is not None else np.zeros_like(phi)

    def plant_terms(q, theta, p, s, u):
        ct = model.chart_terms(q, theta, p, s, Jinv, K, model.D)
        if bare:        # the identity shaping: phi = theta, no control torque
            return ct, theta, ct.adot, np.zeros_like(u), np.zeros_like(u)
        phi, phidot = switch_chart(q, theta, ct.qdot, ct.adot, to_shaped)
        tau_u = outer_torque(phi, phidot)
        K_F, K_G = gains_at_mass(ct.Minv)
        tau = control_law(K_F, K_G, K_H, u - ct.coriolis - ct.grad_v, ct.tau_a, tau_u)
        return ct, phi, phidot, tau_u, tau

    def plant_field(time, xa):
        u = signal.torque(time, n)
        ct, _, phidot, tau_u, tau = plant_terms(*split(xa), u)
        dp, ds = ct.rates(u, tau)
        return np.concatenate([ct.qdot, ct.adot, dp, ds, [ct.qdot @ u + phidot @ tau_u]])

    def closed_field(time, ya):
        u = signal.torque(time, n)
        q, phi, p, z = split(ya)
        ct = model.chart_terms(q, phi, p, z, Jeinv, K_e, shaped.D_e)
        tau_u = outer_torque(phi, ct.adot)
        dp, dz = ct.rates(u, tau_u)
        return np.concatenate([ct.qdot, ct.adot, dp, dz, [ct.qdot @ u + ct.adot @ tau_u]])

    if chart == "open":
        field, x0 = plant_field, r.x0.pack()
    else:
        field, x0 = closed_field, to_closed(r.x0, shaped, model).pack()
    t, X = integrate(field, np.append(x0, 0.0), r.dt, sc.T)
    tau_e = signal.torque_series(t, n)
    q, a, p, b = split(X)
    if chart == "open":
        theta, s = a, b
    else:
        shaped_terms = model.chart_terms(q, a, p, b, Jeinv, K_e, shaped.D_e)
        theta, thdot = switch_chart(q, a, shaped_terms.qdot, shaped_terms.adot, to_plant)
        s = thdot @ model.J.T
    terms, phi, phidot, tau_u, tau = plant_terms(q, theta, p, s, tau_e)
    if chart == "open":
        z = phidot @ J_e.T
    else:           # keep the integrated shaped coordinates
        phi, phidot, z = a, shaped_terms.adot, b
    H = chart_energy(q, phi, p, z, terms.qdot, phidot, K_e) + model.potential_of(q)
    return SimResult(t, q, p, theta, s, phi, z, tau, tau_e, tau_u, H, X[:, 4 * n],
                     chart=chart, dt=r.dt)


# ---------------------------------------------------------------------------
# tracking target and audits
# ---------------------------------------------------------------------------

def simulate_target_dynamics(m: RobotModel, K_theta, D_theta, q_d, signal: InputSignal,
                             T: float, dt: float, q0=None, qdot0=None) -> TargetResult:
    """Reference trajectory of M(q) q'' + (C + D_theta) q' + K_theta (q - q_d) = tau_e."""
    model = as_model(m)
    n = model.n
    K_theta = as_matrix(K_theta, n, "K_theta")
    D_theta = as_matrix(D_theta, n, "D_theta")
    q_d = as_vector(q_d, n, "q_d")
    q0 = as_vector(q0, n, "q0") if q0 is not None else np.zeros(n)
    qdot0 = as_vector(qdot0, n, "qdot0") if qdot0 is not None else np.zeros(n)

    def field(t, x):
        q, qd = x[:n], x[n:]
        tau_e = signal.torque(t, n)
        rhs = tau_e - (model.coriolis_of(q, qd) + D_theta) @ qd - K_theta @ (q - q_d) \
            - model.gravity_grad_of(q)
        qdd = np.linalg.solve(model.mass_of(q), rhs)
        return np.concatenate([qd, qdd])

    t, X = integrate(field, np.concatenate([q0, qdot0]), dt, T)
    return TargetResult(t, X[:, :n], X[:, n:])


def passivity_audit(result: SimResult) -> float:
    """Worst violation of the dissipation inequality over the run (J).

    Nonpositive (or below the integration tolerance) means the inequality
    held: stored energy never exceeded the initial energy plus the
    supplied work.
    """
    return float(np.max(result.passivity_residual))


def l2_distance(t: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Trapezoidal L2 distance between two sampled signals on grid ``t``."""
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return float(np.sqrt(np.trapezoid(diff * diff, t)))
