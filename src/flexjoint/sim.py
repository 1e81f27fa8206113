"""Time-domain simulation with energy and passivity accounting.

Each chart has one vector field and one series function, written once
from the array functions of ``model``, ``control`` and ``transform``, and
scenarios integrate them with classical fixed-step RK4.  On constant-mass
plants both are affine: they are sampled once per run into the exact RK4
step matrix.  The supplied power ``qdot . tau_e + phidot . tau_u`` is
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
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .control import (
    ImpedanceGains,
    OuterLoop,
    ShapedParams,
    _input_gain,
    check_gain_consistency,
    configuration_gains,
    control_law,
    outer_law,
    recover_shaped,
)
from .errors import DivergenceError, ValidationError
from .linalg import as_matrix, as_vector, matvec, pencil_max_frequency, quad_form
from .lti import EnvironmentImpedance
from .model import (
    LinearRobotParams,
    NonlinearRobotModel,
    OpenLoopState,
    RobotModel,
    as_model,
    chart_energy,
)
from .transform import switch_chart

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
        for name in ("amplitude", "start", "frequency"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"input {name} must be finite")

    @classmethod
    def zero(cls) -> "InputSignal":
        return cls()

    @classmethod
    def step(cls, amplitude: float, joint: int = 0, start: float = 0.0) -> "InputSignal":
        return cls("step", float(amplitude), joint, float(start))

    @classmethod
    def sinusoid(cls, amplitude: float, frequency: float, joint: int = 0) -> "InputSignal":
        return cls("sinusoid", float(amplitude), joint, 0.0, float(frequency))

    def require_joint(self, n: int) -> None:
        """Raise ``ValidationError`` unless the signal acts on one of n joints."""
        if self.kind != "zero" and self.joint >= n:
            raise ValidationError(f"input joint {self.joint} out of range for n={n}")

    def torque(self, t: float, n: int) -> np.ndarray:
        out = np.zeros(n)
        if self.kind == "step":
            out[self.joint] = self.amplitude if t >= self.start else 0.0
        elif self.kind == "sinusoid":
            out[self.joint] = self.amplitude * math.sin(self.frequency * t)
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
        if not 0.0 < self.T < math.inf:
            raise ValidationError("horizon T must be positive and finite")


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


def integrate(field, x0, dt: float, T: float):
    """Classical fixed-step RK4 over [0, T].

    ``field(t, x)`` returns the state derivative.  The horizon is rounded
    to a whole number of steps.  Returns ``(t, X)`` with states in rows.

    Raises
    ------
    DivergenceError
        When the state becomes non-finite, reporting the offending time.
    """
    x0 = np.asarray(x0, dtype=float)
    if not 0.0 < dt < math.inf:
        raise ValidationError("dt must be positive and finite")
    if not dt <= T < math.inf:
        raise ValidationError("horizon T must be finite and at least one step")
    nsteps = int(round(T / dt))
    out = np.empty((nsteps + 1, x0.shape[0]))
    out[0] = x0
    x = x0.copy()
    sixth = dt / 6.0
    half = 0.5 * dt
    for k in range(nsteps):
        t = k * dt
        k1 = field(t, x)
        k2 = field(t + half, x + half * k1)
        k3 = field(t + half, x + half * k2)
        k4 = field(t + dt, x + dt * k3)
        x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if not np.all(np.isfinite(x)):
            raise _divergence((k + 1) * dt)
        out[k + 1] = x
    return dt * np.arange(nsteps + 1), out


def _divergence(time: float) -> DivergenceError:
    return DivergenceError(f"state became non-finite at t={time:.6g} s", time=time)


@dataclass(frozen=True)
class _Resolved:
    model: NonlinearRobotModel
    x0: OpenLoopState
    shaped: ShapedParams            # (J, K, D) for the bare plant
    K_H: np.ndarray | None          # None for the bare plant
    cap: float                      # the stability cap on the step


def _resolve(sc: Scenario, need_controller: bool = False) -> _Resolved:
    """Validate a scenario's parts and resolve its controller; the step is
    left to ``_step``."""
    if not isinstance(sc.controller, (ShapedParams, ImpedanceGains, type(None))):
        raise ValidationError(f"unsupported controller type {type(sc.controller).__name__}")
    model = as_model(sc.plant, sc.x0, sc.controller, sc.outer, sc.environment)
    n = model.n
    x0 = sc.x0 if sc.x0 is not None else OpenLoopState.zero(n)
    sc.input.require_joint(n)

    if sc.controller is None:
        if need_controller:
            raise ValidationError("this simulation requires a controller")
        if sc.outer is not None:
            raise ValidationError("an outer loop requires a controller")
        # the bare plant is the identity shaping, whose control torque is zero
        shaped, K_H = ShapedParams(model.J, model.K, model.D), None
    elif isinstance(sc.controller, ShapedParams):
        shaped = sc.controller
        K_H = _input_gain(model, shaped)
    else:
        shaped = recover_shaped(model, sc.controller.K_F, sc.controller.K_G, q_ref=x0.q)
        check_gain_consistency(sc.controller, shaped, model)
        K_H = sc.controller.K_H
    cap = _dt_cap(model, x0.q, shaped if sc.controller is not None else None, sc)
    return _Resolved(model, x0, shaped, K_H, cap)


def _step(sc: Scenario, cap: float) -> float:
    """The scenario's step, or a default below ``cap``, checked against the
    cap and the horizon."""
    dt = sc.dt if sc.dt is not None else _default_dt(cap)
    if not 0.0 < dt < math.inf:
        raise ValidationError("dt must be positive and finite")
    if dt > cap * (1.0 + 1e-9):
        raise ValidationError(
            f"dt={dt:g} exceeds the stability cap {cap:.3g} s "
            f"(margin {STABILITY_MARGIN:g} over the fastest elastic mode)")
    if sc.T < dt:
        raise ValidationError("horizon T must be at least one step")
    return dt


def _default_dt(cap: float) -> float:
    x = 0.5 * cap
    exp = math.floor(math.log10(x)) - 1
    scale = 10.0 ** exp
    return math.floor(x / scale) * scale


def stability_dt_cap(sc: Scenario) -> float:
    """Largest admissible step, 1/(20 w_max) over the scenario's pencils;
    the scenario's own ``dt`` and ``T`` are not checked."""
    return _resolve(sc).cap


def _dt_cap(model: NonlinearRobotModel, q0: np.ndarray, shaped: ShapedParams | None,
            sc: Scenario) -> float:
    n = model.n
    Mq = model.mass_of(q0)
    Z = np.zeros((n, n))

    def pencil(mass_blocks, stiff):
        mass = np.block([[mass_blocks[0], Z], [Z, mass_blocks[1]]])
        return pencil_max_frequency(stiff, mass)

    stiff_open = np.block([[model.K, -model.K], [-model.K, model.K]])
    wmax = pencil((Mq, model.J), stiff_open)

    if shaped is not None:
        Kq = shaped.K_e + (sc.environment.K_h if sc.environment is not None else Z)
        Kp = shaped.K_e + (sc.outer.K_phi if sc.outer is not None else Z)
        Mlink = Mq + (sc.environment.M_h if sc.environment is not None else Z)
        stiff_shaped = np.block([[Kq, -shaped.K_e], [-shaped.K_e, Kp]])
        wmax = max(wmax, pencil((Mlink, shaped.J_e), stiff_shaped))

    # K is SPD, so the open pencil always has a positive frequency
    return 1.0 / (STABILITY_MARGIN * wmax)


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


# every recorded series of a run, one row per sample
_Series = namedtuple("_Series", "q theta p s phi z qdot phidot tau_u tau_e tau")


def _simulate(sc: Scenario, r: _Resolved, chart: str) -> SimResult:
    """Any chart of any plant, from one field and one series function.

    ``field(x, u)`` gives the rate of (x, supply), and ``series(x, u)``
    every recorded series; both are written once from the array functions
    of ``model``, ``control`` and ``transform`` and work on one state or on
    each row.  The coupled chart is the shaped chart with link mass
    M + M_h and port torque u - K_h q - D_h q'.  A varying-mass
    chart integrates ``field`` with ``integrate`` and evaluates ``series``
    on the sample matrix; on a constant-mass plant both are affine and
    ``_propagate`` applies the exact RK4 step matrix.
    """
    dt = _step(sc, r.cap)
    model, shaped, outer, env, signal = r.model, r.shaped, sc.outer, sc.environment, sc.input
    n = model.n
    K, J_e, K_e = model.K, shaped.J_e, shaped.K_e
    Jinv, Jeinv = np.linalg.inv(model.J), np.linalg.inv(J_e)
    to_shaped, to_plant = np.linalg.solve(K_e, K), np.linalg.solve(K, K_e)
    K_H = r.K_H
    gains_at_mass = configuration_gains(model, K_e, K_H)
    bare = sc.controller is None
    link = model if env is None else as_model(replace(sc.plant, M=sc.plant.M + env.M_h))

    def split(x):
        return x[..., :n], x[..., n:2 * n], x[..., 2 * n:3 * n], x[..., 3 * n:4 * n]

    def outer_torque(phi, phidot):
        return outer_law(phi, phidot, outer, model) if outer is not None else np.zeros_like(phi)

    def power(qdot, phidot, tau_u, u):
        # the coupled run stores the outer-loop spring, so only the port power is supplied
        port = np.vecdot(qdot, u)
        return port if env is not None else port + np.vecdot(phidot, tau_u)

    def plant_terms(q, theta, p, s, tau_e):
        ct = model.chart_terms(q, theta, p, s, Jinv, K, model.D)
        if bare:        # the identity shaping: phi = theta, no control torque
            return ct, theta, ct.adot, np.zeros_like(tau_e), np.zeros_like(tau_e)
        phi, phidot = switch_chart(q, theta, ct.qdot, ct.adot, to_shaped)
        tau_u = outer_torque(phi, phidot)
        K_F, K_G = gains_at_mass(ct.Minv)
        tau = control_law(K_F, K_G, K_H, tau_e - ct.coriolis - ct.grad_v, ct.tau_a, tau_u)
        return ct, phi, phidot, tau_u, tau

    def shaped_terms(y, u):
        q, phi, p, z = split(y)
        ct = link.chart_terms(q, phi, p, z, Jeinv, K_e, shaped.D_e)
        tau_u = outer_torque(phi, ct.adot)
        port = u if env is None else u - q @ env.K_h.T - ct.qdot @ env.D_h.T
        return ct, tau_u, ct.rates(port, tau_u)

    if chart == "open":
        def field(x, u):
            ct, _, phidot, tau_u, tau = plant_terms(*split(x), u)
            supplied = power(ct.qdot, phidot, tau_u, u)[..., None]
            return np.concatenate([ct.qdot, ct.adot, *ct.rates(u, tau), supplied], axis=-1)

        def series(x, u):
            ct, phi, phidot, tau_u, tau = plant_terms(*split(x), u)
            return _Series(*split(x), phi, phidot @ J_e.T, ct.qdot, phidot, tau_u, u, tau)

        x0 = r.x0.pack()
    else:
        def field(y, u):
            ct, tau_u, rates = shaped_terms(y, u)
            supplied = power(ct.qdot, ct.adot, tau_u, u)[..., None]
            return np.concatenate([ct.qdot, ct.adot, *rates, supplied], axis=-1)

        def series(y, u):
            ct, tau_u, (dp, _) = shaped_terms(y, u)
            q, phi, p, z = split(y)
            tau_e = u
            if env is not None:     # robot momentum M q' and port torque M q'' - tau_a
                M = model.mass_of(q)
                p, tau_e = matvec(M, ct.qdot), matvec(M, matvec(ct.Minv, dp)) - ct.tau_a
            theta, thdot = switch_chart(q, phi, ct.qdot, ct.adot, to_plant)
            s = thdot @ model.J.T
            tau = plant_terms(q, theta, p, s, tau_e)[-1]
            return _Series(q, theta, p, s, phi, z, ct.qdot, ct.adot, tau_u, tau_e, tau)

        q, theta, p, s = split(r.x0.pack())
        ct, phi, phidot, _, _ = plant_terms(q, theta, p, s, np.zeros(n))
        if env is not None:         # merged momentum (M + M_h) q'
            p = p + ct.qdot @ env.M_h.T
        x0 = np.concatenate([q, phi, p, phidot @ J_e.T])

    if isinstance(sc.plant, LinearRobotParams):
        t, supply, sr = _propagate(field, series, power, x0, signal, dt, sc.T)
    else:
        t, X = integrate(lambda time, xa: field(xa[:-1], signal.torque(time, n)),
                         np.append(x0, 0.0), dt, sc.T)
        supply, sr = X[:, -1], series(X[:, :-1], signal.torque_series(t, n))
    q, theta, p, s, phi, z, qdot, phidot, tau_u, tau_e, tau = sr
    H = chart_energy(q, phi, p, z, qdot, phidot, K_e) + model.potential_of(q)
    if env is not None:
        theta = s = None
        H = H + 0.5 * (quad_form(qdot, env.M_h) + quad_form(q, env.K_h))
        if outer is not None:
            H = H + 0.5 * quad_form(phi - outer.phi_d, outer.K_phi)
    if bare:                        # the bare plant has no shaped coordinates
        phi = z = tau_u = None
    return SimResult(t, q, p, theta, s, phi, z, tau, tau_e, tau_u, H, supply,
                     chart=chart, dt=dt)


def _propagate(field, series, power, x0, signal: InputSignal, h: float, T: float):
    """Exact RK4 of a constant-mass chart: ``(t, supply, series)``.

    There ``field`` and ``series`` are affine in w = (x, u, 1), so one
    batched call each at the origin and at the unit points gives the field
    as x' = G w and the series as w @ L.  One RK4 step acts
    on z = (x, u(t), u(t + h/2), u(t + h), 1): stage i evaluates the field
    at w_i = W_i z, so x+ = P x + R e with e = z[m:] (the same numbers as
    four field evaluations, up to rounding), and the supply increment is
    the RK4-weighted ``power`` of the stage series.
    """
    m = x0.shape[0]
    n = m // 4
    dz = m + 3 * n + 1

    def on_w(values):       # from an affine map's values at the origin and unit points
        return np.vstack([values[1:] - values[0], values[:1]])

    unit = np.eye(m + n + 1, m + n, -1)
    G = on_w(field(unit[:, :m], unit[:, m:])[:, :m]).T
    L = on_w(np.hstack(series(unit[:, :m], unit[:, m:])))     # series = w @ L

    def on_z(x_rows, j):
        Wz = np.zeros((m + n + 1, dz))
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
    weights = np.array([h / 6.0, h / 3.0, h / 3.0, h / 6.0])
    step = ident + sum(b * (G @ Wz) for b, Wz in zip(weights, stages))

    nsteps = int(round(T / h))
    t = h * np.arange(nsteps + 1)
    exo = np.hstack([signal.torque_series(t[:-1] + d, n) for d in (0.0, 0.5 * h, h)]
                    + [np.ones((nsteps, 1))])
    P, R = step[:, :m], step[:, m:]
    states = np.empty((nsteps + 1, m))
    states[0], states[1:] = x0, exo @ R.T           # row k + 1 starts as V[k]
    views = list(states)
    for x, x_next in zip(views, views[1:]):     # x+ = P x + V[k], in place
        x_next += np.dot(P, x)
    # the series and the input at the four stages of every step, side by side
    stage_cols = np.hstack([np.hstack([Wz.T @ L, Wz[m:m + n].T]) for Wz in stages])
    at_stages = (np.hstack([states[:-1], exo]) @ stage_cols).reshape(nsteps, 4, -1, n)
    sr = _Series(*np.moveaxis(at_stages[:, :, :-1], 2, 0))
    rate = power(sr.qdot, sr.phidot, sr.tau_u, at_stages[:, :, -1]) @ weights
    supply = np.append(0.0, np.cumsum(rate))
    # like integrate, flag the first non-finite state after the start
    diverged = ~(np.all(np.isfinite(states[1:]), axis=1) & np.isfinite(supply[1:]))
    if diverged.any():
        raise _divergence(float(t[1 + np.argmax(diverged)]))
    W = np.hstack([states, signal.torque_series(t, n), np.ones((t.shape[0], 1))])
    return t, supply, _Series(*np.moveaxis((W @ L).reshape(nsteps + 1, -1, n), 1, 0))


# ---------------------------------------------------------------------------
# tracking target and audits
# ---------------------------------------------------------------------------

def simulate_target_dynamics(m: RobotModel, K_theta, D_theta, q_d, signal: InputSignal,
                             T: float, dt: float, q0=None, qdot0=None) -> TargetResult:
    """Reference trajectory of M(q) q'' + (C + D_theta) q' + K_theta (q - q_d) = tau_e."""
    model = as_model(m)
    n = model.n
    signal.require_joint(n)
    K_theta = as_matrix(K_theta, n, "K_theta")
    D_theta = as_matrix(D_theta, n, "D_theta")
    q_d = as_vector(q_d, n, "q_d")
    q0 = as_vector(q0, n, "q0") if q0 is not None else np.zeros(n)
    qdot0 = as_vector(qdot0, n, "qdot0") if qdot0 is not None else np.zeros(n)

    # in the momentum p = M(q) q' the Coriolis force is the kinetic gradient
    def field(t, x):
        q, p = x[:n], x[n:]
        _, qdot, _, kinetic_grad = model.link_terms(q, p)
        dp = (signal.torque(t, n) - D_theta @ qdot - K_theta @ (q - q_d)
              - model.gravity_grad_of(q) - kinetic_grad)
        return np.concatenate([qdot, dp])

    t, X = integrate(field, np.concatenate([q0, model.mass_of(q0) @ qdot0]), dt, T)
    q = X[:, :n]
    return TargetResult(t, q, model.link_terms(q, X[:, n:])[1])


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
