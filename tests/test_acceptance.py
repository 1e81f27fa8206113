"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured figure against its tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  The simulations here use the exact horizons and step
sizes of the criteria, so the module takes a few minutes.
"""

import time

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from conftest import rand_admissible_shaping, rand_plant
from flexjoint import (
    LinearRobotParams,
    InputSignal,
    OpenLoopState,
    OuterLoop,
    Scenario,
    ShapingInfeasibleError,
    assemble_closed_loop,
    equivalence_residual,
    integrate,
    passivity_audit,
    positive_real_check,
    recover_shaped,
    simulate_closed_form,
    simulate_plant_with_controller,
    ss_to_tf,
    synthesize_gains,
    two_link_arm,
)
from flexjoint.cli import ONEDOF_STUDY, TWOLINK_STUDY, run_bode, run_pzmap, run_simulate
from flexjoint.config import parse_config
from flexjoint.lti import evaluate
from flexjoint.poly import aberth_roots, poly_from_roots

PAPER_PLANT = LinearRobotParams(n=1, M=3.0, J=3.0, K=1e6, D=1.0)
OUTER = OuterLoop(100.0, 10.0)
GAIN_GRID = [(kf, kg) for kf in (-0.9, 0.0, 0.9) for kg in (0.0, 1.0, 4.0)]


def _report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def _relative_match(a, b) -> float:
    scale = max(float(np.max(np.abs(a))), 1e-12)
    return float(np.max(np.abs(a - b))) / scale


@pytest.fixture(scope="module")
def demo_arm():
    return two_link_arm(link_lengths=[0.5, 0.4], link_masses=[4.0, 2.5],
                        motor_inertias=[1.0, 1.0], joint_stiffness=1e4,
                        joint_damping=0.0)


@pytest.fixture(scope="module")
def linear_trajectories():
    """Criterion 1 trajectory pair: benchmark plant, K_F=0.9, K_G=4, 1 N*m step."""
    start = time.monotonic()
    sp = recover_shaped(PAPER_PLANT, 0.9, 4.0)
    sc = Scenario(plant=PAPER_PLANT, controller=sp, outer=OUTER,
                  input=InputSignal.step(1.0, 0, 0.0), T=2.0, dt=2e-5)
    pair = simulate_plant_with_controller(sc), simulate_closed_form(sc)
    return pair, time.monotonic() - start


@pytest.fixture(scope="module")
def twolink_trajectories(demo_arm):
    """Criterion 2 trajectory pair: Coriolis-active start, dt = 5e-5 s."""
    sp = synthesize_gains(demo_arm, 0.5 * np.eye(2), 2.0 * demo_arm.K)[1]
    x0 = OpenLoopState.from_velocities(np.zeros(2), np.zeros(2),
                                       [2 ** -0.5, -(2 ** -0.5)], np.zeros(2), demo_arm)
    sc = Scenario(plant=demo_arm, controller=sp, x0=x0,
                  input=InputSignal.step(1.0, 1, 0.0), T=2.0, dt=5e-5)
    return simulate_plant_with_controller(sc), simulate_closed_form(sc)


@pytest.fixture(scope="module")
def ivb_summary(tmp_path_factory):
    """Criterion 8 study: bundled two-link inertia sweep against the target."""
    outdir = tmp_path_factory.mktemp("ivb")
    start = time.monotonic()
    summary = run_simulate(parse_config(TWOLINK_STUDY), outdir)
    return summary, time.monotonic() - start, outdir


def test_criterion_1_linear_equivalence(linear_trajectories):
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        plant = rand_plant(rng, n)
        J_e, K_e = rand_admissible_shaping(rng, plant)
        g, sp = synthesize_gains(plant, J_e, K_e)
        x = OpenLoopState.unpack(rng.normal(0.0, 0.7, 4 * n), n)
        worst = max(worst, equivalence_residual(x, rng.normal(0, 2, n),
                                                rng.normal(0, 2, n), g, sp, plant))
    (a, b), sim_elapsed = linear_trajectories
    mismatch = max(_relative_match(a.q, b.q), _relative_match(a.p, b.p),
                   _relative_match(a.phi, b.phi), _relative_match(a.z, b.z))
    elapsed = time.monotonic() - start + sim_elapsed
    _report(1, worst <= 1e-8 and mismatch <= 1e-6 and elapsed < 60.0,
            f"residual max {worst:.2e} (tol 1e-8), trajectory mismatch {mismatch:.2e} "
            f"(tol 1e-6), runtime {elapsed:.1f} s (< 60 s)")


def test_criterion_2_nonlinear_equivalence(demo_arm, twolink_trajectories):
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(200):
        J_e = np.diag(rng.uniform(0.3, 2.0, 2))
        K_e = float(rng.uniform(0.5, 3.0)) * demo_arm.K
        g, sp = synthesize_gains(demo_arm, J_e, K_e)
        x = OpenLoopState.unpack(rng.normal(0.0, 0.6, 8), 2)
        worst = max(worst, equivalence_residual(x, rng.normal(0, 2, 2),
                                                rng.normal(0, 2, 2), g, sp, demo_arm))
    a, b = twolink_trajectories
    mismatch = max(_relative_match(a.q, b.q), _relative_match(a.p, b.p),
                   _relative_match(a.theta, b.theta), _relative_match(a.s, b.s))
    _report(2, worst <= 1e-8 and mismatch <= 1e-6,
            f"residual max {worst:.2e} (tol 1e-8), trajectory mismatch {mismatch:.2e} "
            f"(tol 1e-6) at dt=5e-5 over 2 s, |qdot(0)| = 1")


def test_criterion_3_parametrization_consistency():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        plant = rand_plant(rng, n)
        J_e, K_e = rand_admissible_shaping(rng, plant)
        g, sp = synthesize_gains(plant, J_e, K_e)
        back = recover_shaped(plant, g.K_F, g.K_G)
        for a, b in ((back.J_e, sp.J_e), (back.K_e, sp.K_e), (back.D_e, sp.D_e)):
            scale = max(float(np.max(np.abs(b))), 1e-30)
            worst = max(worst, float(np.max(np.abs(a - b))) / scale)

    inside_ok = True
    for kf in (-0.99, 0.0, 0.99):
        sp = recover_shaped(PAPER_PLANT, kf, 0.0)
        inside_ok &= (sp.J_e[0, 0] > 0 and sp.K_e[0, 0] > 0 and sp.D_e[0, 0] > 0)
    outside_ok = True
    for kf in (-1.01, 1.01):
        try:
            recover_shaped(PAPER_PLANT, kf, 0.0)
            outside_ok = False
        except ShapingInfeasibleError:
            pass
    _report(3, worst <= 1e-10 and inside_ok and outside_ok,
            f"roundtrip max error {worst:.2e} over 1000 cases (tol 1e-10); "
            f"interval boundaries at K_F = +-0.99 / +-1.01 behave correctly")


def test_criterion_4_frequency_study(tmp_path):
    start = time.monotonic()
    errors = run_bode(parse_config(ONEDOF_STUDY), tmp_path, grid_points=400)
    ordered_kg = all(errors[(kf, 0.0)] >= errors[(kf, 1.0)] >= errors[(kf, 4.0)]
                     for kf in (-0.9, 0.0, 0.9))
    ordered_kf = all(errors[(0.9, kg)] <= errors[(-0.9, kg)] for kg in (0.0, 1.0, 4.0))
    elapsed = time.monotonic() - start
    detail = ", ".join(f"err({kf:g},{kg:g})={errors[(kf, kg)]:.2f}dB"
                       for (kf, kg) in sorted(errors))
    _report(4, ordered_kg and ordered_kf and elapsed < 30.0,
            f"{detail}; runtime {elapsed:.1f} s (< 30 s)")


def test_criterion_5_pole_zero_study(tmp_path):
    start = time.monotonic()
    dists = run_pzmap(parse_config(ONEDOF_STUDY), tmp_path)
    in_kg = all(dists[(kf, 0.0)] >= dists[(kf, 1.0)] >= dists[(kf, 4.0)]
                for kf in (-0.9, 0.0, 0.9))
    in_kf = all(dists[(-0.9, kg)] >= dists[(0.0, kg)] >= dists[(0.9, kg)]
                for kg in (0.0, 1.0, 4.0))
    diagonal = dists[(-0.9, 0.0)] >= dists[(0.0, 1.0)] >= dists[(0.9, 4.0)]
    elapsed = time.monotonic() - start
    _report(5, in_kg and in_kf and diagonal and elapsed < 10.0,
            f"dominant-pole distance monotone along every gain-increasing path "
            f"from (-0.9,0) to (0.9,4): {dists[(-0.9, 0.0)]:.3f} -> "
            f"{dists[(0.0, 1.0)]:.3f} -> {dists[(0.9, 4.0)]:.3f}; "
            f"runtime {elapsed:.1f} s (< 10 s)")


def test_criterion_6_positive_real():
    grid = np.logspace(-2, 3, 400)
    verdicts = {}
    min_res = []
    for kf, kg in GAIN_GRID:
        sp = recover_shaped(PAPER_PLANT, kf, kg)
        tf = ss_to_tf(assemble_closed_loop(PAPER_PLANT, sp, OUTER))
        v = positive_real_check(tf, grid)
        verdicts[(kf, kg)] = v.verdict
        min_res.append(v.min_real)
    all_passive = all(v == "passive" for v in verdicts.values())
    grid_ok = min(min_res) >= -1e-9
    _report(6, all_passive and grid_ok,
            f"all nine gain combinations passive; grid min Re Y = {min(min_res):.2e} "
            f">= -1e-9 over 400 points in [1e-2, 1e3] rad/s")


def test_criterion_7_passivity_audits(linear_trajectories, twolink_trajectories,
                                      ivb_summary, demo_arm):
    (lin_a, lin_b), _ = linear_trajectories
    audits = []
    for name, result in (("linear_plant", lin_a),
                         ("linear_closed", lin_b),
                         ("twolink_plant", twolink_trajectories[0]),
                         ("twolink_closed", twolink_trajectories[1])):
        scale = max(float(np.max(result.H)), 1e-12)
        audits.append((name, passivity_audit(result) / scale))
    summary, _, _ = ivb_summary
    for row in summary:
        audits.append((row[0], row[3] / max(row[4], 1e-12)))
    worst_audit = max(v for _, v in audits)

    # lossless transmission, zero input: stored energy is a first integral
    plant0 = LinearRobotParams(n=1, M=3.0, J=3.0, K=1e6, D=0.0)
    sp0 = synthesize_gains(plant0, 1.5, 5e5)[1]
    sc0 = Scenario(plant=plant0, controller=sp0,
                   x0=OpenLoopState(0.0, 1e-3, 0.0, 0.0), T=5.0, dt=2e-5)
    r0 = simulate_closed_form(sc0)
    drift_linear = float(np.max(np.abs(r0.H - r0.H[0]))) / r0.H[0]

    soft_arm = two_link_arm(link_lengths=[0.5, 0.4], link_masses=[4.0, 2.5],
                            motor_inertias=[1.0, 1.0], joint_stiffness=2.5e3,
                            joint_damping=0.0)
    sp1 = synthesize_gains(soft_arm, np.eye(2), 2.0 * soft_arm.K)[1]
    x0 = OpenLoopState.from_velocities(np.zeros(2), np.zeros(2),
                                       [0.4, -0.3], np.zeros(2), soft_arm)
    sc1 = Scenario(plant=soft_arm, controller=sp1, x0=x0, T=5.0, dt=6e-5)
    r1 = simulate_closed_form(sc1)
    drift_twolink = float(np.max(np.abs(r1.H - r1.H[0]))) / r1.H[0]

    _report(7, worst_audit <= 1e-6 and drift_linear <= 1e-6 and drift_twolink <= 1e-6,
            f"dissipation inequality within {worst_audit:.2e} of the energy scale across "
            f"{len(audits)} runs (tol 1e-6); lossless 5 s drift: linear {drift_linear:.2e}, "
            f"two-link {drift_twolink:.2e} (tol 1e-6)")


def test_criterion_8_inertia_sweep_tracking(ivb_summary):
    summary, elapsed, outdir = ivb_summary
    l2 = [row[2] for row in summary]
    strictly_decreasing = all(b < a for a, b in zip(l2, l2[1:]))

    # the applied torque must stay finite and smooth once the step settles
    data = np.genfromtxt(outdir / "sim_je3.csv", delimiter=",", names=True)
    tau2 = data["tau_2"]
    settled = data["t"] > 0.05
    jumps = np.abs(np.diff(tau2))[settled[1:]]
    smooth = np.all(np.isfinite(tau2)) and np.max(jumps) <= 10.0 * np.max(np.abs(tau2))

    _report(8, strictly_decreasing and smooth and elapsed < 120.0,
            f"L2 distance to the target trajectory decreases strictly over the "
            f"inertia sweep: {' -> '.join(f'{v:.6g}' for v in l2)}; control torque "
            f"smooth (max settled jump {np.max(jumps):.3g} N*m); "
            f"runtime {elapsed:.1f} s (< 120 s)")


def test_criterion_9_numerical_infrastructure():
    # RK4 order via step halving on a damped oscillator
    A = np.array([[0.0, 1.0], [-4.0, -0.4]])
    w, V = np.linalg.eig(A)
    x0 = np.array([1.0, 0.0])
    exact = (V @ np.diag(np.exp(w * 2.0)) @ np.linalg.inv(V) @ x0.astype(complex)).real

    def endpoint_error(dt):
        _, X = integrate(lambda t, x: A @ x, x0, dt, 2.0)
        return float(np.linalg.norm(X[-1] - exact))

    ratio = endpoint_error(0.02) / endpoint_error(0.01)

    # polynomial-to-resolvent agreement across the gain grid
    worst_tf = 0.0
    omega = np.logspace(-2, 3, 50)
    for kf, kg in GAIN_GRID:
        sp = recover_shaped(PAPER_PLANT, kf, kg)
        ss = assemble_closed_loop(PAPER_PLANT, sp, OUTER)
        tf = ss_to_tf(ss)
        a = evaluate(tf, 1j * omega)
        b = evaluate(ss, 1j * omega)
        worst_tf = max(worst_tf, float(np.max(np.abs(a - b) / np.abs(b))))

    # root residuals against the coefficient norm
    rng = np.random.default_rng(109)
    worst_root = 0.0
    for _ in range(100):
        roots_true = rng.normal(0, 3, int(rng.integers(2, 7)))
        c = poly_from_roots(roots_true, leading=rng.uniform(0.5, 2.0))
        roots = aberth_roots(c)
        worst_root = max(worst_root,
                         float(np.max(np.abs(P.polyval(roots, c)))) / float(np.max(np.abs(c))))

    _report(9, 12.0 <= ratio <= 20.0 and worst_tf <= 1e-6 and worst_root <= 1e-8,
            f"RK4 halving ratio {ratio:.1f} in [12, 20]; transfer-function vs resolvent "
            f"max {worst_tf:.2e} (tol 1e-6); root residuals max {worst_root:.2e} "
            f"(tol 1e-8 of coefficient norm)")
