"""Probes: seeded direct calls into flexjoint's public functions.

The workloads call the program the way a user does, so some functions run
only inside other calls (the model evaluators, bare ``integrate``,
``aberth_roots``, ``write_csv``, ``simulate_target_dynamics``).  The probes
call those directly, and also make one small call of every other function
a per-layer metric names, so that a traced run of any workload reports
every per-layer metric.  A metric comes from the workload's own spans when
the workload makes that call, and from a probe otherwise.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from flexjoint import (
    LinearRobotParams,
    OpenLoopState,
    RootFindingError,
    Scenario,
    equivalence_residual,
    from_closed,
    gains_at,
    integrate,
    l2_distance,
    nonlinear_control,
    recover_shaped,
    simulate_closed_form,
    simulate_coupled,
    simulate_target_dynamics,
    synthesize_gains,
    to_closed,
)
from flexjoint.cli import ONEDOF_STUDY, TWOLINK_STUDY, write_csv
from flexjoint.config import (
    build_controller_spec,
    build_environment,
    build_input,
    build_nonlinear_target,
    build_outer_loop,
    build_plant,
    parse_config,
)
from flexjoint.linalg import pencil_max_frequency, solve
from flexjoint.poly import aberth_roots, poly_from_roots
from workloads import (
    ENVIRONMENT,
    ONEDOF_DT,
    TOL_DRIFT,
    TOL_EQUIVALENCE,
    TOL_PASSIVITY,
    TWOLINK_DT,
    chart_pair,
    gain_grid_studies,
    passivity_rel,
    random_design,
    screen_design,
)

SAMPLES = 100        # calls per evaluator probe
SIM_STEPS = 200      # RK4 steps per simulation probe
CSV_STEPS = 2500     # rows of the CSV probe
REPEATS = 3


def probe_config(rec):
    with rec.op("probe_config"):
        for _ in range(10):
            for text in (ONEDOF_STUDY, TWOLINK_STUDY):
                rec.call("config.parse_config", parse_config, text)


def probe_model(rec, rng):
    """Evaluators of the gravity-on demo arm, its 2x2 solves and pencils."""
    cfg = parse_config(TWOLINK_STUDY)
    cfg.plant["gravity"] = True
    arm = build_plant(cfg)
    Z = np.zeros((2, 2))
    stiffness = np.block([[arm.K, -arm.K], [-arm.K, arm.K]])
    with rec.op("probe_model"):
        for q, qdot in zip(rng.uniform(-np.pi, np.pi, (SAMPLES, 2)),
                           rng.normal(0.0, 1.0, (SAMPLES, 2))):
            M = rec.call("model.mass_of", arm.mass_of, q)
            p = M @ qdot
            rec.call("model.coriolis_of", arm.coriolis_of, q, qdot)
            rec.call("model.kinetic_grad", arm.kinetic_grad, q, p)
            rec.call("model.gravity_grad_of", arm.gravity_grad_of, q)
            rec.call("linalg.solve", solve, M, p, "mass matrix")
            rec.call("linalg.pencil_max_frequency", pencil_max_frequency, stiffness,
                     np.block([[M, Z], [Z, arm.J]]))


def probe_control(rec, rng):
    """Varying-mass control law and chart change on the demo arm, with the
    equivalence residual of acceptance criterion 2."""
    arm = build_plant(parse_config(TWOLINK_STUDY))
    shaped = synthesize_gains(arm, 0.5 * np.eye(2), 2.0 * arm.K)[1]
    with rec.op("probe_control"):
        for _ in range(SAMPLES // 4):
            x = OpenLoopState.unpack(rng.normal(0.0, 0.6, 8), 2)
            tau_e, tau_u = rng.normal(0.0, 2.0, 2), rng.normal(0.0, 2.0, 2)
            gains = gains_at(arm, shaped, x.q)
            rec.call("control.nonlinear_control", nonlinear_control, x, tau_e, tau_u, gains, arm)
            y = rec.call("transform.to_closed", to_closed, x, shaped, arm)
            rec.call("transform.from_closed", from_closed, y, shaped, arm)
            rec.gate("transform.equivalence_residual_max",
                     rec.call("transform.equivalence_residual", equivalence_residual,
                              x, tau_e, tau_u, gains, shaped, arm), TOL_EQUIVALENCE)


def probe_poly(rec, rng):
    """aberth_roots on polynomials with seeded real roots, degrees 2 to 16."""
    with rec.op("probe_poly"):
        for degree in range(2, 17):
            band = "deg_le4" if degree <= 4 else "deg_5_16"
            for _ in range(4):
                coeffs = poly_from_roots(rng.normal(0.0, 3.0, degree), rng.uniform(0.5, 2.0))
                rec.counts["poly.aberth_roots.attempted"] += 1
                try:
                    rec.call(f"poly.aberth_roots.{band}", aberth_roots, coeffs)
                except RootFindingError:
                    rec.counts["poly.aberth_roots.failed"] += 1


def probe_integrate(rec):
    """Bare RK4 on a 4-state linear field: two damped oscillators."""
    A = np.array([[0.0, 1.0, 0.0, 0.0], [-4.0, -0.4, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -9.0, -0.3]])
    steps = 10 * SIM_STEPS
    with rec.op("probe_integrate"):
        for _ in range(REPEATS):
            rec.call("sim.integrate", integrate, lambda t, x: A @ x, np.ones(4), 1e-3,
                     steps * 1e-3, per=steps)
            rec.steps += steps


def probe_onedof(rec, outdir):
    """The bundled 1-DOF plant in all three charts, a lossless run, and
    ``write_csv`` of its result."""
    T = SIM_STEPS * ONEDOF_DT
    text = ONEDOF_STUDY.split("[sim]")[0] + "[sim]\ninput = step(1, 1, 0)\n"
    cfg = parse_config(text + ENVIRONMENT)
    plant = build_plant(cfg)
    gains = build_controller_spec(cfg)
    shaped = recover_shaped(plant, gains.K_F, gains.K_G)
    sc = Scenario(plant=plant, controller=shaped, outer=build_outer_loop(cfg, 1),
                  input=build_input(cfg), T=T, dt=ONEDOF_DT)
    chart_pair(rec, sc, SIM_STEPS, "linear", ("q", "p", "phi", "z"))
    with rec.op("coupled"):
        coupled = rec.call("sim.coupled", simulate_coupled,
                           replace(sc, environment=build_environment(cfg, 1)),
                           per=SIM_STEPS)
        rec.steps += SIM_STEPS
        rec.gate("sim.passivity_rel_max", passivity_rel(coupled), TOL_PASSIVITY)

    # acceptance criterion 7: with a lossless transmission and no input the
    # shaped energy is a first integral
    plant0 = LinearRobotParams(n=1, M=3.0, J=3.0, K=1e6, D=0.0)
    sc0 = Scenario(plant=plant0, controller=synthesize_gains(plant0, 1.5, 5e5)[1],
                   x0=OpenLoopState(0.0, 1e-3, 0.0, 0.0), T=CSV_STEPS * ONEDOF_DT, dt=ONEDOF_DT)
    with rec.op("lossless"):
        r0 = rec.call("sim.lossless", simulate_closed_form, sc0, per=CSV_STEPS)
        rec.steps += CSV_STEPS
        rec.gate("sim.lossless_drift", float(np.max(np.abs(r0.H - r0.H[0]))) / r0.H[0], TOL_DRIFT)

    header = ["t", "q_1", "phi_1", "p_1", "z_1", "tau_1", "tau_e_1", "tau_u_1",
              "H", "supply", "passivity_residual"]
    rows = np.column_stack([r0.t, r0.q, r0.phi, r0.p, r0.z, r0.tau, r0.tau_e, r0.tau_u,
                            r0.H, r0.supply, r0.passivity_residual]).tolist()
    path = outdir / "probe.csv"
    with rec.op("write_csv"):
        for _ in range(REPEATS):
            rec.call("cli.write_csv", write_csv, path, header, rows, per=len(rows))
    rec.counts["cli.write_csv.bytes"] = path.stat().st_size
    rec.counts["cli.write_csv.rows"] = len(rows)


def probe_twolink(rec):
    """The bundled inertia sweep on a short horizon: each J_e in both charts,
    the tracking target, and the L2 distance of the driven joint to it."""
    cfg = parse_config(TWOLINK_STUDY)
    arm = build_plant(cfg)
    outer = build_outer_loop(cfg, 2)
    spec = build_controller_spec(cfg)
    signal = build_input(cfg)
    T = SIM_STEPS * TWOLINK_DT
    with rec.op("target"):
        target = rec.call("sim.target", simulate_target_dynamics, arm,
                          *build_nonlinear_target(cfg, 2), signal, T, TWOLINK_DT, per=SIM_STEPS)
        rec.steps += SIM_STEPS
    for i, je in enumerate(cfg.sweep["J_e"]):
        sc = Scenario(plant=arm, controller=synthesize_gains(arm, je, spec.K_e)[1], outer=outer,
                      input=signal, T=T, dt=TWOLINK_DT)
        plant, _ = chart_pair(rec, sc, SIM_STEPS, "twolink", ("q", "p", "theta", "s"))
        if plant is not None:
            rec.accuracy[f"sim.l2_vs_target.je{i + 1}"] = l2_distance(
                plant.t, plant.q[:, signal.joint], target.q[:, signal.joint])


def probe_design(rec, rng, outdir):
    """Two seeded designs per joint count, and the gain-grid studies."""
    for i in range(8):
        screen_design(rec, random_design(rng, 1 + i % 4), SIM_STEPS)
    gain_grid_studies(rec, parse_config(ONEDOF_STUDY), outdir / "grid")


def run_probes(seed, rec, outdir):
    rng = np.random.default_rng([seed, 7])
    probe_config(rec)
    probe_model(rec, rng)
    probe_control(rec, rng)
    probe_poly(rec, rng)
    probe_integrate(rec)
    probe_onedof(rec, outdir)
    probe_twolink(rec)
    probe_design(rec, rng, outdir)
