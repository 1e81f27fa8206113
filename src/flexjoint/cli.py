"""Command-line interface: gain synthesis, frequency studies, simulation,
verification, and the bundled reference studies.

Subcommands
-----------
synth            print both controller parametrizations and admissibility
bode             frequency-response sweep against the target admittance
pzmap            pole-zero sweep with distance-to-target summary
simulate         time-domain runs (with optional inertia sweep and target overlay)
verify           randomized self-checks; nonzero exit on failure
reproduce-paper  run the bundled single-joint and two-link studies

All artifacts are CSV with 17-significant-digit numbers, fixed column
order, and newline-terminated rows, so identical configurations produce
byte-identical files.  ``csvfmt.write_csv`` writes them: each number reads
as ``%.17g`` byte for byte.  A numpy kernel computes the digits of a block
of cells at once and certifies them where the scaled value lies further
than a margin of 2 eps (of the long double) from a rounding tie; the cells
it cannot certify are formatted by ``%``.

Exit codes: 0 success, 1 divergence during simulation, 2 infeasible or
malformed configuration, 3 verification failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ExperimentConfig,
    GainPair,
    build_controller_spec,
    build_environment,
    build_input,
    build_nonlinear_target,
    build_outer_loop,
    build_plant,
    build_target,
    parse_config,
)
from .control import (
    colgate_interval,
    gain_consistency_error,
    recover_shaped,
    synthesize_gains,
)
from .csvfmt import write_csv
from .errors import (
    ConfigurationError,
    DivergenceError,
    FlexJointError,
)
from .lti import (
    MAX_TF_STATES,
    assemble_closed_loop,
    freq_response,
    poles_zeros,
    positive_real_check,
    ss_to_tf,
    target_admittance,
)
from .model import LinearRobotParams, OpenLoopState
from .sim import (
    Scenario,
    l2_distance,
    passivity_audit,
    simulate_coupled,
    simulate_plant_with_controller,
    simulate_target_dynamics,
)
from .transform import equivalence_residual

EXIT_OK = 0
EXIT_DIVERGED = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY_FAILED = 3


# ---------------------------------------------------------------------------
# sweep helpers
# ---------------------------------------------------------------------------

def _gain_combos(cfg: ExperimentConfig):
    """(K_F, K_G) pairs from the sweep section, falling back to [controller]."""
    spec = build_controller_spec(cfg)
    kf_list = cfg.sweep.get("K_F")
    kg_list = cfg.sweep.get("K_G")
    if kf_list is None or kg_list is None:
        if not isinstance(spec, GainPair) or np.ndim(spec.K_F) or np.ndim(spec.K_G):
            raise ConfigurationError(
                "a full K_F/K_G sweep needs either [sweep] lists or scalar gain values "
                "in [controller]")
        kf_list = kf_list or [spec.K_F]
        kg_list = kg_list or [spec.K_G]
    return [(kf, kg) for kf in kf_list for kg in kg_list]


def _controller(cfg: ExperimentConfig, plant, je_value: float | None = None):
    """Gains and shaped parameters of the [controller] section, with
    ``J_e = je_value I`` when given; ``(None, None)`` without one."""
    spec = build_controller_spec(cfg)
    if spec is None:
        return None, None
    if isinstance(spec, GainPair):
        if je_value is not None:
            raise ConfigurationError("a J_e sweep requires a shaped-parameter controller")
        shaped = recover_shaped(plant, spec.K_F, spec.K_G)
        return synthesize_gains(plant, shaped.J_e, shaped.K_e)
    return synthesize_gains(plant, spec.J_e if je_value is None else je_value, spec.K_e)


def _gain_study(cfg: ExperimentConfig, study: str):
    """Target admittance and the shaped loops of a single-joint gain study:
    one ``((K_F, K_G), system_id, StateSpace)`` per pair of the grid."""
    plant = build_plant(cfg)
    if not isinstance(plant, LinearRobotParams) or plant.n != 1:
        raise ConfigurationError("this study requires a single-joint constant-mass plant")
    target = build_target(cfg)
    if target is None:
        raise ConfigurationError(f"[target] section is required for the {study} study")
    outer = build_outer_loop(cfg, 1)
    loops = [((kf, kg), f"kf{kf:g}_kg{kg:g}",
              assemble_closed_loop(plant, recover_shaped(plant, kf, kg), outer))
             for kf, kg in _gain_combos(cfg)]
    return target_admittance(target), loops


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def run_synth(cfg: ExperimentConfig, out: Path | None = None) -> dict:
    """Report both controller parametrizations and admissibility."""
    plant = build_plant(cfg)
    gains, shaped = _controller(cfg, plant)
    if gains is None:
        raise ConfigurationError("[controller] section is required for synth")
    n = plant.n

    lines = ["gains:"]
    for name, mat in (("K_F", gains.K_F), ("K_G", gains.K_G), ("K_H", gains.K_H)):
        lines.append(f"  {name} = {np.array2string(mat, precision=10)}")
    lines.append("shaped:")
    for name, mat in (("J_e", shaped.J_e), ("K_e", shaped.K_e), ("D_e", shaped.D_e)):
        lines.append(f"  {name} = {np.array2string(mat, precision=10)}")
    lines.append(f"admissible: yes (D_e {'PSD only - lossless transmission' if shaped.lossless else 'positive definite'})")
    lines.append(f"gain identity K_H - K_G - K_F - I deviation: {gain_consistency_error(gains):.3e}")
    if n == 1:
        lo, hi = colgate_interval(plant)
        kf = float(gains.K_F[0, 0])
        inside = lo < kf < hi
        lines.append(f"pure force-feedback passivity interval: ({lo:g}, {hi:g}); "
                     f"K_F = {kf:g} is {'inside' if inside else 'outside'}")
    text = "\n".join(lines)
    print(text)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "synth.txt").write_text(text + "\n", encoding="utf-8")
    return {"gains": gains, "shaped": shaped}


# ---------------------------------------------------------------------------
# bode
# ---------------------------------------------------------------------------

def run_bode(cfg: ExperimentConfig, outdir: Path, grid_points: int = 400):
    """Frequency-response sweep; writes bode.csv and returns per-system errors.

    Rows are (system_id, omega_rad_s, mag_db, phase_deg, err_db) where
    err_db is the system's max magnitude deviation from the target
    admittance over the grid (0 for the target itself).
    """
    if grid_points < 1:
        raise ConfigurationError(f"grid_points must be at least 1, got {grid_points}")
    tf_target, loops = _gain_study(cfg, "bode")
    grid = np.logspace(-2, 3, grid_points)
    mag_target, phase_target = freq_response(tf_target, grid)

    errors = {}
    curves = []
    for pair, sid, ss in loops:
        mag, phase = freq_response(ss, grid)
        errors[pair] = float(np.max(np.abs(mag - mag_target)))
        curves.append((sid, mag, phase, errors[pair]))
    curves.append(("target", mag_target, phase_target, 0.0))
    write_csv(outdir / "bode.csv",
              ["system_id", "omega_rad_s", "mag_db", "phase_deg", "err_db"],
              np.vstack([np.column_stack([grid, mag, phase, np.full(grid.size, err)])
                         for _, mag, phase, err in curves]),
              [(sid,) for sid, *_ in curves for _ in grid])
    return errors


# ---------------------------------------------------------------------------
# pzmap
# ---------------------------------------------------------------------------

def _dominant_pole(poles, skip_origin: bool = True) -> complex:
    """Slowest upper-half-plane pole, ignoring rigid-body poles (exactly 0)."""
    cands = [p for p in poles if p.imag >= 0.0 and (not skip_origin or p != 0.0)]
    if not cands:
        cands = [p for p in poles if p.imag >= 0.0]
    return min(cands, key=abs)


def run_pzmap(cfg: ExperimentConfig, outdir: Path):
    """Pole-zero sweep; writes pzmap.csv and returns dominant-pole distances.

    Rows are (system_id, kind, re, im, dom_dist) with dom_dist the
    distance from the system's dominant pole to the target's dominant
    pole (0 for the target itself).
    """
    tf_target, loops = _gain_study(cfg, "pole-zero")
    target_poles, target_zeros = poles_zeros(tf_target)
    dom_target = _dominant_pole(target_poles, skip_origin=False)

    rows = []
    dists = {}
    for pair, sid, ss in loops:
        poles, zeros = poles_zeros(ss_to_tf(ss))
        dist = abs(_dominant_pole(poles) - dom_target)
        dists[pair] = dist
        for p in poles:
            rows.append((sid, "pole", p.real, p.imag, dist))
        for z in zeros:
            rows.append((sid, "zero", z.real, z.imag, dist))
    for p in target_poles:
        rows.append(("target", "pole", p.real, p.imag, 0.0))
    for z in target_zeros:
        rows.append(("target", "zero", z.real, z.imag, 0.0))
    write_csv(outdir / "pzmap.csv", ["system_id", "kind", "re", "im", "dom_dist"],
              [row[2:] for row in rows], [row[:2] for row in rows])
    return dists


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

_SIM_SCALARS = ["H", "supply", "passivity_residual"]


def _result_rows(result):
    """Flatten a SimResult into CSV rows with the documented column set."""
    n = result.q.shape[1]
    header = ["t"]
    for name in ("q", "phi", "p", "z", "tau", "tau_e", "tau_u"):
        header += [f"{name}_{i + 1}" for i in range(n)]
    header += _SIM_SCALARS

    phi = result.phi if result.phi is not None else result.theta
    z = result.z if result.z is not None else result.s
    columns = [result.t, result.q, phi, result.p, z, result.tau, result.tau_e, result.tau_u,
               result.H, result.supply, result.passivity_residual]
    zeros = np.zeros_like(result.q)
    return header, np.column_stack([c if c is not None else zeros for c in columns])


def run_simulate(cfg: ExperimentConfig, outdir: Path, dt: float | None = None,
                 horizon: float | None = None):
    """Time-domain study; one CSV per run plus an optional target overlay.

    With a ``J_e`` sweep, each entry v produces a run shaped with
    ``J_e = v I`` (file ``sim_je<index>.csv``); without a sweep a single
    ``sim.csv`` is written.  When [nonlinear_target] is present the target
    trajectory is written to ``sim_target.csv`` and the summary records
    the L2 distance of the driven joint to the target.
    """
    plant = build_plant(cfg)
    n = plant.n
    outer = build_outer_loop(cfg, n)
    environment = build_environment(cfg, n)
    signal = build_input(cfg)
    sim_dt = dt if dt is not None else cfg.sim.get("dt")
    sim_T = horizon if horizon is not None else cfg.sim.get("T", 1.0)
    target_spec = build_nonlinear_target(cfg, n)

    je_sweep = cfg.sweep.get("J_e")
    runs = [(None, "sim")] if je_sweep is None else [
        (v, f"sim_je{i + 1}") for i, v in enumerate(je_sweep)]
    simulate = simulate_coupled if environment is not None else simulate_plant_with_controller
    results = []
    for je_value, label in runs:
        sc = Scenario(plant=plant, controller=_controller(cfg, plant, je_value)[1], outer=outer,
                      environment=environment, input=signal, T=sim_T, dt=sim_dt)
        results.append((label, je_value, simulate(sc)))

    target_result = None
    if target_spec is not None:
        K_theta, D_theta, q_d = target_spec
        ref_dt = results[0][2].dt
        target_result = simulate_target_dynamics(plant, K_theta, D_theta, q_d, signal,
                                                 sim_T, ref_dt)
        header = ["t"] + [f"q_{i + 1}" for i in range(n)] + [f"qdot_{i + 1}" for i in range(n)]
        write_csv(outdir / "sim_target.csv", header,
                  np.column_stack([target_result.t, target_result.q, target_result.qdot]))

    joint = signal.joint if signal.kind != "zero" else 0
    summary = []
    for label, je_value, result in results:
        write_csv(outdir / f"{label}.csv", *_result_rows(result))
        l2 = float("nan")
        if target_result is not None:
            l2 = l2_distance(result.t, result.q[:, joint], target_result.q[:, joint])
        summary.append((label,
                        je_value if je_value is not None else float("nan"),
                        l2,
                        passivity_audit(result),
                        float(np.max(result.H)),
                        float(np.max(np.abs(result.tau))) if result.tau is not None else 0.0))
    write_csv(outdir / "sim_summary.csv",
              ["run_id", "J_e_value", "l2_vs_target", "max_passivity_residual", "max_H",
               "max_abs_tau"],
              [row[1:] for row in summary], [row[:1] for row in summary])
    return summary


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _rand_spd(rng, n, lo=0.5, hi=2.0):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q @ np.diag(rng.uniform(lo, hi, n)) @ q.T


def run_verify(cfg: ExperimentConfig, seed: int = 0):
    """Randomized self-checks; returns (report lines, all passed)."""
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    plant = build_plant(cfg)
    n = plant.n
    outer = build_outer_loop(cfg, n)
    signal = build_input(cfg)
    checks = []

    gains, shaped = _controller(cfg, plant)
    if gains is None:
        raise ConfigurationError("[controller] section is required for verify")

    checks.append(("gain_consistency", gain_consistency_error(gains), 1e-9))

    worst = 0.0
    for _ in range(200):
        J_e = _rand_spd(rng, n, 0.3, 3.0)
        K_e = float(rng.uniform(0.3, 3.0)) * plant.K
        g2, s2 = synthesize_gains(plant, J_e, K_e)
        back = recover_shaped(plant, g2.K_F, g2.K_G)
        for a, b in ((back.J_e, s2.J_e), (back.K_e, s2.K_e), (back.D_e, s2.D_e)):
            scale = max(float(np.max(np.abs(b))), 1e-30)
            worst = max(worst, float(np.max(np.abs(a - b))) / scale)
    checks.append(("gain_shaped_roundtrip", worst, 1e-10))

    worst = 0.0
    for _ in range(100):
        x = OpenLoopState.unpack(rng.normal(0.0, 0.5, 4 * n), n)
        tau_e = rng.normal(0.0, 2.0, n)
        tau_u = rng.normal(0.0, 2.0, n)
        worst = max(worst, equivalence_residual(x, tau_e, tau_u, gains, shaped, plant))
    checks.append(("equivalence_residual", worst, 1e-8))

    sc = Scenario(plant=plant, controller=shaped, outer=outer, input=signal,
                  T=min(cfg.sim.get("T", 1.0), 1.0), dt=cfg.sim.get("dt"))
    result = simulate_plant_with_controller(sc)
    violation = passivity_audit(result)
    scale = max(float(np.max(result.H)), 1e-12)
    checks.append(("passivity_audit", violation / scale, 1e-6))

    if isinstance(plant, LinearRobotParams) and 4 * n <= MAX_TF_STATES:
        ss = assemble_closed_loop(plant, shaped, outer)
        verdict = positive_real_check(ss_to_tf(ss))
        checks.append(("positive_real", 0.0 if verdict.verdict == "passive" else 1.0, 0.5))

    lines = [f"{'PASS' if value <= tol else 'FAIL'} {name} value={value:.3e} tol={tol:.1e}"
             for name, value, tol in checks]
    return lines, all(value <= tol for _, value, tol in checks)


# ---------------------------------------------------------------------------
# bundled studies
# ---------------------------------------------------------------------------

ONEDOF_STUDY = """\
[plant]
n = 1
M = 3
J = 3
K = 1e6
D = 1

[controller]
K_F = 0.9
K_G = 4

[outer_loop]
K_phi = 100
D_phi = 10

[target]
M_d = 3
K_d = 10
D_d = 100

[sweep]
K_F = -0.9, 0, 0.9
K_G = 0, 1, 4

[sim]
dt = 2e-5
T = 2
input = step(1, 1, 0)
"""

TWOLINK_STUDY = """\
[plant]
type = two_link_arm
link_lengths = 0.5, 0.4
link_masses = 4, 2.5
motor_inertias = 1, 1
K = diag(1e4, 1e4)
D = diag(0, 0)
gravity = false

[controller]
J_e = diag(1, 1)
K_e = diag(2e4, 2e4)

[outer_loop]
K_phi = 1000
D_phi = 135

[nonlinear_target]
K_theta = 1000
D_theta = 135
q_d = 0

[sweep]
J_e = 1, 0.5, 0.25

[sim]
dt = 5e-5
T = 1.5
input = step(10, 2, 0)
"""


def _claim(check: str, values, fmt: str, strict: bool = False) -> tuple:
    """``summary.csv`` row of the claim that ``values`` never increase, up to
    1e-12, or with ``strict`` that they decrease; the detail lists them."""
    ok = all(b < a if strict else b <= a + 1e-12 for a, b in zip(values, values[1:]))
    return check, "pass" if ok else "fail", " -> ".join(format(v, fmt) for v in values)


def reproduce_paper(outdir: Path) -> list:
    """Run the bundled studies and write all artifacts plus ordering checks.

    The single-joint study sweeps the gain grid and emits the Bode and
    pole-zero maps against the target admittance; the two-link study steps
    the second joint and sweeps the shaped inertia against the tracking
    target.  ``summary.csv`` records every ordering claim with its status.
    """
    outdir = Path(outdir)
    cfg1 = parse_config(ONEDOF_STUDY)
    cfg2 = parse_config(TWOLINK_STUDY)

    errors = run_bode(cfg1, outdir / "onedof")
    kf_values = sorted({kf for kf, _ in errors})
    kg_values = sorted({kg for _, kg in errors})
    summary = []
    for kf in kf_values:
        summary.append(_claim(f"bode_err_nonincreasing_in_kg_at_kf={kf:g}",
                              [errors[(kf, kg)] for kg in kg_values], ".3f"))
    for kg in kg_values:
        hi, lo = errors[(kf_values[-1], kg)], errors[(kf_values[0], kg)]
        ok = hi <= lo + 1e-12
        summary.append((f"bode_err_high_kf_not_worse_at_kg={kg:g}",
                        "pass" if ok else "fail", f"{hi:.3f} <= {lo:.3f}"))

    dists = run_pzmap(cfg1, outdir / "onedof")
    for kf in kf_values:
        summary.append(_claim(f"pz_dist_nonincreasing_in_kg_at_kf={kf:g}",
                              [dists[(kf, kg)] for kg in kg_values], ".4f"))
    for kg in kg_values:
        summary.append(_claim(f"pz_dist_nonincreasing_in_kf_at_kg={kg:g}",
                              [dists[(kf, kg)] for kf in kf_values], ".4f"))
    summary.append(_claim("pz_dist_nonincreasing_along_diagonal",
                          [dists[pair] for pair in zip(kf_values, kg_values)], ".4f"))

    _, loops = _gain_study(cfg1, "positive-real")
    verdicts = {positive_real_check(ss_to_tf(ss)).verdict for _, _, ss in loops}
    summary.append(("positive_real_all_gain_combos",
                    "pass" if all(v == "passive" for v in verdicts) else "fail",
                    ",".join(sorted(verdicts))))

    sim_summary = run_simulate(cfg2, outdir / "twolink")
    summary.append(_claim("sim_l2_strictly_decreasing_in_sweep",
                          [row[2] for row in sim_summary], ".6g", strict=True))
    worst_rel_audit = max(row[3] / max(row[4], 1e-12) for row in sim_summary)
    summary.append(("sim_passivity_audit", "pass" if worst_rel_audit <= 1e-6 else "fail",
                    f"max residual {worst_rel_audit:.3e} of the energy scale"))

    write_csv(outdir / "summary.csv", ["check", "status", "detail"],
              np.empty((len(summary), 0)), summary)
    return summary


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _load_config(path: str) -> ExperimentConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def _outdir(out: str | None, cfg: ExperimentConfig) -> Path:
    """``--out``, else the configuration's ``[output] dir``."""
    out = out if out is not None else cfg.output.get("dir")
    if out is None:
        raise ConfigurationError("no output directory: pass --out or set [output] dir")
    return Path(out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flexjoint",
                                     description="Impedance shaping toolkit for "
                                                 "flexible-joint robots")
    parser.add_argument("--version", action="version", version=f"flexjoint {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, config=True, out=True):
        p = sub.add_parser(name, help=help_text)
        if config:
            p.add_argument("--config", required=True, help="configuration file")
        if out:
            fallback = ", else [output] dir" if name in ("bode", "pzmap", "simulate") else ""
            p.add_argument("--out", required=(name == "reproduce-paper"),
                           help="output directory" + fallback)
        return p

    add("synth", "print controller gains and shaped parameters")
    p = add("bode", "frequency-response sweep")
    p.add_argument("--grid-points", type=int, default=400)
    add("pzmap", "pole-zero sweep")
    p = add("simulate", "time-domain simulation")
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p = add("verify", "randomized self-checks", out=False)
    p.add_argument("--seed", type=int, default=0)
    add("reproduce-paper", "run the bundled reference studies", config=False)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config) if args.command != "reproduce-paper" else None
        if args.command == "synth":
            run_synth(cfg, Path(args.out) if args.out else None)
        elif args.command == "bode":
            run_bode(cfg, _outdir(args.out, cfg), args.grid_points)
        elif args.command == "pzmap":
            run_pzmap(cfg, _outdir(args.out, cfg))
        elif args.command == "simulate":
            run_simulate(cfg, _outdir(args.out, cfg), args.dt, args.horizon)
        elif args.command == "verify":
            lines, ok = run_verify(cfg, args.seed)
            print("\n".join(lines))
            if not ok:
                return EXIT_VERIFY_FAILED
        elif args.command == "reproduce-paper":
            start = time.monotonic()
            summary = reproduce_paper(Path(args.out))
            elapsed = time.monotonic() - start
            for check, status, detail in summary:
                print(f"{status.upper():4s} {check}: {detail}")
            print(f"completed in {elapsed:.1f} s")
            if any(status != "pass" for _, status, _ in summary):
                return EXIT_VERIFY_FAILED
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (FlexJointError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
