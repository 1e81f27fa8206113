"""The benchmark's workloads: inputs made from a seed, passes, checks.

Each workload has a ``setup(seed, size, outdir)`` that builds from the
seed everything its passes need (configs parsed, plants built,
controllers synthesized), and a ``run_pass(state, rec, index)`` that does
one pass of work.  Every call into flexjoint goes through ``rec.call``,
so a traced pass records a span around it, and every output is checked
at the acceptance suite's tolerances (tests/test_acceptance.py).
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from flexjoint import (
    InputSignal,
    LinearRobotParams,
    OpenLoopState,
    OuterLoop,
    RootFindingError,
    Scenario,
    StateSpace,
    assemble_closed_loop,
    equivalence_residual,
    freq_response,
    passivity_audit,
    poles_zeros,
    positive_real_check,
    recover_shaped,
    simulate_closed_form,
    simulate_plant_with_controller,
    ss_to_tf,
    stability_dt_cap,
    synthesize_gains,
)
from flexjoint.cli import ONEDOF_STUDY, TWOLINK_STUDY, run_bode, run_pzmap, run_simulate
from flexjoint.config import (
    build_controller_spec,
    build_input,
    build_outer_loop,
    build_plant,
    parse_config,
)

# Acceptance tolerances, unchanged from tests/test_acceptance.py.
TOL_CHART = 1e-6          # plant chart vs shaped chart, relative
TOL_PASSIVITY = 1e-6      # dissipation residual over the energy scale
TOL_EQUIVALENCE = 1e-8    # pointwise equivalence residual
TOL_ROUNDTRIP = 1e-10     # gains -> shaped -> gains
TOL_TF = 1e-6             # transfer function vs resolvent, relative
TOL_DRIFT = 1e-6          # energy drift of a lossless run, relative

ONEDOF_DT = 2e-5          # step of the bundled 1-DOF study
TWOLINK_DT = 5e-5         # step of the bundled two-link study
# The bundled sweep's L2 ordering (strictly decreasing in J_e) first holds
# at a 0.3 s horizon; 0.35 s keeps a margin while a pass stays short.
TWOLINK_T = 0.35
ENVIRONMENT = "[environment]\nM_h = 1\nD_h = 2\nK_h = 50\n"
BODE_GRID = np.logspace(-2, 3, 400)
DESIGN_POOLS = 4          # passes cycle through this many disjoint design sets


@dataclass(frozen=True)
class Size:
    """Work per pass: RK4 steps per run, designs, input variants."""

    onedof_steps: int = 1500
    pairs: int = 4
    pair_steps: int = 1000
    designs: int = 100
    short_steps: int = 200
    variants: int = 8


FULL = Size()
TINY = Size(onedof_steps=400, pairs=1, pair_steps=50, designs=8, short_steps=50, variants=2)


class PassRecord:
    """What a pass did: latency per operation, RK4 steps, CSV bytes written,
    failed operations, and the accuracy figures its checks measured.  With
    a gauge, the host's speed is sampled before operations."""

    def __init__(self, tracer, gauge=None):
        self.tracer = tracer
        self.gauge = gauge
        self.call = tracer.call
        self.op_s = []
        self.wall_s = 0.0
        self.steps = 0
        self.csv_bytes = 0
        self.counts = Counter()
        self.accuracy = {}
        self.failures = []     # (op index, op name, reason)
        self.defects = []      # the same, for the recorded ss_to_tf defect
        self._op = (-1, "")

    @contextmanager
    def op(self, name):
        """One operation: timed, and failed by any exception it raises."""
        if self.gauge is not None:
            self.gauge.sample()
        self._op = (len(self.op_s), name)
        start = perf_counter()
        try:
            with self.tracer.operation(name):
                yield
        except Exception as exc:  # a raising call fails its operation; the pass goes on
            self.fail(f"{type(exc).__name__}: {exc}")
        finally:
            self.op_s.append(perf_counter() - start)

    def fail(self, reason):
        self.failures.append((*self._op, reason))

    def require(self, ok, reason):
        if not ok:
            self.fail(reason)

    def gate(self, name, value, tol):
        """Keep the worst ``value`` seen as accuracy figure ``name``; fail
        the operation when it exceeds ``tol`` (or is not a number)."""
        value = float(value)
        worst = self.accuracy.get(name)
        if worst is None or not value <= worst:
            self.accuracy[name] = value
        self.require(value <= tol, f"{name} = {value:.3e} exceeds {tol:g}")

    def tf_failure(self, n, reason):
        """ss_to_tf raised or disagreed with the resolvent.  For n >= 2 this
        is a known defect of the program and is counted apart from the
        failures; for one joint, which the program's tests cover, it fails."""
        self.counts["lti.ss_to_tf.failed"] += 1
        if n >= 2:
            self.defects.append((*self._op, reason))
        else:
            self.fail(reason)

    def add_csv(self, directory):
        self.csv_bytes += sum(p.stat().st_size for p in Path(directory).glob("*.csv"))

    @property
    def attempted(self):
        return len(self.op_s)

    @property
    def failed(self):
        return len({f[0] for f in self.failures})

    @property
    def not_ok(self):
        return len({f[0] for f in self.failures + self.defects})


def relative_mismatch(a, b):
    scale = max(float(np.max(np.abs(a))), 1e-12)
    return float(np.max(np.abs(a - b))) / scale


def passivity_rel(result):
    """Dissipation residual over the energy scale max |H|: the acceptance
    suite's max H whenever H >= 0; a gravity potential can make H negative."""
    return passivity_audit(result) / max(float(np.max(np.abs(result.H))), 1e-12)


def check_summary(rec, rows):
    """Dissipation check on the rows of ``cli.run_simulate``'s summary."""
    for row in rows:
        rec.gate("sim.passivity_rel_max", row[3] / max(row[4], 1e-12), TOL_PASSIVITY)


def chart_pair(rec, sc, steps, kind, fields):
    """The same scenario in the plant chart and in the shaped chart; returns
    both results (None for one whose operation failed)."""
    plant = closed = None
    with rec.op(f"plant_{kind}"):
        plant = rec.call(f"sim.plant_{kind}", simulate_plant_with_controller, sc, per=steps)
        rec.steps += steps
        rec.gate("sim.passivity_rel_max", passivity_rel(plant), TOL_PASSIVITY)
    with rec.op(f"closed_{kind}"):
        closed = rec.call(f"sim.closed_{kind}", simulate_closed_form, sc, per=steps)
        rec.steps += steps
        rec.gate("sim.passivity_rel_max", passivity_rel(closed), TOL_PASSIVITY)
        if plant is not None:
            rec.gate("sim.chart_mismatch_max",
                     max(relative_mismatch(getattr(plant, f), getattr(closed, f))
                         for f in fields), TOL_CHART)
    return plant, closed


# ---------------------------------------------------------------------------
# onedof_sim: the bundled paper plant in all three constant-mass charts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OnedofVariant:
    cfg: object           # plant chart config
    cfg_coupled: object   # the same with an [environment] section
    scenario: Scenario    # shaped chart and its plant-chart twin, seeded x0


@dataclass(frozen=True)
class OnedofState:
    variants: list
    steps: int
    outdir: Path


def onedof_setup(seed, size, outdir):
    rng = np.random.default_rng(seed)
    T = size.onedof_steps * ONEDOF_DT
    head = ONEDOF_STUDY.split("[sim]")[0]
    variants = []
    for i in range(size.variants):
        amplitude = rng.uniform(0.5, 2.0)
        if i % 2 == 0:
            # Onset on the step grid, since a jump inside an RK4 step drops the
            # supply integral to first order, and in the first tenth of the
            # run, so the energy stored by the end dwarfs rounding at the jump.
            onset = int(rng.integers(size.onedof_steps // 10)) * ONEDOF_DT
            spec = f"step({amplitude!r}, 1, {onset!r})"
        else:
            spec = f"sinusoid({amplitude!r}, {rng.uniform(50.0, 500.0)!r}, 1)"
        text = f"{head}[sim]\ndt = {ONEDOF_DT!r}\nT = {T!r}\ninput = {spec}\n"
        cfg = parse_config(text)
        plant = build_plant(cfg)
        gains = build_controller_spec(cfg)
        q = rng.normal(0.0, 1e-2)
        x0 = OpenLoopState(q, q + rng.normal(0.0, 1e-5), rng.normal(0.0, 5e-2),
                           rng.normal(0.0, 5e-2))
        sc = Scenario(plant=plant, controller=recover_shaped(plant, gains.K_F, gains.K_G),
                      outer=build_outer_loop(cfg, plant.n), input=build_input(cfg),
                      T=T, dt=ONEDOF_DT, x0=x0)
        variants.append(OnedofVariant(cfg, parse_config(text + ENVIRONMENT), sc))
    return OnedofState(variants, size.onedof_steps, outdir)


def onedof_pass(st, rec, index):
    for v in st.variants:
        for kind, cfg in (("plant", v.cfg), ("coupled", v.cfg_coupled)):
            out = st.outdir / kind
            with rec.op(f"csv_{kind}"):
                rows = rec.call(f"cli.run_simulate.{kind}", run_simulate, cfg, out, per=st.steps)
                rec.steps += st.steps
                check_summary(rec, rows)
                rec.add_csv(out)
        chart_pair(rec, v.scenario, st.steps, "linear", ("q", "p", "phi", "z"))


# ---------------------------------------------------------------------------
# twolink_sweep: the bundled inertia sweep plus gravity-on chart pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwolinkState:
    cfg: object
    pairs: list           # seeded gravity-on scenarios
    pairs_per_pass: int
    sweep_steps: int
    pair_steps: int
    outdir: Path


def twolink_setup(seed, size, outdir):
    rng = np.random.default_rng(seed)
    cfg = parse_config(TWOLINK_STUDY)
    gravity_cfg = parse_config(TWOLINK_STUDY)
    gravity_cfg.plant["gravity"] = True
    gravity_cfg.outer_loop["gravity_comp"] = True
    arm = build_plant(gravity_cfg)
    spec = build_controller_spec(gravity_cfg)
    shaped = synthesize_gains(arm, spec.J_e, spec.K_e)[1]
    outer = build_outer_loop(gravity_cfg, arm.n)
    T = size.pair_steps * TWOLINK_DT
    pairs = []
    for i in range(size.variants):
        q0 = rng.normal(0.0, 0.3, 2)
        x0 = OpenLoopState.from_velocities(q0, q0, rng.normal(0.0, 0.5, 2), np.zeros(2), arm)
        signal = InputSignal.sinusoid(rng.uniform(2.0, 10.0), rng.uniform(5.0, 60.0), i % 2)
        pairs.append(Scenario(plant=arm, controller=shaped, outer=outer, input=signal,
                              T=T, dt=TWOLINK_DT, x0=x0))
    return TwolinkState(cfg, pairs, size.pairs, round(TWOLINK_T / TWOLINK_DT), size.pair_steps,
                        outdir)


def twolink_pass(st, rec, index):
    out = st.outdir / "sweep"
    with rec.op("sweep"):
        rows = rec.call("cli.run_simulate.sweep", run_simulate, st.cfg, out,
                        horizon=TWOLINK_T, per=st.sweep_steps)
        rec.steps += (len(rows) + 1) * st.sweep_steps      # the runs and the target
        check_summary(rec, rows)
        l2 = [row[2] for row in rows]
        for i, value in enumerate(l2):
            rec.accuracy[f"sim.l2_vs_target.je{i + 1}"] = value
        rec.require(all(b < a for a, b in zip(l2, l2[1:])),
                    f"L2 to the target not strictly decreasing over the sweep: {l2}")
        rec.add_csv(out)
    for k in range(st.pairs_per_pass):
        chart_pair(rec, st.pairs[(index * st.pairs_per_pass + k) % len(st.pairs)],
                   st.pair_steps, "twolink", ("q", "p", "theta", "s"))


# ---------------------------------------------------------------------------
# design_sweep: screening seeded shapings on random constant-mass plants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Design:
    plant: LinearRobotParams
    J_e: np.ndarray
    K_e: np.ndarray
    outer: OuterLoop
    states: list          # (x, tau_e, tau_u) for the equivalence residual
    signal: InputSignal


@dataclass(frozen=True)
class DesignState:
    pools: list
    short_steps: int
    cfg: object           # the bundled 1-DOF gain grid
    outdir: Path


def _rand_spd(rng, n, lo, hi):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q @ np.diag(rng.uniform(lo, hi, n)) @ q.T


def random_design(rng, n):
    """A random admissible plant and shaping, drawn as the acceptance tests
    draw them, with an outer loop and a step input."""
    plant = LinearRobotParams(n=n, M=_rand_spd(rng, n, 0.5, 4.0), J=_rand_spd(rng, n, 0.5, 4.0),
                              K=1e3 * _rand_spd(rng, n, 0.5, 2.0), D=_rand_spd(rng, n, 0.1, 1.0))
    J_e = _rand_spd(rng, n, 0.3, 3.0)
    K_e = float(rng.uniform(0.3, 3.0)) * plant.K
    outer = OuterLoop(np.diag(rng.uniform(10.0, 200.0, n)), np.diag(rng.uniform(1.0, 20.0, n)))
    states = [(OpenLoopState.unpack(rng.normal(0.0, 0.7, 4 * n), n),
               rng.normal(0.0, 2.0, n), rng.normal(0.0, 2.0, n)) for _ in range(3)]
    signal = InputSignal.step(rng.uniform(0.5, 2.0), int(rng.integers(n)))
    return Design(plant, J_e, K_e, outer, states, signal)


def design_setup(seed, size, outdir):
    rng = np.random.default_rng(seed)
    pools = [[random_design(rng, 1 + i % 4) for i in range(size.designs)]
             for _ in range(DESIGN_POOLS)]
    return DesignState(pools, size.short_steps, parse_config(ONEDOF_STUDY), outdir)


def _complex(mag_db, phase_deg):
    return 10.0 ** (mag_db / 20.0) * np.exp(1j * np.radians(phase_deg))


def _transfer_function(rec, ss, n, response_ss):
    """ss_to_tf and the steps that need its result."""
    rec.counts["lti.ss_to_tf.attempted"] += 1
    try:
        tf = rec.call("lti.ss_to_tf", ss_to_tf, ss)
    except RootFindingError as exc:
        rec.tf_failure(n, f"ss_to_tf raised RootFindingError: {exc}")
        return
    response_tf = _complex(*rec.call("lti.freq_response_tf", freq_response, tf, BODE_GRID,
                                     per=BODE_GRID.size))
    agreement = float(np.max(np.abs(response_tf - response_ss) / np.abs(response_ss)))
    if not agreement <= TOL_TF:
        rec.tf_failure(n, f"transfer function disagrees with the resolvent by {agreement:.2e}")
        return
    rec.gate("lti.tf_resolvent_agreement_max", agreement, TOL_TF)
    rec.call("lti.poles_zeros", poles_zeros, tf)
    rec.call("lti.positive_real_check", positive_real_check, tf)


def screen_design(rec, d, steps):
    n = d.plant.n
    with rec.op("design"):
        gains, shaped = rec.call("control.synthesize_gains", synthesize_gains,
                                 d.plant, d.J_e, d.K_e)
        back = rec.call("control.recover_shaped", recover_shaped, d.plant, gains.K_F, gains.K_G)
        rec.gate("control.roundtrip_err_max",
                 max(float(np.max(np.abs(a - b))) / max(float(np.max(np.abs(b))), 1e-30)
                     for a, b in ((back.J_e, shaped.J_e), (back.K_e, shaped.K_e),
                                  (back.D_e, shaped.D_e))), TOL_ROUNDTRIP)
        for x, tau_e, tau_u in d.states:
            rec.gate("transform.equivalence_residual_max",
                     rec.call("transform.equivalence_residual", equivalence_residual,
                              x, tau_e, tau_u, gains, shaped, d.plant), TOL_EQUIVALENCE)
        ss = rec.call("lti.assemble_closed_loop", assemble_closed_loop, d.plant, shaped, d.outer)
        # the first input/output pair, the one ss_to_tf converts by default
        siso = StateSpace(ss.A, ss.B[:, :1], ss.C[:1], ss.Dmat[:1, :1])
        response_ss = _complex(*rec.call("lti.freq_response_ss", freq_response, siso, BODE_GRID,
                                         per=BODE_GRID.size))
        _transfer_function(rec, ss, n, response_ss)
        sc = Scenario(plant=d.plant, controller=shaped, outer=d.outer, input=d.signal)
        dt = 0.5 * rec.call("sim.stability_dt_cap", stability_dt_cap, sc)
        result = rec.call("sim.short_run", simulate_plant_with_controller,
                          replace(sc, dt=dt, T=steps * dt))
        rec.steps += steps
        rec.gate("sim.passivity_rel_max", passivity_rel(result), TOL_PASSIVITY)


def _nonincreasing(values):
    return all(b <= a for a, b in zip(values, values[1:]))


def gain_grid_studies(rec, cfg, out):
    """run_bode and run_pzmap over the bundled 1-DOF gain grid, with the
    orderings of acceptance criteria 4 and 5."""
    with rec.op("bode"):
        errors = rec.call("cli.run_bode", run_bode, cfg, out)
        kfs = sorted({kf for kf, _ in errors})
        kgs = sorted({kg for _, kg in errors})
        rec.require(all(_nonincreasing([errors[(kf, kg)] for kg in kgs]) for kf in kfs)
                    and all(errors[(kfs[-1], kg)] <= errors[(kfs[0], kg)] for kg in kgs),
                    "Bode error ordering over the gain grid broken")
    with rec.op("pzmap"):
        dists = rec.call("cli.run_pzmap", run_pzmap, cfg, out)
        kfs = sorted({kf for kf, _ in dists})
        kgs = sorted({kg for _, kg in dists})
        rec.require(all(_nonincreasing([dists[(kf, kg)] for kg in kgs]) for kf in kfs)
                    and all(_nonincreasing([dists[(kf, kg)] for kf in kfs]) for kg in kgs)
                    and _nonincreasing([dists[pair] for pair in zip(kfs, kgs)]),
                    "dominant-pole distance ordering over the gain grid broken")
    rec.add_csv(out)


def design_pass(st, rec, index):
    for d in st.pools[index % len(st.pools)]:
        screen_design(rec, d, st.short_steps)
    gain_grid_studies(rec, st.cfg, st.outdir / "grid")


WORKLOADS = {
    "onedof_sim": (onedof_setup, onedof_pass),
    "twolink_sweep": (twolink_setup, twolink_pass),
    "design_sweep": (design_setup, design_pass),
}
