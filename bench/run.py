"""Run one workload of the flexjoint benchmark and print its metrics.

    python3 bench/run.py --workload onedof_sim --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory, and outputs (CSV files, result and span files) go to
``.bench_out/`` there.  With ``--trace 0`` the run prints the end-to-end
metrics: set-up time from fresh interpreters, then passes of the workload
for ``--seconds`` seconds.  With ``--trace 1`` it prints the per-layer
metrics: untraced passes for half the time, traced passes for the other
half, then the probes (see probes.py).  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  Exit code 2 means the benchmark could not run: the
program is missing or a set-up child failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "flexjoint"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
GAUGE_AROUND_SETUP = 5      # gauge samples before and after each set-up child
EXIT_NOT_RUN = 2

# Per-layer metrics timed by spans: (metric, unit, span name, scale).
# Each is the median over calls of the span's duration divided by its
# ``per`` (steps, frequency points, rows).  Simulation spans surround the
# public simulate call, so series reconstruction and audits are included.
SPAN_METRICS = [
    ("sim.plant_linear.us_per_step", "us", "sim.plant_linear", 1e6),
    ("sim.closed_linear.us_per_step", "us", "sim.closed_linear", 1e6),
    ("sim.coupled.us_per_step", "us", "sim.coupled", 1e6),
    ("sim.plant_twolink.us_per_step", "us", "sim.plant_twolink", 1e6),
    ("sim.closed_twolink.us_per_step", "us", "sim.closed_twolink", 1e6),
    ("sim.target.us_per_step", "us", "sim.target", 1e6),
    ("sim.integrate.us_per_step", "us", "sim.integrate", 1e6),
    ("sim.short_run.ms", "ms", "sim.short_run", 1e3),
    ("sim.stability_dt_cap.us", "us", "sim.stability_dt_cap", 1e6),
    ("model.mass_of.us", "us", "model.mass_of", 1e6),
    ("model.coriolis_of.us", "us", "model.coriolis_of", 1e6),
    ("model.kinetic_grad.us", "us", "model.kinetic_grad", 1e6),
    ("model.gravity_grad_of.us", "us", "model.gravity_grad_of", 1e6),
    ("linalg.solve.us", "us", "linalg.solve", 1e6),
    ("linalg.pencil_max_frequency.us", "us", "linalg.pencil_max_frequency", 1e6),
    ("control.synthesize_gains.us", "us", "control.synthesize_gains", 1e6),
    ("control.recover_shaped.us", "us", "control.recover_shaped", 1e6),
    ("control.nonlinear_control.us", "us", "control.nonlinear_control", 1e6),
    ("transform.equivalence_residual.us", "us", "transform.equivalence_residual", 1e6),
    ("transform.to_closed.us", "us", "transform.to_closed", 1e6),
    ("transform.from_closed.us", "us", "transform.from_closed", 1e6),
    ("lti.assemble_closed_loop.us", "us", "lti.assemble_closed_loop", 1e6),
    ("lti.ss_to_tf.us", "us", "lti.ss_to_tf", 1e6),
    ("lti.poles_zeros.us", "us", "lti.poles_zeros", 1e6),
    ("lti.positive_real_check.us", "us", "lti.positive_real_check", 1e6),
    ("lti.freq_response_ss.us_per_point", "us", "lti.freq_response_ss", 1e6),
    ("lti.freq_response_tf.us_per_point", "us", "lti.freq_response_tf", 1e6),
    ("poly.aberth_roots.deg_le4.us", "us", "poly.aberth_roots.deg_le4", 1e6),
    ("poly.aberth_roots.deg_5_16.us", "us", "poly.aberth_roots.deg_5_16", 1e6),
    ("cli.write_csv.us_per_row", "us", "cli.write_csv", 1e6),
    ("cli.run_bode.s", "s", "cli.run_bode", 1.0),
    ("cli.run_pzmap.s", "s", "cli.run_pzmap", 1.0),
    ("config.parse_config.us", "us", "config.parse_config", 1e6),
]

# Accuracy figures, worst value over the checks that measured them.
ACCURACY_METRICS = [
    ("sim.passivity_rel_max", "ratio"),
    ("sim.chart_mismatch_max", "ratio"),
    ("sim.lossless_drift", "ratio"),
    ("sim.l2_vs_target.je1", "rad_sqrt_s"),
    ("sim.l2_vs_target.je2", "rad_sqrt_s"),
    ("sim.l2_vs_target.je3", "rad_sqrt_s"),
    ("transform.equivalence_residual_max", "ratio"),
    ("control.roundtrip_err_max", "ratio"),
    ("lti.tf_resolvent_agreement_max", "ratio"),
]


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def import_program():
    """Import flexjoint from this checkout's ``src/`` and nowhere else."""
    if not (PACKAGE / "__init__.py").is_file():
        raise BenchError(f"program not found: {PACKAGE} is missing")
    sys.path.insert(0, str(PACKAGE.parent))
    import flexjoint

    if Path(flexjoint.__file__).resolve().parent != PACKAGE.resolve():
        raise BenchError(f"flexjoint was imported from {flexjoint.__file__}, not {PACKAGE}")


def provenance(seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ.get(k, "unset")
               for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": threads},
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "loadavg_start": os.getloadavg(),
    }


def git_sha():
    """Commit of the checkout, or None where it is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def measure_setup(args):
    """Median over fresh interpreters of the time from process start until
    the workload is ready (imports done, configs parsed, plants built,
    controllers synthesized), at nominal host speed with the gauge sampled
    around each child.  CLOCK_MONOTONIC is shared between processes."""
    from gauge import Gauge

    times = []
    for _ in range(SETUP_REPEATS):
        gauge = Gauge()
        for _ in range(GAUGE_AROUND_SETUP):
            gauge.sample(force=True)
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--size", args.size, "--setup-only"],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed:\n{proc.stderr}")
        ready = float(proc.stdout.split()[-1])
        for _ in range(GAUGE_AROUND_SETUP):
            gauge.sample(force=True)
        times.append((ready - start) * gauge.scale)
    return statistics.median(times)


def run_passes(run_pass, state, tracer, seconds):
    """Passes until ``seconds`` have gone by; at least one.  A pass's wall
    time leaves out the gauge's samples taken inside it."""
    from gauge import Gauge
    from workloads import PassRecord

    records = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        gauge = Gauge()
        rec = PassRecord(tracer, gauge)
        gauge.sample(force=True)
        spent = gauge.spent
        t0 = time.perf_counter()
        run_pass(state, rec, len(records))
        rec.wall_s = time.perf_counter() - t0 - (gauge.spent - spent)
        gauge.sample(force=True)
        records.append(rec)
    return records


def nominal_wall_s(records):
    return statistics.median(r.wall_s * r.gauge.scale for r in records)


def end_to_end(records, setup_s):
    """End-to-end metrics; times at nominal host speed (see gauge.py)."""
    op_s = [s * r.gauge.scale for r in records for s in r.op_s]
    attempted = sum(r.attempted for r in records)
    not_ok = sum(r.not_ok for r in records)
    values = {
        "setup_s": (setup_s, "s"),
        "wall_s": (nominal_wall_s(records), "s"),
        "steps_per_s": (statistics.median(r.steps / (r.wall_s * r.gauge.scale)
                                          for r in records), "1/s"),
        "ops_per_s": (statistics.median(r.attempted / (r.wall_s * r.gauge.scale)
                                        for r in records), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(op_s), "ms"),
        "op_p90_ms": (1e3 * statistics.quantiles(op_s, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "ok_frac": ((attempted - not_ok) / attempted, "ratio"),
    }
    info = {"ops": len(op_s), "passes": len(records),
            "measured_wall_s": statistics.median(r.wall_s for r in records),
            "gauge_scale": statistics.median(r.gauge.scale for r in records)}
    return values, info


def worst_accuracy(records):
    worst = {}
    for rec in records:
        for name, value in rec.accuracy.items():
            if name not in worst or not value <= worst[name]:
                worst[name] = value
    return worst


def per_layer(records, tracer, probe, probe_tracer, overhead_s):
    """Per-layer metrics from the traced passes, with the probes filling in
    what the workload does not call.  Returns values and their sources."""
    values, source = {}, {}

    def put(name, value, unit, src):
        values[name] = (value, unit)
        source[name] = src

    for name, unit, span, scale in SPAN_METRICS:
        for src, tr in (("probe", probe_tracer), ("workload", tracer)):
            median = tr.median(span)
            if median is not None:
                put(name, scale * median, unit, src)

    steps = statistics.median(r.steps for r in records)
    put("sim.steps", steps, "count", "workload")
    put("sim.field_evals", 4 * steps, "count", "computed: 4 per RK4 step")
    tf_counts = {k: sum(r.counts[k] for r in records)
                 for k in ("lti.ss_to_tf.attempted", "lti.ss_to_tf.failed")}
    tf_src = "workload"
    if tf_counts["lti.ss_to_tf.attempted"] == 0:
        tf_counts = {k: probe.counts[k] for k in tf_counts}
        tf_src = "probe"
    attempted = tf_counts["lti.ss_to_tf.attempted"]
    put("lti.ss_to_tf.attempted", attempted, "count", tf_src)
    put("lti.ss_to_tf.failed", tf_counts["lti.ss_to_tf.failed"], "count", tf_src)
    put("lti.ss_to_tf.ok_ratio", (attempted - tf_counts["lti.ss_to_tf.failed"]) / attempted,
        "ratio", f"{tf_src}, base lti.ss_to_tf.attempted")
    put("poly.aberth_roots.attempted", probe.counts["poly.aberth_roots.attempted"], "count",
        "probe")
    put("poly.aberth_roots.failed", probe.counts["poly.aberth_roots.failed"], "count", "probe")
    put("cli.csv_bytes", statistics.median(r.csv_bytes for r in records), "B",
        "workload, per pass")
    put("cli.write_csv.mb_per_s",
        probe.counts["cli.write_csv.bytes"] / probe.counts["cli.write_csv.rows"]
        / probe_tracer.median("cli.write_csv") / 1e6,
        "MB/s", "probe")

    measured = worst_accuracy(records)
    accuracy = {**worst_accuracy([probe]), **measured}
    for name, unit in ACCURACY_METRICS:
        put(name, accuracy[name], unit, "workload" if name in measured else "probe")
    put("trace.overhead_s", overhead_s, "s", "traced minus untraced wall_s")
    put("host.gauge_us", 1e6 * statistics.median(g for r in records for g in r.gauge.samples),
        "us", "gauge kernel time, measured; nominal 1500")
    return values, source


def self_time_by_layer(tracer):
    """Seconds of self time per layer: the first part of each span name,
    ``bench`` for the benchmark's own operation spans."""
    layers = {}
    for name, seconds in tracer.self_times().items():
        layer = name.split(".")[0] if "." in name else "bench"
        layers[layer] = layers.get(layer, 0.0) + seconds
    return layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["onedof_sim", "twolink_sweep", "design_sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: small passes, for the smoke test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        import_program()
        return measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_RUN


def measure(args):
    import workloads
    from probes import run_probes
    from tracing import NullTracer, Tracer

    size = workloads.FULL if args.size == "full" else workloads.TINY
    setup, run_pass = workloads.WORKLOADS[args.workload]
    outdir = OUT / args.workload
    state = setup(args.seed, size, outdir)
    if args.setup_only:
        print(time.monotonic())
        return 0

    prov = provenance(args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    if args.trace == 0:
        setup_s = measure_setup(args)
        records = run_passes(run_pass, state, NullTracer(), args.seconds)
        metrics, info = end_to_end(records, setup_s)
        sources = {}
        checked = records
    else:
        untraced = run_passes(run_pass, state, NullTracer(), args.seconds / 2)
        tracer = Tracer()
        records = run_passes(run_pass, state, tracer, args.seconds / 2)
        probe_tracer = Tracer()
        probe = workloads.PassRecord(probe_tracer)
        run_probes(args.seed, probe, OUT / "probes")
        overhead = nominal_wall_s(records) - nominal_wall_s(untraced)
        metrics, sources = per_layer(records, tracer, probe, probe_tracer, overhead)
        checked = untraced + records + [probe]
        info = {"self_s_by_layer": self_time_by_layer(tracer),
                "probe_self_s_by_layer": self_time_by_layer(probe_tracer)}
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
        probe_tracer.dump(OUT / f"{args.workload}-seed{args.seed}.probe-spans.jsonl")
    prov["loadavg_end"] = os.getloadavg()

    attempted = sum(r.attempted for r in checked)
    failed = sum(r.failed for r in checked)
    failures = [f for r in checked for f in r.failures]
    defects = [f for r in checked for f in r.defects]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"provenance": prov, "result": result, "sources": sources, "info": info,
                   "failures": failures, "defects": defects}, fh, indent=1)

    print("provenance " + json.dumps(prov))
    for key, value in info.items():
        print(f"{key} {json.dumps(value)}")
    for name, (value, unit) in metrics.items():
        note = f"  [{sources[name]}]" if name in sources else ""
        print(f"{name:40s} {value:14.6g} {unit}{note}")
    defect_ops = sum(len({f[0] for f in r.defects}) for r in checked)
    print(f"operations: {attempted} attempted, {failed} failed, {defect_ops} with the "
          "recorded ss_to_tf defect (n >= 2; counted in ok_frac, not in failed)")
    for op_index, op_name, reason in failures[:10]:
        print(f"FAILED {op_name}#{op_index}: {reason}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
