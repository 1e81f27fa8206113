"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest -q bench/test_bench.py

Takes about two minutes; the two-link sweep keeps its full horizon even
at the tiny size, because its L2 ordering check needs it.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402


def run_bench(root, workload, trace):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=600, cwd=root)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    expected = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in expected}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tracing_does_not_change_results(workload, tmp_path):
    setup, run_pass = workloads.WORKLOADS[workload]
    state = setup(3, workloads.TINY, tmp_path)
    plain = workloads.PassRecord(NullTracer())
    run_pass(state, plain, 0)
    tracer = Tracer()
    traced = workloads.PassRecord(tracer)
    run_pass(state, traced, 0)
    assert tracer.spans
    assert plain.failures == traced.failures == []
    assert plain.accuracy == traced.accuracy
    assert (plain.steps, plain.counts) == (traced.steps, traced.counts)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "onedof_sim", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
