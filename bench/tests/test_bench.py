"""Self-test of the benchmark: run it from the repository root with

    python3 -m pytest bench/tests -q

It runs every workload traced twice on one seed and untraced once on
another (a few minutes on two cores).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = run.WORKLOADS
EXACT_UNITS = {"count", "B"}


def _bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"][1] == "bench/run.py"
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(run.END_TO_END)
    per_layer = set(run.PER_LAYER) | {("trace.overhead_frac", "ratio")}
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == per_layer


def test_tracer_records_spans_and_restores_the_package():
    import importlib

    spectral = importlib.import_module("cosetwalk.spectral")
    examples = importlib.import_module("cosetwalk.examples")
    original = spectral.band_phases
    tracer = tracing.Tracer()
    with tracer.root(tracing.ITERATION) as root:
        assert spectral.band_phases is not original
        walk = examples.g1_walk(examples.G1Params("II", 0.6, 0.8, 1))
        spectral.band_curvature(walk, (0.0, 0.0), 4)
    assert spectral.band_phases is original
    summary = tracing.root_summary(tracer, root)
    # gradient (1 + 2d) + center + two step sizes x two sides x d axes, d = 2
    assert summary["spectral.band_phases.calls"] == 14
    assert summary["coarse.kspace_operators.calls"] == 14
    assert summary["coarse.operators.bytes_computed"] == 14 * 8 * 8 * 16
    assert 0 < summary["spectral.band_curvature.self_s"] < summary["spectral.band_curvature.s"]
    for index, (_, parent, start, end) in enumerate(tracer.spans):
        assert end >= start
        assert parent is None or parent < index


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_a_second_seed_passes(workload):
    first = _result(_bench(ROOT, workload, 7, 1))
    second = _result(_bench(ROOT, workload, 7, 1))
    counts = [name for name, unit in run.PER_LAYER if unit in EXACT_UNITS]
    assert first["correct"] and second["correct"]
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    other = _result(_bench(ROOT, workload, 8, 0))
    assert other["correct"] and other["failed"] == 0
    assert set(other["metrics"]) == {name for name, _ in run.END_TO_END}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "verify", 1, 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
