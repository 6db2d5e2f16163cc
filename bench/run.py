"""Benchmark of the cosetwalk CLI and library, end to end and layer by layer.

    python3 bench/run.py --workload dispersion --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its src/.
Each workload runs in fresh worker processes (bench/worker.py) with BLAS
pinned to one thread.  ``--trace 0`` reports the end-to-end metrics of an
untraced run; ``--trace 1`` reports the per-layer metrics of a traced run
and writes its spans to .bench_out/.  End-to-end times are in reference
seconds: each measured time is rescaled by a calibration kernel timed next
to it (see worker.Calibration), which takes out the host's speed drift; the
measured medians are printed too.  The last line of stdout is one JSON
object; the lines before it give every metric with its unit.  The exit code
is 1 when an output check failed or a worker died, 2 when the checkout has
no cosetwalk sources.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic

from tracer import CHECK
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
# set-up is sampled in fresh processes, the measuring one included, until
# there are SETUP_MIN_SAMPLES and SETUP_SECONDS of samples, or SETUP_MAX_SAMPLES
SETUP_MIN_SAMPLES = 3
SETUP_MAX_SAMPLES = 9
SETUP_SECONDS = 5.0
# a run must end within 180 s; workers get what is left of this budget
BUDGET_S = 170.0
# calibration kernel time (worker.Calibration) at reference speed: about its
# median on the two-vCPU 2.1 GHz machine the baseline was measured on, so
# reference seconds are close to measured seconds there
CALIBRATION_REF_S = 0.0025
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# name, unit (as in BENCHMARK.json)
END_TO_END = (("wall_s", "s"), ("rate", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# name, unit; times in seconds per iteration, the rest exact counts per iteration
PER_LAYER = (
    ("coarse.kspace_operators.s", "s"),
    ("coarse.kspace_operators.calls", "count"),
    ("coarse.operators.bytes_computed", "B"),
    ("spectral.dispersion_grid.self_s", "s"),
    ("examples.grid_oracle_deviation.s", "s"),
    ("linalg.phase_multiset_distance.calls", "count"),
    ("io.save_dispersion_csv.s", "s"),
    ("io.csv.bytes", "B"),
    ("evolve.step.s", "s"),
    ("evolve.step.calls", "count"),
    ("evolve.make_delta.s", "s"),
    ("io.save_probability_csv.s", "s"),
    ("evolve.state.bytes_computed", "B"),
    ("evolve.evolve_fourier.s", "s"),
    ("examples.verification_suite.self_s", "s"),
    ("walks.unitarity_residual.s", "s"),
    ("walks.unitarity_residual.calls", "count"),
    ("linalg.operator_norm.calls", "count"),
    ("walks.check_isotropy.s", "s"),
    ("groups.validate_tiling.s", "s"),
    ("groups.validate_tiling.calls", "count"),
    ("io.load_walk.s", "s"),
    ("spectral.band_phases.s", "s"),
    ("spectral.band_phases.calls", "count"),
    ("spectral.band_curvature.self_s", "s"),
    ("spectral.group_velocity.self_s", "s"),
    ("examples.g1_walk.s", "s"),
    ("cli.main.self_s", "s"),
)
# layers timed in the output check after an iteration, outside wall_s
CHECK_LAYERS = {"evolve.evolve_fourier.s"}


class WorkerError(RuntimeError):
    pass


def _worker(mode: str, args, workdir: Path, deadline: float, spans: Path | None = None) -> dict:
    command = [sys.executable, str(BENCH / "worker.py"), "--mode", mode,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--workdir", str(workdir), "--root", str(ROOT)]
    if spans is not None:
        command += ["--spans", str(spans)]
    env = {**os.environ, **PINNED_THREADS, "PYTHONPATH": str(ROOT / "src")}
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise WorkerError(f"no time left for a {mode} worker")
    try:
        # stderr passes through; subprocess.run kills and reaps on timeout
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker ran past the time budget") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited {done.returncode}")
    return json.loads(lines[-1])


def _end_to_end(args, workdir: Path, deadline: float) -> tuple[dict, list[dict]]:
    main = _worker("run", args, workdir, deadline)
    reports = [main]
    while len(reports) < SETUP_MAX_SAMPLES and (
        len(reports) < SETUP_MIN_SAMPLES or sum(r["setup_s"] for r in reports) < SETUP_SECONDS
    ):
        reports.append(_worker("setup", args, workdir, deadline))
    if not main["walls"]:
        raise WorkerError("no iteration passed its checks")
    wall = _reference_median(main["walls"])
    values = {
        "wall_s": wall,
        "rate": main["work"] / wall,
        "setup_s": _reference_median([(r["setup_s"], r["setup_calibration_s"]) for r in reports]),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    measured = {
        "wall_s": statistics.median(w for w, _ in main["walls"]),
        "setup_s": statistics.median(r["setup_s"] for r in reports),
    }
    return values, measured, reports


def _reference_median(samples: list[tuple[float, float]]) -> float:
    """Median of times rescaled to reference speed: each (seconds,
    calibration seconds) pair becomes seconds * CALIBRATION_REF_S / calibration."""
    return statistics.median(t * CALIBRATION_REF_S / c for t, c in samples)


def _per_layer(args, workdir: Path, deadline: float) -> tuple[dict, list[dict]]:
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    report = _worker("trace", args, workdir, deadline, spans)
    summaries = report["layer_summaries"]
    if not summaries:
        raise WorkerError("no traced iteration passed its checks")
    values = {}
    for name, unit in PER_LAYER:
        key = f"{CHECK}:{name}" if name in CHECK_LAYERS else name
        samples = [s.get(key, 0) for s in summaries]
        if unit == "s":
            values[name] = statistics.median(samples)
        elif len(set(samples)) == 1:
            values[name] = samples[0]
        else:
            raise WorkerError(f"{name} differs between traced iterations: {samples}")
    if not report["walls"]:
        raise WorkerError("no untraced iteration passed its checks")
    untraced = _reference_median(report["walls"])
    values["trace.overhead_frac"] = _reference_median(report["traced_walls"]) / untraced - 1.0
    return values, {}, [report]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = monotonic() + BUDGET_S
    # on SIGTERM, unwind: subprocess.run kills and reaps the worker, and the
    # work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "cosetwalk" / "__init__.py").is_file():
        print(f"error: no cosetwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # byte-compile once so every set-up sample imports the same way
    compileall.compile_dir(str(ROOT / "src" / "cosetwalk"), quiet=1)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.trace:
            values, measured, reports = _per_layer(args, workdir, deadline)
            units = dict(PER_LAYER)
            units["trace.overhead_frac"] = "ratio"
        else:
            values, measured, reports = _end_to_end(args, workdir, deadline)
            units = dict(END_TO_END)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    env = reports[0]["env"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} blas={env['blas']} "
          f"threads={env['threads']}")
    if not args.trace:
        main_report = reports[0]
        print(f"# iterations timed={len(main_report['walls'])} "
              f"setup samples={len(reports)} work/iteration={main_report['work']} "
              f"{main_report['work_unit']}")
    for name, value in values.items():
        unit = units[name]
        if name == "rate":
            unit = f"{unit} ({reports[0]['work_unit']})"
        print(f"{args.workload}.{name} {value!r} {unit}")
    for name, value in measured.items():
        print(f"{args.workload}.{name}.measured {value!r} s (not rescaled)")
    print(f"{args.workload}.failed_frac {failed / attempted!r} ratio ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
