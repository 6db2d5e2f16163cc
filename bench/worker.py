"""One workload in one fresh process; started by run.py, prints one JSON line.

Modes:
  setup  import cosetwalk, prepare inputs, run and check one cold iteration.
  run    the same, then untraced iterations until --seconds have passed.
  trace  the same cold iteration, then pairs of one untraced and one traced
         iteration until --seconds have passed; spans go to --spans.

Only the standard library is imported before the clock starts, so set-up
time includes importing cosetwalk and numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracer as tracing
import workloads

MIN_ITERATIONS = 3
MIN_TRACE_PAIRS = 2


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


class Calibration:
    """A fixed reference kernel timed next to every iteration.

    The host's speed drifts by tens of percent over seconds to minutes, and
    the drift hits this kernel and the workload alike, so run.py divides
    each iteration's time by the kernel time measured around it.  The mix
    (bytecode, small LAPACK eigensolves, a lattice roll) follows the
    workloads'; nothing in it comes from cosetwalk.
    """

    REPEATS = 5

    def __init__(self) -> None:
        import numpy as np

        # fixed data without numpy.random, whose import would add to peak RSS
        self._np = np
        self._small = np.exp(1j * np.arange(16 * 8 * 8).reshape(16, 8, 8) ** 1.5)
        self._grid = np.cos(np.arange(128 * 128 * 2).reshape(128, 128, 2)) + 0j

    def _kernel(self) -> None:
        total = 0
        for i in range(20000):
            total += i * i
        for m in self._small:
            self._np.linalg.eig(m)
        self._np.roll(self._grid, 1, axis=(0, 1))

    def measure(self) -> float:
        """Median time of the kernel over REPEATS runs."""
        times = []
        for _ in range(self.REPEATS):
            start = perf_counter()
            self._kernel()
            times.append(perf_counter() - start)
        return statistics.median(times)


class Client:
    """Runs iterations of one workload one after another and keeps the tally."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.calibration = Calibration()
        self.attempted = 0
        self.failed = 0
        self.last_result = None
        # (iteration root, check root) span ids of passing traced iterations
        self.traced_roots: list[tuple[int, int]] = []

    def iteration(self, tracer: tracing.Tracer | None = None,
                  cold: bool = False) -> tuple[float, float, bool]:
        """Wall time of one iteration, the calibration time around it, and
        whether the untimed output check passed.

        A cold iteration is calibrated after it only: calibrating before
        would import numpy ahead of the set-up clock.
        """
        self.attempted += 1
        wall = 0.0
        roots = None
        before = None if cold else self.calibration.measure()
        try:
            start = perf_counter()
            with _record(tracer, tracing.ITERATION) as iteration_root:
                result = self.workload.iterate()
            wall = perf_counter() - start
            speed = self._speed(before)
            with _record(tracer, tracing.CHECK) as check_root:
                failures = self.workload.check(result)
            if tracer is not None:
                roots = (iteration_root, check_root)
        except Exception:  # an iteration that raises is a failed iteration
            traceback.print_exc()
            failures = ["iteration raised"]
            speed = 0.0
        if failures:
            self.failed += 1
            for failure in failures[:10]:
                print(f"{self.workload.name}: check failed: {failure}", file=sys.stderr)
            return wall, speed, False
        self.last_result = result
        if roots is not None:
            self.traced_roots.append(roots)
        return wall, speed, True

    def _speed(self, before: float | None) -> float:
        after = self.calibration.measure()
        return after if before is None else (before + after) / 2.0


def _record(tracer: tracing.Tracer | None, name: str):
    return contextlib.nullcontext() if tracer is None else tracer.root(name)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--root", type=Path, required=True, help="checkout whose src/ to import")
    parser.add_argument("--spans", type=Path, help="span file for --mode trace")
    args = parser.parse_args(argv)

    start = perf_counter()
    cosetwalk = importlib.import_module("cosetwalk")
    expected = (args.root / "src" / "cosetwalk").resolve()
    if Path(cosetwalk.__file__).resolve().parent != expected:
        raise SystemExit(f"imported cosetwalk from {cosetwalk.__file__}, not {expected}")
    importlib.import_module("cosetwalk.cli")
    workload = workloads.WORKLOADS[args.workload]()
    workload.prepare(random.Random(args.seed), args.workdir)
    prepared = perf_counter() - start
    client = Client(workload)
    cold_wall, cold_calibration, _ = client.iteration(cold=True)
    report = {"setup_s": prepared + cold_wall, "setup_calibration_s": cold_calibration,
              "env": _environment()}

    # (wall, calibration) of passing warm iterations, untraced and traced
    walls: list[tuple[float, float]] = []
    traced: list[tuple[float, float]] = []
    loop_start = perf_counter()

    def more(done: int, minimum: int) -> bool:
        return done < minimum or perf_counter() - loop_start < args.seconds

    if args.mode == "run":
        while more(len(walls), MIN_ITERATIONS):
            wall, calibration, ok = client.iteration()
            if ok:
                walls.append((wall, calibration))
            elif client.failed > client.attempted // 2:
                break
    elif args.mode == "trace":
        tracer = tracing.Tracer()
        pairs = 0
        while more(pairs, MIN_TRACE_PAIRS):
            # alternate which half of the pair runs first
            for t in ((None, tracer) if pairs % 2 == 0 else (tracer, None)):
                wall, calibration, ok = client.iteration(t)
                if ok:
                    (walls if t is None else traced).append((wall, calibration))
            pairs += 1
            if client.failed > client.attempted // 2:
                break
        summaries = []
        for iteration_root, check_root in client.traced_roots:
            summary = tracing.root_summary(tracer, iteration_root)
            for key, value in tracing.root_summary(tracer, check_root).items():
                summary[f"{tracing.CHECK}:{key}"] = value
            summaries.append(summary)
        report["layer_summaries"] = summaries
        if args.spans is not None:
            args.spans.write_text(json.dumps({
                "workload": args.workload,
                "seed": args.seed,
                "env": report["env"],
                **tracer.document(),
            }) + "\n", encoding="utf-8")
    report.update(
        attempted=client.attempted,
        failed=client.failed,
        walls=walls,
        traced_walls=traced,
        work=workload.work(client.last_result) if client.last_result is not None else 0,
        work_unit=workload.work_unit,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
