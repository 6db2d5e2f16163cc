"""The four benchmark workloads.

Each workload turns the benchmark seed into program inputs (``prepare``),
runs one closed-loop iteration (``iterate``, the timed part), and checks
that iteration's outputs (``check``, untimed, returns failure messages).
CLI workloads call ``cosetwalk.cli.main(argv)`` in-process.  Library
functions are always looked up as module attributes at call time, so the
tracer's wrappers see the calls.

Why these four: ``dispersion`` is the large-batch eigensolve plus oracle
path, ``evolve`` is position stepping with no eigensolve, ``verify`` is the
constraint layer with no k-space work, and ``kinematics`` is the one-k-point
path through the same eigen kernel that ``dispersion`` drives in bulk.
Each should stay flat when another's layer is optimized.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import math
import re
from pathlib import Path

GRID = 129
TORUS = 128
STEPS = 100
SUITE_SAMPLES = 1000
KINEMATICS_NUS = 50
NU_RANGE = (0.1, 0.9)
K_RANGE = (0.2, 1.2)
NORM_DRIFT_TOL = 1e-12
FOURIER_TOL = 1e-10
PROBABILITY_SUM_TOL = 1e-10
CURVATURE_TOL = 1e-4
VELOCITY_TOL = 1e-6


def _mod(name: str):
    return importlib.import_module(f"cosetwalk.{name}")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and captured stdout of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = _mod("cli").main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _g1_params(rng, walk_class: str) -> str:
    """--params text for g1 with effective weight nu drawn from NU_RANGE."""
    nu = rng.uniform(*NU_RANGE)
    other = math.sqrt(1.0 - nu * nu)
    n, m = (other, nu) if walk_class == "I" else (nu, other)
    sign = rng.choice("+-")
    return f"n={n!r},m={m!r},class={walk_class},sign={sign}"


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as stream:
        rows = list(csv.reader(stream))
    return rows[0], rows[1:]


def _float_after(prefix: str, text: str) -> float | None:
    match = re.search(re.escape(prefix) + r"\s*(\S+)", text)
    return float(match.group(1)) if match else None


def _expect(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


class Dispersion:
    """``dispersion --example g1 --grid 129 --oracle --out``: one fiber build,
    one batched eig over 16 641 k-points, the per-k oracle and the CSV."""

    name = "dispersion"
    work_unit = "k-points/s"

    def prepare(self, rng, workdir: Path):
        self.params = _g1_params(rng, rng.choice(("I", "II")))
        self.out = workdir / "dispersion.csv"
        self.argv = ["dispersion", "--example", "g1", "--params", self.params,
                     "--grid", str(GRID), "--oracle", "--out", str(self.out)]

    def iterate(self):
        return run_cli(self.argv)

    def check(self, result) -> list[str]:
        code, stdout = result
        failures: list[str] = []
        _expect(failures, code == 0, f"exit code {code}")
        deviation = _float_after("oracle deviation:", stdout)
        tolerance = _mod("cli").ORACLE_TOLERANCE
        _expect(failures, deviation is not None and deviation < tolerance,
                f"oracle deviation {deviation} not below {tolerance}")
        header, rows = _read_csv(self.out)
        expected = ["k_1", "k_2"] + [f"omega_{i}" for i in range(1, 9)]
        _expect(failures, header == expected, f"CSV header {header}")
        _expect(failures, len(rows) == GRID * GRID, f"CSV has {len(rows)} rows")
        _expect(failures, all(len(r) == len(expected) for r in rows), "ragged CSV rows")
        return failures

    def work(self, result) -> int:
        return GRID * GRID


class Evolve:
    """``evolve --example g1 --torus 128 --steps 100 --init delta --out``:
    position stepping and the probability CSV; checked against
    ``evolve_fourier`` after the timed iteration."""

    name = "evolve"
    work_unit = "site-steps/s"

    def prepare(self, rng, workdir: Path):
        self.params = _g1_params(rng, rng.choice(("I", "II")))
        self.out = workdir / "probability.csv"
        self.argv = ["evolve", "--example", "g1", "--params", self.params,
                     "--torus", str(TORUS), "--steps", str(STEPS), "--init", "delta",
                     "--out", str(self.out)]
        # keep the command's final state for the Fourier check: one extra
        # Python call per iteration, in traced and untraced runs alike
        cli = _mod("cli")
        original = cli.evolve
        self.captured: dict = {}

        def keep(walk, state, steps):
            final = original(walk, state, steps)
            self.captured.update(walk=walk, initial=state, steps=steps, final=final)
            return final

        cli.evolve = keep

    def iterate(self):
        self.captured.clear()
        return run_cli(self.argv)

    def check(self, result) -> list[str]:
        import numpy as np

        code, stdout = result
        failures: list[str] = []
        _expect(failures, code == 0, f"exit code {code}")
        drift = _float_after(f"norm drift after {STEPS} steps:", stdout)
        _expect(failures, drift is not None and drift < NORM_DRIFT_TOL,
                f"norm drift {drift} not below {NORM_DRIFT_TOL}")
        header, rows = _read_csv(self.out)
        _expect(failures, header == ["site_1", "site_2", "coset", "probability"],
                f"CSV header {header}")
        _expect(failures, len(rows) == TORUS * TORUS * 4, f"CSV has {len(rows)} rows")
        total = math.fsum(float(r[3]) for r in rows)
        _expect(failures, abs(total - 1.0) < PROBABILITY_SUM_TOL,
                f"probabilities sum to {total!r}")
        if "final" not in self.captured:
            failures.append("the evolve command never produced a state")
            return failures
        c = self.captured
        reference = _mod("evolve").evolve_fourier(c["walk"], c["initial"], c["steps"])
        deviation = float(np.abs(c["final"].amplitudes - reference.amplitudes).max())
        _expect(failures, deviation < FOURIER_TOL,
                f"step vs Fourier deviation {deviation:.3e} not below {FOURIER_TOL}")
        return failures

    def work(self, result) -> int:
        return TORUS * TORUS * STEPS


class Verify:
    """``suite --samples 1000`` then ``validate --isotropy`` on four
    built-in walk-spec files exported during set-up: the constraint layer."""

    name = "verify"
    work_unit = "families/s"

    def prepare(self, rng, workdir: Path):
        self.suite_argv = ["suite", "--samples", str(SUITE_SAMPLES),
                           "--seed", str(rng.randrange(2**31))]
        specs = (
            ("g1", _g1_params(rng, "I"), "sigma_x"),
            ("g1", _g1_params(rng, "II"), "sigma_x"),
            ("g2", "class=I", "sigma_z"),
            ("g2", "class=II", "sigma_x"),
        )
        self.validate_argvs = []
        for i, (example, params, coin) in enumerate(specs):
            path = workdir / f"walk{i}.json"
            code, _ = run_cli(["show-example", example, "--params", params, "--out", str(path)])
            if code != 0:
                raise RuntimeError(f"show-example {example} {params} exited {code}")
            self.validate_argvs.append(["validate", str(path), "--isotropy", coin])

    def iterate(self):
        return [run_cli(self.suite_argv)] + [run_cli(a) for a in self.validate_argvs]

    def check(self, result) -> list[str]:
        (code, stdout), validations = result[0], result[1:]
        failures: list[str] = []
        _expect(failures, code == 0, f"suite exit code {code}")
        lines = stdout.splitlines()
        _expect(failures, len(lines) == 5 and all(l.startswith("PASS") for l in lines),
                f"suite lines {lines}")
        _expect(failures, _suite_families(stdout) is not None, "suite counts not reported")
        for argv, (code, stdout) in zip(self.validate_argvs, validations):
            _expect(failures, code == 0, f"{' '.join(argv)} exit code {code}")
            for line in ("tiling: ok", "unitarity: ok", "isotropy: ok"):
                _expect(failures, line in stdout, f"{argv[1]}: missing {line!r}")
        return failures

    def work(self, result) -> int:
        return _suite_families(result[0][1]) + len(self.validate_argvs)


def _suite_families(stdout: str) -> int | None:
    """Walk families whose constraints the suite scored, from its own report."""
    members = re.search(r"(\d+) members", stdout)
    closure = re.search(r"(\d+) extra mixing unitaries", stdout)
    scalar = re.search(r"(\d+)/\d+ and (\d+)/\d+ rejected", stdout)
    if not (members and closure and scalar):
        return None
    g2_variants = 2
    return (int(members.group(1)) + int(closure.group(1)) + g2_variants
            + int(scalar.group(1)) + int(scalar.group(2)))


class Kinematics:
    """``band_curvature`` at k=0 and ``group_velocity`` at a seeded k for g1
    class II at 50 seeded weights: single-k solves no CLI command reaches."""

    name = "kinematics"
    work_unit = "stencils/s"

    def prepare(self, rng, workdir: Path):
        import numpy as np

        closed_form = _mod("examples").g1_closed_form
        self.cases = []
        for _ in range(KINEMATICS_NUS):
            nu = rng.uniform(*NU_RANGE)
            k = (rng.uniform(*K_RANGE), rng.uniform(*K_RANGE))
            alpha = nu * math.sqrt(0.5 * (math.cos(k[0] / 2) ** 2 + math.cos(k[1] / 2) ** 2))
            # sorted bands come in degenerate pairs; either index of the
            # +arccos pair is the same band
            curvature_band = int(np.argmin(np.abs(closed_form((0.0, 0.0), nu) - math.acos(nu))))
            velocity_band = int(np.argmin(np.abs(closed_form(k, nu) - math.acos(alpha))))
            self.cases.append((nu, k, alpha, curvature_band, velocity_band))

    def iterate(self):
        examples, spectral = _mod("examples"), _mod("spectral")
        out = []
        for nu, k, _, curvature_band, velocity_band in self.cases:
            walk = examples.g1_walk(examples.G1Params("II", nu, math.sqrt(1.0 - nu * nu), 1))
            curvature = spectral.band_curvature(walk, (0.0, 0.0), curvature_band)
            velocity = spectral.group_velocity(walk, k, velocity_band)
            out.append((curvature, velocity))
        return out

    def check(self, result) -> list[str]:
        failures: list[str] = []
        for (nu, k, alpha, _, _), (curvature, velocity) in zip(self.cases, result):
            expected = nu / (8.0 * math.sqrt(1.0 - nu * nu))
            worst = max(abs(c - expected) for c in curvature)
            _expect(failures, worst < CURVATURE_TOL,
                    f"nu={nu!r}: curvature off by {worst:.3e}")
            norm = math.sqrt(math.cos(k[0] / 2) ** 2 + math.cos(k[1] / 2) ** 2)
            for axis in (0, 1):
                half = k[axis] / 2
                dalpha = -nu * math.sin(half) * math.cos(half) / (2.0 * math.sqrt(2.0) * norm)
                exact = -dalpha / math.sqrt(1.0 - alpha * alpha)
                _expect(failures, abs(velocity[axis] - exact) < VELOCITY_TOL,
                        f"nu={nu!r} k={k}: velocity[{axis}] off by {abs(velocity[axis] - exact):.3e}")
        _expect(failures, len(result) == len(self.cases), "missing kinematics results")
        return failures

    def work(self, result) -> int:
        return 2 * len(self.cases)


WORKLOADS = {w.name: w for w in (Dispersion, Evolve, Verify, Kinematics)}
