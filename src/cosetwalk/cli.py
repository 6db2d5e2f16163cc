"""Command-line front end.

Subcommands: validate, dispersion, evolve, show-example, suite.
Exit codes: 0 success; 1 validation/oracle failure, an invalid tiling
(TilingError) or a non-unitary walk (NonUnitaryError / EigensolveError);
2 usage or parse error.  Every error is one line on stderr.  ``dispersion``
and ``evolve`` load their walk through ``_checked_walk``, which applies the
tiling check and the unitarity bound (UNITARITY_TOLERANCE) of ``validate``;
every bound is written ``not x <= tol``, so NaN fails it.  Array sizes the
user picks are bounded before anything is allocated: the ``dispersion``
operator stack (grid^d (l s)^2 entries) and the ``evolve`` state
(torus^d l s entries) may hold at most MAX_ARRAY_ENTRIES complex entries
(256 MiB), and a command that eigensolves (``dispersion``, ``evolve --init
planewave``) takes a fiber dimension l s of at most EIGENSOLVE_MAX_DIM.
``dispersion`` reads the in-order chunk stream of ``spectral.dispersion_chunks``:
each certified chunk is scored by the oracle and spooled as CSV while the
workers solve the next, and ``--out`` is written only after the last chunk is
certified, so a failing solve leaves it as it was.
The parser is built once per process (``build_parser`` is cached); each
subcommand names its handler, which ``main`` looks up in the module globals
when the command runs, so a handler rebound after the first call still runs.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from typing import Callable

import numpy as np

from . import examples
from .evolve import TorusSizeError, evolve, make_delta, make_plane_wave
from .groups import TilingError, validate_tiling
from .io import WalkFileError, load_walk, save_dispersion_csv, save_probability_csv, save_walk
from .linalg import EIGENSOLVE_MAX_DIM, EigensolveError, NonUnitaryError
from .spectral import dispersion_chunks
from .walks import WalkSpec, check_isotropy, unitarity_residual

ORACLE_TOLERANCE = 1e-9
UNITARITY_TOLERANCE = 1e-10
MAX_ARRAY_ENTRIES = 2**24
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument errors raise UsageError, so they print one line like the rest."""

    def error(self, message: str) -> None:
        raise UsageError(message)


def _resolve_walk(args: argparse.Namespace) -> tuple[WalkSpec, Callable | None]:
    """Walk from --example (with --params) or from a walk-spec file, paired
    with the example's closed-form phases (None for a file)."""
    if args.example is not None and args.path:
        raise UsageError("give a walk-spec file or --example, not both")
    if args.example is not None:
        try:
            return examples.builtin_walk(args.example, args.params)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    if args.path:
        if args.params is not None:
            raise UsageError("--params applies only to --example")
        return load_walk(args.path), None
    raise UsageError("provide a walk-spec file or --example g1|g2")


def _bound_entries(entries: int, what: str, eigensolve_dim: int = 0) -> None:
    if eigensolve_dim > EIGENSOLVE_MAX_DIM:
        raise UsageError(f"fiber dimension {eigensolve_dim} is over the eigensolver's cap of {EIGENSOLVE_MAX_DIM}")
    if entries > MAX_ARRAY_ENTRIES:
        raise UsageError(
            f"{what} would hold {entries} complex entries, over the cap of {MAX_ARRAY_ENTRIES}"
        )


def _checked_walk(args: argparse.Namespace) -> tuple[WalkSpec, Callable | None]:
    """``_resolve_walk``, then the tiling and unitarity checks of ``validate``.

    Raises TilingError or NonUnitaryError naming the first problem.
    """
    walk, closed_form = _resolve_walk(args)
    problems = validate_tiling(walk.tiling, walk.presentation)
    if problems:
        raise TilingError(f"invalid tiling: {problems[0].message}")
    residual, _ = unitarity_residual(walk)
    if not residual <= UNITARITY_TOLERANCE:
        raise NonUnitaryError(
            f"unitarity residual {residual:.3e} exceeds {UNITARITY_TOLERANCE:.1e}"
        )
    return walk, closed_form


def _add_walk_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", nargs="?", help="walk-spec file")
    parser.add_argument("--example", help="built-in walk name (g1 or g2)")
    parser.add_argument(
        "--params",
        help="example parameters, e.g. n=0.6,m=0.8,class=I,sign=+ (g1) or class=II (g2)",
    )


def cmd_validate(args: argparse.Namespace) -> int:
    if not 0.0 <= args.tolerance < float("inf"):
        raise UsageError(f"--tolerance must be a finite nonnegative number, got {args.tolerance}")
    walk, _ = _resolve_walk(args)
    if args.isotropy and (
        set(walk.presentation.alphabet) != set(examples.SWAP_AB) or walk.coin_dim != 2
    ):
        raise UsageError("--isotropy needs the generators a, b and coin dimension 2")
    problems = validate_tiling(walk.tiling, walk.presentation)
    for problem in problems:
        print(problem)
    if any(problem.kind == "table" for problem in problems):
        return EXIT_FAILURE  # the residuals below need every table row
    if not problems:
        print("tiling: ok")
    status = EXIT_FAILURE if problems else EXIT_OK
    residual, _ = unitarity_residual(walk)
    print(f"unitarity residual: {residual:.3e}")
    if not residual <= args.tolerance:
        print(f"unitarity: FAIL (tolerance {args.tolerance:.1e})")
        status = EXIT_FAILURE
    else:
        print("unitarity: ok")
    if args.isotropy:
        deviation = check_isotropy(walk, examples.swap_isotropy(args.isotropy))
        print(f"isotropy deviation ({args.isotropy}): {deviation:.3e}")
        if not deviation <= args.tolerance:
            print("isotropy: FAIL")
            status = EXIT_FAILURE
        else:
            print("isotropy: ok")
    return status


def cmd_dispersion(args: argparse.Namespace) -> int:
    if args.grid < 2:
        raise UsageError("--grid must be at least 2")
    walk, closed_form = _checked_walk(args)
    if args.oracle and closed_form is None:
        raise UsageError("--oracle requires --example g1 or g2")
    points = args.grid ** walk.tiling.dimension
    _bound_entries(points * walk.block_dim**2, f"--grid {args.grid}", walk.block_dim)
    deviations: list[float] = []

    def chunks():
        # each certified chunk is scored and spooled while the pool solves the next
        for chunk in dispersion_chunks(walk, args.grid):
            if args.oracle:
                deviations.append(examples.grid_oracle_deviation(chunk, closed_form))
            yield chunk

    if args.out:
        save_dispersion_csv(chunks(), args.out)
        print(f"wrote {points} rows to {args.out}")
    else:
        for _ in chunks():
            pass
    if args.oracle:
        deviation = float(np.max(deviations))  # NaN-propagating, like the oracle itself
        print(f"oracle deviation: {deviation:.3e}")
        if not deviation < ORACLE_TOLERANCE:
            print(f"oracle: FAIL (tolerance {ORACLE_TOLERANCE:.1e})")
            return EXIT_FAILURE
        print("oracle: ok")
    return EXIT_OK


def cmd_evolve(args: argparse.Namespace) -> int:
    if args.steps < 0:
        raise UsageError("--steps must be nonnegative")
    if args.momentum is not None and args.init != "planewave":
        raise UsageError("--momentum applies only to --init planewave")
    walk, _ = _checked_walk(args)
    _bound_entries(
        args.torus ** walk.tiling.dimension * walk.block_dim, f"--torus {args.torus}",
        walk.block_dim if args.init == "planewave" else 0,
    )
    if args.init == "delta":
        state = make_delta(walk, args.torus)
    else:
        d = walk.tiling.dimension
        text = ",".join(["1"] + ["0"] * (d - 1)) if args.momentum is None else args.momentum
        try:
            momentum = tuple(int(x) for x in text.split(","))
        except ValueError:
            raise UsageError(f"--momentum must be integers, got {args.momentum!r}") from None
        if len(momentum) != d or any(abs(m) >= args.torus for m in momentum):
            raise UsageError(f"--momentum needs {d} integers of magnitude below --torus")
        state = make_plane_wave(walk, args.torus, momentum)
    final = evolve(walk, state, args.steps)
    drift = abs(final.norm - state.norm)
    print(f"norm drift after {args.steps} steps: {drift:.3e}")
    if args.out:
        save_probability_csv(final, args.out)
        print(f"wrote probabilities to {args.out}")
    return EXIT_OK


def cmd_show_example(args: argparse.Namespace) -> int:
    walk, _ = _resolve_walk(args)
    save_walk(walk, args.out)
    print(f"wrote {args.example} to {args.out}")
    return EXIT_OK


def cmd_suite(args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    if args.seed < 0:
        raise UsageError("--seed must be nonnegative")
    items = examples.verification_suite(seed=args.seed, scalar_samples=args.samples)
    for item in items:
        print(item)
    return EXIT_OK if all(item.passed for item in items) else EXIT_FAILURE


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cosetwalk",
        description="Quantum walks on tiled Cayley graphs: validation, "
        "dispersion sweeps, torus evolution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a walk spec's tiling and unitarity")
    _add_walk_source(p)
    p.add_argument("--tolerance", type=float, default=UNITARITY_TOLERANCE)
    p.add_argument("--isotropy", choices=["sigma_x", "sigma_z"], help="also check a<->b swap covariance")
    p.set_defaults(handler="cmd_validate")

    p = sub.add_parser("dispersion", help="sweep eigenphases over the wave-vector lattice")
    _add_walk_source(p)
    p.add_argument("--grid", type=int, default=33, help="points per axis (N >= 2)")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--oracle", action="store_true", help="cross-check built-ins against the closed form")
    p.set_defaults(handler="cmd_dispersion")

    p = sub.add_parser("evolve", help="evolve a state on a finite torus")
    _add_walk_source(p)
    p.add_argument("--torus", type=int, default=16, help="sites per axis")
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--init", choices=["delta", "planewave"], default="delta")
    p.add_argument("--momentum", help="integer index for --init planewave, each |m| < --torus (default 1,0,...,0)")
    p.add_argument("--out", help="probability CSV output path")
    p.set_defaults(handler="cmd_evolve")

    p = sub.add_parser("show-example", help="export a built-in walk to a walk-spec file")
    p.add_argument("example", help="g1 or g2")
    p.add_argument("--params", help="same syntax as the dispersion command")
    p.add_argument("--out", required=True)
    p.set_defaults(handler="cmd_show_example", path=None)

    p = sub.add_parser("suite", help="run the solution-family verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1000, help="random scalar families per graph")
    p.set_defaults(handler="cmd_suite")

    return parser


def _glue_momentum(argv: list[str]) -> list[str]:
    """``--momentum -3,7`` as ``--momentum=-3,7``, also for a prefix argparse
    accepts (``--mom -3,7``): argparse reads a value that starts with '-' as
    an option unless it is one negative number."""
    glued: list[str] = []
    for arg in argv:
        option = glued[-1] if glued else ""
        if len(option) > 2 and "--momentum".startswith(option) and arg[:1] == "-" and arg[1:2].isdigit():
            glued[-1] += "=" + arg
        else:
            glued.append(arg)
    return glued


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_glue_momentum(sys.argv[1:] if argv is None else argv))
        return globals()[args.handler](args)
    except (UsageError, WalkFileError, OSError, TorusSizeError) as exc:
        prefix = "parse error" if isinstance(exc, WalkFileError) else "error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NonUnitaryError, EigensolveError, TilingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
