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
(256 MiB).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from . import examples
from .evolve import TorusSizeError, evolve, make_delta, make_plane_wave
from .groups import TilingError, validate_tiling
from .io import WalkFileError, load_walk, save_dispersion_csv, save_probability_csv, save_walk
from .linalg import PAULI_X, PAULI_Z, EigensolveError, NonUnitaryError
from .spectral import dispersion_grid
from .walks import IsotropySpec, WalkSpec, check_isotropy, unitarity_residual

ORACLE_TOLERANCE = 1e-9
UNITARITY_TOLERANCE = 1e-10
MAX_ARRAY_ENTRIES = 2**24
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _parse_params(raw: str | None) -> dict[str, str]:
    if not raw:
        return {}
    out: dict[str, str] = {}
    for chunk in raw.split(","):
        if "=" not in chunk:
            raise UsageError(f"malformed --params entry {chunk!r}; expected key=value")
        key, value = chunk.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _g1_params(fields: dict[str, str]) -> examples.G1Params:
    sign_text = fields.get("sign", "+")
    if sign_text not in ("+", "-", "+1", "-1"):
        raise UsageError(f"sign must be '+' or '-', got {sign_text!r}")
    try:
        return examples.G1Params(
            walk_class=fields.get("class", "I"),
            n=float(fields.get("n", "1")),
            m=float(fields.get("m", "0")),
            sign=-1 if sign_text.startswith("-") else 1,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _resolve_walk(args: argparse.Namespace) -> tuple[WalkSpec, Callable | None]:
    """Walk from --example (with --params) or from a walk-spec file, paired
    with the example's closed-form phases (None for a file)."""
    fields = _parse_params(args.params)
    if args.example:
        g1_params = _g1_params(fields) if args.example == "g1" else None
        try:
            return examples.builtin_walk(
                args.example, g1_params=g1_params, g2_variant=fields.get("class", "I")
            )
        except (KeyError, ValueError) as exc:
            raise UsageError(exc.args[0]) from exc
    if args.path:
        return load_walk(args.path), None
    raise UsageError("provide a walk-spec file or --example g1|g2")


def _bound_entries(entries: int, what: str) -> None:
    if entries > MAX_ARRAY_ENTRIES:
        raise UsageError(
            f"{what} would hold {entries} complex entries, over the cap of {MAX_ARRAY_ENTRIES}"
        )


def _checked_walk(args: argparse.Namespace) -> tuple[WalkSpec, Callable | None]:
    """``_resolve_walk``, then the tiling and unitarity checks of ``validate``.

    Raises TilingError or NonUnitaryError naming the first problem.
    """
    walk, closed_form = _resolve_walk(args)
    report = validate_tiling(walk.tiling, walk.presentation)
    if not report.ok:
        raise TilingError(f"invalid tiling: {report.problems[0].message}")
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
    walk, _ = _resolve_walk(args)
    if args.isotropy and (
        set(walk.presentation.alphabet) != set(examples.SWAP_AB) or walk.coin_dim != 2
    ):
        raise UsageError("--isotropy needs the generators a, b and coin dimension 2")
    report = validate_tiling(walk.tiling, walk.presentation)
    status = EXIT_OK
    if report.ok:
        print("tiling: ok")
    else:
        print(report.summary())
        status = EXIT_FAILURE
    residual, _ = unitarity_residual(walk)
    print(f"unitarity residual: {residual:.3e}")
    if not residual <= args.tolerance:
        print(f"unitarity: FAIL (tolerance {args.tolerance:.1e})")
        status = EXIT_FAILURE
    else:
        print("unitarity: ok")
    if args.isotropy:
        coin = {"sigma_x": PAULI_X, "sigma_z": PAULI_Z}[args.isotropy]
        deviation = check_isotropy(walk, IsotropySpec(examples.SWAP_AB, coin))
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
    _bound_entries(
        args.grid ** walk.tiling.dimension * walk.block_dim**2, f"--grid {args.grid}"
    )
    grid = dispersion_grid(walk, args.grid)
    if args.out:
        save_dispersion_csv(grid, args.out)
        print(f"wrote {grid.kpoints.shape[0]} rows to {args.out}")
    if args.oracle:
        deviation = examples.grid_oracle_deviation(grid, closed_form)
        print(f"oracle deviation: {deviation:.3e}")
        if not deviation < ORACLE_TOLERANCE:
            print(f"oracle: FAIL (tolerance {ORACLE_TOLERANCE:.1e})")
            return EXIT_FAILURE
        print("oracle: ok")
    return EXIT_OK


def cmd_evolve(args: argparse.Namespace) -> int:
    if args.steps < 0:
        raise UsageError("--steps must be nonnegative")
    walk, _ = _checked_walk(args)
    _bound_entries(
        args.torus ** walk.tiling.dimension * walk.block_dim, f"--torus {args.torus}"
    )
    if args.init == "delta":
        state = make_delta(walk, args.torus)
    else:
        try:
            momentum = tuple(int(x) for x in args.momentum.split(","))
        except ValueError:
            raise UsageError(f"--momentum must be integers, got {args.momentum!r}") from None
        d = walk.tiling.dimension
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
    report = examples.verification_suite(seed=args.seed, scalar_samples=args.samples)
    print(report.summary())
    return EXIT_OK if report.all_passed else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosetwalk",
        description="Quantum walks on tiled Cayley graphs: validation, "
        "dispersion sweeps, torus evolution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a walk spec's tiling and unitarity")
    _add_walk_source(p)
    p.add_argument("--tolerance", type=float, default=UNITARITY_TOLERANCE)
    p.add_argument("--isotropy", choices=["sigma_x", "sigma_z"], help="also check a<->b swap covariance")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("dispersion", help="sweep eigenphases over the wave-vector lattice")
    _add_walk_source(p)
    p.add_argument("--grid", type=int, default=33, help="points per axis (N >= 2)")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--oracle", action="store_true", help="cross-check built-ins against the closed form")
    p.set_defaults(handler=cmd_dispersion)

    p = sub.add_parser("evolve", help="evolve a state on a finite torus")
    _add_walk_source(p)
    p.add_argument("--torus", type=int, default=16, help="sites per axis")
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--init", choices=["delta", "planewave"], default="delta")
    p.add_argument("--momentum", default="1,0", help="integer momentum index (each |m| < --torus) for --init planewave")
    p.add_argument("--out", help="probability CSV output path")
    p.set_defaults(handler=cmd_evolve)

    p = sub.add_parser("show-example", help="export a built-in walk to a walk-spec file")
    p.add_argument("example", help="g1 or g2")
    p.add_argument("--params", help="same syntax as the dispersion command")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_show_example, path=None)

    p = sub.add_parser("suite", help="run the solution-family verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1000, help="random scalar families per graph")
    p.set_defaults(handler=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (UsageError, WalkFileError, OSError, TorusSizeError) as exc:
        prefix = "parse error" if isinstance(exc, WalkFileError) else "error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NonUnitaryError, EigensolveError, TilingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
