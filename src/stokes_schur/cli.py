"""Command-line front door: property checks, exports, solves, and studies.

Subcommands:

  check    run the property suite, emit a JSON or CSV report, exit nonzero
           if any row fails
  export   write one assembled operator (or a dense Schur materialization)
           to a Matrix Market file
  solve    solve an enclosed-flow problem and emit the fields as CSV or JSON
  study    tabulate Schur-CG iteration counts per preconditioner

All output is deterministic for fixed flags and seed; timing measurement is
opt-in for the check report precisely to keep the default bytes stable.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import scipy.io

from .checks import run_suite
from .errors import (
    CgDivergenceError,
    DenseCapError,
    FactorizationError,
    InvalidDataError,
    InvalidSizeError,
    InvalidToleranceError,
    ModeMismatchError,
    StructuralError,
)
from .grid import make_grid
from .operators import BOUNDARY, FULL, build_operator_set
from .schur import (
    build_limiting_inverse,
    build_schur_dirichlet,
    build_schur_dirichlet_inverse,
    build_schur_neumann,
)
from .solver import (
    BVPS,
    DIRICHLET,
    BvpConfig,
    format_solution_csv,
    format_solution_json,
    format_study_csv,
    format_study_json,
    iteration_study,
    lid_driven_cavity,
    solve_stokes,
)

MODES = (BOUNDARY, FULL)

SPARSE_OPS = (
    "B1d",
    "Bxu",
    "Byv",
    "Bxq",
    "Byq",
    "B",
    "C",
    "A_N",
    "A_D",
    "I_pert",
    "U",
)
DENSE_OPS = ("S_N", "S_D", "S_D_pinv", "S_D_pinv_limit")
EXPORT_OPS = SPARSE_OPS + DENSE_OPS


def _csv_ints(text: str) -> list:
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from exc
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _u64(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
    if not (0 <= value < 2**64):
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from exc
    if not (value > 0.0):
        raise argparse.ArgumentTypeError("value must be positive")
    return value


def _write_text(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stokes-schur",
        description=(
            "Verify and use the structured Schur complements of the "
            "fully-staggered Stokes discretization on the unit square."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check", help="run the property suite and emit a report"
    )
    check.add_argument(
        "--n",
        type=_csv_ints,
        default=[2, 3, 4, 8],
        metavar="N[,N...]",
        help="grid sizes to verify (default 2,3,4,8)",
    )
    check.add_argument("--mode", choices=MODES, default=BOUNDARY)
    check.add_argument("--seed", type=_u64, default=0)
    check.add_argument(
        "--tol-scale",
        dest="tol_scale",
        type=_positive_float,
        default=1.0,
        help="multiply every tolerance by this factor",
    )
    check.add_argument("--format", choices=("json", "csv"), default="json")
    check.add_argument(
        "--timings",
        action="store_true",
        help="measure per-check runtimes (reports stop being byte-identical)",
    )
    check.add_argument("--out", default=None, help="write report here instead of stdout")

    export = sub.add_parser(
        "export", help="write one operator to a Matrix Market file"
    )
    export.add_argument("--n", type=_csv_ints, default=[4], metavar="N")
    export.add_argument("--mode", choices=MODES, default=BOUNDARY)
    export.add_argument("--op", choices=EXPORT_OPS, required=True)
    export.add_argument("--out", required=True)

    solve = sub.add_parser("solve", help="solve an enclosed-flow problem")
    solve.add_argument("--n", type=_csv_ints, default=[8], metavar="N")
    solve.add_argument("--bvp", choices=BVPS, default=DIRICHLET)
    solve.add_argument("--mode", choices=MODES, default=BOUNDARY)
    solve.add_argument(
        "--cavity",
        action="store_true",
        help="unit lid speed on the top wall (otherwise all walls at rest)",
    )
    solve.add_argument("--format", choices=("csv", "json"), default="csv")
    solve.add_argument("--out", default=None)

    study = sub.add_parser(
        "study", help="Schur-CG iteration counts per preconditioner"
    )
    study.add_argument(
        "--n", type=_csv_ints, default=[2, 3, 4, 8], metavar="N[,N...]"
    )
    study.add_argument("--bvp", choices=BVPS, default=DIRICHLET)
    study.add_argument("--mode", choices=MODES, default=BOUNDARY)
    study.add_argument("--format", choices=("csv", "json"), default="csv")
    study.add_argument("--out", default=None)

    return parser


def _cmd_check(args) -> int:
    report = run_suite(
        args.n,
        modes=[args.mode],
        seed=args.seed,
        tol_scale=args.tol_scale,
        timings=args.timings,
    )
    text = report.to_json() if args.format == "json" else report.to_csv()
    _write_text(text, args.out)
    return 0 if report.all_passed else 1


def _single_n(parser: argparse.ArgumentParser, ns: list, command: str) -> int:
    if len(ns) != 1:
        parser.error(f"{command} takes exactly one grid size, got {ns}")
    return ns[0]


def _cmd_export(args, parser) -> int:
    n = _single_n(parser, args.n, "export")
    grid = make_grid(n)
    ops = build_operator_set(grid, args.mode)
    sparse_map = {
        "B1d": ops.B1d,
        "Bxu": ops.Bxu,
        "Byv": ops.Byv,
        "Bxq": ops.Bxq,
        "Byq": ops.Byq,
        "B": ops.B,
        "C": ops.C,
        "A_N": ops.A_N,
        "A_D": ops.A_D,
        "I_pert": ops.I_pert,
        "U": ops.U,
    }
    if args.op in sparse_map:
        matrix = sparse_map[args.op]
    elif args.op == "S_N":
        matrix = build_schur_neumann(grid).materialize()
    elif args.op == "S_D":
        matrix = build_schur_dirichlet(grid, ops).materialize()
    elif args.op == "S_D_pinv":
        matrix = build_schur_dirichlet_inverse(grid, ops).materialize()
    else:
        matrix = build_limiting_inverse(grid).materialize()
    with open(args.out, "wb") as fh:
        # keep the general-symmetry header; downstream readers expect it
        scipy.io.mmwrite(fh, matrix, symmetry="general")
    return 0


def _cmd_solve(args, parser) -> int:
    n = _single_n(parser, args.n, "solve")
    grid = make_grid(n)
    if args.cavity:
        config = lid_driven_cavity(bvp=args.bvp, mode=args.mode)
    else:
        config = BvpConfig(bvp=args.bvp, mode=args.mode)
    sol = solve_stokes(grid, config)
    text = (
        format_solution_csv(sol)
        if args.format == "csv"
        else format_solution_json(sol)
    )
    _write_text(text, args.out)
    return 0


def _cmd_study(args) -> int:
    config = lid_driven_cavity(bvp=args.bvp, mode=args.mode)
    rows = iteration_study(args.n, config)
    text = format_study_csv(rows) if args.format == "csv" else format_study_json(rows)
    _write_text(text, args.out)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "export":
            return _cmd_export(args, parser)
        if args.command == "solve":
            return _cmd_solve(args, parser)
        return _cmd_study(args)
    except (InvalidSizeError, InvalidToleranceError, InvalidDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        DenseCapError,
        FactorizationError,
        StructuralError,
        ModeMismatchError,
        CgDivergenceError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())
