"""Command line driver.

Subcommands: ``solve`` an instance file, ``verify`` a file (or a seeded random
batch) against the brute-force oracles, ``gen`` a random instance, ``bench``
the table sizes and wall time across a parameter sweep.

``main`` builds the parser on each call and adds arguments only to the
subcommand that its argv names: the first argument that does not start with
``-``, since the top-level parser has no option that takes a value.  Every
subcommand stays registered with its help line, so usage, help, error text
and exit codes are those of ``build_parser()``, which without a command adds
every subcommand's arguments.

Exit codes: 0 success, 1 bad input (a usage error included) or a size-guard
refusal, 2 infeasible instance, 3 solver disagreement: the solvers and oracles
of ``verify`` disagree, or a solver's own check of its plan fails in any
command (the plan is infeasible, its recomputed objective is not the table's,
or the backtrack finds no volume that attains a cell), reported on one
``error: internal audit failed: ...`` line.  The environment
variable ``LOTDP_MAX_CELLS`` caps the total table cells of one solve, counted
before the sweep starts: the grids H = 1..L_count (the interior bound from
the volume windows and P alone, and in multi mode from the batch-count rule
too) together.  The sweep fills grid 1 and some of
the grids 2..L, and L <= L_count, so it never fills more.  The cap bounds
pricing too: each supplier's priced volumes end at min(M, P + m), so no
cost row is longer than a table row.  The fill computes
only part of each table's cells (``computed`` in the report's ``per_H`` and
in the ``bench`` CSV).  The report's ``skip_reason`` sorts the grids left
out: ``"H > L"``; ``"covered"`` for those of 2..L that lie inside a filled
grid with the same largest multiple up to the top of the H range; and
``"count bound"`` for the other grids of 2..L, whose every multiple up to L
is an interior count priced above a cheaper table, each interior volume one
grid step inside its window.  A
solve over the cap is refused with exit code 1 before any table is filled;
a ``verify --seed-batch`` run stops at the first instance over the cap, and
its error line names the instance's index.
``verify`` in multi mode passes the same cap to ``duplication_oracle`` too,
whose count covers every grid H = 1..multi_h_limit, so ``verify`` may
refuse an instance that ``solve`` accepts under one cap.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import replace

from .dp import SolveReport, solve, solve_multi
from .errors import FeasibilityError, InfeasibleInstanceError, LotSizingError, ResourceLimitError, SchemaError
from .generate import bench_instance, random_instance
from .model import (
    MULTI,
    SINGLE,
    Instance,
    instance_from_json,
    instance_to_json,
    rational_to_json,
    require_valid,
    solution_to_json,
)
from .oracle import MAX_SUPPLIERS, duplication_oracle, grid_oracle, structural_oracle

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_MISMATCH = 3


def _max_cells() -> int | None:
    """The LOTDP_MAX_CELLS cap on the table cells of one solve, if set."""
    raw = os.environ.get("LOTDP_MAX_CELLS")
    if raw is None:
        return None
    try:
        value = int(raw)
        if value < 1:
            raise ValueError
    except ValueError:
        raise SchemaError(f"LOTDP_MAX_CELLS must be a positive integer, got {raw!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with EXIT_INPUT: argparse's
    own code 2 would read as an infeasible instance."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_instance(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"{path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: byte {exc.start}: {exc.reason}")
    return instance_from_json(raw)


def _require_writable(out: str | None) -> None:
    """Refuse an output path that cannot be written before any solve starts.
    The probe opens it for appending, so an existing file keeps its content
    whatever happens next, and removes a file it had to create."""
    if not out:
        return
    existed = os.path.lexists(out)
    try:
        with open(out, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise SchemaError(f"{out}: {exc.strerror or exc}")
    if not existed:
        os.remove(out)


def _write_text(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SchemaError(f"{out}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)


def report_to_json(report: SolveReport) -> dict:
    skipped, covered = report.skipped_H, report.covered_H
    return {
        "best_H": report.best_H,
        "objective": rational_to_json(report.solution.objective),
        "elapsed_seconds": report.elapsed_seconds,
        "table_cells_filled": report.table_cells_filled,
        "kind": report.kind,
        "L": report.L,
        "interior": report.interior,
        "L_count": report.L_count,
        "skipped_H": list(skipped),
        "skip_reason": {
            "H > L": [H for H in skipped if H > report.L],
            "covered": list(covered),
            "count bound": [H for H in skipped if H <= report.L and H not in covered],
        },
        "per_H": [
            {
                "H": t.H,
                "objective": rational_to_json(t.objective),
                "cells": t.cells,
                "computed": t.computed,
                "micros": t.micros,
            }
            for t in report.trace
        ],
    }


def cmd_solve(args) -> int:
    max_cells = _max_cells()
    inst = _load_instance(args.path)
    if args.mode:
        inst = replace(inst, mode=args.mode)
    _require_writable(args.out)
    if inst.mode == MULTI:
        report = solve_multi(inst, max_cells=max_cells)
    else:
        report = solve(inst, max_cells=max_cells)
    _write_text(
        json.dumps(solution_to_json(report.solution, approx=args.pretty), indent=2) + "\n",
        args.out,
    )
    print(json.dumps(report_to_json(report), indent=2), file=sys.stderr)
    return EXIT_OK


def _verify_one(inst: Instance, max_cells: int | None) -> tuple[list[tuple[str, object]], bool]:
    """Run every applicable solver; return labeled objectives and agreement.
    The grid oracle joins on small single-mode instances, and only when its
    enumeration fits under its own candidate cap: a size refusal of that
    cross-check leaves it out with a note on stderr."""
    results: list[tuple[str, object]] = []
    if inst.mode == MULTI:
        results.append(("aggregated", solve_multi(inst, max_cells=max_cells).solution))
        results.append(("duplication", duplication_oracle(inst, max_cells=max_cells)))
    else:
        results.append(("dp", solve(inst, max_cells=max_cells).solution))
        results.append(("structural", structural_oracle(inst)))
        if inst.n <= 3 and inst.P <= 12 and inst.c_hold <= 2:
            try:
                results.append(("grid", grid_oracle(inst)))
            except ResourceLimitError as exc:
                print(f"note: grid oracle left out: {exc}", file=sys.stderr)
    objectives = {sol.objective for _, sol in results}
    return results, len(objectives) == 1


def _print_mismatch(results) -> None:
    print("disagreement:", file=sys.stderr)
    for name, sol in results:
        print(f"  {name}: objective {sol.objective}", file=sys.stderr)
        for d in sol.deliveries:
            print(f"    supplier {d.supplier_index}: {d.volume}", file=sys.stderr)


def cmd_verify(args) -> int:
    max_cells = _max_cells()
    if (args.path is None) == (args.seed_batch is None):
        return _fail("verify takes either an instance file or --seed-batch N", EXIT_INPUT)
    if args.seed is not None and args.seed_batch is None:
        return _fail("verify takes --seed only with --seed-batch N", EXIT_INPUT)

    if args.seed_batch is not None:
        rng = random.Random(args.seed or 0)
        disagreements = 0
        for i in range(args.seed_batch):
            inst = random_instance(rng)
            try:
                results, agree = _verify_one(inst, max_cells)
            except ResourceLimitError as exc:  # the batch stops here: name the instance
                raise ResourceLimitError(f"instance {i}: {exc}") from None
            except (AssertionError, FeasibilityError) as exc:
                # a solver's own check failed on this instance: a disagreement
                # like any other, so the batch goes on
                results, agree = exc, False
            if not agree:
                disagreements += 1
                print(f"instance {i}: {json.dumps(instance_to_json(inst))}", file=sys.stderr)
                if isinstance(results, Exception):
                    print(f"  internal audit failed: {results}", file=sys.stderr)
                else:
                    _print_mismatch(results)
        print(f"{args.seed_batch - disagreements}/{args.seed_batch} agree")
        return EXIT_OK if disagreements == 0 else EXIT_MISMATCH

    inst = _load_instance(args.path)
    require_valid(inst)  # before the size refusal, so bad data names its own fault
    if inst.mode == SINGLE and inst.n > MAX_SUPPLIERS:
        return _fail(
            f"verify enumerates 4**n assignments in single mode and refuses "
            f"n > {MAX_SUPPLIERS}",
            EXIT_INPUT,
        )
    results, agree = _verify_one(inst, max_cells)
    for name, sol in results:
        print(f"{name}: {sol.objective}")
    if not agree:
        _print_mismatch(results)
        return EXIT_MISMATCH
    print("agreement: yes")
    return EXIT_OK


def cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    inst = random_instance(
        rng,
        n=args.n,
        p_max=args.pmax,
        c_max=args.cmax,
        bound_max=args.bound_max,
        alpha_max=args.alpha_max,
        beta_max=args.beta_max,
        mode=args.mode,
        infeasible=args.infeasible,
    )
    text = json.dumps(instance_to_json(inst), indent=2, sort_keys=True) + "\n"
    _write_text(text, args.out)
    return EXIT_OK


def cmd_bench(args) -> int:
    max_cells = _max_cells()
    if args.values is not None:
        try:
            values = [int(v) for v in args.values.split(",")]
        except ValueError:
            raise SchemaError(f"--values must be comma-separated integers, got {args.values!r}")
        low = {"P": 0, "n": 1, "c": 1}[args.sweep]
        for value in values:
            if value < low:
                raise SchemaError(f"--values for --sweep {args.sweep} must be at least {low}, got {value}")
    else:
        values = {"P": [50, 100, 200], "n": [2, 4, 8], "c": [1, 2, 3]}[args.sweep]
    _require_writable(args.out)
    rows = ["n,P,c_hold,cells,computed,wall_micros,objective_num,objective_den"]
    for value in values:
        n, P, c_hold = 5, 60, 1
        if args.sweep == "P":
            P = value
        elif args.sweep == "n":
            n = value
        else:
            c_hold = value
        rng = random.Random(f"{args.seed}:{n}:{P}:{c_hold}")
        inst = bench_instance(rng, n, P, c_hold)
        report = solve(inst, max_cells=max_cells)
        obj = report.solution.objective
        rows.append(
            f"{n},{P},{c_hold},{report.table_cells_filled},{report.cells_computed},"
            f"{int(report.elapsed_seconds * 1_000_000)},{obj.numerator},{obj.denominator}"
        )
    _write_text("\n".join(rows) + "\n", args.out)
    return EXIT_OK


def _solve_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("path", help="instance JSON file")
    p.add_argument("--mode", choices=[SINGLE, MULTI], help="override the instance mode")
    p.add_argument("--out", help="write the solution JSON here instead of stdout")
    p.add_argument("--pretty", action="store_true", help="add decimal approximations")
    p.set_defaults(func=cmd_solve)


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("path", nargs="?", help="instance JSON file")
    p.add_argument("--seed-batch", type=_at_least(1), metavar="N", help="verify N random instances")
    p.add_argument("--seed", type=int, help="seed for --seed-batch (default 0)")
    p.set_defaults(func=cmd_verify)


def _gen_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_at_least(1), help="supplier count (default: random 1..4)")
    p.add_argument("--pmax", type=_at_least(0), default=20, help="largest demand to draw")
    p.add_argument("--cmax", type=_at_least(1), default=3, help="largest holding rate to draw")
    p.add_argument("--bound-max", type=_at_least(1), default=12, help="largest volume bound to draw")
    p.add_argument("--alpha-max", type=_at_least(0), default=10)
    p.add_argument("--beta-max", type=_at_least(0), default=10)
    p.add_argument("--mode", choices=[SINGLE, MULTI], default=SINGLE)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--infeasible", action="store_true", help="draw demand above capacity")
    p.add_argument("--out", help="write here instead of stdout")
    p.set_defaults(func=cmd_gen)


def _bench_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sweep", choices=["P", "n", "c"], required=True)
    p.add_argument("--values", help="comma-separated sweep values (optional)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=cmd_bench)


# each subcommand's help line and the function that adds its arguments
_SUBCOMMANDS = {
    "solve": ("solve an instance file", _solve_arguments),
    "verify": ("cross-check solvers and oracles", _verify_arguments),
    "gen": ("generate a seeded random instance", _gen_arguments),
    "bench": ("table sizes and wall time across a sweep", _bench_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``lotdp`` parser, every subcommand registered with its help line.
    Without ``command``, or with a name that is no subcommand, every
    subparser gets its arguments; otherwise only ``command``'s does.  The
    top-level usage, help and error text name the subcommands only, so on
    an argv whose subcommand is ``command`` the usage, help, error text and
    exit codes are those of the parser with every subcommand's arguments."""
    parser = _Parser(
        prog="lotdp",
        description="Exact procurement lot-sizing: fixed-plus-linear delivery "
        "costs, quadratic holding, two-sided volume limits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if command == name or command not in _SUBCOMMANDS:
            add_arguments(p)
    return parser


def main(argv=None) -> int:
    """Run the ``lotdp`` command line on ``argv`` (``sys.argv[1:]`` when
    None) and return its exit code.  The parser is built on each call, with
    arguments only for the subcommand that ``argv`` names: its first
    argument that does not start with ``-``, since the top-level parser has
    no option that takes a value.  Usage, help, error text and exit codes
    are those of ``build_parser()``, which adds every subcommand's
    arguments.  Built per call, the parser reads each ``cmd_*`` function
    when ``main`` runs, so a patched one is the one called."""
    if argv is None:
        argv = sys.argv[1:]
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except (AssertionError, FeasibilityError) as exc:
        # the CLI reads instances, never plans: these come from a solver's own
        # plan or invariant
        return _fail(f"internal audit failed: {exc}", EXIT_MISMATCH)
    except InfeasibleInstanceError as exc:
        return _fail(str(exc), EXIT_INFEASIBLE)
    except LotSizingError as exc:
        return _fail(str(exc), EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
