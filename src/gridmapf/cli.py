"""Command-line surface tying the toolkit together.

Exit codes: 0 for yes / solution found / valid, 1 for no / unsat /
invalid input, 2 for usage or resource errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import files, render
from .core import ConflictModel, Instance, validate_solution
from .formula import (
    EmbeddingError,
    FormulaError,
    brute_force_sat,
    parse_formula,
    validate_planar_monotone,
)
from .oracle import (
    BudgetExceededError,
    NoSolutionError,
    SearchBudget,
    delta,
    exists_individually_optimal,
    exists_makespan_at_most,
    optimal_flowtime,
    two_colored_decide,
)
from .reduction import (
    LayoutError,
    compile_formula,
    makespan_variant,
    two_colored_variant,
    verify_construction,
)
from .twodir import solve_two_dir

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2


def _load_instance(map_path: str, agents_path: str) -> Instance:
    grid = files.read_map(Path(map_path).read_text())
    return files.read_agents(Path(agents_path).read_text(), grid)


def _conflict_model(names: str) -> ConflictModel:
    kinds = {k.strip() for k in names.split(",") if k.strip()}
    unknown = kinds - {"vertex", "edge", "following", "cycle"}
    if unknown:
        raise ValueError(f"unknown conflict kinds: {sorted(unknown)}")
    return ConflictModel(
        forbid_vertex="vertex" in kinds,
        forbid_edge="edge" in kinds,
        forbid_following="following" in kinds,
        forbid_cycle="cycle" in kinds,
    )


def _seconds(text: str) -> float:
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative number of seconds, got {text}")
    return value


def _states(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative number of states, got {text}")
    return value


def _search_limits(args: argparse.Namespace) -> tuple[ConflictModel, SearchBudget]:
    return _conflict_model(args.conflicts), SearchBudget(args.budget, args.timeout)


def _cmd_compile(args: argparse.Namespace) -> int:
    try:
        formula = parse_formula(Path(args.formula).read_text())
        forest = validate_planar_monotone(formula)
        instance, meta = compile_formula(formula, forest)
        if args.variant == "makespan":
            instance, meta = makespan_variant(instance, meta)
        if args.two_colored:
            instance = two_colored_variant(instance, meta)
    except (FormulaError, EmbeddingError, LayoutError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NO
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    Path(f"{prefix}.map").write_text(files.write_map(instance.grid))
    Path(f"{prefix}.agents").write_text(files.write_agents(instance))
    Path(f"{prefix}.meta").write_text(files.write_metadata(meta))
    print(
        f"compiled {instance.num_agents} agents onto a "
        f"{instance.grid.width}x{instance.grid.height} grid "
        f"(W={meta.w_total}, L={meta.channel_length}, U={meta.unit})"
    )
    return EXIT_YES


def _cmd_solve2dir(args: argparse.Namespace) -> int:
    instance = _load_instance(args.map, args.agents)
    solution = solve_two_dir(instance)
    if solution is None:
        print("NO")
        return EXIT_NO
    text = files.write_solution(instance, solution)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    print(f"SOLVED flowtime={solution.flowtime()}")
    return EXIT_YES


def _cmd_oracle(args: argparse.Namespace) -> int:
    instance = _load_instance(args.map, args.agents)
    model, budget = _search_limits(args)
    if args.mode == "indopt":
        witness = exists_individually_optimal(instance, model, budget)
    elif args.mode == "makespan-le":
        if args.bound is None:
            print("error: --bound required for makespan-le", file=sys.stderr)
            return EXIT_USAGE
        witness = exists_makespan_at_most(instance, args.bound, model, budget)
    elif args.mode == "flowtime":
        try:
            cost, solution = optimal_flowtime(instance, model, budget)
        except NoSolutionError:
            print("INFEASIBLE")
            return EXIT_NO
        print(f"optimal flowtime {cost}")
        if args.out:
            Path(args.out).write_text(files.write_solution(instance, solution))
        return EXIT_YES
    elif args.mode == "two-colored":
        if args.bound is None or args.objective is None:
            print("error: --objective and --bound required", file=sys.stderr)
            return EXIT_USAGE
        witness = two_colored_decide(instance, args.objective, args.bound, model, budget)
    else:  # pragma: no cover - argparse restricts choices
        return EXIT_USAGE
    print("YES" if witness.decision else "NO")
    if witness.decision and witness.solution is not None and args.out:
        Path(args.out).write_text(files.write_solution(instance, witness.solution))
    return EXIT_YES if witness.decision else EXIT_NO


def _cmd_delta(args: argparse.Namespace) -> int:
    instance = _load_instance(args.map, args.agents)
    model, budget = _search_limits(args)
    try:
        value = delta(instance, model, budget)
    except NoSolutionError:
        print("INFEASIBLE")
        return EXIT_NO
    print(value)
    return EXIT_YES


def _cmd_verify(args: argparse.Namespace) -> int:
    instance = _load_instance(args.map, args.agents)
    if args.solution:
        solution = files.read_solution(Path(args.solution).read_text(), instance)
        model = _conflict_model(args.conflicts)
        report = validate_solution(instance, solution, model)
        if report.ok:
            print("VALID")
            return EXIT_YES
        for c in report.conflicts:
            print(f"{c.kind} at t={c.time} agents={c.agents} cells={c.cells}")
        return EXIT_NO
    if args.meta:
        meta = files.read_metadata(Path(args.meta).read_text())
        report = verify_construction(instance, meta)
        for check in report.checks:
            status = "ok" if check.ok else "FAIL"
            detail = f" ({check.detail})" if check.detail else ""
            print(f"{check.name}: {status}{detail}")
        return EXIT_YES if report.ok else EXIT_NO
    print("error: pass --solution or --meta", file=sys.stderr)
    return EXIT_USAGE


def _cmd_render(args: argparse.Namespace) -> int:
    instance = _load_instance(args.map, args.agents)
    solution = None
    if args.solution:
        solution = files.read_solution(Path(args.solution).read_text(), instance)
    metadata = None
    if args.meta:
        metadata = files.read_metadata(Path(args.meta).read_text())
    text = render.render(instance, solution, args.format, metadata)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_YES


def _cmd_sat(args: argparse.Namespace) -> int:
    try:
        formula = parse_formula(Path(args.formula).read_text())
        assignment = brute_force_sat(formula)
    except (FormulaError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NO
    if assignment is None:
        print("UNSAT")
        return EXIT_NO
    print("SAT " + " ".join(f"x{i + 1}={int(v)}" for i, v in enumerate(assignment)))
    return EXIT_YES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridmapf",
        description="grid MAPF toolkit: compile SAT hardness instances, solve "
        "two-direction instances, run exhaustive oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    conflicts = argparse.ArgumentParser(add_help=False)
    conflicts.add_argument("--conflicts", default="vertex,edge")
    search = argparse.ArgumentParser(add_help=False, parents=[conflicts])
    search.add_argument("--budget", type=_states, default=5_000_000)
    search.add_argument("--timeout", type=_seconds, metavar="SECONDS", help="wall-time budget")

    p = sub.add_parser("compile", help="lower a formula file to map/agents/meta files")
    p.add_argument("formula")
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--variant", choices=("base", "makespan"), default="base")
    p.add_argument("--two-colored", action="store_true")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("solve2dir", help="solve a down+right instance")
    p.add_argument("map")
    p.add_argument("agents")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_solve2dir)

    p = sub.add_parser("oracle", parents=[search], help="exhaustive decision procedures")
    p.add_argument("map")
    p.add_argument("agents")
    p.add_argument(
        "--mode",
        choices=("indopt", "flowtime", "makespan-le", "two-colored"),
        default="indopt",
    )
    p.add_argument("--bound", type=int)
    p.add_argument("--objective", choices=("flowtime", "makespan"))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("delta", parents=[search], help="optimal flowtime minus the lower bound")
    p.add_argument("map")
    p.add_argument("agents")
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser(
        "verify", parents=[conflicts], help="validate a solution file or a compiled layout"
    )
    p.add_argument("map")
    p.add_argument("agents")
    p.add_argument("--solution")
    p.add_argument("--meta")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", help="draw an instance as ascii or svg")
    p.add_argument("map")
    p.add_argument("agents")
    p.add_argument("--solution")
    p.add_argument("--meta")
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("sat", help="exhaustive satisfiability check of a formula file")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_sat)

    return parser


def cli_dispatch(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (files.FileFormatError, FormulaError, EmbeddingError, LayoutError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NO
    except BudgetExceededError as e:
        print(f"resource error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
