"""The four benchmark workloads.

Each workload generates its inputs in ``__init__`` (set-up), then runs
ops in two timed phases: ``solve`` produces the answers and ``verify``
runs the library's own check of them (``None`` when there is nothing to
verify).  ``check`` then compares everything against ground truth the
benchmark computes itself; it runs outside the timed phases and also
collects the machine-independent work counts.

Library calls go through ``self.lib`` (see ``tracing.bind``) so that a
traced run can put a span around each one.
"""

from __future__ import annotations

import random
from collections import Counter
from math import factorial, prod
from typing import Optional

from gridmapf.core import DOWN_RIGHT, AgentTask, Cell, GridMap
from gridmapf.formula import parse_formula
from gridmapf.oracle import NoSolutionError
from gridmapf.reduction import compile_formula, makespan_variant, two_colored_variant
from gridmapf.twodir import SolverStats

from checks import (
    FreeMask,
    check_down_right,
    check_steps,
    evaluate,
    find_conflict,
    flowtime,
    forced_unit_conflict,
    min_assignment_cost,
)
from inputs import (
    SWEEP_CHUNK,
    SWEEP_STRIDE,
    family_clauses,
    family_model,
    formula_text,
    planted_instance,
    sweep4_sample,
)
from tracing import bind

LETTER_MOVES = {"U": (0, -1), "D": (0, 1), "L": (-1, 0), "R": (1, 0)}


def cells_of(solution) -> list[tuple]:
    return [path.cells for path in solution.paths]


def makespan(paths) -> int:
    return max((len(p) - 1 for p in paths), default=0)


class Workload:
    name = ""

    def __init__(self) -> None:
        self.lib = bind(None)
        self.count_work = False  # pass SolverStats to the solver (traced runs)
        self.counts: Counter = Counter()
        self.items: list = []
        self.warmup: list = []
        self.round_size = 1
        # A latency sample is one op, or with pooling the mean over a round.
        # Pooling is for a handful of formulas of very different sizes: the
        # median of single ops would jump from one formula to the next.
        self.pooled_latency = False

    def count_decision(self, witness) -> None:
        self.counts["decisions"] += 1
        if witness.decision:
            self.counts["yes"] += 1
            self.counts["witness_steps"] += makespan(cells_of(witness.solution))


# ---------------------------------------------------------------- sweep4

class Sweep4(Workload):
    """Tier-1 acceptance traffic: three agents on 4x4 grids, <= 2 obstacles."""

    name = "sweep4"
    # Fixed samples by position in the pass, so that a replayed round does
    # the same work: YES instances at every 29th position are enumerated,
    # NO instances at every 12th get delta (about a quarter of the time).
    ENUM_EVERY = 29
    DELTA_EVERY = 12
    ENUM_LIMIT = 200

    def __init__(self, seed: int) -> None:
        super().__init__()
        grids: dict[int, GridMap] = {}
        for gi, obs, combo in sweep4_sample(seed % SWEEP_STRIDE):
            grid = grids.get(gi)
            if grid is None:
                grid = grids[gi] = GridMap(4, 4, frozenset(Cell(c % 4, c // 4) for c in obs))
            tasks = tuple(((s % 4, s // 4), (g % 4, g // 4)) for s, g in combo)
            agents = tuple(AgentTask(i, Cell(*s), Cell(*g)) for i, (s, g) in enumerate(tasks))
            self.items.append((len(self.items), grid, agents, frozenset(obs), tasks))
        self.round_size = len(grids) * SWEEP_CHUNK
        self.warmup = self.items[: self.round_size]

    def solve(self, item):
        index, grid, agents, _, _ = item
        lib = self.lib
        instance = lib.Instance(grid, agents, DOWN_RIGHT)
        stats = SolverStats() if self.count_work else None
        solution = lib.solve_two_dir(instance, stats=stats)
        witness = lib.exists_individually_optimal(instance)
        extra = None
        if witness.decision:
            if index % self.ENUM_EVERY == 0:
                extra = ("enumerate", lib.enumerate_individually_optimal(instance, limit=self.ENUM_LIMIT))
        elif index % self.DELTA_EVERY == 0:
            try:
                extra = ("delta", lib.delta(instance))
            except NoSolutionError:
                extra = ("delta", None)
        return instance, solution, witness, extra, stats

    def verify(self, item, answer):
        instance, solution, _, _, _ = answer
        if solution is None:
            return None
        return self.lib.validate_solution(instance, solution)

    def check(self, item, answer, report) -> Optional[str]:
        _, _, _, obs, tasks = item
        _, solution, witness, extra, stats = answer
        self.count_decision(witness)
        if stats is not None:
            self.counts["visited"] += stats.visited_cells
            if solution is not None:
                self.counts["path_cells"] += sum(len(p) for p in cells_of(solution))

        def free(col: int, row: int) -> bool:
            return 0 <= col < 4 and 0 <= row < 4 and row * 4 + col not in obs

        if (solution is not None) != witness.decision:
            return f"solver says {solution is not None}, oracle says {witness.decision} on {tasks}"
        if solution is not None:
            if not report.ok:
                return f"validate_solution rejects the solver's solution: {report.conflicts[:2]}"
            for label, sol in (("solver", solution), ("oracle", witness.solution)):
                problem, _ = check_down_right(cells_of(sol), tasks, free)
                if problem:
                    return f"{label} solution on {tasks}: {problem}"
        if extra is None:
            return None
        kind, value = extra
        if kind == "delta":
            if value is not None and value <= 0:
                return f"delta {value} on a NO instance {tasks}"
            return None
        if not 1 <= len(value) <= self.ENUM_LIMIT:
            return f"enumerate returned {len(value)} solutions on a YES instance {tasks}"
        for sol in value:
            problem, _ = check_down_right(cells_of(sol), tasks, free)
            if problem:
                return f"enumerated solution on {tasks}: {problem}"
        if len(value) < self.ENUM_LIMIT and cells_of(solution) not in [cells_of(s) for s in value]:
            return f"complete enumeration misses the solver's solution on {tasks}"
        return None


# ---------------------------------------------------------------- planted2d

class Planted2d(Workload):
    """solve2dir then verify --solution, in-process on text, 256x256 / 300 agents."""

    name = "planted2d"
    INSTANCES = 4

    def __init__(self, seed: int) -> None:
        super().__init__()
        for k in range(self.INSTANCES):
            planted = planted_instance(seed, k)
            w = planted.width
            tasks = [((s % w, s // w), (g % w, g // w)) for s, g in planted.agents]
            free = FreeMask(w, planted.height, bytearray(not o for o in planted.obstacles)).is_free
            witness = [[(c % w, c // w) for c in path] for path in planted.paths]
            problem, _ = check_down_right(witness, tasks, free)
            if problem:
                raise RuntimeError(f"planted witness {k} is invalid: {problem}")
            self.items.append((planted.map_text(), planted.agents_text(), tasks, free))
        self.round_size = len(self.items)
        self.warmup = self.items[:1]

    def solve(self, item):
        map_text, agents_text, _, _ = item
        lib = self.lib
        instance = lib.read_agents(agents_text, lib.read_map(map_text))
        stats = SolverStats() if self.count_work else None
        solution = lib.solve_two_dir(instance, stats=stats)
        text = None if solution is None else lib.write_solution(instance, solution)
        return instance, solution, text, stats

    def verify(self, item, answer):
        instance, _, text, _ = answer
        if text is None:
            return None
        reread = self.lib.read_solution(text, instance)
        return reread, self.lib.validate_solution(instance, reread)

    def check(self, item, answer, verdict) -> Optional[str]:
        _, _, tasks, free = item
        _, solution, _, stats = answer
        if stats is not None:
            self.counts["visited"] += stats.visited_cells
            if solution is not None:
                self.counts["path_cells"] += sum(len(p) for p in cells_of(solution))
        if solution is None:
            return "solve_two_dir returned None on a planted YES instance"
        reread, report = verdict
        if not report.ok:
            return f"validate_solution rejects the solver's solution: {report.conflicts[:2]}"
        if cells_of(reread) != cells_of(solution):
            return "read_solution(write_solution(s)) differs from s"
        problem, parked = check_down_right(cells_of(solution), tasks, free)
        self.counts["parked"] += parked
        return f"solver solution: {problem}" if problem else None


# ---------------------------------------------------------------- formulas

class FormulaItem:
    def __init__(self, n: int, unsat: bool) -> None:
        self.n = n
        self.unsat = unsat
        self.clauses = family_clauses(n, unsat)
        self.text = formula_text(n, self.clauses)
        self.truth: Optional[dict] = None  # ground truth, computed on first check

    @property
    def label(self) -> str:
        return f"{'unsat' if self.unsat else 'sat'}-n{self.n}"

    def satisfiable(self) -> bool:
        """The verdict the family is built to have, confirmed independently."""
        if self.unsat:
            if forced_unit_conflict(self.clauses) is None:
                raise RuntimeError(f"{self.label}: no forced-unit refutation")
            return False
        if not evaluate(self.clauses, family_model(self.n)):
            raise RuntimeError(f"{self.label}: the known model does not satisfy it")
        return True


def free_in(grid):
    obstacles = grid.obstacles

    def free(col: int, row: int) -> bool:
        return 0 <= col < grid.width and 0 <= row < grid.height and (col, row) not in obstacles

    return free


def check_reaches(paths, agents) -> Optional[str]:
    for i, (path, agent) in enumerate(zip(paths, agents)):
        if path[0] != agent.start:
            return f"agent {agent.id} starts at {path[0]}, not {agent.start}"
        if agent.team is None and path[-1] != agent.goal:
            return f"agent {agent.id} ends at {path[-1]}, not {agent.goal}"
    return None


class Pipeline(Workload):
    """compile -> verify --meta -> oracle indopt -> oracle makespan-le d."""

    name = "pipeline"
    FORMULAS = ((8, False), (16, False), (8, True))
    WARMUP = (4, False)

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.items = [FormulaItem(n, unsat) for n, unsat in self.FORMULAS]
        random.Random(f"pipeline/{seed}").shuffle(self.items)
        self.round_size = len(self.items)
        self.pooled_latency = True
        self.warmup = [FormulaItem(*self.WARMUP)]

    def solve(self, item: FormulaItem):
        lib = self.lib
        formula = lib.parse_formula(item.text)
        forest = lib.validate_planar_monotone(formula)
        instance, meta = lib.compile_formula(formula, forest)
        mk_instance, mk_meta = lib.makespan_variant(instance, meta)
        texts = (lib.write_map(instance.grid), lib.write_agents(instance), lib.write_metadata(meta))
        indopt = lib.exists_individually_optimal(instance)
        bounded = lib.exists_makespan_at_most(mk_instance, mk_meta.common_distance)
        return formula, instance, meta, mk_instance, mk_meta, texts, indopt, bounded

    def verify(self, item, answer):
        _, instance, meta, *_ = answer
        return self.lib.verify_construction(instance, meta)

    def check(self, item: FormulaItem, answer, report) -> Optional[str]:
        formula, instance, _, mk_instance, mk_meta, texts, indopt, bounded = answer
        mask = FreeMask.from_text(texts[0])
        self.counts["grid_cells"] = max(self.counts["grid_cells"], mask.width * mask.height)
        self.counts["free_cells"] = max(self.counts["free_cells"], mask.free_count)
        for witness in (indopt, bounded):
            self.count_decision(witness)
        parsed = [(c.id, c.side.value, tuple(c.vars)) for c in formula.clauses]
        if formula.num_vars != item.n or parsed != item.clauses:
            return f"{item.label}: parse_formula does not return the clauses written"
        if not report.ok:
            return f"{item.label}: construction checks fail: {[c.name for c in report.failures()]}"
        sat = item.satisfiable()
        for mode, witness in (("indopt", indopt), ("makespan-le", bounded)):
            if witness.decision != sat:
                return f"{item.label}: oracle {mode} says {witness.decision}, formula sat={sat}"
        if not sat:
            return None
        header = texts[1].split("\n", 1)[0].split()
        moves = frozenset(LETTER_MOVES[ch] for ch in header[1])
        agents = instance.agents
        paths = cells_of(indopt.solution)
        problem = (
            check_reaches(paths, agents)
            or check_steps(paths, mask.is_free, moves, waits=False)
            or find_conflict(paths)[0]
        )
        if problem:
            return f"{item.label}: indopt witness: {problem}"
        if item.truth is None:
            item.truth = {
                a.id: mask.distances(a.start, moves, targets=(a.goal,)).get(a.goal) for a in agents
            }
        for agent, path in zip(agents, paths):
            if len(path) - 1 != item.truth[agent.id]:
                return (
                    f"{item.label}: agent {agent.id} takes {len(path) - 1} steps, "
                    f"shortest is {item.truth[agent.id]}"
                )
        d = mk_meta.common_distance
        paths = cells_of(bounded.solution)
        problem = (
            check_reaches(paths, mk_instance.agents)
            or check_steps(paths, free_in(mk_instance.grid), moves, waits=True)
            or find_conflict(paths)[0]
        )
        if problem:
            return f"{item.label}: makespan witness: {problem}"
        if makespan(paths) > d:
            return f"{item.label}: makespan witness takes {makespan(paths)} > {d} steps"
        return None


class TeamItem(FormulaItem):
    def __init__(self, n: int, unsat: bool) -> None:
        super().__init__(n, unsat)
        instance, meta = compile_formula(parse_formula(self.text))
        mk_instance, mk_meta = makespan_variant(instance, meta)
        self.colored = two_colored_variant(instance, meta)
        self.colored_mk = two_colored_variant(mk_instance, mk_meta)
        self.bound = mk_meta.common_distance
        self.moves = frozenset(LETTER_MOVES[d.letter] for d in instance.directions.moves)
        self.assignments = prod(factorial(len(t)) for t in self.colored.teams.values())


def check_team_witness(instance, solution, moves) -> tuple[Optional[str], list]:
    paths = cells_of(solution)
    problem = check_reaches(paths, instance.agents)
    if problem:
        return problem, paths
    for team, targets in instance.teams.items():
        ends = sorted(p[-1] for p, a in zip(paths, instance.agents) if a.team == team)
        if ends != sorted(targets):
            return f"team {team} ends on {ends}, not a bijection onto its targets", paths
    problem = (
        check_steps(paths, free_in(instance.grid), moves, waits=True)
        or find_conflict(paths)[0]
    )
    return problem, paths


class Team(Workload):
    """Two-colored decisions: lower bound, flowtime at it, makespan at d."""

    name = "team"
    FORMULAS = ((4, False), (5, False), (6, False), (3, True), (4, True))

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.items = [TeamItem(n, unsat) for n, unsat in self.FORMULAS]
        self.warmup = [min(self.items, key=lambda it: it.assignments * it.n)]
        random.Random(f"team/{seed}").shuffle(self.items)
        self.round_size = len(self.items)
        self.pooled_latency = True

    def solve(self, item: TeamItem):
        lib = self.lib
        bound = lib.assignment_minimal_lower_bound(item.colored)
        flow = lib.two_colored_decide(item.colored, "flowtime", bound)
        timed = lib.two_colored_decide(item.colored_mk, "makespan", item.bound)
        return bound, flow, timed

    def verify(self, item: TeamItem, answer):
        _, flow, timed = answer
        reports = []
        if flow.decision:
            reports.append(self.lib.validate_solution(item.colored, flow.solution))
        if timed.decision:
            reports.append(self.lib.validate_solution(item.colored_mk, timed.solution))
        return reports or None

    def lower_bound(self, item: TeamItem) -> Optional[int]:
        """Cheapest within-team assignment of BFS distances, by brute force."""
        instance = item.colored
        grid = instance.grid
        mask = FreeMask(grid.width, grid.height, bytearray(
            (col, row) not in grid.obstacles for row in range(grid.height) for col in range(grid.width)
        ))
        total = 0
        for team, targets in sorted(instance.teams.items()):
            targets = sorted(targets)
            starts = [a.start for a in instance.agents if a.team == team]
            fields = [mask.distances(t, item.moves, reverse=True, targets=starts) for t in targets]
            best = min_assignment_cost([[f.get(s) for f in fields] for s in starts])
            if best is None:
                return None
            total += best
        return total

    def check(self, item: TeamItem, answer, reports) -> Optional[str]:
        bound, flow, timed = answer
        grid = item.colored.grid
        self.counts["team_assignments"] += item.assignments
        self.counts["grid_cells"] = max(self.counts["grid_cells"], grid.width * grid.height)
        self.counts["free_cells"] = max(self.counts["free_cells"], grid.free_count)
        for witness in (flow, timed):
            self.count_decision(witness)
        if item.truth is None:
            item.truth = {"bound": self.lower_bound(item)}
        if bound != item.truth["bound"]:
            return f"{item.label}: lower bound {bound}, brute force gives {item.truth['bound']}"
        sat = item.satisfiable()
        for mode, witness in (("flowtime", flow), ("makespan", timed)):
            if witness.decision != sat:
                return f"{item.label}: two-colored {mode} says {witness.decision}, formula sat={sat}"
        if not sat:
            return None
        if not all(r.ok for r in reports):
            return f"{item.label}: validate_solution rejects a team witness"
        problem, paths = check_team_witness(item.colored, flow.solution, item.moves)
        if not problem and flowtime(paths) > bound:
            problem = f"flowtime {flowtime(paths)} > bound {bound}"
        if problem:
            return f"{item.label}: flowtime witness: {problem}"
        problem, paths = check_team_witness(item.colored_mk, timed.solution, item.moves)
        if not problem and makespan(paths) > item.bound:
            problem = f"makespan {makespan(paths)} > bound {item.bound}"
        if problem:
            return f"{item.label}: makespan witness: {problem}"
        return None


WORKLOADS = {w.name: w for w in (Sweep4, Planted2d, Pipeline, Team)}
