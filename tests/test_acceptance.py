"""Acceptance suite.

Every test prints one PASS line; a failure raises with the violating
instances.  All decisions are exact (tolerance zero).

The exhaustive solver-vs-oracle sweeps cover every 3x3 instance and
every 4x4 instance with up to two agents; the 4x4 three-agent family
(about six million instances) is sampled with a fixed stride by default
because checking all of it in pure Python takes tens of minutes.  Set
``GRIDMAPF_FULL_SWEEP=1`` to run the complete family.
"""

import itertools
import os
import random
import statistics
import time

import pytest

from gridmapf.core import (
    AgentTask,
    ALL_CONFLICTS,
    Cell,
    DOWN_RIGHT,
    GridMap,
    Instance,
    VERTEX_EDGE,
    is_individually_optimal,
    lower_bound_cost,
    validate_solution,
)
from gridmapf.formula import brute_force_sat
from gridmapf.oracle import (
    assignment_minimal_lower_bound,
    enumerate_individually_optimal,
    exists_individually_optimal,
    exists_makespan_at_most,
    two_colored_decide,
)
from gridmapf.reduction import (
    extract_assignment,
    makespan_variant,
    realize_solution,
    two_colored_variant,
    verify_construction,
)
from gridmapf.twodir import solve_two_dir

from planner_reference import MonotonePath, reference_solve, weakly_above

FULL_SWEEP = os.environ.get("GRIDMAPF_FULL_SWEEP") == "1"

# every Nth three-agent 4x4 instance is checked unless FULL_SWEEP is set
TRIPLE_STRIDE = 1 if FULL_SWEEP else 23
# every Nth yes-instance gets the full canonicality enumeration
CANON_STRIDE = 1 if FULL_SWEEP else 29


def exhaustive_instances(size, max_obstacles, agent_counts, stride=1):
    """Every down-right instance of the given shape, in a fixed order."""
    cells = [Cell(c, r) for r in range(size) for c in range(size)]
    index = 0
    for nobs in range(max_obstacles + 1):
        for obs in itertools.combinations(cells, nobs):
            grid = GridMap(size, size, frozenset(obs))
            free = [c for c in cells if grid.is_free(c)]
            pairs = [
                (s, g)
                for s in free
                for g in free
                if g.col >= s.col and g.row >= s.row
            ]
            for k in agent_counts:
                for combo in itertools.combinations(pairs, k):
                    starts = {s for s, _ in combo}
                    goals = {g for _, g in combo}
                    if len(starts) < k or len(goals) < k:
                        continue
                    index += 1
                    if index % stride:
                        continue
                    yield Instance(
                        grid,
                        tuple(
                            AgentTask(i, s, g) for i, (s, g) in enumerate(combo)
                        ),
                        DOWN_RIGHT,
                    )


def random_instances(size, count, max_agents, seed):
    rng = random.Random(seed)
    made = 0
    while made < count:
        obstacles = frozenset(
            Cell(rng.randrange(size), rng.randrange(size))
            for _ in range(rng.randrange(size))
        )
        grid = GridMap(size, size, obstacles)
        tasks = []
        used_s, used_g = set(), set()
        for _ in range(rng.randrange(1, max_agents + 1)):
            s = Cell(rng.randrange(size), rng.randrange(size))
            g = Cell(
                s.col + rng.randrange(size - s.col),
                s.row + rng.randrange(size - s.row),
            )
            if s in used_s or g in used_g or not grid.is_free(s) or not grid.is_free(g):
                continue
            used_s.add(s)
            used_g.add(g)
            tasks.append((s, g))
        if not tasks:
            continue
        made += 1
        yield Instance(
            grid,
            tuple(AgentTask(i, s, g) for i, (s, g) in enumerate(tasks)),
            DOWN_RIGHT,
        )


@pytest.fixture(scope="module")
def sweep():
    """Shared pass over the agreement suites; criteria 1-3 read its tallies."""
    suites = [
        ("3x3 exhaustive", exhaustive_instances(3, 2, (1, 2, 3))),
        ("4x4 exhaustive <=2 agents", exhaustive_instances(4, 2, (1, 2))),
        (
            "4x4 stride of 3-agent family",
            exhaustive_instances(4, 2, (3,), stride=TRIPLE_STRIDE),
        ),
        ("1000 random 8x8", random_instances(8, 1000, 5, seed=2024)),
    ]
    tally = {
        "checked": 0,
        "yes": 0,
        "disagreements": [],
        "soundness_violations": [],
        "canonicality_checked": 0,
        "canonicality_violations": [],
        "per_suite": [],
    }
    for name, generator in suites:
        checked = 0
        for inst in generator:
            solution = solve_two_dir(inst)
            decision = exists_individually_optimal(inst).decision
            checked += 1
            tally["checked"] += 1
            if (solution is not None) != decision:
                tally["disagreements"].append(inst)
                continue
            if solution is None:
                continue
            tally["yes"] += 1
            if (
                not validate_solution(inst, solution, VERTEX_EDGE).ok
                or solution.flowtime() != lower_bound_cost(inst)
            ):
                tally["soundness_violations"].append(inst)
            if tally["yes"] % CANON_STRIDE == 0:
                tally["canonicality_checked"] += 1
                for alt in enumerate_individually_optimal(inst, limit=200):
                    for mine, other in zip(solution.paths, alt.paths):
                        if not weakly_above(
                            MonotonePath(mine.cells), MonotonePath(other.cells)
                        ):
                            tally["canonicality_violations"].append(inst)
        tally["per_suite"].append((name, checked))
    return tally


class TestSolverCriteria:
    def test_criterion_1_solver_oracle_agreement(self, sweep):
        assert not sweep["disagreements"], sweep["disagreements"][:3]
        detail = ", ".join(f"{name}: {n}" for name, n in sweep["per_suite"])
        print(
            f"\nPASS criterion 1: solver/oracle agreement on {sweep['checked']} "
            f"instances ({detail})"
        )

    def test_criterion_2_solver_soundness(self, sweep):
        assert not sweep["soundness_violations"], sweep["soundness_violations"][:3]
        print(
            f"\nPASS criterion 2: {sweep['yes']} solutions validated, flowtime "
            f"equal to the lower bound on all of them"
        )

    def test_criterion_3_canonicality(self, sweep):
        assert not sweep["canonicality_violations"], sweep["canonicality_violations"][:3]
        print(
            f"\nPASS criterion 3: canonical paths weakly above all enumerated "
            f"alternatives on {sweep['canonicality_checked']} yes-instances "
            f"(cap 200 each)"
        )

    def test_criterion_4_right_preference_regression(self):
        base = Instance(
            GridMap(4, 4, frozenset({Cell(0, 0)})),
            (
                AgentTask(0, Cell(2, 0), Cell(3, 0)),
                AgentTask(1, Cell(1, 1), Cell(2, 2)),
                AgentTask(2, Cell(0, 2), Cell(1, 2)),
            ),
            DOWN_RIGHT,
        )
        assert solve_two_dir(base) is not None
        assert reference_solve(base, right_first=False) is None
        assert exists_individually_optimal(base).decision

        mutated = Instance(
            GridMap(4, 4, frozenset({Cell(0, 0), Cell(2, 1)})),
            base.agents,
            DOWN_RIGHT,
        )
        assert solve_two_dir(mutated) is None
        assert reference_solve(mutated, right_first=False) is None
        assert not exists_individually_optimal(mutated).decision
        print(
            "\nPASS criterion 4: right-preference separates the regression "
            "fixture; the one-obstacle mutation is a confirmed no-instance"
        )

    def test_criterion_9_complexity_smoke(self):
        # fixed agent count; quadrupling the cell count per size step may at
        # most quadruple the (linear in cells) runtime: two area doublings
        # at a budgeted 2.5x each.
        rng = random.Random(99)
        sizes = (16, 32, 64)
        agents = 12
        medians = []
        for size in sizes:
            times = []
            for _ in range(50):
                obstacles = set()
                while len(obstacles) < size * size // 16:
                    obstacles.add(Cell(rng.randrange(size), rng.randrange(size)))
                grid = GridMap(size, size, frozenset(obstacles))
                tasks = []
                used_s, used_g = set(), set()
                while len(tasks) < agents:
                    s = Cell(rng.randrange(size), rng.randrange(size))
                    g = Cell(
                        s.col + rng.randrange(size - s.col),
                        s.row + rng.randrange(size - s.row),
                    )
                    if (
                        s in used_s
                        or g in used_g
                        or not grid.is_free(s)
                        or not grid.is_free(g)
                    ):
                        continue
                    used_s.add(s)
                    used_g.add(g)
                    tasks.append(AgentTask(len(tasks), s, g))
                inst = Instance(grid, tuple(tasks), DOWN_RIGHT)
                t0 = time.perf_counter()
                solve_two_dir(inst)
                times.append(time.perf_counter() - t0)
            medians.append(statistics.median(times))
        budget = 2.5 * 2.5  # two area doublings per size step
        ratios = [medians[i + 1] / medians[i] for i in range(len(sizes) - 1)]
        assert all(r <= budget for r in ratios), (medians, ratios)
        print(
            f"\nPASS criterion 9: median solve times {[f'{m * 1e3:.2f}ms' for m in medians]} "
            f"for sizes {sizes}, growth ratios {[f'{r:.2f}' for r in ratios]} "
            f"within {budget}x per size step"
        )


@pytest.fixture(scope="module")
def equivalences(corpus_formulas, corpus_compiled):
    """Per fixture: satisfiability and all MAPF decisions, both models."""
    results = {}
    for name, (inst, meta) in corpus_compiled.items():
        formula = corpus_formulas[name]
        sat = brute_force_sat(formula) is not None
        mk_inst, mk_meta = makespan_variant(inst, meta)
        colored = two_colored_variant(inst, meta)
        colored_mk = two_colored_variant(mk_inst, mk_meta)
        flow_bound = assignment_minimal_lower_bound(colored)
        per_model = {}
        for label, model in (("default", VERTEX_EDGE), ("strict", ALL_CONFLICTS)):
            per_model[label] = {
                "indopt": exists_individually_optimal(inst, model).decision,
                "makespan": exists_makespan_at_most(
                    mk_inst, mk_meta.common_distance, model
                ).decision,
                "two_colored_flowtime": two_colored_decide(
                    colored, "flowtime", flow_bound, model
                ).decision,
                "two_colored_makespan": two_colored_decide(
                    colored_mk, "makespan", mk_meta.common_distance, model
                ).decision,
            }
        results[name] = {"sat": sat, "models": per_model}
    return results


class TestReductionCriteria:
    def test_criterion_5_equivalence(self, corpus_formulas, equivalences):
        nonempty = [n for n, f in corpus_formulas.items() if f.num_clauses > 0]
        assert len(nonempty) >= 10
        # coverage: both outcomes, nesting >= 2, clause sizes 1..3
        from gridmapf.formula import validate_planar_monotone

        assert any(equivalences[n]["sat"] for n in nonempty)
        assert any(not equivalences[n]["sat"] for n in nonempty)
        deepest = max(
            level
            for n in nonempty
            for level in validate_planar_monotone(corpus_formulas[n]).levels.values()
        )
        assert deepest >= 2
        sizes = {
            len(c.vars) for n in nonempty for c in corpus_formulas[n].clauses
        }
        assert sizes == {1, 2, 3}

        mismatches = []
        for name, result in equivalences.items():
            decisions = result["models"]["default"]
            for kind, value in decisions.items():
                if value != result["sat"]:
                    mismatches.append((name, kind, value, result["sat"]))
        assert not mismatches, mismatches
        print(
            f"\nPASS criterion 5: four-way equivalence (sat, individually "
            f"optimal, makespan-d, two-colored both objectives) on "
            f"{len(equivalences)} fixtures"
        )

    def test_criterion_6_conflict_model_robustness(self, equivalences):
        mismatches = []
        for name, result in equivalences.items():
            if result["models"]["strict"] != result["models"]["default"]:
                mismatches.append((name, result["models"]))
        assert not mismatches, mismatches
        print(
            "\nPASS criterion 6: identical decisions with following and cycle "
            "conflicts also forbidden"
        )

    def test_criterion_7_construction_invariants(self, corpus_compiled):
        failures = []
        for name, (inst, meta) in corpus_compiled.items():
            report = verify_construction(inst, meta)
            if not report.ok:
                failures.append((name, report.failures()))
            assert len(report.checks) == 8
        assert not failures, failures
        print(
            f"\nPASS criterion 7: all 8 construction checks hold on "
            f"{len(corpus_compiled)} fixtures"
        )

    def test_criterion_8_constructive_round_trip(self, corpus_formulas, corpus_compiled):
        from gridmapf.formula import evaluate

        rounds = 0
        for name, (inst, meta) in corpus_compiled.items():
            assignment = brute_force_sat(corpus_formulas[name])
            if assignment is None or inst.num_agents == 0:
                continue
            rounds += 1
            solution = realize_solution(inst, meta, assignment)
            assert validate_solution(inst, solution, ALL_CONFLICTS).ok, name
            assert is_individually_optimal(inst, solution), name
            extracted = extract_assignment(inst, meta, solution)
            assert evaluate(corpus_formulas[name], extracted), name
            # at time L every unfinished agent sits inside a channel, and
            # each channel hosts a single sign
            channel_cells = {}
            for ch in meta.channels:
                channel_cells[ch.var] = set(ch.cells())
            t = meta.channel_length
            sides = {c.id: c.side for c in meta.formula.clauses}
            for agent, path in zip(inst.agents, solution.paths):
                if path.cost <= t:
                    continue
                assert any(
                    path.at(t) in cells for cells in channel_cells.values()
                ), name
            for var, cells in channel_cells.items():
                users = {
                    sides[a.id]
                    for a, p in zip(inst.agents, solution.paths)
                    if cells & set(p.cells)
                }
                assert len(users) <= 1, (name, var)
        assert rounds >= 5
        print(
            f"\nPASS criterion 8: realize/extract round trip, time-L channel "
            f"occupancy and sign purity on {rounds} satisfiable fixtures"
        )
