"""Oracle tests: exhaustive searches checked against simpler brute forces."""

import functools
import itertools
import random

import pytest

from gridmapf.core import (
    AgentTask,
    ALL_CONFLICTS,
    Cell,
    DOWN_RIGHT,
    FOUR_DIRECTIONS,
    GridMap,
    Instance,
    Solution,
    TimedPath,
    VERTEX_EDGE,
    is_individually_optimal,
    lower_bound_cost,
    validate_solution,
)
from gridmapf.oracle import (
    BudgetExceededError,
    NoSolutionError,
    SearchBudget,
    assignment_minimal_lower_bound,
    delta,
    enumerate_individually_optimal,
    exists_individually_optimal,
    exists_makespan_at_most,
    optimal_flowtime,
    two_colored_decide,
    _Compiled,
    _descent_successors,
)


def inst4(tasks, obstacles=(), dirs=FOUR_DIRECTIONS, teams=None):
    grid = GridMap(4, 4, frozenset(Cell(*o) for o in obstacles))
    agents = tuple(
        AgentTask(i, Cell(*s), Cell(*g), team=t[2] if len(t) > 2 else None)
        for i, t in enumerate(tasks)
        for s, g in [(t[0], t[1])]
    )
    return Instance(grid, agents, dirs, teams=teams)


def all_shortest_paths(grid, start, goal, dirs):
    """Every shortest path of one agent, by depth-first descent."""
    from gridmapf.core import shortest_dist_field

    field = shortest_dist_field(grid, goal, dirs)
    if start not in field:
        return []
    out = []

    def rec(cur, cells):
        if cur == goal:
            out.append(tuple(cells))
            return
        for d in dirs.ordered():
            nxt = d.apply(cur)
            if grid.is_free(nxt) and field.get(nxt, -1) == field[cur] - 1:
                rec(nxt, cells + [nxt])

    rec(start, [start])
    return out


def product_filter_solutions(instance, model=VERTEX_EDGE):
    """Independent oracle: cartesian product of shortest paths, filtered."""
    per_agent = [
        all_shortest_paths(instance.grid, a.start, a.goal, instance.directions)
        for a in instance.agents
    ]
    result = []
    for combo in itertools.product(*per_agent):
        sol = Solution(tuple(TimedPath(cells) for cells in combo))
        if validate_solution(instance, sol, model).ok:
            result.append(sol)
    return result


def enumerate_memoized(instance, model=VERTEX_EDGE):
    """Enumeration with suffix memoization keyed on position tuples.

    Exists to demonstrate that strict-descent deduplication is lossless:
    the result equals plain enumeration, solution for solution.
    """
    comp = _Compiled(instance)
    n = len(comp.starts)
    if comp.lower_bound is None:
        return []

    @functools.lru_cache(maxsize=None)
    def suffixes(cur):
        movers = [i for i in range(n) if cur[i] != comp.goals[i]]
        if not movers:
            return ((cur,),)
        static_cells = frozenset(cur[i] for i in range(n) if cur[i] == comp.goals[i])
        return tuple(
            (cur,) + tail
            for nxt in _descent_successors(cur, movers, comp, static_cells, model)
            for tail in suffixes(nxt)
        )

    return [comp.solution_from_states(states) for states in suffixes(comp.starts)]


class TestExistsIndividuallyOptimal:
    def test_forced_crossing_false(self):
        inst = inst4([((1, 0), (1, 2)), ((0, 1), (2, 1))], dirs=DOWN_RIGHT)
        assert not exists_individually_optimal(inst).decision

    def test_shifted_crossing_true(self):
        inst = inst4([((1, 0), (1, 3)), ((0, 2), (2, 2))], dirs=DOWN_RIGHT)
        w = exists_individually_optimal(inst)
        assert w.decision
        assert is_individually_optimal(inst, w.solution)

    def test_witness_validates(self):
        inst = inst4([((0, 0), (3, 3)), ((3, 0), (3, 2)), ((0, 1), (2, 1))])
        w = exists_individually_optimal(inst)
        if w.decision:
            assert validate_solution(inst, w.solution).ok
            assert is_individually_optimal(inst, w.solution)

    def test_matches_product_filter_on_small_grids(self):
        rng = random.Random(17)
        agree = 0
        for _ in range(60):
            tasks = []
            used_s, used_g = set(), set()
            for _ in range(2):
                s = (rng.randrange(3), rng.randrange(3))
                g = (rng.randrange(3), rng.randrange(3))
                if s in used_s or g in used_g:
                    continue
                used_s.add(s)
                used_g.add(g)
                tasks.append((s, g))
            if len(tasks) != 2:
                continue
            grid = GridMap(3, 3)
            inst = Instance(
                grid,
                tuple(AgentTask(i, Cell(*s), Cell(*g)) for i, (s, g) in enumerate(tasks)),
                FOUR_DIRECTIONS,
            )
            expected = bool(product_filter_solutions(inst))
            assert exists_individually_optimal(inst).decision == expected
            agree += 1
        assert agree >= 40

    def test_unreachable_goal_false(self):
        inst = inst4([((0, 0), (3, 3))], obstacles=[(2, 3), (3, 2)], dirs=DOWN_RIGHT)
        assert not exists_individually_optimal(inst).decision

    def test_budget_exceeded_raises(self):
        inst = inst4([((0, 0), (3, 3)), ((1, 0), (3, 2)), ((0, 1), (2, 3))])
        with pytest.raises(BudgetExceededError):
            exists_individually_optimal(inst, budget=SearchBudget(max_states=1))

    def test_zero_timeout_is_a_deadline(self):
        corners = [((0, 0), (3, 3)), ((3, 0), (0, 3)), ((0, 3), (3, 0)), ((3, 3), (0, 0))]
        inst = inst4(corners)
        with pytest.raises(BudgetExceededError, match="state budget"):
            enumerate_individually_optimal(inst, budget=SearchBudget(max_states=512))
        with pytest.raises(BudgetExceededError, match="wall-time"):
            enumerate_individually_optimal(inst, budget=SearchBudget(max_seconds=0))

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            SearchBudget(max_seconds=-1)

    def test_agent_reorder_invariance(self):
        tasks = [((0, 0), (2, 2)), ((2, 0), (0, 2)), ((1, 0), (1, 2))]
        base = inst4(tasks)
        for perm in itertools.permutations(range(3)):
            shuffled = inst4([tasks[i] for i in perm])
            assert (
                exists_individually_optimal(shuffled).decision
                == exists_individually_optimal(base).decision
            )

    def test_translation_invariance(self):
        tasks = [((0, 0), (2, 0)), ((1, 0), (1, 1))]
        small = inst4(tasks)
        shifted = Instance(
            GridMap(6, 6),
            tuple(
                AgentTask(i, Cell(s[0] + 2, s[1] + 2), Cell(g[0] + 2, g[1] + 2))
                for i, (s, g) in enumerate(tasks)
            ),
            FOUR_DIRECTIONS,
        )
        assert (
            exists_individually_optimal(small).decision
            == exists_individually_optimal(shifted).decision
        )


class TestEnumerate:
    def test_single_agent_two_paths(self):
        inst = Instance(
            GridMap(2, 2),
            (AgentTask(0, Cell(0, 0), Cell(1, 1)),),
            FOUR_DIRECTIONS,
        )
        sols = enumerate_individually_optimal(inst)
        assert len(sols) == 2

    def test_no_instance_empty(self):
        inst = inst4([((1, 0), (1, 2)), ((0, 1), (2, 1))], dirs=DOWN_RIGHT)
        assert enumerate_individually_optimal(inst) == []

    def test_count_matches_product_filter(self):
        rng = random.Random(19)
        for _ in range(30):
            s1 = (rng.randrange(3), rng.randrange(3))
            g1 = (rng.randrange(3), rng.randrange(3))
            s2 = (rng.randrange(3), rng.randrange(3))
            g2 = (rng.randrange(3), rng.randrange(3))
            if s1 == s2 or g1 == g2:
                continue
            inst = Instance(
                GridMap(3, 3),
                (AgentTask(0, Cell(*s1), Cell(*g1)), AgentTask(1, Cell(*s2), Cell(*g2))),
                FOUR_DIRECTIONS,
            )
            assert len(enumerate_individually_optimal(inst)) == len(
                product_filter_solutions(inst)
            )

    def test_limit_truncates(self):
        inst = Instance(
            GridMap(3, 3),
            (AgentTask(0, Cell(0, 0), Cell(2, 2)),),
            FOUR_DIRECTIONS,
        )
        assert len(enumerate_individually_optimal(inst, limit=3)) == 3

    def test_memoized_enumeration_is_lossless(self):
        rng = random.Random(29)
        for _ in range(20):
            s1 = (rng.randrange(3), rng.randrange(3))
            g1 = (rng.randrange(3), rng.randrange(3))
            s2 = (rng.randrange(3), rng.randrange(3))
            g2 = (rng.randrange(3), rng.randrange(3))
            if s1 == s2 or g1 == g2:
                continue
            inst = Instance(
                GridMap(3, 3),
                (AgentTask(0, Cell(*s1), Cell(*g1)), AgentTask(1, Cell(*s2), Cell(*g2))),
                FOUR_DIRECTIONS,
            )
            plain = enumerate_individually_optimal(inst)
            memo = enumerate_memoized(inst)
            assert {tuple(p.cells for p in s.paths) for s in plain} == {
                tuple(p.cells for p in s.paths) for s in memo
            }


class TestMakespan:
    def test_single_agent_tight_bound(self):
        inst = inst4([((0, 0), (3, 0))])
        assert exists_makespan_at_most(inst, 3).decision
        assert not exists_makespan_at_most(inst, 2).decision

    def test_witness_meets_bound(self):
        inst = inst4([((0, 0), (2, 0)), ((2, 0), (0, 0))])
        w = exists_makespan_at_most(inst, 4)
        assert w.decision
        assert w.solution.makespan() <= 4
        assert validate_solution(inst, w.solution).ok

    def test_crossing_needs_extra_step(self):
        inst = inst4([((1, 0), (1, 2)), ((0, 1), (2, 1))])
        # both shortest distances are 2; with a wait, makespan 3 works
        assert not exists_makespan_at_most(inst, 2).decision
        assert exists_makespan_at_most(inst, 3).decision


class TestOptimalFlowtime:
    def test_single_agent(self):
        inst = inst4([((0, 0), (3, 1))])
        cost, sol = optimal_flowtime(inst)
        assert cost == 4
        assert sol.flowtime() == 4

    def test_crossing_conflict_costs_one_extra(self):
        inst = inst4([((1, 0), (1, 2)), ((0, 1), (2, 1))])
        cost, sol = optimal_flowtime(inst)
        assert cost == lower_bound_cost(inst) + 1
        assert validate_solution(inst, sol).ok
        assert sol.flowtime() == cost

    def test_free_detour_keeps_lower_bound(self):
        inst = inst4([((0, 0), (2, 0)), ((2, 0), (0, 0))])
        cost, _ = optimal_flowtime(inst)
        assert cost == lower_bound_cost(inst) + 2  # swap needs a sidestep

    def test_head_on_corridor(self):
        # corridor with one bay: passing costs two extra steps in total
        grid = GridMap(4, 2, frozenset({Cell(0, 1), Cell(2, 1), Cell(3, 1)}))
        inst = Instance(
            grid,
            (AgentTask(0, Cell(0, 0), Cell(3, 0)), AgentTask(1, Cell(3, 0), Cell(0, 0))),
            FOUR_DIRECTIONS,
        )
        cost, sol = optimal_flowtime(inst)
        assert validate_solution(inst, sol).ok
        assert cost == lower_bound_cost(inst) + 2

    def test_infeasible_raises(self):
        grid = GridMap(3, 1, frozenset({Cell(1, 0)}))
        inst = Instance(grid, (AgentTask(0, Cell(0, 0), Cell(2, 0)),), FOUR_DIRECTIONS)
        with pytest.raises(NoSolutionError):
            optimal_flowtime(inst)

    def test_parked_agent_must_be_paid_to_move(self):
        # agent 0 starts on its goal but must step aside for agent 1
        grid = GridMap(3, 2, frozenset({Cell(0, 1), Cell(2, 1)}))
        inst = Instance(
            grid,
            (AgentTask(0, Cell(1, 0), Cell(1, 0)), AgentTask(1, Cell(0, 0), Cell(2, 0))),
            FOUR_DIRECTIONS,
        )
        cost, sol = optimal_flowtime(inst)
        assert validate_solution(inst, sol).ok
        # agent 0 sidesteps while agent 1 passes through, returning at t=2
        assert cost == 4
        # under the strict model every hand-over needs a one-step gap:
        # agent 1 waits for the bay to clear, agent 0 waits to return
        strict_cost, strict_sol = optimal_flowtime(inst, ALL_CONFLICTS)
        assert validate_solution(inst, strict_sol, ALL_CONFLICTS).ok
        assert strict_cost == 7


class TestDelta:
    def test_zero_iff_exists(self):
        rng = random.Random(23)
        for _ in range(25):
            tasks = []
            used_s, used_g = set(), set()
            for _ in range(2):
                s = (rng.randrange(3), rng.randrange(3))
                g = (rng.randrange(3), rng.randrange(3))
                if s in used_s or g in used_g:
                    continue
                used_s.add(s)
                used_g.add(g)
                tasks.append((s, g))
            if len(tasks) < 2:
                continue
            inst = Instance(
                GridMap(3, 3),
                tuple(AgentTask(i, Cell(*s), Cell(*g)) for i, (s, g) in enumerate(tasks)),
                FOUR_DIRECTIONS,
            )
            assert (delta(inst) == 0) == exists_individually_optimal(inst).decision

    def test_conflict_free_is_zero(self):
        inst = inst4([((0, 0), (3, 0)), ((0, 3), (3, 3))])
        assert delta(inst) == 0

    def test_crossing_is_one(self):
        inst = inst4([((1, 0), (1, 2)), ((0, 1), (2, 1))])
        assert delta(inst) == 1


class TestTwoColored:
    def test_swapped_assignment_needed(self):
        # labeled goals deadlock head-on, swapping targets within the team works
        grid = GridMap(3, 1)
        inst = Instance(
            grid,
            (
                AgentTask(0, Cell(0, 0), Cell(2, 0), team="t"),
                AgentTask(1, Cell(2, 0), Cell(0, 0), team="t"),
            ),
            FOUR_DIRECTIONS,
            teams={"t": frozenset({Cell(0, 0), Cell(2, 0)})},
        )
        bound = assignment_minimal_lower_bound(inst)
        assert bound == 0
        w = two_colored_decide(inst, "flowtime", bound)
        assert w.decision

    def test_singleton_teams_reduce_to_labeled(self):
        inst_labeled = inst4([((1, 0), (1, 2)), ((0, 1), (2, 1))], dirs=DOWN_RIGHT)
        inst_teams = inst4(
            [((1, 0), (1, 2), "a"), ((0, 1), (2, 1), "b")],
            dirs=DOWN_RIGHT,
            teams={
                "a": frozenset({Cell(1, 2)}),
                "b": frozenset({Cell(2, 1)}),
            },
        )
        lb = lower_bound_cost(inst_labeled)
        assert (
            two_colored_decide(inst_teams, "flowtime", lb).decision
            == exists_individually_optimal(inst_labeled).decision
        )

    def test_makespan_objective(self):
        grid = GridMap(3, 1)
        inst = Instance(
            grid,
            (
                AgentTask(0, Cell(0, 0), Cell(2, 0), team="t"),
                AgentTask(1, Cell(2, 0), Cell(0, 0), team="t"),
            ),
            FOUR_DIRECTIONS,
            teams={"t": frozenset({Cell(0, 0), Cell(2, 0)})},
        )
        assert two_colored_decide(inst, "makespan", 0).decision

    def test_requires_teams(self):
        with pytest.raises(ValueError):
            two_colored_decide(inst4([((0, 0), (1, 1))]), "flowtime", 2)


class TestFeasibleCostBounds:
    def test_flowtime_never_beats_lower_bound(self):
        # every feasible solution the searches produce respects the bound
        rng = random.Random(53)
        for _ in range(40):
            tasks = []
            used_s, used_g = set(), set()
            for _ in range(rng.randrange(1, 4)):
                s = (rng.randrange(4), rng.randrange(4))
                g = (rng.randrange(4), rng.randrange(4))
                if s in used_s or g in used_g:
                    continue
                used_s.add(s)
                used_g.add(g)
                tasks.append((s, g))
            if not tasks:
                continue
            inst = inst4(tasks)
            lb = lower_bound_cost(inst)
            if lb is None:
                continue
            w = exists_makespan_at_most(inst, lb + 3)
            if w.decision:
                assert w.solution.flowtime() >= lb
            cost, sol = optimal_flowtime(inst)
            assert cost >= lb
            assert sol.flowtime() == cost


class TestStrictModel:
    def test_following_blocks_tail_chase(self):
        # two agents marching in single file down one corridor
        grid = GridMap(4, 1)
        inst = Instance(
            grid,
            (
                AgentTask(0, Cell(1, 0), Cell(3, 0)),
                AgentTask(1, Cell(0, 0), Cell(2, 0)),
            ),
            DirectionSetRight(),
        )
        assert exists_individually_optimal(inst, VERTEX_EDGE).decision
        assert not exists_individually_optimal(inst, ALL_CONFLICTS).decision


def DirectionSetRight():
    from gridmapf.core import DirectionSet

    return DirectionSet.from_letters("R")
