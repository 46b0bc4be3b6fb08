"""Oracle tests: exhaustive searches checked against simpler brute forces."""

import functools
import itertools
import math
import random

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from gridmapf.core import (
    AgentTask,
    ALL_CONFLICTS,
    Cell,
    ConflictModel,
    DirectionSet,
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
    _joint_moves,
    _solution_from_states,
    _successors,
)
from kernel_reference import shortest_dist_field
from rotation_reference import rotating_movers

ALL_MODELS = [ConflictModel(*flags) for flags in itertools.product((False, True), repeat=4)]


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
    """Enumeration with suffix memoization keyed on (positions, t, parked).

    Exists to demonstrate that the deduplication of the strict-descent
    search is lossless: the result equals plain enumeration, solution for
    solution.
    """
    comp = _Compiled(instance)
    if comp.lower_bound is None:
        return []

    @functools.lru_cache(maxsize=None)
    def suffixes(key):
        if key[0] == comp.goals:
            return ((key[0],),)
        return tuple(
            (key[0],) + tail
            for nxt in _successors(comp, key, comp.lengths, model)
            for tail in suffixes(nxt)
        )

    return [_solution_from_states(comp.stride, states) for states in suffixes((comp.starts, 0, 0))]


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

    def test_negative_state_budget_rejected(self):
        with pytest.raises(ValueError, match="max_states must not be negative, got -3"):
            SearchBudget(max_states=-3)
        assert SearchBudget(max_states=0).max_states == 0

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
        assert enumerate_individually_optimal(inst, limit=0) == []
        with pytest.raises(ValueError):
            enumerate_individually_optimal(inst, limit=-1)

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


class TestNoDepthLimit:
    """The searches keep no Python frame per agent or per time step."""

    def test_twelve_hundred_agents_one_step(self):
        # one joint move assigns 1,200 agents in turn
        width = 1200
        agents = tuple(AgentTask(x, Cell(x, 0), Cell(x, 1)) for x in range(width))
        inst = Instance(GridMap(width, 2), agents, DOWN_RIGHT)
        assert exists_individually_optimal(inst).decision
        assert exists_makespan_at_most(inst, 1).decision

    def test_enumeration_down_a_long_corridor(self):
        inst = Instance(GridMap(1100, 1), (AgentTask(0, Cell(0, 0), Cell(1099, 0)),), DOWN_RIGHT)
        [solution] = enumerate_individually_optimal(inst, limit=1)
        assert solution.flowtime() == 1099


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
    def test_rotation_through_a_shared_cell_under_every_ordering(self):
        # Each agent has one shortest path.  At t=1 the first and third agents
        # share (1,0); at t=2 the third swaps (1,0) <-> (2,0) with the second
        # while the first also leaves (1,0): a rotation, however numbered.
        tasks = [((2, 0), (0, 0)), ((3, 0), (1, 0)), ((0, 0), (3, 0))]
        model = ConflictModel(False, False, False, True)
        for order in itertools.permutations(tasks):
            inst = Instance(
                GridMap(4, 1),
                tuple(AgentTask(i, Cell(*s), Cell(*g)) for i, (s, g) in enumerate(order)),
                FOUR_DIRECTIONS,
            )
            assert not exists_individually_optimal(inst, model).decision

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


def reference_joint_moves(cur, active, choices, static_cells, model):
    """``itertools.product`` of the choices, filtered by the conflict definitions.

    Vertex: two agents, one of them active, share a cell afterwards, or an
    active agent enters a static cell.  Edge: two movers trade cells.
    Following: a mover enters the cell another mover leaves.  Cycle: some
    movers rotate, each entering the cell the next one leaves, as found by
    the brute force of ``rotation_reference``.
    """
    n = len(cur)
    out = []
    for combo in itertools.product(*choices):
        nxt = list(cur)
        for i, c in zip(active, combo):
            nxt[i] = c
        movers = [i for i in range(n) if nxt[i] != cur[i]]
        if model.forbid_vertex and any(
            nxt[i] in static_cells
            or any(j != i and nxt[j] == nxt[i] for j in range(n))
            for i in active
        ):
            continue
        if model.forbid_edge and any(
            nxt[i] == cur[j] and nxt[j] == cur[i] for i in movers for j in movers
        ):
            continue
        if model.forbid_following and any(
            j != i and nxt[i] == cur[j] for i in movers for j in movers
        ):
            continue
        if model.forbid_cycle and rotating_movers(cur, nxt):
            continue
        out.append(tuple(nxt))
    return out


@st.composite
def joint_move_inputs(draw):
    """Positions on six cells, so duplicates and collisions are common."""
    n = draw(st.integers(1, 4))
    cur = tuple(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
    active = sorted(draw(st.sets(st.integers(0, n - 1))))
    choices = [
        draw(st.lists(st.integers(0, 5), min_size=0, max_size=4, unique=True)) for _ in active
    ]
    static_cells = {cur[i] for i in range(n) if i not in active}
    return cur, active, choices, static_cells


@settings(max_examples=300, deadline=None)
@given(joint_move_inputs())
def test_joint_moves_match_filtered_product(inputs):
    cur, active, choices, static_cells = inputs
    for model in ALL_MODELS:
        assert list(_joint_moves(cur, active, choices, static_cells, model)) == (
            reference_joint_moves(cur, active, choices, static_cells, model)
        )


def test_joint_moves_match_filtered_product_deep():
    # Hypothesis draws at most four agents, too few levels for the restore
    # paths of the backtracking loop: here 8-12 active agents take one to
    # three choices each (none at one level of every fourth case), on at
    # most ten cells, so agents share cells and some stand static.
    rng = random.Random(9)
    cases = moves = 0
    while cases < 40:
        cells = rng.randint(6, 10)
        n_active = rng.randint(8, 12)
        n = n_active + rng.randint(0, 3)
        cur = tuple(rng.randrange(cells) for _ in range(n))
        active = sorted(rng.sample(range(n), n_active))
        choices = [rng.sample(range(cells), rng.choice((1, 2, 2, 3, 3))) for _ in active]
        if cases % 4 == 3:
            choices[rng.randrange(n_active)] = []
        if math.prod(map(len, choices)) > 2000:
            continue
        static_cells = {cur[i] for i in range(n) if i not in active}
        for model in ALL_MODELS:
            found = list(_joint_moves(cur, active, choices, static_cells, model))
            assert found == reference_joint_moves(cur, active, choices, static_cells, model)
            moves += len(found)
        cases += 1
    assert moves > 10_000


def test_joint_moves_cases():
    # a swap, a chase and a three-cycle of agents 0..2, with agent 3 static;
    # a swap is also a two-agent rotation, and movers in a rotation follow
    cur = (0, 1, 2, 3)
    cases = (
        ([[1], [0], [2]], lambda m: m.forbid_edge or m.forbid_following or m.forbid_cycle),
        ([[1], [2], [4]], lambda m: m.forbid_following),
        ([[1], [2], [0]], lambda m: m.forbid_following or m.forbid_cycle),
    )
    for choices, blocked in cases:
        for model in ALL_MODELS:
            moves = list(_joint_moves(cur, [0, 1, 2], choices, {3}, model))
            assert moves == ([] if blocked(model) else [tuple(c[0] for c in choices) + (3,)])
    # entering a static cell is a vertex conflict
    assert list(_joint_moves(cur, [0], [[3, 0]], {1, 2, 3}, VERTEX_EDGE)) == [(0, 1, 2, 3)]


def no_wait_walks(grid, start, goal, dirs, max_len):
    """Every walk of at most ``max_len`` moves from ``start`` ending at ``goal``."""
    out = []

    def rec(cells):
        if cells[-1] == goal:
            out.append(tuple(cells))
        if len(cells) > max_len:
            return
        for d in dirs.ordered():
            nxt = d.apply(cells[-1])
            if grid.is_free(nxt):
                rec(cells + [nxt])

    rec([start])
    return out


def corridor(letters, tasks):
    """A 4x1 corridor without waits."""
    return Instance(
        GridMap(4, 1),
        tuple(AgentTask(i, Cell(*s), Cell(*g)) for i, (s, g) in enumerate(tasks)),
        DirectionSet.from_letters(letters, waits_allowed=False),
    )


class TestNoWaits:
    """Without waits an agent may stay put only on its goal, for good."""

    MODEL = ConflictModel(forbid_edge=False)

    def brute_force(self, inst, max_len, fits):
        """Valid solutions among products of per-agent walks that ``fits``."""
        walks = [
            no_wait_walks(inst.grid, a.start, a.goal, inst.directions, max_len)
            for a in inst.agents
        ]
        found = []
        for combo in itertools.product(*walks):
            if fits(combo):
                sol = Solution(tuple(TimedPath(cells) for cells in combo))
                if validate_solution(inst, sol, self.MODEL).ok:
                    found.append(sol)
        return found

    def test_makespan_does_not_leave_a_parked_goal(self):
        inst = corridor("UDLR", [((1, 0), (1, 0)), ((0, 0), (3, 0)), ((3, 0), (0, 0))])
        assert self.brute_force(inst, 5, lambda combo: True) == []
        assert not exists_makespan_at_most(inst, 5, self.MODEL).decision

    def test_flowtime_does_not_wait_off_the_finish(self):
        inst = corridor("LR", [((1, 0), (3, 0)), ((2, 0), (1, 0)), ((3, 0), (2, 0))])
        # the other two agents need at least one move each
        fits = lambda combo: sum(len(w) - 1 for w in combo) <= 11
        assert self.brute_force(inst, 9, fits) == []
        with pytest.raises(NoSolutionError):
            optimal_flowtime(inst, self.MODEL)

    def test_parking_on_the_goal_is_allowed(self):
        # agent 0 sits on its goal while agent 1 walks past the other side
        inst = corridor("LR", [((0, 0), (0, 0)), ((1, 0), (3, 0))])
        w = exists_makespan_at_most(inst, 2, self.MODEL)
        assert w.decision
        assert validate_solution(inst, w.solution, self.MODEL).ok
        cost, sol = optimal_flowtime(inst, self.MODEL)
        assert cost == 2
        assert validate_solution(inst, sol, self.MODEL).ok


PROPERTY_BUDGET = SearchBudget(max_states=3000)


@st.composite
def small_instances(draw):
    """Grids up to 4x4, at most three agents, any direction set, waits or not."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cells = [Cell(c, r) for r in range(height) for c in range(width)]
    obstacles = draw(st.sets(st.sampled_from(cells), max_size=len(cells) - 1))
    free = [c for c in cells if c not in obstacles]
    k = draw(st.integers(1, min(3, len(free))))
    starts = draw(st.permutations(free))[:k]
    goals = draw(st.permutations(free))[:k]
    letters = "".join(sorted(draw(st.sets(st.sampled_from("UDLR")))))
    return Instance(
        GridMap(width, height, frozenset(obstacles)),
        tuple(AgentTask(i, s, g) for i, (s, g) in enumerate(zip(starts, goals))),
        DirectionSet.from_letters(letters, waits_allowed=draw(st.booleans())),
    )


@settings(max_examples=500, deadline=None)
@given(small_instances(), st.integers(0, 3))
def test_oracles_consistent_across_models(inst, slack):
    lb = lower_bound_cost(inst)
    fields = [shortest_dist_field(inst.grid, a.goal, inst.directions) for a in inst.agents]
    bound = slack + max(f.get(a.start, 0) for f, a in zip(fields, inst.agents))
    indopt, within, cost = {}, {}, {}
    try:
        for m in ALL_MODELS:
            w = exists_individually_optimal(inst, m, PROPERTY_BUDGET)
            if w.decision:
                assert validate_solution(inst, w.solution, m).ok
                assert w.solution.flowtime() == lb
            indopt[m] = w.decision
            within[m] = []
            for b in (bound, bound + 1):
                w = exists_makespan_at_most(inst, b, m, PROPERTY_BUDGET)
                if w.decision:
                    assert validate_solution(inst, w.solution, m).ok
                    assert w.solution.makespan() <= b
                within[m].append(w.decision)
            try:
                cost[m], sol = optimal_flowtime(inst, m, PROPERTY_BUDGET)
            except NoSolutionError:
                cost[m] = None
                with pytest.raises(NoSolutionError):
                    delta(inst, m, PROPERTY_BUDGET)
            else:
                assert validate_solution(inst, sol, m).ok
                assert sol.flowtime() == cost[m] >= lb
                assert (delta(inst, m, PROPERTY_BUDGET) == 0) == indopt[m]
    except BudgetExceededError:
        reject()
    for m in ALL_MODELS:
        assert within[m][0] <= within[m][1]
        assert indopt[m] <= within[m][0]
        assert indopt[m] <= (cost[m] is not None)
        for stricter in ALL_MODELS:
            if m.forbids_subset_of(stricter):
                assert indopt[stricter] <= indopt[m]
                assert within[stricter] <= within[m] or all(
                    a <= b for a, b in zip(within[stricter], within[m])
                )
                if cost[stricter] is not None:
                    assert cost[m] is not None and cost[m] <= cost[stricter]
