"""Metamorphic tests: inputs transformed so that the answer is known.

Renumbering the agents, in order and in ids, changes no conflict kind at
any step, no set of rotating agents (up to the renumbering), no oracle
decision and no optimal flowtime.  The 8 symmetries of the grid, with the
direction set mapped along, change no decision.  The transpose keeps the
down+right direction set, so it checks ``solve_two_dir`` against itself.
"""

import itertools

from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from gridmapf.core import (
    AgentTask,
    Cell,
    ConflictModel,
    DOWN_RIGHT,
    Direction,
    DirectionSet,
    FOUR_DIRECTIONS,
    GridMap,
    Instance,
    Solution,
    validate_solution,
)
from gridmapf.oracle import (
    BudgetExceededError,
    NoSolutionError,
    SearchBudget,
    exists_individually_optimal,
    exists_makespan_at_most,
    optimal_flowtime,
)
from gridmapf.twodir import solve_two_dir
from kernel_reference import shortest_dist_field
from test_oracle import small_instances
from test_validator import shared_cell_case, validation_cases

ALL_MODELS = [ConflictModel(*flags) for flags in itertools.product((False, True), repeat=4)]
BUDGET = SearchBudget(max_states=3000)


def renumber(instance, order, new_id):
    """The agents listed in ``order`` of the old indices, agent id ``a`` as ``new_id[a]``."""
    agents = tuple(instance.agents[k] for k in order)
    return Instance(
        instance.grid,
        tuple(AgentTask(new_id[a.id], a.start, a.goal, a.team) for a in agents),
        instance.directions,
        instance.teams,
    )


def steps_and_rotations(report):
    """The (time, kind) pairs of a report, and its rotations as (time, agent ids)."""
    kinds = {(c.time, c.kind) for c in report.conflicts}
    rotations = {(c.time, frozenset(c.agents)) for c in report.conflicts if c.kind == "cycle"}
    return kinds, rotations


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(validation_cases(), validation_cases(max_side=2)),
    st.permutations(range(6)),
    st.permutations(range(10)),
)
@example(shared_cell_case(), (1, 0, 2, 3, 4, 5), list(range(10)))
def test_renumbering_changes_no_conflict(case, order, new_id):
    instance, solution = case
    order = [k for k in order if k < instance.num_agents]
    renumbered = renumber(instance, order, new_id)
    moved = Solution(tuple(solution.paths[k] for k in order))
    for model in ALL_MODELS:
        try:
            before = validate_solution(instance, solution, model)
        except ValueError:
            try:
                validate_solution(renumbered, moved, model)
            except ValueError:
                continue
            raise AssertionError("only the renumbered solution validates")
        kinds, rotations = steps_and_rotations(before)
        renamed = {(t, frozenset(new_id[aid] for aid in ids)) for t, ids in rotations}
        assert steps_and_rotations(validate_solution(renumbered, moved, model)) == (kinds, renamed)


def decisions(instance, model, bound):
    indopt = exists_individually_optimal(instance, model, BUDGET).decision
    within = exists_makespan_at_most(instance, bound, model, BUDGET).decision
    return indopt, within


def makespan_bound(instance, slack):
    """``slack`` above the longest goal distance of an agent."""
    dirs = instance.directions
    fields = [shortest_dist_field(instance.grid, a.goal, dirs) for a in instance.agents]
    return slack + max(f.get(a.start, 0) for f, a in zip(fields, instance.agents))


def corridor(tasks):
    """A 4x1 corridor with all four directions and waits."""
    return Instance(
        GridMap(4, 1),
        tuple(AgentTask(i, Cell(*s), Cell(*g)) for i, (s, g) in enumerate(tasks)),
        FOUR_DIRECTIONS,
    )


@settings(max_examples=150, deadline=None)
@given(small_instances(), st.permutations(range(3)), st.integers(0, 2))
# Agent 2 rotates with agent 0 through a cell it shares with agent 1.
@example(corridor([((2, 0), (0, 0)), ((3, 0), (1, 0)), ((0, 0), (3, 0))]), (1, 2, 0), 0)
def test_renumbering_changes_no_decision(instance, order, slack):
    order = [k for k in order if k < instance.num_agents]
    renumbered = renumber(instance, order, {a.id: 7 - a.id for a in instance.agents})
    bound = makespan_bound(instance, slack)
    try:
        for model in ALL_MODELS:
            assert decisions(renumbered, model, bound) == decisions(instance, model, bound)
            costs = []
            for inst in (instance, renumbered):
                try:
                    costs.append(optimal_flowtime(inst, model, BUDGET)[0])
                except NoSolutionError:
                    costs.append(None)
            assert costs[0] == costs[1]
    except BudgetExceededError:
        reject()


_STEP_TO_DIRECTION = {d.value: d for d in Direction}


def symmetric(instance, transpose, flip_col, flip_row):
    """The instance under one of the 8 symmetries of its grid rectangle."""
    grid = instance.grid
    w, h = (grid.height, grid.width) if transpose else (grid.width, grid.height)

    def vector(dc, dr):
        dc, dr = (dr, dc) if transpose else (dc, dr)
        return (-dc if flip_col else dc, -dr if flip_row else dr)

    def cell(c):
        col, row = (c.row, c.col) if transpose else (c.col, c.row)
        return Cell(w - 1 - col if flip_col else col, h - 1 - row if flip_row else row)

    moves = frozenset(_STEP_TO_DIRECTION[vector(*d.value)] for d in instance.directions.moves)
    return Instance(
        GridMap(w, h, frozenset(cell(o) for o in grid.obstacles)),
        tuple(AgentTask(a.id, cell(a.start), cell(a.goal)) for a in instance.agents),
        DirectionSet(moves, instance.directions.waits_allowed),
    )


SYMMETRIES = list(itertools.product((False, True), repeat=3))


@settings(max_examples=40, deadline=None)
@given(small_instances(), st.integers(0, 2))
def test_grid_symmetries_change_no_decision(instance, slack):
    bound = makespan_bound(instance, slack)
    try:
        for model in ALL_MODELS:
            expected = decisions(instance, model, bound)
            for sym in SYMMETRIES[1:]:
                assert decisions(symmetric(instance, *sym), model, bound) == expected, sym
    except BudgetExceededError:
        reject()


@st.composite
def down_right_instances(draw):
    """Grids up to 5x5 with up to four down+right agents, each goal right of
    and below its start where a free cell is left there."""
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cells = [Cell(c, r) for r in range(height) for c in range(width)]
    obstacles = draw(st.sets(st.sampled_from(cells), max_size=len(cells) // 3))
    free = [c for c in cells if c not in obstacles]
    k = draw(st.integers(1, min(4, len(free))))
    starts = draw(st.permutations(free))[:k]
    goals = []
    for s in starts:
        left = [c for c in free if c not in goals]
        ahead = [c for c in left if c.col >= s.col and c.row >= s.row]
        goals.append(draw(st.sampled_from(ahead or left)))
    return Instance(
        GridMap(width, height, frozenset(obstacles)),
        tuple(AgentTask(i, s, g) for i, (s, g) in enumerate(zip(starts, goals))),
        DOWN_RIGHT,
    )


@settings(max_examples=300, deadline=None)
@given(down_right_instances())
def test_solve_two_dir_agrees_with_its_transpose(instance):
    transposed = symmetric(instance, True, False, False)
    assert transposed.directions == DOWN_RIGHT
    found = solve_two_dir(instance)
    assert (found is None) == (solve_two_dir(transposed) is None)
    if found is not None:
        assert validate_solution(instance, found).ok
