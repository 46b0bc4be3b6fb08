"""Differential tests of the down+right planner against the Cell-level reference.

The reference (``planner_reference``) is the planner as first written: a
right-first DFS over ``Cell``s with ``Direction`` moves, a set of blocked
cells and a set of dead ends.  The library sweeps each agent's start-goal
box row by row on bit rows; it must return the same paths, and it counts
the box cells the sweep decided, which on YES is every agent's whole box.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmapf.core import DOWN_RIGHT, AgentTask, Cell, GridMap, Instance, Solution, TimedPath
from gridmapf.twodir import SolverStats, solve_two_dir

from planner_reference import (
    MonotonePath,
    library_plan,
    reference_plan,
    reference_solve,
    weakly_above,
)


def box_area(start, goal):
    return max(0, goal.col - start.col + 1) * max(0, goal.row - start.row + 1)


def assert_counts(stats, ref_stats, boxes, solved):
    """The sweep decides whole box rows: every box cell on YES, no more on NO."""
    assert stats.planned_agents == ref_stats.planned_agents
    if solved:
        assert stats.visited_cells == boxes
    else:
        assert stats.visited_cells <= boxes


@st.composite
def grids(draw, max_width=8, max_height=8):
    width, height = draw(st.integers(1, max_width)), draw(st.integers(1, max_height))
    cells = [Cell(c, r) for r in range(height) for c in range(width)]
    obstacles = draw(st.sets(st.sampled_from(cells), max_size=len(cells) // 2))
    return GridMap(width, height, frozenset(obstacles))


@st.composite
def down_right_instances(draw, max_width=8, max_height=8):
    grid = draw(grids(max_width, max_height))
    free = list(grid.free_cells())
    k = draw(st.integers(1, min(10, len(free))))
    starts = draw(st.permutations(free))[:k]
    agents, goals = [], set()
    for i, s in enumerate(starts):
        # Mostly goals below and right of the start; a few elsewhere (NO).
        box = [c for c in free if c not in goals and (c.col >= s.col and c.row >= s.row)]
        pool = box if box and draw(st.integers(0, 9)) < 9 else [c for c in free if c not in goals]
        if not pool:
            break
        g = draw(st.sampled_from(pool))
        goals.add(g)
        agents.append(AgentTask(draw(st.integers(0, 99)) * 10 + i, s, g))
    return Instance(grid, tuple(agents), DOWN_RIGHT)


def assert_solver_matches(instance):
    stats, ref_stats = SolverStats(), SolverStats()
    got = solve_two_dir(instance, stats=stats)
    assert got == reference_solve(instance, stats=ref_stats)
    boxes = sum(box_area(a.start, a.goal) for a in instance.agents)
    assert_counts(stats, ref_stats, boxes, got is not None)
    return got


@settings(max_examples=400, deadline=None)
@given(down_right_instances())
def test_solver_matches_cell_reference(instance):
    assert_solver_matches(instance)


# Rows of up to 70 columns span more than one 64-bit machine word.
@settings(max_examples=40, deadline=None)
@given(down_right_instances(max_width=70, max_height=4))
def test_solver_matches_cell_reference_on_wide_grids(instance):
    assert_solver_matches(instance)


def test_dead_ends_stay_open_to_later_agents():
    # Agent 0's search dead-ends at (2, 0) above the obstacle; agent 1,
    # planned later, needs that cell.
    grid = GridMap(3, 3, frozenset({Cell(2, 1)}))
    agents = (AgentTask(0, Cell(1, 0), Cell(2, 2)), AgentTask(1, Cell(0, 0), Cell(2, 0)))
    instance = Instance(grid, agents, DOWN_RIGHT)
    got = solve_two_dir(instance)
    assert got is not None
    assert got == reference_solve(instance)


@settings(max_examples=300, deadline=None)
@given(grids(), st.data())
def test_plan_matches_cell_reference(grid, data):
    # Off-grid and obstacle cells are fair game for every argument.
    cell = st.builds(Cell, st.integers(-1, grid.width), st.integers(-1, grid.height))
    start, goal = data.draw(cell), data.draw(cell)
    blocked = data.draw(st.sets(cell, max_size=12))
    stats, ref_stats = SolverStats(), SolverStats()
    got = library_plan(grid, blocked, start, goal, stats=stats)
    assert got == reference_plan(grid, blocked, start, goal, stats=ref_stats)
    assert_counts(stats, ref_stats, box_area(start, goal), got is not None)


def wide_grid(width, height, seed, density):
    rng = random.Random(seed)
    cells = [Cell(c, r) for r in range(height) for c in range(width)]
    return GridMap(width, height, frozenset(c for c in cells if rng.random() < density))


# (grid, blocked cells, start, goal) at the bit-level edges of the sweep.
PINNED_PLANS = {
    "goal-in-start-row": (GridMap(6, 3, frozenset({Cell(2, 0)})), (), Cell(1, 1), Cell(4, 1)),
    "goal-in-start-column": (GridMap(5, 5, frozenset({Cell(3, 2)})), (), Cell(2, 0), Cell(2, 4)),
    "blocked-one-column-box": (GridMap(5, 5), {Cell(2, 3)}, Cell(2, 0), Cell(2, 4)),
    "start-is-goal": (GridMap(4, 4), (), Cell(1, 2), Cell(1, 2)),
    "goal-in-column-0": (GridMap(4, 4, frozenset({Cell(1, 1)})), (), Cell(0, 0), Cell(0, 3)),
    "goal-in-last-column": (
        GridMap(5, 4, frozenset({Cell(3, 1), Cell(4, 0)})), (), Cell(1, 0), Cell(4, 3)
    ),
    "width-1": (GridMap(1, 5), (), Cell(0, 0), Cell(0, 4)),
    "width-1-blocked": (GridMap(1, 5, frozenset({Cell(0, 2)})), (), Cell(0, 0), Cell(0, 4)),
    "wider-than-a-word": (wide_grid(70, 6, 3, 0.08), {Cell(40, 2)}, Cell(0, 0), Cell(69, 5)),
    "wider-than-a-word-no": (wide_grid(70, 6, 3, 0.15), (), Cell(0, 0), Cell(69, 5)),
    "wider-than-two-words": (wide_grid(130, 4, 3, 0.03), (), Cell(2, 0), Cell(127, 3)),
}


@pytest.mark.parametrize("right_first", [True, False])
@pytest.mark.parametrize("case", list(PINNED_PLANS))
def test_pinned_plans_match_cell_reference(case, right_first):
    # The library's path is the right-first reference's, the highest one.
    # The down-first reference's is the lowest: it exists exactly when the
    # library's does, and lies weakly below it.
    grid, blocked, start, goal = PINNED_PLANS[case]
    stats, ref_stats = SolverStats(), SolverStats()
    got = library_plan(grid, blocked, start, goal, stats=stats)
    ref = reference_plan(grid, blocked, start, goal, right_first=right_first, stats=ref_stats)
    if right_first:
        assert got == ref
    else:
        assert (got is None) == (ref is None)
        assert got is None or weakly_above(got, ref)
    assert_counts(stats, ref_stats, box_area(start, goal), got is not None)
    # The same agent alone, with the blocked cells as obstacles.
    obstacles = grid.obstacles | {c for c in blocked if grid.in_bounds(c)}
    alone = Instance(
        GridMap(grid.width, grid.height, obstacles), (AgentTask(0, start, goal),), DOWN_RIGHT
    )
    assert assert_solver_matches(alone) == (
        None if got is None else Solution((TimedPath(got.cells),))
    )


def test_earlier_agent_of_the_diagonal_bends_the_path():
    # Agent 0 (diagonal 2, planned first) takes (3, 0) and parks at (3, 1),
    # so agent 1 (also diagonal 2) cannot take its highest path RRD.
    agents = (AgentTask(0, Cell(2, 0), Cell(3, 1)), AgentTask(1, Cell(1, 1), Cell(3, 2)))
    instance = Instance(GridMap(4, 4), agents, DOWN_RIGHT)
    assert_solver_matches(instance)
    got = solve_two_dir(instance)
    assert MonotonePath(got.paths[1].cells).move_string == "RDR"
    alone = solve_two_dir(Instance(GridMap(4, 4), agents[1:], DOWN_RIGHT))
    assert MonotonePath(alone.paths[0].cells).move_string == "RRD"


def test_wide_grid_with_many_agents_matches_cell_reference():
    grid = wide_grid(70, 8, 12, 0.08)
    rng, free = random.Random(12), sorted(grid.free_cells())
    agents, goals = [], set()
    for start in rng.sample(free, 10):
        box = [
            c for c in free
            if c not in goals
            and start.col <= c.col <= start.col + 20
            and start.row <= c.row <= start.row + 4
        ]
        if box:
            goal = rng.choice(box)
            goals.add(goal)
            agents.append(AgentTask(len(agents), start, goal))
    instance = Instance(grid, tuple(agents), DOWN_RIGHT)
    assert assert_solver_matches(instance) is not None
