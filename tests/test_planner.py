"""Differential tests of the down+right planner against the Cell-level reference.

The reference is the planner as first written: a right-first DFS over
``Cell``s with ``Direction`` moves, a set of blocked cells and a set of
dead ends.  The library plans on row-major cell ids; it must return the
same paths and count the same work.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from gridmapf.core import DOWN_RIGHT, AgentTask, Cell, Direction, GridMap, Instance, Solution
from gridmapf.twodir import (
    MonotonePath,
    SolverStats,
    check_two_directional,
    partition_diagonals,
    plan_monotone_path,
    solve_two_dir,
)


def reference_plan(grid, blocked, start, goal, *, right_first=True, stats=None):
    blocked = blocked if isinstance(blocked, (set, frozenset)) else set(blocked)
    if goal.col < start.col or goal.row < start.row:
        return None
    if not grid.is_free(start) or not grid.is_free(goal):
        return None
    if start in blocked or goal in blocked:
        return None
    if right_first:
        moves = (Direction.RIGHT, Direction.DOWN)
    else:
        moves = (Direction.DOWN, Direction.RIGHT)

    failed = set()
    stack = [[start, 0]]  # (cell, number of moves already tried)
    if stats is not None:
        stats.visited_cells += 1
    while stack:
        cell, tried = stack[-1]
        if cell == goal:
            return MonotonePath(tuple(entry[0] for entry in stack))
        if tried == 2:
            failed.add(cell)
            stack.pop()
            continue
        stack[-1][1] = tried + 1
        nxt = moves[tried].apply(cell)
        if (
            nxt.col <= goal.col
            and nxt.row <= goal.row
            and nxt not in failed
            and nxt not in blocked
            and grid.is_free(nxt)
        ):
            stack.append([nxt, 0])
            if stats is not None:
                stats.visited_cells += 1
    return None


def reference_solve(instance, *, right_first=True, stats=None):
    if instance.directions.moves != frozenset({Direction.DOWN, Direction.RIGHT}):
        raise ValueError("solver requires the down+right direction set")
    if not check_two_directional(instance):
        return None

    blocked = set(instance.grid.obstacles)
    found = {}
    for group in partition_diagonals(instance):
        group_cells = set()
        for agent in group:
            path = reference_plan(
                instance.grid, blocked, agent.start, agent.goal,
                right_first=right_first, stats=stats,
            )
            if path is None:
                return None
            if stats is not None:
                stats.planned_agents += 1
            found[agent.id] = path
            for cell in path.cells:
                if cell not in blocked:
                    group_cells.add(cell)
                    blocked.add(cell)
        blocked -= group_cells
        for agent in group:
            blocked.add(agent.goal)

    return Solution(tuple(found[a.id].to_timed_path() for a in instance.agents))


@st.composite
def grids(draw):
    width, height = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cells = [Cell(c, r) for r in range(height) for c in range(width)]
    obstacles = draw(st.sets(st.sampled_from(cells), max_size=len(cells) // 2))
    return GridMap(width, height, frozenset(obstacles))


@st.composite
def down_right_instances(draw):
    grid = draw(grids())
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


@settings(max_examples=400, deadline=None)
@given(down_right_instances(), st.booleans())
def test_solver_matches_cell_reference(instance, right_first):
    stats, ref_stats = SolverStats(), SolverStats()
    got = solve_two_dir(instance, right_first=right_first, stats=stats)
    assert got == reference_solve(instance, right_first=right_first, stats=ref_stats)
    assert stats == ref_stats


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
@given(grids(), st.data(), st.booleans())
def test_plan_matches_cell_reference(grid, data, right_first):
    # Off-grid and obstacle cells are fair game for every argument.
    cell = st.builds(Cell, st.integers(-1, grid.width), st.integers(-1, grid.height))
    start, goal = data.draw(cell), data.draw(cell)
    blocked = data.draw(st.sets(cell, max_size=12))
    stats, ref_stats = SolverStats(), SolverStats()
    got = plan_monotone_path(grid, blocked, start, goal, right_first=right_first, stats=stats)
    expected = reference_plan(
        grid, blocked, start, goal, right_first=right_first, stats=ref_stats
    )
    assert got == expected
    assert stats == ref_stats
