"""Cell-level down+right planner, kept as the differential reference.

This is the planner as first written: a depth-first search over
``Cell``s with ``Direction`` moves, a set of blocked cells and a set of
dead ends.  With ``right_first`` (the default) it tries right before
down and returns the highest feasible path, the library's path.  With
``right_first=False`` it tries down first and returns the lowest one;
that tie-break is incomplete for several agents on one anti-diagonal,
which the regression fixtures show, and it gives the lemma tests a
second family of monotone paths.

``MonotonePath`` and ``weakly_above`` are the lemma tests' path type and
order; ``library_plan`` runs the library's one-agent sweep with extra
blocked cells, as the reference's peer.
"""

from dataclasses import dataclass

from gridmapf import twodir
from gridmapf.core import Direction, Solution, TimedPath, _free_lines
from gridmapf.twodir import check_two_directional, partition_diagonals


@dataclass(frozen=True)
class MonotonePath:
    """A down/right-only path, one move per time step, no waits."""

    cells: tuple

    def __post_init__(self):
        for a, b in zip(self.cells, self.cells[1:]):
            if (b.col - a.col, b.row - a.row) not in ((1, 0), (0, 1)):
                raise ValueError(f"step {a} -> {b} is not a down or right move")

    @property
    def move_string(self):
        return "".join("R" if b.col > a.col else "D" for a, b in zip(self.cells, self.cells[1:]))


def weakly_above(q, p):
    """True iff every cell of ``q`` is in a column of ``p``, no deeper than ``p`` there."""
    deepest = {}
    for cell in p.cells:
        deepest[cell.col] = max(deepest.get(cell.col, -1), cell.row)
    return all(cell.col in deepest and cell.row <= deepest[cell.col] for cell in q.cells)


def library_plan(grid, blocked, start, goal, *, stats=None):
    """``twodir``'s sweep for one agent on ``grid`` minus the ``blocked``
    cells: its path as a ``MonotonePath``, or None."""
    free = grid.is_free(start) and grid.is_free(goal)
    if not free or goal.col < start.col or goal.row < start.row:
        return None
    w, rows = grid.width, _free_lines(grid, reverse=True)
    for cell in blocked:
        if grid.in_bounds(cell):
            rows[cell.row] &= ~(1 << (w - 1 - cell.col))
    ids = twodir._reach_path(rows, w, start, goal, stats)
    return None if ids is None else MonotonePath(TimedPath._from_ids(ids, w + 1).cells)


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

    return Solution(tuple(TimedPath(found[a.id].cells) for a in instance.agents))
