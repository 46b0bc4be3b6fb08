"""Individually optimal flowtime solutions for down+right agents.

When every agent may only move down or right, an individually optimal
solution (every agent on a shortest path, no waits) can be found in
O(N * |V|) time or proven not to exist.  The algorithm is prioritized
planning over anti-diagonal groups: agents are processed rightmost
diagonal first, and inside a diagonal by decreasing start column; each
single-agent search is a depth-first search that prefers going right
before going down.

Two facts make this correct.  Each down or right move increases
``col + row`` by exactly one, so agents starting on different
anti-diagonals stay phase-shifted forever and can only ever meet on the
right agent's goal cell after it has parked; it therefore suffices to
treat the goals of agents on diagonals further right as obstacles.
Within one diagonal, two timed paths conflict exactly when they share a
cell, so earlier-planned path cells are blocked for the rest of the
group.  The right-first preference makes every planned path the
"highest" feasible one, which never steals a cell that a later agent of
the group could not concede.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .core import (
    AgentTask,
    Cell,
    Direction,
    GridMap,
    Instance,
    Solution,
    TimedPath,
    _GridKernel,
)


def diagonal_key(cell: Cell) -> int:
    """Anti-diagonal index of a cell; each down/right move increases it by 1."""
    return cell.col + cell.row


@dataclass(frozen=True)
class MonotonePath:
    """A down/right-only path, one move per time step, no waits."""

    cells: tuple[Cell, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(self.cells))
        if not self.cells:
            raise ValueError("empty monotone path")
        for a, b in zip(self.cells, self.cells[1:]):
            if not (
                (b.col == a.col + 1 and b.row == a.row)
                or (b.col == a.col and b.row == a.row + 1)
            ):
                raise ValueError(f"step {a} -> {b} is not a down or right move")

    @property
    def start(self) -> Cell:
        return self.cells[0]

    @property
    def end(self) -> Cell:
        return self.cells[-1]

    @property
    def length(self) -> int:
        return len(self.cells) - 1

    @property
    def move_string(self) -> str:
        return "".join(
            "R" if b.col > a.col else "D" for a, b in zip(self.cells, self.cells[1:])
        )

    def to_timed_path(self) -> TimedPath:
        return TimedPath(self.cells)


@dataclass
class SolverStats:
    """Work counters for the planner, used by the complexity checks."""

    visited_cells: int = 0
    planned_agents: int = 0


def check_two_directional(instance: Instance) -> bool:
    """False when some goal lies left of or above its start (no solution)."""
    return all(
        a.goal.col >= a.start.col and a.goal.row >= a.start.row for a in instance.agents
    )


def partition_diagonals(instance: Instance) -> list[list[AgentTask]]:
    """Group agents by the anti-diagonal of their start cells.

    Groups come rightmost diagonal first (decreasing key); inside a group
    agents are ordered by decreasing start column.  Two distinct starts on
    one diagonal always differ in column, so the order is total.
    """
    groups: dict[int, list[AgentTask]] = {}
    for agent in instance.agents:
        groups.setdefault(diagonal_key(agent.start), []).append(agent)
    ordered = []
    for key in sorted(groups, reverse=True):
        ordered.append(sorted(groups[key], key=lambda a: -a.start.col))
    return ordered


def plan_monotone_path(
    grid: GridMap,
    blocked: Iterable[Cell],
    start: Cell,
    goal: Cell,
    *,
    right_first: bool = True,
    stats: Optional[SolverStats] = None,
) -> Optional[MonotonePath]:
    """Depth-first search for a down/right path from ``start`` to ``goal``.

    Returns the path whose move string is lexicographically smallest under
    Right < Down (with ``right_first``), i.e. the highest feasible monotone
    path, or None when no monotone path avoids the blocked cells.  Dead
    ends are memoized, so every cell of the start-goal bounding box is
    expanded at most once and the cost is O(area of the box).
    """
    if not grid.is_free(start) or not grid.is_free(goal):
        return None
    kernel = _GridKernel(grid)
    for cell in blocked:
        if grid.in_bounds(cell):
            kernel.free[kernel.cid(cell)] = 0
    path = _monotone_ids(
        kernel.free, kernel.stride, kernel.cid(start), kernel.cid(goal), right_first, stats
    )
    return None if path is None else MonotonePath(tuple(kernel.cells(path)))


def _monotone_ids(
    free: bytearray,
    stride: int,
    start: int,
    goal: int,
    right_first: bool,
    stats: Optional[SolverStats],
) -> Optional[list[int]]:
    """``plan_monotone_path`` over the kernel's framed cell ids: ``free[cid]``
    is 0 for cells the path may not enter, a right move adds 1 and a down
    move adds ``stride``.  Dead ends are zeroed in ``free`` during the search and set
    back to 1 before it returns."""
    goal_col = goal % stride
    if goal_col < start % stride or goal < start or not (free[start] and free[goal]):
        return None
    right = 0 if right_first else 1  # the try, first or second, that goes right
    # tried[i]: moves tried at path[i] when path[i + 1] was entered.
    path, tried, dead = [start], [], []
    cur, k, visited = start, 0, 1
    while cur != goal:
        # Take cur's next move that stays in the goal's box and enters a
        # free cell; with none left, cur is a dead end.
        nxt = -1
        while nxt < 0 and k < 2:
            if k == right:
                nxt = cur + 1 if cur % stride < goal_col and free[cur + 1] else -1
            else:
                nxt = cur + stride if cur + stride <= goal and free[cur + stride] else -1
            k += 1
        if nxt >= 0:
            path.append(nxt)
            tried.append(k)
            cur, k = nxt, 0
            visited += 1
        else:
            free[cur] = 0
            dead.append(cur)
            path.pop()
            if not path:
                break
            cur, k = path[-1], tried.pop()
    for cid in dead:
        free[cid] = 1
    if stats is not None:
        stats.visited_cells += visited
    return path or None


def weakly_above(q: MonotonePath, p: MonotonePath) -> bool:
    """True iff every cell of ``q`` is in a column of ``p``, no deeper than ``p`` there."""
    deepest: dict[int, int] = {}
    for cell in p.cells:
        deepest[cell.col] = max(deepest.get(cell.col, -1), cell.row)
    return all(cell.col in deepest and cell.row <= deepest[cell.col] for cell in q.cells)


def solve_two_dir(
    instance: Instance,
    *,
    right_first: bool = True,
    stats: Optional[SolverStats] = None,
) -> Optional[Solution]:
    """Find an individually optimal solution for a down+right instance.

    Returns None exactly when no individually optimal solution exists.
    ``right_first=False`` flips the single-agent tie-break to prefer down
    moves; that variant is incomplete and only exists so tests can show
    the preference matters.
    """
    if instance.directions.moves != frozenset({Direction.DOWN, Direction.RIGHT}):
        raise ValueError("solver requires the down+right direction set")
    if not check_two_directional(instance):
        return None

    # The kernel is local, so its free mask doubles as the planner's: it
    # also bars the group's planned paths and earlier groups' goals.
    kernel = _GridKernel(instance.grid)
    free, stride = kernel.free, kernel.stride
    found: dict[int, list[int]] = {}
    for group in partition_diagonals(instance):
        for agent in group:
            path = _monotone_ids(
                free, stride, kernel.cid(agent.start), kernel.cid(agent.goal), right_first, stats
            )
            if path is None:
                return None
            if stats is not None:
                stats.planned_agents += 1
            found[agent.id] = path
            for cid in path:
                free[cid] = 0
        for agent in group:  # reopen the paths, but not their goals
            for cid in found[agent.id][:-1]:
                free[cid] = 1

    return Solution(
        tuple(TimedPath(tuple(kernel.cells(found[a.id]))) for a in instance.agents)
    )
