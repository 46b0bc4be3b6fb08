"""Individually optimal flowtime solutions for down+right agents.

When every agent may only move down or right, an individually optimal
solution (every agent on a shortest path, no waits) can be found in
O(N * |V|) time or proven not to exist.  The algorithm is prioritized
planning over anti-diagonal groups: agents are processed rightmost
diagonal first, and inside a diagonal by decreasing start column; each
agent takes the highest down/right path that avoids the cells barred to
it, the one that goes right whenever going right can still reach the goal.

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

Each grid row is one Python int, column ``c`` at bit ``width - 1 - c``,
whose set bits are the cells a path may enter.  One agent's search sweeps
its start-goal box from the goal row up.  In each row, ``m`` is the
row's open box cells and ``seeds`` those of ``m`` whose lower neighbour
reaches the goal (on the goal row, the goal itself).  The addition
``m + seeds`` carries each seed leftward through its run of open cells,
so ``m & ~(m + seeds) | seeds`` is every cell of the row that reaches
the goal: the row's reach set.  This is the carry trick of bit-parallel
string matching (Myers, J. ACM 46(3), 1999).  The answer is NO once a
row has no seed, or when the start is not in the top row's reach set.
Otherwise the path walks down from the start and goes right while the
right cell is in the reach set.  A right-first depth-first search that
memoizes its dead ends goes right exactly when the right cell can still
reach the goal, so it returns the same path.  Each agent costs one
big-int step per box row, O(box area / word size) word operations and
never more than O(|V|), so the O(N * |V|) bound holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Optional

from .core import AgentTask, Cell, Direction, Instance, Solution, TimedPath, _free_lines


def diagonal_key(cell: Cell) -> int:
    """Anti-diagonal index of a cell; each down/right move increases it by 1."""
    return cell.col + cell.row


@dataclass
class SolverStats:
    """Work counters for the planner, used by the complexity checks.

    ``visited_cells`` counts the box cells the reach sweep decided: rows
    swept times box width, summed over the agents planned.
    """

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


def _reach_path(
    rows: list[int],
    width: int,
    start: Cell,
    goal: Cell,
    stats: Optional[SolverStats],
) -> Optional[list[int]]:
    """The highest down/right path from ``start`` to ``goal`` over row ints:
    ``rows[r]`` holds the cells of row ``r`` a path may enter, column ``c``
    at bit ``width - 1 - c``, so that a right move goes to the next lower
    bit.  ``start`` is not right of or below ``goal``.  Returns the path as
    the kernel's framed ids ``(row + 1) * (width + 1) + col``, or None when
    no down/right path exists.  Only the rows of the start-goal box are
    read.  The sweep and the walk are the module docstring's."""
    (sc, sr), (gc, gr) = start, goal
    hi, lo = width - 1 - sc, width - 1 - gc
    box = (2 << hi) - (1 << lo)
    reach, seeds = [], 1 << lo
    for r in range(gr, sr - 1, -1):
        m = rows[r] & box
        seeds &= m  # the open box cells whose lower neighbour reaches the goal
        if not seeds:
            break
        seeds = m & ~(m + seeds) | seeds  # and those reaching a seed by right moves
        reach.append(seeds)
    if stats is not None:
        stats.visited_cells += (gr - r + 1) * (hi - lo + 1)
    if not seeds >> hi & 1:
        return None
    # Walk down from the start, top row first.  A cell of a reach set is
    # the goal or has a right or lower neighbour in a reach set, so in each
    # row the path goes right from bit b while the right cell reaches the
    # goal, to bit e, then down.
    path, cid, b = [], (sr + 1) * (width + 1) + sc, hi
    for row in reversed(reach):
        e = (((1 << b) - 1) & ~row).bit_length()
        path += range(cid, cid + b - e + 1)
        cid += b - e + width + 1
        b = e
    return path


def solve_two_dir(
    instance: Instance,
    *,
    stats: Optional[SolverStats] = None,
) -> Optional[Solution]:
    """Find an individually optimal solution for a down+right instance.

    Returns None exactly when no individually optimal solution exists.
    """
    if instance.directions.moves != frozenset({Direction.DOWN, Direction.RIGHT}):
        raise ValueError("solver requires the down+right direction set")
    if not check_two_directional(instance):
        return None

    # One int per row holds the cells a path may enter: free and off the
    # goals of groups already planned.  Each group plans on a copy, in
    # which every path but the group's last bars its cells for the rest.
    w = instance.grid.width
    rows = _free_lines(instance.grid, reverse=True)
    found: dict[int, list[int]] = {}
    for group in partition_diagonals(instance):
        barred = rows.copy()
        for agent in group:
            path = _reach_path(barred, w, agent.start, agent.goal, stats)
            if path is None:
                return None
            if stats is not None:
                stats.planned_agents += 1
            found[agent.id] = path
            if agent is not group[-1]:
                for row, col in map(divmod, path, repeat(w + 1)):  # open, so xor clears
                    barred[row - 1] ^= 1 << (w - 1 - col)
        for agent in group:
            rows[agent.goal.row] &= ~(1 << (w - 1 - agent.goal.col))

    return Solution(tuple(TimedPath._from_ids(found[a.id], w + 1) for a in instance.agents))
