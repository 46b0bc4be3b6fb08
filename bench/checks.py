"""Independent ground-truth checks for the benchmark.

None of these call into ``gridmapf``.  They take plain data (cells as
hashable values, free masks, clause lists) and return ``None`` when the
output is right, or a one-line reason when it is not.  They run outside
the timed ops.
"""

from __future__ import annotations

from collections import deque
from itertools import permutations
from typing import Hashable, Optional, Sequence

Path = Sequence[Hashable]


def find_conflict(paths: Sequence[Path]) -> tuple[Optional[str], int]:
    """First vertex or swap conflict among timed paths, and the parked count.

    ``paths[i][t]`` is agent i's cell at step t; after its last step the
    agent rests on its final cell for good, so it still blocks that cell.
    Vertex conflicts come from a ``(t, cell)`` map, swaps from an edge map
    keyed ``(t, from, to)``.  The parked count is the number of agents that
    arrive before the last one does.
    """
    occupied: dict[tuple[int, Hashable], int] = {}
    edges: dict[tuple[int, Hashable, Hashable], int] = {}
    parked: dict[Hashable, tuple[int, int]] = {}
    for i, path in enumerate(paths):
        for t, cell in enumerate(path):
            j = occupied.setdefault((t, cell), i)
            if j != i:
                return f"vertex conflict of agents {j} and {i} at t={t} on {cell}", 0
            if t:
                a = path[t - 1]
                if a != cell:
                    j = edges.get((t, cell, a))
                    if j is not None:
                        return f"swap of agents {j} and {i} at t={t} on {a}-{cell}", 0
                    edges[(t, a, cell)] = i
        parked[path[-1]] = (len(path) - 1, i)
    for i, path in enumerate(paths):
        for t, cell in enumerate(path):
            rest = parked.get(cell)
            if rest is not None and rest[1] != i and t > rest[0]:
                return f"agent {i} enters {cell} at t={t} where agent {rest[1]} is parked", 0
    horizon = max((len(p) for p in paths), default=0)
    return None, sum(1 for p in paths if len(p) < horizon)


def check_steps(
    paths: Sequence[Sequence[tuple[int, int]]],
    is_free,
    moves: frozenset[tuple[int, int]],
    waits: bool,
) -> Optional[str]:
    """Every cell free and every step one allowed move (or a wait if allowed)."""
    for i, path in enumerate(paths):
        for t, (col, row) in enumerate(path):
            if not is_free(col, row):
                return f"agent {i} on blocked cell {(col, row)} at t={t}"
            if t:
                pc, pr = path[t - 1]
                step = (col - pc, row - pr)
                if step == (0, 0):
                    if not waits:
                        return f"agent {i} waits at t={t}"
                elif step not in moves:
                    return f"agent {i} makes illegal step {step} at t={t}"
    return None


def flowtime(paths: Sequence[Path]) -> int:
    """Sum of arrival times, trailing rests at the final cell not counted."""
    total = 0
    for path in paths:
        end = len(path) - 1
        while end and path[end - 1] == path[end]:
            end -= 1
        total += end
    return total


def check_down_right(
    paths: Sequence[Sequence[tuple[int, int]]],
    agents: Sequence[tuple[tuple[int, int], tuple[int, int]]],
    is_free,
) -> tuple[Optional[str], int]:
    """A valid individually optimal down+right solution, and its parked count.

    With only down and right moves every shortest path has the Manhattan
    length, so optimality is flowtime == sum of Manhattan distances.
    """
    if len(paths) != len(agents):
        return f"{len(paths)} paths for {len(agents)} agents", 0
    for i, (path, (s, g)) in enumerate(zip(paths, agents)):
        if path[0] != s or path[-1] != g:
            return f"agent {i} runs {path[0]}->{path[-1]}, task is {s}->{g}", 0
    problem = check_steps(paths, is_free, frozenset({(0, 1), (1, 0)}), waits=True)
    if problem:
        return problem, 0
    problem, parked = find_conflict(paths)
    if problem:
        return problem, parked
    manhattan = sum(g[0] - s[0] + g[1] - s[1] for s, g in agents)
    cost = flowtime(paths)
    if cost != manhattan:
        return f"flowtime {cost} != Manhattan bound {manhattan}", parked
    return None, parked


class FreeMask:
    """Free cells of a grid as a flat mask."""

    def __init__(self, width: int, height: int, free: bytearray) -> None:
        self.width = width
        self.height = height
        self.free = free
        self.free_count = sum(free)

    @classmethod
    def from_text(cls, text: str) -> "FreeMask":
        """Parse a map text here rather than with the library's reader."""
        lines = text.splitlines()
        height = int(lines[0].split()[1])
        width = int(lines[1].split()[1])
        rows = lines[3:3 + height]
        if lines[2] != "map" or len(rows) != height or any(len(r) != width for r in rows):
            raise ValueError("malformed map text")
        return cls(width, height, bytearray(ch == "." for row in rows for ch in row))

    def is_free(self, col: int, row: int) -> bool:
        return 0 <= col < self.width and 0 <= row < self.height and bool(
            self.free[row * self.width + col]
        )

    def distances(self, source, moves, reverse: bool = False, targets=()) -> dict:
        """BFS move counts from ``source`` (towards it, with ``reverse``).

        Stops once every cell of ``targets`` has its distance, when given.
        """
        step = [(-dc, -dr) for dc, dr in moves] if reverse else list(moves)
        dist = {source: 0}
        missing = set(targets) - {source}
        queue = deque([source])
        while queue and (missing or not targets):
            cur = queue.popleft()
            d = dist[cur] + 1
            for dc, dr in step:
                nxt = (cur[0] + dc, cur[1] + dr)
                if nxt not in dist and self.is_free(*nxt):
                    dist[nxt] = d
                    missing.discard(nxt)
                    queue.append(nxt)
        return dist


def min_assignment_cost(cost: Sequence[Sequence[Optional[int]]]) -> Optional[int]:
    """Cheapest agent-to-target bijection of a small square cost matrix."""
    best = None
    for perm in permutations(range(len(cost))):
        total = 0
        for i, j in enumerate(perm):
            if cost[i][j] is None:
                break
            total += cost[i][j]
        else:
            if best is None or total < best:
                best = total
    return best


# ------------------------------------------------------------- formulas

def evaluate(clauses, values: Sequence[bool]) -> bool:
    """Monotone clauses: "+" needs a true variable, "-" a false one."""
    return all(
        any(values[v - 1] == (sign == "+") for v in vs) for _, sign, vs in clauses
    )


def forced_unit_conflict(clauses) -> Optional[int]:
    """Id of a clause that the unit clauses falsify outright, if any.

    Each unit clause forces its variable; a clause whose every variable is
    forced to the opposite of its sign can never hold, which proves the
    formula unsatisfiable.
    """
    forced: dict[int, bool] = {}
    for _, sign, vs in clauses:
        if len(vs) == 1:
            value = sign == "+"
            if forced.setdefault(vs[0], value) != value:
                return None  # contradictory units are a different argument
    for cid, sign, vs in clauses:
        if all(forced.get(v) == (sign != "+") for v in vs):
            return cid
    return None
