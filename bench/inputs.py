"""Seeded input generators for the benchmark workloads.

Nothing here calls into ``gridmapf``: the generators build plain data
(cell tuples, texts, clause lists) that the workloads hand to the library.
Cells are ``(col, row)`` tuples; flat cell ids are ``row * width + col``.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from math import comb
from typing import Optional

# ---------------------------------------------------------------- sweep4

SWEEP_SIZE = 4
SWEEP_MAX_OBSTACLES = 2
SWEEP_STRIDE = 23
SWEEP_CHUNK = 8      # consecutive candidates of one grid per round
SWEEP_ROUNDS = 24    # rounds in one pass over the sample
SWEEP_SPAN = 0.8     # start blocks are spread over this share of each grid


def _valid_triples(pairs: list[tuple[int, int]]) -> int:
    """Number of 3-subsets of ``pairs`` with pairwise distinct starts and goals.

    Inclusion-exclusion over the "shares a start or a goal" graph: a triple
    is valid when it spans no edge.  Two pairs sharing a start and a third
    sharing a goal with one of them cannot close a triangle, so triangles
    come only from three pairs on one start or one goal.
    """
    n_start = Counter(s for s, _ in pairs)
    n_goal = Counter(g for _, g in pairs)
    total = len(pairs)
    edges = sum(comb(k, 2) for k in n_start.values()) + sum(comb(k, 2) for k in n_goal.values())
    wedges = sum(comb(n_start[s] + n_goal[g] - 2, 2) for s, g in pairs)
    triangles = sum(comb(k, 3) for k in n_start.values()) + sum(comb(k, 3) for k in n_goal.values())
    return comb(total, 3) - edges * (total - 2) + wedges - triangles


def _sweep_grids() -> list[tuple[tuple[int, ...], list[tuple[int, int]], int, int]]:
    """(obstacle ids, down-right pairs, global index before the grid, valid triples).

    Grids and pairs come in the order of the tier-1 acceptance generator:
    obstacle sets by size then lexicographically over row-major cells, and
    (start, goal) pairs with the goal weakly down and right of the start.
    """
    side = SWEEP_SIZE
    grids = []
    before = 0
    for nobs in range(SWEEP_MAX_OBSTACLES + 1):
        for obs in itertools.combinations(range(side * side), nobs):
            free = [c for c in range(side * side) if c not in obs]
            pairs = [
                (s, g)
                for s in free
                for g in free
                if g % side >= s % side and g // side >= s // side
            ]
            count = _valid_triples(pairs)
            grids.append((obs, pairs, before, count))
            before += count
    return grids


def sweep4_sample(offset: int) -> list[tuple[int, tuple[int, ...], tuple[tuple[int, int], ...]]]:
    """The sweep4 pass: (grid index, obstacle ids, three (start, goal) pairs).

    Candidates are the tier-1 three-agent 4x4 instances whose 1-based global
    index is ``offset`` modulo 23 (offset 0 is exactly tier-1's stride).  Each
    obstacle set contributes ``SWEEP_ROUNDS * SWEEP_CHUNK`` consecutive
    candidates, starting at a block spread over the grid by a fixed
    low-discrepancy sequence; the global index at that block is computed by
    counting, so no earlier combination is enumerated.  The pass visits the
    grids round-robin, one chunk each, so every prefix of whole rounds mixes
    all obstacle sets while consecutive ops still share a grid.
    """
    want = SWEEP_ROUNDS * SWEEP_CHUNK
    per_grid = []
    for gi, (obs, pairs, before, count) in enumerate(_sweep_grids()):
        target = count * (((gi + 1) * 0.6180339887498949) % 1.0) * SWEEP_SPAN
        lo, hi = 0, len(pairs) - 1
        while lo < hi:  # first block with at least ``target`` valid triples before it
            mid = (lo + hi) // 2
            if count - _valid_triples(pairs[mid:]) >= target:
                hi = mid
            else:
                lo = mid + 1
        index = before + count - _valid_triples(pairs[lo:])
        found = []
        for a in range(lo, len(pairs)):
            sa, ga = pairs[a]
            for b, c in itertools.combinations(range(a + 1, len(pairs)), 2):
                sb, gb = pairs[b]
                sc, gc = pairs[c]
                if sa == sb or sa == sc or sb == sc or ga == gb or ga == gc or gb == gc:
                    continue
                index += 1
                if index % SWEEP_STRIDE == offset:
                    found.append((pairs[a], pairs[b], pairs[c]))
                    if len(found) == want:
                        break
            if len(found) == want:
                break
        if len(found) < want:
            raise RuntimeError(f"grid {gi}: only {len(found)} sweep candidates")
        per_grid.append((gi, obs, found))
    sample = []
    for r in range(SWEEP_ROUNDS):
        for gi, obs, found in per_grid:
            for combo in found[r * SWEEP_CHUNK:(r + 1) * SWEEP_CHUNK]:
                sample.append((gi, obs, combo))
    return sample


# ---------------------------------------------------------------- planted2d

PLANTED_SIDE = 256
PLANTED_OBSTACLE_SHARE = 0.10
PLANTED_AGENTS = 300
PLANTED_CANDIDATES = 480
PLANTED_REACH = 128


def plan_right_first(
    width: int, blocked: bytearray, start: int, goal: int
) -> Optional[list[int]]:
    """Highest monotone path from ``start`` to ``goal`` avoiding ``blocked``.

    Depth-first, right before down, restricted to the start-goal box, with
    dead ends memoized: the same search the down+right solver runs per agent.
    """
    if blocked[start] or blocked[goal]:
        return None
    gcol, grow = goal % width, goal // width
    if gcol < start % width or grow < start // width:
        return None
    failed = set()
    path = [start]
    tried = [0]
    while path:
        cell = path[-1]
        if cell == goal:
            return path
        k = tried[-1]
        if k == 2:
            failed.add(cell)
            path.pop()
            tried.pop()
            continue
        tried[-1] = k + 1
        if k == 0:
            if cell % width == gcol:
                continue
            nxt = cell + 1
        else:
            if cell // width == grow:
                continue
            nxt = cell + width
        if not blocked[nxt] and nxt not in failed:
            path.append(nxt)
            tried.append(0)
    return None


class PlantedInstance:
    """A planted down+right YES instance with its witness paths."""

    def __init__(self, width: int, height: int, obstacles: bytearray,
                 agents: list[tuple[int, int]], paths: list[list[int]]) -> None:
        self.width = width
        self.height = height
        self.obstacles = obstacles
        self.agents = agents      # (start id, goal id) in agent-id order
        self.paths = paths        # witness, one flat-id path per agent

    def map_text(self) -> str:
        w = self.width
        rows = [
            "".join("@" if self.obstacles[r * w + c] else "." for c in range(w))
            for r in range(self.height)
        ]
        return f"height {self.height}\nwidth {w}\nmap\n" + "\n".join(rows) + "\n"

    def agents_text(self) -> str:
        w = self.width
        lines = ["directions DR"]
        for i, (s, g) in enumerate(self.agents):
            lines.append(f"agent {i} {s % w} {s // w} {g % w} {g // w}")
        return "\n".join(lines) + "\n"


def planted_instance(seed: int, index: int) -> PlantedInstance:
    """Seeded 256x256 instance with 300 agents that the solver must accept.

    Candidates are visited in the solver's priority order (anti-diagonal
    descending, then start column descending) and kept only when their
    right-first path avoids the cells the solver would block at that point:
    obstacles, goals of kept agents on higher diagonals, and path cells of
    kept agents earlier on the same diagonal.  This one pass keeps exactly
    the agents that "add one at a time, keep it if the solver still
    succeeds" keeps.  A subset of a solvable instance stays solvable with
    the same paths, so 300 of the kept agents are drawn at random.
    """
    rng = random.Random(f"planted2d/{seed}/{index}")
    side = PLANTED_SIDE
    cells = side * side
    obstacles = bytearray(cells)
    for c in rng.sample(range(cells), int(cells * PLANTED_OBSTACLE_SHARE)):
        obstacles[c] = 1
    candidates = []
    while len(candidates) < PLANTED_CANDIDATES:
        s = rng.randrange(cells)
        col, row = s % side, s // side
        g = (row + rng.randint(0, min(PLANTED_REACH, side - 1 - row))) * side + col + rng.randint(
            0, min(PLANTED_REACH, side - 1 - col)
        )
        if not obstacles[s] and not obstacles[g]:
            candidates.append((s, g))
    candidates.sort(key=lambda sg: (-(sg[0] % side + sg[0] // side), -(sg[0] % side)))

    blocked = bytearray(obstacles)
    kept: list[tuple[tuple[int, int], list[int]]] = []
    for _, group in itertools.groupby(candidates, key=lambda sg: sg[0] % side + sg[0] // side):
        group_cells = []
        group_goals = []
        for s, g in group:
            path = plan_right_first(side, blocked, s, g)
            if path is None:
                continue
            kept.append(((s, g), path))
            group_goals.append(g)
            for c in path:
                if not blocked[c]:
                    blocked[c] = 1
                    group_cells.append(c)
        for c in group_cells:
            blocked[c] = 0
        for g in group_goals:
            blocked[g] = 1
    if len(kept) < PLANTED_AGENTS:
        raise RuntimeError(f"planted generator kept {len(kept)} < {PLANTED_AGENTS} agents")
    chosen = rng.sample(kept, PLANTED_AGENTS)
    return PlantedInstance(
        side, side, obstacles, [sg for sg, _ in chosen], [p for _, p in chosen]
    )


# ---------------------------------------------------------------- formulas

Clause = tuple[int, str, tuple[int, ...]]  # (id, "+" or "-", variables)


def family_clauses(n: int, unsat: bool) -> list[Clause]:
    """The ROADMAP family on ``n`` variables, or its UNSAT twin.

    ``clause 1 + 1 n; clause 2 - 1 n`` plus one single-variable clause on
    each of 2..n-1 with alternating signs (+ on even variables); the twin
    adds the unit clauses ``- 1`` and ``- n``.
    """
    clauses: list[Clause] = [(1, "+", (1, n)), (2, "-", (1, n))]
    for v in range(2, n):
        clauses.append((len(clauses) + 1, "+" if v % 2 == 0 else "-", (v,)))
    if unsat:
        clauses.append((len(clauses) + 1, "-", (1,)))
        clauses.append((len(clauses) + 1, "-", (n,)))
    return clauses


def formula_text(n: int, clauses: list[Clause]) -> str:
    lines = [f"vars {n}"]
    lines += [f"clause {cid} {sign} " + " ".join(map(str, vs)) for cid, sign, vs in clauses]
    return "\n".join(lines) + "\n"


def family_model(n: int) -> list[bool]:
    """A satisfying assignment of the SAT family: x1 true, xn false, units as signed."""
    values = [v % 2 == 0 for v in range(1, n + 1)]
    values[0] = True
    values[n - 1] = False
    return values
