"""Unfiltered flowtime A*, kept as the differential reference.

Before the strict-descent search ran first and agents were kept out of
cells from which their goal is unreachable, ``optimal_flowtime`` was this
A* alone: every neighbour was a candidate, so a search that cannot
finish expanded every state reached through such cells before giving up.
Costs agree with the library on every instance, and witnesses agree
wherever the strict-descent search answers NO.
"""

import heapq
import itertools

from compiled_reference import ReferenceCompiled
from gridmapf.core import Solution, VERTEX_EDGE
from gridmapf.oracle import (
    DEFAULT_BUDGET,
    NoSolutionError,
    _BudgetClock,
    _joint_moves,
    _solution_from_states,
)


def reference_optimal_flowtime(instance, model=VERTEX_EDGE, budget=DEFAULT_BUDGET):
    """Exact minimum flowtime and a witness, by A* over (positions, finished mask)."""
    comp = ReferenceCompiled(instance)
    clock = _BudgetClock(budget)
    n = len(comp.starts)
    if n == 0:
        return 0, Solution(())
    for i in range(n):
        if comp.dist[i][comp.starts[i]] < 0:
            raise NoSolutionError(f"agent {comp.instance.agents[i].id} cannot reach its goal")

    goals = comp.goals
    nbr = comp.nbr
    dist = comp.dist
    waits = comp.instance.directions.waits_allowed
    all_mask = (1 << n) - 1

    def h(pos, mask):
        return sum(dist[i][pos[i]] for i in range(n) if not mask & (1 << i))

    start_state = (comp.starts, 0)
    best = {start_state: 0}
    # each state's predecessor, and whether the step to it was a joint move
    parent = {start_state: None}
    counter = itertools.count()
    heap = [(h(comp.starts, 0), 0, next(counter), start_state)]

    def successors(state):
        cur, mask = state
        for i in range(n):
            if not mask & (1 << i) and cur[i] == goals[i]:
                yield (cur, mask | (1 << i)), 0, False
        active = [i for i in range(n) if not mask & (1 << i)]
        if not active:
            return
        static_cells = frozenset(cur[i] for i in range(n) if mask & (1 << i))
        choices = [((cur[i],) if waits else ()) + nbr[cur[i]] for i in active]
        for nxt in _joint_moves(cur, active, choices, static_cells, model):
            yield (nxt, mask), len(active), True

    while heap:
        f, g, _, state = heapq.heappop(heap)
        if g > best.get(state, -1):
            continue
        clock.tick()
        if state[1] == all_mask:
            states = []
            link = parent[state]
            while link is not None:
                if link[1]:
                    states.append(state[0])
                state = link[0]
                link = parent[state]
            states.append(state[0])
            states.reverse()
            return g, _solution_from_states(comp.stride, states)
        for nxt_state, cost, was_move in successors(state):
            ng = g + cost
            if ng < best.get(nxt_state, ng + 1):
                best[nxt_state] = ng
                parent[nxt_state] = (state, was_move)
                heapq.heappush(
                    heap, (ng + h(nxt_state[0], nxt_state[1]), ng, next(counter), nxt_state)
                )
    raise NoSolutionError("joint search exhausted without reaching all goals")
