"""Separate strict-descent and makespan searches, kept as the differential
reference.

Before one deadline search answered every bounded decision, the oracle
had a strict-descent search keyed on positions alone, whose candidates
were the neighbours one step down each agent's goal distance, and a
depth-limited makespan search keyed on (positions, t, parked mask) with
its own candidate rule.  These are those searches, and the enumeration
on the strict-descent moves, on the full fields and neighbour tables of
``compiled_reference.ReferenceCompiled``.  Each takes the budget clock
it ticks, so a test can read how many states it expanded.  The two
decision searches hold their tables to the budget as the library's does:
the clock raises once a table holds more than ``max_states`` keys.
"""

from compiled_reference import ReferenceCompiled
from gridmapf.core import Solution
from gridmapf.oracle import Witness, _joint_moves, _solution_from_states


def _trail(parent, key):
    keys = [key]
    while parent[keys[-1]] is not None:
        keys.append(parent[keys[-1]])
    keys.reverse()
    return keys


def reference_individually_optimal(instance, model, clock):
    """Depth-first search over the strict-descent space, on positions alone."""
    comp = ReferenceCompiled(instance)
    if comp.lower_bound is None:
        return Witness(False, None)
    if not comp.starts:
        return Witness(True, Solution(()))
    start = comp.starts
    parent = {start: None}
    stack = [start]
    while stack:
        cur = stack.pop()
        clock.tick()
        if cur == comp.goals:
            return Witness(True, _solution_from_states(comp.stride, _trail(parent, cur)))
        for nxt in clock.paced(comp.descent_moves(cur, model)):
            if nxt not in parent:
                parent[nxt] = cur
                clock.hold(len(parent))
                stack.append(nxt)
    return Witness(False, None)


def reference_enumerate(instance, model, limit, clock):
    """Every strict-descent trajectory, up to ``limit`` of them, in DFS order."""
    comp = ReferenceCompiled(instance)
    if comp.lower_bound is None or limit == 0:
        return []
    if not comp.starts:
        return [Solution(())]
    out = []
    trail = [comp.starts]
    moves = []  # moves[t] leaves trail[t]
    while trail:
        clock.tick()
        if trail[-1] == comp.goals:
            out.append(_solution_from_states(comp.stride, trail))
            if limit is not None and len(out) >= limit:
                break
            moves.append(iter(()))
        else:
            moves.append(clock.paced(comp.descent_moves(trail[-1], model)))
        while trail and (nxt := next(moves[-1], None)) is None:
            moves.pop()
            trail.pop()
        if trail:
            trail.append(nxt)
    return out


def reference_makespan_at_most(instance, bound, model, clock):
    """Depth-limited search over (positions, t, parked mask).  An agent whose
    remaining distance exceeds the remaining time is pruned; without waits
    an agent stays put only on its goal, and is parked there for good."""
    comp = ReferenceCompiled(instance)
    n = len(comp.starts)
    if n == 0:
        return Witness(True, Solution(()))
    for i in range(n):
        d = comp.dist[i][comp.starts[i]]
        if d < 0 or d > bound:
            return Witness(False, None)
    goals, nbr, dist = comp.goals, comp.nbr, comp.dist
    waits = instance.directions.waits_allowed
    start_key = (comp.starts, 0, 0)
    parent = {start_key: None}
    stack = [start_key]
    while stack:
        key = stack.pop()
        cur, t, parked = key
        clock.tick()
        if cur == goals:
            states = [k[0] for k in _trail(parent, key)]
            return Witness(True, _solution_from_states(comp.stride, states))
        if t == bound:
            continue
        remaining = bound - t - 1
        active, choices = [], []
        for i in range(n):
            if parked >> i & 1:
                continue
            here = cur[i]
            d = dist[i]
            opts = [here] if (waits or here == goals[i]) and d[here] <= remaining else []
            opts += [c for c in nbr[here] if 0 <= d[c] <= remaining]
            if not opts:
                break
            active.append(i)
            choices.append(opts)
        else:
            static_cells = {cur[i] for i in range(n) if parked >> i & 1}
            for nxt in clock.paced(_joint_moves(cur, active, choices, static_cells, model)):
                next_parked = parked
                if not waits:
                    for i in active:
                        if nxt[i] == cur[i]:
                            next_parked |= 1 << i
                nxt_key = (nxt, t + 1, next_parked)
                if nxt_key not in parent:
                    parent[nxt_key] = key
                    clock.hold(len(parent))
                    stack.append(nxt_key)
    return Witness(False, None)
