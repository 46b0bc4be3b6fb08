"""Exhaustive ground-truth solvers for desk-scale instances.

These searches answer the decision questions exactly: does an
individually optimal solution exist, does a solution with makespan at
most d exist, what is the optimal flowtime.  They are meant for small
instances and for machine-checking the constructive modules; budgets
abort a search loudly rather than ever returning a wrong answer.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .core import (
    Cell,
    ConflictModel,
    Instance,
    Solution,
    TimedPath,
    VERTEX_EDGE,
    _GridKernel,
    lower_bound_cost,
)


class BudgetExceededError(RuntimeError):
    """A search hit its state or wall-time budget before deciding."""


class NoSolutionError(RuntimeError):
    """The instance admits no feasible solution at all."""


@dataclass(frozen=True)
class SearchBudget:
    """Resource limits for one oracle query."""

    max_states: int = 5_000_000
    max_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_seconds is not None and self.max_seconds < 0:
            raise ValueError(f"max_seconds must not be negative, got {self.max_seconds}")


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True)
class Witness:
    """A decision plus, when positive, a solution that proves it."""

    decision: bool
    solution: Optional[Solution] = None


class _BudgetClock:
    def __init__(self, budget: SearchBudget) -> None:
        self.max_states = budget.max_states
        self.deadline = (
            None if budget.max_seconds is None else time.perf_counter() + budget.max_seconds
        )
        self.expanded = 0

    def tick(self) -> None:
        self.expanded += 1
        if self.expanded > self.max_states:
            raise BudgetExceededError(f"state budget of {self.max_states} exhausted")
        if self.deadline is not None and self.expanded % 512 == 0:
            if time.perf_counter() > self.deadline:
                raise BudgetExceededError("wall-time budget exhausted")


class _Compiled:
    """Instance lowered to integer cell ids with per-agent distance data.

    Takes the kernel of the instance's grid, so that callers deciding many
    instances on one grid share its neighbour tables and goal fields.
    """

    def __init__(self, instance: Instance, kernel: Optional[_GridKernel] = None) -> None:
        kernel = kernel or _GridKernel(instance.grid)
        dirs = instance.directions
        self.instance = instance
        self.cell = kernel.cell
        self.nbr = kernel.neighbours(dirs)
        self.starts = tuple(kernel.cid(a.start) for a in instance.agents)
        self.goals = tuple(kernel.cid(a.goal) for a in instance.agents)
        self.dist = [kernel.dist_to(goal, dirs) for goal in self.goals]

    @property
    def lower_bound(self) -> Optional[int]:
        """Sum of the agents' goal distances, or None if a goal is out of reach."""
        lengths = [dist[start] for dist, start in zip(self.dist, self.starts)]
        return None if min(lengths, default=0) < 0 else sum(lengths)

    def descents(self, i: int, cid: int) -> tuple[int, ...]:
        """Neighbours of ``cid`` one move closer to agent ``i``'s goal."""
        dist = self.dist[i]
        want = dist[cid] - 1
        if want < 0:
            return ()
        return tuple(n for n in self.nbr[cid] if dist[n] == want)

    def solution_from_states(self, states: Sequence[tuple[int, ...]]) -> Solution:
        paths = []
        for i in range(len(self.starts)):
            cells = [self.cell(s[i]) for s in states]
            paths.append(TimedPath.from_cells(cells))
        return Solution(tuple(paths))


def _descent_successors(
    cur: tuple[int, ...],
    movers: list[int],
    comp: _Compiled,
    static_cells: frozenset[int],
    model: ConflictModel,
) -> Iterator[tuple[int, ...]]:
    """All conflict-free joint moves in which every unfinished agent descends.

    Every mover strictly decreases its goal distance; finished agents rest
    at their goals.  Successors come out in a fixed deterministic order.
    """
    n = len(cur)
    choices = [comp.descents(i, cur[i]) for i in movers]
    mover_cells = frozenset(cur[i] for i in movers)
    assignment: list[int] = [0] * len(movers)
    chosen: set[int] = set()

    def emit() -> tuple[int, ...]:
        nxt = list(cur)
        for k, i in enumerate(movers):
            nxt[i] = assignment[k]
        return tuple(nxt)

    def rec(k: int) -> Iterator[tuple[int, ...]]:
        if k == len(movers):
            nxt = emit()
            if model.forbid_cycle and _has_rotation(cur, nxt, minimum=2):
                return
            yield nxt
            return
        i = movers[k]
        for c in choices[k]:
            if model.forbid_vertex and (c in static_cells or c in chosen):
                continue
            if model.forbid_following and c != cur[i] and c in mover_cells:
                continue
            if model.forbid_edge:
                swap = False
                for k2 in range(k):
                    j = movers[k2]
                    if c == cur[j] and assignment[k2] == cur[i]:
                        swap = True
                        break
                if swap:
                    continue
            assignment[k] = c
            chosen.add(c)
            yield from rec(k + 1)
            chosen.discard(c)

    yield from rec(0)


def _has_rotation(cur: tuple[int, ...], nxt: tuple[int, ...], minimum: int) -> bool:
    """Detect a rotating cycle of movers of length >= ``minimum``."""
    n = len(cur)
    at_cur = {cur[i]: i for i in range(n)}
    for start in range(n):
        if nxt[start] == cur[start]:
            continue
        length = 0
        i = start
        seen = set()
        while True:
            j = at_cur.get(nxt[i])
            if j is None or nxt[j] == cur[j] or j in seen:
                break
            seen.add(j)
            length += 1
            if j == start:
                if length >= minimum:
                    return True
                break
            i = j
    return False


def exists_individually_optimal(
    instance: Instance,
    model: ConflictModel = VERTEX_EDGE,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> Witness:
    """Decide whether a conflict-free solution exists in which every agent
    moves along some shortest path at every step until reaching its goal.

    Joint depth-first search over the strict-descent space.  Position tuples
    fully determine elapsed time under strict descent, so states are
    deduplicated on positions alone.
    """
    return _individually_optimal(_Compiled(instance), model, budget)


def _individually_optimal(comp: _Compiled, model: ConflictModel, budget: SearchBudget) -> Witness:
    n = len(comp.starts)
    if comp.lower_bound is None:
        return Witness(False, None)
    if n == 0:
        return Witness(True, Solution(()))

    clock = _BudgetClock(budget)
    start = comp.starts
    goals = comp.goals
    parent: dict[tuple[int, ...], Optional[tuple[int, ...]]] = {start: None}
    stack = [start]
    while stack:
        cur = stack.pop()
        clock.tick()
        movers = [i for i in range(n) if cur[i] != goals[i]]
        if not movers:
            states = [cur]
            while parent[states[-1]] is not None:
                states.append(parent[states[-1]])
            states.reverse()
            return Witness(True, comp.solution_from_states(states))
        static_cells = frozenset(cur[i] for i in range(n) if cur[i] == goals[i])
        for nxt in _descent_successors(cur, movers, comp, static_cells, model):
            if nxt not in parent:
                parent[nxt] = cur
                stack.append(nxt)
    return Witness(False, None)


def enumerate_individually_optimal(
    instance: Instance,
    model: ConflictModel = VERTEX_EDGE,
    limit: Optional[int] = None,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> list[Solution]:
    """All individually optimal solutions, up to ``limit`` of them.

    Plain depth-first enumeration of complete strict-descent trajectories,
    in deterministic order.  ``limit`` truncates the output; the budget
    aborts with an error.
    """
    comp = _Compiled(instance)
    n = len(comp.starts)
    if comp.lower_bound is None:
        return []
    if n == 0:
        return [Solution(())]

    clock = _BudgetClock(budget)
    goals = comp.goals
    out: list[Solution] = []
    trail: list[tuple[int, ...]] = [comp.starts]

    def rec() -> bool:
        clock.tick()
        cur = trail[-1]
        movers = [i for i in range(n) if cur[i] != goals[i]]
        if not movers:
            out.append(comp.solution_from_states(trail))
            return limit is not None and len(out) >= limit
        static_cells = frozenset(cur[i] for i in range(n) if cur[i] == goals[i])
        for nxt in _descent_successors(cur, movers, comp, static_cells, model):
            trail.append(nxt)
            done = rec()
            trail.pop()
            if done:
                return True
        return False

    rec()
    return out


def exists_makespan_at_most(
    instance: Instance,
    bound: int,
    model: ConflictModel = VERTEX_EDGE,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> Witness:
    """Decide whether a feasible solution with makespan <= ``bound`` exists.

    Depth-limited joint search with waits allowed.  An agent whose remaining
    distance exceeds the remaining time is pruned, so when every agent's
    distance equals the bound the search degenerates to strict descent.
    """
    return _makespan_at_most(_Compiled(instance), bound, model, budget)


def _makespan_at_most(
    comp: _Compiled, bound: int, model: ConflictModel, budget: SearchBudget
) -> Witness:
    n = len(comp.starts)
    if n == 0:
        return Witness(True, Solution(()))
    for i in range(n):
        d = comp.dist[i][comp.starts[i]]
        if d < 0 or d > bound:
            return Witness(False, None)

    clock = _BudgetClock(budget)
    goals = comp.goals
    nbr = comp.nbr
    dist = comp.dist
    waits = comp.instance.directions.waits_allowed
    start_key = (comp.starts, 0)
    parent: dict[tuple[tuple[int, ...], int], Optional[tuple[tuple[int, ...], int]]] = {
        start_key: None
    }
    stack = [start_key]

    def joint_moves(cur: tuple[int, ...], remaining: int) -> Iterator[tuple[int, ...]]:
        choices: list[tuple[int, ...]] = []
        for i in range(n):
            opts = []
            if waits or cur[i] == goals[i]:
                if dist[i][cur[i]] <= remaining:
                    opts.append(cur[i])
            for c in nbr[cur[i]]:
                if 0 <= dist[i][c] <= remaining:
                    opts.append(c)
            if not opts:
                return
            choices.append(tuple(opts))
        assignment = [0] * n
        chosen: set[int] = set()

        def rec(k: int) -> Iterator[tuple[int, ...]]:
            if k == n:
                nxt = tuple(assignment)
                if model.forbid_cycle and _has_rotation(cur, nxt, minimum=2):
                    return
                if model.forbid_following:
                    for i in range(n):
                        if assignment[i] == cur[i]:
                            continue
                        for j in range(n):
                            if j != i and assignment[i] == cur[j] and assignment[j] != cur[j]:
                                return
                yield nxt
                return
            for c in choices[k]:
                if model.forbid_vertex and c in chosen:
                    continue
                if model.forbid_edge and c != cur[k]:
                    swap = False
                    for k2 in range(k):
                        if c == cur[k2] and assignment[k2] == cur[k]:
                            swap = True
                            break
                    if swap:
                        continue
                assignment[k] = c
                if model.forbid_vertex:
                    chosen.add(c)
                yield from rec(k + 1)
                chosen.discard(c)

        yield from rec(0)

    while stack:
        key = stack.pop()
        cur, t = key
        clock.tick()
        if all(cur[i] == goals[i] for i in range(n)):
            states = [key]
            while parent[states[-1]] is not None:
                states.append(parent[states[-1]])
            states.reverse()
            return Witness(True, comp.solution_from_states([s[0] for s in states]))
        if t == bound:
            continue
        for nxt in joint_moves(cur, bound - t - 1):
            nxt_key = (nxt, t + 1)
            if nxt_key not in parent:
                parent[nxt_key] = key
                stack.append(nxt_key)
    return Witness(False, None)


def optimal_flowtime(
    instance: Instance,
    model: ConflictModel = VERTEX_EDGE,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> tuple[int, Solution]:
    """Exact minimum flowtime and a witness solution.

    A* over joint states (positions, finished-set).  A finished agent rests
    at its goal forever; an unfinished agent pays one cost unit per time
    step, moving or not, and may declare itself finished at its goal via a
    zero-cost transition.  The heuristic is the sum of the unfinished
    agents' goal distances.  Raises ``NoSolutionError`` when the instance
    has no feasible solution.
    """
    return _optimal_flowtime(_Compiled(instance), model, budget)


def _optimal_flowtime(
    comp: _Compiled, model: ConflictModel, budget: SearchBudget
) -> tuple[int, Solution]:
    n = len(comp.starts)
    if n == 0:
        return 0, Solution(())
    for i in range(n):
        if comp.dist[i][comp.starts[i]] < 0:
            raise NoSolutionError(f"agent {comp.instance.agents[i].id} cannot reach its goal")

    clock = _BudgetClock(budget)
    goals = comp.goals
    nbr = comp.nbr
    dist = comp.dist
    waits = comp.instance.directions.waits_allowed
    all_mask = (1 << n) - 1

    def h(pos: tuple[int, ...], mask: int) -> int:
        total = 0
        for i in range(n):
            if not mask & (1 << i):
                total += dist[i][pos[i]]
        return total

    start_state = (comp.starts, 0)
    best: dict[tuple[tuple[int, ...], int], int] = {start_state: 0}
    parent: dict[
        tuple[tuple[int, ...], int],
        Optional[tuple[tuple[tuple[int, ...], int], bool]],
    ] = {start_state: None}
    counter = itertools.count()
    heap = [(h(comp.starts, 0), 0, next(counter), start_state)]

    def successors(
        state: tuple[tuple[int, ...], int]
    ) -> Iterator[tuple[tuple[tuple[int, ...], int], int, bool]]:
        cur, mask = state
        for i in range(n):
            if not mask & (1 << i) and cur[i] == goals[i]:
                yield (cur, mask | (1 << i)), 0, False
        active = [i for i in range(n) if not mask & (1 << i)]
        if not active:
            return
        static_cells = frozenset(cur[i] for i in range(n) if mask & (1 << i))
        choices = []
        for i in active:
            opts = []
            if waits or cur[i] == goals[i]:
                opts.append(cur[i])
            opts.extend(nbr[cur[i]])
            choices.append(tuple(opts))
        step_cost = len(active)
        assignment = [0] * len(active)
        chosen: set[int] = set()

        def rec(k: int) -> Iterator[tuple[int, ...]]:
            if k == len(active):
                nxt = list(cur)
                for kk, i in enumerate(active):
                    nxt[i] = assignment[kk]
                nxt_t = tuple(nxt)
                if model.forbid_cycle and _has_rotation(cur, nxt_t, minimum=2):
                    return
                if model.forbid_following:
                    for i in active:
                        if nxt_t[i] == cur[i]:
                            continue
                        for j in range(n):
                            if j != i and nxt_t[i] == cur[j] and nxt_t[j] != cur[j]:
                                return
                yield nxt_t
                return
            i = active[k]
            for c in choices[k]:
                if model.forbid_vertex and (c in static_cells or c in chosen):
                    continue
                if model.forbid_edge and c != cur[i]:
                    swap = False
                    for k2 in range(k):
                        j = active[k2]
                        if c == cur[j] and assignment[k2] == cur[i]:
                            swap = True
                            break
                    if swap:
                        continue
                assignment[k] = c
                if model.forbid_vertex:
                    chosen.add(c)
                yield from rec(k + 1)
                chosen.discard(c)

        for nxt_t in rec(0):
            yield (nxt_t, mask), step_cost, True

    while heap:
        f, g, _, state = heapq.heappop(heap)
        if g > best.get(state, -1):
            continue
        clock.tick()
        pos, mask = state
        if mask == all_mask:
            chain = []
            cursor: Optional[tuple[tuple[int, ...], int]] = state
            while cursor is not None:
                link = parent[cursor]
                if link is None:
                    chain.append((cursor, True))
                    cursor = None
                else:
                    prev, was_move = link
                    chain.append((cursor, was_move))
                    cursor = prev
            chain.reverse()
            states = [chain[0][0][0]]
            for entry, was_move in chain[1:]:
                if was_move:
                    states.append(entry[0])
            return g, comp.solution_from_states(states)
        for nxt_state, cost, was_move in successors(state):
            ng = g + cost
            if ng < best.get(nxt_state, ng + 1):
                best[nxt_state] = ng
                parent[nxt_state] = (state, was_move)
                heapq.heappush(
                    heap, (ng + h(nxt_state[0], nxt_state[1]), ng, next(counter), nxt_state)
                )
    raise NoSolutionError("joint search exhausted without reaching all goals")


def delta(
    instance: Instance,
    model: ConflictModel = VERTEX_EDGE,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> int:
    """Optimal flowtime minus the sum of individually optimal path lengths."""
    comp = _Compiled(instance)
    cost, _ = _optimal_flowtime(comp, model, budget)  # raises if a goal is out of reach
    return cost - comp.lower_bound


def _team_assignments(instance: Instance) -> Iterator[dict[int, Cell]]:
    """Every within-team bijection of agents to team targets, in fixed order."""
    assert instance.teams is not None
    teams = sorted(instance.teams)
    member_lists = [
        [a.id for a in instance.agents if a.team == team] for team in teams
    ]
    target_lists = [sorted(instance.teams[team]) for team in teams]
    perms_per_team = [
        list(itertools.permutations(targets)) for targets in target_lists
    ]
    for combo in itertools.product(*perms_per_team):
        assignment: dict[int, Cell] = {}
        for members, perm in zip(member_lists, combo):
            for agent_id, target in zip(members, perm):
                assignment[agent_id] = target
        yield assignment


def relabel_with_assignment(instance: Instance, assignment: dict[int, Cell]) -> Instance:
    """Labeled copy of a colored instance with goals fixed by ``assignment``."""
    agents = tuple(
        type(a)(id=a.id, start=a.start, goal=assignment[a.id], team=a.team)
        for a in instance.agents
    )
    return Instance(instance.grid, agents, instance.directions, teams=None)


def two_colored_decide(
    instance: Instance,
    objective: str,
    bound: int,
    model: ConflictModel = VERTEX_EDGE,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> Witness:
    """Decide a colored instance by enumerating within-team target bijections.

    ``objective`` is ``"flowtime"`` or ``"makespan"``; the decision is true
    iff some assignment admits a solution meeting ``bound``.
    """
    if instance.teams is None:
        raise ValueError("instance has no teams")
    if objective not in ("flowtime", "makespan"):
        raise ValueError(f"unknown objective {objective!r}")
    kernel = _GridKernel(instance.grid)
    for assignment in _team_assignments(instance):
        labeled = relabel_with_assignment(instance, assignment)
        if objective == "makespan":
            witness = _makespan_at_most(_Compiled(labeled, kernel), bound, model, budget)
            if witness.decision:
                return witness
        else:
            comp = _Compiled(labeled, kernel)
            lb = comp.lower_bound
            if lb is None or lb > bound:
                continue
            if lb == bound:
                witness = _individually_optimal(comp, model, budget)
                if witness.decision:
                    return witness
            else:
                try:
                    cost, solution = _optimal_flowtime(comp, model, budget)
                except NoSolutionError:
                    continue
                if cost <= bound:
                    return Witness(True, solution)
    return Witness(False, None)


def assignment_minimal_lower_bound(instance: Instance) -> Optional[int]:
    """Smallest lower-bound cost over all within-team target bijections."""
    if instance.teams is None:
        return lower_bound_cost(instance)
    kernel = _GridKernel(instance.grid)
    best: Optional[int] = None
    for assignment in _team_assignments(instance):
        lb = _Compiled(relabel_with_assignment(instance, assignment), kernel).lower_bound
        if lb is not None and (best is None or lb < best):
            best = lb
    return best
