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
from typing import Callable, Container, Iterable, Iterator, Optional, Sequence

from .core import (
    ConflictModel,
    Instance,
    Solution,
    TimedPath,
    VERTEX_EDGE,
    _GridKernel,
    _rotations,
    lower_bound_cost,
)


class BudgetExceededError(RuntimeError):
    """A search hit its state or wall-time budget before deciding."""


class NoSolutionError(RuntimeError):
    """The instance admits no feasible solution at all."""


@dataclass(frozen=True)
class SearchBudget:
    """Resource limits for one oracle query: ``max_states`` caps the states
    expanded, and the states a search holds in its table (the deadline
    search's and the flowtime A*'s)."""

    max_states: int = 5_000_000
    max_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_states < 0:
            raise ValueError(f"max_states must not be negative, got {self.max_states}")
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
        self.generated = 0

    def tick(self) -> None:
        self.expanded += 1
        if self.expanded > self.max_states:
            raise BudgetExceededError(f"state budget of {self.max_states} exhausted")
        # read at the first expansion too, so a short search still meets a deadline
        if self.deadline is not None and self.expanded % 512 == 1:
            if time.perf_counter() >= self.deadline:
                raise BudgetExceededError("wall-time budget exhausted")

    def hold(self, states: int) -> None:
        """Raise once a search table holds more than ``max_states`` states:
        one expansion of many agents can add up to b^N of them."""
        if states > self.max_states:
            raise BudgetExceededError(f"state budget of {self.max_states} exhausted")

    def paced(self, moves: Iterator[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
        """``moves``, with the deadline also checked every 512 of them: one
        expansion may generate 100,000s; callers count each in ``generated``."""
        return moves if self.deadline is None else self._paced(moves)

    def _paced(self, moves: Iterator[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
        for move in moves:
            if not self.generated % 512 and time.perf_counter() >= self.deadline:
                raise BudgetExceededError("wall-time budget exhausted")
            yield move


class _Compiled:
    """Instance lowered to integer cell ids with per-agent distance data.

    Goal fields are exact where a path of at most ``bound`` moves from the
    agent's start (by default, a shortest one) can go, which is all that a
    search within the bound reads.  With ``full`` they are the kernel's
    memoized fields, exact everywhere, for the flowtime A* and for callers
    that pass the kernel of one grid to decide many instances on it.
    ``goals``, cell ids in agent order, replace the agents' own goals.
    """

    def __init__(
        self,
        instance: Instance,
        kernel: Optional[_GridKernel] = None,
        bound: Optional[int] = None,
        full: bool = False,
        goals: Optional[tuple[int, ...]] = None,
    ) -> None:
        kernel = kernel or _GridKernel(instance.grid)
        dirs = instance.directions
        self.instance = instance
        self.stride = kernel.stride
        self.steps = kernel.steps(dirs)
        self.starts = tuple(kernel.cid(a.start) for a in instance.agents)
        self.goals = goals or tuple(kernel.cid(a.goal) for a in instance.agents)
        self.dist = [
            kernel.dist_to(g, dirs) if full else kernel.dist_to_near(s, g, dirs, bound)
            for s, g in zip(self.starts, self.goals)
        ]
        self.lengths = [dist[start] for dist, start in zip(self.dist, self.starts)]

    @property
    def lower_bound(self) -> Optional[int]:
        """Sum of the agents' goal distances, or None if a goal is out of reach."""
        return None if min(self.lengths, default=0) < 0 else sum(self.lengths)


def _solution_from_states(stride: int, states: Sequence[tuple[int, ...]]) -> Solution:
    """The solution whose agents take the framed cell ids (of ``stride``) of
    ``states`` in turn."""
    return Solution(tuple(TimedPath._from_ids(ids, stride) for ids in zip(*states)))


def _joint_moves(
    cur: tuple[int, ...],
    active: Sequence[int],
    choices: Sequence[Sequence[int]],
    static_cells: Container[int],
    model: ConflictModel,
) -> Iterator[tuple[int, ...]]:
    """Every conflict-free joint move out of ``cur``, in product order.

    Agent ``active[k]`` takes a cell from ``choices[k]`` and every other
    agent stays put.  Vertex conflicts, against ``static_cells`` and the
    earlier choices, are pruned per assignment, and so are edge and
    following conflicts, by one pass over the earlier movers.  Cycle
    conflicts are checked on the complete move by ``core._rotations``, the
    rule ``validate_solution`` reports, which no agent numbering changes.
    One backtracking loop: ``index[k]``, past level ``k``'s choice, is
    nonzero exactly while ``nxt`` and ``chosen`` hold that choice.
    """
    nxt = list(cur)
    last = len(active)
    vertex = model.forbid_vertex
    following = model.forbid_following
    pairs = following or model.forbid_edge
    chosen: set[int] = set()
    index = [0] * last
    k = 0
    while k >= 0:
        if k == last:
            if not (model.forbid_cycle and _rotations(cur, nxt)):
                yield tuple(nxt)
            k -= 1
            continue
        i = active[k]
        here = cur[i]
        opts = choices[k]
        p = index[k]
        if p and vertex:
            chosen.discard(nxt[i])
        while p < len(opts):
            c = opts[p]
            p += 1
            if vertex and (c in chosen or c in static_cells):
                continue
            # without the following rule only a swap clashes, and a swap
            # needs c to be some agent's cell: ``c in cur`` rules most out
            if pairs and c != here and (following or c in cur):
                for j in active[:k]:
                    left = cur[j]
                    if c == left:
                        # i enters j's cell: a swap, or following if j left it
                        if nxt[j] != left and (following or nxt[j] == here):
                            break
                    elif following and nxt[j] == here and left != here:
                        break  # j enters i's cell, having left its own
                else:
                    break
                continue
            break
        else:
            index[k] = 0
            nxt[i] = here
            k -= 1
            continue
        index[k] = p
        nxt[i] = c
        if vertex:
            chosen.add(c)
        k += 1


# A search state: (positions, time, mask of the agents that stay put for good).
_Key = tuple[tuple[int, ...], int, int]


class _Run:
    """The one successor of a forced key, ``first``, and the keys after it,
    ``rest``: each the one successor of the key before, up to the key where
    the run ends.  Iterated, a run is ``first`` alone, the key's successors."""

    __slots__ = ("first", "rest")

    def __init__(self, first: _Key, rest: Iterator[_Key]) -> None:
        self.first = first
        self.rest = rest

    def __iter__(self) -> Iterator[_Key]:
        return iter((self.first,))


def _dfs(
    start: _Key,
    expand: Callable[[_Key], Optional[Iterable[_Key]]],
    stride: int,
    clock: _BudgetClock,
) -> Witness:
    """Depth-first search over the keys reached from ``start``, each expanded
    once.  ``expand`` gives a key's successors, or None for a goal; the
    witness walks the positions of the keys from ``start`` to the first goal.

    A ``_Run`` is taken key by key as if each were popped and expanded in
    turn, one expansion and one generated key apiece, up to the first key
    reached before; the key where it ends goes on the stack and is expanded
    there.  The order, the table and the counts are those of the plain loop.
    Every key the table holds counts against ``max_states``.
    """
    parent: dict[_Key, Optional[_Key]] = {start: None}
    stack = [start]
    while stack:
        key = stack.pop()
        clock.tick()
        successors = expand(key)
        if successors is None:
            states = [key[0]]
            while (key := parent[key]) is not None:
                states.append(key[0])
            states.reverse()
            return Witness(True, _solution_from_states(stride, states))
        if type(successors) is _Run:
            run, successors = successors, ()
            nxt = run.first
            # pulling the key after nxt paces the clock as generating nxt would
            for after in clock.paced(run.rest):
                clock.generated += 1
                if nxt in parent:
                    break
                parent[nxt] = key
                clock.hold(len(parent))
                clock.tick()
                key, nxt = nxt, after
            else:
                successors = (nxt,)
        for nxt in clock.paced(successors):
            clock.generated += 1
            if nxt not in parent:
                parent[nxt] = key
                clock.hold(len(parent))
                stack.append(nxt)
    return Witness(False, None)


def _successors(
    comp: _Compiled, key: _Key, deadlines: Sequence[int], model: ConflictModel
) -> Iterable[_Key]:
    """The keys one conflict-free joint move after ``key``, when agent i must
    stand on its goal from time ``deadlines[i]`` on.

    An agent is static, on its goal, once it is parked or its deadline has
    come.  Every other agent may step to a neighbour c with ``0 <= dist[c]
    <= deadline - t - 1``, and may stay on its cell if that cell passes the
    same test and waits are allowed or it is the agent's goal.  Without
    waits an agent that stays is parked: it stays there for good.  With
    each agent's own distance as its deadline this is strict descent, in
    which nobody stays, and t follows from the positions.

    A key is forced when every active agent has one cell and may not stay.
    If then no two agents share a cell after the move and no mover enters a
    cell taken before it, the move has no conflict of any kind, and the
    successors are a ``_Run``; every other move goes through ``_joint_moves``.
    """
    cur, t, parked = key
    waits = comp.instance.directions.waits_allowed
    goals = comp.goals
    steps = comp.steps
    static_cells: set[int] = set()
    active: list[int] = []
    choices: list[list[int]] = []
    stayers: list[int] = []
    forced = True
    for i, here in enumerate(cur):
        left = deadlines[i] - t - 1
        if left < 0 or parked >> i & 1:
            static_cells.add(here)
            continue
        dist = comp.dist[i]
        opts = [c for off in steps if 0 <= dist[c := here + off] <= left]
        if dist[here] <= left and (waits or here == goals[i]):
            opts.insert(0, here)
            stayers.append(i)
            forced = False
        elif len(opts) != 1:
            if not opts:
                return ()
            forced = False
        active.append(i)
        choices.append(opts)
    if not active:
        return ()
    if forced:
        entered = {c for (c,) in choices}
        if len(entered) == len(active) and entered.isdisjoint(cur):
            nxt = list(cur)
            for i, (c,) in zip(active, choices):
                nxt[i] = c
            first = (tuple(nxt), t + 1, parked)
            return _Run(first, _forced_keys(comp, first, deadlines, active))
    moves = _joint_moves(cur, active, choices, static_cells, model)
    return _keys(moves, cur, t, parked, () if waits else stayers)


def _forced_keys(
    comp: _Compiled, first: _Key, deadlines: Sequence[int], movers: Sequence[int]
) -> Iterator[_Key]:
    """The keys after ``first``, which ``movers`` entered from a forced key,
    for as long as the key before each is forced and its one move passes the
    test of ``_successors``: no mover enters a cell taken at t, and no two
    agents share a cell after the move.  A mover whose deadline has come
    rests on its goal; the run ends once every mover rests."""
    pos, t, parked = first
    waits = comp.instance.directions.waits_allowed
    dist, goals, steps = comp.dist, comp.goals, comp.steps
    taken = set(pos)
    n = len(pos)
    while True:
        nxt = list(pos)
        moving = False
        for i in movers:
            left = deadlines[i] - t - 1
            if left < 0:
                continue
            here = pos[i]
            field = dist[i]
            if field[here] <= left and (waits or here == goals[i]):
                return
            step = -1
            for off in steps:
                if 0 <= field[c := here + off] <= left:
                    if step >= 0:
                        return
                    step = c
            if step < 0 or step in taken:
                return
            nxt[i] = step
            moving = True
        taken = set(nxt)
        if not moving or len(taken) < n:
            return
        t += 1
        pos = tuple(nxt)
        yield pos, t, parked


def _keys(
    moves: Iterator[tuple[int, ...]],
    cur: tuple[int, ...],
    t: int,
    parked: int,
    stayers: Sequence[int],
) -> Iterable[_Key]:
    """The key that each joint move out of ``cur`` at time t reaches: each
    agent of ``stayers`` that stays put joins the parked mask."""
    if not stayers:
        return zip(moves, itertools.repeat(t + 1), itertools.repeat(parked))
    return (
        (nxt, t + 1, parked | sum(1 << i for i in stayers if nxt[i] == cur[i])) for nxt in moves
    )


def _arrive_by(
    comp: _Compiled, deadlines: Sequence[int], model: ConflictModel, clock: _BudgetClock
) -> Witness:
    """Decide whether every agent i can stand on its goal from time
    ``deadlines[i]`` on, without conflicts.  With each agent's own distance
    as its deadline, that is every agent on a shortest path; with one bound
    for all, a makespan of at most the bound."""
    if not all(0 <= length <= d for length, d in zip(comp.lengths, deadlines)):
        return Witness(False, None)
    goals = comp.goals
    return _dfs(
        (comp.starts, 0, 0),
        lambda key: None if key[0] == goals else _successors(comp, key, deadlines, model),
        comp.stride,
        clock,
    )


def exists_individually_optimal(
    instance: Instance,
    model: ConflictModel = VERTEX_EDGE,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> Witness:
    """Decide whether a conflict-free solution exists in which every agent
    moves along some shortest path at every step until reaching its goal.

    Joint depth-first search in which each agent's deadline is its own goal
    distance, which leaves strict descent.  Elapsed time is a function of
    the positions under strict descent and nobody parks, so each state is
    expanded once per position tuple.
    """
    comp = _Compiled(instance)
    return _arrive_by(comp, comp.lengths, model, _BudgetClock(budget))


def enumerate_individually_optimal(
    instance: Instance,
    model: ConflictModel = VERTEX_EDGE,
    limit: Optional[int] = None,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> list[Solution]:
    """All individually optimal solutions, up to ``limit`` of them.

    Depth-first enumeration of complete strict-descent trajectories, one
    move iterator per step, in deterministic order.  ``limit`` (at least 0)
    truncates the output; the budget aborts with an error.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be non-negative, not {limit}")
    comp = _Compiled(instance)
    if comp.lower_bound is None or limit == 0:
        return []

    clock = _BudgetClock(budget)
    out: list[Solution] = []
    trail: list[_Key] = [(comp.starts, 0, 0)]
    moves: list[Iterator[_Key]] = []  # moves[t] leaves trail[t]
    while trail:
        clock.tick()
        if trail[-1][0] == comp.goals:
            out.append(_solution_from_states(comp.stride, [key[0] for key in trail]))
            if limit is not None and len(out) >= limit:
                break
            moves.append(iter(()))
        else:
            moves.append(iter(clock.paced(_successors(comp, trail[-1], comp.lengths, model))))
        # back up to the deepest state with a move left, and take it
        while trail and (nxt := next(moves[-1], None)) is None:
            moves.pop()
            trail.pop()
        if trail:
            clock.generated += 1
            trail.append(nxt)
    return out


def exists_makespan_at_most(
    instance: Instance,
    bound: int,
    model: ConflictModel = VERTEX_EDGE,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> Witness:
    """Decide whether a feasible solution with makespan <= ``bound`` exists.

    Joint depth-first search with ``bound`` as every agent's deadline.  An
    agent whose remaining distance exceeds the remaining time is pruned, so
    when every agent's distance equals the bound the search is the strict
    descent of ``exists_individually_optimal``.  Without waits an agent may
    stay put only on its goal, and then stays there for good.  A negative
    bound is NO, even without agents.
    """
    if bound < 0:
        return Witness(False, None)
    comp = _Compiled(instance, bound=bound)
    return _arrive_by(comp, [bound] * len(comp.starts), model, _BudgetClock(budget))


def optimal_flowtime(
    instance: Instance,
    model: ConflictModel = VERTEX_EDGE,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> tuple[int, Solution]:
    """Exact minimum flowtime and a witness solution.

    A* over joint states (positions, finished-set).  A finished agent rests
    at its goal forever; an unfinished agent pays one cost unit per time
    step, moving or not, and may declare itself finished at its goal via a
    zero-cost transition.  Without waits an unfinished agent moves at every
    step; only finishing lets it stay put.  An agent steps only to cells
    from which its goal is still reachable.  The heuristic is the sum of the
    unfinished agents' goal distances.  The strict-descent search runs
    first: its YES is exact at the lower bound.  Raises ``NoSolutionError``
    when the instance has no feasible solution.
    """
    return _optimal_flowtime(_Compiled(instance, full=True), model, _BudgetClock(budget))


def _optimal_flowtime(
    comp: _Compiled, model: ConflictModel, clock: _BudgetClock
) -> tuple[int, Solution]:
    n = len(comp.starts)
    if n == 0:
        return 0, Solution(())
    for agent, length in zip(comp.instance.agents, comp.lengths):
        if length < 0:
            raise NoSolutionError(f"agent {agent.id} cannot reach its goal")
    # flowtime >= the lower bound, so a strict-descent witness is optimal
    descent = _arrive_by(comp, comp.lengths, model, clock)
    if descent.decision:
        return comp.lower_bound, descent.solution

    goals = comp.goals
    steps = comp.steps
    dist = comp.dist
    waits = comp.instance.directions.waits_allowed
    all_mask = (1 << n) - 1

    def h(pos: tuple[int, ...], mask: int) -> int:
        total = 0
        for i in range(n):
            if not mask & (1 << i):
                total += dist[i][pos[i]]
        return total

    State = tuple[tuple[int, ...], int]
    start_state = (comp.starts, 0)
    best: dict[State, int] = {start_state: 0}
    # each state's predecessor, and whether the step to it was a joint move
    parent: dict[State, Optional[tuple[State, bool]]] = {start_state: None}
    counter = itertools.count()
    heap = [(h(comp.starts, 0), 0, next(counter), start_state)]

    def successors(state: State) -> Iterator[tuple[State, int, bool]]:
        cur, mask = state
        for i in range(n):
            if not mask & (1 << i) and cur[i] == goals[i]:
                yield (cur, mask | (1 << i)), 0, False
        active = [i for i in range(n) if not mask & (1 << i)]
        if not active:
            return
        static_cells = frozenset(cur[i] for i in range(n) if mask & (1 << i))
        # a cell from which the goal is out of reach leads only to such cells
        choices = [
            ((cur[i],) if waits else ())
            + tuple(c for off in steps if dist[i][c := cur[i] + off] >= 0)
            for i in active
        ]
        for nxt in clock.paced(_joint_moves(cur, active, choices, static_cells, model)):
            clock.generated += 1
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
                clock.hold(len(best))
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
    comp = _Compiled(instance, full=True)
    cost, _ = _optimal_flowtime(comp, model, _BudgetClock(budget))  # raises if a goal is out of reach
    return cost - comp.lower_bound


def _bijections(options: Sequence[Sequence[tuple[int, int]]], limit: int) -> Iterator[tuple]:
    """Every choice of one target per agent from its (target, cost) options,
    with targets pairwise distinct and costs summing to at most ``limit``, in
    lexicographic order of the options.  A partial choice is dropped once its
    cost plus each later agent's cheapest cost exceeds ``limit``."""
    if not all(options):
        return
    # rest[k]: the least cost that agents k, k+1, ... add
    rest = [sum(min(c for _, c in o) for o in options[k:]) for k in range(len(options) + 1)]

    def extend(chosen: tuple, spent: int) -> Iterator[tuple]:
        k = len(chosen)
        if spent + rest[k] > limit:
            return
        if k == len(options):
            yield chosen
            return
        for target, cost in options[k]:
            if target not in chosen:
                yield from extend(chosen + (target,), spent + cost)

    yield from extend((), 0)


def two_colored_decide(
    instance: Instance,
    objective: str,
    bound: int,
    model: ConflictModel = VERTEX_EDGE,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> Witness:
    """Decide whether a colored instance has a solution meeting ``bound`` in
    which each team's agents end on a bijection onto its targets.

    ``objective`` is ``"flowtime"`` or ``"makespan"``; one budget covers the
    whole call.  Flowtime below the assignment-minimal lower bound is NO and
    at it is one joint search (``_team_descent``).  Above it, and for
    makespan, each within-team bijection whose distances to its targets
    leave the bound within reach (``_bijections``) is decided in turn.
    """
    if instance.teams is None:
        raise ValueError("instance has no teams")
    if objective not in ("flowtime", "makespan"):
        raise ValueError(f"unknown objective {objective!r}")
    clock = _BudgetClock(budget)
    kernel = _GridKernel(instance.grid)
    makespan = objective == "makespan"
    if not makespan:
        least = _matching_lower_bound(instance, kernel)
        if least is None or bound < least:
            return Witness(False, None)
        if bound == least:
            return _team_descent(instance, kernel, bound, model, clock)
    # teams in label order, members in instance order; makespan targets cost 0
    order = sorted(range(instance.num_agents), key=lambda i: instance.agents[i].team)
    options = []
    for i in order:
        start = kernel.cid(instance.agents[i].start)
        ends = map(kernel.cid, sorted(instance.teams[instance.agents[i].team]))
        reach = [(t, kernel.dist_to(t, instance.directions)[start]) for t in ends]
        options.append([(t, 0 if makespan else d) for t, d in reach if 0 <= d <= bound])
    for targets in _bijections(options, bound):
        goals = tuple(t for _, t in sorted(zip(order, targets)))
        comp = _Compiled(instance, kernel, full=True, goals=goals)
        if makespan:
            witness = _arrive_by(comp, [bound] * len(goals), model, clock)
        elif comp.lower_bound == bound:
            witness = _arrive_by(comp, comp.lengths, model, clock)
        else:
            try:
                cost, solution = _optimal_flowtime(comp, model, clock)
            except NoSolutionError:
                continue
            witness = Witness(cost <= bound, solution)
        if witness.decision:
            return witness
    return Witness(False, None)


def _team_descent(
    instance: Instance, kernel: _GridKernel, bound: int, model: ConflictModel, clock: _BudgetClock
) -> Witness:
    """Decide flowtime ``bound``, the assignment-minimal lower bound, with one
    joint strict-descent search in which each agent heads for any team target.

    Flowtime >= sum of d(start, end) >= the bound, so a solution meets it
    exactly when its ends are a min-cost bijection and each agent walks a
    shortest path to its end and rests there.  An agent's live targets are
    those every step so far has descended toward, ``d(start) - t ==
    d(here)``, a function of (cell, t).  An unfinished agent steps to any
    neighbour closer to a live target, or stays on one and is finished, a
    static cell from then on.  States are (positions, t, finished mask),
    pruned when the finished agents' costs plus each other agent's least
    live cost exceed the bound.
    """
    dirs = instance.directions
    steps = kernel.steps(dirs)
    starts = tuple(kernel.cid(a.start) for a in instance.agents)
    n = len(starts)
    # per agent, (distance field, cost from the start) of each team target it reaches
    reach = []
    for agent, start in zip(instance.agents, starts):
        fields = [kernel.dist_to(kernel.cid(c), dirs) for c in sorted(instance.teams[agent.team])]
        reach.append([(f, f[start]) for f in fields if f[start] >= 0])

    def expand(key: _Key) -> Optional[Iterable[_Key]]:
        cur, t, done = key
        static_cells = {cur[i] for i in range(n) if done >> i & 1}
        spent = 0  # finished agents' costs plus each other agent's least live cost
        arrived = True  # every unfinished agent stands on a live target
        active: list[int] = []
        choices: list[list[int]] = []
        stayers: list[int] = []
        for i in range(n):
            here = cur[i]
            if done >> i & 1:
                spent += next(ds for f, ds in reach[i] if f[here] == 0)
                continue
            live = [f for f, ds in reach[i] if 0 <= f[here] == ds - t]
            left = min(f[here] for f in live)
            spent += t + left
            arrived = arrived and left == 0
            # staying finishes the agent, on a live target no finished agent holds
            opts = []
            if left == 0 and here not in static_cells:
                opts.append(here)
                stayers.append(i)
            for off in steps:
                c = here + off
                for f in live:
                    if 0 <= f[c] == f[here] - 1:
                        opts.append(c)
                        break
            active.append(i)
            choices.append(opts)
        if spent > bound:
            return ()
        if arrived and spent == bound and len(set(cur)) == n:
            return None
        return _keys(_joint_moves(cur, active, choices, static_cells, model), cur, t, done, stayers)

    return _dfs((starts, 0, 0), expand, kernel.stride, clock)


def assignment_minimal_lower_bound(instance: Instance) -> Optional[int]:
    """Smallest lower-bound cost over all within-team target bijections, or
    None when every bijection leaves some agent short of its target."""
    if instance.teams is None:
        return lower_bound_cost(instance)
    return _matching_lower_bound(instance, _GridKernel(instance.grid))


def _matching_lower_bound(instance: Instance, kernel: _GridKernel) -> Optional[int]:
    """One min-cost perfect matching of members to targets per team."""
    assert instance.teams is not None
    dirs = instance.directions
    total = 0
    for team in sorted(instance.teams):
        fields = [kernel.dist_to(kernel.cid(c), dirs) for c in sorted(instance.teams[team])]
        starts = [kernel.cid(a.start) for a in instance.agents if a.team == team]
        cost = _min_cost_matching([[f[s] if f[s] >= 0 else None for f in fields] for s in starts])
        if cost is None:
            return None
        total += cost
    return total


def _min_cost_matching(cost: Sequence[Sequence[Optional[int]]]) -> Optional[int]:
    """Least total cost of a perfect matching of rows to columns of a square
    matrix whose None entries are forbidden pairs, or None when none avoids
    them.  The Hungarian method (Kuhn 1955) with potentials, in O(n^3).
    """
    n = len(cost)
    # dearer than every matching of finite entries, so one is used if any exists
    big = 1 + sum(c for row in cost for c in row if c is not None)
    a = [[big if c is None else c for c in row] for row in cost]
    # 1-based: u, v are row and column potentials; match[j] is column j's row
    u, v, match, way = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    for row in range(1, n + 1):
        match[0] = row
        j0 = 0
        slack = [None] * (n + 1)
        used = [False] * (n + 1)
        while match[j0]:
            used[j0] = True
            i0, step, j1 = match[j0], None, 0
            for j in range(1, n + 1):
                if not used[j]:
                    reduced = a[i0 - 1][j - 1] - u[i0] - v[j]
                    if slack[j] is None or reduced < slack[j]:
                        slack[j], way[j] = reduced, j0
                    if step is None or slack[j] < step:
                        step, j1 = slack[j], j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += step
                    v[j] -= step
                else:
                    slack[j] -= step
            j0 = j1
        while j0:
            match[j0] = match[way[j0]]
            j0 = way[j0]
    total = sum(a[match[j] - 1][j - 1] for j in range(1, n + 1))
    return total if total < big else None
