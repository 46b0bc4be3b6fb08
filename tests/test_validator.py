"""Differential tests of ``validate_solution`` against the pairwise reference.

The reference is the validator as first written: it compares every pair of
agents at every step, O(T * N^2), and classifies single-agent steps through
the ``Direction`` Enum.  The library's validator must return the same
ordered conflict tuple, or raise the same ``ValueError``, on every input.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from gridmapf.core import (
    MOTION_DIRECTIONS,
    AgentTask,
    Cell,
    Conflict,
    ConflictModel,
    ConflictReport,
    Direction,
    DirectionSet,
    GridMap,
    Instance,
    Solution,
    TimedPath,
    _team_assignment_ok,
    validate_solution,
)

ALL_MODELS = [ConflictModel(*flags) for flags in itertools.product((False, True), repeat=4)]


def reference_direction_between(a, b):
    delta = (b.col - a.col, b.row - a.row)
    for d in Direction:
        if d.value == delta:
            return d
    return None


def reference_validate(instance, solution, model):
    """The pairwise O(T * N^2) validator."""
    if len(solution.paths) != instance.num_agents:
        raise ValueError(
            f"solution has {len(solution.paths)} paths for {instance.num_agents} agents"
        )
    for agent, path in zip(instance.agents, solution.paths):
        if path.start != agent.start:
            raise ValueError(f"agent {agent.id}: path starts at {path.start}, not {agent.start}")
    if instance.teams is None:
        for agent, path in zip(instance.agents, solution.paths):
            if path.end != agent.goal:
                raise ValueError(f"agent {agent.id}: path ends at {path.end}, not {agent.goal}")
    else:
        problem = _team_assignment_ok(instance, solution)
        if problem is not None:
            raise ValueError(problem)

    conflicts = []
    ids = [a.id for a in instance.agents]
    paths = solution.paths
    n = len(paths)
    horizon = max((len(p.cells) for p in paths), default=1)

    for idx, path in enumerate(paths):
        for t, cell in enumerate(path.cells):
            if not instance.grid.is_free(cell):
                conflicts.append(Conflict(t, "illegal-step", (ids[idx],), (cell,)))
        for t in range(1, len(path.cells)):
            a, b = path.cells[t - 1], path.cells[t]
            d = reference_direction_between(a, b)
            if d is None:
                conflicts.append(Conflict(t, "illegal-step", (ids[idx],), (a, b)))
            elif d is Direction.WAIT:
                if not instance.directions.waits_allowed:
                    conflicts.append(Conflict(t, "illegal-step", (ids[idx],), (a,)))
            elif d not in instance.directions:
                conflicts.append(Conflict(t, "illegal-step", (ids[idx],), (a, b)))

    for t in range(horizon):
        here = [p.at(t) for p in paths]
        if model.forbid_vertex:
            seen = {}
            for i, cell in enumerate(here):
                if cell in seen:
                    conflicts.append(Conflict(t, "vertex", (ids[seen[cell]], ids[i]), (cell,)))
                else:
                    seen[cell] = i
        if t == 0:
            continue
        prev = [p.at(t - 1) for p in paths]
        if model.forbid_edge:
            for i in range(n):
                for j in range(i + 1, n):
                    if prev[i] != here[i] and here[i] == prev[j] and here[j] == prev[i]:
                        conflicts.append(Conflict(t, "edge", (ids[i], ids[j]), (prev[i], here[i])))
        if model.forbid_following:
            for i in range(n):
                if here[i] == prev[i]:
                    continue
                for j in range(n):
                    if j != i and here[i] == prev[j] and here[j] != prev[j]:
                        conflicts.append(Conflict(t, "following", (ids[i], ids[j]), (here[i],)))
        if model.forbid_cycle:
            at_prev = {prev[i]: i for i in range(n)}
            in_cycle = set()
            for start_i in range(n):
                if start_i in in_cycle or here[start_i] == prev[start_i]:
                    continue
                chain = [start_i]
                cur = start_i
                while True:
                    nxt = at_prev.get(here[cur])
                    if nxt is None or here[nxt] == prev[nxt]:
                        break
                    if nxt == start_i:
                        if len(chain) >= 2:
                            members = tuple(sorted(ids[k] for k in chain))
                            conflicts.append(
                                Conflict(t, "cycle", members, tuple(prev[k] for k in chain))
                            )
                            in_cycle.update(chain)
                        break
                    if nxt in chain:
                        break
                    chain.append(nxt)
                    cur = nxt
    return ConflictReport(tuple(conflicts))


# Single steps, including waits, jumps and diagonals; a walk may leave the
# grid or enter an obstacle.
STEPS = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (2, 0), (1, 1), (0, -2)]


@st.composite
def validation_cases(draw):
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = [Cell(c, r) for r in range(height) for c in range(width)]
    obstacles = draw(st.sets(st.sampled_from(cells), max_size=len(cells) - 1))
    free = [c for c in cells if c not in obstacles]
    k = draw(st.integers(1, min(6, len(free))))
    starts = draw(st.permutations(free))[:k]
    goals = draw(st.permutations(free))[:k]
    moves = draw(st.sets(st.sampled_from(MOTION_DIRECTIONS), min_size=1))
    dirs = DirectionSet(frozenset(moves), draw(st.booleans()))
    ids = draw(st.permutations(range(10)))[:k]

    teams = None
    ends = list(goals)
    labels = [None] * k
    if draw(st.booleans()):
        labels = [draw(st.sampled_from("ab")) for _ in range(k)]
        teams = {
            label: frozenset(g for g, l in zip(goals, labels) if l == label)
            for label in set(labels)
        }
        # Each agent ends on some target of its own team, one agent each.
        for label in set(labels):
            members = [i for i in range(k) if labels[i] == label]
            for i, g in zip(members, draw(st.permutations([goals[i] for i in members]))):
                ends[i] = g
    agents = tuple(AgentTask(ids[i], starts[i], goals[i], labels[i]) for i in range(k))
    instance = Instance(GridMap(width, height, frozenset(obstacles)), agents, dirs, teams)

    walks = []
    for i in range(k):
        walk = [starts[i]]
        if walks and draw(st.integers(0, 2)) == 0:
            # Trail another agent's walk (following conflicts), or run it
            # backwards, which meets the other agent head-on (edge and cycle).
            leader = draw(st.sampled_from(walks))
            segment = leader[: draw(st.integers(0, len(leader)))]
            walk += segment if draw(st.booleans()) else segment[::-1]
        for _ in range(draw(st.integers(0, 6))):
            dc, dr = draw(st.sampled_from(STEPS))
            walk.append(Cell(walk[-1].col + dc, walk[-1].row + dr))
        if draw(st.integers(0, 9)) < 9:
            walk.append(ends[i])  # otherwise the path may end off its goal
        walks.append(walk)
    solution = Solution(tuple(TimedPath.from_cells(w) for w in walks))
    return instance, solution


def outcome(validate, instance, solution, model):
    try:
        return validate(instance, solution, model)
    except ValueError as e:
        return ("ValueError", str(e))


@settings(max_examples=400, deadline=None)
@given(validation_cases())
def test_validator_matches_pairwise_reference(case):
    instance, solution = case
    for model in ALL_MODELS:
        expected = outcome(reference_validate, instance, solution, model)
        assert outcome(validate_solution, instance, solution, model) == expected

