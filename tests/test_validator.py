"""Differential tests of ``validate_solution`` against the pairwise reference.

The reference, ``solution_reference.reference_validate``, is the validator
as first written: it compares every pair of agents at every step, O(T *
N^2), and classifies single-agent steps through the ``Direction`` Enum.
The library's validator must return the same ordered tuple of the other
conflicts, or raise the same ``ValueError``, on every input, and the same
report whether its paths were built from cells or from framed cell ids.
Cycle conflicts are checked against the brute force of
``rotation_reference``: at each step, the union of their members must be
the agents in some rotating subset of the movers.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from gridmapf import core
from gridmapf.core import (
    FOUR_DIRECTIONS,
    MOTION_DIRECTIONS,
    AgentTask,
    Cell,
    ConflictModel,
    ConflictReport,
    DirectionSet,
    GridMap,
    Instance,
    Solution,
    TimedPath,
    validate_solution,
)
from gridmapf.files import write_solution
from rotation_reference import rotating_movers
from solution_reference import reference_validate

ALL_MODELS = [ConflictModel(*flags) for flags in itertools.product((False, True), repeat=4)]


# Single steps, including waits, jumps and diagonals; a walk may leave the
# grid or enter an obstacle.
STEPS = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (2, 0), (1, 1), (0, -2)]


@st.composite
def validation_cases(draw, max_side=6):
    """An instance and a solution that may break every rule; on grids with
    ``max_side`` 2, agents crowd into shared cells and rotate through them."""
    width, height = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
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


def framed(instance, solution):
    """``solution`` with each path that the instance's kernel frame can hold
    as ids (cells in columns 0 .. width - 1, from row -1 down) rebuilt from
    its framed ids ``(row + 1) * (width + 1) + col``; ids past the frame's
    last row are kept."""
    s = instance.grid.width + 1
    paths = []
    for path in solution.paths:
        if all(0 <= col < s - 1 and row >= -1 for col, row in path.cells):
            path = TimedPath._from_ids([(row + 1) * s + col for col, row in path.cells], s)
        paths.append(path)
    return Solution(tuple(paths))


def outcome(validate, instance, solution, model):
    try:
        return validate(instance, solution, model)
    except ValueError as e:
        return ("ValueError", str(e))


# Agents 0 and 1 both enter (1,0) at t=1; at t=2 agent 0 and agent 2, which
# waited, swap (1,0) <-> (1,1) while agent 1 stays on (1,0).
SHARED_CELL_WALKS = ([(0, 0), (1, 0), (1, 1)], [(2, 0), (1, 0)], [(1, 1), (1, 1), (1, 0), (0, 0)])


def shared_cell_case(order=(0, 1, 2)):
    """SHARED_CELL_WALKS on a 3x2 grid, agent ``i`` taking walk ``order[i]``."""
    walks = [[Cell(*c) for c in SHARED_CELL_WALKS[k]] for k in order]
    instance = Instance(
        GridMap(3, 2),
        tuple(AgentTask(i, w[0], w[-1]) for i, w in enumerate(walks)),
        FOUR_DIRECTIONS,
    )
    return instance, Solution(tuple(TimedPath(tuple(w)) for w in walks))


def walks_case(width, height, walks, teams=None):
    """Agent ``i`` walks ``walks[i]`` on an open grid under four directions;
    with ``teams``, agent ``i`` is in team ``teams[i]``, whose targets are
    the ends of its members' walks."""
    walks = [[Cell(*c) for c in walk] for walk in walks]
    labels = teams or [None] * len(walks)
    targets = None
    if teams:
        targets = {}
        for label, walk in zip(teams, walks):
            targets.setdefault(label, set()).add(walk[-1])
    agents = tuple(
        AgentTask(i, w[0], w[-1] if not teams else Cell(i, height - 1), labels[i])
        for i, w in enumerate(walks)
    )
    teams = targets and {label: frozenset(cells) for label, cells in targets.items()}
    instance = Instance(GridMap(width, height), agents, FOUR_DIRECTIONS, teams)
    return instance, Solution(tuple(TimedPath.from_cells(w) for w in walks))


# Agent 1 crosses (1,1) at t=2, where agent 0 has stood since t=1.
CROSSES_PARKED = walks_case(3, 3, [[(1, 0), (1, 1)], [(0, 0), (0, 1), (1, 1), (2, 1)]])
# Agents 0 and 1 swap at t=1, the last step of agent 0's path.
SWAP_AT_ARRIVAL = walks_case(2, 2, [[(0, 0), (1, 0)], [(1, 0), (0, 0), (0, 1)]])
# Agent 0 arrives on (1,0) at t=1, the step at which agent 1 passes it.
VERTEX_AT_ARRIVAL = walks_case(3, 2, [[(0, 0), (1, 0)], [(2, 0), (1, 0), (1, 1)]])
# A 15-step snake past an agent that never moves and one parked at t=1.
SNAKE = [(0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (2, 1), (1, 1), (0, 1)]
SNAKE += [(0, 2), (1, 2), (2, 2), (3, 2), (3, 3), (2, 3), (1, 3), (1, 2)]
UNEVEN_LENGTHS = walks_case(4, 4, [SNAKE, [(0, 3), (1, 3)], [(3, 3)]])
# Two teams share the target (0,1); their agents park there at t=1 and t=2,
# and stay there while agent 2 still moves.
SHARED_TARGET = walks_case(
    3, 2, [[(0, 0), (0, 1)], [(1, 0), (1, 1), (0, 1)], [(2, 0), (2, 1), (2, 0), (2, 1)]], "abc"
)


def test_pinned_scan_cases_hold_their_conflicts():
    assert [(c.time, c.kind) for c in validate_solution(*CROSSES_PARKED).conflicts] == [
        (2, "vertex")
    ]
    assert [(c.time, c.kind) for c in validate_solution(*SWAP_AT_ARRIVAL).conflicts] == [
        (1, "edge")
    ]
    assert [(c.time, c.kind) for c in validate_solution(*VERTEX_AT_ARRIVAL).conflicts] == [
        (1, "vertex")
    ]
    assert [(c.time, c.agents) for c in validate_solution(*UNEVEN_LENGTHS).conflicts] == [
        (12, (0, 2)),
        (14, (0, 1)),
    ]
    assert [(c.time, c.agents) for c in validate_solution(*SHARED_TARGET).conflicts] == [
        (2, (0, 1)),
        (3, (0, 1)),
    ]


def rotating_ids_by_step(instance, solution):
    """Step -> ids of the agents in some rotating subset of that step's movers."""
    ids = [a.id for a in instance.agents]
    horizon = max(len(p.cells) for p in solution.paths)
    out = {}
    for t in range(1, horizon):
        members = rotating_movers(
            [p.at(t - 1) for p in solution.paths], [p.at(t) for p in solution.paths]
        )
        if members:
            out[t] = {ids[i] for i in members}
    return out


@settings(max_examples=400, deadline=None)
@given(st.one_of(validation_cases(), validation_cases(max_side=2)))
@example(shared_cell_case())
@example(CROSSES_PARKED)
@example(SWAP_AT_ARRIVAL)
@example(VERTEX_AT_ARRIVAL)
@example(UNEVEN_LENGTHS)
@example(SHARED_TARGET)
def test_validator_matches_pairwise_reference(case):
    instance, solution = case
    rotating = rotating_ids_by_step(instance, solution)
    path_of = {a.id: p for a, p in zip(instance.agents, solution.paths)}
    for model in ALL_MODELS:
        expected = outcome(reference_validate, instance, solution, model)
        got = outcome(validate_solution, instance, solution, model)
        assert outcome(validate_solution, instance, framed(instance, solution), model) == got
        if not isinstance(expected, ConflictReport):
            assert got == expected
            continue
        assert tuple(c for c in got.conflicts if c.kind != "cycle") == expected.conflicts
        by_step = {}
        for c in got.conflicts:
            if c.kind == "cycle":
                assert not by_step.get(c.time, set()) & set(c.agents)  # one entry per agent
                by_step.setdefault(c.time, set()).update(c.agents)
                # a rotation's cells are the cells its members leave
                assert set(c.cells) == {path_of[aid].at(c.time - 1) for aid in c.agents}
        assert by_step == (rotating if model.forbid_cycle else {})


def test_cycle_through_a_shared_cell_under_both_numberings():
    model = ConflictModel(False, False, False, True)
    for order in ((0, 1, 2), (1, 0, 2)):
        instance, solution = shared_cell_case(order)
        assert validate_solution(instance, solution, model).kinds() == {"cycle"}


def test_an_off_grid_cell_whose_id_names_a_free_cell_is_still_illegal():
    # On a width-1 grid Cell(2, 0) and Cell(0, 1) share the framed id 4:
    # lowered alone, this path would read as two legal down moves.
    instance = Instance(GridMap(1, 3), (AgentTask(0, Cell(0, 0), Cell(0, 2)),), FOUR_DIRECTIONS)
    solution = Solution((TimedPath((Cell(0, 0), Cell(2, 0), Cell(0, 2))),))
    report = validate_solution(instance, solution)
    assert report == reference_validate(instance, solution, ConflictModel())
    assert [(c.time, c.cells) for c in report.conflicts] == [
        (1, (Cell(2, 0),)),
        (1, (Cell(0, 0), Cell(2, 0))),
        (2, (Cell(2, 0), Cell(0, 2))),
    ]
    with pytest.raises(ValueError, match=r"Cell\(col=0, row=0\) -> Cell\(col=2, row=0\) is not a"):
        write_solution(instance, solution)


def test_id_built_paths_are_checked_without_cells(monkeypatch):
    # The agents meet on (1,1) at t=2; only that conflict's cell is built.
    instance, solution = walks_case(
        3, 3, [[(0, 1), (0, 1), (1, 1), (2, 1)], [(1, 0), (1, 0), (1, 1), (1, 2)]]
    )
    solution = framed(instance, solution)

    def no_cells(ids, stride):
        raise AssertionError("a path's cells were built")

    monkeypatch.setattr(core, "_id_cells", no_cells)
    report = validate_solution(instance, solution)
    assert [(c.time, c.kind, c.cells) for c in report.conflicts] == [(2, "vertex", (Cell(1, 1),))]
