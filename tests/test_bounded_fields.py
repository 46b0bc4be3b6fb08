"""Bounded oracle goal fields against the full-field reference.

``oracle._Compiled`` builds each agent's goal field only on the cells that
a path meeting the search's bound can use.  With the full-field
``compiled_reference.ReferenceCompiled`` swapped in, every decision, every
enumerated solution and every witness must stay the same, budget
exhaustion included, on instances whose walls force detours of several
f-layers and whose goals may be out of reach.
"""

from collections import Counter
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from compiled_reference import ReferenceCompiled
from gridmapf import oracle
from gridmapf.core import (
    DOWN_RIGHT,
    FOUR_DIRECTIONS,
    THREE_DIRECTIONS,
    AgentTask,
    Cell,
    DirectionSet,
    GridMap,
    Instance,
    _GridKernel,
)
from gridmapf.formula import parse_formula
from gridmapf.oracle import (
    BudgetExceededError,
    SearchBudget,
    _Compiled,
    enumerate_individually_optimal,
    exists_individually_optimal,
    exists_makespan_at_most,
)
from gridmapf.reduction import compile_formula, makespan_variant
from test_kernel import slots_the_collector_visits
from test_oracle import ALL_MODELS

BUDGET = SearchBudget(max_states=300)


@st.composite
def walled_instances(draw):
    """Up to three agents on grids of 3-6 columns and 5-6 rows, with a few
    obstacles, under down+right, up+down+right or all four moves, with or
    without waits.  Half of them also get a wall down one column, open in
    the top or bottom row only, and a first agent that starts left of it and
    ends right of it, both at least two rows from the opening: going round
    costs at least 4 moves over the Manhattan distance, two f-layers, and
    down+right moves never get round."""
    width, height = draw(st.integers(3, 6)), draw(st.integers(5, 6))
    cells = [Cell(c, r) for r in range(height) for c in range(width)]
    obstacles = set(draw(st.sets(st.sampled_from(cells), max_size=4)))
    tasks = []
    if draw(st.booleans()):
        col = draw(st.integers(1, width - 2))
        gap = draw(st.sampled_from((0, height - 1)))
        obstacles |= {Cell(col, r) for r in range(height) if r != gap}
        rows = [r for r in range(height) if abs(r - gap) >= 2]
        tasks.append((Cell(col - 1, draw(st.sampled_from(rows))), Cell(col + 1, draw(st.sampled_from(rows)))))
        obstacles -= set(tasks[0])
    free = [c for c in cells if c not in obstacles]
    starts = [c for c in draw(st.permutations(free)) if c not in {t[0] for t in tasks}]
    goals = [c for c in draw(st.permutations(free)) if c not in {t[1] for t in tasks}]
    extra = draw(st.integers(0 if tasks else 1, 3 - len(tasks)))
    tasks += list(zip(starts, goals))[:extra]
    dirs = draw(st.sampled_from((DOWN_RIGHT, THREE_DIRECTIONS, FOUR_DIRECTIONS)))
    return Instance(
        GridMap(width, height, frozenset(obstacles)),
        tuple(AgentTask(i, s, g) for i, (s, g) in enumerate(tasks)),
        DirectionSet(dirs.moves, waits_allowed=draw(st.booleans())),
    )


def outcome(search, *args):
    try:
        return search(*args)
    except BudgetExceededError:
        return "budget exhausted"


def every_answer(inst, bounds):
    out = []
    for model in ALL_MODELS:
        out.append(outcome(exists_individually_optimal, inst, model, BUDGET))
        out.append(outcome(enumerate_individually_optimal, inst, model, 50, BUDGET))
        out += [outcome(exists_makespan_at_most, inst, b, model, BUDGET) for b in bounds]
    return out


@settings(max_examples=60, deadline=None)
@given(walled_instances())
def test_answers_match_full_fields(inst):
    kernel = _GridKernel(inst.grid)
    lengths = [
        kernel.dist_to(kernel.cid(a.goal), inst.directions)[kernel.cid(a.start)]
        for a in inst.agents
    ]
    d = max(lengths)
    bounds = (d - 1, d, d + 1, d + 3)
    bounded = every_answer(inst, bounds)
    with mock.patch.object(oracle, "_Compiled", ReferenceCompiled):
        assert bounded == every_answer(inst, bounds)


def test_unreachable_goal_closes_each_cell_once(monkeypatch):
    """A walled-off goal on a 300x300 grid: the A* of the goal field closes
    every cell of the start's component once, then stops."""
    blocked = {Cell(298, 299), Cell(299, 298)}
    inst = Instance(
        GridMap(300, 300, frozenset(blocked)),
        (AgentTask(0, Cell(0, 0), Cell(299, 299)),),
        FOUR_DIRECTIONS,
    )
    closed = Counter()

    class Offset(int):
        """A move offset that counts the ids it is added to."""

        def __radd__(self, cid):
            closed[cid] += 1
            return cid + int(self)

    steps = _GridKernel.steps

    def counting(kernel, dirs, reverse=False):
        # The A* adds each forward offset once to every cell it closes, so
        # the first offset counts closings; the reverse BFS never runs here.
        offsets = steps(kernel, dirs, reverse)
        return offsets if reverse else (Offset(offsets[0]),) + offsets[1:]

    monkeypatch.setattr(_GridKernel, "steps", counting)
    assert not exists_individually_optimal(inst).decision
    assert len(closed) == 300 * 300 - 3
    assert max(closed.values()) == 1


def test_compiled_fields_hold_nothing_the_collector_scans():
    """On the makespan variant of a compiled formula, at its common distance
    d, every bounded goal field is an ``array('i')``, whose slots the cyclic
    garbage collector never walks; ``full`` keeps the kernel's memoized lists."""
    formula = parse_formula("vars 3\nclause 1 + 1 3\nclause 2 - 1 3\nclause 3 + 2\n")
    inst, meta = makespan_variant(*compile_formula(formula))
    compiled = _Compiled(inst, bound=meta.common_distance)
    assert compiled.lengths == [meta.common_distance] * inst.num_agents
    framed = (inst.grid.width + 1) * (inst.grid.height + 2)
    for field in compiled.dist:
        assert field.typecode == "i" and len(field) == framed and slots_the_collector_visits(field) == []
    assert all(type(field) is list for field in _Compiled(inst, full=True).dist)
