"""The deadline search against the separate searches it replaced.

``oracle._arrive_by`` decides strict descent and makespan <= d as one
question: can every agent stand on its goal by its deadline.  Against
``descent_reference`` it must give the same decisions, witnesses,
enumerations and expansion counts, under every conflict model, with
waits and without.  On the makespan variant, where every goal is d moves
away, the two public decisions must be one search.
"""

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from descent_reference import (
    reference_enumerate,
    reference_individually_optimal,
    reference_makespan_at_most,
)
from gridmapf import files, oracle
from gridmapf.core import (
    ALL_CONFLICTS,
    AgentTask,
    Cell,
    DirectionSet,
    GridMap,
    Instance,
    Solution,
    VERTEX_EDGE,
    _GridKernel,
)
from gridmapf.formula import parse_formula
from gridmapf.oracle import (
    BudgetExceededError,
    SearchBudget,
    enumerate_individually_optimal,
    exists_individually_optimal,
    exists_makespan_at_most,
)
from gridmapf.reduction import compile_formula, makespan_variant
from test_bounded_fields import walled_instances
from test_golden import family_text, sha, witness_text
from test_oracle import ALL_MODELS, small_instances

BUDGET = SearchBudget(max_states=300)


class RecordingClock(oracle._BudgetClock):
    """The library's budget clock, remembering the last one made."""

    last = None

    def __init__(self, budget):
        super().__init__(budget)
        RecordingClock.last = self


def library(search, *args, budget=BUDGET):
    """(answer, states expanded) of a public oracle call."""
    with mock.patch.object(oracle, "_BudgetClock", RecordingClock):
        RecordingClock.last = None
        try:
            answer = search(*args, budget=budget)
        except BudgetExceededError:
            answer = "budget exhausted"
    # an answer found before any search makes no clock
    return answer, RecordingClock.last.expanded if RecordingClock.last else 0


def reference(search, *args, budget=BUDGET):
    """(answer, states expanded) of a reference search."""
    clock = oracle._BudgetClock(budget)
    try:
        answer = search(*args, clock)
    except BudgetExceededError:
        answer = "budget exhausted"
    return answer, clock.expanded


def with_waits(inst, waits):
    return Instance(inst.grid, inst.agents, DirectionSet(inst.directions.moves, waits))


def assert_matches_reference(inst):
    """Decisions, witnesses, enumerations and expansion counts on ``inst``
    equal the reference's under every conflict model, for strict descent
    and for makespan bounds around the largest goal distance, and both run
    out of a budget one state short of the count."""
    kernel = _GridKernel(inst.grid)
    d = max(
        kernel.dist_to(kernel.cid(a.goal), inst.directions)[kernel.cid(a.start)]
        for a in inst.agents
    )
    for model in ALL_MODELS:
        pairs = [
            (
                (exists_individually_optimal, inst, model),
                (reference_individually_optimal, inst, model),
            ),
            (
                (enumerate_individually_optimal, inst, model, 50),
                (reference_enumerate, inst, model, 50),
            ),
        ]
        pairs += [
            ((exists_makespan_at_most, inst, b, model), (reference_makespan_at_most, inst, b, model))
            for b in (d - 1, d, d + 1, d + 3)
        ]
        for (search, *args), (ref, *ref_args) in pairs:
            answer, expanded = library(search, *args)
            assert (answer, expanded) == reference(ref, *ref_args), (search.__name__, model)
            if answer != "budget exhausted" and expanded:
                # one state short of the count, both run out of budget
                short = SearchBudget(max_states=expanded - 1)
                assert library(search, *args, budget=short)[0] == "budget exhausted"
                assert reference(ref, *ref_args, budget=short)[0] == "budget exhausted"


# The makespan search here runs out of the table bound at 283 expansions;
# a reference that counted expansions alone ran on to 301.
TABLE_BOUND_CASE = Instance(
    GridMap(4, 5, frozenset(Cell(2, r) for r in range(1, 5))),
    (
        AgentTask(0, Cell(1, 2), Cell(3, 2)),
        AgentTask(1, Cell(0, 0), Cell(0, 0)),
        AgentTask(2, Cell(1, 0), Cell(3, 0)),
    ),
    DirectionSet.from_letters("URD"),
)


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_instances(), walled_instances()), st.booleans())
@example(TABLE_BOUND_CASE, True)
def test_deadline_search_matches_separate_searches(inst, waits):
    assert_matches_reference(with_waits(inst, waits))


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("unsat", [False, True], ids=["family", "twin"])
def test_makespan_d_is_indopt_on_the_makespan_variant(n, unsat):
    base, meta = compile_formula(parse_formula(family_text(n, unsat)))
    mk, mk_meta = makespan_variant(base, meta)
    budget = SearchBudget(max_states=100_000)
    indopt = library(exists_individually_optimal, mk, budget=budget)
    within = library(exists_makespan_at_most, mk, mk_meta.common_distance, budget=budget)
    assert indopt == within
    assert indopt[0].decision == exists_individually_optimal(base).decision == (not unsat)


def test_negative_makespan_bound_is_no():
    grid = GridMap(2, 1)
    empty = Instance(grid, (), DirectionSet.from_letters("R"))
    assert not exists_makespan_at_most(empty, -1).decision
    assert exists_makespan_at_most(empty, 0).solution == Solution(())
    one = Instance(grid, (AgentTask(0, Cell(0, 0), Cell(0, 0)),), DirectionSet.from_letters("R"))
    assert not exists_makespan_at_most(one, -1).decision
    assert exists_makespan_at_most(one, 0).decision


@pytest.mark.parametrize("budget", [oracle.DEFAULT_BUDGET, SearchBudget(max_seconds=100)])
def test_generated_keys_are_counted_with_and_without_a_deadline(budget):
    base, _ = compile_formula(parse_formula(family_text(4, False)))
    with mock.patch.object(oracle, "_BudgetClock", RecordingClock):
        assert exists_individually_optimal(base, budget=budget).decision
    assert (RecordingClock.last.expanded, RecordingClock.last.generated) == (227, 228)


# (decision, expanded, generated, SHA-256 of the witness file) of
# exists_individually_optimal on the compiled base instance and of
# exists_makespan_at_most(d) on its makespan variant, the same under
# VERTEX_EDGE and ALL_CONFLICTS.  Taken before the search stepped along
# forced runs; nearly every key of these searches lies on one.
NO_DIGEST = sha("NO\n")
PINNED = {
    (8, False): (
        (True, 527, 528, "3f3a7f54a80025877554e810aecbac960e76dc0531722394253dbee60c4ce687"),
        (True, 527, 528, "cf2e0ec5457527050b337a49fa504d67dca9a76f0c5e4ca39f1b55895035e4a8"),
    ),
    (16, False): (
        (True, 1127, 1128, "27869726e9ea7e1f0d9742cbd5a2aa3a5f433a0d5ea96f29a9a38163f632619d"),
        (True, 1127, 1128, "c5f97d387f34e0369b1866b031429506c2e7cb653f8cd55cf0603a306024f3a4"),
    ),
    (8, True): ((False, 643, 642, NO_DIGEST), (False, 643, 642, NO_DIGEST)),
}


@pytest.mark.parametrize("model", [VERTEX_EDGE, ALL_CONFLICTS], ids=["vertex-edge", "all"])
@pytest.mark.parametrize("n, unsat", sorted(PINNED), ids=str)
def test_compiled_family_counts_and_witnesses_are_pinned(n, unsat, model):
    base, meta = compile_formula(parse_formula(family_text(n, unsat)))
    mk, mk_meta = makespan_variant(base, meta)
    got = []
    for inst, search, args in (
        (base, exists_individually_optimal, ()),
        (mk, exists_makespan_at_most, (mk_meta.common_distance,)),
    ):
        with mock.patch.object(oracle, "_BudgetClock", RecordingClock):
            witness = search(inst, *args, model)
        clock = RecordingClock.last
        got.append((witness.decision, clock.expanded, clock.generated, sha(witness_text(inst, witness))))
    assert tuple(got) == PINNED[(n, unsat)]


def drawn(rows, tasks):
    """Agents ((col, row) start, (col, row) goal) moving in all four
    directions on a map drawn with "." free and "@" blocked."""
    grid = files.read_map(f"height {len(rows)}\nwidth {len(rows[0])}\nmap\n" + "\n".join(rows))
    agents = tuple(AgentTask(i, Cell(*s), Cell(*g)) for i, (s, g) in enumerate(tasks))
    return Instance(grid, agents, DirectionSet.from_letters("UDLR"))


# Two corridors that cross: both agents would enter the centre at t=3.
CROSSING = drawn(
    ["@@@.@@@", "@@@.@@@", "@@@.@@@", ".......", "@@@.@@@", "@@@.@@@", "@@@.@@@"],
    [((3, 0), (3, 6)), ((0, 3), (6, 3))],
)
# A corridor that opens, at (0, 3), into two columns: the goal can be
# reached down either.
BRANCH = drawn([".@", ".@", ".@", "..", "..", ".."], [((0, 0), (1, 5))])
# Two routes of five moves from (0, 0) to (2, 3), then a corridor down which
# agent 0 meets agent 1, which comes up it towards a bay at (3, 4).
REJOIN = drawn(
    ["...@", ".@.@", ".@.@", "....", "@@..", "@@.@", "@@.@", "@@.@", "@@.@", "@@.@", "@@.@"],
    [((0, 0), (2, 10)), ((2, 10), (3, 4))],
)
# One agent down a corridor of 1,100 cells: one run of 1,099 keys.
LONG = Instance(
    GridMap(1100, 1), (AgentTask(0, Cell(0, 0), Cell(1099, 0)),), DirectionSet.from_letters("LR")
)


def run_keys(search, *args):
    """The keys forced runs gave the search in one oracle call, in order,
    each run's first key included, and how often ``_joint_moves`` ran."""
    keys = []
    calls = 0
    forced_keys, joint_moves = oracle._forced_keys, oracle._joint_moves

    def spy_keys(comp, first, *rest):
        keys.append(first)
        for key in forced_keys(comp, first, *rest):
            keys.append(key)
            yield key

    def spy_moves(*args):
        nonlocal calls
        calls += 1
        yield from joint_moves(*args)

    with mock.patch.object(oracle, "_forced_keys", spy_keys):
        with mock.patch.object(oracle, "_joint_moves", spy_moves):
            answer = search(*args)
    return answer, keys, calls


@pytest.mark.parametrize("waits", [False, True], ids=["no-waits", "waits"])
@pytest.mark.parametrize("inst", [CROSSING, BRANCH, REJOIN], ids=["crossing", "branch", "rejoin"])
def test_runs_match_the_reference(inst, waits):
    assert_matches_reference(with_waits(inst, waits))


def test_conflict_in_the_middle_of_a_run():
    answer, keys, calls = run_keys(exists_individually_optimal, CROSSING)
    assert not answer.decision
    # the run stops at t=2, a step from the centre; only that step, where
    # the set test sees two agents on one cell, goes through _joint_moves
    kernel = _GridKernel(CROSSING.grid)
    assert [key[1] for key in keys] == [1, 2]
    assert keys[-1][0] == (kernel.cid(Cell(3, 2)), kernel.cid(Cell(2, 3)))
    assert calls == 1


def test_run_ends_at_a_branch():
    answer, keys, calls = run_keys(exists_individually_optimal, BRANCH)
    assert answer.decision
    kernel = _GridKernel(BRANCH.grid)
    # the first run ends where the corridor opens, whose key has two moves
    assert [key[0] for key in keys[:3]] == [(kernel.cid(Cell(0, r)),) for r in (1, 2, 3)]
    assert keys[3][1] > 4 and calls == 1


def test_run_stops_at_a_key_reached_from_another_branch():
    answer, keys, calls = run_keys(exists_individually_optimal, REJOIN)
    assert not answer.decision
    # both routes' runs reach agent 0's (2, 3) at t=5; the second stops there
    kernel = _GridKernel(REJOIN.grid)
    rejoined = [key for key in keys if key[0][0] == kernel.cid(Cell(2, 3))]
    assert len(rejoined) == 2 and rejoined[0] == rejoined[1] == keys[-1]
    assert calls == 2


@pytest.mark.parametrize("waits", [False, True], ids=["no-waits", "waits"])
@pytest.mark.parametrize("inst", [REJOIN, LONG], ids=["rejoin", "long"])
def test_state_budget_runs_out_inside_a_run_at_the_reference_count(inst, waits):
    inst = with_waits(inst, waits)
    full = library(exists_individually_optimal, inst, budget=oracle.DEFAULT_BUDGET)[1]
    # every count short of the full one on REJOIN; about 25 of them on LONG
    for states in sorted({*range(0, full, max(1, full // 25)), full - 1}):
        budget = SearchBudget(max_states=states)
        got = library(exists_individually_optimal, inst, VERTEX_EDGE, budget=budget)
        want = reference(reference_individually_optimal, inst, VERTEX_EDGE, budget=budget)
        assert got == want and got[0] == "budget exhausted", states


class SteppedTime:
    """A clock that reads one second later each time it is read."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        self.now += 1
        return self.now


def test_timeout_paces_inside_a_run():
    # The deadline is read when the clock is made, at the first expansion and
    # at every 512th expansion and generated key; with each read a second
    # apart, a budget of k - 0.5 seconds runs out at the (k + 1)-th read.
    # (answer, expanded, generated) for k = 1..7, taken before the search
    # stepped along runs; from k = 3 on the deadline passes inside the run.
    pinned = [
        ("budget exhausted", 1, 0),
        ("budget exhausted", 1, 0),
        ("budget exhausted", 513, 512),
        ("budget exhausted", 513, 512),
        ("budget exhausted", 1025, 1024),
        ("budget exhausted", 1025, 1024),
        (True, 1100, 1099),
    ]
    got = []
    for k in range(1, 8):
        with mock.patch.object(oracle, "time", SteppedTime()):
            budget = SearchBudget(max_seconds=k - 0.5)
            answer, expanded = library(exists_individually_optimal, LONG, budget=budget)
        decision = answer if answer == "budget exhausted" else answer.decision
        got.append((decision, expanded, RecordingClock.last.generated))
    assert got == pinned
