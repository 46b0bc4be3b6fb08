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
from hypothesis import given, settings
from hypothesis import strategies as st

from descent_reference import (
    reference_enumerate,
    reference_individually_optimal,
    reference_makespan_at_most,
)
from gridmapf import oracle
from gridmapf.core import AgentTask, Cell, DirectionSet, GridMap, Instance, Solution, _GridKernel
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
from test_golden import family_text
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


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_instances(), walled_instances()), st.booleans())
def test_deadline_search_matches_separate_searches(inst, waits):
    inst = with_waits(inst, waits)
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
