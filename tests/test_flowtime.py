"""Flowtime tests: the A* against its unfiltered reference in
``flowtime_reference``, the strict-descent answer it tries first, and the
deadline inside one wide expansion."""

import time

import pytest
from hypothesis import given, reject, settings

from gridmapf.core import (
    AgentTask,
    Cell,
    FOUR_DIRECTIONS,
    GridMap,
    Instance,
    lower_bound_cost,
    validate_solution,
)
from gridmapf.formula import parse_formula
from gridmapf.oracle import (
    BudgetExceededError,
    NoSolutionError,
    SearchBudget,
    delta,
    exists_individually_optimal,
    optimal_flowtime,
)
from gridmapf.reduction import compile_formula
from flowtime_reference import reference_optimal_flowtime
from test_golden import family_text
from test_oracle import ALL_MODELS, PROPERTY_BUDGET, small_instances


def flowtime_or_none(search, inst, model):
    """``search``'s (cost, witness), or None when no solution exists."""
    try:
        return search(inst, model, PROPERTY_BUDGET)
    except NoSolutionError:
        return None


@settings(max_examples=1000, deadline=None)
@given(small_instances())
def test_flowtime_matches_unfiltered_reference(inst):
    lb = lower_bound_cost(inst)
    try:
        for model in ALL_MODELS:
            found = flowtime_or_none(optimal_flowtime, inst, model)
            expected = flowtime_or_none(reference_optimal_flowtime, inst, model)
            descent = exists_individually_optimal(inst, model, PROPERTY_BUDGET)
            if expected is None:
                assert found is None, model
                continue
            assert found[0] == expected[0], model
            if descent.decision:
                assert found[0] == lb, model
                assert validate_solution(inst, found[1], model).ok
                assert found[1].flowtime() == lb
            else:
                assert found[1] == expected[1], model
    except BudgetExceededError:
        reject()


@pytest.mark.parametrize("n", [4, 8, 16])
def test_delta_is_zero_on_the_compiled_sat_family(n):
    inst, _ = compile_formula(parse_formula(family_text(n, False)))
    assert delta(inst, budget=SearchBudget(max_seconds=10)) == 0


def wide_expansion_instance():
    """Nine agents on an open 5x5 grid with waits: one A* expansion
    enumerates up to 5**9 joint moves, and the strict-descent search says
    NO at once."""
    starts = [(4, 3), (3, 1), (1, 2), (0, 4), (1, 3), (0, 0), (4, 2), (2, 1), (1, 0)]
    goals = [(0, 1), (3, 0), (1, 2), (0, 3), (2, 1), (2, 2), (2, 3), (3, 4), (0, 4)]
    agents = tuple(AgentTask(i, Cell(*s), Cell(*g)) for i, (s, g) in enumerate(zip(starts, goals)))
    return Instance(GridMap(5, 5), agents, FOUR_DIRECTIONS)


def test_deadline_interrupts_one_wide_expansion():
    inst = wide_expansion_instance()
    began = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        delta(inst, budget=SearchBudget(max_seconds=0.5))
    assert time.perf_counter() - began < 2


def test_state_budget_bounds_the_astar_table():
    # Counting expansions alone, 40 states took seconds and 100s of MB
    # here: one expansion pushed every joint move it generated.
    inst = wide_expansion_instance()
    began = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="state budget of 40"):
        delta(inst, budget=SearchBudget(max_states=40))
    assert time.perf_counter() - began < 0.5
