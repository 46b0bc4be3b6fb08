"""Two-colored oracle tests: the joint team search and the matching bound
against the per-assignment reference in ``team_reference``."""

import itertools
import math
import random

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from gridmapf import oracle
from gridmapf.core import (
    ALL_CONFLICTS,
    AgentTask,
    Cell,
    ConflictModel,
    DirectionSet,
    FOUR_DIRECTIONS,
    GridMap,
    Instance,
    VERTEX_EDGE,
    validate_solution,
)
from gridmapf.formula import parse_formula
from gridmapf.oracle import (
    BudgetExceededError,
    SearchBudget,
    _bijections,
    _min_cost_matching,
    assignment_minimal_lower_bound,
    two_colored_decide,
)
from gridmapf.reduction import compile_formula, makespan_variant, two_colored_variant
from team_reference import (
    reference_bijections,
    reference_flowtime_decide,
    reference_lower_bound,
    reference_makespan_decide,
)
from test_golden import family_text

ALL_MODELS = [ConflictModel(*flags) for flags in itertools.product((False, True), repeat=4)]
BUDGET = SearchBudget(max_states=3000)


def check_witness(instance, witness, model, bound, objective="flowtime"):
    """A YES witness is valid under ``model``, a per-team bijection, and
    within ``bound`` in ``objective``."""
    report = validate_solution(instance, witness.solution, model)  # raises unless a bijection
    assert report.ok, report.conflicts
    for team, targets in instance.teams.items():
        ends = [p.end for p, a in zip(witness.solution.paths, instance.agents) if a.team == team]
        assert sorted(ends) == sorted(targets)
    assert getattr(witness.solution, objective)() <= bound


def test_min_cost_matching_matches_every_permutation():
    rng = random.Random(7)
    for _ in range(400):
        n = rng.randrange(0, 6)
        cost = [
            [None if rng.random() < 0.3 else rng.randrange(10) for _ in range(n)] for _ in range(n)
        ]
        totals = [
            sum(cost[i][j] for i, j in enumerate(perm))
            for perm in itertools.permutations(range(n))
            if all(cost[i][j] is not None for i, j in enumerate(perm))
        ]
        assert _min_cost_matching(cost) == min(totals, default=None)


@st.composite
def team_costs(draw):
    """Up to three teams of up to four members, at most six agents in all;
    each member's cost to each of its team's targets, or None out of reach."""
    sizes = draw(st.lists(st.integers(0, 4), max_size=3).filter(lambda s: sum(s) <= 6))
    cost = st.one_of(st.none(), st.integers(0, 5))
    return [[draw(st.lists(cost, min_size=k, max_size=k)) for _ in range(k)] for k in sizes]


@settings(max_examples=500, deadline=None)
@given(team_costs(), st.data())
def test_bijections_match_product_of_permutations(teams, data):
    # the same bijections in the same order, for limits from below the least
    # sum (or greatest cost, for makespan) to above the greatest
    members = [(i, m) for i, rows in enumerate(teams) for m in range(len(rows))]
    sums = [
        sum(teams[i][m][j] for (i, m), (_, j) in zip(members, b))
        for b in reference_bijections(teams, math.inf)
    ]
    limit = data.draw(st.integers(min(sums, default=0) - 2, max(sums, default=0) + 2))
    options = [
        [((i, j), c) for j, c in enumerate(teams[i][m]) if c is not None] for i, m in members
    ]
    assert list(_bijections(options, limit)) == list(reference_bijections(teams, limit))
    # makespan: only the targets within the limit, each at cost 0
    limit = data.draw(st.integers(-2, 7))
    options = [[(t, 0) for t, c in opts if c <= limit] for opts in options]
    expected = list(reference_bijections(teams, limit, makespan=True))
    assert list(_bijections(options, limit)) == expected


@st.composite
def colored_instances(draw):
    """Grids up to 4x4, at most four agents in one or two teams, any direction set."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cells = [Cell(c, r) for r in range(height) for c in range(width)]
    obstacles = draw(st.sets(st.sampled_from(cells), max_size=len(cells) - 1))
    free = [c for c in cells if c not in obstacles]
    k = draw(st.integers(1, min(4, len(free))))
    starts = draw(st.permutations(free))[:k]
    targets = draw(st.permutations(free))[:k]
    teams = [draw(st.sampled_from("ab")) for _ in range(k)]
    letters = "".join(sorted(draw(st.sets(st.sampled_from("UDLR")))))
    return Instance(
        GridMap(width, height, frozenset(obstacles)),
        tuple(AgentTask(i, s, g, t) for i, (s, g, t) in enumerate(zip(starts, targets, teams))),
        DirectionSet.from_letters(letters, waits_allowed=draw(st.booleans())),
        teams={t: frozenset(g for g, u in zip(targets, teams) if u == t) for t in set(teams)},
    )


@settings(max_examples=500, deadline=None)
@given(colored_instances())
def test_joint_search_matches_per_assignment_reference(inst):
    lb = assignment_minimal_lower_bound(inst)
    assert lb == reference_lower_bound(inst)
    bounds = (0,) if lb is None else (lb, lb - 1, lb + 1)
    try:
        for model in ALL_MODELS:
            for bound in bounds:
                witness = two_colored_decide(inst, "flowtime", bound, model, BUDGET)
                expected = reference_flowtime_decide(inst, bound, model, BUDGET)
                assert witness.decision == expected.decision, (model, bound)
                if witness.decision:
                    check_witness(inst, witness, model, bound)
    except BudgetExceededError:
        reject()


@settings(max_examples=300, deadline=None)
@given(colored_instances(), st.integers(0, 6))
def test_makespan_matches_per_assignment_reference(inst, bound):
    try:
        for model in ALL_MODELS:
            witness = two_colored_decide(inst, "makespan", bound, model, BUDGET)
            expected = reference_makespan_decide(inst, bound, model, BUDGET)
            # the first bijection with a YES in the same order gives the same witness
            assert witness == expected, model
            if witness.decision:
                check_witness(inst, witness, model, bound, "makespan")
    except BudgetExceededError:
        reject()


def test_makespan_witness_follows_team_label_order():
    # On this 2x3 grid several bijections meet makespan 4, and the first in
    # the order of the sorted team labels is a different one when team "a"
    # is renamed to sort after "b": the witness is that first one's.
    grid = GridMap(2, 3, frozenset({Cell(0, 2)}))
    starts = [Cell(1, 0), Cell(1, 1), Cell(0, 0), Cell(1, 2)]
    targets = [Cell(0, 1), Cell(1, 1), Cell(0, 0), Cell(1, 0)]
    witnesses = []
    for first in ("a", "c"):
        labels = [first, first, "b", "b"]
        inst = Instance(
            grid,
            tuple(AgentTask(i, *task) for i, task in enumerate(zip(starts, targets, labels))),
            FOUR_DIRECTIONS,
            teams={first: frozenset(targets[:2]), "b": frozenset(targets[2:])},
        )
        witness = two_colored_decide(inst, "makespan", 4)
        assert witness == reference_makespan_decide(inst, 4, VERTEX_EDGE), first
        check_witness(inst, witness, VERTEX_EDGE, 4, "makespan")
        witnesses.append(witness)
    assert witnesses[0] != witnesses[1]


def test_compiled_formulas_match_per_assignment_reference(corpus_compiled):
    # the corpus under two models, and the benchmark family and its UNSAT twin at n <= 5
    both = (VERTEX_EDGE, ALL_CONFLICTS)
    cases = [(name, compiled, both) for name, compiled in corpus_compiled.items()]
    for n in range(2, 6):
        for unsat in (False, True):
            compiled = compile_formula(parse_formula(family_text(n, unsat)))
            cases.append((f"family n={n} unsat={unsat}", compiled, (VERTEX_EDGE,)))
    for name, (inst, meta), models in cases:
        colored = two_colored_variant(inst, meta)
        lb = assignment_minimal_lower_bound(colored)
        assert lb == reference_lower_bound(colored), name
        for model in models:
            witness = two_colored_decide(colored, "flowtime", lb, model)
            assert witness.decision == reference_flowtime_decide(colored, lb, model).decision, name
            if witness.decision:
                check_witness(colored, witness, model, lb)


def test_one_budget_covers_every_assignment():
    # a's and b's must pass each other in a one-wide corridor, so each of
    # the four bijections fails after at most 5 states, 17 in all
    c = lambda col: Cell(col, 0)
    inst = Instance(
        GridMap(4, 1),
        (
            AgentTask(0, c(0), c(2), "a"),
            AgentTask(1, c(1), c(3), "a"),
            AgentTask(2, c(2), c(0), "b"),
            AgentTask(3, c(3), c(1), "b"),
        ),
        FOUR_DIRECTIONS,
        teams={"a": frozenset({c(2), c(3)}), "b": frozenset({c(0), c(1)})},
    )
    assert not two_colored_decide(inst, "makespan", 6).decision
    with pytest.raises(BudgetExceededError):
        two_colored_decide(inst, "makespan", 6, budget=SearchBudget(max_states=8))


def test_unsat_twin_at_six_is_one_small_search():
    # the per-assignment reference expands tens of thousands of states here
    inst, meta = compile_formula(parse_formula(family_text(6, True)))
    colored = two_colored_variant(inst, meta)
    lb = assignment_minimal_lower_bound(colored)
    witness = two_colored_decide(colored, "flowtime", lb, budget=SearchBudget(max_states=2000))
    assert not witness.decision


@pytest.fixture
def builds(monkeypatch):
    """The instance of each ``oracle._Compiled`` built, in order."""
    built = []

    class CountingCompiled(oracle._Compiled):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(oracle, "_Compiled", CountingCompiled)
    return built


def test_bijections_out_of_reach_are_never_built(builds):
    # Three a's cross an open 4x4 grid along rows 0-2.  Of the 3! bijections
    # only the straight one keeps every distance within 3, or the distance
    # sum within 10; the other five are rejected before any instance is built.
    targets = [Cell(3, row) for row in range(3)]
    inst = Instance(
        GridMap(4, 4),
        tuple(AgentTask(row, Cell(0, row), targets[row], "a") for row in range(3)),
        FOUR_DIRECTIONS,
        teams={"a": frozenset(targets)},
    )
    assert assignment_minimal_lower_bound(inst) == 9
    cases = [("makespan", 2, 0, False), ("makespan", 3, 1, True), ("flowtime", 10, 1, True)]
    for objective, bound, built, decision in cases:
        builds.clear()
        witness = two_colored_decide(inst, objective, bound)
        assert (witness.decision, len(builds)) == (decision, built), (objective, bound)
        reference = {"makespan": reference_makespan_decide, "flowtime": reference_flowtime_decide}
        assert reference[objective](inst, bound, VERTEX_EDGE).decision == decision


@pytest.mark.parametrize("n", [12, 16])
def test_makespan_at_scale_builds_one_bijection(builds, n):
    # Of the twin's within-team bijections (1.46e11 at n=16) only one keeps
    # every agent within d of its target, and only it is searched: NO.  The
    # satisfiable family's first admissible bijection is its YES.
    for unsat in (True, False):
        inst, meta = makespan_variant(*compile_formula(parse_formula(family_text(n, unsat))))
        colored = two_colored_variant(inst, meta)
        builds.clear()
        witness = two_colored_decide(colored, "makespan", meta.common_distance)
        assert (witness.decision, len(builds)) == (not unsat, 1), unsat
        if witness.decision:
            check_witness(colored, witness, VERTEX_EDGE, meta.common_distance, "makespan")
