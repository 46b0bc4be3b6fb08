"""Formula parsing, nesting validation, and the exhaustive SAT check."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmapf.formula import (
    Clause,
    EmbeddingError,
    FormulaError,
    MonotoneFormula,
    Side,
    brute_force_sat,
    evaluate,
    format_formula,
    parse_formula,
    validate_planar_monotone,
)
from nesting_reference import reference_validate_planar_monotone


def nesting_levels(forest):
    """Recompute levels from the parent relation alone."""
    children = {cid: [] for cid in forest.parent}
    for cid, p in forest.parent.items():
        if p is not None:
            children[p].append(cid)
    levels = {}

    def level(cid):
        if cid not in levels:
            kids = children[cid]
            levels[cid] = 0 if not kids else 1 + max(level(k) for k in kids)
        return levels[cid]

    for cid in forest.parent:
        level(cid)
    return levels


def truth_table_sat(formula):
    """Independent satisfiability oracle evaluating clauses by hand."""
    for bits in itertools.product((False, True), repeat=formula.num_vars):
        ok = True
        for c in formula.clauses:
            lits = [bits[v - 1] for v in c.vars]
            if c.side is Side.POSITIVE:
                clause_true = any(lits)
            else:
                clause_true = any(not b for b in lits)
            if not clause_true:
                ok = False
                break
        if ok:
            return bits
    return None


class TestParse:
    def test_basic(self):
        f = parse_formula("vars 2\nclause 1 + 1 2\nclause 2 - 1 2\n")
        assert f.num_vars == 2
        assert f.clauses[0].side is Side.POSITIVE
        assert f.clauses[1].side is Side.NEGATIVE
        assert f.clauses[0].vars == (1, 2)

    def test_duplicate_variable_rejected(self):
        with pytest.raises(FormulaError) as e:
            parse_formula("vars 2\nclause 1 + 1 1 2\n")
        assert e.value.line == 2

    def test_empty_clause_list_valid(self):
        f = parse_formula("vars 3\n")
        assert f.num_clauses == 0

    def test_out_of_range_variable(self):
        with pytest.raises(FormulaError):
            parse_formula("vars 2\nclause 1 + 3\n")

    def test_too_many_literals(self):
        with pytest.raises(FormulaError):
            parse_formula("vars 4\nclause 1 + 1 2 3 4\n")

    def test_unknown_directive(self):
        with pytest.raises(FormulaError) as e:
            parse_formula("vars 2\nfrobnicate\n")
        assert e.value.line == 2

    # "²" passes str.isdigit, and int() rejects it.
    @pytest.mark.parametrize(
        "text, line", [("vars \u00b2\n", 1), ("vars 2\nclause \u00b2 + 1\n", 2)]
    )
    def test_non_ascii_digit_carries_line(self, text, line):
        with pytest.raises(FormulaError) as e:
            parse_formula(text)
        assert e.value.line == line

    def test_comments_and_blanks(self):
        f = parse_formula("# header\nvars 2\n\nclause 1 + 1  # trailing\n")
        assert f.num_clauses == 1

    def test_duplicate_clause_id(self):
        with pytest.raises(FormulaError):
            parse_formula("vars 2\nclause 1 + 1\nclause 1 - 2\n")

    def test_roundtrip_canonical(self):
        text = "vars 3\nclause 1 + 1 2\nclause 2 - 2 3\n"
        assert format_formula(parse_formula(text)) == text
        f = parse_formula(text)
        assert parse_formula(format_formula(f)) == f


class TestNesting:
    def test_containment_parent(self):
        f = parse_formula("vars 4\nclause 1 + 1 4\nclause 2 + 2 3\n")
        forest = validate_planar_monotone(f)
        assert forest.parent[2] == 1
        assert forest.levels == {1: 1, 2: 0}

    def test_chain_of_three_levels(self):
        f = parse_formula(
            "vars 4\nclause 1 + 1 4\nclause 2 + 1 3\nclause 3 + 1 2\n"
        )
        forest = validate_planar_monotone(f)
        assert forest.levels == {1: 2, 2: 1, 3: 0}
        # grandparent encloses but is not the parent
        assert forest.encloses(1, 3)
        assert forest.parent[3] == 2

    def test_star_parent_level(self):
        f = parse_formula(
            "vars 4\nclause 1 + 1 4\nclause 2 + 1\nclause 3 + 2 3\nclause 4 + 4\n"
        )
        forest = validate_planar_monotone(f)
        assert forest.levels[1] == 1
        assert {forest.parent[i] for i in (2, 3, 4)} == {1}

    def test_single_clause_level_zero(self):
        f = parse_formula("vars 2\nclause 1 - 1 2\n")
        forest = validate_planar_monotone(f)
        assert forest.levels[1] == 0
        assert forest.roots[Side.NEGATIVE] == 1
        assert forest.roots[Side.POSITIVE] is None

    def test_crossing_intervals_rejected(self):
        f = parse_formula("vars 4\nclause 1 + 1 3\nclause 2 + 2 4\n")
        with pytest.raises(EmbeddingError):
            validate_planar_monotone(f)

    def test_multiple_roots_rejected(self):
        f = parse_formula("vars 4\nclause 1 + 1 2\nclause 2 + 3 4\n")
        with pytest.raises(EmbeddingError):
            validate_planar_monotone(f)

    def test_opposite_sides_independent(self):
        f = parse_formula("vars 4\nclause 1 + 1 2\nclause 2 - 3 4\n")
        forest = validate_planar_monotone(f)
        assert forest.roots[Side.POSITIVE] == 1
        assert forest.roots[Side.NEGATIVE] == 2

    def test_equal_intervals_outer_first_by_input_order(self):
        f = parse_formula("vars 2\nclause 7 + 1 2\nclause 9 + 1 2\n")
        forest = validate_planar_monotone(f)
        assert forest.parent[9] == 7
        assert forest.parent[7] is None

    def test_nesting_levels_recomputation_matches(self):
        f = parse_formula(
            "vars 4\nclause 1 + 1 4\nclause 2 + 1 3\nclause 3 + 1 2\nclause 4 - 1 2\n"
        )
        forest = validate_planar_monotone(f)
        assert nesting_levels(forest) == forest.levels

    def test_levels_equal_longest_descending_chain(self):
        # independent check: level = longest chain of strict containment below
        f = parse_formula(
            "vars 4\nclause 1 + 1 4\nclause 2 + 1 3\nclause 3 + 1 2\nclause 4 + 1\n"
        )
        forest = validate_planar_monotone(f)
        ids = [c.id for c in f.clauses]

        def chain_below(cid):
            kids = [k for k in ids if forest.parent[k] == cid]
            return 0 if not kids else 1 + max(chain_below(k) for k in kids)

        for cid in ids:
            assert forest.levels[cid] == chain_below(cid)


    def test_equal_intervals_three_deep(self):
        f = parse_formula("vars 3\nclause 7 + 1 3\nclause 3 + 1 3\nclause 9 + 1 3\n")
        forest = validate_planar_monotone(f)
        assert forest.parent == {7: None, 3: 7, 9: 3}
        assert forest.children == {7: (3,), 3: (9,), 9: ()}
        assert forest.levels == {7: 2, 3: 1, 9: 0}

    def test_shared_endpoint_variable_crosses(self):
        # named in input order, whichever interval starts first
        f = parse_formula("vars 3\nclause 5 - 2 3\nclause 4 - 1 2\nclause 6 - 1 3\n")
        with pytest.raises(EmbeddingError, match=r"^clauses 5 and 4: intervals \(2, 3\) and \(1, 2\) cross$"):
            validate_planar_monotone(f)

    def test_two_thousand_deep_chain(self):
        depth = 2000
        f = MonotoneFormula(
            2 * depth,
            tuple(Clause(i, Side.POSITIVE, (i, 2 * depth + 1 - i)) for i in range(1, depth + 1)),
        )
        forest = validate_planar_monotone(f)
        assert forest.roots == {Side.POSITIVE: 1, Side.NEGATIVE: None}
        assert forest.levels[1] == depth - 1
        assert forest.parent == {i: (i - 1 if i > 1 else None) for i in range(1, depth + 1)}
        assert forest.levels == {i: depth - i for i in range(1, depth + 1)}


@st.composite
def small_formulas(draw):
    """Up to 8 clauses of both signs with distinct, arbitrary ids."""
    n = draw(st.integers(1, 7))
    ids = draw(st.lists(st.integers(-20, 40), max_size=8, unique=True))
    clauses = tuple(
        Clause(
            cid,
            draw(st.sampled_from(Side)),
            tuple(draw(st.lists(st.integers(1, n), min_size=1, max_size=3, unique=True))),
        )
        for cid in ids
    )
    return MonotoneFormula(n, clauses)


def crosses(a, b):
    """Overlapping intervals neither of which contains the other."""
    (alo, ahi), (blo, bhi) = sorted((a.interval, b.interval))
    return alo < blo <= ahi < bhi


@settings(max_examples=1000, deadline=None)
@given(small_formulas())
def test_sweep_matches_the_pair_scan(formula):
    try:
        expected = reference_validate_planar_monotone(formula)
    except EmbeddingError as e:
        with pytest.raises(EmbeddingError) as got:
            validate_planar_monotone(formula)
        message = str(got.value)
        assert ("cross" in message) == ("cross" in str(e))
        if "cross" in message:
            # With several crossing pairs the sweep may name another pair.
            ids = re.fullmatch(r"clauses (-?\d+) and (-?\d+): intervals .* cross", message)
            a, b = (formula.clause_by_id(int(i)) for i in ids.groups())
            assert a.side is b.side and crosses(a, b)
            assert formula.clauses.index(a) < formula.clauses.index(b)
            assert message == f"clauses {a.id} and {b.id}: intervals {a.interval} and {b.interval} cross"
        else:
            assert message == str(e)
        return
    assert validate_planar_monotone(formula) == expected


class TestBruteForceSat:
    def test_simple_sat(self):
        f = parse_formula("vars 2\nclause 1 + 1 2\nclause 2 - 1 2\n")
        assignment = brute_force_sat(f)
        assert assignment is not None
        assert evaluate(f, assignment)

    def test_contradiction_unsat(self):
        f = parse_formula("vars 1\nclause 1 + 1\nclause 2 - 1\n")
        assert brute_force_sat(f) is None

    def test_lexicographically_first(self):
        f = parse_formula("vars 2\nclause 1 + 1 2\n")
        # (F,F) fails, (F,T) is the first success
        assert brute_force_sat(f) == (False, True)

    def test_var_cap(self):
        f = MonotoneFormula(30, ())
        with pytest.raises(ValueError):
            brute_force_sat(f)

    def test_matches_truth_table_on_random_formulas(self):
        rng = random.Random(101)
        for _ in range(60):
            n = rng.randrange(1, 5)
            clauses = []
            for cid in range(1, rng.randrange(1, 5) + 1):
                size = rng.randrange(1, min(3, n) + 1)
                vs = tuple(sorted(rng.sample(range(1, n + 1), size)))
                side = Side.POSITIVE if rng.random() < 0.5 else Side.NEGATIVE
                clauses.append(Clause(cid, side, vs))
            f = MonotoneFormula(n, tuple(clauses))
            mine = brute_force_sat(f)
            ref = truth_table_sat(f)
            assert (mine is None) == (ref is None)
            if mine is not None:
                assert mine == ref  # both lexicographically first

    def test_empty_formula_trivially_sat(self):
        f = parse_formula("vars 2\n")
        assert brute_force_sat(f) == (False, False)
