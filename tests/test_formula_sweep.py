"""Promise 2 by enumeration: every formula on three variables with one to
three distinct clauses of one to three variables, in every clause order.

Of the 2,380 formulas, 1,732 pass ``validate_planar_monotone``.  Each of
them either compiles or raises the foreign-channel ``LayoutError``, which
74 do: a leg crossing a deeper corridor would let an agent enter a channel
outside its clause.  Through equal intervals, which nest in input order,
that can depend on the clause order.  A compiled formula passes all 8
construction checks on its base instance and on its makespan variant; it
is satisfiable exactly when the base instance has an individually optimal
solution, under vertex and edge conflicts and under all conflicts, and
exactly when the variant has a solution of makespan at most d; and on a
satisfiable formula ``realize_solution`` followed by
``extract_assignment`` gives back a satisfying assignment.
"""

import itertools
import re

from gridmapf.core import ALL_CONFLICTS
from gridmapf.formula import (
    Clause,
    EmbeddingError,
    FormulaError,
    MonotoneFormula,
    Side,
    brute_force_sat,
    evaluate,
)
from gridmapf.oracle import exists_individually_optimal, exists_makespan_at_most
from gridmapf.reduction import (
    LayoutError,
    compile_formula,
    extract_assignment,
    makespan_variant,
    realize_solution,
    verify_construction,
)

from test_reduction import failures

NUM_VARS = 3
CLAUSES = [
    (side, vs)
    for k in (1, 2, 3)
    for vs in itertools.combinations(range(1, NUM_VARS + 1), k)
    for side in Side
]


def sweep_formulas():
    for k in (1, 2, 3):
        for picked in itertools.permutations(CLAUSES, k):
            yield MonotoneFormula(
                NUM_VARS, tuple(Clause(i, side, vs) for i, (side, vs) in enumerate(picked, 1))
            )


def test_every_small_formula_compiles_or_is_rejected_and_keeps_promise_2():
    valid = rejected = 0
    for formula in sweep_formulas():
        try:
            instance, meta = compile_formula(formula)
        except (EmbeddingError, FormulaError):
            continue
        except LayoutError as e:
            assert re.fullmatch(r"agent \d+ can enter foreign channel \d+", str(e)), (formula, e)
            valid += 1
            rejected += 1
            continue
        valid += 1
        mk, mk_meta = makespan_variant(instance, meta)
        assert failures(verify_construction(instance, meta)) == {}, formula
        assert failures(verify_construction(mk, mk_meta)) == {}, formula
        model = brute_force_sat(formula)
        sat = model is not None
        assert exists_individually_optimal(instance).decision == sat, formula
        assert exists_individually_optimal(instance, ALL_CONFLICTS).decision == sat, formula
        assert exists_makespan_at_most(mk, mk_meta.common_distance).decision == sat, formula
        if sat:
            solution = realize_solution(instance, meta, model)
            assert evaluate(formula, extract_assignment(instance, meta, solution)), formula
    assert (valid, rejected) == (1732, 74)
