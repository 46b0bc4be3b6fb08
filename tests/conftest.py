"""Shared fixtures: the formula corpus and its compiled instances."""

import pytest

from gridmapf.formula import parse_formula
from gridmapf.reduction import compile_formula

# Twelve formulas covering satisfiable and unsatisfiable cases, nesting
# levels up to 2 on either side, clause sizes 1-3, one-sided variables,
# and the empty formula.  Each compiles: in none does a leg crossing let an
# agent enter a channel outside its clause.
FORMULA_CORPUS = {
    "unit-pos": "vars 1\nclause 1 + 1\n",
    "unit-neg": "vars 1\nclause 1 - 1\n",
    "unit-contradiction": "vars 1\nclause 1 + 1\nclause 2 - 1\n",
    "two-clause-sat": "vars 2\nclause 1 + 1 2\nclause 2 - 1 2\n",
    "three-lit": "vars 3\nclause 1 + 1 2 3\nclause 2 - 1 2 3\n",
    "nested-pos-l2": "vars 4\nclause 1 + 1 4\nclause 2 + 1 3\nclause 3 + 1 2\nclause 4 - 1 4\n",
    "nested-neg-l2": "vars 4\nclause 1 + 1 2 4\nclause 2 - 1 4\nclause 3 - 1 3\nclause 4 - 1 2\n",
    "siblings-unsat": "vars 2\nclause 1 + 1 2\nclause 2 + 1\nclause 3 + 2\nclause 4 - 1 2\n",
    "forced-unsat-m3": "vars 2\nclause 1 + 2\nclause 2 - 1 2\nclause 3 - 2\n",
    "inner-var": "vars 3\nclause 1 + 1 2 3\nclause 2 + 2\nclause 3 - 2 3\n",
    "mixed-sat": "vars 3\nclause 1 + 1 3\nclause 2 + 1\nclause 3 - 1 2\n",
    "empty": "vars 2\n",
}

#: Formula names with at least one clause (the size bound is stated per clause).
NONEMPTY_CORPUS = [name for name in FORMULA_CORPUS if name != "empty"]


@pytest.fixture(scope="session")
def corpus_formulas():
    return {name: parse_formula(text) for name, text in FORMULA_CORPUS.items()}


@pytest.fixture(scope="session")
def corpus_compiled(corpus_formulas):
    """name -> (instance, metadata), compiled once per test session."""
    return {
        name: compile_formula(formula)
        for name, formula in corpus_formulas.items()
    }
