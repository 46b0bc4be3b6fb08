"""The forward-field construction checks against the reverse-field reference.

Report texts (name, verdict and detail of every check) must be equal on
the corpus, on the benchmark family and its UNSAT twin, on their makespan
variants, and on seeded random flips of mask cells, which make checks
fail in ways no compiled layout does.
"""

import random
from collections import Counter

import pytest

from construction_reference import reference_verify_construction
from gridmapf.core import Cell, GridMap, Instance
from gridmapf.formula import parse_formula
from gridmapf.reduction import compile_formula, makespan_variant, verify_construction
from test_golden import family_text, report_text


def assert_same_report(instance, meta):
    report = verify_construction(instance, meta)
    assert report_text(report) == report_text(reference_verify_construction(instance, meta))
    return report


def family(n_max=8):
    for n in range(2, n_max + 1):
        for unsat in (False, True):
            yield compile_formula(parse_formula(family_text(n, unsat)))


def test_corpus_and_its_makespan_variants(corpus_compiled):
    for inst, meta in corpus_compiled.values():
        assert assert_same_report(inst, meta).ok
        assert assert_same_report(*makespan_variant(inst, meta)).ok


@pytest.mark.parametrize("variant", ["base", "makespan"])
def test_family_and_twin(variant):
    for inst, meta in family():
        if variant == "makespan":
            inst, meta = makespan_variant(inst, meta)
        assert assert_same_report(inst, meta).ok


def flipped(instance, rng, flips):
    """``instance`` with ``flips`` mask cells toggled: free cells blocked, or
    blocked cells beside a free one opened.  Starts and goals stay free."""
    grid = instance.grid
    w, h = grid.width, grid.height
    keep = {c.row * w + c.col for a in instance.agents for c in (a.start, a.goal)}
    free = bytearray(grid.free)

    def beside_free(i):
        col, row = i % w, i // w
        steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
        return any(grid.is_free(Cell(col + dc, row + dr)) for dc, dr in steps)

    open_ids = [i for i, f in enumerate(free) if f and i not in keep]
    walls = [i for i, f in enumerate(free) if not f and beside_free(i)]
    for _ in range(flips):
        cells = open_ids if rng.random() < 0.5 else walls
        free[rng.choice(cells)] ^= 1
    return Instance(GridMap.from_mask(w, h, free), instance.agents, instance.directions)


def test_random_mask_flips(corpus_compiled):
    rng = random.Random(20261018)
    cases = [c for c in corpus_compiled.values() if c[0].num_agents] + list(family(5))
    failing: Counter = Counter()
    for inst, meta in cases:
        for _ in range(12):
            report = assert_same_report(flipped(inst, rng, rng.randint(1, 4)), meta)
            failing.update(c.name for c in report.failures())
    # The flips reach the failure paths of every rewritten check.
    assert failing["channel-routes-equal-length"] and failing["no-channel-bypass"]
    assert failing["two-directions-suffice"]
