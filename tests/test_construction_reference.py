"""The construction checks, read off bit-row reach sweeps, against the
reverse-field BFS reference.

Report texts (name, verdict and detail of every check) must be equal on
the corpus, on the benchmark family and its UNSAT twin, on their makespan
variants, on seeded random flips of mask cells and on many walls opened
at once, which make checks fail in ways no compiled layout does, and on
hand-edited channels that leave the grid.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from construction_reference import reference_verify_construction
from gridmapf import files
from gridmapf.core import Cell, GridMap, Instance
from gridmapf.formula import parse_formula
from gridmapf.reduction import (
    ChannelSpec,
    _first_blocked,
    compile_formula,
    makespan_variant,
    verify_construction,
)
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


def walls(grid):
    """The mask indices of the blocked cells beside a free one."""
    w = grid.width

    def beside_free(i):
        col, row = i % w, i // w
        steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
        return any(grid.is_free(Cell(col + dc, row + dr)) for dc, dr in steps)

    return [i for i, f in enumerate(grid.free) if not f and beside_free(i)]


def flipped(instance, rng, flips):
    """``instance`` with ``flips`` mask cells toggled: free cells blocked, or
    blocked cells beside a free one opened.  Starts and goals stay free."""
    grid = instance.grid
    w, h = grid.width, grid.height
    keep = {c.row * w + c.col for a in instance.agents for c in (a.start, a.goal)}
    free = bytearray(grid.free)
    open_ids = [i for i, f in enumerate(free) if f and i not in keep]
    cells = walls(grid)
    for _ in range(flips):
        free[rng.choice(open_ids if rng.random() < 0.5 else cells)] ^= 1
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


def test_opened_walls(corpus_compiled):
    """5-60 blocked cells beside free ones opened per case.  An agent then
    often reaches cells past its opening that the opening does not reach,
    so check 4 fails and names the first such cell a BFS from the agent's
    start meets; the few flips above almost never make it fail."""
    rng = random.Random(20261021)
    cases = [c for c in corpus_compiled.values() if c[0].num_agents] + list(family(5))
    cases = [(inst, meta, walls(inst.grid)) for inst, meta in cases]
    failing: Counter = Counter()
    for inst, meta, closed in cases * 20:
        grid = inst.grid
        free = bytearray(grid.free)
        for i in rng.sample(closed, min(rng.randint(5, 60), len(closed))):
            free[i] = 1
        opened = GridMap.from_mask(grid.width, grid.height, free)
        report = assert_same_report(Instance(opened, inst.agents, inst.directions), meta)
        failing.update(c.name for c in report.failures())
    assert failing["opening-dominates"] >= 50


def test_hand_edited_channels_off_the_grid(corpus_compiled):
    """A ``.meta`` whose channel runs past the top and the bottom of the
    grid, or lies beside it: check 2 names the first off-grid cell as
    blocked, and check 6 blocks only the channel's cells on the grid."""
    inst, meta = corpus_compiled["two-clause-sat"]
    ch = meta.channels[0]
    w, h = inst.grid.width, inst.grid.height
    line = f"channel {ch.var} {ch.col} {ch.top_row} {ch.bottom_row}"
    text = files.write_metadata(meta)
    assert line in text.splitlines()
    details = {}
    for col, top, bottom in (
        (ch.col, -3, h + 2),
        (ch.col, -1, ch.bottom_row),
        (ch.col, ch.top_row, h),
        (ch.col, h, h + 4),
        (ch.col, -6, -2),
        (ch.col, ch.top_row, ch.top_row - 1),
        (-1, ch.top_row, ch.bottom_row),
        (w, ch.top_row, ch.bottom_row),
        (-2, ch.top_row, ch.bottom_row),
        # Past the right edge by the channel's column and the frame: its
        # framed ids, unchecked, would be the real channel's one row down.
        (ch.col + w + 1, ch.top_row, ch.bottom_row),
    ):
        edited = files.read_metadata(text.replace(line, f"channel {ch.var} {col} {top} {bottom}"))
        report = assert_same_report(inst, edited)
        details[(col, top, bottom)] = {c.name: c.detail for c in report.checks}
    geometry = {span: d["channel-geometry"] for span, d in details.items()}
    assert f"channel {ch.var} cell Cell(col={ch.col}, row=-3) is not free" in geometry[
        (ch.col, -3, h + 2)
    ]
    assert f"cell Cell(col=-1, row={ch.top_row}) is not free" in geometry[
        (-1, ch.top_row, ch.bottom_row)
    ]
    assert "is not free" not in geometry[(ch.col, ch.top_row, ch.top_row - 1)]


@settings(max_examples=400, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.data(),
)
def test_first_blocked_channel_cell_matches_a_walk_down_the_channel(width, height, data):
    free = data.draw(st.binary(min_size=width * height, max_size=width * height))
    grid = GridMap.from_mask(width, height, bytes(b & 1 for b in free))
    col = data.draw(st.integers(-2, width + 1))
    top = data.draw(st.integers(-3, height + 2))
    ch = ChannelSpec(1, col, top, data.draw(st.integers(top - 2, height + 3)))
    walk = next((cell for cell in ch.cells() if not grid.is_free(cell)), None)
    assert _first_blocked(grid, ch) == walk
