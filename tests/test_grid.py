"""The grid's free mask against the obstacle-set model it replaced.

A ``GridMap`` stores one row-major free mask.  Grids built from an
obstacle set, from a mask, and read back from map text must agree with
each other and with the obstacle set on every query.  The layout and
makespan grid steps of the compiler are checked against the
obstacle-set builds they replaced, kept here as references, and the
compiler's byte-mask layout against the Cell-set layout it replaced
(``layout_reference``).
"""

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from gridmapf import reduction
from gridmapf.core import Cell, GridMap, _GridKernel
from gridmapf.files import read_map, write_map
from gridmapf.formula import parse_formula
from gridmapf.reduction import LayoutError, compile_formula, makespan_variant

from conftest import FORMULA_CORPUS
from layout_reference import ReferenceLayout, Segments, layout_grid
from test_golden import family_text


@st.composite
def grids(draw):
    """(width, height, obstacle set) on grids up to 8x8."""
    width = draw(st.integers(1, 8))
    height = draw(st.integers(1, 8))
    cells = [Cell(c, r) for r in range(height) for c in range(width)]
    return width, height, frozenset(draw(st.sets(st.sampled_from(cells))))


def mask_of(width, height, obstacles):
    return bytes(Cell(c, r) not in obstacles for r in range(height) for c in range(width))


@settings(max_examples=300, deadline=None)
@given(grids())
def test_every_construction_agrees_with_the_obstacle_set(case):
    width, height, obstacles = case
    from_set = GridMap(width, height, obstacles)
    from_mask = GridMap.from_mask(width, height, mask_of(width, height, obstacles))
    from_text = read_map(write_map(from_set))
    expected_free = [
        Cell(c, r) for r in range(height) for c in range(width) if Cell(c, r) not in obstacles
    ]
    for grid in (from_set, from_mask, from_text):
        assert grid == from_set
        assert hash(grid) == hash(from_set)
        assert grid.obstacles == obstacles
        assert grid.free_count == len(expected_free)
        assert list(grid.free_cells()) == expected_free
        for r in range(-1, height + 1):
            for c in range(-1, width + 1):
                cell = Cell(c, r)
                inside = 0 <= c < width and 0 <= r < height
                assert grid.is_free(cell) == (inside and cell not in obstacles)


@settings(max_examples=100, deadline=None)
@given(grids(), grids())
def test_equality_follows_the_free_cells(a, b):
    ga, gb = GridMap(*a), GridMap.from_mask(b[0], b[1], mask_of(*b))
    assert (ga == gb) == (a == b)


def test_replace_obstacles_keeps_working():
    grid = GridMap.from_mask(3, 2, b"\x01\x00\x01\x01\x01\x01")
    moved = dataclasses.replace(grid, obstacles=grid.obstacles | {Cell(2, 1)})
    assert moved == GridMap(3, 2, {Cell(1, 0), Cell(2, 1)})
    assert dataclasses.replace(grid, height=3).obstacles == {Cell(1, 0)}


@pytest.mark.parametrize("free", [b"", b"\x01" * 5, b"\x01" * 7, bytearray(12)])
def test_mask_of_wrong_length_rejected(free):
    with pytest.raises(ValueError, match="free mask has"):
        GridMap.from_mask(3, 2, free)


@pytest.mark.parametrize("bad", [2, 255, ord("."), ord("1")])
def test_mask_bytes_other_than_zero_or_one_rejected(bad):
    free = bytearray(b"\x01" * 6)
    free[4] = bad
    with pytest.raises(ValueError, match="0 or 1"):
        GridMap.from_mask(3, 2, free)


@pytest.mark.parametrize("width, height", [(0, 2), (2, 0), (-1, 3)])
def test_mask_of_empty_size_rejected(width, height):
    with pytest.raises(ValueError, match="grid dimensions must be positive"):
        GridMap.from_mask(width, height, b"")


def test_mask_is_immutable_copy():
    free = bytearray(b"\x01\x01")
    grid = GridMap.from_mask(2, 1, free)
    free[0] = 0
    assert grid.is_free(Cell(0, 0))
    assert isinstance(grid.free, bytes)


# ---------------------------------------------------------------- references

def reference_layout_obstacles(width, height, cells):
    """The layout step as it was: every cell not on a corridor is an obstacle."""
    return frozenset(
        Cell(col, row)
        for row in range(height)
        for col in range(width)
        if Cell(col, row) not in cells
    )


def reference_makespan_grid(instance):
    """The makespan grid step as it was, as (width, height, obstacles): widen
    with obstacles, then open each target's extension to the common distance."""
    old = instance.grid
    kernel = _GridKernel(old)
    dists = {
        a.id: kernel.dist_to(kernel.cid(a.goal), instance.directions)[kernel.cid(a.start)]
        for a in instance.agents
    }
    common = max(dists.values(), default=0)
    extension = set()
    new_goals = []
    for a in instance.agents:
        ext = common - dists[a.id]
        new_goals.append(Cell(a.goal.col + ext, a.goal.row))
        extension |= {Cell(a.goal.col + k, a.goal.row) for k in range(1, ext + 1)}
    new_width = max([old.width] + [g.col + 1 for g in new_goals])
    widening = {
        Cell(col, row) for row in range(old.height) for col in range(old.width, new_width)
    }
    return new_width, old.height, (old.obstacles | widening) - extension


FORMULAS = [pytest.param(text, id=name) for name, text in FORMULA_CORPUS.items()] + [
    pytest.param(family_text(n, unsat), id=f"{'unsat' if unsat else 'sat'}-n{n}")
    for n in range(4, 17)
    for unsat in (False, True)
]


@pytest.mark.parametrize("text", FORMULAS)
def test_compiled_grids_equal_the_references(text, monkeypatch):
    instance, meta = compile_formula(parse_formula(text))
    layouts = []

    class Recording(ReferenceLayout):
        def __init__(self, width, height):
            super().__init__(width, height)
            layouts.append(self)

    # The same formula, compiled once more on the Cell-set layout.
    monkeypatch.setattr(reduction, "_Layout", Recording)
    on_reference, _ = compile_formula(parse_formula(text))
    [layout] = layouts
    width, height, cells = layout.width, layout.height, layout.segments.free
    assert on_reference.grid == instance.grid
    widened, _ = makespan_variant(instance, meta)
    for grid, (width, height, obstacles) in (
        (instance.grid, (width, height, reference_layout_obstacles(width, height, cells))),
        (widened.grid, reference_makespan_grid(instance)),
    ):
        assert (grid.width, grid.height) == (width, height)
        assert grid == GridMap(width, height, obstacles)
        assert grid.obstacles == obstacles


# ------------------------------------------------- the byte-mask layout

@st.composite
def layout_runs(draw):
    """(width, height, runs) on layouts up to 8x8.  A run is (kind, fixed,
    lo, hi): a row (h) or column (v), and its first and last cell along it.
    The draws favour one-cell runs, runs that end on the last column or row,
    repeated runs and, now and then, a run that leaves the layout."""
    width, height = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    runs = []
    for _ in range(draw(st.integers(0, 8))):
        if runs and draw(st.integers(0, 4)) == 0:
            runs.append(draw(st.sampled_from(runs)))
            continue
        kind = draw(st.sampled_from("hv"))
        across, along = (height, width) if kind == "h" else (width, height)
        edge = st.sampled_from([-1, along])
        fixed = draw(st.integers(0, across - 1) | st.sampled_from([-1, across]))
        lo = draw(st.integers(0, along - 1) | st.integers(0, along - 1) | edge)
        hi = draw(st.just(lo) | st.just(along - 1) | st.integers(lo, max(lo, along - 1)) | edge)
        runs.append((kind, fixed, lo, max(lo, hi)))
    return width, height, runs


def lay(layout, runs):
    for kind, fixed, lo, hi in runs:
        (layout.h_run if kind == "h" else layout.v_run)(fixed, lo, hi)


def mask_cells(width, mask):
    return {Cell(i % width, i // width) for i, f in enumerate(mask) if f}


@settings(max_examples=500, deadline=None)
@given(layout_runs())
# The last cell of row 0 and the first of row 1 are next to each other in
# the mask, but not on the grid.
@example((3, 2, [("h", 0, 2, 2), ("h", 1, 0, 0)]))
@example((3, 2, [("v", 2, 0, 0), ("v", 0, 1, 1)]))
# One-cell vertical runs at row 0, where a stop of ``start - width + 1``
# would be negative and wrap.
@example((4, 3, [("v", 1, 0, 0)]))
@example((1, 1, [("v", 0, 0, 0), ("h", 0, 0, 0)]))
# Free cells beside each other across and below, with no step between;
# in the last, both beside one cell, where the one to the right is named.
@example((3, 3, [("v", 0, 0, 1), ("v", 1, 0, 1)]))
@example((3, 3, [("h", 0, 0, 1), ("h", 1, 0, 1)]))
@example((2, 2, [("h", 0, 0, 0), ("h", 0, 1, 1), ("v", 0, 1, 1)]))
def test_mask_layout_matches_the_cell_set_layout(case):
    width, height, runs = case
    reference = Segments()
    lay(reference, runs)
    outside = {c for c in reference.free if not (0 <= c.col < width and 0 <= c.row < height)}
    layout = reduction._Layout(width, height)
    if outside:
        with pytest.raises(LayoutError, match="outside the"):
            lay(layout, runs)
        with pytest.raises(LayoutError):
            reference.audit()
            layout_grid(width, height, reference.free)
        return
    lay(layout, runs)
    for mask in (layout.free, layout.right, layout.down):
        assert len(mask) == width * height
    assert mask_cells(width, layout.free) == reference.free
    assert layout_grid(width, height, reference.free).free == layout.free
    bad = reference.bad_pairs()
    if not bad:
        layout.audit()
        reference.audit()
        return
    _, cell, other = bad[0]
    with pytest.raises(LayoutError) as e:
        layout.audit()
    assert str(e.value) == f"accidental corridor adjacency {cell} / {other}"
    with pytest.raises(LayoutError, match="accidental corridor adjacency"):
        reference.audit()


@pytest.mark.parametrize("width, height", [(1, 1), (1, 5), (5, 1), (4, 3), (8, 8)])
def test_one_cell_runs_keep_every_mask_at_its_length(width, height):
    for col in range(width):
        for row in range(height):
            for run in ("h_run", "v_run"):
                layout = reduction._Layout(width, height)
                args = (row, col, col) if run == "h_run" else (col, row, row)
                getattr(layout, run)(*args)
                assert [len(layout.free), len(layout.right), len(layout.down)] == [width * height] * 3
                assert mask_cells(width, layout.free) == {Cell(col, row)}
                assert not any(layout.right) and not any(layout.down)
                layout.audit()


def test_row_end_and_next_row_start_are_not_adjacent():
    layout = reduction._Layout(3, 2)
    layout.h_run(0, 1, 2)
    layout.h_run(1, 0, 0)  # the cell after (2, 0) in the mask
    layout.audit()
    layout.h_run(1, 1, 1)  # below (1, 0) and right of (0, 1), with no step to either
    with pytest.raises(LayoutError, match=r"Cell\(col=1, row=0\) / Cell\(col=1, row=1\)$"):
        layout.audit()
