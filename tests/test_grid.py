"""The grid's free mask against the obstacle-set model it replaced.

A ``GridMap`` stores one row-major free mask.  Grids built from an
obstacle set, from a mask, and read back from map text must agree with
each other and with the obstacle set on every query.  The layout and
makespan grid steps of the compiler are checked against the
obstacle-set builds they replaced, kept here as references.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from gridmapf import reduction
from gridmapf.core import Cell, GridMap, _GridKernel
from gridmapf.files import read_map, write_map
from gridmapf.formula import parse_formula
from gridmapf.reduction import compile_formula, makespan_variant

from conftest import FORMULA_CORPUS
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
    layouts = []
    build = reduction._layout_grid

    def recording(width, height, cells):
        grid = build(width, height, cells)
        layouts.append((grid, (width, height, reference_layout_obstacles(width, height, cells))))
        return grid

    monkeypatch.setattr(reduction, "_layout_grid", recording)
    instance, meta = compile_formula(parse_formula(text))
    widened, _ = makespan_variant(instance, meta)
    [(grid, reference)] = layouts
    assert grid is instance.grid
    for grid, (width, height, obstacles) in (
        (grid, reference),
        (widened.grid, reference_makespan_grid(instance)),
    ):
        assert (grid.width, grid.height) == (width, height)
        assert grid == GridMap(width, height, obstacles)
        assert grid.obstacles == obstacles
