"""Differential tests of the integer grid kernel against a BFS over cells."""

import gc
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmapf.core import (
    FOUR_DIRECTIONS,
    MOTION_DIRECTIONS,
    AgentTask,
    Cell,
    Direction,
    DirectionSet,
    GridMap,
    Instance,
    _GridKernel,
    lower_bound_cost,
)
from gridmapf.reduction import LayoutError, _walk

from kernel_reference import reference_bfs, shortest_dist_field

#: Every non-empty subset of the four moves.
DIRECTION_SETS = [
    DirectionSet(frozenset(moves))
    for k in range(1, 5)
    for moves in itertools.combinations(MOTION_DIRECTIONS, k)
]


def forward(dirs):
    return [(d.dcol, d.drow) for d in dirs.ordered()]


def backward(dirs):
    return [(-d.dcol, -d.drow) for d in dirs.ordered()]


def reversed_set(dirs):
    flip = {(d.dcol, d.drow): d for d in MOTION_DIRECTIONS}
    return DirectionSet(frozenset(flip[(-d.dcol, -d.drow)] for d in dirs.moves))


def as_cells(kernel, field):
    return {cell: d for cell, d in zip(kernel.cells(range(len(field))), field) if d >= 0}


@st.composite
def grids(draw):
    width = draw(st.integers(1, 6))
    height = draw(st.integers(1, 6))
    cells = [Cell(c, r) for r in range(height) for c in range(width)]
    obstacles = draw(st.sets(st.sampled_from(cells), max_size=len(cells) - 1))
    return GridMap(width, height, frozenset(obstacles))


def assert_fields_match(grid, dirs):
    kernel = _GridKernel(grid)
    for cell in grid.free_cells():
        cid = kernel.cid(cell)
        assert as_cells(kernel, kernel.dist_to(cid, dirs)) == reference_bfs(
            grid, cell, backward(dirs)
        )
        reference = reference_bfs(grid, cell, forward(dirs))
        from_cell = as_cells(kernel, kernel.dist_from(cid, dirs))
        assert from_cell == reference
        assert from_cell == as_cells(kernel, kernel.dist_to(cid, reversed_set(dirs)))
        # Same neighbour order as the reference, so the same visiting order.
        assert list(kernel.cells(kernel.reached_from(cid, dirs))) == list(reference)


@settings(max_examples=100, deadline=None)
@given(grids(), st.sampled_from(DIRECTION_SETS))
def test_fields_match_reference_bfs(grid, dirs):
    assert_fields_match(grid, dirs)


def border_grid():
    """5x4 with obstacles on all four borders, two of them in corners: a move
    that wrapped across a row end, or left the grid and came back, would
    reach cells the grid does not connect."""
    obstacles = {Cell(0, 0), Cell(2, 0), Cell(4, 1), Cell(0, 2), Cell(3, 3), Cell(4, 3)}
    return GridMap(5, 4, frozenset(obstacles))


#: Grids at the edges of the frame: a single cell, a single row or column,
#: with and without obstacles, and obstacles on every border.
EDGE_GRIDS = [
    GridMap(1, 1),
    GridMap(1, 5),
    GridMap(5, 1),
    GridMap(1, 5, frozenset({Cell(0, 2)})),
    GridMap(5, 1, frozenset({Cell(2, 0)})),
    border_grid(),
]


@pytest.mark.parametrize("dirs", DIRECTION_SETS, ids=lambda d: d.letters)
@pytest.mark.parametrize("grid", EDGE_GRIDS, ids=lambda g: f"{g.width}x{g.height}-{g.free_count}")
def test_edge_grids_match_reference_bfs(grid, dirs):
    assert_fields_match(grid, dirs)


@pytest.mark.parametrize("dirs", DIRECTION_SETS, ids=lambda d: d.letters)
def test_blocked_source_reaches_only_itself(dirs):
    grid = border_grid()
    kernel = _GridKernel(grid)
    for cell in grid.obstacles:
        cid = kernel.cid(cell)
        for field in (
            kernel.dist_from(cid, dirs),
            kernel.dist_to(cid, dirs),
            kernel.dist_from_avoiding(cid, dirs, ()),
        ):
            assert as_cells(kernel, field) == {cell: 0}
        assert kernel.reached_from(cid, dirs) == [cid]


def test_walk_into_a_blocked_cell_raises():
    grid = border_grid()
    kernel = _GridKernel(grid)
    free = Cell(1, 1)
    for blocked in sorted(grid.obstacles):
        for a, b in ((free, blocked), (blocked, free)):
            with pytest.raises(LayoutError):
                _walk(kernel, FOUR_DIRECTIONS, a, b)
    assert _walk(kernel, FOUR_DIRECTIONS, free, Cell(4, 0)) == [
        Cell(1, 1), Cell(2, 1), Cell(3, 1), Cell(3, 0), Cell(4, 0)
    ]


@settings(max_examples=100, deadline=None)
@given(grids(), st.sampled_from(DIRECTION_SETS), st.data())
def test_blocked_ids_act_as_obstacles(grid, dirs, data):
    kernel = _GridKernel(grid)
    free = list(grid.free_cells())
    blocked = data.draw(st.sets(st.sampled_from(free)))
    pruned = GridMap(grid.width, grid.height, grid.obstacles | blocked)
    memo = {start: kernel.dist_from(kernel.cid(start), dirs) for start in free}
    for start in free:
        field = kernel.dist_from_avoiding(kernel.cid(start), dirs, map(kernel.cid, blocked))
        assert field is not memo[start]
        if start in blocked:
            assert max(field) < 0
        else:
            assert as_cells(kernel, field) == reference_bfs(pruned, start, forward(dirs))
    # The blocked search leaves the memoized fields as they were.
    for start in free:
        assert kernel.dist_from(kernel.cid(start), dirs) is memo[start]
        assert as_cells(kernel, memo[start]) == reference_bfs(grid, start, forward(dirs))


@st.composite
def walled_grids(draw):
    """3-6 columns and 5-6 rows, with a wall down one column that is open in
    the top or bottom row only: a path across it detours by up to 2(rows-1)."""
    width, height = draw(st.integers(3, 6)), draw(st.integers(5, 6))
    col = draw(st.integers(1, width - 2))
    gap = draw(st.sampled_from((0, height - 1)))
    return GridMap(width, height, frozenset(Cell(col, r) for r in range(height) if r != gap))


@settings(max_examples=300, deadline=None)
@given(st.one_of(grids(), walled_grids()), st.sampled_from(DIRECTION_SETS), st.data())
def test_near_goal_fields_are_exact_within_the_bound(grid, dirs, data):
    free = list(grid.free_cells())
    start, goal = data.draw(st.sampled_from(free)), data.draw(st.sampled_from(free))
    from_start = reference_bfs(grid, start, forward(dirs))
    to_goal = reference_bfs(grid, goal, backward(dirs))
    d = to_goal.get(start)
    kernel = _GridKernel(grid)
    for bound in (None, 0, 4) if d is None else (None, d - 1, d, d + 1, d + 3):
        field = kernel.dist_to_near(kernel.cid(start), kernel.cid(goal), dirs, bound)
        limit = d if bound is None else bound
        if d is None or d > limit:
            assert max(field) < 0
            continue
        for cell in free:
            got, true = field[kernel.cid(cell)], to_goal.get(cell)
            if cell in from_start and true is not None and from_start[cell] + true <= limit:
                assert got == true, (cell, bound)
            elif got >= 0:  # a real path, never shorter than the shortest
                assert true is not None and got >= true, (cell, bound)


def slots_the_collector_visits(field):
    """The objects that a collection visits inside ``field``, its type aside.

    From CPython 3.10 an ``array`` is tracked as a whole, but its traversal
    visits only its type; a list's visits every slot."""
    return [r for r in gc.get_referents(field) if r is not type(field)]


def test_bounded_fields_are_arrays_the_collector_does_not_scan():
    """Bounded fields hold raw C ints, so the cyclic garbage collector never
    walks their grid-sized storage: with or without a bound, and when the
    goal is out of reach."""
    grid = GridMap(4, 3, frozenset({Cell(1, 0), Cell(1, 1)}))
    kernel = _GridKernel(grid)
    start, goal, walled = kernel.cid(Cell(0, 0)), kernel.cid(Cell(3, 0)), kernel.cid(Cell(1, 2))
    fields = [
        kernel.dist_to_near(start, goal, FOUR_DIRECTIONS),
        kernel.dist_to_near(start, goal, FOUR_DIRECTIONS, 7),
        kernel.dist_to_near(start, goal, FOUR_DIRECTIONS, 9),
        kernel.dist_to_near(start, goal, FOUR_DIRECTIONS, 6),  # under the distance
        kernel.dist_to_near(start, walled, DirectionSet(frozenset({Direction.UP}))),
    ]
    assert [f[start] for f in fields] == [7, 7, 7, -1, -1]
    for field in fields:
        assert field.typecode == "i" and len(field) == len(kernel.free)
        assert slots_the_collector_visits(field) == []
    assert len(slots_the_collector_visits(kernel.dist_to(goal, FOUR_DIRECTIONS))) == len(kernel.free)


def test_corridor_distance_beyond_sixteen_bits():
    """A 1x40,000 corridor: its goal distance, 39,999, does not fit in a
    16-bit field slot."""
    grid = GridMap(40_000, 1)
    ends = (AgentTask(0, Cell(0, 0), Cell(39_999, 0)),)
    kernel = _GridKernel(grid)
    start, goal = kernel.cid(Cell(0, 0)), kernel.cid(Cell(39_999, 0))
    for bound in (None, 39_999, 40_001):
        field = kernel.dist_to_near(start, goal, FOUR_DIRECTIONS, bound)
        assert field[start] == 39_999 and field[start + 1] == 39_998 and field[goal] == 0
    assert max(kernel.dist_to_near(start, goal, FOUR_DIRECTIONS, 39_998)) < 0
    assert lower_bound_cost(Instance(grid, ends, FOUR_DIRECTIONS)) == 39_999


@settings(max_examples=30, deadline=None)
@given(grids(), st.sampled_from(DIRECTION_SETS))
def test_shortest_dist_field_matches_reference_bfs(grid, dirs):
    # The tests' Cell-keyed field, a BFS over neighbour tables, lists the
    # cells in the order the BFS over cells reaches them.
    for goal in grid.free_cells():
        field = shortest_dist_field(grid, goal, dirs)
        assert list(field.items()) == list(reference_bfs(grid, goal, backward(dirs)).items())


@settings(max_examples=200, deadline=None)
@given(st.one_of(grids(), walled_grids()), st.sampled_from(DIRECTION_SETS), st.data())
def test_lower_bound_cost_is_the_sum_of_full_fields(grid, dirs, data):
    free = list(grid.free_cells())
    k = data.draw(st.integers(1, min(3, len(free))))
    starts = data.draw(st.permutations(free))[:k]
    goals = data.draw(st.permutations(free))[:k]
    inst = Instance(grid, tuple(map(AgentTask, range(k), starts, goals)), dirs)
    lengths = [reference_bfs(grid, g, backward(dirs)).get(s) for s, g in zip(starts, goals)]
    expected = None if None in lengths else sum(lengths)
    assert lower_bound_cost(inst) == expected
