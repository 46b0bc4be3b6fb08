"""Differential tests of the integer grid kernel against a BFS over cells."""

import gc
import itertools
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmapf import core
from gridmapf.core import (
    DOWN_RIGHT,
    FOUR_DIRECTIONS,
    MOTION_DIRECTIONS,
    THREE_DIRECTIONS,
    UP_RIGHT,
    AgentTask,
    Cell,
    Direction,
    DirectionSet,
    GridMap,
    Instance,
    _free_lines,
    _GridKernel,
    _monotone_reach,
    _reach_dist,
    lower_bound_cost,
)
from gridmapf.formula import parse_formula
from gridmapf.oracle import _Compiled
from gridmapf.reduction import LayoutError, _walk, compile_formula, makespan_variant

from kernel_reference import TableKernel, reference_bfs, shortest_dist_field
from test_golden import family_text

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


#: The two orthogonal moves of each sign of the reduction, which the
#: reach sweep takes in place of a BFS.
SIGN_SETS = (DOWN_RIGHT, UP_RIGHT)


def reach_cells(reach, source):
    """Cell -> distance read off a reach from ``source``, for its set bits."""
    cells = (Cell(col, row) for row, bits in enumerate(reach) for col in range(bits.bit_length()))
    return {cell: _reach_dist(reach, source, cell) for cell in cells if reach[cell.row] >> cell.col & 1}


def assert_reach_is_the_bfs_field(grid, rows, source, dirs):
    """The reach from the free ``source`` over ``rows``, which mark the free
    cells of ``grid``, against ``TableKernel``'s BFS on ``grid``: the same
    cells, each at its Manhattan distance, and the BFS meets them by that
    distance, the farther row first among equal ones."""
    table = TableKernel(grid)
    cid = table.cid(source)
    field = table.dist_from(cid, dirs)
    order = list(table.cells(table.reached_from(cid, dirs)))
    got = reach_cells(_monotone_reach(rows, source, Direction.DOWN in dirs), source)
    assert got == {cell: field[table.cid(cell)] for cell in order}
    for (col, row), d in got.items():
        assert d == abs(col - source.col) + abs(row - source.row)
    assert order == sorted(order, key=lambda cell: (got[cell], -abs(cell.row - source.row)))


def assert_fields_match(grid, dirs):
    kernel = _GridKernel(grid)
    rows = _free_lines(grid)
    for cell in grid.free_cells():
        cid = kernel.cid(cell)
        assert as_cells(kernel, kernel.dist_to(cid, dirs)) == reference_bfs(
            grid, cell, backward(dirs)
        )
        reference = reference_bfs(grid, cell, forward(dirs))
        assert as_cells(kernel, kernel.dist_to(cid, reversed_set(dirs))) == reference
        if dirs in SIGN_SETS:
            assert_reach_is_the_bfs_field(grid, rows, cell, dirs)


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
    """A BFS puts a blocked source into its own field at distance 0; the
    reach sweep puts it nowhere, nor a source off the grid.  The reduction
    sweeps from free cells only."""
    grid = border_grid()
    kernel = _GridKernel(grid)
    rows = _free_lines(grid)
    off_grid = [Cell(-1, 0), Cell(grid.width, 0), Cell(0, -1), Cell(0, grid.height)]
    for cell in grid.obstacles:
        assert as_cells(kernel, kernel.dist_to(kernel.cid(cell), dirs)) == {cell: 0}
    if dirs in SIGN_SETS:
        for cell in sorted(grid.obstacles) + off_grid:
            assert _monotone_reach(rows, cell, Direction.DOWN in dirs) == [0] * grid.height


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
@given(grids(), st.sampled_from(SIGN_SETS), st.data())
def test_blocked_ids_act_as_obstacles(grid, dirs, data):
    """Bits cleared in a copy of the rows, as the construction checks clear
    a clause's channels, act as obstacles; the rows copied stay as they were."""
    free = list(grid.free_cells())
    blocked = data.draw(st.sets(st.sampled_from(free)))
    pruned = GridMap(grid.width, grid.height, grid.obstacles | blocked)
    rows = _free_lines(grid)
    cut = rows.copy()
    for col, row in blocked:
        cut[row] &= ~(1 << col)
    assert cut == _free_lines(pruned)
    for start in free:
        reach = _monotone_reach(cut, start, Direction.DOWN in dirs)
        if start in blocked:
            assert not any(reach)
        else:
            assert reach_cells(reach, start) == reference_bfs(pruned, start, forward(dirs))
    assert rows == _free_lines(grid)


@st.composite
def masks_with_a_source(draw):
    """A random 0/1 mask up to 7x7 and a free source in it."""
    width, height = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    free = bytearray(b & 1 for b in draw(st.binary(min_size=width * height, max_size=width * height)))
    source = Cell(draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1)))
    free[source.row * width + source.col] = 1
    return GridMap.from_mask(width, height, free), source


@settings(max_examples=300, deadline=None)
@given(masks_with_a_source(), st.sampled_from(SIGN_SETS), st.data())
def test_monotone_reach_is_the_bfs_field(mask, dirs, data):
    """The reach sweep against ``TableKernel``'s BFS, with and without
    free cells blocked in the rows, as check 6 blocks a clause's channels."""
    grid, source = mask
    others = [cell for cell in grid.free_cells() if cell != source]
    blocked = data.draw(st.sets(st.sampled_from(others))) if others else set()
    rows = _free_lines(grid)
    for col, row in blocked:
        rows[row] &= ~(1 << col)
    pruned = GridMap(grid.width, grid.height, grid.obstacles | blocked)
    assert_reach_is_the_bfs_field(pruned, rows, source, dirs)


@st.composite
def walled_grids(draw):
    """3-6 columns and 5-6 rows, with a wall down one column that is open in
    the top or bottom row only: a path across it detours by up to 2(rows-1)."""
    width, height = draw(st.integers(3, 6)), draw(st.integers(5, 6))
    col = draw(st.integers(1, width - 2))
    gap = draw(st.sampled_from((0, height - 1)))
    return GridMap(width, height, frozenset(Cell(col, r) for r in range(height) if r != gap))


def assert_exact_within_the_bound(kernel, grid, dirs, start, goal, bound, field):
    """``field`` is exact on the cells that a path from ``start`` of at most
    ``bound`` moves (by default, a shortest one) can use, and elsewhere
    negative or no smaller than the true distance; negative everywhere
    without such a path."""
    from_start = reference_bfs(grid, start, forward(dirs))
    to_goal = reference_bfs(grid, goal, backward(dirs))
    d = to_goal.get(start)
    limit = d if bound is None else bound
    if d is None or d > limit:
        assert max(field) < 0
        return
    for cell in grid.free_cells():
        got, true = field[kernel.cid(cell)], to_goal.get(cell)
        if cell in from_start and true is not None and from_start[cell] + true <= limit:
            assert got == true, (cell, bound)
        elif got >= 0:  # a real path, never shorter than the shortest
            assert true is not None and got >= true, (cell, bound)


@settings(max_examples=300, deadline=None)
@given(st.one_of(grids(), walled_grids()), st.sampled_from(DIRECTION_SETS), st.data())
def test_near_goal_fields_are_exact_within_the_bound(grid, dirs, data):
    free = list(grid.free_cells())
    start, goal = data.draw(st.sampled_from(free)), data.draw(st.sampled_from(free))
    d = reference_bfs(grid, goal, backward(dirs)).get(start)
    kernel = _GridKernel(grid)
    for bound in (None, 0, 4) if d is None else (None, d - 1, d, d + 1, d + 3):
        field = kernel.dist_to_near(kernel.cid(start), kernel.cid(goal), dirs, bound)
        assert_exact_within_the_bound(kernel, grid, dirs, start, goal, bound, field)


class CountingSeed(array):
    """The A*'s field seed ``core._UNREACHED``, counting the fields built
    from it: one per A* run of ``dist_to_near``."""

    def __new__(cls):
        seed = super().__new__(cls, "i", [-2])
        seed.runs = 0
        return seed

    def __mul__(self, n):
        self.runs += 1
        return array("i", self) * n


def goalward(start, goal):
    """The moves that bring ``start`` one step nearer to ``goal``: at most
    one horizontal and one vertical."""
    return DirectionSet(frozenset(
        m for m in MOTION_DIRECTIONS
        if m.dcol * (goal.col - start.col) > 0 or m.drow * (goal.row - start.row) > 0
    ))


def descent_cells(grid, start, goal):
    """The cells of the start-goal box that reach ``goal`` by its goalward
    moves, each at its distance, off ``TableKernel``'s BFS."""
    table = TableKernel(grid)
    field = table.dist_to(table.cid(goal), goalward(start, goal))
    cols = range(min(start.col, goal.col), max(start.col, goal.col) + 1)
    rows = range(min(start.row, goal.row), max(start.row, goal.row) + 1)
    box = (Cell(c, r) for r in rows for c in cols)
    return {cell: field[table.cid(cell)] for cell in box if field[table.cid(cell)] >= 0}


def a_star_runs(grid, dirs, agent, bound):
    """1 where ``dist_to_near`` must run its A* for ``agent``: a bound other
    than None or the Manhattan distance, or no bound and a start that does
    not reach the goal by goalward moves of ``dirs``."""
    start, goal = agent.start, agent.goal
    if bound is not None:
        return int(bound != abs(goal.col - start.col) + abs(goal.row - start.row))
    swept = goalward(start, goal).moves <= dirs.moves and start in descent_cells(grid, start, goal)
    return int(not swept)


@st.composite
def masks_with_two_ends(draw):
    """A random 0/1 mask up to 7x7 with a free start and a free goal in a
    drawn quadrant from it, or on the quadrant's edge where they share a
    column or a row."""
    width, height = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    free = bytearray(b & 1 for b in draw(st.binary(min_size=width * height, max_size=width * height)))
    right, down = draw(st.booleans()), draw(st.booleans())
    cols = sorted((draw(st.integers(0, width - 1)), draw(st.integers(0, width - 1))), reverse=not right)
    rows = sorted((draw(st.integers(0, height - 1)), draw(st.integers(0, height - 1))), reverse=not down)
    start, goal = Cell(cols[0], rows[0]), Cell(cols[1], rows[1])
    for col, row in (start, goal):
        free[row * width + col] = 1
    return GridMap.from_mask(width, height, free), start, goal


@settings(max_examples=400, deadline=None)
@given(masks_with_two_ends(), st.sampled_from(DIRECTION_SETS))
def test_descent_fields_are_the_two_move_reach(ends, dirs):
    """Where the goal lies in the start's reach by its two goalward moves and
    the bound is None or the Manhattan distance d, the field is the box cells
    that reach the goal by those moves, each at its Manhattan distance.
    Every other field keeps the contract of
    ``test_near_goal_fields_are_exact_within_the_bound``.  The A* runs only
    at a bound other than d, or at None where the sweep does not answer."""
    grid, start, goal = ends
    d = abs(goal.col - start.col) + abs(goal.row - start.row)
    descent = descent_cells(grid, start, goal)
    for (col, row), dist in descent.items():
        assert dist == abs(goal.col - col) + abs(goal.row - row)
    swept = goalward(start, goal).moves <= dirs.moves and start in descent
    kernel = _GridKernel(grid)
    for bound in (None, d - 1, d, d + 1):
        with mock.patch.object(core, "_UNREACHED", CountingSeed()) as seed:
            field = kernel.dist_to_near(kernel.cid(start), kernel.cid(goal), dirs, bound)
        if swept and bound in (None, d):
            assert as_cells(kernel, field) == descent
        else:
            assert_exact_within_the_bound(kernel, grid, dirs, start, goal, bound, field)
        assert seed.runs == a_star_runs(grid, dirs, AgentTask(0, start, goal), bound)


def test_compiled_family_fields_run_no_bfs():
    """On the n=8 family's base and makespan variant every agent's goal lies
    in the reach of its sign's two moves, so ``_Compiled``'s goal fields run
    neither the A* nor ``core._bfs``: a work count that does not depend on
    the machine.  The fields agree with the full fields at every start."""
    base, meta = compile_formula(parse_formula(family_text(8, False)))
    variant, variant_meta = makespan_variant(base, meta)
    d = variant_meta.common_distance
    with mock.patch.object(core, "_bfs", wraps=core._bfs) as bfs:
        with mock.patch.object(core, "_UNREACHED", CountingSeed()) as seed:
            compiled = [_Compiled(base), _Compiled(variant, bound=d)]
    assert (bfs.call_count, seed.runs) == (0, 0)
    assert compiled[0].lengths == _Compiled(base, full=True).lengths
    assert compiled[1].lengths == [d] * variant.num_agents


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_detours_still_reach_the_a_star(data):
    """On ``test_bounded_fields``'s walled instances, whose first agent may
    have to go round a wall, ``_Compiled`` runs the A* for exactly the
    agents that the sweep cannot answer, at every bound the tests there use."""
    from test_bounded_fields import walled_instances  # which imports this module

    inst = data.draw(walled_instances())
    lengths = [abs(a.goal.col - a.start.col) + abs(a.goal.row - a.start.row) for a in inst.agents]
    for bound in (None, *sorted(set(lengths)), max(lengths) + 1):
        with mock.patch.object(core, "_UNREACHED", CountingSeed()) as seed:
            _Compiled(inst, bound=bound)
        assert seed.runs == sum(a_star_runs(inst.grid, inst.directions, a, bound) for a in inst.agents)


def test_a_wall_sends_the_field_to_the_a_star():
    """Behind a wall open in the top row only, the goal two columns right of
    the start is 8 moves away: without a bound the sweep misses the start
    and the A* and the reverse BFS run; at the Manhattan distance 2 the field
    is negative with neither; at 8 the A* runs again."""
    grid = GridMap(5, 5, frozenset(Cell(2, r) for r in range(1, 5)))
    kernel = _GridKernel(grid)
    start, goal = kernel.cid(Cell(1, 3)), kernel.cid(Cell(3, 3))
    for bound, runs, got in ((None, 1, 8), (2, 0, -1), (8, 1, 8)):
        with mock.patch.object(core, "_bfs", wraps=core._bfs) as bfs:
            with mock.patch.object(core, "_UNREACHED", CountingSeed()) as seed:
                field = kernel.dist_to_near(start, goal, THREE_DIRECTIONS, bound)
        assert (seed.runs, bfs.call_count, field[start]) == (runs, runs, got)


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
