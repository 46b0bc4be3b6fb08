"""Domain model for grid-based multi-agent path finding.

Cells, grids, agents, timed paths, conflict detection, and the two cost
objectives (flowtime and makespan).  Everything here is immutable after
construction and all operations are pure functions, so instances can be
shared freely between threads and tests.

Coordinate convention: ``col`` grows rightward, ``row`` grows downward,
origin at the top-left.  "Up" therefore means ``row - 1``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import compress
from operator import ne, sub
from typing import Hashable, Iterable, Iterator, Mapping, MutableSequence, NamedTuple, Optional, Sequence


class Cell(NamedTuple):
    """A grid cell, addressed by (col, row)."""

    col: int
    row: int


class Direction(Enum):
    """One agent action per time step: four moves plus an explicit wait."""

    UP = (0, -1)
    DOWN = (0, 1)
    LEFT = (-1, 0)
    RIGHT = (1, 0)
    WAIT = (0, 0)

    @property
    def dcol(self) -> int:
        return self.value[0]

    @property
    def drow(self) -> int:
        return self.value[1]

    @property
    def letter(self) -> str:
        return self.name[0]

    def apply(self, cell: Cell) -> Cell:
        return Cell(cell.col + self.value[0], cell.row + self.value[1])


#: Motion directions in the canonical tie-break order used everywhere.
MOTION_DIRECTIONS: tuple[Direction, ...] = (
    Direction.UP,
    Direction.DOWN,
    Direction.LEFT,
    Direction.RIGHT,
)

_LETTER_TO_DIRECTION = {d.letter: d for d in Direction}


@dataclass(frozen=True)
class DirectionSet:
    """The motion directions an instance permits, plus whether waiting is legal."""

    moves: frozenset[Direction]
    waits_allowed: bool = True

    def __post_init__(self) -> None:
        if Direction.WAIT in self.moves:
            raise ValueError("WAIT is controlled by waits_allowed, not by moves")

    @classmethod
    def from_letters(cls, letters: str, waits_allowed: bool = True) -> "DirectionSet":
        moves = set()
        for ch in letters:
            d = _LETTER_TO_DIRECTION.get(ch.upper())
            if d is None or d is Direction.WAIT:
                raise ValueError(f"unknown direction letter {ch!r}")
            moves.add(d)
        return cls(frozenset(moves), waits_allowed)

    @property
    def letters(self) -> str:
        return "".join(d.letter for d in MOTION_DIRECTIONS if d in self.moves)

    def ordered(self) -> tuple[Direction, ...]:
        """Member directions in canonical order."""
        return tuple(d for d in MOTION_DIRECTIONS if d in self.moves)

    @cached_property
    def _steps(self) -> tuple[tuple[int, int], ...]:
        """(dcol, drow) of ``ordered()``, computed once: Enum access is slow."""
        return tuple((d.dcol, d.drow) for d in self.ordered())

    def __contains__(self, d: Direction) -> bool:
        return d in self.moves


DOWN_RIGHT = DirectionSet(frozenset({Direction.DOWN, Direction.RIGHT}))
UP_RIGHT = DirectionSet(frozenset({Direction.UP, Direction.RIGHT}))
THREE_DIRECTIONS = DirectionSet(
    frozenset({Direction.UP, Direction.DOWN, Direction.RIGHT})
)
FOUR_DIRECTIONS = DirectionSet(frozenset(MOTION_DIRECTIONS))


@dataclass(frozen=True, init=False)
class GridMap:
    """A rectangular grid with obstacle cells removed.

    Stored as one row-major free mask: ``free[row * width + col]`` is 1 for
    a free cell and 0 for an obstacle.  Grids are equal when their sizes and
    masks are.  ``obstacles`` is derived from the mask on first access.
    """

    width: int
    height: int
    free: bytes = field(init=False, repr=False)

    def _derive_obstacles(self) -> frozenset[Cell]:
        w = self.width
        return frozenset(Cell(i % w, i // w) for i, f in enumerate(self.free) if not f)

    # A field, so that dataclasses.replace carries it over; a cached_property
    # (not __getattr__, which would slow every attribute read), so that it is
    # built on first access only.
    obstacles: frozenset[Cell] = field(
        default=cached_property(_derive_obstacles), compare=False, repr=False
    )

    def __init__(self, width: int, height: int, obstacles: Iterable[Cell] = frozenset()) -> None:
        _check_size(width, height)
        free = bytearray(b"\x01") * (width * height)
        for cell in obstacles:
            col, row = cell
            if not (0 <= col < width and 0 <= row < height):
                raise ValueError(f"obstacle {cell} outside {width}x{height} grid")
            free[row * width + col] = 0
        self._store(width, height, bytes(free))

    @classmethod
    def from_mask(cls, width: int, height: int, free: bytes | bytearray) -> "GridMap":
        """The grid whose row-major free mask is ``free`` (1 free, 0 obstacle)."""
        _check_size(width, height)
        free = bytes(free)
        if len(free) != width * height:
            raise ValueError(f"free mask has {len(free)} cells, expected {width}x{height}")
        if free.translate(None, b"\x00\x01"):
            raise ValueError("free mask bytes must be 0 or 1")
        grid = cls.__new__(cls)
        grid._store(width, height, free)
        return grid

    def _store(self, width: int, height: int, free: bytes) -> None:
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "free", free)

    @cached_property
    def _framed(self) -> bytes:
        """The free mask over the kernel's framed ids (see ``_GridKernel``),
        built on first use and kept with the grid: the kernels, the
        validator and the solution reader of one grid share it."""
        return _framed_mask(self, -1, 0, self.width + 1, self.height)

    def in_bounds(self, cell: Cell) -> bool:
        return 0 <= cell.col < self.width and 0 <= cell.row < self.height

    def is_free(self, cell: Cell) -> bool:
        col, row = cell  # in_bounds inlined
        w = self.width
        return 0 <= col < w and 0 <= row < self.height and self.free[row * w + col] == 1

    @property
    def free_count(self) -> int:
        return self.free.count(1)

    def free_cells(self) -> Iterator[Cell]:
        w = self.width
        for i, f in enumerate(self.free):
            if f:
                yield Cell(i % w, i // w)


def _check_size(width: int, height: int) -> None:
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be positive")


@dataclass(frozen=True)
class AgentTask:
    """One agent's assignment: start cell, goal cell, optional team label."""

    id: int
    start: Cell
    goal: Cell
    team: Optional[str] = None


@dataclass(frozen=True, eq=False)
class Instance:
    """A MAPF problem: grid, agents, allowed directions, optional team targets.

    In team (colored) mode ``teams`` maps each team label to its target set;
    any member of the team may end on any of the team's targets.  Agents keep
    their labeled ``goal`` fields, which double as the canonical assignment.
    """

    grid: GridMap
    agents: tuple[AgentTask, ...]
    directions: DirectionSet
    teams: Optional[Mapping[str, frozenset[Cell]]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "agents", tuple(self.agents))
        starts = [a.start for a in self.agents]
        goals = [a.goal for a in self.agents]
        for a in self.agents:
            if not self.grid.is_free(a.start):
                raise ValueError(f"agent {a.id}: start {a.start} is not a free cell")
            if not self.grid.is_free(a.goal):
                raise ValueError(f"agent {a.id}: goal {a.goal} is not a free cell")
        if len(set(starts)) != len(starts):
            raise ValueError("agent starts must be pairwise distinct")
        if len(set(goals)) != len(goals):
            raise ValueError("agent goals must be pairwise distinct")
        ids = [a.id for a in self.agents]
        if len(set(ids)) != len(ids):
            raise ValueError("agent ids must be unique")
        if self.teams is not None:
            sizes: dict[str, int] = {}
            for a in self.agents:
                if a.team is None:
                    raise ValueError(f"agent {a.id} has no team in a colored instance")
                if a.team not in self.teams:
                    raise ValueError(f"agent {a.id}: unknown team {a.team!r}")
                sizes[a.team] = sizes.get(a.team, 0) + 1
            for team, targets in self.teams.items():
                if sizes.get(team, 0) != len(targets):
                    raise ValueError(
                        f"team {team!r}: {len(targets)} targets for {sizes.get(team, 0)} agents"
                    )
                for cell in targets:
                    if not self.grid.is_free(cell):
                        raise ValueError(f"team {team!r}: target {cell} is not free")

    @property
    def num_agents(self) -> int:
        return len(self.agents)


class TimedPath:
    """A timed path: ``cells[t]`` is the agent's cell at step ``t``.

    The sequence ends the first time the agent reaches its final cell and
    rests there forever; the agent implicitly stays at ``cells[-1]`` for all
    later times.  ``cost`` is that arrival index.

    A path is built from its cells, or by ``_from_ids`` from the framed ids
    ``(row + 1) * stride + col`` of its cells (see ``_GridKernel``), as the
    down+right planner, the solution reader and the oracles' witnesses
    build theirs.  The validator and the solution writer read those ids
    through ``_solution_ids``; ``cells`` is built from them on first read
    only, and replaces them, so a path never holds both.  ``cost``,
    ``start``, ``end`` and ``at`` do not build it.  Paths compare and hash
    by their cells, whichever way they were built.
    """

    __slots__ = ("_cells", "_ids", "_stride")

    def __init__(self, cells: Sequence[Cell]) -> None:
        cells = tuple(cells)
        if not cells:
            raise ValueError("a timed path needs at least one cell")
        if len(cells) > 1 and cells[-1] == cells[-2]:
            raise ValueError("timed path must be normalized (no trailing rest steps)")
        self._cells: Optional[tuple[Cell, ...]] = cells
        self._ids: Optional[tuple[int, ...]] = None
        self._stride = 0

    @classmethod
    def from_cells(cls, cells: Sequence[Cell]) -> "TimedPath":
        """Build a path, trimming any trailing waits at the final cell."""
        cells = list(cells)
        while len(cells) > 1 and cells[-1] == cells[-2]:
            cells.pop()
        return cls(tuple(cells))

    @classmethod
    def _from_ids(cls, ids: Iterable[int], stride: int) -> "TimedPath":
        """The path through the cells of framed ids ``(row + 1) * stride +
        col``, trimming any trailing waits.  Each id must name a cell in
        columns ``0 .. stride - 2`` and rows from -1 on, so that it is not
        negative and no frame column makes a jump look like a move."""
        ids = tuple(ids)
        if not ids:
            raise ValueError("a timed path needs at least one cell")
        end = len(ids)
        while end > 1 and ids[end - 1] == ids[end - 2]:
            end -= 1
        path = cls.__new__(cls)
        path._cells, path._ids, path._stride = None, ids[:end], stride
        return path

    # A read of ``cells`` sets ``_cells`` before it drops ``_ids``, so code
    # that reads ``_ids`` once, and ``_cells`` when that was None, stays
    # right while another thread builds the cells.

    @property
    def cells(self) -> tuple[Cell, ...]:
        cells = self._cells
        if cells is None:
            ids = self._ids
            if ids is None:  # built meanwhile
                return self._cells
            self._cells = cells = tuple(_id_cells(ids, self._stride))
            self._ids = None  # one form held at a time
        return cells

    def _cell(self, t: int) -> Cell:
        ids = self._ids
        if ids is None:
            return self._cells[t]
        cid, s = ids[t], self._stride
        return Cell(cid % s, cid // s - 1)

    @property
    def cost(self) -> int:
        ids = self._ids
        return len(self._cells if ids is None else ids) - 1

    @property
    def start(self) -> Cell:
        return self._cell(0)

    @property
    def end(self) -> Cell:
        return self._cell(-1)

    def at(self, t: int) -> Cell:
        """Position at time ``t`` with stay-at-target padding."""
        return self._cell(t) if t <= self.cost else self._cell(-1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimedPath):
            return NotImplemented
        mine, theirs = self._ids, other._ids
        if mine is not None and theirs is not None and self._stride == other._stride:
            return mine == theirs
        return self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)

    def __repr__(self) -> str:
        return f"TimedPath(cells={self.cells!r})"


@dataclass(frozen=True)
class Solution:
    """One timed path per agent, in instance agent order."""

    paths: tuple[TimedPath, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "paths", tuple(self.paths))

    def flowtime(self) -> int:
        return sum(p.cost for p in self.paths)

    def makespan(self) -> int:
        return max((p.cost for p in self.paths), default=0)


@dataclass(frozen=True)
class ConflictModel:
    """Which interaction types count as conflicts.

    Vertex and edge conflicts are always forbidden in the default model;
    following and cycle conflicts are opt-in.
    """

    forbid_vertex: bool = True
    forbid_edge: bool = True
    forbid_following: bool = False
    forbid_cycle: bool = False

    def forbids_subset_of(self, other: "ConflictModel") -> bool:
        """True if every conflict kind this model forbids, ``other`` forbids too."""
        return (
            (not self.forbid_vertex or other.forbid_vertex)
            and (not self.forbid_edge or other.forbid_edge)
            and (not self.forbid_following or other.forbid_following)
            and (not self.forbid_cycle or other.forbid_cycle)
        )


VERTEX_EDGE = ConflictModel()
ALL_CONFLICTS = ConflictModel(forbid_following=True, forbid_cycle=True)


class Conflict(NamedTuple):
    time: int
    kind: str  # vertex | edge | following | cycle | illegal-step
    agents: tuple[int, ...]
    cells: tuple[Cell, ...]


@dataclass(frozen=True)
class ConflictReport:
    conflicts: tuple[Conflict, ...]

    @property
    def ok(self) -> bool:
        return not self.conflicts

    def kinds(self) -> set[str]:
        return {c.kind for c in self.conflicts}


def _id_cells(ids: Iterable[int], stride: int) -> Iterator[Cell]:
    """The cells of framed ids ``(row + 1) * stride + col``, built without
    ``Cell.__new__``'s Python frame; lazily, so a scan over many ids holds
    one cell at a time.  Any stride larger than the highest column works."""
    new = tuple.__new__
    return (new(Cell, (cid % stride, cid // stride - 1)) for cid in ids)


def _framed_mask(grid: GridMap, top: int, left: int, stride: int, bottom: int) -> bytes:
    """The free mask over the framed ids ``(row - top) * stride + col -
    left`` of rows ``top .. bottom`` and columns ``left .. left + stride -
    1``: 1 on a free grid cell, 0 elsewhere.  The frame must hold the grid
    and a blocked row above and below it, and close each row with a blocked
    column: ``top < 0``, ``left <= 0``, ``bottom >= height`` and ``left +
    stride > width``."""
    w, h, mask = grid.width, grid.height, grid.free
    # the blocked cells right of one grid row and left of the next
    rows = bytes(stride - w).join([mask[r * w : (r + 1) * w] for r in range(h)])
    return bytes(-top * stride - left) + rows + bytes((bottom - h + 2) * stride + left - w)


class _GridKernel:
    """A grid lowered to framed cell ids, ``(row + 1) * stride + col``.

    The stride is ``width + 1``: a blocked column closes each row, and a
    blocked row lies above the grid and another below it, so each move is
    a fixed id offset (``steps``) that needs no bounds check and never
    wraps into the next row.  Ids grow with (row, col).  Holds the free
    mask over the framed ids (``GridMap._framed``, kept with the grid)
    and goal fields over them, move counts of a reverse BFS, negative
    where unreached.  Fields are memoized, shared with callers, who must
    not mutate them, and dropped with the kernel, which lives for one
    public call only, so no field stays resident between calls.  The
    memoized fields are lists, read many times per cell; the bounded
    fields of ``dist_to_near`` are ``array('i')``.  Fields under two
    orthogonal moves need no BFS: see ``_monotone_reach``.
    """

    def __init__(self, grid: GridMap) -> None:
        w, h = grid.width, grid.height
        self.width, self.height, self.stride = w, h, w + 1
        self.free = grid._framed
        self._steps: dict[tuple[frozenset[Direction], bool], tuple[int, ...]] = {}
        self._fields: dict[tuple[frozenset[Direction], int], list[int]] = {}

    def cid(self, cell: Cell) -> int:
        return (cell.row + 1) * self.stride + cell.col

    def cells(self, ids: Iterable[int]) -> Iterator[Cell]:
        return _id_cells(ids, self.stride)

    def at(self, field: list[int], cell: Cell) -> Optional[int]:
        """The field's value at ``cell``; None off the grid or where unreached."""
        if not (0 <= cell.col < self.width and 0 <= cell.row < self.height):
            return None
        d = field[(cell.row + 1) * self.stride + cell.col]
        return d if d >= 0 else None

    def steps(self, dirs: DirectionSet, reverse: bool = False) -> tuple[int, ...]:
        """The id offset of each move in ``dirs`` (or, with ``reverse``, of
        each move back), in canonical direction order; memoized, since on
        small grids building them costs as much as a BFS."""
        key = (dirs.moves, reverse)
        got = self._steps.get(key)
        if got is None:
            sign, s = -1 if reverse else 1, self.stride
            got = self._steps[key] = tuple([sign * (dr * s + dc) for dc, dr in dirs._steps])
        return got

    def dist_to(self, goal: int, dirs: DirectionSet) -> list[int]:
        """Move count from every cell to ``goal`` under ``dirs``."""
        key = (dirs.moves, goal)
        dist = self._fields.get(key)
        if dist is None:
            dist = self._fields[key] = [-1] * len(self.free)
            _bfs(self.free, self.steps(dirs, True), goal, dist)
        return dist

    def dist_to_near(
        self, start: int, goal: int, dirs: DirectionSet, bound: Optional[int] = None
    ) -> array[int]:
        """``dist_to(goal)``, exact on the cells that a path from ``start`` of at
        most ``bound`` moves (by default, a shortest one) can use, elsewhere
        negative or above it, and negative everywhere without such a path: an
        A* under the Manhattan distance closes those cells, then a reverse BFS
        from ``goal`` runs on the cells it reached.  Not memoized.  The field
        is a new ``array('i')``: it is grid-sized and still young when a
        search starts allocating, and the cyclic garbage collector would
        walk a list's slots in each gen-0 and gen-1 collection; an array
        references no objects, so it walks none of them."""
        free, s = self.free, self.stride
        steps = self.steps(dirs)
        gcol, grow = goal % s, goal // s
        dist = _UNREACHED * len(free)  # g once reached, -1 once closed
        dist[start] = 0
        f = abs(start % s - gcol) + abs(start // s - grow)
        # A move changes f by 0 or 2, so one list per f-layer replaces a heap.
        layer, later = [start], []
        while layer and (bound is None or f <= bound):
            for cid in layer:
                g = dist[cid]
                if g < 0:
                    continue  # reached again in a lower layer and closed there
                dist[cid] = -1
                if cid == goal and bound is None:
                    bound = f
                h, g = f - g, g + 1
                for off in steps:
                    nxt = cid + off
                    if free[nxt] and (dist[nxt] == -2 or dist[nxt] > g):
                        dist[nxt] = g
                        nearer = abs(nxt % s - gcol) + abs(nxt // s - grow) < h
                        (layer if nearer else later).append(nxt)
            layer, later, f = later, [], f + 2
        if dist[goal] != -1:
            return _UNSOLVED * len(dist)
        for cid in layer:  # reached, not closed: searched backwards all the same
            dist[cid] = -1
        _bfs(free, self.steps(dirs, True), goal, dist)
        return dist


# One-slot seeds of the bounded fields: repeating a seed builds a field
# faster than ``array("i", [-2]) * n`` would, which first builds a list.
_UNREACHED = array("i", [-2])
_UNSOLVED = array("i", [-1])


def _bfs(free: bytes, steps: tuple[int, ...], source: int, dist: MutableSequence[int]) -> list[int]:
    """Breadth-first search from ``source`` over the framed ids that ``free``
    marks, one ``steps`` offset per move, writing move counts into the
    entries of ``dist`` that hold -1; returns the ids reached in order.  A
    blocked source reaches nothing but itself."""
    dist[source] = 0
    order = [source]
    if not free[source]:
        return order
    for cur in order:
        d = dist[cur] + 1
        for off in steps:
            nxt = cur + off
            if dist[nxt] == -1 and free[nxt]:
                dist[nxt] = d
                order.append(nxt)
    return order


# Translates a 0/1 free mask into binary digits.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _free_rows(grid: GridMap) -> list[int]:
    """Each grid row as an int whose bit ``c`` is set where column ``c`` is free."""
    w, free = grid.width, grid.free
    return [int(free[r * w : (r + 1) * w][::-1].translate(_DIGITS), 2) for r in range(grid.height)]


def _monotone_reach(rows: Sequence[int], source: Cell, down: bool) -> list[int]:
    """The cells that ``source`` reaches by down and right moves (``down``)
    or by up and right moves over the cells that ``rows`` marks (bit ``c``
    of ``rows[r]`` for the cell (c, r)), as rows of the same form; a
    blocked or off-grid source reaches nothing.  A route of two orthogonal
    moves is as long as the Manhattan distance between its ends, so
    ``_reach_dist`` reads distances off the set.  One step per row, from
    the source's row on: ``seeds`` are the row's cells entered from the row
    before, and ``m + seeds`` carries each through its run of free cells
    toward higher columns (Myers, J. ACM 46(3), 1999)."""
    reach = [0] * len(rows)
    col, row = source
    if col < 0 or not 0 <= row < len(rows):
        return reach
    seeds = 1 << col
    for r in range(row, len(rows)) if down else range(row, -1, -1):
        m = rows[r]
        seeds &= m
        if not seeds:
            break
        reach[r] = seeds = m & ~(m + seeds) | seeds
    return reach


def _reach_dist(reach: Sequence[int], source: Cell, cell: Cell) -> Optional[int]:
    """Moves from ``source`` to ``cell``, off the reach from ``source``: None where unreached."""
    col, row = cell
    if col >= 0 and 0 <= row < len(reach) and reach[row] >> col & 1:
        return abs(row - source.row) + col - source.col
    return None


def _team_assignment_ok(instance: Instance, solution: Solution) -> Optional[str]:
    """Check that paths end on a bijection of each team's targets."""
    assert instance.teams is not None
    used: dict[str, set[Cell]] = {team: set() for team in instance.teams}
    for agent, path in zip(instance.agents, solution.paths):
        targets = instance.teams[agent.team]
        if path.end not in targets:
            return f"agent {agent.id} ends at {path.end}, not a team {agent.team!r} target"
        if path.end in used[agent.team]:
            return f"target {path.end} of team {agent.team!r} used twice"
        used[agent.team].add(path.end)
    return None


def _rotations(prev: Sequence[Hashable], here: Sequence[Hashable]) -> list[tuple]:
    """The agents that rotate in the step from cells ``prev`` to cells ``here``.

    A rotation is a directed cycle of the movers' cell graph, which has one
    edge ``prev[i] -> here[i]`` per mover, so a cell that several agents
    leave stands for each of them.  One (members, cells) entry per strongly
    connected component with a cycle, by lowest member: its movers on cycles
    ascending, and its cells in depth-first preorder from the cell its lowest
    member leaves, taking each cell's movers in index order.  With distinct
    ``prev`` cells this walks a simple cycle in the direction of motion.
    """
    leaving: dict[Hashable, list[int]] = {}  # cell -> movers leaving it, ascending
    for i, cell in enumerate(prev):
        if here[i] != cell:
            leaving.setdefault(cell, []).append(i)
    # The cells of a cycle, at least two, are each entered and left by movers.
    inner = {here[i] for movers in leaving.values() for i in movers if here[i] in leaving}
    # A cell that no inner cell enters is on no cycle.  Peel such cells in
    # one linear pass, Kahn-style, counting each cell's entering edges within
    # ``inner``: nothing is left of a chain of movers in a line.
    ins = dict.fromkeys(inner, 0)
    for c in inner:
        for i in leaving[c]:
            if here[i] in ins:
                ins[here[i]] += 1
    todo = [c for c, n in ins.items() if not n]
    while todo:
        cell = todo.pop()
        inner.discard(cell)
        for i in leaving[cell]:
            if here[i] in inner:
                ins[here[i]] -= 1
                if not ins[here[i]]:
                    todo.append(here[i])
    if len(inner) < 2:
        return []
    # Tarjan's algorithm over those cells, in linear time.  A cell's number
    # is its place on the stack of open cells, and ``low`` the least number
    # of an open cell it reaches; closed cells get len(prev).
    num: dict[Hashable, int] = {}
    low: dict[Hashable, int] = {}
    opened, groups = [], []
    for root in inner:
        path = [] if root in num else [(root, iter(leaving[root]))]
        while path:
            cell, movers = path[-1]
            if cell not in num:
                num[cell] = low[cell] = len(opened)
                opened.append(cell)
            for i in movers:
                if here[i] in inner and here[i] not in num:
                    path.append((here[i], iter(leaving[here[i]])))
                    break
                low[cell] = min(low[cell], low.get(here[i], low[cell]))
            else:
                path.pop()
                if path:
                    low[path[-1][0]] = min(low[path[-1][0]], low[cell])
                if low[cell] == num[cell]:
                    part = set(opened[num[cell] :])
                    del opened[num[cell] :]
                    low.update(dict.fromkeys(part, len(prev)))
                    groups.append(sorted(i for c in part for i in leaving[c] if here[i] in part))
    out = []
    for members in sorted(filter(None, groups)):  # components with a cycle
        inside, cells, todo = set(members), {}, [prev[members[0]]]
        while todo:
            cell = todo.pop()
            if cell not in cells:
                cells[cell] = None
                todo.extend(here[i] for i in reversed(leaving[cell]) if i in inside)
        out.append((tuple(members), tuple(cells)))
    return out


def _solution_ids(
    grid: GridMap, paths: Sequence[TimedPath]
) -> tuple[list[Sequence[int]], int, int, int, bytes]:
    """The paths as framed ids ``(row - top) * stride + col - left`` in one
    frame that holds every cell they name, with that frame's free mask:
    (ids per path, stride, top, left, mask).  The validator and the
    solution writer read paths through this lowering only.

    Mostly that is the kernel's frame (top -1, left 0, stride ``width +
    1``): an id-built path of that stride keeps its ids, and a path built
    from cells is lowered once, after a bounds check.  Framed ids alias
    cells off the grid (on a width-1 grid ``Cell(2, 0)`` and ``Cell(0, 1)``
    both get id 4), so when a path holds a cell left or right of the grid,
    or more than one row above or below it, every path is lowered into a
    frame that spans all their cells and still closes each row with a
    blocked column.
    """
    w, h = grid.width, grid.height
    s = w + 1
    out: list[Sequence[int]] = []
    for path in paths:
        ids = path._ids
        if ids is None or path._stride != s:
            cols, rows = zip(*path.cells)
            if not (0 <= min(cols) and max(cols) < w and -1 <= min(rows) and max(rows) <= h):
                break
            ids = [(row + 1) * s + col for col, row in path.cells]
        out.append(ids)
    else:
        return out, s, -1, 0, grid._framed
    cells = [path.cells for path in paths]
    cols = [col for path in cells for col, _ in path]
    rows = [row for path in cells for _, row in path]
    top, left = min(-1, *rows), min(0, *cols)
    s = max(w - 1, *cols) - left + 2
    ids = [[(row - top) * s + col - left for col, row in path] for path in cells]
    return ids, s, top, left, _framed_mask(grid, top, left, s, max(h, *rows))


def validate_solution(
    instance: Instance,
    solution: Solution,
    model: ConflictModel = VERTEX_EDGE,
) -> ConflictReport:
    """Scan a solution for conflicts and malformed steps.

    Paths are padded at their final cell forever after arrival, so a parked
    agent keeps participating in vertex conflicts.  Raises ``ValueError`` on
    structural mismatch (wrong path count, wrong start, wrong goal); every
    other defect is reported as a conflict entry.  The checks run on framed
    cell ids (``_solution_ids``); a ``Cell`` is built only for a conflict.
    """
    if len(solution.paths) != instance.num_agents:
        raise ValueError(
            f"solution has {len(solution.paths)} paths for {instance.num_agents} agents"
        )
    paths, s, top, left, free = _solution_ids(instance.grid, solution.paths)

    def cell(cid: int) -> Cell:
        return Cell(cid % s + left, cid // s + top)

    for agent, path in zip(instance.agents, paths):
        if path[0] != (agent.start.row - top) * s + agent.start.col - left:
            raise ValueError(f"agent {agent.id}: path starts at {cell(path[0])}, not {agent.start}")
    if instance.teams is None:
        for agent, path in zip(instance.agents, paths):
            if path[-1] != (agent.goal.row - top) * s + agent.goal.col - left:
                raise ValueError(f"agent {agent.id}: path ends at {cell(path[-1])}, not {agent.goal}")
    else:
        problem = _team_assignment_ok(instance, solution)
        if problem is not None:
            raise ValueError(problem)

    conflicts: list[Conflict] = []
    ids = [a.id for a in instance.agents]
    n = len(paths)

    # Malformed single-agent steps.  An id-built path made on a taller grid
    # may hold ids past the mask's end, which are not free either.
    dirs = instance.directions
    allowed = {dr * s + dc for dc, dr in dirs._steps}
    if dirs.waits_allowed:
        allowed.add(0)
    for aid, path in zip(ids, paths):
        try:
            clean = all(map(free.__getitem__, path))
        except IndexError:
            clean = False
        if not clean:
            for t, c in enumerate(path):
                if c >= len(free) or not free[c]:
                    conflicts.append(Conflict(t, "illegal-step", (aid,), (cell(c),)))
        if not allowed.issuperset(map(sub, path[1:], path)):
            for t in range(1, len(path)):
                a, b = path[t - 1], path[t]
                if b - a not in allowed:
                    pair = (cell(a),) if a == b else (cell(a), cell(b))
                    conflicts.append(Conflict(t, "illegal-step", (aid,), pair))

    # Interactions, time step by time step.  An agent whose path has ended
    # is parked on its end cell, where only a vertex conflict can meet it, so
    # each step scans the agents still moving, longest path first, against
    # the parked end cells.  The rule below runs, over all agents in instance
    # order, only where the scan sees a vertex hit, a swap or, under the
    # following or cycle rule, a mover entering a cell that a mover left.
    # Cells are ids here: distinct cells have distinct ids in the frame.
    entering = model.forbid_following or model.forbid_cycle
    moving = sorted(paths, key=len, reverse=True)
    parked: set[int] = set()
    occupied: set[int] = set()  # the cells of the agents moving at t - 1
    now = [c[0] for c in moving]
    for t in range(len(moving[0]) if n else 0):
        while len(moving[-1]) <= t:
            parked.add(moving.pop()[-1])
        m = len(moving)
        was, now, last = now[:m], [c[t] for c in moving], occupied
        occupied = set(now)
        # parked end cells collide only where two teams share a target
        hit = model.forbid_vertex and (
            len(occupied) < m or len(parked) < n - m or not occupied.isdisjoint(parked)
        )
        # A swap or a move into a cell that a mover left needs a cell held
        # at both t - 1 and t.
        if not hit and (entering or model.forbid_edge) and not occupied.isdisjoint(last):
            if entering:
                movers = list(map(ne, was, now))
                hit = not set(compress(was, movers)).isdisjoint(compress(now, movers))
            else:  # a swap, or a wait, which matches itself
                back = set(zip(now, was)).intersection(zip(was, now))
                hit = any(a != b for a, b in back)
        if not hit:
            continue
        # Edge and following conflicts pair two movers, so each mover's new
        # cell is looked up among the cells that movers leave; several can
        # leave one cell after a vertex conflict.
        prev = [c[t - 1] if t <= len(c) else c[-1] for c in paths]
        here = [c[t] if t < len(c) else c[-1] for c in paths]
        if model.forbid_vertex and len(set(here)) < n:
            seen: dict[int, int] = {}
            for i, c in enumerate(here):
                if c in seen:
                    conflicts.append(Conflict(t, "vertex", (ids[seen[c]], ids[i]), (cell(c),)))
                else:
                    seen[c] = i
        if t == 0:
            continue
        moved = [i for i in range(n) if here[i] != prev[i]]
        leaving: dict[int, list[int]] = {}  # cell -> movers leaving it, ascending
        for i in moved:
            leaving.setdefault(prev[i], []).append(i)
        if model.forbid_edge:
            for i in moved:
                for j in leaving.get(here[i], ()):
                    if j > i and here[j] == prev[i]:
                        conflicts.append(
                            Conflict(t, "edge", (ids[i], ids[j]), (cell(prev[i]), cell(here[i])))
                        )
        if model.forbid_following:
            for i in moved:
                for j in leaving.get(here[i], ()):
                    conflicts.append(Conflict(t, "following", (ids[i], ids[j]), (cell(here[i]),)))
        if model.forbid_cycle:
            for members, ring in _rotations(prev, here):
                agents = tuple(sorted(ids[k] for k in members))
                conflicts.append(Conflict(t, "cycle", agents, tuple(map(cell, ring))))
    return ConflictReport(tuple(conflicts))


def lower_bound_cost(instance: Instance) -> Optional[int]:
    """Sum of the agents' individually optimal path lengths, or None if some
    agent cannot reach its goal at all."""
    kernel = _GridKernel(instance.grid)
    total = 0
    for agent in instance.agents:
        start = kernel.cid(agent.start)
        d = kernel.dist_to_near(start, kernel.cid(agent.goal), instance.directions)[start]
        if d < 0:
            return None
        total += d
    return total


def is_individually_optimal(instance: Instance, solution: Solution) -> bool:
    """True iff the solution's flowtime equals the instance lower bound.

    Equivalently, every agent moves along some shortest path at every step
    with no waits.  The solution must be conflict-free under the default
    model; an invalid solution raises ``ValueError``.
    """
    report = validate_solution(instance, solution, VERTEX_EDGE)
    if not report.ok:
        raise ValueError(f"solution has conflicts: {report.conflicts[:3]}")
    bound = lower_bound_cost(instance)
    if bound is None:
        return False
    return solution.flowtime() == bound
