"""Lower a monotone nested formula into a grid MAPF decision instance.

The emitted instance has one agent per clause and admits an individually
optimal flowtime solution exactly when the formula is satisfiable.  Each
variable becomes a long one-cell-wide vertical channel; a positive
agent's shortest paths all cross some channel of its clause's variables
top-to-bottom, a negative agent's bottom-to-top, and the channels are
long enough that opposite traversal directions cannot share a channel
without someone waiting.  Which direction each channel is traversed in
therefore encodes a truth assignment.

Layout summary (rows grow downward):

* a variable row band in the middle: a horizontal collector corridor per
  variable on each side, the channel hanging between them;
* clause corridors above (positive) and below (negative) the band, at a
  height proportional to their nesting level, with vertical legs down to
  the collectors of their variables; the innermost clause holding a
  variable owns the channel column itself;
* "ladders" that let agents of the opposite sign climb from a clause
  corridor to its parent's corridor, entered through a notch that
  requires one move in the vertical direction the same-sign agents never
  take;
* a single opening cell at the far right of each root corridor, with the
  opposite sign's targets stacked beyond it, farthest target assigned to
  the earliest arriving agent.

Every start cell sits at a distinct right+vertical distance from its
sign's opening, with pairwise gaps of at least two, so same-sign agents
can never collide (or even follow each other) while all of them advance
toward the opening every step.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from operator import and_
from typing import Mapping, Optional, Sequence

from .core import (
    AgentTask,
    Cell,
    DirectionSet,
    DOWN_RIGHT,
    FOUR_DIRECTIONS,
    GridMap,
    Instance,
    Solution,
    THREE_DIRECTIONS,
    TimedPath,
    UP_RIGHT,
    _GridKernel,
    _free_lines,
    _monotone_reach,
    _reach_dist,
    is_individually_optimal,
)
from .formula import (
    Clause,
    MonotoneFormula,
    NestingForest,
    Side,
    evaluate,
    validate_planar_monotone,
)


class LayoutError(ValueError):
    """The formula cannot be laid out: the layout needs more cells than the
    cap, or in the built layout some agent can enter the channel of a
    variable outside its clause (``agent <id> can enter foreign channel
    <v>``).  Any other message names a fault of the compiler itself."""


def _cell_budget(num_clauses: int) -> int:
    """Cells a base layout of m = ``num_clauses`` clauses may take, by its
    own accounting.  Width ``W = 1 + 2 * (leg slots + ladders + connectors)``:
    a variable's slots and connector take at most two columns per
    occurrence (6m in all) and each non-root clause one ladder, so
    ``W <= 14m + 1``.  Height ``H = 2m + 4 + H+ + H- + L`` (target stacks
    and openings, the two sides' territories, the channel): with
    ``U = W + 2`` a territory is ``(depth + 1) * U`` rows, so
    ``H+ + H- <= (m + 1) * U``, and the channel ``L <= W + m * U``.  The
    spare U covers m = 0, where ``H = 4 + 2U``."""
    width = 14 * num_clauses + 1
    return width * (2 * num_clauses + 4 + width + (2 * num_clauses + 2) * (width + 2))


@dataclass(frozen=True)
class ChannelSpec:
    """A variable channel: column plus the rows of its interior cells."""

    var: int
    col: int
    top_row: int
    bottom_row: int

    @property
    def length(self) -> int:
        return self.bottom_row - self.top_row + 1

    def cells(self) -> tuple[Cell, ...]:
        return tuple(Cell(self.col, r) for r in range(self.top_row, self.bottom_row + 1))


@dataclass(frozen=True)
class LadderSpec:
    """One straight piece of a ladder or channel connector, for rendering."""

    owner_kind: str  # "clause" or "var"
    owner_id: int
    kind: str  # "v" for a column piece, "h" for a row piece
    fixed: int  # the column (v) or row (h)
    lo: int
    hi: int


@dataclass(frozen=True)
class ReductionMetadata:
    """Layout ledger of a compiled instance.

    Agent ids equal clause ids.  ``channel_length`` is the number of
    interior cells of every channel and also the largest channel-entry
    distance of any agent; ``unit`` is the per-nesting-level height step;
    ``common_distance`` is the shared start-goal distance of the makespan
    variant (None for the base instance).
    """

    variant: str
    w_total: int
    unit: int
    channel_length: int
    common_distance: Optional[int]
    c: Cell
    c_prime: Cell
    channels: tuple[ChannelSpec, ...]
    ladders: tuple[LadderSpec, ...]
    formula: MonotoneFormula

    def channel_by_var(self, var: int) -> Optional[ChannelSpec]:
        for ch in self.channels:
            if ch.var == var:
                return ch
        return None

    def opening(self, side: Side) -> Cell:
        """The opening a given sign's agents pass through: c' for positive."""
        return self.c_prime if side is Side.POSITIVE else self.c

    def sign_directions(self, side: Side) -> DirectionSet:
        return DOWN_RIGHT if side is Side.POSITIVE else UP_RIGHT

    def entry_cell(self, side: Side, channel: ChannelSpec) -> Cell:
        """First channel interior cell an agent of this sign reaches."""
        row = channel.top_row if side is Side.POSITIVE else channel.bottom_row
        return Cell(channel.col, row)

    def exit_cell(self, side: Side, channel: ChannelSpec) -> Cell:
        """First cell beyond the channel interior in travel direction."""
        row = channel.bottom_row + 1 if side is Side.POSITIVE else channel.top_row - 1
        return Cell(channel.col, row)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class ConstructionReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.ok)


@dataclass
class _ColumnPlan:
    width: int
    x: dict[int, int]  # variable -> channel column
    slot: dict[tuple[Side, int, int], int]  # (side, clause, var) -> leg column
    ladder_col: dict[tuple[Side, int], int]  # (side, clause) -> ladder column
    connector_col: dict[tuple[Side, int], int]  # (side, var) -> connector column
    rightmost: int  # X_right: opening / stack column


def _plan_columns(formula: MonotoneFormula, forest: NestingForest) -> _ColumnPlan:
    """Assign every vertical structure an even column, two apart.

    Per variable, left to right: the leg slots (deepest clause rightmost,
    owning the channel column), then in the gap after it the ladder
    columns of clauses whose interval ends at this variable, then any
    connector column for a side the variable does not occur on.
    """
    occurring = sorted({v for c in formula.clauses for v in c.vars})
    chains: dict[tuple[Side, int], list[Clause]] = {}
    for side in (Side.POSITIVE, Side.NEGATIVE):
        for c in formula.side_clauses(side):
            for v in c.vars:
                chains.setdefault((side, v), []).append(c)
    for key in chains:
        chains[key].sort(key=lambda c: forest.levels[c.id])

    x: dict[int, int] = {}
    slot: dict[tuple[Side, int, int], int] = {}
    ladder_col: dict[tuple[Side, int], int] = {}
    connector_col: dict[tuple[Side, int], int] = {}
    cursor = 0
    for v in occurring:
        pos_chain = chains.get((Side.POSITIVE, v), [])
        neg_chain = chains.get((Side.NEGATIVE, v), [])
        slots_needed = max(len(pos_chain), len(neg_chain))
        x[v] = cursor + 2 * (slots_needed - 1)
        for side, chain in ((Side.POSITIVE, pos_chain), (Side.NEGATIVE, neg_chain)):
            for k, clause in enumerate(chain):
                slot[(side, clause.id, v)] = x[v] - 2 * k
        cursor = x[v] + 2
        for side in (Side.POSITIVE, Side.NEGATIVE):
            enders = [
                c
                for c in formula.side_clauses(side)
                if c.interval[1] == v and forest.parent[c.id] is not None
            ]
            enders.sort(key=lambda c: forest.levels[c.id])
            for c in enders:
                ladder_col[(side, c.id)] = cursor
                cursor += 2
        for side in (Side.POSITIVE, Side.NEGATIVE):
            if not chains.get((side, v)) and (
                chains.get((side.opposite, v))
            ):
                connector_col[(side, v)] = cursor
                cursor += 2
    rightmost = cursor
    return _ColumnPlan(
        width=rightmost + 1,
        x=x,
        slot=slot,
        ladder_col=ladder_col,
        connector_col=connector_col,
        rightmost=rightmost,
    )


class _Layout:
    """Straight runs as row-major byte masks: ``free`` marks the free cells,
    ``right[i]`` allows the step i -> i + 1, ``down[i]`` i -> i + width."""

    def __init__(self, width: int, height: int) -> None:
        self.width, self.height = width, height
        self.free, self.right, self.down = (bytearray(width * height) for _ in range(3))

    def h_run(self, row: int, col_lo: int, col_hi: int) -> None:
        self._run(col_lo, row, col_hi, row, 1, self.right)

    def v_run(self, col: int, row_lo: int, row_hi: int) -> None:
        self._run(col, row_lo, col, row_hi, self.width, self.down)

    def _run(self, col: int, row: int, col_hi: int, row_hi: int, step: int, steps: bytearray) -> None:
        w, h = self.width, self.height
        for c, r in ((col, row), (col_hi, row_hi)):
            if not (0 <= c < w and 0 <= r < h):
                raise LayoutError(f"corridor cell {Cell(c, r)} outside the {w}x{h} layout")
        # One slice write per mask; both ends lie in it, so no stop is negative and wraps.
        a, b = row * w + col, row_hi * w + col_hi
        self.free[a : b + 1 : step] = b"\x01" * ((b - a) // step + 1)
        steps[a:b:step] = b"\x01" * ((b - a) // step)

    def audit(self) -> None:
        """Raise on the lowest free cell beside a free cell right of or below
        it with no allowed step between them.  Each mask is one integer of
        byte lanes; the last column's lanes have no right neighbour."""
        w = self.width
        free = int.from_bytes(self.free, "little")
        not_last = int.from_bytes((b"\x01" * (w - 1) + b"\x00") * self.height, "little")
        across = free & (free >> 8) & not_last & ~int.from_bytes(self.right, "little")
        below = free & (free >> 8 * w) & ~int.from_bytes(self.down, "little")
        if bad := across | below:
            i = ((bad & -bad).bit_length() - 1) // 8
            j = i + 1 if across >> 8 * i & 1 else i + w
            raise LayoutError(
                f"accidental corridor adjacency {Cell(i % w, i // w)} / {Cell(j % w, j // w)}"
            )


def compile_formula(
    formula: MonotoneFormula,
    forest: Optional[NestingForest] = None,
    *,
    max_cells: int = 2_000_000,
) -> tuple[Instance, ReductionMetadata]:
    """Build the grid decision instance and its layout metadata.

    One agent per clause (agent id = clause id), allowed directions up,
    down and right.  The instance has an individually optimal flowtime
    solution exactly when the formula is satisfiable.
    """
    forest = forest or validate_planar_monotone(formula)
    plan = _plan_columns(formula, forest)

    unit = plan.width + 2
    levels = forest.levels

    def height_of(clause_id: int) -> int:
        return (levels[clause_id] + 1) * unit

    pos_clauses = formula.side_clauses(Side.POSITIVE)
    neg_clauses = formula.side_clauses(Side.NEGATIVE)
    m_pos, m_neg = len(pos_clauses), len(neg_clauses)

    max_height_pos = max((height_of(c.id) for c in pos_clauses), default=unit)
    max_height_neg = max((height_of(c.id) for c in neg_clauses), default=unit)

    def start_col(c: Clause) -> int:
        return plan.slot[(c.side, c.id, c.vars[0])]

    # Channel length: the largest distance any agent needs to reach the first
    # interior cell of one of its clause's channels.  Row geometry inside each
    # sign's territory is translation independent, so this is computable
    # before the rows are pinned.
    entry_dists = [
        (plan.x[v] - start_col(c)) + height_of(c.id) + 1
        for c in formula.clauses
        for v in c.vars
    ]
    channel_length = max(entry_dists, default=0)

    pos_root_row = 2 * m_neg + 1
    r_top = pos_root_row + max_height_pos
    r_bot = r_top + channel_length + 1
    neg_root_row = r_bot + max_height_neg
    c_cell = Cell(plan.rightmost, pos_root_row - 1)
    c_prime = Cell(plan.rightmost, neg_root_row + 1)
    height = c_prime.row + 2 * m_pos + 1

    def corridor_row(c: Clause) -> int:
        if c.side is Side.POSITIVE:
            return r_top - height_of(c.id)
        return r_bot + height_of(c.id)

    # Starts, opening distances, target assignment.
    def opening_distance(c: Clause) -> int:
        row = corridor_row(c)
        if c.side is Side.POSITIVE:
            return (plan.rightmost - start_col(c)) + (c_prime.row - row)
        return (plan.rightmost - start_col(c)) + (row - c_cell.row)

    targets: dict[int, Cell] = {}
    for side, clauses, opening in (
        (Side.POSITIVE, pos_clauses, c_prime),
        (Side.NEGATIVE, neg_clauses, c_cell),
    ):
        dists = sorted((opening_distance(c), c.id) for c in clauses)
        for i in range(1, len(dists)):
            if dists[i][0] - dists[i - 1][0] < 2:
                raise LayoutError(
                    f"opening distances of clauses {dists[i - 1][1]} and "
                    f"{dists[i][1]} are not two apart"
                )
        count = len(clauses)
        for rank, (_, cid) in enumerate(dists):
            depth = 2 * (count - rank) - 1
            if side is Side.POSITIVE:
                targets[cid] = Cell(opening.col, opening.row + depth)
            else:
                targets[cid] = Cell(opening.col, opening.row - depth)

    if plan.width * height > max_cells:
        raise LayoutError(
            f"layout needs {plan.width * height} cells, over the cap of {max_cells}"
        )

    seg = _Layout(plan.width, height)
    ladders: list[LadderSpec] = []

    def ladder_run(owner_kind: str, owner_id: int, kind: str, fixed: int, a: int, b: int) -> None:
        """A ladder or connector piece: one run, recorded in the ledger too."""
        lo, hi = min(a, b), max(a, b)
        (seg.v_run if kind == "v" else seg.h_run)(fixed, lo, hi)
        ladders.append(LadderSpec(owner_kind, owner_id, kind, fixed, lo, hi))

    # Clause corridors, legs, ladders.
    right_end: dict[int, int] = {}
    for c in formula.clauses:
        own = plan.slot[(c.side, c.id, c.vars[-1])]
        kid_ladders = [
            plan.ladder_col[(c.side, k)]
            for k in forest.children.get(c.id, ())
            if (c.side, k) in plan.ladder_col
        ]
        if forest.parent[c.id] is None:
            right_end[c.id] = plan.rightmost
        else:
            right_end[c.id] = max([own] + kid_ladders)
    for c in formula.clauses:
        row = corridor_row(c)
        seg.h_run(row, start_col(c), right_end[c.id])
        for v in c.vars:
            col = plan.slot[(c.side, c.id, v)]
            if c.side is Side.POSITIVE:
                seg.v_run(col, row, r_top)
            else:
                seg.v_run(col, r_bot, row)
        parent = forest.parent[c.id]
        if parent is not None:
            lad = plan.ladder_col[(c.side, c.id)]
            p_row = corridor_row(formula.clause_by_id(parent))
            notch_row = row - 1 if c.side is Side.POSITIVE else row + 1
            # notch step off the corridor, run to the ladder column, climb.
            seg.v_run(right_end[c.id], min(row, notch_row), max(row, notch_row))
            ladder_run("clause", c.id, "h", notch_row, right_end[c.id], lad)
            ladder_run("clause", c.id, "v", lad, p_row, notch_row)

    # Variable collectors, channels, connectors.  A connector stands in for
    # the missing side's legs: it descends (or rises) from the channel end
    # until it meets the corridor of the innermost clause whose interval
    # spans its gap, or the root row when no clause does.
    channels: list[ChannelSpec] = []
    uncovered_connectors: dict[Side, list[int]] = {Side.POSITIVE: [], Side.NEGATIVE: []}
    occurring = sorted({v for c in formula.clauses for v in c.vars})
    for v in occurring:
        for side, band_row in ((Side.POSITIVE, r_top), (Side.NEGATIVE, r_bot)):
            slots = [
                plan.slot[(side, c.id, v)]
                for c in formula.side_clauses(side)
                if v in c.vars
            ]
            if slots:
                seg.h_run(band_row, min(slots), plan.x[v])
                continue
            conn = plan.connector_col[(side, v)]
            coverers = [
                c
                for c in formula.side_clauses(side)
                if c.interval[0] <= v < c.interval[1]
            ]
            if coverers:
                target = min(coverers, key=lambda c: levels[c.id])
                end_row = corridor_row(target)
            else:
                end_row = pos_root_row if side is Side.POSITIVE else neg_root_row
                uncovered_connectors[side].append(conn)
            ladder_run("var", v, "v", conn, band_row, end_row)
            ladder_run("var", v, "h", band_row, plan.x[v], conn)
        seg.v_run(plan.x[v], r_top, r_bot)
        channels.append(ChannelSpec(v, plan.x[v], r_top + 1, r_bot - 1))

    # Root corridors exist even on a side without clauses, to host the
    # opening; they stretch left as far as the leftmost connector that had
    # to come all the way to the root row.
    pos_root = forest.roots[Side.POSITIVE]
    neg_root = forest.roots[Side.NEGATIVE]
    for side, root, row in (
        (Side.POSITIVE, pos_root, pos_root_row),
        (Side.NEGATIVE, neg_root, neg_root_row),
    ):
        risers = uncovered_connectors[side]
        if root is None:
            seg.h_run(row, min(risers, default=plan.rightmost), plan.rightmost)
        elif risers:
            left = min(min(risers), start_col(formula.clause_by_id(root)))
            seg.h_run(row, left, plan.rightmost)

    # Openings and target stacks (targets every other row so parked agents
    # and private makespan extensions never touch).
    seg.v_run(plan.rightmost, pos_root_row - max(1, 2 * m_neg), pos_root_row)
    seg.v_run(plan.rightmost, neg_root_row, neg_root_row + max(1, 2 * m_pos))

    seg.audit()
    grid = GridMap.from_mask(plan.width, height, seg.free)
    agents = tuple(
        AgentTask(
            id=c.id,
            start=Cell(start_col(c), corridor_row(c)),
            goal=targets[c.id],
        )
        for c in formula.clauses
    )
    instance = Instance(grid, agents, THREE_DIRECTIONS)
    meta = ReductionMetadata(
        variant="base",
        w_total=plan.width,
        unit=unit,
        channel_length=channel_length,
        common_distance=None,
        c=c_cell,
        c_prime=c_prime,
        channels=tuple(channels),
        ladders=tuple(ladders),
        formula=formula,
    )
    _compile_sanity(instance, meta)
    return instance, meta


def _start_reaches(
    rows: list[int], agents: Mapping[int, AgentTask], meta: ReductionMetadata
) -> dict[int, list[int]]:
    """Each agent's ``_monotone_reach`` from its start under its sign's two moves, by clause id."""
    clauses = meta.formula.clauses
    return {c.id: _monotone_reach(rows, agents[c.id].start, c.side is Side.POSITIVE) for c in clauses}


def _entry_distances(
    reach: dict[int, list[int]], agents: Mapping[int, AgentTask], meta: ReductionMetadata
) -> dict[tuple[int, int], Optional[int]]:
    """Moves from each agent's start to the entry cell of each of its clause's
    channels under the sign's two directions, keyed by (clause id, variable),
    read off the start reaches.  None where the variable has no channel or
    its entry cell is out of reach.
    """
    out: dict[tuple[int, int], Optional[int]] = {}
    for c in meta.formula.clauses:
        start = agents[c.id].start
        for v in c.vars:
            channel = meta.channel_by_var(v)
            out[(c.id, v)] = None if channel is None else _reach_dist(
                reach[c.id], start, meta.entry_cell(c.side, channel)
            )
    return out


def _compile_sanity(instance: Instance, meta: ReductionMetadata) -> None:
    """Checks on the built layout, from each agent's reach under its sign's
    two moves: it reaches its target, no channel of a variable outside its
    clause (a leg crossing a deeper corridor can allow that, so a formula
    can fail here) and each of its own channels within the channel length."""
    agents = {a.id: a for a in instance.agents}
    reach = _start_reaches(_free_lines(instance.grid), agents, meta)
    for c in meta.formula.clauses:
        start = agents[c.id].start
        if _reach_dist(reach[c.id], start, agents[c.id].goal) is None:
            raise LayoutError(f"agent {c.id} cannot reach its target monotonically")
        for ch in meta.channels:
            entry = meta.entry_cell(c.side, ch)
            if ch.var not in c.vars and _reach_dist(reach[c.id], start, entry) is not None:
                raise LayoutError(f"agent {c.id} can enter foreign channel {ch.var}")
    for (cid, v), d in _entry_distances(reach, agents, meta).items():
        if d is None or d > meta.channel_length:
            raise LayoutError(
                f"agent {cid}: channel {v} entry distance {d} exceeds "
                f"channel length {meta.channel_length}"
            )


def makespan_variant(
    instance: Instance, meta: ReductionMetadata
) -> tuple[Instance, ReductionMetadata]:
    """Equalize every agent's shortest distance by extending targets rightward.

    Each target moves to the end of a private dead-end corridor in its own
    row so that all start-goal distances equal the previous maximum d; the
    result has a makespan-d solution exactly when the base instance has an
    individually optimal one.
    """
    if meta.variant != "base":
        raise ValueError("makespan_variant starts from the base instance")
    rows = _free_lines(instance.grid)
    side_of = {c.id: c.side for c in meta.formula.clauses}
    dists: dict[int, int] = {}
    for agent in instance.agents:
        # Exact where reached, by the Manhattan argument of check 8 below.
        side = side_of[agent.id]
        d = None
        if meta.sign_directions(side).moves <= instance.directions.moves:
            reach = _monotone_reach(rows, agent.start, side is Side.POSITIVE)
            d = _reach_dist(reach, agent.start, agent.goal)
        if d is None:
            kernel = _GridKernel(instance.grid)
            d = kernel.dist_to(kernel.cid(agent.goal), instance.directions)[kernel.cid(agent.start)]
        assert d >= 0
        dists[agent.id] = d
    common = max(dists.values(), default=0)

    new_goals = {a.id: Cell(a.goal.col + common - dists[a.id], a.goal.row) for a in instance.agents}
    old, w = instance.grid, instance.grid.width
    new_width = max([w] + [g.col + 1 for g in new_goals.values()])
    free = bytearray(new_width * old.height)
    for r in range(old.height):
        free[r * new_width : r * new_width + w] = old.free[r * w : (r + 1) * w]
    for a in instance.agents:  # each private extension: right of the old goal up to the new one
        i = a.goal.row * new_width + a.goal.col + 1
        free[i : i + common - dists[a.id]] = b"\x01" * (common - dists[a.id])
    grid = GridMap.from_mask(new_width, old.height, free)
    agents = tuple(
        AgentTask(id=a.id, start=a.start, goal=new_goals[a.id], team=a.team)
        for a in instance.agents
    )
    new_meta = dataclasses.replace(
        meta, variant="makespan", common_distance=common, w_total=new_width
    )
    return Instance(grid, agents, instance.directions), new_meta


def two_colored_variant(instance: Instance, meta: ReductionMetadata) -> Instance:
    """Group agents into a positive and a negative team sharing target stacks."""
    side_of = {c.id: c.side for c in meta.formula.clauses}
    agents = tuple(
        AgentTask(id=a.id, start=a.start, goal=a.goal, team=side_of[a.id].value)
        for a in instance.agents
    )
    teams: dict[str, frozenset[Cell]] = {}
    for side in (Side.POSITIVE, Side.NEGATIVE):
        members = [a for a in agents if a.team == side.value]
        if members:
            teams[side.value] = frozenset(a.goal for a in members)
    return Instance(instance.grid, agents, instance.directions, teams=teams)


def _walk(kernel: _GridKernel, dirs: DirectionSet, a: Cell, b: Cell) -> list[Cell]:
    """A deterministic shortest path from a to b under the given directions:
    each step takes the first direction, in canonical order, that descends."""
    dist = kernel.dist_to(kernel.cid(b), dirs)
    cur = kernel.cid(a)
    if dist[cur] < 0:
        raise LayoutError(f"no route {a} -> {b}")
    ids = [cur]
    steps = kernel.steps(dirs)
    while dist[cur] > 0:
        cur = next(n for off in steps if dist[n := cur + off] == dist[cur] - 1)
        ids.append(cur)
    return list(kernel.cells(ids))


def realize_solution(
    instance: Instance, meta: ReductionMetadata, assignment: Sequence[bool]
) -> Solution:
    """The canonical individually optimal solution for a satisfying assignment.

    Every agent moves toward its target each step, routed through the
    channel of its clause's first variable whose assigned value matches the
    clause's sign (true for positive clauses, false for negative ones).
    """
    if not evaluate(meta.formula, assignment):
        raise ValueError("assignment does not satisfy the formula")
    kernel = _GridKernel(instance.grid)
    agents = {a.id: a for a in instance.agents}
    paths = []
    for c in meta.formula.clauses:
        want = c.side is Side.POSITIVE
        chosen = next(v for v in c.vars if assignment[v - 1] == want)
        channel = meta.channel_by_var(chosen)
        assert channel is not None
        dirs = meta.sign_directions(c.side)
        agent = agents[c.id]
        entry = meta.entry_cell(c.side, channel)
        exit_ = meta.exit_cell(c.side, channel)
        cells = _walk(kernel, dirs, agent.start, entry)
        cells += _walk(kernel, dirs, entry, exit_)[1:]
        cells += _walk(kernel, dirs, exit_, agent.goal)[1:]
        paths.append(TimedPath(tuple(cells)))
    order = {a.id: i for i, a in enumerate(instance.agents)}
    ordered = [None] * len(paths)
    for c, p in zip(meta.formula.clauses, paths):
        ordered[order[c.id]] = p
    return Solution(tuple(ordered))


def extract_assignment(
    instance: Instance, meta: ReductionMetadata, solution: Solution
) -> tuple[bool, ...]:
    """Read a satisfying assignment off an individually optimal solution.

    A variable is true exactly when its channel is traversed by a positive
    agent; channels nobody uses default to true.  The solution must be
    individually optimal, otherwise channel usage proves nothing.
    """
    if not is_individually_optimal(instance, solution):
        raise ValueError("solution is not individually optimal")
    side_of = {c.id: c.side for c in meta.formula.clauses}
    values: dict[int, bool] = {}
    for agent, path in zip(instance.agents, solution.paths):
        side = side_of[agent.id]
        cells = set(path.cells)
        for channel in meta.channels:
            if cells & set(channel.cells()):
                value = side is Side.POSITIVE
                if values.get(channel.var, value) != value:
                    raise RuntimeError(
                        f"channel {channel.var} used by both signs in an "
                        f"individually optimal solution"
                    )
                values[channel.var] = value
    assignment = tuple(
        values.get(v, True) for v in range(1, meta.formula.num_vars + 1)
    )
    if not evaluate(meta.formula, assignment):
        raise RuntimeError("extracted assignment does not satisfy the formula")
    return assignment


def _first_blocked(grid: GridMap, ch: ChannelSpec) -> Optional[Cell]:
    """The channel's first interior cell, top down, that is blocked or off
    the grid, or None; one strided slice of the mask reads its rows on the grid."""
    col, top, w = ch.col, ch.top_row, grid.width
    last = min(ch.bottom_row, grid.height - 1)
    if not (0 <= col < w and top >= 0):
        row = top  # the top cell is off the grid
    else:  # past the slice lies the first row below the grid, or no row at all
        k = grid.free[top * w + col : last * w + col + 1 : w].find(0)
        row = top + k if k >= 0 else max(top, last + 1)
    return Cell(col, row) if row <= ch.bottom_row else None


def agents_by_clause(instance: Instance, meta: ReductionMetadata) -> dict[int, AgentTask]:
    """The instance's agents by id.  Raises ``ValueError`` when the agent
    ids are not the metadata's clause ids."""
    agents = {a.id: a for a in instance.agents}
    clauses = meta.formula.clauses
    clause_ids = {c.id for c in clauses}
    unmatched = [f"clause {c.id} has no agent" for c in clauses if c.id not in agents]
    unmatched += [f"agent {a} has no clause" for a in agents if a not in clause_ids]
    if unmatched:
        raise ValueError(f"metadata does not match the instance: {unmatched[0]}")
    return agents


def verify_construction(instance: Instance, meta: ReductionMetadata) -> ConstructionReport:
    """Independent structural checks of a compiled instance.

    Every check recomputes what it needs with reach sweeps and counting;
    none of them trusts the compiler's arithmetic.  Raises ``ValueError`` when
    the instance's agent ids are not the metadata's clause ids.
    """
    checks: list[CheckResult] = []
    agents = agents_by_clause(instance, meta)
    clauses = meta.formula.clauses
    grid = instance.grid
    rows = _free_lines(grid)
    reach = _start_reaches(rows, agents, meta)

    def start_dist(c: Clause, cell: Cell) -> Optional[int]:
        return _reach_dist(reach[c.id], agents[c.id].start, cell)

    # 1. unique start-to-opening distances per sign
    problems = []
    for side in (Side.POSITIVE, Side.NEGATIVE):
        opening = meta.opening(side)
        seen: dict[int, int] = {}
        for c in clauses:
            if c.side is not side:
                continue
            d = start_dist(c, opening)
            if d is None:
                problems.append(f"agent {c.id} cannot reach the opening")
            elif d in seen:
                problems.append(
                    f"agents {seen[d]} and {c.id} share opening distance {d}"
                )
            else:
                seen[d] = c.id
    checks.append(CheckResult("unique-opening-distances", not problems, "; ".join(problems)))

    # 2. channels all have length L, identical row spans and free interiors
    problems = []
    blocked = {ch: _first_blocked(grid, ch) for ch in meta.channels}
    spans = {(ch.top_row, ch.bottom_row) for ch in meta.channels}
    if len(spans) > 1:
        problems.append(f"channel row spans differ: {sorted(spans)}")
    for ch in meta.channels:
        if ch.length != meta.channel_length:
            problems.append(
                f"channel {ch.var} has length {ch.length}, expected {meta.channel_length}"
            )
        if blocked[ch] is not None:
            problems.append(f"channel {ch.var} cell {blocked[ch]} is not free")
    checks.append(CheckResult("channel-geometry", not problems, "; ".join(problems)))

    # 3. every channel-entry distance is at most L
    problems = []
    entry = _entry_distances(reach, agents, meta)
    for c in clauses:
        for v in c.vars:
            d = entry[(c.id, v)]
            if meta.channel_by_var(v) is None:
                problems.append(f"variable {v} has no channel")
            elif d is None:
                problems.append(f"agent {c.id} cannot enter channel {v}")
            elif d > meta.channel_length:
                problems.append(
                    f"agent {c.id} needs {d} steps into channel {v}, over {meta.channel_length}"
                )
    checks.append(CheckResult("entry-distances", not problems, "; ".join(problems)))

    # 4. openings dominate everything reachable before them: each row of an
    # agent's reach lies in the cells the opening reaches and those left of
    # it and above it (positive) or below it (negative), the opening too
    problems = []
    for side in (Side.POSITIVE, Side.NEGATIVE):
        opening, down = meta.opening(side), side is Side.POSITIVE
        after = _monotone_reach(rows, opening, down) if grid.is_free(opening) else [0] * len(rows)
        left = (1 << max(opening.col + 1, 0)) - 1  # the columns up to the opening's
        before = range(opening.row + 1) if down else range(opening.row, len(rows))
        outside = [~(a | left) if r in before else ~a for r, a in enumerate(after)]
        for c in clauses:
            if c.side is not side or not any(map(and_, reach[c.id], outside)):
                continue
            # Name the first such cell a BFS from the start meets: it meets cells by
            # Manhattan distance, the farther row first, as it expands UP or DOWN before RIGHT.
            sc, sr = agents[c.id].start
            out_rows = enumerate(map(and_, reach[c.id], outside))
            firsts = [Cell((x & -x).bit_length() - 1, r) for r, x in out_rows if x]  # of each row
            cell = min(firsts, key=lambda b: (abs(b.row - sr) + b.col - sc, -abs(b.row - sr)))
            problems.append(f"agent {c.id} reaches {cell}, not dominated by opening {opening}")
    checks.append(CheckResult("opening-dominates", not problems, "; ".join(problems)))

    # 5. a crossable route through every clause variable's channel, all equal length
    problems = []
    exits: dict[tuple[Cell, Side], list[int]] = {}  # the reach from each exit, per sign
    for c in clauses:
        agent = agents[c.id]
        total = start_dist(c, agent.goal)
        if total is None:
            problems.append(f"agent {c.id} cannot reach its target")
            continue
        for v in c.vars:
            ch = meta.channel_by_var(v)
            if ch is None:
                problems.append(f"variable {v} has no channel")
                continue
            d1 = entry[(c.id, v)]
            exit_ = meta.exit_cell(c.side, ch)
            d2 = None
            if grid.is_free(exit_):
                if (exit_, c.side) not in exits:
                    exits[(exit_, c.side)] = _monotone_reach(rows, exit_, c.side is Side.POSITIVE)
                d2 = _reach_dist(exits[(exit_, c.side)], exit_, agent.goal)
            if blocked[ch] is not None:
                problems.append(f"agent {c.id} cannot cross channel {v} at {blocked[ch]}")
            elif d1 is None or d2 is None:
                problems.append(f"agent {c.id} has no route through channel {v}")
            elif d1 + meta.channel_length + d2 != total:
                problems.append(
                    f"agent {c.id} via channel {v}: {d1}+{meta.channel_length}+{d2} != {total}"
                )
    checks.append(CheckResult("channel-routes-equal-length", not problems, "; ".join(problems)))

    # 6. no route bypasses all of the clause's channels
    problems = []
    for c in clauses:
        agent = agents[c.id]
        cut = rows.copy()
        for v in c.vars:
            ch = meta.channel_by_var(v)
            if ch is not None and 0 <= ch.col < grid.width:  # its rows on the grid only
                lo, hi = max(ch.top_row, 0), max(min(ch.bottom_row + 1, grid.height), 0)
                keep = ~(1 << ch.col)
                cut[lo:hi] = [row & keep for row in cut[lo:hi]]
        bypass = _monotone_reach(cut, agent.start, c.side is Side.POSITIVE)
        if _reach_dist(bypass, agent.start, agent.goal) is not None:
            problems.append(f"agent {c.id} can bypass its channels")
        for ch in meta.channels:
            if ch.var in c.vars:
                continue
            if start_dist(c, meta.entry_cell(c.side, ch)) is not None:
                problems.append(f"agent {c.id} can enter foreign channel {ch.var}")
    checks.append(CheckResult("no-channel-bypass", not problems, "; ".join(problems)))

    # 7. construction size within the layout's own bound; the makespan
    # variant may additionally widen the grid by up to its common distance
    # for the private target extensions
    cells = grid.width * grid.height
    budget = _cell_budget(meta.formula.num_clauses)
    if meta.variant == "makespan" and meta.common_distance is not None:
        budget += grid.height * meta.common_distance
    ok = cells <= budget
    checks.append(
        CheckResult(
            "cell-budget",
            ok,
            f"{cells} cells vs budget {budget}" if not ok else f"{cells} cells",
        )
    )

    # 8. two directions per sign suffice (left moves never help anyone).  A
    # path of the sign's two orthogonal moves is as long as the Manhattan
    # distance, which no path beats: only an unreached goal needs the BFS.
    problems = []
    for c in clauses:
        start, goal = agents[c.id].start, agents[c.id].goal
        d_sign = d_free = start_dist(c, goal)
        if d_sign is None:
            kernel = _GridKernel(grid)
            d_free = kernel.at(kernel.dist_to(kernel.cid(goal), FOUR_DIRECTIONS), start)
        if d_free != d_sign:
            problems.append(
                f"agent {c.id}: unrestricted distance {d_free} beats two-direction {d_sign}"
            )
    checks.append(CheckResult("two-directions-suffice", not problems, "; ".join(problems)))

    return ConstructionReport(tuple(checks))
