"""Line-based text formats for grids, agents, solutions, and layouts.

All formats are diff-friendly: one fact per line, deterministic writers,
and read(write(x)) == x on canonical files.  Parse errors carry the
offending line number.
"""

from __future__ import annotations

from itertools import accumulate
from operator import sub
from typing import Optional

from .core import (
    AgentTask,
    Cell,
    Direction,
    DirectionSet,
    GridMap,
    Instance,
    Solution,
    TimedPath,
    _GridKernel,
    _solution_ids,
)
from .formula import format_formula, parse_formula
from .reduction import ChannelSpec, LadderSpec, ReductionMetadata


class FileFormatError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# Map rows spell the free mask: "." for 1 (free), "@" for 0 (obstacle).
_MASK_TO_TEXT = bytes.maketrans(b"\x01\x00", b".@")
_TEXT_TO_MASK = bytes.maketrans(b".@", b"\x01\x00")


def write_map(grid: GridMap) -> str:
    w = grid.width
    text = grid.free.translate(_MASK_TO_TEXT).decode("ascii")
    rows = [text[i : i + w] for i in range(0, len(text), w)]
    return "\n".join([f"height {grid.height}", f"width {w}", "map", *rows]) + "\n"


def read_map(text: str) -> GridMap:
    lines = text.splitlines()
    if len(lines) < 3:
        raise FileFormatError("map file needs height, width and map lines")
    header = {}
    for i, key in enumerate(("height", "width")):
        parts = lines[i].split()
        # isdecimal, not isdigit: int() rejects digits such as "²".
        if len(parts) != 2 or parts[0] != key or not parts[1].isdecimal():
            raise FileFormatError(f"expected '{key} <n>'", i + 1)
        header[key] = int(parts[1])
        if header[key] < 1:
            raise FileFormatError(f"{key} must be positive", i + 1)
    if lines[2].strip() != "map":
        raise FileFormatError("expected 'map'", 3)
    height, width = header["height"], header["width"]
    rows = lines[3 : 3 + height]
    if len(rows) != height:
        raise FileFormatError(f"expected {height} map rows, found {len(rows)}")
    body = "".join(rows)
    if any(len(row) != width for row in rows) or body.replace(".", "").replace("@", ""):
        for r, row in enumerate(rows):
            if len(row) != width:
                raise FileFormatError(f"row has {len(row)} cells, expected {width}", 4 + r)
            for ch in row:
                if ch not in ".@":
                    raise FileFormatError(f"bad map character {ch!r}", 4 + r)
    for lineno, line in enumerate(lines[3 + height :], start=4 + height):
        if line.strip():
            raise FileFormatError(f"text after the {height} map rows", lineno)
    return GridMap.from_mask(width, height, body.encode("ascii").translate(_TEXT_TO_MASK))


def write_agents(instance: Instance) -> str:
    lines = [f"directions {instance.directions.letters}"]
    if not instance.directions.waits_allowed:
        lines.append("waits no")
    for a in instance.agents:
        team = f" {a.team}" if a.team is not None else ""
        lines.append(
            f"agent {a.id} {a.start.col} {a.start.row} {a.goal.col} {a.goal.row}{team}"
        )
    return "\n".join(lines) + "\n"


def read_agents(text: str, grid: GridMap) -> Instance:
    directions: Optional[DirectionSet] = None
    waits = True
    agents: list[AgentTask] = []
    ids: set[int] = set()
    starts: dict[Cell, int] = {}  # cell -> id of the agent that starts there
    goals: dict[Cell, int] = {}
    headers: dict[str, int] = {}  # header directive -> its line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] in ("directions", "waits"):
            if parts[0] in headers:
                raise FileFormatError(
                    f"second {parts[0]} line; the first is line {headers[parts[0]]}", lineno
                )
            headers[parts[0]] = lineno
        if parts[0] == "directions":
            if len(parts) != 2:
                raise FileFormatError("expected: directions <letters>", lineno)
            try:
                directions = DirectionSet.from_letters(parts[1])
            except ValueError as e:
                raise FileFormatError(str(e), lineno) from None
        elif parts[0] == "waits":
            if parts[1:] != ["no"]:
                raise FileFormatError("expected: waits no", lineno)
            waits = False
        elif parts[0] == "agent":
            if len(parts) not in (6, 7):
                raise FileFormatError(
                    "expected: agent <id> <scol> <srow> <gcol> <grow> [team]", lineno
                )
            try:
                aid, scol, srow, gcol, grow = (int(p) for p in parts[1:6])
            except ValueError:
                raise FileFormatError("agent fields must be integers", lineno) from None
            team = parts[6] if len(parts) == 7 else None
            start, goal = Cell(scol, srow), Cell(gcol, grow)
            if aid in ids:
                raise FileFormatError(f"duplicate agent id {aid}", lineno)
            for cell, label, seen in ((start, "start", starts), (goal, "goal", goals)):
                if not grid.is_free(cell):
                    raise FileFormatError(f"{label} {cell} is not a free cell", lineno)
                if cell in seen:
                    raise FileFormatError(
                        f"agent {aid}: {label} {cell} is also the {label} of agent {seen[cell]}",
                        lineno,
                    )
                seen[cell] = aid
            ids.add(aid)
            agents.append(AgentTask(aid, start, goal, team))
        else:
            raise FileFormatError(f"unknown directive {parts[0]!r}", lineno)
    if directions is None:
        raise FileFormatError("missing directions line")
    teams = None
    if any(a.team is not None for a in agents):
        if any(a.team is None for a in agents):
            raise FileFormatError("either all or no agents must carry a team")
        teams = {}
        for a in agents:
            teams.setdefault(a.team, set()).add(a.goal)
        teams = {t: frozenset(cells) for t, cells in teams.items()}
    return Instance(grid, tuple(agents), DirectionSet(directions.moves, waits), teams=teams)


# Solution files spell each step as its action's letter (W for a wait).
_STEP_LETTERS = {d.value: d.letter for d in Direction}
_LETTER_STEPS = {letter: step for step, letter in _STEP_LETTERS.items()}


def write_solution(instance: Instance, solution: Solution) -> str:
    # On the validator's framed ids each single step is one id difference.
    paths, s, *_ = _solution_ids(instance.grid, solution.paths)
    letters = {-s: "U", s: "D", -1: "L", 1: "R", 0: "W"}
    lines = []
    for agent, path, ids in zip(instance.agents, solution.paths, paths):
        moves = list(map(letters.get, map(sub, ids[1:], ids)))
        if None in moves:
            t = moves.index(None)
            a, b = path.cells[t], path.cells[t + 1]
            raise ValueError(f"agent {agent.id}: {a} -> {b} is not a single step")
        lines.append(f"agent {agent.id} {''.join(moves) or '-'}")
    return "\n".join(lines) + "\n"


def read_solution(text: str, instance: Instance) -> Solution:
    by_id: dict[int, tuple[str, int]] = {}  # agent id -> (moves, line)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "agent" or len(parts) != 3:
            raise FileFormatError("expected: agent <id> <moves|->", lineno)
        try:
            aid = int(parts[1])
        except ValueError:
            raise FileFormatError(f"bad agent id {parts[1]!r}", lineno) from None
        if aid in by_id:
            raise FileFormatError(f"duplicate agent {aid}", lineno)
        by_id[aid] = ("" if parts[2] == "-" else parts[2], lineno)
    # Each letter the instance allows is a framed-id offset.  A walk that
    # leaves the grid first enters the frame, which the mask marks blocked,
    # so ``all`` stops there, before any id that lies past the frame.
    kernel = _GridKernel(instance.grid)
    free, dirs = kernel.free, instance.directions
    offsets = dict(zip(map(_STEP_LETTERS.get, dirs._steps), kernel.steps(dirs)), W=0)
    paths = []
    for agent in instance.agents:
        if agent.id not in by_id:
            raise FileFormatError(f"missing moves for agent {agent.id}")
        moves, lineno = by_id[agent.id]
        steps = list(map(offsets.get, moves))
        k = steps.index(None) if None in steps else len(steps)
        ids = list(accumulate(steps[:k], initial=kernel.cid(agent.start)))
        if not all(map(free.__getitem__, ids)):
            t = next(t for t, cid in enumerate(ids) if not free[cid])
            row, col = divmod(ids[t - 1], kernel.stride)
            dcol, drow = _LETTER_STEPS[moves[t - 1]]
            nxt = Cell(col + dcol, row - 1 + drow)  # not the frame cell of ids[t]
            raise FileFormatError(f"agent {agent.id}: step {t} moves into {nxt}, which is not free", lineno)
        if k < len(moves):
            letter, t = moves[k], k + 1
            problem = f"move {letter} at step {t} not in the instance direction set"
            if letter not in _LETTER_STEPS:
                problem = f"bad move {letter!r} at step {t}"
            raise FileFormatError(f"agent {agent.id}: {problem}", lineno)
        paths.append(TimedPath._from_ids(ids, kernel.stride))
    extra = set(by_id) - {a.id for a in instance.agents}
    if extra:
        raise FileFormatError(f"unknown agent ids {sorted(extra)}")
    return Solution(tuple(paths))


def write_metadata(meta: ReductionMetadata) -> str:
    lines = [f"variant {meta.variant}"]
    lines.append(f"const W {meta.w_total}")
    lines.append(f"const U {meta.unit}")
    lines.append(f"const L {meta.channel_length}")
    lines.append(f"const d {meta.common_distance if meta.common_distance is not None else '-'}")
    lines.append(f"opening c {meta.c.col} {meta.c.row}")
    lines.append(f"opening cprime {meta.c_prime.col} {meta.c_prime.row}")
    for ch in meta.channels:
        lines.append(f"channel {ch.var} {ch.col} {ch.top_row} {ch.bottom_row}")
    for lad in meta.ladders:
        lines.append(
            f"ladder {lad.owner_kind} {lad.owner_id} {lad.kind} {lad.fixed} {lad.lo} {lad.hi}"
        )
    return "\n".join(lines) + "\n" + format_formula(meta.formula)


# The words of each directive's line, itself included, as in "channel <var>
# <col> <top> <bottom>"; formula lines are checked by ``parse_formula``.
_META_WORDS = {"variant": 2, "const": 3, "opening": 4, "channel": 5, "ladder": 7}


def read_metadata(text: str) -> ReductionMetadata:
    variant = None
    consts: dict[str, Optional[int]] = {}
    openings: dict[str, Cell] = {}
    channels: list[ChannelSpec] = []
    ladders: list[LadderSpec] = []
    formula_lines: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        words = _META_WORDS.get(parts[0], len(parts))
        if len(parts) != words:
            raise FileFormatError(f"{parts[0]} line has {len(parts)} words, not {words}", lineno)
        try:
            if parts[0] == "variant":
                if parts[1] not in ("base", "makespan"):
                    raise FileFormatError(f"unknown variant {parts[1]!r}", lineno)
                variant = parts[1]
            elif parts[0] == "const":
                consts[parts[1]] = None if parts[2] == "-" else int(parts[2])
            elif parts[0] == "opening":
                openings[parts[1]] = Cell(int(parts[2]), int(parts[3]))
            elif parts[0] == "channel":
                channels.append(
                    ChannelSpec(int(parts[1]), int(parts[2]), int(parts[3]), int(parts[4]))
                )
            elif parts[0] == "ladder":
                if parts[1] not in ("clause", "var"):
                    raise FileFormatError(f"unknown ladder owner {parts[1]!r}", lineno)
                if parts[3] not in ("v", "h"):
                    raise FileFormatError(f"unknown ladder kind {parts[3]!r}", lineno)
                ladders.append(
                    LadderSpec(
                        parts[1], int(parts[2]), parts[3], int(parts[4]),
                        int(parts[5]), int(parts[6]),
                    )
                )
            elif parts[0] in ("vars", "clause"):
                formula_lines.append(line)
            else:
                raise FileFormatError(f"unknown directive {parts[0]!r}", lineno)
        except ValueError as e:
            if isinstance(e, FileFormatError):
                raise
            raise FileFormatError(f"malformed line: {line!r}", lineno) from None
    if variant is None or "W" not in consts or "L" not in consts or "U" not in consts:
        raise FileFormatError("metadata misses variant or W/L/U constants")
    if "c" not in openings or "cprime" not in openings:
        raise FileFormatError("metadata misses opening cells")
    formula = parse_formula("\n".join(formula_lines))
    return ReductionMetadata(
        variant=variant,
        w_total=consts["W"],
        unit=consts["U"],
        channel_length=consts["L"],
        common_distance=consts.get("d"),
        c=openings["c"],
        c_prime=openings["cprime"],
        channels=tuple(channels),
        ladders=tuple(ladders),
        formula=formula,
    )
