"""The solution reader, writer and validator as they were before they
worked on cell ids.

``reference_read_solution`` builds one ``Cell`` and tests one step per
letter, in order, so its first error is the first failing step by
construction.  ``test_files`` requires the library's reader to give the
same ``Solution`` or the same error text, apart from the ``line N: ``
prefix the library adds to move errors, and its writer the same text.
``reference_validate`` compares every pair of agents at every step,
O(T * N^2), on ``Cell``s, and classifies single-agent steps through the
``Direction`` Enum; ``test_validator`` requires the library's validator
to return the same conflicts apart from cycles, or the same error.
"""

from gridmapf.core import (
    Cell,
    Conflict,
    ConflictReport,
    Direction,
    Instance,
    Solution,
    TimedPath,
    _team_assignment_ok,
)
from gridmapf.files import FileFormatError

_STEP_LETTERS = {d.value: d.letter for d in Direction}
_LETTER_STEPS = {letter: step for step, letter in _STEP_LETTERS.items()}


def reference_write_solution(instance: Instance, solution: Solution) -> str:
    lines = []
    for agent, path in zip(instance.agents, solution.paths):
        moves = []
        for a, b in zip(path.cells, path.cells[1:]):
            letter = _STEP_LETTERS.get((b.col - a.col, b.row - a.row))
            if letter is None:
                raise ValueError(f"agent {agent.id}: {a} -> {b} is not a single step")
            moves.append(letter)
        lines.append(f"agent {agent.id} {''.join(moves) or '-'}")
    return "\n".join(lines) + "\n"


def reference_read_solution(text: str, instance: Instance) -> Solution:
    by_id: dict[int, str] = {}
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
        by_id[aid] = "" if parts[2] == "-" else parts[2]
    paths = []
    allowed = {*instance.directions._steps, Direction.WAIT.value}
    grid = instance.grid
    free, w, h = grid.free, grid.width, grid.height
    for agent in instance.agents:
        if agent.id not in by_id:
            raise FileFormatError(f"missing moves for agent {agent.id}")
        cells = [agent.start]
        for t, letter in enumerate(by_id[agent.id], start=1):
            step = _LETTER_STEPS.get(letter)
            if step is None:
                raise FileFormatError(f"agent {agent.id}: bad move {letter!r} at step {t}")
            if step not in allowed:
                raise FileFormatError(
                    f"agent {agent.id}: move {letter} at step {t} not in the "
                    f"instance direction set"
                )
            col, row = cells[-1].col + step[0], cells[-1].row + step[1]
            nxt = Cell(col, row)
            if not (0 <= col < w and 0 <= row < h and free[row * w + col]):
                raise FileFormatError(
                    f"agent {agent.id}: step {t} moves into {nxt}, which is not free"
                )
            cells.append(nxt)
        paths.append(TimedPath.from_cells(cells))
    extra = set(by_id) - {a.id for a in instance.agents}
    if extra:
        raise FileFormatError(f"unknown agent ids {sorted(extra)}")
    return Solution(tuple(paths))


def reference_direction_between(a, b):
    delta = (b.col - a.col, b.row - a.row)
    for d in Direction:
        if d.value == delta:
            return d
    return None


def reference_validate(instance, solution, model):
    """The pairwise O(T * N^2) validator, without cycle conflicts."""
    if len(solution.paths) != instance.num_agents:
        raise ValueError(
            f"solution has {len(solution.paths)} paths for {instance.num_agents} agents"
        )
    for agent, path in zip(instance.agents, solution.paths):
        if path.start != agent.start:
            raise ValueError(f"agent {agent.id}: path starts at {path.start}, not {agent.start}")
    if instance.teams is None:
        for agent, path in zip(instance.agents, solution.paths):
            if path.end != agent.goal:
                raise ValueError(f"agent {agent.id}: path ends at {path.end}, not {agent.goal}")
    else:
        problem = _team_assignment_ok(instance, solution)
        if problem is not None:
            raise ValueError(problem)

    conflicts = []
    ids = [a.id for a in instance.agents]
    paths = solution.paths
    n = len(paths)
    horizon = max((len(p.cells) for p in paths), default=1)

    for idx, path in enumerate(paths):
        for t, cell in enumerate(path.cells):
            if not instance.grid.is_free(cell):
                conflicts.append(Conflict(t, "illegal-step", (ids[idx],), (cell,)))
        for t in range(1, len(path.cells)):
            a, b = path.cells[t - 1], path.cells[t]
            d = reference_direction_between(a, b)
            if d is None:
                conflicts.append(Conflict(t, "illegal-step", (ids[idx],), (a, b)))
            elif d is Direction.WAIT:
                if not instance.directions.waits_allowed:
                    conflicts.append(Conflict(t, "illegal-step", (ids[idx],), (a,)))
            elif d not in instance.directions:
                conflicts.append(Conflict(t, "illegal-step", (ids[idx],), (a, b)))

    for t in range(horizon):
        here = [p.at(t) for p in paths]
        if model.forbid_vertex:
            seen = {}
            for i, cell in enumerate(here):
                if cell in seen:
                    conflicts.append(Conflict(t, "vertex", (ids[seen[cell]], ids[i]), (cell,)))
                else:
                    seen[cell] = i
        if t == 0:
            continue
        prev = [p.at(t - 1) for p in paths]
        if model.forbid_edge:
            for i in range(n):
                for j in range(i + 1, n):
                    if prev[i] != here[i] and here[i] == prev[j] and here[j] == prev[i]:
                        conflicts.append(Conflict(t, "edge", (ids[i], ids[j]), (prev[i], here[i])))
        if model.forbid_following:
            for i in range(n):
                if here[i] == prev[i]:
                    continue
                for j in range(n):
                    if j != i and here[i] == prev[j] and here[j] != prev[j]:
                        conflicts.append(Conflict(t, "following", (ids[i], ids[j]), (here[i],)))
    return ConflictReport(tuple(conflicts))
