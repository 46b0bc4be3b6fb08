"""The solution reader and writer as they were before they walked cell ids.

``reference_read_solution`` builds one ``Cell`` and tests one step per
letter, in order, so its first error is the first failing step by
construction.  ``test_files`` requires the library's reader to give the
same ``Solution`` or the same error text, apart from the ``line N: ``
prefix the library adds to move errors, and its writer the same text.
"""

from gridmapf.core import Cell, Direction, Instance, Solution, TimedPath
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
