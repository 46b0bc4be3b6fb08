"""ASCII and SVG renderings of instances, solutions, and compiled layouts.

Both renderers are deterministic byte for byte.  Start cells are drawn
filled and target cells unfilled; with layout metadata the SVG also tags
variable channels, the opening cells, and the ladder connectors.
"""

from __future__ import annotations

from typing import Optional

from .core import Cell, Instance, Solution
from .reduction import ReductionMetadata, agents_by_clause

# Side of one cell in the SVG drawing, in pixels.
_CELL_PX = 12
_TEAM_COLORS = {"+": "#2ca02c", "-": "#d62728"}
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _agent_color(instance: Instance, idx: int) -> str:
    team = instance.agents[idx].team
    if team in _TEAM_COLORS:
        return _TEAM_COLORS[team]
    return _PALETTE[idx % len(_PALETTE)]


def render_ascii(instance: Instance, solution: Optional[Solution] = None) -> str:
    """One character per cell: '@' obstacle, '.' free, '*' path overlay.

    A single agent is marked 's'/'g'; with several agents, starts show the
    agent's index digit and goals the matching uppercase letter (A for the
    first agent, B for the second, ...).
    """
    grid = instance.grid
    rows = [
        ["." if grid.is_free(Cell(c, r)) else "@" for c in range(grid.width)]
        for r in range(grid.height)
    ]
    if solution is not None:
        for path in solution.paths:
            for cell in path.cells[1:-1]:
                rows[cell.row][cell.col] = "*"
    single = instance.num_agents == 1
    for i, agent in enumerate(instance.agents):
        gmark = "g" if single else chr(ord("A") + i % 26)
        rows[agent.goal.row][agent.goal.col] = gmark
    for i, agent in enumerate(instance.agents):
        smark = "s" if single else str(i % 10)
        rows[agent.start.row][agent.start.col] = smark
    return "\n".join("".join(r) for r in rows) + "\n"


def _rect(col: int, row: int, col_hi: int, row_hi: int, fill: str, cls: str = "") -> str:
    """The rect over columns ``col..col_hi`` and rows ``row..row_hi``."""
    cls_attr = f' class="{cls}"' if cls else ""
    return (
        f'<rect{cls_attr} x="{col * _CELL_PX}" y="{row * _CELL_PX}" '
        f'width="{(col_hi - col + 1) * _CELL_PX}" height="{(row_hi - row + 1) * _CELL_PX}" '
        f'fill="{fill}" />'
    )


def _layout_boxes(instance: Instance, metadata: ReductionMetadata) -> list[tuple]:
    """The channel, ladder and opening boxes of ``metadata``, as ``_rect``
    arguments.  Raises ``ValueError`` when its clauses are not the
    instance's agents or one of its boxes lies off the grid."""
    agents_by_clause(instance, metadata)
    boxes = [
        (ch.col, ch.top_row, ch.col, ch.bottom_row, "#ffe680", "channel")
        for ch in metadata.channels
    ]
    for lad in metadata.ladders:
        if lad.kind == "v":
            boxes.append((lad.fixed, lad.lo, lad.fixed, lad.hi, "#ccf2f2", "ladder"))
        else:
            boxes.append((lad.lo, lad.fixed, lad.hi, lad.fixed, "#ccf2f2", "ladder"))
    for name, cell in (("c", metadata.c), ("cprime", metadata.c_prime)):
        boxes.append((*cell, *cell, "#f9c6f9", f"opening opening-{name}"))
    grid = instance.grid
    for col, row, col_hi, row_hi, _, cls in boxes:
        if col < 0 or row < 0 or col_hi >= grid.width or row_hi >= grid.height:
            raise ValueError(
                f"metadata does not match the instance: {cls.split()[0]} at columns "
                f"{col}..{col_hi}, rows {row}..{row_hi} lies off the "
                f"{grid.width}x{grid.height} grid"
            )
    return boxes


def render_svg(
    instance: Instance,
    solution: Optional[Solution] = None,
    metadata: Optional[ReductionMetadata] = None,
) -> str:
    """The instance as SVG, ``_CELL_PX`` pixels per cell.  Raises
    ``ValueError`` when ``metadata`` does not fit the instance."""
    grid = instance.grid
    w, h = grid.width * _CELL_PX, grid.height * _CELL_PX
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="#ffffff" />',
    ]
    for row in range(grid.height):
        for col in range(grid.width):
            if not grid.is_free(Cell(col, row)):
                parts.append(_rect(col, row, col, row, "#3b3b3b"))
    if metadata is not None:
        parts += [_rect(*box) for box in _layout_boxes(instance, metadata)]

    if solution is not None:
        for i, path in enumerate(solution.paths):
            color = _agent_color(instance, i)
            points = " ".join(
                f"{cell.col * _CELL_PX + _CELL_PX / 2},{cell.row * _CELL_PX + _CELL_PX / 2}"
                for cell in path.cells
            )
            parts.append(
                f'<polyline class="path" points="{points}" fill="none" '
                f'stroke="{color}" stroke-width="{_CELL_PX / 4}" opacity="0.6" />'
            )

    radius = _CELL_PX * 0.35
    for i, agent in enumerate(instance.agents):
        color = _agent_color(instance, i)
        cx = agent.start.col * _CELL_PX + _CELL_PX / 2
        cy = agent.start.row * _CELL_PX + _CELL_PX / 2
        parts.append(
            f'<circle class="start" cx="{cx}" cy="{cy}" r="{radius}" fill="{color}" />'
        )
        gx = agent.goal.col * _CELL_PX + _CELL_PX / 2
        gy = agent.goal.row * _CELL_PX + _CELL_PX / 2
        parts.append(
            f'<circle class="goal" cx="{gx}" cy="{gy}" r="{radius}" fill="none" '
            f'stroke="{color}" stroke-width="2" />'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render(
    instance: Instance,
    solution: Optional[Solution] = None,
    fmt: str = "ascii",
    metadata: Optional[ReductionMetadata] = None,
) -> str:
    """The instance in ``fmt``.  In either format, raises ``ValueError``
    when ``metadata`` does not fit the instance; only the SVG draws it."""
    if fmt == "ascii":
        if metadata is not None:
            _layout_boxes(instance, metadata)
        return render_ascii(instance, solution)
    if fmt == "svg":
        return render_svg(instance, solution, metadata)
    raise ValueError(f"unknown render format {fmt!r}")
