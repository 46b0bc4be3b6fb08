"""The corridor layout on Cell sets, kept as the differential reference.

Before the compiler wrote its runs into byte masks, it kept every corridor
cell as a ``Cell`` in a set and every legal step between two cells as a
frozenset pair.  ``audit`` probed the right and lower neighbour of every
free cell, and ``layout_grid`` then turned the set into the grid's mask,
rejecting a cell outside the layout.  ``ReferenceLayout`` puts these
behind the interface that ``compile_formula`` uses, so a test can compile
a formula on the reference.
"""

from gridmapf.core import Cell, GridMap
from gridmapf.reduction import LayoutError


class Segments:
    """Free cells built from straight runs, tracking legal adjacencies."""

    def __init__(self):
        self.free = set()
        self.allowed = set()

    def add_run(self, cells):
        prev = None
        for cell in cells:
            self.free.add(cell)
            if prev is not None:
                self.allowed.add(frozenset((prev, cell)))
            prev = cell

    def h_run(self, row, col_lo, col_hi):
        self.add_run([Cell(c, row) for c in range(col_lo, col_hi + 1)])

    def v_run(self, col, row_lo, row_hi):
        self.add_run([Cell(col, r) for r in range(row_lo, row_hi + 1)])

    def audit(self):
        for cell in self.free:
            for other in (Cell(cell.col + 1, cell.row), Cell(cell.col, cell.row + 1)):
                if other in self.free and frozenset((cell, other)) not in self.allowed:
                    raise LayoutError(f"accidental corridor adjacency {cell} / {other}")

    def bad_pairs(self):
        """Every pair that ``audit`` may name, lowest cell (row, then column)
        first and, beside one cell, its right neighbour before the one below."""
        return sorted(
            ((cell.row, cell.col, k), cell, other)
            for cell in self.free
            for k, other in enumerate((Cell(cell.col + 1, cell.row), Cell(cell.col, cell.row + 1)))
            if other in self.free and frozenset((cell, other)) not in self.allowed
        )


def layout_grid(width, height, cells):
    """The grid whose free cells are ``cells``."""
    free = bytearray(width * height)
    for col, row in cells:
        if not (0 <= col < width and 0 <= row < height):
            raise LayoutError(f"corridor cell {Cell(col, row)} outside the {width}x{height} layout")
        free[row * width + col] = 1
    return GridMap.from_mask(width, height, free)


class ReferenceLayout:
    """``Segments`` and ``layout_grid`` behind ``reduction._Layout``'s
    interface: the runs, ``audit``, and ``free`` as the grid's mask."""

    def __init__(self, width, height):
        self.width, self.height = width, height
        self.segments = Segments()
        self.h_run, self.v_run, self.audit = (
            self.segments.h_run, self.segments.v_run, self.segments.audit
        )

    @property
    def free(self):
        return layout_grid(self.width, self.height, self.segments.free).free
