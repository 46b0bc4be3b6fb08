"""Neighbour tables and the BFS over them, kept as the differential reference.

Before moves became id offsets on a framed grid, the kernel built one
tuple per free cell for each direction set, holding its free neighbours
after a bounds check on the column and the row, and ran every BFS over
those tables.  ``TableKernel`` is that kernel: its tables hold the
kernel's framed ids, so its fields index like the library's, but it
reads the grid's own bounds and mask and never the frame, so a frame
that fails to close a row or a column shows as a difference.

``reference_bfs`` is a BFS over ``Cell``s, and ``shortest_dist_field``
the table BFS's move counts to a goal keyed by ``Cell``: the distances
that tests outside the kernel's check against.
"""

from collections import deque

from gridmapf.core import Cell, _GridKernel


def reference_bfs(grid, source, steps):
    """Move counts from ``source`` to every reachable free cell."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        cur = queue.popleft()
        for dc, dr in steps:
            nxt = Cell(cur.col + dc, cur.row + dr)
            if grid.is_free(nxt) and nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return dist


def table_bfs(table, source, dist):
    """Breadth-first search from ``source`` over ``table``, writing move counts
    into the entries of ``dist`` that hold -1; returns the ids reached in order."""
    dist[source] = 0
    order = [source]
    for cur in order:
        d = dist[cur] + 1
        for nxt in table[cur]:
            if dist[nxt] == -1:
                dist[nxt] = d
                order.append(nxt)
    return order


class TableKernel:
    """The kernel's ids, with neighbour tables and memoized table-BFS fields."""

    def __init__(self, grid):
        self.grid = grid
        ids = _GridKernel(grid)
        self.size, self.cid, self.cells, self.at = len(ids.free), ids.cid, ids.cells, ids.at
        self.steps, self.stride = ids.steps, ids.stride
        self._tables = {}
        self._fields = {}

    def neighbours(self, dirs, reverse=False):
        """Per framed id, the free ids one move away under ``dirs`` (or, with
        ``reverse``, one move back), in canonical direction order; blocked
        and frame ids get an empty row."""
        key = (dirs.moves, reverse)
        if key not in self._tables:
            sign = -1 if reverse else 1
            table = [()] * self.size
            for col, row in self.grid.free_cells():
                near = (Cell(col + sign * dc, row + sign * dr) for dc, dr in dirs._steps)
                table[self.cid(Cell(col, row))] = tuple(
                    self.cid(c) for c in near if self.grid.is_free(c)
                )
            self._tables[key] = table
        return self._tables[key]

    def _field(self, source, dirs, reverse):
        key = (dirs.moves, source, reverse)
        if key not in self._fields:
            dist = [-1] * self.size
            self._fields[key] = (dist, table_bfs(self.neighbours(dirs, reverse), source, dist))
        return self._fields[key]

    def dist_to(self, goal, dirs):
        return self._field(goal, dirs, True)[0]

    def dist_from(self, start, dirs):
        return self._field(start, dirs, False)[0]

    def reached_from(self, start, dirs):
        return self._field(start, dirs, False)[1]

    def dist_to_avoiding(self, goal, dirs, blocked):
        """Move count from every cell to ``goal`` under ``dirs``, with the
        ``blocked`` ids treated as obstacles (negative where unreached)."""
        dist = [-1] * self.size
        for cid in blocked:
            dist[cid] = -2
        if dist[goal] == -1:
            table_bfs(self.neighbours(dirs, reverse=True), goal, dist)
        return dist


def shortest_dist_field(grid, goal, dirs):
    """Move count to ``goal`` under ``dirs`` from every cell that reaches it,
    keyed by ``Cell`` in BFS order: a table BFS over reversed moves."""
    if not grid.is_free(goal):
        raise ValueError(f"goal {goal} is not a free cell of the grid")
    kernel = TableKernel(grid)
    dist, order = kernel._field(kernel.cid(goal), dirs, True)
    return dict(zip(kernel.cells(order), [dist[cid] for cid in order]))
