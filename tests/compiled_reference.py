"""Full-field oracle tables, kept as the differential reference.

Before goal fields were bounded by each search's own bound, every oracle
lowered its instance with one reverse BFS per goal over the whole
component the goal is reached from, exact on every cell.  This is that
``oracle._Compiled``; it ignores the kernel and the bound that the
library's takes, and builds its own kernel on the same cell ids.
Swapped in for the library's, it must leave every decision, candidate
list and witness of the bounded searches as it was.  Its fields and its
own strict-descent moves, which ``descent_reference`` searches, come
from the neighbour tables of ``kernel_reference``; it also hands the
library's searches the kernel's move offsets, which they read in place
of table rows.
"""

from gridmapf.oracle import _joint_moves
from kernel_reference import TableKernel


class ReferenceCompiled:
    """Instance lowered to integer cell ids with exact goal fields everywhere."""

    def __init__(self, instance, kernel=None, bound=None, full=False):
        kernel = TableKernel(instance.grid)
        dirs = instance.directions
        self.instance = instance
        self.stride = kernel.stride
        self.nbr = kernel.neighbours(dirs)
        self.steps = kernel.steps(dirs)
        self.starts = tuple(kernel.cid(a.start) for a in instance.agents)
        self.goals = tuple(kernel.cid(a.goal) for a in instance.agents)
        self.dist = [kernel.dist_to(goal, dirs) for goal in self.goals]
        self.lengths = [dist[start] for dist, start in zip(self.dist, self.starts)]

    @property
    def lower_bound(self):
        """Sum of the agents' goal distances, or None if a goal is out of reach."""
        return None if min(self.lengths, default=0) < 0 else sum(self.lengths)

    def descent_moves(self, cur, model):
        """Every conflict-free joint move in which each unfinished agent steps
        one cell closer to its goal and each finished agent rests there."""
        active, choices, static_cells = [], [], set()
        for i, (here, goal) in enumerate(zip(cur, self.goals)):
            if here == goal:
                static_cells.add(here)
                continue
            dist = self.dist[i]
            want = dist[here] - 1
            active.append(i)
            choices.append([c for c in self.nbr[here] if dist[c] == want])
        return _joint_moves(cur, active, choices, static_cells, model)
