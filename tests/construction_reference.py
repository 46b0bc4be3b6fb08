"""Construction checks on reverse goal fields, kept as the differential reference.

Before the checks read forward fields only, ``verify_construction`` ran a
reverse BFS from every agent's goal under its sign's two directions
(checks 5 and 8), a reverse BFS from the goal with the clause's channels
blocked (check 6), and a four-direction reverse BFS from every goal
(check 8), each over the whole corridor component.  Its report texts,
failing ones included, are what the library must still produce.  Check 5
also asks, as the library's does, that every interior cell of a channel
be free, so that a route it counts can cross the channel.  Its fields
come from the neighbour tables of ``kernel_reference.TableKernel``.
"""

from gridmapf.core import FOUR_DIRECTIONS
from gridmapf.formula import Side
from gridmapf.reduction import CheckResult, ConstructionReport, _cell_budget
from kernel_reference import TableKernel


def entry_distances(kernel, instance, meta):
    """(clause id, variable) -> moves from the agent's start to the entry
    cell of that variable's channel under the sign's two directions."""
    starts = {a.id: kernel.cid(a.start) for a in instance.agents}
    out = {}
    for c in meta.formula.clauses:
        field = kernel.dist_from(starts[c.id], meta.sign_directions(c.side))
        for v in c.vars:
            channel = meta.channel_by_var(v)
            out[(c.id, v)] = None if channel is None else kernel.at(
                field, meta.entry_cell(c.side, channel)
            )
    return out


def reference_verify_construction(instance, meta):
    checks = []
    agents = {a.id: a for a in instance.agents}
    clauses = meta.formula.clauses
    grid = instance.grid
    kernel = TableKernel(grid)
    at = kernel.at

    def start_field(c):
        return kernel.dist_from(kernel.cid(agents[c.id].start), meta.sign_directions(c.side))

    def goal_field(c):
        return kernel.dist_to(kernel.cid(agents[c.id].goal), meta.sign_directions(c.side))

    # 1. unique start-to-opening distances per sign
    problems = []
    for side in (Side.POSITIVE, Side.NEGATIVE):
        opening = meta.opening(side)
        seen = {}
        for c in clauses:
            if c.side is not side:
                continue
            d = at(start_field(c), opening)
            if d is None:
                problems.append(f"agent {c.id} cannot reach the opening")
            elif d in seen:
                problems.append(
                    f"agents {seen[d]} and {c.id} share opening distance {d}"
                )
            else:
                seen[d] = c.id
    checks.append(CheckResult("unique-opening-distances", not problems, "; ".join(problems)))

    # 2. channels all have length L and identical row spans
    problems = []
    spans = {(ch.top_row, ch.bottom_row) for ch in meta.channels}
    if len(spans) > 1:
        problems.append(f"channel row spans differ: {sorted(spans)}")
    for ch in meta.channels:
        if ch.length != meta.channel_length:
            problems.append(
                f"channel {ch.var} has length {ch.length}, expected {meta.channel_length}"
            )
        for cell in ch.cells():
            if not grid.is_free(cell):
                problems.append(f"channel {ch.var} cell {cell} is not free")
                break
    checks.append(CheckResult("channel-geometry", not problems, "; ".join(problems)))

    # 3. every channel-entry distance is at most L
    problems = []
    entry = entry_distances(kernel, instance, meta)
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

    # 4. openings dominate everything reachable before them
    problems = []
    for side in (Side.POSITIVE, Side.NEGATIVE):
        opening = meta.opening(side)
        dirs = meta.sign_directions(side)
        after = kernel.dist_from(kernel.cid(opening), dirs) if grid.is_free(opening) else None
        for c in clauses:
            if c.side is not side:
                continue
            for cid in kernel.reached_from(kernel.cid(agents[c.id].start), dirs):
                if after is not None and after[cid] > 0:
                    continue
                (cell,) = kernel.cells([cid])
                ok_col = cell.col <= opening.col
                ok_row = cell.row <= opening.row if side is Side.POSITIVE else cell.row >= opening.row
                if not (ok_col and ok_row):
                    problems.append(
                        f"agent {c.id} reaches {cell}, not dominated by opening {opening}"
                    )
                    break
    checks.append(CheckResult("opening-dominates", not problems, "; ".join(problems)))

    # 5. a crossable route through every clause variable's channel, all equal length
    problems = []
    for c in clauses:
        agent = agents[c.id]
        to_goal = goal_field(c)
        total = at(to_goal, agent.start)
        if total is None:
            problems.append(f"agent {c.id} cannot reach its target")
            continue
        for v in c.vars:
            ch = meta.channel_by_var(v)
            if ch is None:
                problems.append(f"variable {v} has no channel")
                continue
            blocked = next((cell for cell in ch.cells() if not grid.is_free(cell)), None)
            if blocked is not None:
                problems.append(f"agent {c.id} cannot cross channel {v} at {blocked}")
                continue
            d1 = entry[(c.id, v)]
            d2 = at(to_goal, meta.exit_cell(c.side, ch))
            if d1 is None or d2 is None:
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
        blocked = []
        for v in c.vars:
            ch = meta.channel_by_var(v)
            if ch is not None:
                blocked += [kernel.cid(cell) for cell in ch.cells() if grid.in_bounds(cell)]
        bypass = kernel.dist_to_avoiding(
            kernel.cid(agent.goal), meta.sign_directions(c.side), blocked
        )
        if bypass[kernel.cid(agent.start)] >= 0:
            problems.append(f"agent {c.id} can bypass its channels")
        for ch in meta.channels:
            if ch.var in c.vars:
                continue
            if at(start_field(c), meta.entry_cell(c.side, ch)) is not None:
                problems.append(f"agent {c.id} can enter foreign channel {ch.var}")
    checks.append(CheckResult("no-channel-bypass", not problems, "; ".join(problems)))

    # 7. construction size within the layout's own bound
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

    # 8. two directions per sign suffice (left moves never help anyone)
    problems = []
    for c in clauses:
        start = agents[c.id].start
        goal = kernel.cid(agents[c.id].goal)
        d_free = at(kernel.dist_to_avoiding(goal, FOUR_DIRECTIONS, ()), start)
        d_sign = at(goal_field(c), start)
        if d_free != d_sign:
            problems.append(
                f"agent {c.id}: unrestricted distance {d_free} beats two-direction {d_sign}"
            )
    checks.append(CheckResult("two-directions-suffice", not problems, "; ".join(problems)))

    return ConstructionReport(tuple(checks))
