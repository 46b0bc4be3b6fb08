"""Planner tests, including brute-force oracles for path choice and safety."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridmapf.core import (
    AgentTask,
    Cell,
    DOWN_RIGHT,
    GridMap,
    Instance,
    Solution,
    TimedPath,
    VERTEX_EDGE,
    is_individually_optimal,
    lower_bound_cost,
    validate_solution,
)
from gridmapf.oracle import (
    enumerate_individually_optimal,
    exists_individually_optimal,
)
from gridmapf.twodir import (
    SolverStats,
    check_two_directional,
    diagonal_key,
    partition_diagonals,
    solve_two_dir,
)

from planner_reference import (
    MonotonePath,
    library_plan,
    reference_plan,
    reference_solve,
    weakly_above,
)


def region_above(path):
    """Cells of the path plus every cell above one of them (smaller row)."""
    region = set()
    for cell in path.cells:
        for row in range(cell.row + 1):
            region.add(Cell(cell.col, row))
    return region


def all_monotone_paths(grid, blocked, start, goal):
    """Brute-force enumeration of every down/right path, as move strings."""
    results = []

    def rec(cur, moves):
        if cur == goal:
            results.append(moves)
            return
        for letter, nxt in (
            ("R", Cell(cur.col + 1, cur.row)),
            ("D", Cell(cur.col, cur.row + 1)),
        ):
            if (
                nxt.col <= goal.col
                and nxt.row <= goal.row
                and grid.is_free(nxt)
                and nxt not in blocked
            ):
                rec(nxt, moves + letter)

    if grid.is_free(start) and start not in blocked:
        rec(start, "")
    return results


def dr_instance(width, height, tasks, obstacles=()):
    grid = GridMap(width, height, frozenset(Cell(*o) for o in obstacles))
    agents = tuple(AgentTask(i, Cell(*s), Cell(*g)) for i, (s, g) in enumerate(tasks))
    return Instance(grid, agents, DOWN_RIGHT)


class TestCheckAndPartition:
    def test_goal_down_right_ok(self):
        inst = dr_instance(3, 3, [((0, 0), (2, 1))])
        assert check_two_directional(inst)

    def test_goal_left_rejected(self):
        inst = dr_instance(4, 4, [((1, 1), (0, 3))])
        assert not check_two_directional(inst)
        assert solve_two_dir(inst) is None

    def test_start_equals_goal_ok(self):
        inst = dr_instance(3, 3, [((1, 1), (1, 1))])
        assert check_two_directional(inst)

    def test_partition_example(self):
        inst = dr_instance(
            5, 5, [((1, 0), (2, 2)), ((0, 1), (1, 3)), ((3, 0), (4, 2))]
        )
        groups = partition_diagonals(inst)
        keys = [diagonal_key(g[0].start) for g in groups]
        assert keys == [3, 1]
        assert [a.start for a in groups[1]] == [Cell(1, 0), Cell(0, 1)]

    def test_single_agent_single_group(self):
        inst = dr_instance(3, 3, [((0, 0), (2, 2))])
        assert len(partition_diagonals(inst)) == 1

    def test_partition_matches_bruteforce_classes(self):
        rng = random.Random(5)
        for _ in range(10):
            tasks = []
            cells = set()
            while len(tasks) < 10:
                s = (rng.randrange(8), rng.randrange(8))
                if s in cells:
                    continue
                cells.add(s)
                g = (s[0] + rng.randrange(8 - s[0]), s[1] + rng.randrange(8 - s[1]))
                tasks.append((s, g))
            goals = [g for _, g in tasks]
            if len(set(goals)) != len(goals):
                continue
            inst = dr_instance(8, 8, tasks)
            groups = partition_diagonals(inst)
            # direct equivalence-classing on col+row of starts
            classes = {}
            for a in inst.agents:
                classes.setdefault(a.start.col + a.start.row, set()).add(a.id)
            assert {frozenset(a.id for a in grp) for grp in groups} == {
                frozenset(v) for v in classes.values()
            }
            for grp in groups:
                cols = [a.start.col for a in grp]
                assert cols == sorted(cols, reverse=True)


class TestPlanMonotonePath:
    def test_empty_grid_right_first(self):
        p = library_plan(GridMap(3, 2), set(), Cell(0, 0), Cell(2, 1))
        assert p.move_string == "RRD"

    def test_block_forces_early_down(self):
        p = library_plan(GridMap(3, 2), {Cell(2, 0)}, Cell(0, 0), Cell(2, 1))
        assert p.move_string == "RDR"

    def test_both_exits_blocked(self):
        blocked = {Cell(1, 0), Cell(0, 1)}
        assert library_plan(GridMap(2, 2), blocked, Cell(0, 0), Cell(1, 1)) is None

    def test_lexicographic_minimality_random(self):
        rng = random.Random(13)
        for _ in range(200):
            w, h = rng.randrange(2, 6), rng.randrange(2, 6)
            grid = GridMap(w, h)
            start = Cell(0, 0)
            goal = Cell(w - 1, h - 1)
            blocked = {
                Cell(rng.randrange(w), rng.randrange(h)) for _ in range(rng.randrange(4))
            } - {start, goal}
            got = library_plan(grid, blocked, start, goal)
            ref = all_monotone_paths(grid, blocked, start, goal)
            # lexicographic order with Right before Down; None without a path
            best = min(ref, key=lambda m: [0 if ch == "R" else 1 for ch in m], default=None)
            assert (None if got is None else got.move_string) == best

    def test_down_preference_flips_tie_break(self):
        # The down-first reference takes the lowest path, the planner the highest.
        args = (GridMap(3, 3), set(), Cell(0, 0), Cell(2, 2))
        assert reference_plan(*args, right_first=False).move_string == "DDRR"
        assert library_plan(*args).move_string == "RRDD"

    def test_visit_budget_within_bounding_box(self):
        stats = SolverStats()
        grid = GridMap(10, 10)
        library_plan(grid, set(), Cell(0, 0), Cell(9, 9), stats=stats)
        assert stats.visited_cells <= 100


monotone_paths = st.builds(
    lambda start, moves: MonotonePath(
        tuple(
            itertools.accumulate(
                moves,
                lambda c, m: Cell(c.col + 1, c.row) if m else Cell(c.col, c.row + 1),
                initial=Cell(*start),
            )
        )
    ),
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.lists(st.booleans(), max_size=8),
)


class TestPathProperties:
    @given(monotone_paths)
    def test_moves_raise_diagonal_key_by_one(self, p):
        keys = [diagonal_key(c) for c in p.cells]
        assert keys == list(range(keys[0], keys[0] + len(keys)))

    @given(monotone_paths)
    def test_length_is_manhattan(self, p):
        start, end = p.cells[0], p.cells[-1]
        assert len(p.cells) - 1 == (end.col - start.col) + (end.row - start.row)

    @given(monotone_paths, monotone_paths)
    def test_weakly_above_matches_region_definition(self, q, p):
        assert weakly_above(q, p) == set(q.cells).issubset(region_above(p))

    @given(monotone_paths)
    def test_cells_stay_inside_own_bounding_box(self, p):
        start, end = p.cells[0], p.cells[-1]
        for c in p.cells:
            assert start.col <= c.col <= end.col
            assert start.row <= c.row <= end.row


class TestRegionAbove:
    def test_already_closed(self):
        p = MonotonePath((Cell(0, 0), Cell(1, 0), Cell(1, 1)))
        assert region_above(p) == {Cell(0, 0), Cell(1, 0), Cell(1, 1)}

    def test_adds_cell_above(self):
        p = MonotonePath((Cell(0, 0), Cell(0, 1), Cell(1, 1)))
        assert region_above(p) == {Cell(0, 0), Cell(0, 1), Cell(1, 1), Cell(1, 0)}

    @given(monotone_paths)
    def test_size_formula_random(self, p):
        deepest = {}
        for c in p.cells:
            deepest[c.col] = max(deepest.get(c.col, 0), c.row)
        assert len(region_above(p)) == sum(r + 1 for r in deepest.values())


class TestWeaklyAbove:
    def test_forced_true(self):
        q = MonotonePath((Cell(0, 0), Cell(1, 0), Cell(1, 1)))
        p = MonotonePath((Cell(0, 0), Cell(0, 1), Cell(1, 1)))
        assert weakly_above(q, p)
        assert not weakly_above(p, q)

    def test_reflexive(self):
        p = MonotonePath((Cell(0, 0), Cell(1, 0)))
        assert weakly_above(p, p)


class TestSolveTwoDir:
    def test_worked_example(self):
        inst = dr_instance(3, 2, [((1, 0), (2, 1)), ((0, 1), (1, 1))])
        sol = solve_two_dir(inst)
        assert [p.cells for p in sol.paths] == [
            (Cell(1, 0), Cell(2, 0), Cell(2, 1)),
            (Cell(0, 1), Cell(1, 1)),
        ]
        assert is_individually_optimal(inst, sol)

    def test_forced_crossing_is_no(self):
        inst = dr_instance(3, 3, [((1, 0), (1, 2)), ((0, 1), (2, 1))])
        assert solve_two_dir(inst) is None
        assert not exists_individually_optimal(inst).decision

    def test_single_agent_cost_is_manhattan(self):
        inst = dr_instance(5, 5, [((1, 1), (4, 3))])
        sol = solve_two_dir(inst)
        assert sol.flowtime() == 5

    def test_requires_down_right_directions(self):
        from gridmapf.core import FOUR_DIRECTIONS

        grid = GridMap(3, 3)
        inst = Instance(grid, (AgentTask(0, Cell(0, 0), Cell(1, 1)),), FOUR_DIRECTIONS)
        with pytest.raises(ValueError):
            solve_two_dir(inst)

    def test_unreachable_goal_is_no(self):
        inst = dr_instance(
            3, 3, [((0, 0), (2, 2))], obstacles=[(2, 1), (1, 2), (2, 0), (0, 2)]
        )
        assert solve_two_dir(inst) is None

    def test_start_equals_goal_blocks_cell(self):
        # the parked agent sits on the only corridor of the second agent
        inst = dr_instance(
            3, 2,
            [((1, 0), (1, 0)), ((0, 0), (2, 0))],
            obstacles=[(0, 1), (1, 1), (2, 1)],
        )
        assert solve_two_dir(inst) is None

    def test_right_preference_regression(self):
        # three agents on one anti-diagonal; planning high (right-first)
        # leaves room below, planning low (down-first) walls off the last
        # agent.  One extra obstacle turns the instance into a genuine no.
        base = dr_instance(
            4, 4,
            [((2, 0), (3, 0)), ((1, 1), (2, 2)), ((0, 2), (1, 2))],
            obstacles=[(0, 0)],
        )
        sol = solve_two_dir(base)
        assert sol is not None
        assert is_individually_optimal(base, sol)
        assert exists_individually_optimal(base).decision
        assert reference_solve(base, right_first=False) is None

        mutated = dr_instance(
            4, 4,
            [((2, 0), (3, 0)), ((1, 1), (2, 2)), ((0, 2), (1, 2))],
            obstacles=[(0, 0), (2, 1)],
        )
        assert solve_two_dir(mutated) is None
        assert reference_solve(mutated, right_first=False) is None
        assert not exists_individually_optimal(mutated).decision

    def test_solution_weakly_above_all_alternatives(self):
        rng = random.Random(31)
        checked = 0
        while checked < 40:
            tasks = []
            used_s, used_g = set(), set()
            for _ in range(rng.randrange(1, 4)):
                s = (rng.randrange(4), rng.randrange(4))
                g = (
                    s[0] + rng.randrange(4 - s[0]),
                    s[1] + rng.randrange(4 - s[1]),
                )
                if s in used_s or g in used_g:
                    continue
                used_s.add(s)
                used_g.add(g)
                tasks.append((s, g))
            if not tasks:
                continue
            inst = dr_instance(4, 4, tasks)
            sol = solve_two_dir(inst)
            if sol is None:
                continue
            checked += 1
            alternatives = enumerate_individually_optimal(inst, limit=100)
            for alt in alternatives:
                for mine, other in zip(sol.paths, alt.paths):
                    assert weakly_above(
                        MonotonePath(mine.cells), MonotonePath(other.cells)
                    )

    def test_same_diagonal_conflict_iff_shared_cell(self):
        rng = random.Random(37)
        grid = GridMap(6, 6)
        for _ in range(100):
            key = rng.randrange(3, 8)
            starts = []
            for col in range(max(0, key - 5), min(6, key + 1)):
                starts.append(Cell(col, key - col))
            rng.shuffle(starts)
            if len(starts) < 2:
                continue
            picked = starts[:2]
            paths = []
            for s in picked:
                g = Cell(
                    s.col + rng.randrange(6 - s.col), s.row + rng.randrange(6 - s.row)
                )
                p = reference_plan(grid, set(), s, g, right_first=rng.random() < 0.5)
                paths.append(p)
            ends = [(p.cells[0], p.cells[-1]) for p in paths]
            if ends[0][1] == ends[1][1]:
                continue
            agents = tuple(AgentTask(i, s, g) for i, (s, g) in enumerate(ends))
            inst = Instance(grid, agents, DOWN_RIGHT)
            report = validate_solution(
                inst,
                SolutionFromPaths(paths),
                VERTEX_EDGE,
            )
            shares = bool(set(paths[0].cells) & set(paths[1].cells))
            assert report.ok == (not shares)
            assert "edge" not in report.kinds()

    def test_cross_diagonal_conflicts_only_at_right_goal(self):
        rng = random.Random(41)
        grid = GridMap(5, 5)
        for _ in range(200):
            s1 = Cell(rng.randrange(4), rng.randrange(4))
            s2 = Cell(rng.randrange(4), rng.randrange(4))
            if diagonal_key(s1) == diagonal_key(s2):
                continue
            g1 = Cell(s1.col + rng.randrange(5 - s1.col), s1.row + rng.randrange(5 - s1.row))
            g2 = Cell(s2.col + rng.randrange(5 - s2.col), s2.row + rng.randrange(5 - s2.row))
            if s1 == s2 or g1 == g2:
                continue
            p1 = reference_plan(grid, set(), s1, g1, right_first=rng.random() < 0.5)
            p2 = reference_plan(grid, set(), s2, g2, right_first=rng.random() < 0.5)
            inst = Instance(
                grid,
                (AgentTask(0, s1, g1), AgentTask(1, s2, g2)),
                DOWN_RIGHT,
            )
            report = validate_solution(inst, SolutionFromPaths([p1, p2]), VERTEX_EDGE)
            right_goal = g1 if diagonal_key(s1) > diagonal_key(s2) else g2
            for conflict in report.conflicts:
                assert conflict.kind == "vertex"
                assert conflict.cells == (right_goal,)

    def test_agreement_with_oracle_on_dense_random_instances(self):
        # denser obstacles and more agents than the exhaustive families
        rng = random.Random(61)
        yes = no = 0
        for _ in range(800):
            obstacles = {
                (rng.randrange(6), rng.randrange(6)) for _ in range(rng.randrange(8))
            }
            tasks = []
            used_s, used_g = set(), set()
            for _ in range(rng.randrange(1, 5)):
                s = (rng.randrange(6), rng.randrange(6))
                g = (s[0] + rng.randrange(6 - s[0]), s[1] + rng.randrange(6 - s[1]))
                if s in used_s or g in used_g or s in obstacles or g in obstacles:
                    continue
                used_s.add(s)
                used_g.add(g)
                tasks.append((s, g))
            if not tasks:
                continue
            inst = dr_instance(6, 6, tasks, obstacles=obstacles)
            sol = solve_two_dir(inst)
            assert (sol is not None) == exists_individually_optimal(inst).decision
            if sol is None:
                no += 1
            else:
                yes += 1
                assert validate_solution(inst, sol, VERTEX_EDGE).ok
                assert sol.flowtime() == lower_bound_cost(inst)
        assert yes and no  # both outcomes exercised

    def test_visited_cells_linear_budget(self):
        rng = random.Random(43)
        for _ in range(20):
            tasks = []
            used_s, used_g = set(), set()
            while len(tasks) < 6:
                s = (rng.randrange(8), rng.randrange(8))
                g = (s[0] + rng.randrange(8 - s[0]), s[1] + rng.randrange(8 - s[1]))
                if s in used_s or g in used_g:
                    continue
                used_s.add(s)
                used_g.add(g)
                tasks.append((s, g))
            inst = dr_instance(8, 8, tasks)
            stats = SolverStats()
            solve_two_dir(inst, stats=stats)
            assert stats.visited_cells <= len(tasks) * 64


def SolutionFromPaths(paths):
    return Solution(tuple(TimedPath(p.cells) for p in paths))
