"""Domain model tests: grids, distance fields, conflicts, objectives."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridmapf import core
from gridmapf.core import (
    AgentTask,
    ALL_CONFLICTS,
    Cell,
    ConflictModel,
    Direction,
    DirectionSet,
    DOWN_RIGHT,
    FOUR_DIRECTIONS,
    GridMap,
    Instance,
    Solution,
    TimedPath,
    VERTEX_EDGE,
    is_individually_optimal,
    lower_bound_cost,
    validate_solution,
)

from kernel_reference import reference_bfs, shortest_dist_field


def reference_neighbors(grid, cell, dirs):
    """Free cells reachable from ``cell`` in one motion step (waits excluded),
    one direction at a time on ``Cell``s."""
    if not grid.is_free(cell):
        raise ValueError(f"{cell} is not a free cell of the grid")
    result = []
    for d in dirs.ordered():
        nxt = d.apply(cell)
        if grid.is_free(nxt):
            result.append(nxt)
    return result


def neighbors(grid, cell, dirs):
    """The library's neighbours of ``cell``: ``_GridKernel.steps`` offsets
    from its framed id, kept where ``GridMap._framed`` is free.  A cell that
    mask marks blocked is a ``ValueError``, as in the reference."""
    kernel = core._GridKernel(grid)
    here = kernel.cid(cell)
    if not grid._framed[here]:
        raise ValueError(f"{cell} is not a free cell of the grid")
    return list(kernel.cells(c for off in kernel.steps(dirs) if grid._framed[c := here + off]))


class TestGridBasics:
    def test_obstacle_outside_grid_rejected(self):
        with pytest.raises(ValueError):
            GridMap(2, 2, frozenset({Cell(2, 0)}))

    def test_free_count(self):
        grid = GridMap(3, 3, frozenset({Cell(1, 1), Cell(2, 2)}))
        assert grid.free_count == 7

    def test_direction_set_letters_roundtrip(self):
        assert DirectionSet.from_letters("dr").letters == "DR"
        assert DirectionSet.from_letters("UDR").letters == "UDR"
        with pytest.raises(ValueError):
            DirectionSet.from_letters("X")


class TestNeighbors:
    def test_center_down_right(self):
        grid = GridMap(3, 3)
        assert neighbors(grid, Cell(1, 1), DOWN_RIGHT) == [Cell(1, 2), Cell(2, 1)]

    def test_single_cell_grid(self):
        assert neighbors(GridMap(1, 1), Cell(0, 0), FOUR_DIRECTIONS) == []

    def test_obstacle_removed(self):
        grid = GridMap(3, 3, frozenset({Cell(2, 1)}))
        assert neighbors(grid, Cell(1, 1), DOWN_RIGHT) == [Cell(1, 2)]

    def test_obstacle_cell_rejected(self):
        grid = GridMap(3, 3, frozenset({Cell(1, 1)}))
        with pytest.raises(ValueError):
            neighbors(grid, Cell(1, 1), DOWN_RIGHT)

    @given(
        size=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        blocked=st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4))),
        letters=st.sets(st.sampled_from("UDLR"), min_size=1),
    )
    def test_library_neighbours_match_the_reference(self, size, blocked, letters):
        width, height = size
        grid = GridMap(
            width, height, frozenset(Cell(c, r) for c, r in blocked if c < width and r < height)
        )
        dirs = DirectionSet.from_letters("".join(sorted(letters)))
        for cell in grid.free_cells():
            assert neighbors(grid, cell, dirs) == reference_neighbors(grid, cell, dirs)


class TestDistanceField:
    def test_monotone_unobstructed_is_manhattan(self):
        field = shortest_dist_field(GridMap(4, 4), Cell(2, 1), DOWN_RIGHT)
        assert field[Cell(0, 0)] == 3

    def test_goal_distance_zero(self):
        field = shortest_dist_field(GridMap(4, 4), Cell(2, 1), DOWN_RIGHT)
        assert field[Cell(2, 1)] == 0

    def test_blocked_corridor_unreachable(self):
        grid = GridMap(3, 1, frozenset({Cell(1, 0)}))
        field = shortest_dist_field(grid, Cell(2, 0), DirectionSet.from_letters("R"))
        assert Cell(0, 0) not in field

    @given(
        goal=st.tuples(st.integers(0, 5), st.integers(0, 5)),
        source=st.tuples(st.integers(0, 5), st.integers(0, 5)),
    )
    def test_down_right_field_is_manhattan_or_unreachable(self, goal, source):
        grid = GridMap(6, 6)
        field = shortest_dist_field(grid, Cell(*goal), DOWN_RIGHT)
        src, dst = Cell(*source), Cell(*goal)
        if dst.col >= src.col and dst.row >= src.row:
            assert field[src] == (dst.col - src.col) + (dst.row - src.row)
        else:
            assert src not in field

    def test_matches_reference_bfs_with_obstacles(self):
        rng = random.Random(7)
        for _ in range(25):
            obstacles = frozenset(
                Cell(rng.randrange(6), rng.randrange(6)) for _ in range(8)
            )
            grid = GridMap(6, 6, obstacles)
            free = [c for c in grid.free_cells()]
            goal = rng.choice(free)
            field = shortest_dist_field(grid, goal, FOUR_DIRECTIONS)
            for src in free:
                assert field.get(src) == reference_bfs(grid, src, FOUR_DIRECTIONS._steps).get(goal)


def path(*cells):
    return TimedPath(tuple(Cell(*c) for c in cells))


class TestValidateSolution:
    def setup_method(self):
        self.grid = GridMap(4, 4)

    def instance(self, *tasks, dirs=FOUR_DIRECTIONS):
        agents = tuple(AgentTask(i, Cell(*s), Cell(*g)) for i, (s, g) in enumerate(tasks))
        return Instance(self.grid, agents, dirs)

    def test_edge_conflict_on_swap(self):
        inst = self.instance(((0, 0), (1, 0)), ((1, 0), (0, 0)))
        sol = Solution((path((0, 0), (1, 0)), path((1, 0), (0, 0))))
        report = validate_solution(inst, sol)
        assert report.kinds() == {"edge"}

    def test_vertex_conflict_same_cell(self):
        inst = self.instance(((0, 0), (1, 0)), ((2, 0), (2, 1)))
        sol = Solution(
            (path((0, 0), (1, 0)), path((2, 0), (1, 0), (1, 1), (2, 1)))
        )
        report = validate_solution(inst, sol)
        assert "vertex" in report.kinds()

    def test_following_conflict_only_in_strict_model(self):
        inst = self.instance(((0, 0), (2, 0)), ((1, 0), (1, 1)))
        sol = Solution(
            (path((0, 0), (1, 0), (2, 0)), path((1, 0), (1, 1)))
        )
        assert validate_solution(inst, sol, VERTEX_EDGE).ok
        strict = validate_solution(inst, sol, ALL_CONFLICTS)
        assert strict.kinds() == {"following"}

    def test_cycle_conflict_detected(self):
        inst = self.instance(
            ((0, 0), (1, 0)), ((1, 0), (1, 1)), ((1, 1), (0, 1)), ((0, 1), (0, 0))
        )
        sol = Solution(
            (
                path((0, 0), (1, 0)),
                path((1, 0), (1, 1)),
                path((1, 1), (0, 1)),
                path((0, 1), (0, 0)),
            )
        )
        assert validate_solution(inst, sol, VERTEX_EDGE).ok
        report = validate_solution(inst, sol, ConflictModel(forbid_cycle=True))
        assert "cycle" in report.kinds()

    def test_duplicate_goals_rejected_at_construction(self):
        with pytest.raises(ValueError):
            self.instance(((0, 0), (0, 0)), ((0, 1), (0, 0)))

    def test_stay_at_target_padding_conflicts(self):
        inst = self.instance(((0, 0), (1, 0)), ((3, 0), (2, 0)))
        a = path((0, 0), (1, 0))
        b = path((3, 0), (2, 0), (1, 0), (2, 0))  # drives through parked agent
        report = validate_solution(inst, Solution((a, b)))
        assert "vertex" in report.kinds()

    def test_illegal_direction_reported(self):
        inst = self.instance(((0, 1), (0, 0)), dirs=DOWN_RIGHT)
        sol = Solution((path((0, 1), (0, 0)),))
        report = validate_solution(inst, sol)
        assert report.kinds() == {"illegal-step"}

    def test_teleport_reported_as_illegal_step(self):
        report = validate_solution(
            self.instance(((0, 0), (3, 3))),
            Solution((TimedPath((Cell(0, 0), Cell(3, 3))),)),
        )
        assert report.kinds() == {"illegal-step"}

    def test_shape_mismatch_raises(self):
        inst = self.instance(((0, 0), (1, 1)))
        with pytest.raises(ValueError):
            validate_solution(inst, Solution(()))

    def test_conflicts_symmetric_in_agent_order(self):
        rng = random.Random(11)
        for _ in range(30):
            cells = [Cell(rng.randrange(4), rng.randrange(4)) for _ in range(2)]
            if cells[0] == cells[1]:
                continue
            paths = []
            for start in cells:
                cur, seq = start, [start]
                for _ in range(rng.randrange(5)):
                    nxt = rng.choice(
                        [d.apply(cur) for d in Direction]
                    )
                    if self.grid.is_free(nxt):
                        cur = nxt
                        seq.append(cur)
                paths.append(TimedPath.from_cells(seq))
            if paths[0].end == paths[1].end or paths[0].start == paths[1].start:
                continue
            inst_a = Instance(
                self.grid,
                (
                    AgentTask(0, paths[0].start, paths[0].end),
                    AgentTask(1, paths[1].start, paths[1].end),
                ),
                FOUR_DIRECTIONS,
            )
            inst_b = Instance(
                self.grid,
                (
                    AgentTask(0, paths[1].start, paths[1].end),
                    AgentTask(1, paths[0].start, paths[0].end),
                ),
                FOUR_DIRECTIONS,
            )
            fwd = validate_solution(inst_a, Solution(tuple(paths)), ALL_CONFLICTS)
            rev = validate_solution(inst_b, Solution(tuple(reversed(paths))), ALL_CONFLICTS)
            assert fwd.ok == rev.ok

    def test_model_monotonicity_random_paths(self):
        # clean under a model => clean under any model forbidding a subset
        rng = random.Random(47)
        weak_models = [
            VERTEX_EDGE,
            ConflictModel(forbid_following=True),
            ConflictModel(forbid_cycle=True),
        ]
        for _ in range(60):
            paths = []
            for start in (Cell(0, 0), Cell(3, 3)):
                cur, seq = start, [start]
                for _ in range(rng.randrange(6)):
                    step = rng.choice(list(Direction))
                    nxt = step.apply(cur)
                    if self.grid.is_free(nxt):
                        cur = nxt
                        seq.append(cur)
                paths.append(TimedPath.from_cells(seq))
            if paths[0].start == paths[1].start or paths[0].end == paths[1].end:
                continue
            inst = Instance(
                self.grid,
                (
                    AgentTask(0, paths[0].start, paths[0].end),
                    AgentTask(1, paths[1].start, paths[1].end),
                ),
                FOUR_DIRECTIONS,
            )
            sol = Solution(tuple(paths))
            if validate_solution(inst, sol, ALL_CONFLICTS).ok:
                for weaker in weak_models:
                    assert weaker.forbids_subset_of(ALL_CONFLICTS)
                    assert validate_solution(inst, sol, weaker).ok

    def test_weaker_model_reports_subset(self):
        # any solution clean under a model stays clean under weaker models
        inst = self.instance(((0, 0), (2, 0)), ((1, 0), (1, 1)))
        sol = Solution((path((0, 0), (1, 0), (2, 0)), path((1, 0), (1, 1))))
        strict = validate_solution(inst, sol, ALL_CONFLICTS)
        weak = validate_solution(inst, sol, VERTEX_EDGE)
        assert not strict.ok and weak.ok
        assert VERTEX_EDGE.forbids_subset_of(ALL_CONFLICTS)


class TestObjectives:
    def test_flowtime_and_makespan(self):
        sol = Solution(
            (path((0, 0), (1, 0), (2, 0), (3, 0)), path((0, 1), (1, 1), (2, 1)))
        )
        assert sol.flowtime() == 5
        assert sol.makespan() == 3

    def test_agent_already_at_goal(self):
        sol = Solution((path((0, 0)),))
        assert sol.flowtime() == 0
        assert sol.makespan() == 0

    def test_three_agents(self):
        sol = Solution(
            (
                path((0, 0), (1, 0)),
                path((0, 1), (1, 1)),
                path((0, 2), (1, 2), (2, 2), (3, 2), (3, 3)),
            )
        )
        assert sol.flowtime() == 6
        assert sol.makespan() == 4


class TestLowerBound:
    def test_two_crossing_agents(self):
        inst = Instance(
            GridMap(3, 3),
            (
                AgentTask(0, Cell(0, 0), Cell(2, 0)),
                AgentTask(1, Cell(1, 0), Cell(1, 2)),
            ),
            FOUR_DIRECTIONS,
        )
        assert lower_bound_cost(inst) == 4

    def test_all_agents_at_goal(self):
        inst = Instance(
            GridMap(3, 3),
            (AgentTask(0, Cell(0, 0), Cell(0, 0)),),
            FOUR_DIRECTIONS,
        )
        assert lower_bound_cost(inst) == 0

    def test_unreachable_goal_infeasible(self):
        grid = GridMap(3, 1, frozenset({Cell(1, 0)}))
        inst = Instance(
            grid, (AgentTask(0, Cell(0, 0), Cell(2, 0)),), FOUR_DIRECTIONS
        )
        assert lower_bound_cost(inst) is None

    def test_random_instances_match_reference_bfs(self):
        rng = random.Random(3)
        for _ in range(20):
            obstacles = frozenset(
                Cell(rng.randrange(6), rng.randrange(6)) for _ in range(5)
            )
            grid = GridMap(6, 6, obstacles)
            free = [c for c in grid.free_cells()]
            rng.shuffle(free)
            starts, goals = free[:5], free[5:10]
            inst = Instance(
                grid,
                tuple(AgentTask(i, s, g) for i, (s, g) in enumerate(zip(starts, goals))),
                FOUR_DIRECTIONS,
            )
            ref = 0
            feasible = True
            for s, g in zip(starts, goals):
                d = reference_bfs(grid, s, FOUR_DIRECTIONS._steps).get(g)
                if d is None:
                    feasible = False
                    break
                ref += d
            assert lower_bound_cost(inst) == (ref if feasible else None)


class TestIndividuallyOptimal:
    def test_straight_shortest_paths(self):
        inst = Instance(
            GridMap(3, 3),
            (
                AgentTask(0, Cell(0, 0), Cell(2, 0)),
                AgentTask(1, Cell(0, 1), Cell(2, 1)),
            ),
            FOUR_DIRECTIONS,
        )
        sol = Solution(
            (path((0, 0), (1, 0), (2, 0)), path((0, 1), (1, 1), (2, 1)))
        )
        assert is_individually_optimal(inst, sol)

    def test_wait_breaks_optimality(self):
        inst = Instance(
            GridMap(3, 3),
            (AgentTask(0, Cell(0, 0), Cell(2, 0)),),
            FOUR_DIRECTIONS,
        )
        sol = Solution((path((0, 0), (0, 0), (1, 0), (2, 0)),))
        assert not is_individually_optimal(inst, sol)

    def test_invalid_solution_raises(self):
        inst = Instance(
            GridMap(2, 2),
            (
                AgentTask(0, Cell(0, 0), Cell(1, 0)),
                AgentTask(1, Cell(1, 0), Cell(0, 0)),
            ),
            FOUR_DIRECTIONS,
        )
        sol = Solution((path((0, 0), (1, 0)), path((1, 0), (0, 0))))
        with pytest.raises(ValueError):
            is_individually_optimal(inst, sol)


class TestTimedPath:
    def test_from_cells_trims_trailing_rest(self):
        p = TimedPath.from_cells([Cell(0, 0), Cell(1, 0), Cell(1, 0), Cell(1, 0)])
        assert p.cells == (Cell(0, 0), Cell(1, 0))
        assert p.cost == 1

    def test_mid_path_wait_kept(self):
        p = TimedPath.from_cells([Cell(0, 0), Cell(0, 0), Cell(1, 0)])
        assert p.cost == 2

    def test_id_built_path_equals_and_hashes_as_cell_built(self):
        # framed ids (row + 1) * 4 + col on a width-3 grid, with trailing waits
        ids = TimedPath._from_ids([4, 5, 9, 10, 10], 4)
        cells = TimedPath((Cell(0, 0), Cell(1, 0), Cell(1, 1), Cell(2, 1)))
        assert ids == cells and cells == ids and hash(ids) == hash(cells)
        assert TimedPath._from_ids([4, 5, 9, 10], 4) == ids
        assert TimedPath._from_ids([4, 5, 9], 4) != ids
        # another stride naming the same cells
        assert TimedPath._from_ids([6, 7, 13, 14], 6) == ids
        assert Solution((ids,)) == Solution((cells,))
        assert hash(Solution((ids,))) == hash(Solution((cells,)))
        assert repr(ids) == repr(cells)

    def test_threads_reading_one_id_built_path_agree(self):
        # Reading cells drops the ids; a reader racing it must still see
        # one of the two forms whole.
        import sys
        import threading

        # a snake over a 5x4 grid, 20 cells
        cells = tuple(Cell(c if r % 2 == 0 else 4 - c, r) for r in range(4) for c in range(5))
        twins = [TimedPath(cells) for _ in range(400)]
        paths = [TimedPath._from_ids([(r + 1) * 6 + c for c, r in cells], 6) for _ in range(400)]
        failures = []

        def read(kind):
            try:
                for path, twin in zip(paths, twins):
                    got = path.cells if kind == 0 else path == twin if kind == 1 else path.at(7)
                    assert got == (cells, True, cells[7])[kind]
                    assert (path.cost, path.start, path.end) == (19, cells[0], cells[-1])
            except Exception as e:  # reported below, with the thread's kind
                failures.append((kind, repr(e)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(k % 3,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []

    def test_id_built_path_reads_cost_start_end_at_without_cells(self, monkeypatch):
        def no_cells(ids, stride):
            raise AssertionError("a path's cells were built")

        monkeypatch.setattr(core, "_id_cells", no_cells)
        p = TimedPath._from_ids([4, 5, 9, 10, 10], 4)
        assert p.cost == 3
        assert (p.start, p.end) == (Cell(0, 0), Cell(2, 1))
        assert [p.at(t) for t in range(6)] == [
            Cell(0, 0), Cell(1, 0), Cell(1, 1), Cell(2, 1), Cell(2, 1), Cell(2, 1)
        ]
        monkeypatch.undo()
        assert p.cells == (Cell(0, 0), Cell(1, 0), Cell(1, 1), Cell(2, 1))

    def test_padding_invariance_of_validation(self):
        grid = GridMap(3, 3)
        inst = Instance(
            grid,
            (
                AgentTask(0, Cell(0, 0), Cell(1, 0)),
                AgentTask(1, Cell(2, 2), Cell(2, 1)),
            ),
            FOUR_DIRECTIONS,
        )
        a = path((0, 0), (1, 0))
        b = path((2, 2), (2, 1))
        base = validate_solution(inst, Solution((a, b)), ALL_CONFLICTS)
        padded = validate_solution(
            inst,
            Solution((TimedPath.from_cells(a.cells + (a.end, a.end)), b)),
            ALL_CONFLICTS,
        )
        assert base.ok == padded.ok


def test_public_surface_is_pinned():
    # Adding or removing an export is a deliberate change to this set.
    import types

    import gridmapf

    exported = {
        name for name, value in vars(gridmapf).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == set("""
        ALL_CONFLICTS AgentTask BudgetExceededError Cell ChannelSpec Clause Conflict
        ConflictModel ConflictReport ConstructionReport DOWN_RIGHT Direction DirectionSet
        EmbeddingError FOUR_DIRECTIONS FormulaError GridMap Instance LadderSpec LayoutError
        MonotoneFormula NestingForest NoSolutionError ReductionMetadata SearchBudget Side
        Solution SolverStats THREE_DIRECTIONS TimedPath UP_RIGHT VERTEX_EDGE Witness
        assignment_minimal_lower_bound brute_force_sat check_two_directional compile_formula
        delta diagonal_key enumerate_individually_optimal evaluate exists_individually_optimal
        exists_makespan_at_most extract_assignment format_formula is_individually_optimal
        lower_bound_cost makespan_variant optimal_flowtime parse_formula partition_diagonals
        realize_solution solve_two_dir two_colored_decide two_colored_variant
        validate_planar_monotone validate_solution verify_construction
    """.split())
