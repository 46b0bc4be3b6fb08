"""Compiler tests: layout structure, verification checks, variants, round trips."""

import dataclasses

import pytest

from gridmapf import reduction
from gridmapf.core import (
    FOUR_DIRECTIONS,
    Cell,
    GridMap,
    Instance,
    is_individually_optimal,
)
from gridmapf.formula import Side, brute_force_sat, parse_formula
from gridmapf.oracle import exists_individually_optimal, exists_makespan_at_most
from gridmapf.reduction import (
    LayoutError,
    compile_formula,
    extract_assignment,
    makespan_variant,
    realize_solution,
    two_colored_variant,
    verify_construction,
)

from kernel_reference import shortest_dist_field
from test_golden import family_text


def compute_l(instance, meta):
    """Largest channel-entry distance over agents and their usable channels.

    One reverse BFS over cells per (agent, variable), under the sign's two
    directions; the compiled layout sets the channel length to this value.
    """
    starts = {a.id: a.start for a in instance.agents}
    longest = 0
    for c in meta.formula.clauses:
        dirs = meta.sign_directions(c.side)
        for v in c.vars:
            channel = meta.channel_by_var(v)
            if channel is None:
                continue
            field = shortest_dist_field(instance.grid, meta.entry_cell(c.side, channel), dirs)
            longest = max(longest, field.get(starts[c.id], 0))
    return longest


def failures(report):
    """Check name -> detail, for each check that fails."""
    return {c.name: c.detail for c in report.failures()}


def goal_above_start(inst):
    """``two-clause-sat`` with the positive agent 1's target moved from
    (4, 30) to (4, 2), one row above its start (0, 3)."""
    agents = tuple(dataclasses.replace(a, goal=Cell(4, 2)) if a.id == 1 else a for a in inst.agents)
    return Instance(inst.grid, agents, inst.directions)


class TestCompileBasics:
    def test_one_agent_per_clause(self, corpus_formulas, corpus_compiled):
        for name, (inst, meta) in corpus_compiled.items():
            formula = corpus_formulas[name]
            assert inst.num_agents == formula.num_clauses
            assert {a.id for a in inst.agents} == {c.id for c in formula.clauses}

    def test_three_directions(self, corpus_compiled):
        inst, _ = corpus_compiled["two-clause-sat"]
        assert inst.directions.letters == "UDR"

    def test_empty_formula_compiles_trivially(self, corpus_compiled):
        inst, meta = corpus_compiled["empty"]
        assert inst.num_agents == 0
        assert exists_individually_optimal(inst).decision

    def test_deterministic_compile(self, corpus_formulas):
        f = corpus_formulas["nested-pos-l2"]
        a1, m1 = compile_formula(f)
        a2, m2 = compile_formula(f)
        assert a1.grid == a2.grid
        assert a1.agents == a2.agents
        assert m1 == m2

    def test_channels_only_for_occurring_variables(self):
        f = parse_formula("vars 4\nclause 1 + 1\nclause 2 - 1\n")
        _, meta = compile_formula(f)
        assert [ch.var for ch in meta.channels] == [1]

    def test_leg_crossing_a_nested_clause_compiles_and_decides(self):
        # the outer clause's leg to 2 crosses the inner clause's corridor
        # [1,2], but the inner agent reaches no channel outside its clause
        f = parse_formula("vars 3\nclause 1 + 1 2 3\nclause 2 + 1 2\n")
        inst, meta = compile_formula(f)
        mk, mkmeta = makespan_variant(inst, meta)
        assert failures(verify_construction(inst, meta)) == {}
        assert failures(verify_construction(mk, mkmeta)) == {}
        assert exists_individually_optimal(inst).decision
        assert exists_makespan_at_most(mk, mkmeta.common_distance).decision

    def test_crossing_that_opens_a_foreign_channel_rejected(self):
        # the outer clause's leg to 2 crosses the inner clause [1,3], whose
        # agent could then take channel 2, which is not in its clause
        f = parse_formula("vars 3\nclause 1 + 1 2 3\nclause 2 + 1 3\n")
        with pytest.raises(LayoutError) as e:
            compile_formula(f)
        assert str(e.value) == "agent 2 can enter foreign channel 2"

    def test_equal_intervals_in_the_other_order_compile(self):
        # equal intervals nest in input order: now [1,3] is the outer clause
        inst, meta = compile_formula(parse_formula("vars 3\nclause 1 + 1 3\nclause 2 + 1 2 3\n"))
        assert failures(verify_construction(inst, meta)) == {}
        assert failures(verify_construction(*makespan_variant(inst, meta))) == {}

    def test_cell_cap_is_checked_before_any_mask(self, monkeypatch):
        formula = parse_formula(family_text(8, False))
        inst, _ = compile_formula(formula)
        area = inst.grid.width * inst.grid.height
        assert compile_formula(formula, max_cells=area)[0].grid == inst.grid

        def no_layout(width, height):
            raise AssertionError(f"a {width}x{height} layout was allocated")

        monkeypatch.setattr(reduction, "_Layout", no_layout)
        with pytest.raises(LayoutError) as e:
            compile_formula(formula, max_cells=area - 1)
        assert str(e.value) == f"layout needs {area} cells, over the cap of {area - 1}"

    def test_positive_starts_above_negative_starts(self, corpus_compiled):
        inst, meta = corpus_compiled["two-clause-sat"]
        by_id = {a.id: a for a in inst.agents}
        sides = {c.id: c.side for c in meta.formula.clauses}
        for ch in meta.channels:
            for cid, side in sides.items():
                if side is Side.POSITIVE:
                    assert by_id[cid].start.row < ch.top_row
                else:
                    assert by_id[cid].start.row > ch.bottom_row


class TestComputeWAndL:
    def test_w_total_matches_grid_width(self, corpus_compiled):
        for name in ("two-clause-sat", "nested-pos-l2", "unit-pos"):
            inst, meta = corpus_compiled[name]
            assert meta.w_total == inst.grid.width

    def test_adding_a_variable_widens_layout(self):
        f1 = parse_formula("vars 1\nclause 1 + 1\nclause 2 - 1\n")
        f2 = parse_formula("vars 2\nclause 1 + 1 2\nclause 2 - 1 2\n")
        w1 = compile_formula(f1)[1].w_total
        w2 = compile_formula(f2)[1].w_total
        assert w2 > w1

    def test_l_recomputed_by_bfs_matches(self, corpus_compiled):
        for name, (inst, meta) in corpus_compiled.items():
            if inst.num_agents == 0:
                continue
            assert compute_l(inst, meta) == meta.channel_length

    def test_single_agent_entry_distance(self):
        # one clause, one variable: entry = walk down the leg plus one step in
        f = parse_formula("vars 1\nclause 1 + 1\n")
        inst, meta = compile_formula(f)
        agent = inst.agents[0]
        channel = meta.channels[0]
        field = shortest_dist_field(
            inst.grid, Cell(channel.col, channel.top_row), meta.sign_directions(Side.POSITIVE)
        )
        assert field[agent.start] == meta.channel_length


class TestVerifyConstruction:
    def test_all_checks_pass_on_corpus(self, corpus_compiled):
        for name, (inst, meta) in corpus_compiled.items():
            report = verify_construction(inst, meta)
            assert report.ok, (name, report.failures())
            assert len(report.checks) == 8

    def test_cell_budget_is_the_layout_bound(self):
        # one clause: W <= 15 and H <= 2 + 4 + 15 + 4 * 17 = 89, so 1,335 cells
        inst, meta = compile_formula(parse_formula("vars 2\nclause 1 + 1 2\n"))
        assert inst.grid.width * inst.grid.height == 396
        assert failures(verify_construction(inst, meta)) == {}
        w, h = inst.grid.width, 1335 // inst.grid.width + 1
        padded = GridMap.from_mask(w, h, inst.grid.free + bytes(w * (h - inst.grid.height)))
        report = verify_construction(Instance(padded, inst.agents, inst.directions), meta)
        assert failures(report) == {"cell-budget": f"{w * h} cells vs budget 1335"}

    def test_agents_not_matching_the_clauses_raise(self, corpus_compiled):
        inst, meta = corpus_compiled["two-clause-sat"]
        one_agent = Instance(inst.grid, inst.agents[:1], inst.directions)
        with pytest.raises(ValueError, match="^metadata does not match the instance: clause 2 has no agent$"):
            verify_construction(one_agent, meta)
        one_clause = dataclasses.replace(
            meta, formula=dataclasses.replace(meta.formula, clauses=meta.formula.clauses[:1])
        )
        with pytest.raises(ValueError, match="^metadata does not match the instance: agent 2 has no clause$"):
            verify_construction(inst, one_clause)

    def test_equalized_start_distances_fail_uniqueness(self, corpus_compiled):
        inst, meta = corpus_compiled["siblings-unsat"]
        # slide the outer clause's start down its own leg (all free cells)
        # until its opening distance collides with a sibling agent's
        sides = {c.id: c.side for c in meta.formula.clauses}
        positive = [a for a in inst.agents if sides[a.id] is Side.POSITIVE]
        a, b = positive[0], positive[1]
        d_a = (meta.c_prime.col - a.start.col) + (meta.c_prime.row - a.start.row)
        d_b = (meta.c_prime.col - b.start.col) + (meta.c_prime.row - b.start.row)
        moved = Cell(a.start.col, a.start.row + (d_a - d_b))
        assert inst.grid.is_free(moved)
        agents = tuple(
            dataclasses.replace(x, start=moved) if x.id == a.id else x
            for x in inst.agents
        )
        hacked = Instance(inst.grid, agents, inst.directions)
        report = verify_construction(hacked, meta)
        assert not report.ok
        assert any(c.name == "unique-opening-distances" for c in report.failures())

    def test_shortened_channel_fails_geometry(self, corpus_compiled):
        inst, meta = corpus_compiled["two-clause-sat"]
        ch = meta.channels[0]
        lying = dataclasses.replace(
            meta,
            channels=(dataclasses.replace(ch, top_row=ch.top_row + 1),)
            + meta.channels[1:],
        )
        report = verify_construction(inst, lying)
        assert not report.ok
        assert any(c.name == "channel-geometry" for c in report.failures())

    def test_blocked_channel_fails_route_checks(self, corpus_compiled):
        inst, meta = corpus_compiled["two-clause-sat"]
        ch = meta.channels[0]
        mid = Cell(ch.col, (ch.top_row + ch.bottom_row) // 2)
        grid = dataclasses.replace(
            inst.grid, obstacles=inst.grid.obstacles | frozenset({mid})
        )
        hacked = Instance(grid, inst.agents, inst.directions)
        report = verify_construction(hacked, meta)
        # The distances to the channel's entry and from its exit are as
        # before, so only the crossing itself shows the blocked cell.
        assert failures(report) == {
            "channel-geometry": f"channel 1 cell {mid} is not free",
            "channel-routes-equal-length": (
                f"agent 1 cannot cross channel 1 at {mid}; agent 2 cannot cross channel 1 at {mid}"
            ),
        }

    def test_channel_length_lie_fails_route_lengths(self, corpus_compiled):
        """Check 5.  Catches ``d2`` read from the channel's entry cell instead
        of its exit, which adds the channel length to every ``d2``."""
        inst, meta = corpus_compiled["two-clause-sat"]
        lying = dataclasses.replace(meta, channel_length=meta.channel_length + 1)
        report = verify_construction(inst, lying)
        assert failures(report)["channel-routes-equal-length"] == (
            "agent 1 via channel 1: 8+11+13 != 31; agent 1 via channel 2: 10+11+11 != 31; "
            "agent 2 via channel 1: 8+11+13 != 31; agent 2 via channel 2: 10+11+11 != 31"
        )

    def test_staircase_bypass_fails_no_channel_bypass(self, corpus_compiled):
        """Check 6.  A staircase of free cells, beside channel 2 and down to
        row 28, lets the positive agent 1 reach its target without a channel;
        the negative agent 2 cannot climb it.  Catches one of a clause's
        channels left unblocked, which lets agent 2 bypass as well."""
        inst, meta = corpus_compiled["two-clause-sat"]
        w = inst.grid.width
        free = bytearray(inst.grid.free)
        for col, rows in ((3, range(4, 16)), (4, range(15, 28))):
            for row in rows:
                free[row * w + col] = 1
        grid = GridMap.from_mask(w, inst.grid.height, free)
        report = verify_construction(Instance(grid, inst.agents, inst.directions), meta)
        assert failures(report) == {"no-channel-bypass": "agent 1 can bypass its channels"}

    @pytest.mark.parametrize(
        "opened, detail",
        [
            # Agent 1 meets (5, 28) and (3, 30) at 30 moves, DOWN before RIGHT.
            (((5, 28), (3, 29), (3, 30)), "agent 1 reaches Cell(col=3, row=30), not dominated by "
             "opening Cell(col=4, row=29); agent 2 reaches Cell(col=5, row=28), not dominated by "
             "opening Cell(col=4, row=2)"),
            # Agent 2 meets (5, 3) and (3, 1) at 30 moves, UP before RIGHT.
            (((5, 3), (3, 2), (3, 1)), "agent 1 reaches Cell(col=5, row=3), not dominated by "
             "opening Cell(col=4, row=29); agent 2 reaches Cell(col=3, row=1), not dominated by "
             "opening Cell(col=4, row=2)"),
        ],
    )
    def test_opening_dominates_names_the_first_cell_a_bfs_meets(self, corpus_compiled, opened, detail):
        """Check 4.  ``two-clause-sat`` with a blocked column added on the
        right and three walls opened: one agent reaches two cells outside
        its opening's region at the same distance, one beyond the opening's
        column and one beyond its row.  A BFS from the start meets the one
        in the farther row first; row-major order or the other tie-break
        would name the other cell."""
        inst, meta = corpus_compiled["two-clause-sat"]
        w, h = inst.grid.width, inst.grid.height
        free = bytearray(b"".join(inst.grid.free[r * w : (r + 1) * w] + b"\x00" for r in range(h)))
        for col, row in opened:
            free[row * (w + 1) + col] = 1
        grid = GridMap.from_mask(w + 1, h, free)
        report = verify_construction(Instance(grid, inst.agents, inst.directions), meta)
        assert failures(report) == {"opening-dominates": detail}

    def test_goal_out_of_monotone_reach_fails_two_directions(self, corpus_compiled):
        """Check 8.  No down or right move reaches agent 1's moved target,
        five moves in four directions do.  Catches ``d_free = d_sign``
        without the four-direction search."""
        inst, meta = corpus_compiled["two-clause-sat"]
        report = verify_construction(goal_above_start(inst), meta)
        assert failures(report) == {
            "channel-routes-equal-length": "agent 1 cannot reach its target",
            "two-directions-suffice": "agent 1: unrestricted distance 5 beats two-direction None",
        }


class TestRealizeAndExtract:
    def test_round_trip_on_satisfiable_corpus(self, corpus_formulas, corpus_compiled):
        for name, (inst, meta) in corpus_compiled.items():
            assignment = brute_force_sat(corpus_formulas[name])
            if assignment is None or inst.num_agents == 0:
                continue
            sol = realize_solution(inst, meta, assignment)
            assert is_individually_optimal(inst, sol), name
            extracted = extract_assignment(inst, meta, sol)
            from gridmapf.formula import evaluate

            assert evaluate(corpus_formulas[name], extracted), name

    def test_unsatisfying_assignment_rejected(self, corpus_compiled):
        inst, meta = corpus_compiled["unit-pos"]
        with pytest.raises(ValueError):
            realize_solution(inst, meta, (False,))

    def test_channel_occupancy_sign_pure(self, corpus_formulas, corpus_compiled):
        for name, (inst, meta) in corpus_compiled.items():
            assignment = brute_force_sat(corpus_formulas[name])
            if assignment is None or inst.num_agents == 0:
                continue
            sol = realize_solution(inst, meta, assignment)
            sides = {c.id: c.side for c in meta.formula.clauses}
            for ch in meta.channels:
                cells = set(ch.cells())
                users = {
                    sides[a.id]
                    for a, p in zip(inst.agents, sol.paths)
                    if cells & set(p.cells)
                }
                assert len(users) <= 1, (name, ch.var)

    def test_every_unfinished_agent_inside_a_channel_at_time_l(
        self, corpus_formulas, corpus_compiled
    ):
        for name, (inst, meta) in corpus_compiled.items():
            assignment = brute_force_sat(corpus_formulas[name])
            if assignment is None or inst.num_agents == 0:
                continue
            sol = realize_solution(inst, meta, assignment)
            channel_cells = set()
            for ch in meta.channels:
                channel_cells.update(ch.cells())
            t = meta.channel_length
            for path in sol.paths:
                if path.cost <= t:
                    continue  # finished agents rest at their targets
                assert path.at(t) in channel_cells, name

    def test_extract_requires_individually_optimal(self, corpus_compiled):
        inst, meta = corpus_compiled["two-clause-sat"]
        # a padded (waiting) solution is not individually optimal
        from gridmapf.core import Solution, TimedPath

        sol = realize_solution(inst, meta, (True, False))
        lazy = Solution(
            (
                TimedPath.from_cells(
                    (sol.paths[0].cells[0],) + sol.paths[0].cells
                ),
            )
            + sol.paths[1:]
        )
        with pytest.raises(ValueError):
            extract_assignment(inst, meta, lazy)


class TestMakespanVariant:
    def test_distances_equalized(self, corpus_compiled):
        for name, (inst, meta) in corpus_compiled.items():
            mk, mkmeta = makespan_variant(inst, meta)
            assert mkmeta.variant == "makespan"
            for agent in mk.agents:
                field = shortest_dist_field(mk.grid, agent.goal, mk.directions)
                assert field[agent.start] == mkmeta.common_distance, name

    def test_extensions_lengths(self, corpus_compiled):
        inst, meta = corpus_compiled["two-clause-sat"]
        dists = {}
        for agent in inst.agents:
            field = shortest_dist_field(inst.grid, agent.goal, inst.directions)
            dists[agent.id] = field[agent.start]
        d = max(dists.values())
        mk, mkmeta = makespan_variant(inst, meta)
        for agent, orig in zip(mk.agents, inst.agents):
            assert agent.goal.col - orig.goal.col == d - dists[agent.id]
            assert agent.goal.row == orig.goal.row

    @pytest.mark.parametrize("hack", ["goal", "directions"])
    def test_distances_agree_with_shortest_dist_field(self, corpus_compiled, hack):
        """Each agent's distance, read off its goal extension, is its exact
        shortest distance under the instance's moves: on a base whose agent 1
        cannot reach its target by down and right moves alone (the fallback
        BFS), and on one that allows all four moves."""
        inst, meta = corpus_compiled["two-clause-sat"]
        if hack == "goal":
            inst = goal_above_start(inst)
            agent, sign = inst.agents[0], meta.sign_directions(Side.POSITIVE)
            assert agent.start not in shortest_dist_field(inst.grid, agent.goal, sign)
        else:
            inst = Instance(inst.grid, inst.agents, FOUR_DIRECTIONS)
        mk, mkmeta = makespan_variant(inst, meta)
        for agent, orig in zip(mk.agents, inst.agents):
            d = shortest_dist_field(inst.grid, orig.goal, inst.directions)[orig.start]
            assert agent.goal.col - orig.goal.col == mkmeta.common_distance - d

    def test_base_instance_unchanged_when_equal(self):
        f = parse_formula("vars 1\nclause 1 + 1\n")
        inst, meta = compile_formula(f)
        mk, mkmeta = makespan_variant(inst, meta)
        assert mk.grid.width == inst.grid.width
        assert [a.goal for a in mk.agents] == [a.goal for a in inst.agents]

    def test_variant_still_passes_construction_checks(self, corpus_compiled):
        for name, (inst, meta) in corpus_compiled.items():
            mk, mkmeta = makespan_variant(inst, meta)
            report = verify_construction(mk, mkmeta)
            assert report.ok, (name, report.failures())

    def test_larger_nesting_compiles_and_verifies(self):
        # level-3 nesting and six clauses, beyond the equivalence corpus
        f = parse_formula(
            "vars 6\nclause 1 + 1 6\nclause 2 + 1 5\nclause 3 + 1 4\n"
            "clause 4 + 1 2\nclause 5 - 1 3 6\nclause 6 - 3 4\n"
        )
        inst, meta = compile_formula(f)
        assert verify_construction(inst, meta).ok
        mk, mkmeta = makespan_variant(inst, meta)
        assert verify_construction(mk, mkmeta).ok
        assignment = brute_force_sat(f)
        sol = realize_solution(inst, meta, assignment)
        assert is_individually_optimal(inst, sol)


class TestTwoColoredVariant:
    def test_team_sizes_match_target_sets(self, corpus_compiled):
        inst, meta = corpus_compiled["siblings-unsat"]
        colored = two_colored_variant(inst, meta)
        sides = {c.id: c.side for c in meta.formula.clauses}
        for side_value, targets in colored.teams.items():
            members = [a for a in colored.agents if a.team == side_value]
            assert len(members) == len(targets)
        assert len(colored.teams["+"]) == sum(
            1 for s in sides.values() if s is Side.POSITIVE
        )

    def test_labeled_goals_kept(self, corpus_compiled):
        inst, meta = corpus_compiled["two-clause-sat"]
        colored = two_colored_variant(inst, meta)
        assert [a.goal for a in colored.agents] == [a.goal for a in inst.agents]
