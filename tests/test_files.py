"""Round trips and error reporting for the text formats, plus rendering."""

from dataclasses import replace

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridmapf import core
from gridmapf.core import (
    AgentTask,
    Cell,
    DOWN_RIGHT,
    DirectionSet,
    FOUR_DIRECTIONS,
    MOTION_DIRECTIONS,
    GridMap,
    Instance,
    Solution,
    TimedPath,
    validate_solution,
)
from gridmapf.files import (
    FileFormatError,
    read_agents,
    read_map,
    read_metadata,
    read_solution,
    write_agents,
    write_map,
    write_metadata,
    write_solution,
)
from gridmapf.formula import parse_formula
from gridmapf.reduction import compile_formula, makespan_variant
from gridmapf.render import render, render_ascii, render_svg
from gridmapf.twodir import solve_two_dir
from solution_reference import reference_read_solution, reference_write_solution


def small_instance():
    grid = GridMap(4, 3, frozenset({Cell(2, 0)}))
    agents = (
        AgentTask(0, Cell(0, 0), Cell(3, 2)),
        AgentTask(1, Cell(0, 1), Cell(2, 1)),
    )
    return Instance(grid, agents, DOWN_RIGHT)


class TestMapFormat:
    def test_roundtrip(self):
        grid = GridMap(4, 3, frozenset({Cell(2, 0), Cell(1, 2)}))
        assert read_map(write_map(grid)) == grid
        assert write_map(read_map(write_map(grid))) == write_map(grid)

    def test_short_row_error_carries_line(self):
        text = "height 2\nwidth 3\nmap\n...\n..\n"
        with pytest.raises(FileFormatError) as e:
            read_map(text)
        assert e.value.line == 5

    def test_bad_character(self):
        with pytest.raises(FileFormatError):
            read_map("height 1\nwidth 2\nmap\n.x\n")

    def test_missing_header(self):
        with pytest.raises(FileFormatError):
            read_map("width 2\nheight 1\nmap\n..\n")

    @pytest.mark.parametrize("value", ["\u00b2", "-3", "x"])
    def test_bad_dimension_carries_line(self, value):
        with pytest.raises(FileFormatError) as e:
            read_map(f"height 1\nwidth {value}\nmap\n..\n")
        assert e.value.line == 2

    @pytest.mark.parametrize(
        "text, line",
        [
            ("height 0\nwidth 2\nmap\n", 1),
            ("height 00\nwidth 2\nmap\n..\n", 1),
            ("height 1\nwidth 0\nmap\n\n", 2),
        ],
    )
    def test_zero_dimension_carries_line(self, text, line):
        with pytest.raises(FileFormatError, match="must be positive") as e:
            read_map(text)
        assert e.value.line == line

    @pytest.mark.parametrize(
        "text, line",
        [
            ("height 2\nwidth 2\nmap\n..\n..\n.@\n", 6),
            ("height 1\nwidth 2\nmap\n..\n\n  \nx\n", 7),
            ("height 1\nwidth 2\nmap\n..\n..\n", 5),
        ],
    )
    def test_text_after_the_rows_carries_line(self, text, line):
        with pytest.raises(FileFormatError, match="after the") as e:
            read_map(text)
        assert e.value.line == line

    def test_blank_lines_after_the_rows_allowed(self):
        grid = read_map("height 1\nwidth 2\nmap\n.@\n\n   \n\t\n")
        assert grid == GridMap(2, 1, frozenset({Cell(1, 0)}))

    def test_first_bad_row_reported_in_file_order(self):
        with pytest.raises(FileFormatError, match="bad map character") as e:
            read_map("height 3\nwidth 2\nmap\n..\n.x\n...\n")
        assert e.value.line == 5
        with pytest.raises(FileFormatError, match="row has 3 cells") as e:
            read_map("height 3\nwidth 2\nmap\n..\n...\n.x\n")
        assert e.value.line == 5
        with pytest.raises(FileFormatError, match="bad map character '\u00e9'") as e:
            read_map("height 1\nwidth 2\nmap\n.\u00e9\n")
        assert e.value.line == 4


class TestAgentsFormat:
    def test_roundtrip(self):
        inst = small_instance()
        text = write_agents(inst)
        back = read_agents(text, inst.grid)
        assert back.agents == inst.agents
        assert back.directions == inst.directions
        assert write_agents(back) == text

    def test_team_roundtrip(self):
        grid = GridMap(3, 1)
        agents = (
            AgentTask(0, Cell(0, 0), Cell(2, 0), team="+"),
            AgentTask(1, Cell(2, 0), Cell(0, 0), team="-"),
        )
        inst = Instance(
            grid,
            agents,
            FOUR_DIRECTIONS,
            teams={"+": frozenset({Cell(2, 0)}), "-": frozenset({Cell(0, 0)})},
        )
        back = read_agents(write_agents(inst), grid)
        assert back.teams == inst.teams
        assert back.agents == inst.agents

    def test_no_wait_roundtrip(self):
        grid = GridMap(4, 1)
        inst = Instance(
            grid,
            (AgentTask(0, Cell(0, 0), Cell(3, 0)), AgentTask(1, Cell(3, 0), Cell(0, 0))),
            DirectionSet.from_letters("LR", waits_allowed=False),
        )
        text = write_agents(inst)
        assert text.splitlines()[:2] == ["directions LR", "waits no"]
        back = read_agents(text, grid)
        assert back.directions == inst.directions
        assert write_agents(back) == text

    def test_waits_allowed_without_the_line(self):
        text = "directions LR\nagent 0 0 0 3 0\n"
        inst = read_agents(text, GridMap(4, 1))
        assert inst.directions.waits_allowed
        assert write_agents(inst) == text

    @pytest.mark.parametrize("line", ["waits", "waits yes", "waits no no", "waits No"])
    def test_bad_waits_line_carries_line(self, line):
        with pytest.raises(FileFormatError, match="expected: waits no") as e:
            read_agents(f"directions LR\n{line}\nagent 0 0 0 3 0\n", GridMap(4, 1))
        assert e.value.line == 2

    @pytest.mark.parametrize(
        "text",
        [
            "directions DR\n\ndirections UDLR\nagent 0 0 0 1 0\n",
            "directions DR\nwaits no\nwaits no\nagent 0 0 0 1 0\n",
        ],
    )
    def test_second_header_line_carries_line(self, text):
        with pytest.raises(FileFormatError, match="the first is line") as e:
            read_agents(text, GridMap(2, 1))
        assert e.value.line == 3

    def test_out_of_bounds_cell(self):
        grid = GridMap(2, 2)
        with pytest.raises(FileFormatError) as e:
            read_agents("directions DR\nagent 0 0 0 5 5\n", grid)
        assert e.value.line == 2

    def test_duplicate_id(self):
        grid = GridMap(3, 3)
        text = "directions DR\nagent 0 0 0 1 1\nagent 0 1 0 2 2\n"
        with pytest.raises(FileFormatError):
            read_agents(text, grid)

    @pytest.mark.parametrize(
        "second, message",
        [
            ("agent 0 1 0 2 2", "duplicate agent id 0"),
            ("agent 1 0 0 2 2", r"agent 1: start Cell\(col=0, row=0\) is also the start of agent 0"),
            ("agent 1 1 0 1 1", r"agent 1: goal Cell\(col=1, row=1\) is also the goal of agent 0"),
        ],
    )
    def test_duplicate_reported_at_second_occurrence(self, second, message):
        text = f"directions DR\n# two agents\nagent 0 0 0 1 1\n\n{second}\nagent 2 2 0 2 1\n"
        with pytest.raises(FileFormatError, match=message) as e:
            read_agents(text, GridMap(3, 3))
        assert e.value.line == 5


class TestSolutionFormat:
    def test_roundtrip_via_solver(self):
        inst = small_instance()
        sol = solve_two_dir(inst)
        text = write_solution(inst, sol)
        back = read_solution(text, inst)
        assert back == sol
        assert write_solution(inst, back) == text

    def test_empty_moves_dash(self):
        grid = GridMap(2, 1)
        inst = Instance(grid, (AgentTask(0, Cell(0, 0), Cell(0, 0)),), DOWN_RIGHT)
        sol = Solution((TimedPath((Cell(0, 0),)),))
        text = write_solution(inst, sol)
        assert text.strip().endswith("-")
        assert read_solution(text, inst) == sol

    def test_move_into_obstacle_names_agent_and_step(self):
        inst = small_instance()
        text = "agent 0 RRD\nagent 1 RR\n"  # R R from (0,0) hits (2,0)
        with pytest.raises(FileFormatError) as e:
            read_solution(text, inst)
        assert "agent 0" in str(e.value) and "step 2" in str(e.value)
        assert e.value.line == 1

    def test_disallowed_direction_letter(self):
        inst = small_instance()
        with pytest.raises(FileFormatError) as e:
            read_solution("agent 1 RR\n\nagent 0 U\n", inst)
        assert "move U at step 1 not in the instance direction set" in str(e.value)
        assert e.value.line == 3

    def test_bad_move_letter_carries_line(self):
        inst = small_instance()
        with pytest.raises(FileFormatError) as e:
            read_solution("# two agents\nagent 0 RDD\nagent 1 Rx\n", inst)
        assert str(e.value) == "line 3: agent 1: bad move 'x' at step 2"
        assert e.value.line == 3

    def test_first_move_off_the_left_edge_names_the_cell_left_of_it(self):
        # The framed id left of column 0 is the frame column of the row
        # above; the error names the cell the move was aimed at.
        inst = Instance(GridMap(3, 2), (AgentTask(0, Cell(0, 1), Cell(2, 1)),), FOUR_DIRECTIONS)
        with pytest.raises(FileFormatError) as e:
            read_solution("agent 0 LRRR\n", inst)
        assert str(e.value) == (
            "line 1: agent 0: step 1 moves into Cell(col=-1, row=1), which is not free"
        )

    def test_solve_write_read_validate_build_no_cell(self, monkeypatch):
        # 40 down+right agents on a 64x64 grid, each kept only if the
        # instance stays solvable.
        rng = random.Random(64)
        grid = GridMap(64, 64, {Cell(rng.randrange(64), rng.randrange(64)) for _ in range(400)})
        agents = []
        while len(agents) < 40:
            s = Cell(rng.randrange(64), rng.randrange(64))
            g = Cell(min(63, s.col + rng.randrange(24)), min(63, s.row + rng.randrange(24)))
            taken = any(s == a.start or g == a.goal for a in agents)
            if taken or not (grid.is_free(s) and grid.is_free(g)):
                continue
            trial = Instance(grid, (*agents, AgentTask(len(agents), s, g)), DOWN_RIGHT)
            if solve_two_dir(trial) is not None:
                agents = list(trial.agents)
        inst = Instance(grid, tuple(agents), DOWN_RIGHT)

        def no_cells(ids, stride):
            raise AssertionError("a path's cells were built")

        monkeypatch.setattr(core, "_id_cells", no_cells)
        sol = solve_two_dir(inst)
        text = write_solution(inst, sol)
        back = read_solution(text, inst)
        assert validate_solution(inst, back).ok
        assert back == sol
        monkeypatch.undo()
        assert text == reference_write_solution(inst, sol)
        assert back.paths[0].cells == sol.paths[0].cells

    def test_missing_agent(self):
        inst = small_instance()
        with pytest.raises(FileFormatError):
            read_solution("agent 0 RDD\n", inst)

    @pytest.mark.parametrize("aid", ["--5", "\u00b2", "1x"])
    def test_bad_agent_id_carries_line(self, aid):
        inst = small_instance()
        with pytest.raises(FileFormatError) as e:
            read_solution(f"agent 0 RDD\nagent {aid} RR\n", inst)
        assert e.value.line == 2


def outcome(call, *args):
    try:
        return call(*args)
    except (FileFormatError, ValueError) as e:
        return (type(e).__name__, str(e), getattr(e, "line", None))


@st.composite
def solution_texts(draw):
    """An instance and a solution file for it whose move strings may hold a
    bad letter or a direction the instance lacks, leave the grid over any
    edge, enter obstacles or end in waits."""
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cells = [Cell(c, r) for r in range(height) for c in range(width)]
    obstacles = draw(st.sets(st.sampled_from(cells), max_size=len(cells) - 1))
    free = [c for c in cells if c not in obstacles]
    k = draw(st.integers(1, min(4, len(free))))
    starts = draw(st.permutations(free))[:k]
    goals = draw(st.permutations(free))[:k]
    moves = draw(st.sets(st.sampled_from(MOTION_DIRECTIONS), min_size=1))
    dirs = DirectionSet(frozenset(moves), draw(st.booleans()))
    ids = draw(st.permutations(range(10)))[:k]
    agents = tuple(AgentTask(ids[i], starts[i], goals[i]) for i in range(k))
    instance = Instance(GridMap(width, height, frozenset(obstacles)), agents, dirs)
    lines = []
    for aid in draw(st.permutations(ids)):
        letters = draw(st.sampled_from(["UDLRWX", dirs.letters + "W"]))
        walk = draw(st.text(alphabet=letters, max_size=8)) + "W" * draw(st.integers(0, 2))
        lines.append(f"agent {aid} {walk or '-'}")
    return instance, "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(solution_texts())
@example(
    (
        Instance(GridMap(3, 2), (AgentTask(0, Cell(0, 1), Cell(2, 1)),), FOUR_DIRECTIONS),
        "agent 0 LRRR\n",
    )
)
def test_reader_and_writer_match_the_reference(case):
    instance, text = case
    expected = outcome(reference_read_solution, text, instance)
    got = outcome(read_solution, text, instance)
    if isinstance(expected, Solution):
        assert got == expected
        assert write_solution(instance, got) == reference_write_solution(instance, got)
    elif expected[2] is None and got[2] is not None:
        # a move error: now on the line of the agent's entry
        kind, message, line = got
        aid = int(message.split(":")[1].split()[-1])
        assert text.splitlines()[line - 1].split()[1] == str(aid)
        assert (kind, message) == (expected[0], f"line {line}: {expected[1]}")
    else:
        assert got == expected


# Single steps, waits, jumps and diagonals, on or off the grid.
STEPS = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (2, 0), (1, 1), (0, -2)]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.data())
def test_writer_matches_the_reference_on_any_walk(width, height, data):
    # The reference spells each move from the column and row differences of
    # two cells.  The walks are built from cells and start anywhere near the
    # grid, off it too.
    cell = st.builds(Cell, st.integers(-3, width + 2), st.integers(-3, height + 2))
    paths = []
    for _ in range(data.draw(st.integers(1, width))):
        walk = [data.draw(cell)]
        for dc, dr in data.draw(st.lists(st.sampled_from(STEPS), max_size=6)):
            walk.append(Cell(walk[-1].col + dc, walk[-1].row + dr))
        paths.append(TimedPath.from_cells(walk))
    agents = tuple(AgentTask(i, Cell(i, 0), Cell(i, 0)) for i in range(len(paths)))
    instance = Instance(GridMap(width, height), agents, FOUR_DIRECTIONS)
    solution = Solution(tuple(paths))
    expected = outcome(reference_write_solution, instance, solution)
    assert outcome(write_solution, instance, solution) == expected
    # The same walks as framed ids, where a frame of that stride holds them.
    s = width + 1
    if all(0 <= col < width and row >= -1 for p in paths for col, row in p.cells):
        ids = [TimedPath._from_ids([(r + 1) * s + c for c, r in p.cells], s) for p in paths]
        assert outcome(write_solution, instance, Solution(tuple(ids))) == expected


# A nested formula, whose layout has ladders of both owners and kinds.
NESTED = "vars 4\nclause 1 + 1 4\nclause 2 + 1 3\nclause 3 + 1 2\nclause 4 - 1 4\n"


class TestMetadataFormat:
    def test_roundtrip_base_and_makespan(self):
        formula = parse_formula("vars 2\nclause 1 + 1 2\nclause 2 - 1 2\n")
        inst, meta = compile_formula(formula)
        assert read_metadata(write_metadata(meta)) == meta
        _, mkmeta = makespan_variant(inst, meta)
        assert read_metadata(write_metadata(mkmeta)) == mkmeta

    def test_missing_constants_rejected(self):
        with pytest.raises(FileFormatError):
            read_metadata("variant base\n")

    @pytest.mark.parametrize(
        "directive, position, word",
        [("variant", 1, "bogus"), ("ladder", 1, "banana"), ("ladder", 3, "z")],
    )
    def test_unknown_word_carries_line(self, directive, position, word):
        _, meta = compile_formula(parse_formula(NESTED))
        lines = write_metadata(meta).splitlines()
        i = next(i for i, line in enumerate(lines) if line.split()[0] == directive)
        parts = lines[i].split()
        parts[position] = word
        lines[i] = " ".join(parts)
        with pytest.raises(FileFormatError) as e:
            read_metadata("\n".join(lines))
        assert e.value.line == i + 1 and repr(word) in str(e.value)

    @pytest.mark.parametrize("directive", ["variant", "const", "opening", "channel", "ladder"])
    @pytest.mark.parametrize("change", ["extra", "short"])
    def test_wrong_field_count_carries_line(self, directive, change):
        # a trailing word was once read past: "variant base extra" passed
        _, meta = compile_formula(parse_formula(NESTED))
        lines = write_metadata(meta).splitlines()
        i = next(i for i, line in enumerate(lines) if line.split()[0] == directive)
        lines[i] = lines[i] + " 7" if change == "extra" else lines[i].rsplit(" ", 1)[0]
        with pytest.raises(FileFormatError, match=f"^line {i + 1}: {directive} line has") as e:
            read_metadata("\n".join(lines))
        assert e.value.line == i + 1

    def test_old_text_with_wbound_still_reads(self):
        # Older writers added "const Wbound", a coarse width bound that no
        # check used; it is no longer written, and read past when present.
        old_text = (
            "variant base\nconst W 5\nconst Wbound 12\nconst U 7\nconst L 10\nconst d -\n"
            "opening c 4 2\nopening cprime 4 29\nchannel 1 0 11 20\nchannel 2 2 11 20\n"
            "vars 2\nclause 1 + 1 2\nclause 2 - 1 2\n"
        )
        _, meta = compile_formula(parse_formula("vars 2\nclause 1 + 1 2\nclause 2 - 1 2\n"))
        new_text = write_metadata(meta)
        assert new_text == old_text.replace("const Wbound 12\n", "")
        assert read_metadata(old_text) == read_metadata(new_text) == meta


class TestRender:
    def test_single_agent_ascii_markers(self):
        grid = GridMap(3, 3)
        inst = Instance(grid, (AgentTask(0, Cell(0, 0), Cell(2, 2)),), DOWN_RIGHT)
        text = render_ascii(inst)
        assert text.splitlines() == ["s..", "...", "..g"]

    def test_multi_agent_markers_and_overlay(self):
        inst = small_instance()
        sol = solve_two_dir(inst)
        text = render_ascii(inst, sol)
        lines = text.splitlines()
        assert lines[0][0] == "0"
        assert lines[1][0] == "1"
        assert lines[2][3] == "A"
        assert lines[1][2] == "B"
        assert "*" in text
        assert "@" in text

    def test_render_deterministic(self):
        inst = small_instance()
        assert render(inst, fmt="ascii") == render(inst, fmt="ascii")
        assert render(inst, fmt="svg") == render(inst, fmt="svg")

    def test_svg_channel_rects_match_variables(self):
        formula = parse_formula("vars 3\nclause 1 + 1 2 3\nclause 2 - 1 2 3\n")
        inst, meta = compile_formula(formula)
        svg = render_svg(inst, metadata=meta)
        assert svg.count('class="channel"') == len(meta.channels) == 3
        assert svg.count('class="opening') == 2
        assert svg.count('class="ladder"') == len(meta.ladders)

    def test_svg_rejects_metadata_of_another_layout(self):
        """The ASCII drawing shows no ledger, but checks it the same way."""
        two = "vars 2\nclause 1 + 1 2\nclause 2 - 1 2\n"
        inst, meta = compile_formula(parse_formula(two))
        # Clause 3 has no agent: the message verify_construction gives.
        _, three_meta = compile_formula(parse_formula(two + "clause 3 + 2\n"))
        # The same clause ids, but a channel below the 5x32 grid.
        _, tall_meta = compile_formula(parse_formula("vars 3\nclause 1 + 1 2 3\nclause 2 - 1 3\n"))
        for fmt in ("svg", "ascii"):
            with pytest.raises(ValueError) as e:
                render(inst, fmt=fmt, metadata=three_meta)
            assert str(e.value) == "metadata does not match the instance: clause 3 has no agent"
            with pytest.raises(ValueError) as e:
                render(inst, fmt=fmt, metadata=tall_meta)
            assert str(e.value) == (
                "metadata does not match the instance: "
                "channel at columns 0..0, rows 15..32 lies off the 5x32 grid"
            )
        assert render(inst, fmt="ascii", metadata=meta) == render_ascii(inst)

    def test_svg_rejects_every_kind_of_rect_off_the_grid(self):
        text = "vars 2\nclause 1 + 1 2\nclause 2 - 1 2\nclause 3 + 2\n"
        inst, meta = compile_formula(parse_formula(text))
        assert (inst.grid.width, inst.grid.height) == (9, 70)
        h_piece, v_piece = meta.ladders[:2]
        assert (h_piece.kind, v_piece.kind) == ("h", "v")
        ch = meta.channels[0]
        off_grid = [
            ("channel", replace(meta, channels=(replace(ch, col=-1),))),
            ("ladder", replace(meta, ladders=(replace(h_piece, hi=9),))),
            ("ladder", replace(meta, ladders=(replace(v_piece, hi=70),))),
            ("opening", replace(meta, c_prime=Cell(9, 65))),
            ("opening", replace(meta, c=Cell(8, -1))),
        ]
        for kind, bad in off_grid:
            with pytest.raises(ValueError) as e:
                render_svg(inst, metadata=bad)
            assert str(e.value).startswith(f"metadata does not match the instance: {kind} at ")
            assert str(e.value).endswith(" lies off the 9x70 grid")
        assert render_svg(inst, metadata=meta).count('class="ladder"') == len(meta.ladders)

    def test_svg_starts_filled_goals_unfilled(self):
        inst = small_instance()
        svg = render_svg(inst)
        assert svg.count('class="start"') == 2
        assert svg.count('class="goal"') == 2
        assert 'fill="none"' in svg

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render(small_instance(), fmt="png")
