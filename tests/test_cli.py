"""End-to-end command-line flows and exit codes."""

import pytest

from gridmapf import core
from gridmapf.cli import cli_dispatch
from gridmapf.files import read_map, read_agents, read_solution, read_metadata

SAT_FORMULA = "vars 2\nclause 1 + 1 2\nclause 2 - 1 2\n"
UNSAT_FORMULA = "vars 1\nclause 1 + 1\nclause 2 - 1\n"

DR_MAP = "height 2\nwidth 3\nmap\n...\n...\n"
DR_AGENTS_YES = "directions DR\nagent 1 1 0 2 1\nagent 2 0 1 1 1\n"
DR_AGENTS_NO = "directions DR\nagent 1 1 0 1 1\nagent 2 0 1 2 1\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "sat.formula").write_text(SAT_FORMULA)
    (tmp_path / "unsat.formula").write_text(UNSAT_FORMULA)
    (tmp_path / "dr.map").write_text(DR_MAP)
    (tmp_path / "yes.agents").write_text(DR_AGENTS_YES)
    (tmp_path / "no.agents").write_text(DR_AGENTS_NO)
    return tmp_path


def run(*argv):
    return cli_dispatch([str(a) for a in argv])


class TestCompile:
    def test_compile_writes_three_files(self, workdir, capsys):
        rc = run("compile", workdir / "sat.formula", "--out-prefix", workdir / "out")
        assert rc == 0
        grid = read_map((workdir / "out.map").read_text())
        inst = read_agents((workdir / "out.agents").read_text(), grid)
        meta = read_metadata((workdir / "out.meta").read_text())
        assert inst.num_agents == 2
        assert meta.variant == "base"

    def test_compile_variants(self, workdir):
        assert (
            run(
                "compile", workdir / "sat.formula",
                "--out-prefix", workdir / "mk", "--variant", "makespan",
            )
            == 0
        )
        meta = read_metadata((workdir / "mk.meta").read_text())
        assert meta.variant == "makespan"
        assert meta.common_distance is not None

        assert (
            run(
                "compile", workdir / "sat.formula",
                "--out-prefix", workdir / "tc", "--two-colored",
            )
            == 0
        )
        grid = read_map((workdir / "tc.map").read_text())
        inst = read_agents((workdir / "tc.agents").read_text(), grid)
        assert inst.teams is not None

    def test_compile_determinism(self, workdir):
        run("compile", workdir / "sat.formula", "--out-prefix", workdir / "a")
        run("compile", workdir / "sat.formula", "--out-prefix", workdir / "b")
        for ext in (".map", ".agents", ".meta"):
            assert (workdir / f"a{ext}").read_bytes() == (workdir / f"b{ext}").read_bytes()

    def test_malformed_formula_exits_one(self, workdir):
        (workdir / "bad.formula").write_text("vars 1\nclause 1 + 7\n")
        assert run("compile", workdir / "bad.formula", "--out-prefix", workdir / "x") == 1

    @pytest.mark.parametrize("command", ["sat", "compile"])
    @pytest.mark.parametrize(
        "text, line", [("vars \u00b2\n", 1), ("vars 2\nclause \u00b2 + 1\n", 2)]
    )
    def test_non_ascii_digit_reports_line(self, workdir, capsys, command, text, line):
        (workdir / "odd.formula").write_text(text, encoding="utf-8")
        args = ["--out-prefix", workdir / "odd"] if command == "compile" else []
        assert run(command, workdir / "odd.formula", *args) == 1
        assert capsys.readouterr().err.startswith(f"error: line {line}: ")

    def test_deep_chain_reports_the_cell_cap(self, workdir, capsys):
        # 400 positive clauses, each nested in the one before: the nesting
        # validates at any depth and the layout stops at its cell cap.
        lines = [f"clause {i} + {i} {801 - i}" for i in range(1, 401)]
        (workdir / "deep.formula").write_text("vars 800\n" + "\n".join(lines) + "\n")
        assert run("compile", workdir / "deep.formula", "--out-prefix", workdir / "deep") == 1
        assert "over the cap of 2000000" in capsys.readouterr().err


class TestSolveAndOracle:
    def test_solve2dir_yes_writes_solution(self, workdir, capsys):
        rc = run(
            "solve2dir", workdir / "dr.map", workdir / "yes.agents",
            "--out", workdir / "yes.sol",
        )
        assert rc == 0
        grid = read_map(DR_MAP)
        inst = read_agents(DR_AGENTS_YES, grid)
        sol = read_solution((workdir / "yes.sol").read_text(), inst)
        assert sol.flowtime() == 3

    def test_solve2dir_no(self, workdir):
        assert run("solve2dir", workdir / "dr.map", workdir / "no.agents") == 1

    def test_oracle_indopt_exit_codes(self, workdir):
        assert run("oracle", workdir / "dr.map", workdir / "yes.agents") == 0
        assert run("oracle", workdir / "dr.map", workdir / "no.agents") == 1

    def test_oracle_makespan_mode(self, workdir):
        assert (
            run(
                "oracle", workdir / "dr.map", workdir / "no.agents",
                "--mode", "makespan-le", "--bound", "3",
            )
            == 0
        )
        assert (
            run(
                "oracle", workdir / "dr.map", workdir / "no.agents",
                "--mode", "makespan-le", "--bound", "1",
            )
            == 1
        )

    def test_oracle_strict_conflicts_flag(self, workdir):
        assert (
            run(
                "oracle", workdir / "dr.map", workdir / "yes.agents",
                "--conflicts", "vertex,edge,following,cycle",
            )
            == 0
        )

    def test_oracle_reaches_the_no_wait_search(self, workdir, capsys):
        # The corridor of test_oracle's TestNoWaits: a makespan-5 plan needs
        # a wait, so the answer depends on the "waits no" line reaching the
        # no-wait search.
        (workdir / "corridor.map").write_text("height 1\nwidth 4\nmap\n....\n")
        agents = "directions UDLR\nagent 0 1 0 1 0\nagent 1 0 0 3 0\nagent 2 3 0 0 0\n"
        (workdir / "waits.agents").write_text(agents)
        (workdir / "nowait.agents").write_text(agents.replace("UDLR\n", "UDLR\nwaits no\n"))
        args = ("--mode", "makespan-le", "--bound", "5", "--conflicts", "vertex")
        assert run("oracle", workdir / "corridor.map", workdir / "waits.agents", *args) == 0
        capsys.readouterr()
        assert run("oracle", workdir / "corridor.map", workdir / "nowait.agents", *args) == 1
        assert capsys.readouterr().out.strip() == "NO"

    def test_delta_prints_value(self, workdir, capsys):
        assert run("delta", workdir / "dr.map", workdir / "no.agents") == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_negative_budget_is_a_usage_error(self, workdir, capsys):
        files = (workdir / "dr.map", workdir / "yes.agents")
        assert run("oracle", *files, "--budget", "-5") == 2
        assert "non-negative number of states" in capsys.readouterr().err
        assert run("delta", *files, "--budget", "-1") == 2
        capsys.readouterr()
        assert run("oracle", *files, "--budget", "0") == 2
        assert capsys.readouterr().err == "resource error: state budget of 0 exhausted\n"

    def test_timeout_zero_exits_two(self, workdir):
        # Two head-on pairs crossing at the centre: no individually optimal
        # solution exists, so the flowtime and delta searches go on to the A*.
        (workdir / "open.map").write_text("height 5\nwidth 5\nmap\n" + ".....\n" * 5)
        (workdir / "swap.agents").write_text(
            "directions UDLR\nagent 1 0 2 4 2\nagent 2 4 2 0 2\n"
            "agent 3 2 0 2 4\nagent 4 2 4 2 0\n"
        )
        files = (workdir / "open.map", workdir / "swap.agents")
        assert run("oracle", *files, "--mode", "flowtime", "--timeout", "0") == 2
        assert run("delta", *files, "--timeout", "0") == 2
        assert run("delta", *files, "--timeout", "-1") == 2
        assert run("oracle", *files, "--mode", "indopt", "--timeout", "60") == 1
        # Four agents swapping the corners: the strict-descent search answers
        # within a few expansions, so the deadline must be read at the first.
        (workdir / "corners.agents").write_text(
            "directions UDLR\nagent 1 0 0 4 4\nagent 2 4 4 0 0\n"
            "agent 3 4 0 0 4\nagent 4 0 4 4 0\n"
        )
        files = (workdir / "open.map", workdir / "corners.agents")
        assert run("oracle", *files, "--mode", "flowtime", "--timeout", "0") == 2
        assert run("delta", *files, "--timeout", "0") == 2
        assert run("oracle", *files, "--mode", "flowtime", "--timeout", "60") == 0

    def test_solution_revalidates_through_verify(self, workdir, monkeypatch):
        def no_cells(ids, stride):
            raise AssertionError("a path's cells were built")

        monkeypatch.setattr(core, "_id_cells", no_cells)  # paths stay ids
        run(
            "solve2dir", workdir / "dr.map", workdir / "yes.agents",
            "--out", workdir / "yes.sol",
        )
        rc = run(
            "verify", workdir / "dr.map", workdir / "yes.agents",
            "--solution", workdir / "yes.sol",
        )
        assert rc == 0

    def test_oracle_witness_revalidates_through_verify(self, workdir):
        rc = run(
            "oracle", workdir / "dr.map", workdir / "yes.agents",
            "--mode", "indopt", "--out", workdir / "witness.sol",
        )
        assert rc == 0
        assert (
            run(
                "verify", workdir / "dr.map", workdir / "yes.agents",
                "--solution", workdir / "witness.sol",
            )
            == 0
        )

    def test_verify_rejects_conflicting_solution(self, workdir):
        (workdir / "bad.sol").write_text("agent 1 DR\nagent 2 RR\n")
        rc = run(
            "verify", workdir / "dr.map", workdir / "no.agents",
            "--solution", workdir / "bad.sol",
        )
        assert rc == 1

    @pytest.mark.parametrize(
        "map_text, sol_text",
        [
            ("height \u00b2\nwidth 3\nmap\n...\n...\n", "agent 1 RD\nagent 2 R\n"),
            (DR_MAP, "agent --5 R\n"),
        ],
    )
    def test_malformed_integer_reports_line(self, workdir, capsys, map_text, sol_text):
        (workdir / "odd.map").write_text(map_text, encoding="utf-8")
        (workdir / "odd.sol").write_text(sol_text, encoding="utf-8")
        rc = run(
            "verify", workdir / "odd.map", workdir / "yes.agents",
            "--solution", workdir / "odd.sol",
        )
        assert rc == 1
        assert "line" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "map_text",
        ["height 0\nwidth 3\nmap\n", DR_MAP + "...\n"],
        ids=["zero-height", "extra-row"],
    )
    def test_bad_map_shape_reports_line(self, workdir, capsys, map_text):
        (workdir / "odd.map").write_text(map_text)
        assert run("solve2dir", workdir / "odd.map", workdir / "yes.agents") == 1
        assert "line" in capsys.readouterr().err

    def test_duplicate_start_reports_line(self, workdir, capsys):
        (workdir / "twice.agents").write_text(DR_AGENTS_YES + "agent 3 1 0 0 0\n")
        assert run("solve2dir", workdir / "dr.map", workdir / "twice.agents") == 1
        assert "line 4" in capsys.readouterr().err


class TestCompiledPipeline:
    def test_full_pipeline(self, workdir, capsys):
        run("compile", workdir / "sat.formula", "--out-prefix", workdir / "m")
        assert run("verify", workdir / "m.map", workdir / "m.agents", "--meta", workdir / "m.meta") == 0
        assert run("oracle", workdir / "m.map", workdir / "m.agents", "--mode", "indopt") == 0
        run("compile", workdir / "unsat.formula", "--out-prefix", workdir / "u")
        assert run("oracle", workdir / "u.map", workdir / "u.agents", "--mode", "indopt") == 1
        assert run("sat", workdir / "sat.formula") == 0
        assert run("sat", workdir / "unsat.formula") == 1

    def test_verify_meta_of_another_formula_exits_one(self, workdir, capsys):
        (workdir / "three.formula").write_text("vars 3\nclause 1 + 1 3\nclause 2 - 1 3\nclause 3 + 2\n")
        run("compile", workdir / "sat.formula", "--out-prefix", workdir / "two")
        run("compile", workdir / "three.formula", "--out-prefix", workdir / "three")
        capsys.readouterr()
        assert run("verify", workdir / "two.map", workdir / "two.agents", "--meta", workdir / "three.meta") == 1
        assert capsys.readouterr().err == (
            "error: metadata does not match the instance: clause 3 has no agent\n"
        )
        assert run("verify", workdir / "three.map", workdir / "three.agents", "--meta", workdir / "two.meta") == 1
        assert capsys.readouterr().err == (
            "error: metadata does not match the instance: agent 3 has no clause\n"
        )

    def test_verify_meta_of_an_unknown_variant_exits_one(self, workdir, capsys):
        run("compile", workdir / "sat.formula", "--out-prefix", workdir / "m")
        text = (workdir / "m.meta").read_text()
        (workdir / "bogus.meta").write_text(text.replace("variant base", "variant bogus", 1))
        capsys.readouterr()
        args = ("verify", workdir / "m.map", workdir / "m.agents", "--meta", workdir / "bogus.meta")
        assert run(*args) == 1
        assert capsys.readouterr().err == "error: line 1: unknown variant 'bogus'\n"

    def test_render_meta_of_another_formula_exits_one(self, workdir, capsys):
        (workdir / "three.formula").write_text("vars 3\nclause 1 + 1 3\nclause 2 - 1 3\nclause 3 + 2\n")
        run("compile", workdir / "sat.formula", "--out-prefix", workdir / "two")
        run("compile", workdir / "three.formula", "--out-prefix", workdir / "three")
        capsys.readouterr()
        svg = workdir / "two.svg"
        args = ("render", workdir / "two.map", workdir / "two.agents", "--format", "svg")
        assert run(*args, "--meta", workdir / "three.meta", "--out", svg) == 1
        out = capsys.readouterr()
        assert out.err == "error: metadata does not match the instance: clause 3 has no agent\n"
        assert out.out == "" and not svg.exists()
        assert run(*args, "--meta", workdir / "two.meta", "--out", svg) == 0
        assert 'class="channel"' in svg.read_text()

    def test_render_ascii_checks_the_meta_as_svg_does(self, workdir, capsys):
        (workdir / "three.formula").write_text("vars 3\nclause 1 + 1 3\nclause 2 - 1 3\nclause 3 + 2\n")
        run("compile", workdir / "sat.formula", "--out-prefix", workdir / "two")
        run("compile", workdir / "three.formula", "--out-prefix", workdir / "three")
        capsys.readouterr()
        txt = workdir / "three.txt"
        args = ("render", workdir / "three.map", workdir / "three.agents")
        assert run(*args, "--meta", workdir / "two.meta", "--out", txt) == 1
        out = capsys.readouterr()
        assert out.err == "error: metadata does not match the instance: agent 3 has no clause\n"
        assert out.out == "" and not txt.exists()
        assert run(*args, "--format", "svg", "--meta", workdir / "two.meta") == 1
        assert capsys.readouterr().err == out.err
        assert run(*args, "--meta", workdir / "three.meta", "--out", txt) == 0
        assert run(*args) == 0
        assert capsys.readouterr().out == txt.read_text()

    def test_two_colored_oracle(self, workdir):
        run(
            "compile", workdir / "sat.formula",
            "--out-prefix", workdir / "tc", "--two-colored",
        )
        grid = read_map((workdir / "tc.map").read_text())
        inst = read_agents((workdir / "tc.agents").read_text(), grid)
        from gridmapf.oracle import assignment_minimal_lower_bound

        bound = assignment_minimal_lower_bound(inst)
        rc = run(
            "oracle", workdir / "tc.map", workdir / "tc.agents",
            "--mode", "two-colored", "--objective", "flowtime", "--bound", bound,
        )
        assert rc == 0

    def test_render_ascii_and_svg(self, workdir, capsys):
        run("compile", workdir / "sat.formula", "--out-prefix", workdir / "m")
        assert (
            run(
                "render", workdir / "m.map", workdir / "m.agents",
                "--format", "svg", "--meta", workdir / "m.meta",
                "--out", workdir / "m.svg",
            )
            == 0
        )
        svg = (workdir / "m.svg").read_text()
        assert 'class="channel"' in svg
        assert run("render", workdir / "dr.map", workdir / "yes.agents") == 0
        out = capsys.readouterr().out
        assert "0" in out and "1" in out


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run("frobnicate") == 2

    def test_missing_bound(self, workdir):
        assert (
            run(
                "oracle", workdir / "dr.map", workdir / "yes.agents",
                "--mode", "makespan-le",
            )
            == 2
        )

    def test_verify_needs_target(self, workdir):
        assert run("verify", workdir / "dr.map", workdir / "yes.agents") == 2

    def test_missing_file(self, workdir):
        assert run("solve2dir", workdir / "absent.map", workdir / "yes.agents") == 2
