import time

import pytest

import loopforge.reduction
from loopforge.cli import build_parser, main
from loopforge.errors import LiftError, ParseError
from loopforge.fileio import emit_graph, parse_graph, parse_loop
from loopforge.framework import plan_for
from loopforge.model import HamCycle, full_grid, grid_graph
from loopforge.reduction import puzzle_of
from loopforge.render import render_svg


@pytest.fixture
def square_graph_file(tmp_path):
    path = tmp_path / "g.graph"
    path.write_text(emit_graph(full_grid(2, 2)))
    return path


# a minimal command line of each command, its required flags as (flag,
# value) pairs after the command, and the flags it parses to
FLAG_PINS = {
    "gen": ([("--rows", "2"), ("--cols", "3"), ("--out", "g")],
            {"command": "gen", "rows": 2, "cols": 3, "seed": 0, "count": 1, "out": "g"}),
    "ham": ([("--in", "g")],
            {"command": "ham", "infile": "g", "budget": None, "out": None}),
    "orient": ([("--in", "g")],
               {"command": "orient", "infile": "g", "out": None}),
    "compile": ([("--puzzle", "ww"), ("--in", "g")],
                {"command": "compile", "puzzle": "ww", "infile": "g", "out": None}),
    "solve": ([("--puzzle", "aon"), ("--in", "b")],
              {"command": "solve", "puzzle": "aon", "infile": "b", "all": False,
               "cap": None, "budget": None, "out": None}),
    "verify": ([("--puzzle", "ww"), ("--in", "b"), ("--loop", "l")],
               {"command": "verify", "puzzle": "ww", "infile": "b", "loop": "l", "out": None}),
    "lift": ([("--puzzle", "aon"), ("--in", "g"), ("--loop", "l")],
             {"command": "lift", "puzzle": "aon", "infile": "g", "loop": "l", "out": None}),
    "roundtrip": ([("--puzzle", "ww"), ("--rows", "2"), ("--cols", "2")],
                  {"command": "roundtrip", "puzzle": "ww", "rows": 2, "cols": 2,
                   "budget": None, "dump": None, "out": None}),
    "lab": ([("--puzzle", "aon")],
            {"command": "lab", "puzzle": "aon", "budget": 50_000_000, "out": None}),
    "render": ([("--puzzle", "ww"), ("--in", "b")],
               {"command": "render", "puzzle": "ww", "infile": "b", "loop": None,
                "format": "ascii", "out": None}),
}


class TestFlags:
    """Every command's flags, their destinations and defaults, pinned on
    a minimal command line."""

    @pytest.mark.parametrize("command", FLAG_PINS)
    def test_minimal_command_line(self, command):
        required, parsed = FLAG_PINS[command]
        argv = [command] + [part for flag in required for part in flag]
        got = vars(build_parser().parse_args(argv))
        assert callable(got.pop("fn"))
        assert got == parsed

    @pytest.mark.parametrize("command, left_out", [
        (command, flag) for command, (required, _) in FLAG_PINS.items()
        for flag, _ in required])
    def test_each_required_flag_is_required(self, command, left_out, capsys):
        required, _ = FLAG_PINS[command]
        argv = [command] + [part for flag in required if flag[0] != left_out for part in flag]
        assert main(argv) == 3
        assert left_out in capsys.readouterr().err


class TestExitCodes:
    def test_verify_accepts_sample(self, data_dir):
        code = main(["verify", "--puzzle", "ww",
                     "--in", str(data_dir / "sample_ww.txt"),
                     "--loop", str(data_dir / "sample_ww_loop.txt")])
        assert code == 0

    def test_verify_rejects_wrong_loop(self, data_dir, tmp_path):
        bad = tmp_path / "bad.loop"
        bad.write_text("loop 4\n0 0\n1 0\n1 1\n0 1\n")
        code = main(["verify", "--puzzle", "ww",
                     "--in", str(data_dir / "sample_ww.txt"),
                     "--loop", str(bad)])
        assert code == 1

    def test_malformed_loop_is_input_error(self, data_dir, tmp_path):
        bad = tmp_path / "bad.loop"
        bad.write_text("loop 4\n0 0\n1 0\n0 0\n0 1\n")
        code = main(["verify", "--puzzle", "ww",
                     "--in", str(data_dir / "sample_ww.txt"),
                     "--loop", str(bad)])
        assert code == 3

    def test_missing_file_is_input_error(self, tmp_path):
        code = main(["verify", "--puzzle", "ww",
                     "--in", str(tmp_path / "nope.txt"),
                     "--loop", str(tmp_path / "nope.loop")])
        assert code == 3

    def test_budget_exhaustion_code(self, square_graph_file, tmp_path):
        inst = tmp_path / "w.inst"
        assert main(["compile", "--puzzle", "ww", "--in", str(square_graph_file),
                     "--out", str(inst)]) == 0
        code = main(["solve", "--puzzle", "ww", "--in", str(inst),
                     "--budget", "3", "--out", str(tmp_path / "w.loop")])
        assert code == 2

    def test_roundtrip_budget_stop_code(self, capsys):
        # a Hamiltonian search stopped by the budget is a timeout, never "no"
        assert main(["roundtrip", "--puzzle", "ww", "--cols", "2", "--rows", "2",
                     "--budget", "0"]) == 2
        assert "timeouts 1" in capsys.readouterr().out

    def test_roundtrip_lift_failure_code(self, monkeypatch, capsys):
        # a found loop that does not lift is a soundness failure, though
        # Hamiltonicity and solvability agree
        def refuse(*args):
            raise LiftError("refused")

        monkeypatch.setattr(loopforge.reduction, "lift_solution", refuse)
        assert main(["roundtrip", "--puzzle", "ww", "--cols", "2", "--rows", "2"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "instance 0 hamiltonian yes solvable yes lift FAIL agreement yes"
        assert out[-1] == "summary instances 1 agreements 1 disagreements 0 timeouts 0"

    def test_lift_of_a_loop_the_board_rejects(self, square_graph_file, tmp_path, capsys):
        # the 2x2 grid's Water Walk compile rejects the loop round its
        # four corner cells by rule 3
        bad, out = tmp_path / "bad.loop", tmp_path / "c.loop"
        bad.write_text("loop 4\n0 0\n1 0\n1 1\n0 1\n")
        assert main(["lift", "--puzzle", "ww", "--in", str(square_graph_file),
                     "--loop", str(bad), "--out", str(out)]) == 1
        assert any(line.startswith("rule 3: ")
                   for line in capsys.readouterr().err.splitlines())
        assert not out.exists()

    @pytest.mark.parametrize("loop, code", [(None, 0), ("loop 4\n0 0\n1 0\n1 1\n0 1\n", 1)])
    def test_verify_writes_the_verdict_it_prints(self, loop, code, data_dir, tmp_path, capsys):
        loop_path = data_dir / "sample_ww_loop.txt"
        if loop is not None:
            loop_path = tmp_path / "other.loop"
            loop_path.write_text(loop)
        out = tmp_path / "verdict.txt"
        assert main(["verify", "--puzzle", "ww", "--in", str(data_dir / "sample_ww.txt"),
                     "--loop", str(loop_path), "--out", str(out)]) == code
        text = out.read_text()
        assert text == capsys.readouterr().err
        assert (text == "accept\n") == (code == 0)

    def test_aon_all_capped_at_one_stops_at_its_first_loop(self, square_graph_file, tmp_path):
        # the first loop of `solve --all --cap 1` on the compiled 2x2 board
        # comes within the 574 nodes a first-loop solve spends (before the
        # region search walked traversals only for closed cycles, it took
        # 148,422 nodes and about 1.2 s)
        inst = tmp_path / "a.inst"
        assert main(["compile", "--puzzle", "aon", "--in", str(square_graph_file),
                     "--out", str(inst)]) == 0
        t0 = time.perf_counter()
        code = main(["solve", "--puzzle", "aon", "--in", str(inst), "--all", "--cap", "1",
                     "--budget", "574", "--out", str(tmp_path / "a.loop")])
        assert code == 0 and time.perf_counter() - t0 < 0.5
        assert (tmp_path / "a.loop.0").exists()

    def test_crash_is_internal_error(self, square_graph_file, monkeypatch, capsys):
        import loopforge.cli

        def crash(g, budget):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(loopforge.cli, "find_hamiltonian_cycle", crash)
        assert main(["ham", "--in", str(square_graph_file)]) == 4
        assert "internal error: RecursionError" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["aon 0 0\n", "aon 3 0\n", "ww 0 0\n", "ww 3 0\n"])
    def test_zero_dimension_board_is_input_error(self, text, tmp_path):
        puzzle = text.split()[0]
        with pytest.raises(ParseError):
            puzzle_of(puzzle).parse(text)
        board = tmp_path / "b.inst"
        board.write_text(text)
        assert main(["solve", "--puzzle", puzzle, "--in", str(board)]) == 3
        assert main(["render", "--puzzle", puzzle, "--in", str(board)]) == 3

    @pytest.mark.parametrize("clue", ["\u0663", "\u00b2"])  # Arabic-Indic 3, superscript 2
    def test_non_ascii_digit_clue_is_input_error(self, clue, tmp_path):
        board = tmp_path / "b.inst"
        board.write_text(f"ww 2 2\n..\n.{clue}\n", encoding="utf-8")
        assert main(["solve", "--puzzle", "ww", "--in", str(board)]) == 3

    @pytest.mark.parametrize("token", ["+2", "1_0", "\u0661"])
    def test_non_decimal_integer_is_input_error(self, token, data_dir, tmp_path):
        graph = tmp_path / "g.graph"
        graph.write_text(f"grid 2 {token}\n", encoding="utf-8")
        assert main(["compile", "--puzzle", "ww", "--in", str(graph),
                     "--out", str(tmp_path / "w.inst")]) == 3
        bad = tmp_path / "bad.loop"
        bad.write_text(f"loop 4\n0 0\n{token} 0\n1 1\n0 1\n", encoding="utf-8")
        assert main(["verify", "--puzzle", "ww", "--in", str(data_dir / "sample_ww.txt"),
                     "--loop", str(bad)]) == 3

    def test_unsatisfiable_code(self, tmp_path):
        inst = tmp_path / "w.inst"
        inst.write_text("ww 3 3\n~~~\n~1~\n~~~\n")
        code = main(["solve", "--puzzle", "ww", "--in", str(inst),
                     "--out", str(tmp_path / "w.loop")])
        assert code == 1

    @pytest.mark.parametrize("argv", [
        [],
        ["frobnicate"],
        ["solve", "--puzzle", "xyz", "--in", "b.inst"],
        ["solve", "--puzzle", "ww"],
        ["solve", "--puzzle", "ww", "--in", "b.inst", "--cap", "many"],
    ])
    def test_usage_error_is_input_error(self, argv, capsys):
        # argparse's own code for a usage error, 2, means a budget stop here
        assert main(argv) == 3
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        assert main(argv) == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("cap", ["0", "-2"])
    def test_cap_below_one_is_input_error(self, data_dir, tmp_path, cap):
        for all_ in (["--all"], []):
            code = main(["solve", "--puzzle", "ww", "--in", str(data_dir / "sample_ww.txt"),
                         *all_, "--cap", cap, "--out", str(tmp_path / "sol")])
            assert code == 3
            assert not list(tmp_path.glob("sol*"))

    @pytest.mark.parametrize("budget", ["-1", "-5"])
    @pytest.mark.parametrize("command", ["solve", "ham", "lab", "roundtrip"])
    def test_negative_budget_is_input_error(self, command, budget, data_dir,
                                            square_graph_file, tmp_path, capsys):
        args = {"solve": ["--puzzle", "ww", "--in", str(data_dir / "sample_ww.txt")],
                "ham": ["--in", str(square_graph_file)],
                "lab": ["--puzzle", "ww"],
                "roundtrip": ["--puzzle", "ww", "--rows", "2", "--cols", "2"]}[command]
        out = tmp_path / "out"
        assert main([command, *args, "--budget", budget, "--out", str(out)]) == 3
        assert f"budget must be at least 0, got {budget}" in capsys.readouterr().err
        assert not out.exists()

    def test_cap_without_all_is_usage_error(self, data_dir, tmp_path, capsys):
        code = main(["solve", "--puzzle", "ww", "--in", str(data_dir / "sample_ww.txt"),
                     "--cap", "3", "--out", str(tmp_path / "sol")])
        assert code == 3
        assert "--cap" in capsys.readouterr().err
        assert not list(tmp_path.glob("sol*"))


class TestPipelines:
    def test_gen_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.graph", tmp_path / "b.graph"
        assert main(["gen", "--rows", "3", "--cols", "4", "--seed", "9",
                     "--out", str(a)]) == 0
        assert main(["gen", "--rows", "3", "--cols", "4", "--seed", "9",
                     "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_gen_square_forced(self, tmp_path):
        out = tmp_path / "g.graph"
        assert main(["gen", "--rows", "2", "--cols", "2", "--seed", "1",
                     "--out", str(out)]) == 0
        assert parse_graph(out.read_text()) == full_grid(2, 2)

    def test_gen_count_many_valid(self, tmp_path):
        from loopforge.model import degree_profile

        out = tmp_path / "g"
        assert main(["gen", "--rows", "3", "--cols", "3", "--seed", "7",
                     "--count", "5", "--out", str(out)]) == 0
        for i in range(5):
            g = parse_graph((tmp_path / f"g.{i}").read_text())
            assert all(d in (2, 3) for d in degree_profile(g).values())

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_gen_count_below_one_is_input_error(self, count, tmp_path, capsys):
        assert main(["gen", "--rows", "2", "--cols", "2", "--count", count,
                     "--out", str(tmp_path / "g")]) == 3
        assert "--count" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_ham_finds_cycle(self, square_graph_file, tmp_path):
        out = tmp_path / "c.loop"
        assert main(["ham", "--in", str(square_graph_file), "--out", str(out)]) == 0
        cycle = parse_loop(out.read_text())
        assert len(cycle.cells) == 4

    def test_ham_finds_long_cycle(self, ring_2x1000, tmp_path):
        g, out = tmp_path / "g.graph", tmp_path / "c.loop"
        g.write_text(emit_graph(ring_2x1000))
        assert main(["ham", "--in", str(g), "--out", str(out)]) == 0
        assert len(parse_loop(out.read_text()).cells) == 2000

    def test_ham_and_lift_write_the_loop_format(self, square_graph_file, tmp_path):
        ring = grid_graph(2, 3, [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (1, 1)),
                                 ((0, 1), (0, 2)), ((1, 1), (1, 2)), ((0, 2), (1, 2))])
        g, out = tmp_path / "ring.graph", tmp_path / "c.loop"
        g.write_text(emit_graph(ring))
        assert main(["ham", "--in", str(g), "--out", str(out)]) == 0
        assert out.read_text() == "loop 6\n0 0\n0 1\n0 2\n1 2\n1 1\n1 0\n"
        for puzzle in ("aon", "ww"):
            board, loop = tmp_path / "b.inst", tmp_path / "b.loop"
            assert main(["compile", "--puzzle", puzzle, "--in", str(square_graph_file),
                         "--out", str(board)]) == 0
            assert main(["solve", "--puzzle", puzzle, "--in", str(board),
                         "--out", str(loop)]) == 0
            assert main(["lift", "--puzzle", puzzle, "--in", str(square_graph_file),
                         "--loop", str(loop), "--out", str(out)]) == 0
            assert out.read_text() == "loop 4\n0 0\n0 1\n1 1\n1 0\n"

    def test_ham_reports_none(self, tmp_path):
        g = tmp_path / "g.graph"
        g.write_text(emit_graph(full_grid(3, 3)))
        assert main(["ham", "--in", str(g), "--out", str(tmp_path / "c.loop")]) == 1

    @pytest.mark.parametrize("puzzle", ["aon", "ww"])
    def test_full_pipeline_matches_library(self, puzzle, square_graph_file, tmp_path):
        p = puzzle_of(puzzle)
        inst_path = tmp_path / "b.inst"
        loop_path = tmp_path / "b.loop"
        cycle_path = tmp_path / "c.loop"
        render_path = tmp_path / "b.txt"
        assert main(["compile", "--puzzle", puzzle, "--in", str(square_graph_file),
                     "--out", str(inst_path)]) == 0
        g = full_grid(2, 2)
        expected = p.compile(g, plan_for(g))
        assert p.parse(inst_path.read_text()) == expected

        assert main(["solve", "--puzzle", puzzle, "--in", str(inst_path),
                     "--out", str(loop_path)]) == 0
        loop = parse_loop(loop_path.read_text())
        assert p.verify(expected, loop).ok
        assert main(["verify", "--puzzle", puzzle, "--in", str(inst_path),
                     "--loop", str(loop_path)]) == 0
        assert main(["lift", "--puzzle", puzzle, "--in", str(square_graph_file),
                     "--loop", str(loop_path), "--out", str(cycle_path)]) == 0
        assert HamCycle(parse_loop(cycle_path.read_text()).cells).is_cycle_of(g)
        assert main(["render", "--puzzle", puzzle, "--in", str(inst_path),
                     "--loop", str(loop_path), "--out", str(render_path)]) == 0
        assert render_path.read_text() == p.board_text(expected, frozenset(loop.cells))

    def test_orient_dump(self, square_graph_file, tmp_path):
        out = tmp_path / "plan.txt"
        assert main(["orient", "--in", str(square_graph_file), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4 and all(l.startswith("vertex ") for l in lines)

    def test_roundtrip_command(self, tmp_path):
        out = tmp_path / "report.txt"
        assert main(["roundtrip", "--puzzle", "ww", "--rows", "2", "--cols", "2",
                     "--out", str(out)]) == 0
        assert "summary instances 1" in out.read_text()

    @pytest.mark.parametrize("cols, rows", [(1, 4), (4, 1)])
    def test_roundtrip_below_2x2_is_input_error(self, cols, rows, tmp_path, capsys):
        # no candidate exists, so there is no agreement to report
        out = tmp_path / "report.txt"
        assert main(["roundtrip", "--puzzle", "ww", "--cols", str(cols), "--rows", str(rows),
                     "--out", str(out)]) == 3
        assert f"need at least a 2x2 grid, got {cols}x{rows}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("puzzle", ["aon", "ww"])
    def test_roundtrip_dumps_counterexample(self, puzzle, tmp_path, monkeypatch):
        # a Hamiltonicity check that wrongly says "no" makes the solved
        # 2x2 compile a disagreement, which must be written out
        monkeypatch.setattr(loopforge.reduction, "find_hamiltonian_cycle",
                            lambda g, budget=None: None)
        dump = tmp_path / "dump"
        assert main(["roundtrip", "--puzzle", puzzle, "--rows", "2", "--cols", "2",
                     "--dump", str(dump), "--out", str(tmp_path / "report.txt")]) == 1
        p = puzzle_of(puzzle)
        g = parse_graph((dump / f"{puzzle}-0.graph").read_text())
        assert g == full_grid(2, 2)
        inst = p.parse((dump / f"{puzzle}-0.inst").read_text())
        assert inst == p.compile(g, plan_for(g))
        assert p.verify(inst, parse_loop((dump / f"{puzzle}-0.loop").read_text())).ok

    def test_lab_command(self, tmp_path):
        out = tmp_path / "cert.txt"
        assert main(["lab", "--puzzle", "ww", "--out", str(out)]) == 0
        assert "pair N S count 3" in out.read_text()

    def test_solve_all_writes_every_solution(self, data_dir, tmp_path, capsys):
        out = tmp_path / "sol"
        assert main(["solve", "--puzzle", "ww", "--in",
                     str(data_dir / "sample_ww.txt"), "--all",
                     "--out", str(out)]) == 0
        found = sorted(tmp_path.glob("sol.*"))
        assert len(found) == 7
        assert capsys.readouterr().err == "7 solutions\n"

    def test_solve_all_capped_says_not_exhaustive(self, data_dir, tmp_path, capsys):
        out = tmp_path / "sol"
        assert main(["solve", "--puzzle", "ww", "--in",
                     str(data_dir / "sample_ww.txt"), "--all", "--cap", "3",
                     "--out", str(out)]) == 0
        assert len(list(tmp_path.glob("sol.*"))) == 3
        err = capsys.readouterr().err
        assert err.startswith("3 solutions") and "not exhaustive" in err


def board_text(puzzle, inst, loop=None):
    """The board rows the ``render`` command prints, ``#`` on the loop."""
    return puzzle_of(puzzle).board_text(inst, frozenset(loop.cells) if loop else frozenset())


class TestRender:
    def test_ww_ascii_without_loop_matches_file_body(self, data_dir, ww_fixture):
        body = (data_dir / "sample_ww.txt").read_text().split("\n", 1)[1]
        assert board_text("ww", ww_fixture) == body

    def test_ww_ascii_overlays_loop(self, ww_fixture, ww_fixture_loop):
        text = board_text("ww", ww_fixture, ww_fixture_loop)
        assert text.count("#") == 14

    def test_aon_ascii_without_loop_matches_file_body(self, data_dir, aon_fixture):
        body = (data_dir / "sample_aon.txt").read_text().split("\n", 1)[1]
        assert board_text("aon", aon_fixture) == body

    def test_svg_of_a_non_board_is_a_type_error(self, aon_fixture, aon_fixture_loop):
        # a board's regions have its width and height, yet are no board
        with pytest.raises(TypeError, match=r"^cannot render RegionDecomposition$"):
            render_svg(aon_fixture.regions, aon_fixture_loop)

    def test_svg_contains_loop_polyline(self, ww_fixture, ww_fixture_loop):
        svg = render_svg(ww_fixture, ww_fixture_loop)
        assert svg.startswith("<svg ") or svg.startswith("<svg\n") or "<svg" in svg
        assert "polyline" in svg

    def test_render_deterministic(self, ww_fixture, ww_fixture_loop):
        assert render_svg(ww_fixture, ww_fixture_loop) == render_svg(
            ww_fixture, ww_fixture_loop)
        assert board_text("ww", ww_fixture, ww_fixture_loop) == board_text(
            "ww", ww_fixture, ww_fixture_loop)

    def test_render_command_ascii(self, data_dir, tmp_path, capsys):
        code = main(["render", "--puzzle", "ww",
                     "--in", str(data_dir / "sample_ww.txt"),
                     "--loop", str(data_dir / "sample_ww_loop.txt")])
        assert code == 0
        assert capsys.readouterr().out.count("#") == 14

    def test_render_command_without_loop_is_board_only(self, data_dir, capsys):
        code = main(["render", "--puzzle", "ww",
                     "--in", str(data_dir / "sample_ww.txt")])
        assert code == 0
        out = capsys.readouterr().out
        assert "#" not in out
        assert out == (data_dir / "sample_ww.txt").read_text().split("\n", 1)[1]

    def test_render_command_rejects_off_board_loop(self, data_dir, tmp_path):
        big_loop = tmp_path / "big.loop"
        big_loop.write_text("loop 4\n7 7\n8 7\n8 8\n7 8\n")
        code = main(["render", "--puzzle", "ww",
                     "--in", str(data_dir / "sample_ww.txt"),
                     "--loop", str(big_loop)])
        assert code == 3
