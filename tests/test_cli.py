"""Command-line behavior: dispatch, exit codes, stable stdout, file round trips."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gallaikit
from gallaikit.cli import main, run
from gallaikit.euclid import parse_configuration
from gallaikit.graphs import find_mono_subgraph, find_rainbow_triangle, parse_edge_coloring
from gallaikit.grid import GridColoring, format_grid_certificate
from gallaikit.sat import parse_dimacs
from gallaikit.search import Outcome, parse_search_certificate

from oracles import assignment_from_coloring, naive_mono_target_exists, naive_rainbow_triangle_exists


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestGridSearch:
    def test_found_summary_and_certificate(self, tmp_path):
        out_file = str(tmp_path / "cert.txt")
        result = run(["grid-search", "2", "2", "4", "--out", out_file])
        assert result.exit_code == 0
        assert result.summary.startswith("outcome found 2 2 4 nodes=")
        out, n, m, r = parse_search_certificate((tmp_path / "cert.txt").read_text())
        assert (out.kind, n, m, r) == (Outcome.FOUND, 2, 2, 4)

    def test_exhausted_exit_zero(self):
        result = run(["grid-search", "2", "2", "1"])
        assert result.exit_code == 0
        assert result.summary.startswith("outcome exhausted")

    def test_budget_exit_one(self):
        result = run(["grid-search", "3", "7", "2", "--budget", "10"])
        assert result.exit_code == 1
        assert result.summary.startswith("outcome budget")

    def test_workers_flag_never_changes_output(self):
        plain = run(["grid-search", "3", "3", "3"])
        hinted = run(["grid-search", "3", "3", "3", "--workers", "8"])
        assert plain == hinted

    def test_a_search_never_forks(self, monkeypatch):
        # --workers is ignored: a search of 31,457 nodes runs in this process too
        def refuse_fork():
            raise AssertionError("a search forked")

        monkeypatch.setattr(os, "fork", refuse_fork)
        assert run(["grid-search", "4", "12", "3", "--workers", "2"]).summary == "outcome found 4 12 3 nodes=31457"

    def test_bad_parameters_exit_two(self):
        assert run(["grid-search", "0", "2", "2"]).exit_code == 2


class TestGridVerify:
    def test_good_grid_certificate(self, tmp_path):
        g = GridColoring(2, 2, 2, [[1, 2], [2, 1]])
        path = write(tmp_path, "good.txt", format_grid_certificate(g))
        result = run(["grid-verify", path])
        assert result.exit_code == 0
        assert result.summary == "good 2 2 2"

    def test_mono_witness_printed(self, tmp_path):
        g = GridColoring(2, 2, 1, [[1, 1], [1, 1]])
        path = write(tmp_path, "mono.txt", format_grid_certificate(g))
        result = run(["grid-verify", path])
        assert result.exit_code == 1
        assert result.summary == "bad mono=1,2,1,2"

    def test_rainbow_witness_printed(self, tmp_path):
        g = GridColoring(2, 2, 4, [[1, 2], [3, 4]])
        path = write(tmp_path, "rain.txt", format_grid_certificate(g))
        result = run(["grid-verify", path])
        assert result.exit_code == 1
        assert "rainbow=1,2,1,2" in result.summary

    def test_search_certificate_accepted(self, tmp_path):
        out_file = str(tmp_path / "cert.txt")
        run(["grid-search", "3", "3", "2", "--out", out_file])
        result = run(["grid-verify", out_file])
        assert result.exit_code == 0

    def test_exhausted_certificate_has_nothing_to_verify(self, tmp_path):
        out_file = str(tmp_path / "cert.txt")
        run(["grid-search", "2", "2", "1", "--out", out_file])
        result = run(["grid-verify", out_file])
        assert result.exit_code == 2

    def test_malformed_file_exit_two(self, tmp_path):
        path = write(tmp_path, "junk.txt", "grid 2 2\n1 1\n")
        assert run(["grid-verify", path]).exit_code == 2

    def test_missing_file_exit_two(self):
        assert run(["grid-verify", "/nonexistent/path.txt"]).exit_code == 2

    def test_negative_node_count_exit_two(self, tmp_path):
        path = write(tmp_path, "cert.txt", "outcome found 2 2 2 nodes=-5\ngrid 2 2 2\n1 2\n2 1\n")
        result = run(["grid-verify", path])
        assert result.exit_code == 2
        assert "bad outcome header" in result.summary


class TestSatCommands:
    def test_export_then_check_good_model(self, tmp_path):
        cnf_path = str(tmp_path / "grid.cnf")
        result = run(["sat-export", "2", "2", "2", "--out", cnf_path])
        assert result.exit_code == 0
        assert result.summary == "cnf 2 2 2 vars=8 clauses=10"
        cnf = parse_dimacs((tmp_path / "grid.cnf").read_text())
        assert cnf.num_vars == 8

        good = GridColoring(2, 2, 2, [[1, 2], [2, 1]])
        asn = assignment_from_coloring(good)
        model_text = " ".join(str(v if asn[v] else -v) for v in sorted(asn)) + " 0\n"
        model_path = write(tmp_path, "model.txt", model_text)
        result = run(["sat-check", cnf_path, "--model", model_path])
        assert result.exit_code == 0
        assert result.summary.startswith("model ok")

    def test_check_bad_model(self, tmp_path):
        cnf_path = str(tmp_path / "grid.cnf")
        run(["sat-export", "2", "2", "2", "--out", cnf_path])
        model_path = write(tmp_path, "model.txt", " ".join(str(-v) for v in range(1, 15)))
        result = run(["sat-check", cnf_path, "--model", model_path])
        assert result.exit_code == 1
        assert result.summary == "model violates formula"

    def test_check_incomplete_model_exit_two(self, tmp_path):
        cnf_path = str(tmp_path / "grid.cnf")
        run(["sat-export", "2", "2", "2", "--out", cnf_path])
        model_path = write(tmp_path, "model.txt", "1 2 3")
        assert run(["sat-check", cnf_path, "--model", model_path]).exit_code == 2

    def test_check_negative_variable_count_exit_two(self, tmp_path):
        cnf_path = write(tmp_path, "neg.cnf", "p cnf -5 0\n")
        model_path = write(tmp_path, "model.txt", "")
        result = run(["sat-check", cnf_path, "--model", model_path])
        assert result.exit_code == 2
        assert "num_vars" in result.summary

    def test_export_requires_out(self):
        assert run(["sat-export", "2", "2", "2"]).exit_code == 2


class TestGrSearch:
    def test_p4_three_colors(self):
        result = run(["gr-search", "p4", "3"])
        assert result.exit_code == 0
        assert result.summary == "gr=6"

    def test_budget_cap_gives_none(self):
        result = run(["gr-search", "c4", "3", "--budget", "50"])
        assert result.exit_code == 1
        assert result.summary == "gr=undecided t=6"

    def test_tmax_too_small(self):
        result = run(["gr-search", "c4", "3", "--tmax", "5"])
        assert result.exit_code == 1
        assert result.summary == "gr=none tmax=5"

    def test_unknown_target_exit_two(self):
        assert run(["gr-search", "k4", "3"]).exit_code == 2

    @pytest.mark.parametrize("target, gr", [("c4", 7), ("p4", 6)])
    def test_out_writes_the_good_coloring_below_gr(self, tmp_path, target, gr):
        path = tmp_path / "K"
        result = run(["gr-search", target, "3", "--out", str(path)])
        assert (result.exit_code, result.summary) == (0, f"gr={gr}")
        good = parse_edge_coloring(path.read_text())
        assert (good.t, good.r) == (gr - 1, 3)
        assert find_rainbow_triangle(good) is None
        assert find_mono_subgraph(good, target.upper()) is None
        assert not naive_rainbow_triangle_exists(good)
        assert not naive_mono_target_exists(good, target.upper())

    @pytest.mark.parametrize("extra", [["--tmax", "5"], ["--budget", "50"]])
    def test_out_written_only_when_gr_is_decided(self, tmp_path, extra):
        path = tmp_path / "K"
        assert run(["gr-search", "c4", "3", *extra, "--out", str(path)]).exit_code == 1
        assert not path.exists()


class TestEmbed:
    def test_lattice_summary_and_file(self, tmp_path):
        out_file = str(tmp_path / "family.txt")
        result = run(["embed", "lattice", "1", "3", "4", "--out", out_file])
        assert result.exit_code == 0
        assert result.summary == "lattice r=1 rows=7 cols=12 points=84 ambient=19 affine_rank=17"
        config = parse_configuration((tmp_path / "family.txt").read_text())
        assert len(config) == 84

    def test_simplex_summary_and_file(self, tmp_path):
        out_file = str(tmp_path / "pairs.txt")
        result = run(["embed", "simplex", "4", "--out", out_file])
        assert result.exit_code == 0
        assert result.summary == "simplex t=4 points=6 dim=4"
        config = parse_configuration((tmp_path / "pairs.txt").read_text())
        assert len(config) == 6

    def test_bad_parameters_exit_two(self):
        assert run(["embed", "simplex", "1"]).exit_code == 2

    @pytest.mark.parametrize("a, b", [("1e-7", "1"), ("1e12", "1e12"), ("1e308", "1e308")])
    def test_affine_rank_does_not_depend_on_scale(self, a, b):
        result = run(["embed", "lattice", "1", a, b])
        assert result.summary == "lattice r=1 rows=7 cols=12 points=84 ambient=19 affine_rank=17"

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["embed", "lattice", "2", "1", "1.5"],
                "83343d496e106b8cf852fa1d0fa64e54b05e82db975e633ab4ec439849315cdc",
            ),
            (
                ["embed", "simplex", "7"],
                "d2377b858e7b1976f613b603b8ca102bebe38ebaec93ab7697c1e7b5d6d37db5",
            ),
        ],
    )
    def test_files_are_byte_stable(self, tmp_path, argv, digest):
        out_file = tmp_path / "family.txt"
        assert run([*argv, "--out", str(out_file)]).exit_code == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


class TestStripFalsify:
    def test_zero_hits(self):
        result = run(["strip-falsify", "3", "1", "1.5", "--trials", "20000", "--seed", "42"])
        assert result.exit_code == 0
        assert result.summary == "mono=0 rainbow=0"

    def test_deterministic_stdout(self, capsys):
        argv = ["strip-falsify", "3", "1", "1.2", "--trials", "5000", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first == "mono=0 rainbow=0\n"

    def test_out_of_range_aspect_exit_two(self):
        result = run(["strip-falsify", "3", "1", "1.8", "--trials", "10", "--seed", "0"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "a, b, code, summary",
        [
            # b^2 > 3a^2 exactly, though b <= sqrt(3)*a in floats
            ("5.61679062459942", "9.728566737282724", 2, "error: require a <= b <= sqrt(3)*a"),
            # b^2 <= 3a^2 exactly, though b > sqrt(3)*a in floats
            ("9.221174446756038", "15.97154264723729", 0, "mono=0 rainbow=0"),
        ],
    )
    def test_aspect_range_is_exact(self, a, b, code, summary):
        result = run(["strip-falsify", "3", a, b, "--trials", "5000", "--seed", "1"])
        assert result.exit_code == code
        assert result.summary.startswith(summary)

    @pytest.mark.parametrize(
        "a, b", [("inf", "inf"), ("1e308", "1e308"), ("nan", "1"), ("1", "nan"), ("1", "inf")]
    )
    def test_nonfinite_widths_exit_two(self, a, b):
        result = run(["strip-falsify", "3", a, b, "--trials", "10", "--seed", "1"])
        assert result.exit_code == 2
        assert result.summary.startswith("error: ")

    @pytest.mark.parametrize("r", ["100000000000000000", "100000000000000000000000"])
    def test_unresolved_strip_count_exits_two(self, r):
        # doubles near r*a are too far apart to tell a corner's strip
        result = run(["strip-falsify", r, "1", "1.5", "--trials", "2000", "--seed", "1"])
        assert result.exit_code == 2
        assert result.summary.startswith("error: r*a + a + b must be finite")


class TestRainbowSegment:
    def test_halfplane(self):
        result = run(
            ["rainbow-segment", "--d", "1", "--cx", "-5", "--cy", "0", "--dx", "5", "--dy", "0"]
        )
        assert result.exit_code == 0
        assert "colors=(1,2)" in result.summary
        assert "iterations=5" in result.summary

    def test_strip_oracle(self):
        result = run(
            [
                "rainbow-segment",
                "--d", "0.75",
                "--cx", "0.2", "--cy", "0", "--dx", "7.4", "--dy", "1",
                "--oracle", "strip",
                "--strip-r", "3", "--strip-a", "1",
            ]
        )
        assert result.exit_code == 0

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_strip_width_exit_two(self, value):
        argv = ["rainbow-segment", "--d", "1", "--cx", "0.2", "--cy", "0", "--dx", "7.4", "--dy", "1",
                "--oracle", "strip", "--strip-a", value]
        result = run(argv)
        assert result.exit_code == 2
        assert result.summary == "error: a must be positive and finite"

    def test_strip_overflow_exit_two(self):
        argv = ["rainbow-segment", "--d", "1", "--cx", "1e10", "--cy", "0", "--dx", "10000000005", "--dy", "0",
                "--oracle", "strip", "--strip-a", "1e-300"]
        result = run(argv)
        assert result.exit_code == 2
        assert result.summary == "error: x/a is not finite at x=10000000000.0, a=1e-300"

    def test_same_color_endpoints_exit_two(self):
        result = run(
            ["rainbow-segment", "--d", "1", "--cx", "1", "--cy", "0", "--dx", "2", "--dy", "0"]
        )
        assert result.exit_code == 2

    def test_walk_too_long_exit_two(self):
        argv = ["rainbow-segment", "--d", "1", "--cx=-1e300", "--cy", "0", "--dx", "1e300", "--dy", "0"]
        result = run(argv)
        assert result.exit_code == 2
        assert result.summary.startswith("error: |c dpt| / d must be at most 1000000")

    def test_step_below_coordinate_resolution_exit_two(self):
        argv = ["rainbow-segment", "--d", "0.05", "--cx", "1e15", "--cy", "0",
                "--dx", "1.00000000000001e15", "--dy", "0", "--oracle", "strip"]
        result = run(argv)
        assert result.exit_code == 2
        assert result.summary.startswith("error: the walk did not end within 200 steps")

    def test_pair_not_at_distance_d_exit_two(self):
        argv = ["rainbow-segment", "--d", "0.18", "--cx", "1e15", "--cy", "0",
                "--dx", "1.00000000000001e15", "--dy", "0", "--oracle", "strip"]
        result = run(argv)
        assert result.exit_code == 2
        assert result.summary == "error: the pair found is 0.125 apart, not d=0.18: these coordinates cannot resolve d"

    @pytest.mark.parametrize(
        "flag, value", [("--d", "inf"), ("--d", "nan"), ("--dx", "inf"), ("--cx", "nan")]
    )
    def test_nonfinite_input_exit_two(self, flag, value):
        values = {"--d": "1", "--cx": "-1", "--cy": "0", "--dx": "1", "--dy": "0", flag: value}
        result = run(["rainbow-segment", *(tok for item in values.items() for tok in item)])
        assert result.exit_code == 2
        assert "finite" in result.summary


class TestHarness:
    def test_unknown_command_exit_two(self):
        assert run(["frobnicate"]).exit_code == 2

    def test_unknown_flag_exit_two(self):
        assert run(["grid-search", "2", "2", "2", "--frob"]).exit_code == 2

    def test_version_everywhere(self, capsys):
        assert main(["--version"]) == 0
        assert "gallaikit" in capsys.readouterr().out
        for command in ["grid-search", "gr-search", "gadget-verify", "strip-falsify"]:
            assert main([command, "--version"]) == 0
            assert "gallaikit" in capsys.readouterr().out

    def test_help_everywhere(self):
        assert run(["--help"]).exit_code == 0
        for command in ["grid-search", "grid-verify", "sat-export", "sat-check", "gr-search",
                        "embed", "gadget-verify", "strip-falsify", "rainbow-segment"]:
            assert run([command, "--help"]).exit_code == 0
        for emb in ["lattice", "simplex"]:
            assert run(["embed", emb, "--help"]).exit_code == 0
            assert run(["embed", emb, "--version"]).exit_code == 0

    def test_error_summaries_go_to_stderr(self, capsys):
        code = main(["strip-falsify", "3", "1", "9", "--trials", "1", "--seed", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error:" in captured.err

    def test_repeated_runs_byte_identical(self, capsys):
        argv = ["grid-search", "3", "4", "3"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_combinatorial_commands_never_load_numpy(self):
        # In a fresh interpreter: the package, the non-geometry layers, a
        # geometry command's --version and a grid search given --workers leave
        # numpy unloaded.
        script = (
            "import sys\n"
            "import gallaikit.cli, gallaikit.search, gallaikit.graphs, gallaikit.sat\n"
            "from gallaikit.cli import run\n"
            "assert run(['gadget-verify', '--version']).exit_code == 0\n"
            "assert run(['grid-search', '3', '3', '3', '--workers', '2']).exit_code == 0\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        src = str(Path(gallaikit.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize(
        "argv, code, stdout",
        [
            (["grid-search", "2", "2", "200000"], 0, "outcome found 2 2 200000 nodes=5\n"),
            (["gr-search", "c4", "200000", "--tmax", "4"], 1, "gr=none tmax=4\n"),
            (["grid-search", "10", "10", "10000000"], 0, "outcome found 10 10 10000000 nodes=109\n"),
            (["gr-search", "c4", "10000000", "--tmax", "6"], 1, "gr=none tmax=6\n"),
        ],
    )
    def test_many_colors_in_bounded_memory(self, argv, code, stdout):
        # In a fresh interpreter capped at 512 MiB of address space: a search
        # with first-use colors reaches at most one color per slot, so its
        # tables and loops are sized by the instance and do not grow with r.
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))\n"
            "from gallaikit.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = str(Path(gallaikit.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert (done.returncode, done.stdout) == (code, stdout), done.stderr[-2000:]

    ALL_COMMANDS = [
        [], ["grid-search"], ["grid-verify"], ["sat-export"], ["sat-check"], ["gr-search"], ["embed"],
        ["embed", "lattice"], ["embed", "simplex"], ["gadget-verify"], ["strip-falsify"], ["rainbow-segment"],
    ]

    @pytest.mark.parametrize(
        "argvs, expected",
        [
            ([[*cmd, flag] for cmd in ALL_COMMANDS for flag in ("--version", "--help")], []),
            ([["grid-search", "3", "3", "2"]], ["dataclasses", "grid", "search"]),
            ([["grid-verify", "{missing}"]], ["dataclasses", "grid", "search"]),
            ([["sat-export", "2", "2", "2", "--out", "{out}"]], ["dataclasses", "grid", "sat"]),
            ([["sat-check", "{missing}", "--model", "{missing}"]], ["dataclasses", "grid", "sat"]),
            ([["gr-search", "c4", "2"]], ["dataclasses", "graphs", "grid", "search"]),
            ([["embed", "lattice", "1", "1", "1"]], ["dataclasses", "euclid", "grid", "numpy"]),
            ([["embed", "simplex", "3"]], ["dataclasses", "euclid", "grid"]),
            ([["gadget-verify"]], ["dataclasses", "euclid", "grid", "search"]),
        ],
        ids=[
            "version-help", "grid-search", "grid-verify", "sat-export", "sat-check", "gr-search", "embed",
            "embed-simplex", "gadget-verify",
        ],
    )
    def test_each_command_loads_only_its_layers(self, tmp_path, argvs, expected):
        # In a fresh interpreter: the gallaikit layers, dataclasses and numpy that
        # sys.modules holds after the commands ran.
        paths = {"missing": str(tmp_path / "missing"), "out": str(tmp_path / "out.cnf")}
        argvs = [[tok.format(**paths) for tok in argv] for argv in argvs]
        script = (
            "import json, sys\n"
            "from gallaikit.cli import run\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert run(argv).exit_code in (0, 2), argv\n"
            "names = [m for m in ('dataclasses', 'numpy') if m in sys.modules]\n"
            "names += [m[len('gallaikit.'):] for m in sys.modules if m.startswith('gallaikit.')]\n"
            "print(json.dumps(sorted(set(names) - {'cli'})))\n"
        )
        src = str(Path(gallaikit.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argvs)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == expected
