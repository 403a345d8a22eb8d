"""Fuzzing the strict parsers and the file-reading CLI commands.

Every parser must return a value or raise CertificateError on any text, and
`cli.run` must return exit code 0, 1 or 2 on any file, never raise.  Each
property runs in a child interpreter that caps its own address space, so a
parser that allocates by a number in a header fails with MemoryError there
instead of exhausting the machine.  Run one property by hand with

    PYTHONPATH=src python tests/test_fuzz.py grid_certificate
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gallaikit.cli import run
from gallaikit.euclid import Configuration, LabeledPoint, format_configuration, parse_configuration
from gallaikit.graphs import EdgeColoring, format_edge_coloring, parse_edge_coloring
from gallaikit.grid import CertificateError, GridColoring, format_grid_certificate, parse_grid_certificate
from gallaikit.sat import CnfDocument, format_dimacs, parse_dimacs, parse_model_text
from gallaikit.search import Outcome, SearchOutcome, format_search_certificate, parse_search_certificate

ADDRESS_SPACE = 1 << 30  # bytes; a parser that needs more is at fault
FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)

TOKENS = [
    "0", "1", "2", "3", "4", "-1", "-2", "-0", "+1", "007", "1_0", "\u0663", "9" * 20, "1" * 5000,
    "nan", "inf", "-inf", "1e309", "0.5", "1e3", "0x10", "v", "c", "p", "s", "S", "SAT", "SATISFIABLE",
    "cnf", "grid", "kgraph", "config", "outcome", "found", "exhausted", "budget", "nodes=1", "nodes=-1",
    "nodes=", "\x00", "\u00e9",
]
SEPARATORS = [
    " ", "  ", "\t", "\n", "\n\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u00a0", "\u2028", "\u3000",
]

token = st.one_of(st.sampled_from(TOKENS), st.integers(-10**6, 10**6).map(str), st.text(max_size=3))
separator = st.sampled_from(SEPARATORS)
small = st.integers(1, 4)


@st.composite
def token_soup(draw) -> str:
    pairs = draw(st.lists(st.tuples(token, separator), max_size=40))
    return "".join(tok + sep for tok, sep in pairs)


@st.composite
def mutated(draw, valid: st.SearchStrategy[str]) -> str:
    """A valid file with a few tokens or separators replaced, dropped, added or repeated."""
    pieces = re.split(r"(\s+)", draw(valid))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(pieces)))
        action = draw(st.sampled_from(["replace", "drop", "insert", "repeat"]))
        if action == "insert" or i == len(pieces):
            pieces.insert(i, draw(st.one_of(token, separator)))
        elif action == "replace":
            pieces[i] = draw(st.one_of(token, separator))
        elif action == "drop":
            del pieces[i]
        else:
            pieces[i:i] = pieces[i:]
    return "".join(pieces)


number = st.integers(-2, 6).map(str)
line = st.lists(st.one_of(number, token), max_size=5).map(" ".join)


@st.composite
def headed(draw, keyword: str, fields: int, counts: int | None = None) -> str:
    """`keyword` and `fields` small integers, then lines of small integers and tokens.

    Half the time field `counts` holds the number of lines that follow.
    """
    values = [draw(number) for _ in range(fields)]
    lines = draw(st.lists(line, max_size=6))
    if counts is not None and draw(st.booleans()):
        values[counts] = str(len(lines))
    return "\n".join([" ".join([keyword, *values]), *lines]) + "\n"


def texts(valid: st.SearchStrategy[str], shape: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    """Arbitrary text, token soup, valid files, mutated valid files and files of the right shape."""
    return st.one_of(st.text(max_size=200), token_soup(), valid, mutated(valid), shape)


@st.composite
def grids(draw) -> GridColoring:
    n, m, r = draw(small), draw(small), draw(small)
    cells = draw(st.lists(st.lists(st.integers(1, r), min_size=m, max_size=m), min_size=n, max_size=n))
    return GridColoring(n, m, r, cells)


@st.composite
def search_texts(draw) -> str:
    kind = draw(st.sampled_from(list(Outcome)))
    nodes = draw(st.integers(0, 10**6))
    if kind is Outcome.FOUND:
        g = draw(grids())
        return format_search_certificate(SearchOutcome(kind, g, nodes), g.n, g.m, g.r)
    return format_search_certificate(SearchOutcome(kind, None, nodes), draw(small), draw(small), draw(small))


@st.composite
def search_shapes(draw) -> str:
    kind = draw(st.sampled_from(["found", "exhausted", "budget", "x"]))
    head = " ".join(["outcome", kind, draw(number), draw(number), draw(number), "nodes=" + draw(number)])
    return head + "\n" + draw(st.one_of(st.just(""), headed("grid", 3, counts=0)))


@st.composite
def edge_texts(draw) -> str:
    t, r = draw(st.integers(2, 5)), draw(small)
    pairs = list(combinations(range(1, t + 1), 2))
    colors = draw(st.lists(st.integers(1, r), min_size=len(pairs), max_size=len(pairs)))
    return format_edge_coloring(EdgeColoring(t, r, dict(zip(pairs, colors))))


@st.composite
def dimacs_texts(draw) -> str:
    nv = draw(st.integers(0, 5))
    literal = st.integers(1, nv).flatmap(lambda v: st.sampled_from([v, -v])) if nv else st.nothing()
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=4), max_size=5 if nv else 0))
    comments = draw(st.lists(st.sampled_from(["", "grid 2 2 2", "p cnf 1 1", "x"]), max_size=2))
    return format_dimacs(CnfDocument(nv, clauses, comments))


@st.composite
def model_texts(draw) -> str:
    lits = draw(st.lists(st.integers(1, 6).flatmap(lambda v: st.sampled_from([v, -v])), max_size=8))
    lines = draw(st.lists(st.sampled_from(["s SATISFIABLE", "s", "SAT", "v"]), max_size=2))
    return "\n".join([*lines, "v " + " ".join(map(str, lits)) + " 0"]) + "\n"


@st.composite
def configuration_texts(draw) -> str:
    dim, count = draw(small), draw(small)
    coords = st.lists(st.floats(-1e6, 1e6), min_size=dim, max_size=dim)
    points = [LabeledPoint(f"P{i}", tuple(draw(coords))) for i in range(count)]
    return format_configuration(Configuration(points))


GRID = texts(grids().map(format_grid_certificate), headed("grid", 3, counts=0))
SEARCH = texts(search_texts(), search_shapes())
EDGES = texts(edge_texts(), headed("kgraph", 2))
DIMACS = texts(dimacs_texts(), headed("p cnf", 2))
MODEL = texts(model_texts(), st.lists(line, max_size=6).map("\n".join))
CONFIGURATION = texts(configuration_texts(), headed("config", 2, counts=1))


def parses_or_rejects(parse, text: str) -> None:
    try:
        parse(text)
    except CertificateError:
        pass


@FUZZ
@given(GRID)
def prop_grid_certificate(text):
    parses_or_rejects(parse_grid_certificate, text)


@FUZZ
@given(SEARCH)
def prop_search_certificate(text):
    parses_or_rejects(parse_search_certificate, text)


@FUZZ
@given(EDGES)
def prop_edge_coloring(text):
    parses_or_rejects(parse_edge_coloring, text)


@FUZZ
@given(DIMACS)
def prop_dimacs(text):
    parses_or_rejects(parse_dimacs, text)


@FUZZ
@given(MODEL)
def prop_model_text(text):
    parses_or_rejects(parse_model_text, text)


@FUZZ
@given(CONFIGURATION)
def prop_configuration(text):
    parses_or_rejects(parse_configuration, text)


def run_on_files(argv_of, contents: list[str | bytes]) -> None:
    """cli.run on files holding `contents`: exit code 0, 1 or 2, and an error summary exactly with 2."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, content in enumerate(contents):
            path = Path(tmp) / f"f{i}"
            path.write_bytes(content if isinstance(content, bytes) else content.encode())
            paths.append(str(path))
        result = run(argv_of(*paths))
    assert result.exit_code in (0, 1, 2)
    assert (result.exit_code == 2) == result.summary.startswith("error:"), result


def files(text: st.SearchStrategy[str]) -> st.SearchStrategy[str | bytes]:
    return st.one_of(text, st.binary(max_size=40))


@FUZZ
@given(files(st.one_of(GRID, SEARCH)))
def prop_cli_grid_verify(content):
    run_on_files(lambda f: ["grid-verify", f], [content])


@FUZZ
@given(files(DIMACS), files(MODEL))
def prop_cli_sat_check(cnf, model):
    run_on_files(lambda f, g: ["sat-check", f, "--model", g], [cnf, model])


PROPERTIES = sorted(name[len("prop_"):] for name in dict(globals()) if name.startswith("prop_"))


@pytest.mark.parametrize("name", PROPERTIES)
def test_property_in_bounded_child(name):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, __file__, name], env=env, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stdout + done.stderr


def main(names: list[str]) -> None:
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    for name in names or PROPERTIES:
        globals()["prop_" + name]()


if __name__ == "__main__":
    main(sys.argv[1:])
