"""The bulk SAT layer against its per-literal reference in oracles.py.

Documents, DIMACS text, parse results and error messages must all be the
same as the reference's, and `sat-export` output is pinned by digest.
"""

import hashlib
import random
import string

import pytest
from hypothesis import given, settings, strategies as st

from gallaikit.cli import run
from gallaikit.grid import CertificateError
from gallaikit.sat import (
    _CHUNK,
    CnfDocument,
    check_model_against_cnf,
    encode_grid_cnf,
    format_dimacs,
    parse_dimacs,
    parse_model_text,
)

from oracles import (
    ReferenceCnf,
    reference_check_model_against_cnf,
    reference_encode_grid_cnf,
    reference_format_dimacs,
    reference_parse_dimacs,
    reference_parse_model_text,
)


def outcome(f, *args):
    """('ok', value) or (exception type name, message), comparable across implementations."""
    try:
        value = f(*args)
    except CertificateError as exc:
        return ("CertificateError", str(exc))
    except ValueError as exc:
        return ("ValueError", str(exc))
    if isinstance(value, (CnfDocument, ReferenceCnf)):
        return ("ok", value.num_vars, value.clauses, value.comments)
    if isinstance(value, dict):
        return ("ok", list(value.items()))
    return ("ok", value)


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("m", range(2, 6))
def test_encoding_and_text_match_the_reference(n, m):
    for r in range(1, 6):
        cnf, ref = encode_grid_cnf(n, m, r), reference_encode_grid_cnf(n, m, r)
        assert (cnf.num_vars, cnf.clauses, cnf.comments) == (ref.num_vars, ref.clauses, ref.comments)
        text = format_dimacs(cnf)
        assert text == reference_format_dimacs(ref)
        assert outcome(parse_dimacs, text) == outcome(reference_parse_dimacs, text)


@pytest.mark.parametrize(
    "size, digest",
    [
        ((4, 9, 3), "ad1b56d6f16d6f76ae6732d9be404459f4a754d2da2c4bc1a955f23a6d7fe0e8"),
        ((5, 10, 4), "4b2b4b8317c55dafefe304fb3d56da69d3e55bbbad40c2ae5b9d25cc12f2ea41"),
    ],
)
def test_sat_export_bytes_are_pinned(tmp_path, size, digest):
    out = tmp_path / "grid.cnf"
    result = run(["sat-export", *map(str, size), "--out", str(out)])
    assert result.exit_code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_document_validation_matches_the_reference():
    rng = random.Random(6)
    for _ in range(3000):
        num_vars = rng.randint(-1, 5)
        clauses = [[rng.randint(-7, 7) for _ in range(rng.randint(0, 3))] for _ in range(rng.randint(0, 4))]
        assert outcome(CnfDocument, num_vars, clauses) == outcome(ReferenceCnf, num_vars, clauses), (
            num_vars,
            clauses,
        )


# ------------------------------------------------------------ DIMACS text

PIECES = [
    "0", "1", "-1", "2", "-2", "3", "7", "-9", "00", "-0", "+3", "1_0", "x", "c", "p",
    " ", "  ", "\t", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", " ",
    "c note", "p cnf 3 2", "p cnf 2", "p sat 2 1", "p cnf -1 0", "p cnf 3 x",
    " c indented", "pc", "cp",
]

token_text = st.lists(st.sampled_from(PIECES), max_size=30).map("".join)
any_text = st.text(alphabet=string.digits + " -\ncpx\t\r", max_size=60)
exported = st.sampled_from(
    [format_dimacs(encode_grid_cnf(2, 2, r)) for r in (1, 2, 3)]
    + ["p cnf 3 2\n1 -2\n3 0 2\n-1 0\n", "c a\np cnf 2 1\n1 -2 0\nc trailing comment\n"]
)


@st.composite
def mutated(draw):
    """An exported file with a few pieces inserted, deleted or swapped for others."""
    text = draw(exported)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        action = draw(st.sampled_from(["insert", "delete", "replace"]))
        if action == "insert":
            text = text[:at] + draw(st.sampled_from(PIECES)) + text[at:]
        elif action == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 6)) :]
        else:
            text = text[:at] + draw(st.sampled_from(PIECES)) + text[at + 1 :]
    return text


@settings(max_examples=400, deadline=None)
@given(st.one_of(mutated(), token_text, any_text))
def test_dimacs_reader_matches_the_reference(text):
    assert outcome(parse_dimacs, text) == outcome(reference_parse_dimacs, text)


def test_long_bodies_match_the_reference():
    # more tokens than the reader converts in one step, with faults past the first step
    text = format_dimacs(encode_grid_cnf(8, 12, 4))
    cut = len(text) - 1000
    cut = text.index(" ", cut)
    variants = [
        text,
        text[:cut] + " x" + text[cut:],
        text[:cut] + " 0 0" + text[cut:],
        text[:cut] + " 9999999" + text[cut:],
        text[: text.rindex(" 0")],
    ]
    assert len(text.split()) > _CHUNK + 30_000
    for variant in variants:
        assert outcome(parse_dimacs, variant) == outcome(reference_parse_dimacs, variant)


def test_dimacs_reader_reports_the_first_error_in_token_order():
    cases = {
        "p cnf 2 1\n0 x 0\n": "empty clause in input",
        "p cnf 2 1\n1 x 0 0\n": "bad clause token: 'x'",
        "p cnf 2 1\n1 0\np cnf 2 1\nx\n": "duplicate problem line",
        # -0 is not how str() writes zero, so it is a bad token, not a terminator
        "p cnf 2 1\n1 -0 0\n": "bad clause token: '-0'",
        "p cnf 2 2\n1 0\n2\n": "final clause is not zero-terminated",
        "1 0\nc late comment\np cnf 1 1\n": "clause data before the problem line",
    }
    for text, message in cases.items():
        assert outcome(reference_parse_dimacs, text) == ("CertificateError", message)
        assert outcome(parse_dimacs, text) == ("CertificateError", message)


# ------------------------------------------------------------ models

VALUES = [True, False, 1, 0, 2, -1, 1.0, 0.0, 0.5, None, "yes", ""]


@st.composite
def formula_and_assignment(draw):
    """A small formula and an assignment that may miss variables, hold extra keys or odd values."""
    num_vars = draw(st.integers(0, 6))
    literal = st.integers(1, max(num_vars, 1)).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=3), max_size=5)) if num_vars else []
    keys = st.integers(-2, num_vars + 2) | st.sampled_from(["k", 0.5])
    assignment = draw(st.dictionaries(keys, st.sampled_from(VALUES), max_size=num_vars + 3))
    return num_vars, clauses, assignment


@settings(max_examples=300, deadline=None)
@given(formula_and_assignment())
def test_model_check_matches_the_reference(case):
    num_vars, clauses, assignment = case
    cnf = CnfDocument(num_vars, clauses)
    assert outcome(check_model_against_cnf, cnf, assignment) == outcome(
        reference_check_model_against_cnf, cnf, assignment
    )


@pytest.mark.parametrize("value", VALUES)
def test_a_value_satisfies_a_literal_only_by_equality(value):
    # v is true when its value == True, -v when it == False; 2, None or "yes" satisfy neither
    for clause in ([1], [-1]):
        cnf = CnfDocument(1, [clause])
        got = check_model_against_cnf(cnf, {1: value})
        assert got == reference_check_model_against_cnf(cnf, {1: value})
        assert got == (value == (clause[0] > 0))


def test_model_check_on_random_assignments_of_an_encoding():
    rng = random.Random(8)
    cnf = encode_grid_cnf(3, 3, 3)
    for _ in range(300):
        assignment = {v: rng.random() < 0.5 for v in range(1, cnf.num_vars + 1)}
        for v in rng.sample(range(1, cnf.num_vars + 1), rng.randint(0, 2)):
            if rng.random() < 0.5:
                del assignment[v]
            else:
                assignment[v] = rng.choice(VALUES)
        assert outcome(check_model_against_cnf, cnf, assignment) == outcome(
            reference_check_model_against_cnf, cnf, assignment
        )


MODEL_PIECES = ["1", "-1", "2", "-2", "3", "-3", "0", "v", "s", "S", "s SATISFIABLE", "SAT", "x", "-0", " ", "\n", "\r\n", "\t"]


model_text = st.lists(st.sampled_from(MODEL_PIECES), max_size=25)


@settings(max_examples=400, deadline=None)
@given(model_text.map(" ".join) | model_text.map("".join))
def test_model_reader_matches_the_reference(text):
    assert outcome(parse_model_text, text) == outcome(reference_parse_model_text, text)
