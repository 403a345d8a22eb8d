"""CNF encoding, decoding, model checking, and DIMACS round trips."""

import gc
import time
from itertools import combinations, product

import pytest

from gallaikit.grid import CertificateError, verify_good
from gallaikit.sat import (
    CnfDocument,
    check_model_against_cnf,
    color_var,
    decode_model,
    encode_grid_cnf,
    format_dimacs,
    parse_dimacs,
    parse_model_text,
    selector_var,
)
from gallaikit.search import Outcome, search_good_coloring

from oracles import (
    assignment_from_coloring,
    coloring_from_index,
    count_good_3xm_2colorings,
    count_good_naive,
    formula_coloring_model_count,
    reference_check_model_against_cnf,
)


class TestVariableLayout:
    def test_color_variables_are_dense_and_ordered(self):
        n, m, r = 3, 4, 2
        ids = [
            color_var(m, r, i, j, c)
            for i in range(1, n + 1)
            for j in range(1, m + 1)
            for c in range(1, r + 1)
        ]
        assert ids == list(range(1, n * m * r + 1))

    def test_selectors_follow_color_block_in_pair_order(self):
        n, m, r = 2, 3, 2
        nm = n * m
        ids = [selector_var(n, m, r, p, q) for p, q in combinations(range(1, nm + 1), 2)]
        assert ids == list(range(nm * r + 1, nm * r + len(ids) + 1))

    def test_selector_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            selector_var(2, 2, 2, 3, 3)


class TestEncoding:
    def test_preconditions(self):
        with pytest.raises(ValueError):
            encode_grid_cnf(1, 5, 2)
        with pytest.raises(ValueError):
            encode_grid_cnf(2, 2, 0)

    def test_exactly_one_clause_counts(self):
        n, m, r = 2, 3, 3
        cnf = encode_grid_cnf(n, m, r)
        nm = n * m
        alo = [cl for cl in cnf.clauses if all(l > 0 for l in cl) and len(cl) == r]
        amo = [cl for cl in cnf.clauses if len(cl) == 2 and all(l < 0 for l in cl)]
        assert len(alo) == nm
        assert len(amo) == nm * r * (r - 1) // 2

    def test_mono_clauses_are_four_negative_literals_per_rectangle_color(self):
        n, m, r = 2, 2, 3
        cnf = encode_grid_cnf(n, m, r)
        mono = [cl for cl in cnf.clauses if len(cl) == 4 and all(l < 0 for l in cl)]
        assert len(mono) == r  # single rectangle

    def test_rainbow_clause_lists_six_selectors(self):
        cnf = encode_grid_cnf(2, 2, 4)
        base = 2 * 2 * 4
        rainbow = [cl for cl in cnf.clauses if all(l > base for l in cl)]
        assert rainbow == [[base + 1, base + 2, base + 3, base + 4, base + 5, base + 6]]

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("n, m", [(2, 2), (2, 5), (3, 4), (4, 6)])
    def test_no_selectors_below_four_colors(self, n, m, r):
        cnf = encode_grid_cnf(n, m, r)
        assert cnf.num_vars == n * m * r
        assert max(abs(lit) for clause in cnf.clauses for lit in clause) <= n * m * r
        assert all(len(clause) != 6 for clause in cnf.clauses)
        assert not any(comment.startswith("varmap e(") for comment in cnf.comments)
        # selector numbers stay defined, past num_vars
        assert selector_var(n, m, r, 1, 2) == n * m * r + 1

    def test_one_color_two_by_two_unsatisfiable(self):
        cnf = encode_grid_cnf(2, 2, 1)
        count, first = formula_coloring_model_count(cnf, 2, 2, 1)
        assert count == 0 and first is None
        assert search_good_coloring(2, 2, 1).kind is Outcome.EXHAUSTED

    def test_four_colors_two_by_two_satisfiable_and_decodable(self):
        n, m, r = 2, 2, 4
        cnf = encode_grid_cnf(n, m, r)
        count, first = formula_coloring_model_count(cnf, n, m, r)
        assert count > 0
        g = coloring_from_index(n, m, r, first)
        decoded = decode_model(n, m, r, assignment_from_coloring(g))
        assert decoded == g
        assert verify_good(decoded).is_good

    def test_three_by_seven_two_colors_unsatisfiable(self):
        # complete bit-parallel sweep of all 2^21 induced assignments; the
        # same verdict as the engine's exhaustion and the row-triple count
        cnf = encode_grid_cnf(3, 7, 2)
        count, _ = formula_coloring_model_count(cnf, 3, 7, 2)
        assert count == 0
        assert count_good_3xm_2colorings(7) == 0

    def test_model_counts_match_direct_good_coloring_counts(self):
        # the encoding is faithful down to the number of solutions
        for n, m, r in [(2, 2, 2), (2, 2, 4), (2, 3, 3), (3, 3, 2), (2, 4, 2), (3, 3, 3)]:
            cnf = encode_grid_cnf(n, m, r)
            count, _ = formula_coloring_model_count(cnf, n, m, r)
            assert count == count_good_naive(n, m, r), (n, m, r)

    @pytest.mark.parametrize("r", [4, 5])
    def test_reverse_channeling_clauses_are_implied(self, r):
        # the encoder emits [-e, -x(p,c), x(q,c)] only; every model of the formula
        # must also satisfy the reverse clause [-e, -x(q,c), x(p,c)] it leaves out
        n, m = 2, 2
        cnf = encode_grid_cnf(n, m, r)
        cells = [(i, j) for i in range(1, n + 1) for j in range(1, m + 1)]
        pairs = list(combinations(range(1, n * m + 1), 2))
        dropped = [
            [-selector_var(n, m, r, p, q), -color_var(m, r, *cells[q - 1], c), color_var(m, r, *cells[p - 1], c)]
            for p, q in pairs
            for c in range(1, r + 1)
        ]
        emitted = {tuple(sorted(clause)) for clause in cnf.clauses}
        assert not any(tuple(sorted(clause)) in emitted for clause in dropped)
        models = 0
        for colors in product(range(1, r + 1), repeat=n * m):
            base = {
                color_var(m, r, i, j, c): color == c for (i, j), color in zip(cells, colors) for c in range(1, r + 1)
            }
            for chosen in product((False, True), repeat=len(pairs)):
                asn = dict(base)
                asn.update((selector_var(n, m, r, p, q), on) for (p, q), on in zip(pairs, chosen))
                if check_model_against_cnf(cnf, asn):
                    models += 1
                    assert check_model_against_cnf(CnfDocument(cnf.num_vars, dropped), asn), (colors, chosen)
        assert models > 0

    def test_true_selectors_join_equal_cells(self):
        # formula_coloring_model_count sets each selector to "its two cells agree", so it
        # cannot see a missing channeling clause; here every assignment of 2 x 2 r=4 is
        # tried, 256 colorings by 64 selector settings, and in each model every true
        # selector must join two cells of one color
        n, m, r = 2, 2, 4
        cnf = encode_grid_cnf(n, m, r)
        cells = [(i, j) for i in range(1, n + 1) for j in range(1, m + 1)]
        pairs = list(combinations(range(1, n * m + 1), 2))
        true_selectors = 0
        for colors in product(range(1, r + 1), repeat=n * m):
            base = {
                color_var(m, r, i, j, c): color == c for (i, j), color in zip(cells, colors) for c in range(1, r + 1)
            }
            for chosen in product((False, True), repeat=len(pairs)):
                asn = dict(base)
                asn.update((selector_var(n, m, r, p, q), on) for (p, q), on in zip(pairs, chosen))
                if check_model_against_cnf(cnf, asn):
                    for (p, q), on in zip(pairs, chosen):
                        if on:
                            true_selectors += 1
                            assert colors[p - 1] == colors[q - 1], (colors, chosen)
        assert true_selectors > 0

    def test_three_independent_routes_agree_on_3x6_count(self):
        # formula models, row-triple bit tables, and plain odometer counting
        # all see exactly the same number of good 3x6 2-colorings
        cnf = encode_grid_cnf(3, 6, 2)
        formula_count, _ = formula_coloring_model_count(cnf, 3, 6, 2)
        assert formula_count == count_good_3xm_2colorings(6) == count_good_naive(3, 6, 2) == 720


class TestDecodeModel:
    def test_explicit_model(self):
        n, m, r = 2, 2, 4
        asn = {color_var(m, r, i, j, c): False for i in (1, 2) for j in (1, 2) for c in range(1, 5)}
        for (i, j), c in {(1, 1): 1, (1, 2): 2, (2, 1): 2, (2, 2): 1}.items():
            asn[color_var(m, r, i, j, c)] = True
        decoded = decode_model(n, m, r, asn)
        assert decoded.cells == ((1, 2), (2, 1))

    def test_two_true_colors_for_one_cell(self):
        n, m, r = 2, 2, 4
        g = coloring_from_index(n, m, r, 6)  # arbitrary good coloring index
        asn = assignment_from_coloring(g)
        asn[color_var(m, r, 1, 1, 3)] = True
        asn[color_var(m, r, 1, 1, 4)] = True
        with pytest.raises(ValueError, match="true color"):
            decode_model(n, m, r, asn)

    @pytest.mark.parametrize("value", ["no", 2, None, 0.5])
    def test_value_neither_true_nor_false_rejected(self, value):
        # a value counts as true when it == True, as in check_model_against_cnf
        asn = assignment_from_coloring(coloring_from_index(2, 2, 2, 6))
        asn[1] = value
        assert not check_model_against_cnf(encode_grid_cnf(2, 2, 2), asn)
        with pytest.raises(ValueError, match="neither true nor false"):
            decode_model(2, 2, 2, asn)

    def test_values_equal_to_true_and_false_accepted(self):
        g = coloring_from_index(2, 2, 2, 6)
        asn = {v: int(on) for v, on in assignment_from_coloring(g).items()}
        assert decode_model(2, 2, 2, asn) == g

    def test_missing_variable(self):
        with pytest.raises(ValueError, match="misses"):
            decode_model(2, 2, 2, {1: True})

    def test_bad_coloring_rejected(self):
        # a mono grid decodes structurally but must fail the goodness check
        from gallaikit.grid import GridColoring

        g = GridColoring(2, 2, 2, [[1, 1], [1, 1]])
        with pytest.raises(ValueError, match="not good"):
            decode_model(2, 2, 2, assignment_from_coloring(g))

    def test_round_trip_of_every_engine_witness(self):
        for n, m, r in [(2, 2, 2), (2, 3, 3), (3, 3, 4)]:
            out = search_good_coloring(n, m, r)
            assert out.kind is Outcome.FOUND
            decoded = decode_model(n, m, r, assignment_from_coloring(out.witness))
            assert decoded == out.witness


class TestCheckModel:
    def test_empty_clause_list_is_satisfied(self):
        assert check_model_against_cnf(CnfDocument(1, []), {1: False})

    def test_single_false_literal(self):
        assert not check_model_against_cnf(CnfDocument(1, [[1]]), {1: False})
        assert check_model_against_cnf(CnfDocument(1, [[1]]), {1: True})
        assert check_model_against_cnf(CnfDocument(1, [[-1]]), {1: False})

    def test_coverage_enforced(self):
        with pytest.raises(ValueError, match="covers"):
            check_model_against_cnf(CnfDocument(2, [[1, 2]]), {1: True})

    def test_coverage_counted_from_the_assignment(self):
        with pytest.raises(ValueError, match=r"covers 3 of 5 variables \(first missing: 3\)"):
            check_model_against_cnf(CnfDocument(5, [[1]]), {1: True, 2: True, 4: False, 9: True})
        # a header-sized scan of 1..num_vars would take seconds and hundreds of MB here
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"covers 1 of 5000000 variables \(first missing: 2\)"):
            check_model_against_cnf(CnfDocument(5_000_000, [[1]]), {1: True})
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("check", [check_model_against_cnf, reference_check_model_against_cnf])
    def test_float_key_equal_to_a_variable_covers_nothing(self, check):
        # 2.0 == 2, so a scan of `v in assignment` finds no missing variable
        with pytest.raises(ValueError, match=r"covers 1 of 2 variables \(first missing: 2\)"):
            check(CnfDocument(2, [[1, 2]]), {1: True, 2.0: True})
        with pytest.raises(ValueError, match=r"covers 1 of 3 variables \(first missing: 1\)"):
            check(CnfDocument(3, [[1]]), {1.0: True, 2: True, 3.0: False})

    def test_induced_assignments_of_good_colorings_satisfy_formula(self):
        n, m, r = 3, 3, 2
        cnf = encode_grid_cnf(n, m, r)
        count, first = formula_coloring_model_count(cnf, n, m, r)
        assert count > 0
        good = coloring_from_index(n, m, r, first)
        assert check_model_against_cnf(cnf, assignment_from_coloring(good))
        from gallaikit.grid import GridColoring

        bad = GridColoring(n, m, r, [[1] * m] * n)
        assert not check_model_against_cnf(cnf, assignment_from_coloring(bad))


class TestCnfDocument:
    def test_rejects_empty_clause(self):
        with pytest.raises(ValueError, match="empty"):
            CnfDocument(2, [[1], []])

    def test_rejects_out_of_range_literal(self):
        with pytest.raises(ValueError, match="literal"):
            CnfDocument(2, [[3]])
        with pytest.raises(ValueError, match="literal"):
            CnfDocument(2, [[0]])


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored_after_encode_and_parse(self, enabled):
        was_enabled = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            text = format_dimacs(encode_grid_cnf(3, 3, 4))
            assert gc.isenabled() is enabled
            parse_dimacs(text)
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was_enabled else gc.disable()

    def test_state_restored_when_parse_raises(self):
        assert gc.isenabled()
        text = format_dimacs(encode_grid_cnf(3, 3, 4))
        with pytest.raises(CertificateError, match="header promises"):
            parse_dimacs(text[: text.rindex("\n", 0, -1) + 1])
        assert gc.isenabled()


class TestDimacs:
    def test_round_trip(self):
        cnf = encode_grid_cnf(2, 3, 2)
        parsed = parse_dimacs(format_dimacs(cnf))
        assert parsed.num_vars == cnf.num_vars
        assert parsed.clauses == cnf.clauses
        assert parsed.comments == cnf.comments

    def test_header_and_comments_present(self):
        text = format_dimacs(encode_grid_cnf(2, 2, 2))
        lines = text.splitlines()
        assert lines[0] == "c grid n=2 m=2 r=2"
        assert any(line.startswith("c varmap x(i,j,c)") for line in lines)
        assert "p cnf 8 10" in lines

    def test_multiline_clauses_accepted(self):
        parsed = parse_dimacs("p cnf 3 2\n1 -2\n3 0 2\n-1 0\n")
        assert parsed.clauses == [[1, -2, 3], [2, -1]]

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "1 2 0\n",
            "p cnf 2\n",
            "p sat 2 1\n1 0\n",
            "p cnf 2 1\n3 0\n",
            "p cnf 2 2\n1 0\n",
            "p cnf 2 1\n1 2\n",
            "p cnf 2 1\np cnf 2 1\n1 0\n",
            "p cnf 2 1\n0\n",
        ],
    )
    def test_malformed_dimacs_rejected(self, text):
        with pytest.raises(CertificateError):
            parse_dimacs(text)

    def test_negative_variable_count_rejected(self):
        with pytest.raises(CertificateError, match="num_vars"):
            parse_dimacs("p cnf -5 0\n")

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u3000"])
    def test_separators_that_split_would_take_rejected(self, sep):
        # str.split() reads "p cnf 2 1<sep>1 2 0" as the clause [1, 2]; a tab stays whitespace
        assert parse_dimacs("p cnf 2 1\n1\t2 0\n").clauses == [[1, 2]]
        with pytest.raises(CertificateError, match="bad character"):
            parse_dimacs(f"p cnf 2 1{sep}1 2 0\n")

    def test_a_lone_carriage_return_breaks_no_line(self):
        # only \n ends a line: a problem line after a CR stays in the comment before
        # it, and a clause after a CR stays in the problem line
        with pytest.raises(CertificateError, match="clause data before the problem line"):
            parse_dimacs("c x\rp cnf 1 1\n1 0\n")
        with pytest.raises(CertificateError, match="bad problem line"):
            parse_dimacs("p cnf 1 1\r1 0\n")
        # a CR before the line feed is trailing whitespace
        assert parse_dimacs("c x\r\np cnf 1 1\r\n1 0\r\n").clauses == [[1]]


class TestModelText:
    def test_plain_integers(self):
        assert parse_model_text("1 -2 3 0") == {1: True, 2: False, 3: True}

    def test_v_line_convention(self):
        text = "s SATISFIABLE\nv 1 -2\nv 3 0\n"
        assert parse_model_text(text) == {1: True, 2: False, 3: True}

    def test_zero_terminator_optional(self):
        assert parse_model_text("-1 2") == {1: False, 2: True}

    def test_conflicting_literals_rejected(self):
        with pytest.raises(CertificateError, match="conflicting"):
            parse_model_text("1 -1")

    def test_garbage_rejected(self):
        with pytest.raises(CertificateError):
            parse_model_text("1 two 3")

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u3000"])
    def test_separators_that_split_would_take_rejected(self, sep):
        assert parse_model_text("1\t-2 0") == {1: True, 2: False}
        with pytest.raises(CertificateError, match="bad character"):
            parse_model_text(f"1{sep}-2 0")

    def test_a_lone_carriage_return_breaks_no_line(self):
        # the s line runs to the line feed, so the literals after the CR are skipped with it
        assert parse_model_text("s SATISFIABLE\rv 1 0\n") == {}
        assert parse_model_text("s SATISFIABLE\r\nv 1 0\r\n") == {1: True}
