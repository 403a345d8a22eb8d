"""Grid search engine: verdicts, symmetry safety, determinism, certificates."""

import dataclasses
import sys

import pytest

from gallaikit.grid import CertificateError, verify_good
from gallaikit.search import (
    Outcome,
    SearchOptions,
    Undecided,
    format_search_certificate,
    minimal_forcing_m,
    parse_search_certificate,
    search_good_coloring,
)

from oracles import naive_good_exists, two_row_forcing_threshold, two_row_good_exists


class TestSmallVerdicts:
    def test_one_color_two_by_two_exhausts(self):
        out = search_good_coloring(2, 2, 1)
        assert out.kind is Outcome.EXHAUSTED
        assert out.witness is None

    def test_four_colors_two_by_two_found(self):
        out = search_good_coloring(2, 2, 4)
        assert out.kind is Outcome.FOUND
        assert verify_good(out.witness).is_good

    def test_rectangle_free_shapes_always_found(self):
        assert search_good_coloring(1, 9, 1).kind is Outcome.FOUND
        assert search_good_coloring(9, 1, 1).kind is Outcome.FOUND

    def test_preconditions(self):
        with pytest.raises(ValueError):
            search_good_coloring(0, 2, 2)
        with pytest.raises(ValueError):
            SearchOptions(node_budget=0)
        with pytest.raises(ValueError):
            SearchOptions(worker_hint=0)


def test_engine_matches_naive_enumeration_up_to_nine_cells():
    for n, m in [(1, 1), (1, 4), (2, 2), (2, 3), (3, 2), (2, 4), (3, 3)]:
        for r in (1, 2, 3):
            out = search_good_coloring(n, m, r)
            assert out.kind in (Outcome.FOUND, Outcome.EXHAUSTED)
            assert (out.kind is Outcome.FOUND) == naive_good_exists(n, m, r), (n, m, r)


def test_deterministic_across_runs_and_worker_hints():
    first = search_good_coloring(3, 3, 3)
    for hint in (None, 1, 4, 4):
        assert search_good_coloring(3, 3, 3, SearchOptions(worker_hint=hint)) == first, hint


def test_budget_exceeded_reported_honestly():
    out = search_good_coloring(3, 7, 2, SearchOptions(node_budget=50))
    assert out.kind is Outcome.BUDGET_EXCEEDED
    assert out.witness is None
    assert out.nodes_visited == 51  # stops at the first node past the budget


def test_full_scale_instance_respects_budget():
    # 13 x 45 with four colors is far beyond desk-scale exhaustion; the
    # engine must come back with an honest budget verdict
    out = search_good_coloring(13, 45, 4, SearchOptions(node_budget=20_000))
    assert out.kind is Outcome.BUDGET_EXCEEDED


class TestMinimalForcing:
    def test_single_color_two_rows(self):
        assert minimal_forcing_m(2, 1, 10) == 2

    def test_preconditions(self):
        with pytest.raises(ValueError):
            minimal_forcing_m(1, 1, 10)
        with pytest.raises(ValueError):
            minimal_forcing_m(2, 1, 1)

    def test_budget_aborts_rather_than_guessing(self):
        with pytest.raises(RuntimeError):
            minimal_forcing_m(3, 2, 10, SearchOptions(node_budget=10))

    def test_budget_names_the_undecided_width(self):
        # widths 1 and 2 are decided within ten nodes, width 3 is not
        with pytest.raises(Undecided) as caught:
            minimal_forcing_m(3, 2, 10, SearchOptions(node_budget=10))
        assert caught.value.size == 3

    def test_two_rows_four_colors_never_forced(self):
        # engine and the column-type multiset oracle agree: with two rows and
        # four colors a good coloring exists at every width
        assert two_row_forcing_threshold(4, 40) is None
        assert two_row_good_exists(4, 40)
        assert minimal_forcing_m(2, 4, 40) is None

    def test_two_row_oracle_matches_naive_on_small_widths(self):
        for r in (1, 2, 3):
            for m in (1, 2, 3):
                assert two_row_good_exists(r, m) == naive_good_exists(2, m, r), (r, m)


def test_monotone_forcing_spot_checks():
    assert search_good_coloring(3, 7, 2).kind is Outcome.EXHAUSTED
    assert search_good_coloring(3, 8, 2).kind is Outcome.EXHAUSTED
    assert search_good_coloring(4, 7, 2).kind is Outcome.EXHAUSTED


class TestCertificates:
    def test_found_round_trip(self):
        out = search_good_coloring(2, 2, 4)
        assert out.kind is Outcome.FOUND
        assert parse_search_certificate(format_search_certificate(out, 2, 2, 4)) == (out, 2, 2, 4)

    def test_exhausted_round_trip(self):
        out = search_good_coloring(2, 2, 1)
        assert out.kind is Outcome.EXHAUSTED
        assert parse_search_certificate(format_search_certificate(out, 2, 2, 1)) == (out, 2, 2, 1)

    def test_budget_round_trip(self):
        out = search_good_coloring(3, 7, 2, SearchOptions(node_budget=20))
        text = format_search_certificate(out, 3, 7, 2)
        assert text == "outcome budget 3 7 2 nodes=21\n"
        assert parse_search_certificate(text) == (out, 3, 7, 2)

    def test_emitted_good_certificates_reverify(self):
        for n, m, r in [(2, 2, 2), (3, 3, 2), (3, 6, 2), (2, 5, 4)]:
            out = search_good_coloring(n, m, r)
            assert out.kind is Outcome.FOUND
            parsed, _, _, _ = parse_search_certificate(format_search_certificate(out, n, m, r))
            assert verify_good(parsed.witness).is_good

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "verdict found 2 2 2 nodes=1\n",
            "outcome maybe 2 2 2 nodes=1\n",
            "outcome found 2 2 2 nodes=x\n",
            "outcome found 2 2 2\n",
            "outcome exhausted 2 2 2 nodes=1\ngrid 2 2 2\n1 1\n1 1\n",
            "outcome found 2 2 2 nodes=1\ngrid 2 3 2\n1 1 1\n1 1 1\n",
            "outcome found 2 2 2 nodes=1\n",
        ],
    )
    def test_malformed_certificates_rejected(self, text):
        with pytest.raises(CertificateError):
            parse_search_certificate(text)


@pytest.mark.parametrize(
    "text",
    [
        "outcome found 2 2 2 nodes=-5\ngrid 2 2 2\n1 2\n2 1\n",
        "outcome exhausted -3 0 -2 nodes=-5\n",
        "outcome exhausted 0 2 2 nodes=1\n",
        "outcome budget 2 0 2 nodes=1\n",
        "outcome budget 2 2 0 nodes=1\n",
        "outcome exhausted 2 2 1 nodes=-1\n",
    ],
)
def test_impossible_outcome_headers_rejected(text):
    with pytest.raises(CertificateError, match="bad outcome header: 'outcome "):
        parse_search_certificate(text)


def test_options_are_immutable_values():
    opts = SearchOptions()
    with pytest.raises(dataclasses.FrozenInstanceError):
        opts.node_budget = 5


def test_outcomes_require_witness_consistency():
    from gallaikit.search import SearchOutcome

    with pytest.raises(ValueError, match="witness"):
        SearchOutcome(Outcome.FOUND, None, 1)
    good = search_good_coloring(2, 2, 4).witness
    with pytest.raises(ValueError, match="witness"):
        SearchOutcome(Outcome.EXHAUSTED, good, 1)


def test_search_leaves_the_recursion_limit_alone():
    limit = sys.getrecursionlimit()
    assert search_good_coloring(1, 1200, 1).kind is Outcome.FOUND
    assert sys.getrecursionlimit() == limit
