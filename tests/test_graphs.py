"""Edge-coloring detectors, the Gallai-Ramsey engine, and kgraph certificates."""

import random
import time
from itertools import combinations, product

import pytest

from gallaikit.grid import CertificateError
from gallaikit.graphs import (
    EdgeColoring,
    find_mono_subgraph,
    find_rainbow_triangle,
    format_edge_coloring,
    gallai_ramsey_number,
    parse_edge_coloring,
    search_good_edge_coloring,
)
from gallaikit.search import Outcome, SearchOptions, Undecided

from oracles import (
    naive_good_edge_coloring_exists,
    naive_mono_target_exists,
    naive_rainbow_triangle_exists,
)


def coloring_from_seq(t, r, seq):
    pairs = list(combinations(range(1, t + 1), 2))
    return EdgeColoring(t, r, dict(zip(pairs, seq)))


def uniform_coloring(t, color=1, r=1):
    return coloring_from_seq(t, r, [color] * (t * (t - 1) // 2))


class TestEdgeColoring:
    def test_requires_all_pairs(self):
        with pytest.raises(ValueError, match="expected 3"):
            EdgeColoring(3, 2, {(1, 2): 1})

    def test_rejects_out_of_range_color(self):
        with pytest.raises(ValueError, match="outside"):
            coloring_from_seq(3, 2, [1, 2, 3])

    def test_rejects_bad_pair(self):
        with pytest.raises(ValueError, match="pair"):
            EdgeColoring(3, 2, {(2, 1): 1, (1, 3): 1, (2, 3): 1})

    def test_color_is_symmetric(self):
        ec = coloring_from_seq(3, 3, [1, 2, 3])
        assert ec.color(1, 2) == ec.color(2, 1) == 1
        with pytest.raises(ValueError):
            ec.color(1, 1)


class TestRainbowTriangle:
    def test_three_distinct_edges(self):
        ec = coloring_from_seq(3, 3, [1, 2, 3])
        w = find_rainbow_triangle(ec)
        assert w is not None
        assert w.vertices == (1, 2, 3)
        u, v, x = w.vertices
        assert (ec.color(u, v), ec.color(u, x), ec.color(v, x)) == (1, 2, 3)

    def test_monochromatic_graph_has_none(self):
        assert find_rainbow_triangle(uniform_coloring(6)) is None

    def test_least_triple_selected(self):
        # vertex 1's edges all color 1; triangle {2,3,4} uses colors 2,1,3
        colors = {(1, 2): 1, (1, 3): 1, (1, 4): 1, (2, 3): 2, (2, 4): 1, (3, 4): 3}
        ec = EdgeColoring(4, 3, colors)
        w = find_rainbow_triangle(ec)
        assert w.vertices == (2, 3, 4)
        u, v, x = w.vertices
        assert (ec.color(u, v), ec.color(u, x), ec.color(v, x)) == (2, 1, 3)

    def test_two_colors_never_rainbow(self):
        rng = random.Random(7)
        for _ in range(50):
            seq = [rng.randint(1, 2) for _ in range(10)]
            assert find_rainbow_triangle(coloring_from_seq(5, 2, seq)) is None


class TestMonoSubgraph:
    def test_monochromatic_k4_contains_both_targets(self):
        ec = uniform_coloring(4)
        c4 = find_mono_subgraph(ec, "C4")
        p4 = find_mono_subgraph(ec, "P4")
        assert c4 is not None and c4.vertices == (1, 2, 3, 4)
        assert p4 is not None and p4.vertices == (1, 2, 3, 4)

    def test_perfect_matching_coloring_has_no_mono_path(self):
        # proper 3-edge-coloring of K4: each color class is a perfect matching
        colors = {(1, 2): 1, (3, 4): 1, (1, 3): 2, (2, 4): 2, (1, 4): 3, (2, 3): 3}
        ec = EdgeColoring(4, 3, colors)
        assert find_mono_subgraph(ec, "P4") is None
        assert find_mono_subgraph(ec, "C4") is None

    def test_requires_four_vertices(self):
        with pytest.raises(ValueError, match="t >= 4"):
            find_mono_subgraph(uniform_coloring(3), "C4")

    def test_rejects_unknown_target(self):
        with pytest.raises(ValueError, match="target"):
            find_mono_subgraph(uniform_coloring(4), "K4")

    def test_witness_edges_recheck(self):
        rng = random.Random(1202)
        for _ in range(200):
            seq = [rng.randint(1, 3) for _ in range(15)]
            ec = coloring_from_seq(6, 3, seq)
            w = find_mono_subgraph(ec, "C4")
            if w is not None:
                a, b, c, d = w.vertices
                assert ec.color(a, b) == ec.color(b, c) == ec.color(c, d) == ec.color(d, a)
            w = find_mono_subgraph(ec, "P4")
            if w is not None:
                a, b, c, d = w.vertices
                assert ec.color(a, b) == ec.color(b, c) == ec.color(c, d)

    def test_agreement_with_ordered_tuple_oracle_on_random_k6(self):
        rng = random.Random(42)
        for _ in range(1000):
            seq = [rng.randint(1, 4) for _ in range(15)]
            ec = coloring_from_seq(6, 4, seq)
            for target in ("C4", "P4"):
                assert (find_mono_subgraph(ec, target) is not None) == naive_mono_target_exists(
                    ec, target
                )
            assert (find_rainbow_triangle(ec) is not None) == naive_rainbow_triangle_exists(ec)


class TestEngine:
    def test_triangle_instance_found(self):
        out = search_good_edge_coloring(3, 3, "C4")
        assert out.kind is Outcome.FOUND
        # any coloring of K3 with at most two distinct colors qualifies
        assert find_rainbow_triangle(out.witness) is None

    def test_matches_naive_enumeration_small_scale(self):
        for t, r, target in product((3, 4, 5), (1, 2, 3), ("C4", "P4")):
            out = search_good_edge_coloring(t, r, target)
            assert out.kind in (Outcome.FOUND, Outcome.EXHAUSTED)
            expected = naive_good_edge_coloring_exists(t, r, target)
            assert (out.kind is Outcome.FOUND) == expected, (t, r, target)

    def test_found_witnesses_reverify_with_detectors(self):
        for t, r, target in [(5, 3, "P4"), (6, 3, "C4"), (6, 4, "P4")]:
            out = search_good_edge_coloring(t, r, target)
            assert out.kind is Outcome.FOUND
            assert find_rainbow_triangle(out.witness) is None
            assert find_mono_subgraph(out.witness, target) is None

    def test_deterministic_across_runs_and_worker_hints(self):
        first = search_good_edge_coloring(5, 3, "C4")
        for hint in (None, 1, 3):
            assert search_good_edge_coloring(5, 3, "C4", SearchOptions(worker_hint=hint)) == first, hint

    def test_budget_exceeded(self):
        out = search_good_edge_coloring(7, 3, "C4", SearchOptions(node_budget=100))
        assert out.kind is Outcome.BUDGET_EXCEEDED
        assert out.witness is None

    def test_monotone_exhaustion_spot_checks(self):
        assert search_good_edge_coloring(6, 3, "P4").kind is Outcome.EXHAUSTED
        assert search_good_edge_coloring(7, 3, "P4").kind is Outcome.EXHAUSTED

    def test_preconditions(self):
        with pytest.raises(ValueError):
            search_good_edge_coloring(2, 3, "C4")
        with pytest.raises(ValueError):
            search_good_edge_coloring(4, 0, "C4")
        with pytest.raises(ValueError):
            search_good_edge_coloring(4, 2, "K5")


class TestGallaiRamseyNumbers:
    def test_one_color_values(self):
        # a single color makes rainbow triangles impossible, so the value is
        # the least t whose monochromatic K_t contains the target
        assert gallai_ramsey_number("C4", 1, 6) == 4
        assert gallai_ramsey_number("P4", 1, 6) == 4

    def test_two_color_values_match_naive_enumeration(self):
        assert not naive_good_edge_coloring_exists(6, 2, "C4")
        assert naive_good_edge_coloring_exists(5, 2, "C4")
        assert gallai_ramsey_number("C4", 2, 8) == 6
        assert not naive_good_edge_coloring_exists(5, 2, "P4")
        assert naive_good_edge_coloring_exists(4, 2, "P4")
        assert gallai_ramsey_number("P4", 2, 8) == 5

    def test_absent_when_tmax_too_small(self):
        assert gallai_ramsey_number("C4", 3, 5) is None

    def test_budget_prevents_certification(self):
        with pytest.raises(Undecided):
            gallai_ramsey_number("C4", 3, 10, SearchOptions(node_budget=50))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            gallai_ramsey_number("C4", 0, 10)
        with pytest.raises(ValueError):
            gallai_ramsey_number("C4", 3, 2)


class TestCertificates:
    def test_round_trip(self):
        out = search_good_edge_coloring(5, 3, "C4")
        ec = out.witness
        assert parse_edge_coloring(format_edge_coloring(ec)) == ec

    def test_round_trip_random_colorings(self):
        rng = random.Random(808)
        for _ in range(50):
            t = rng.randint(2, 7)
            r = rng.randint(1, 5)
            seq = [rng.randint(1, r) for _ in range(t * (t - 1) // 2)]
            ec = coloring_from_seq(t, r, seq)
            assert parse_edge_coloring(format_edge_coloring(ec)) == ec

    def test_format_layout(self):
        text = format_edge_coloring(coloring_from_seq(3, 2, [1, 2, 1]))
        assert text == "kgraph 3 2\n1 2 1\n1 3 2\n2 3 1\n"

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "graph 3 2\n1 2 1\n1 3 2\n2 3 1\n",
            "kgraph 3\n1 2 1\n1 3 2\n2 3 1\n",
            "kgraph 3 2\n1 2 1\n1 3 2\n",
            "kgraph 3 2\n1 2 1\n2 3 1\n1 3 2\n",
            "kgraph 3 2\n1 2 1\n1 3 2\n2 3 9\n",
            "kgraph 3 2\n1 2 1\n1 3 2\n2 3 x\n",
        ],
    )
    def test_malformed_certificates_rejected(self, text):
        with pytest.raises(CertificateError):
            parse_edge_coloring(text)

    def test_huge_header_rejected_by_line_count(self):
        # 4,999,950,000 expected edges: the parser must not build them to notice
        start = time.perf_counter()
        with pytest.raises(CertificateError, match="expected 4999950000 edge lines, found 0"):
            parse_edge_coloring("kgraph 100000 2\n")
        assert time.perf_counter() - start < 1.0


def test_deep_search_does_not_overflow_the_stack():
    # K_47 has 1081 edge slots, more than the default recursion limit
    out = search_good_edge_coloring(47, 45, "P4", SearchOptions(node_budget=2_000_000))
    assert (out.kind, out.nodes_visited) == (Outcome.FOUND, 17_295)
