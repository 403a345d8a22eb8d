"""Grid coloring construction, detectors, the K_{n,m} reading, and certificates."""

import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from gallaikit.euclid import parse_configuration
from gallaikit.graphs import parse_edge_coloring
from gallaikit.grid import (
    CertificateError,
    GridColoring,
    GridRectangle,
    find_mono_rectangle,
    find_rainbow_rectangle,
    format_grid_certificate,
    parse_grid_certificate,
    verify_good,
)
from gallaikit.sat import parse_dimacs, parse_model_text
from gallaikit.search import parse_search_certificate

from oracles import naive_find_mono, naive_find_rainbow, naive_k22_scan


def grid(cells, r):
    return GridColoring(len(cells), len(cells[0]), r, cells)


@st.composite
def small_grids(draw, max_n=4, max_m=4, max_r=4):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    r = draw(st.integers(1, max_r))
    cells = [[draw(st.integers(1, r)) for _ in range(m)] for _ in range(n)]
    return GridColoring(n, m, r, cells)


class TestConstruction:
    def test_smallest_instance(self):
        g = GridColoring(1, 1, 1, [[1]])
        assert g.color(1, 1) == 1

    def test_uniform_two_by_two(self):
        g = GridColoring(2, 2, 1, [[1, 1], [1, 1]])
        assert g.cells == ((1, 1), (1, 1))

    def test_color_out_of_range(self):
        with pytest.raises(ValueError, match="color 3"):
            GridColoring(2, 2, 2, [[1, 3], [1, 1]])

    def test_zero_color_rejected(self):
        with pytest.raises(ValueError):
            GridColoring(1, 2, 2, [[0, 1]])

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            GridColoring(3, 2, 2, [[1, 1], [1, 1]])

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError, match="cells"):
            GridColoring(2, 3, 2, [[1, 1, 1], [1, 1]])

    def test_nonpositive_dimensions(self):
        with pytest.raises(ValueError):
            GridColoring(0, 1, 1, [])


class TestMonoDetector:
    def test_uniform_grid_has_least_witness(self):
        assert find_mono_rectangle(grid([[1, 1], [1, 1]], 1)) == GridRectangle(1, 2, 1, 2)

    def test_diagonal_grid_clean(self):
        assert find_mono_rectangle(grid([[1, 2], [2, 1]], 2)) is None

    def test_single_row_never_has_rectangle(self):
        assert find_mono_rectangle(grid([[1, 1, 1, 1, 1]], 1)) is None

    def test_least_witness_among_colors(self):
        # color 2 gives (1,2,2,3), color 1 gives (1,2,1,4): j=1 wins
        g = grid([[1, 2, 2, 1], [1, 2, 2, 1]], 2)
        assert find_mono_rectangle(g) == GridRectangle(1, 2, 1, 4)


class TestRainbowDetector:
    def test_four_distinct_corners(self):
        assert find_rainbow_rectangle(grid([[1, 2], [3, 4]], 4)) == GridRectangle(1, 2, 1, 2)

    def test_three_colors_never_rainbow(self):
        g = grid([[1, 2, 3], [3, 1, 2], [2, 3, 1]], 3)
        assert find_rainbow_rectangle(g) is None

    def test_column_pair_selection(self):
        # column pairs (1,2) share a color; (1,3) is the least rainbow pair
        g = grid([[1, 1, 2], [3, 1, 4]], 4)
        assert find_rainbow_rectangle(g) == GridRectangle(1, 2, 1, 3)


class TestVerifyGood:
    def test_good_grid(self):
        report = verify_good(grid([[1, 2], [2, 1]], 2))
        assert report.is_good and report.mono_witness is None and report.rainbow_witness is None

    def test_bad_grid_reports_witness(self):
        report = verify_good(grid([[1, 1], [1, 1]], 1))
        assert not report.is_good
        assert report.mono_witness == GridRectangle(1, 2, 1, 2)


@settings(max_examples=200, deadline=None)
@given(small_grids())
def test_detectors_agree_with_naive_scan(g):
    assert find_mono_rectangle(g) == naive_find_mono(g)
    assert find_rainbow_rectangle(g) == naive_find_rainbow(g)


def test_detectors_exhaustively_complete_on_tiny_grids():
    from itertools import product

    for n, m in [(2, 2), (2, 3), (3, 2)]:
        for r in (1, 2, 3, 4):
            for flat in product(range(1, r + 1), repeat=n * m):
                g = GridColoring(n, m, r, [flat[i * m:(i + 1) * m] for i in range(n)])
                assert find_mono_rectangle(g) == naive_find_mono(g)
                assert find_rainbow_rectangle(g) == naive_find_rainbow(g)


@settings(max_examples=100, deadline=None)
@given(small_grids())
def test_witnesses_recheck_against_coloring(g):
    w = find_mono_rectangle(g)
    if w is not None:
        colors = {g.color(i, j) for i, j in w.corners()}
        assert len(colors) == 1
    w = find_rainbow_rectangle(g)
    if w is not None:
        colors = [g.color(i, j) for i, j in w.corners()]
        assert len(set(colors)) == 4


@settings(max_examples=100, deadline=None)
@given(small_grids(max_r=3))
def test_rainbow_impossible_below_four_colors(g):
    assert find_rainbow_rectangle(g) is None


@settings(max_examples=80, deadline=None)
@given(small_grids(), st.integers(1, 4))
def test_extending_grid_keeps_witnesses(g, seed_color):
    extended = GridColoring(
        g.n + 1, g.m, g.r, list(g.cells) + [tuple(min(seed_color, g.r) for _ in range(g.m))]
    )
    w = find_mono_rectangle(g)
    if w is not None:
        assert len({extended.color(i, j) for i, j in w.corners()}) == 1
    w = find_rainbow_rectangle(g)
    if w is not None:
        assert len({extended.color(i, j) for i, j in w.corners()}) == 4


class TestBipartiteView:
    """The grid read as an edge coloring of K_{n,m}: rectangles are K22 subgraphs."""

    def test_uniform_grid_has_mono_k22(self):
        assert naive_k22_scan(grid([[1, 1], [1, 1]], 1)) == (True, False)

    def test_detectors_agree_with_k22_scan_on_random_grids(self):
        import random

        rng = random.Random(1105)
        for _ in range(100):
            cells = [[rng.randint(1, 4) for _ in range(5)] for _ in range(3)]
            g = GridColoring(3, 5, 4, cells)
            mono, rainbow = naive_k22_scan(g)
            assert (find_mono_rectangle(g) is not None) == mono
            assert (find_rainbow_rectangle(g) is not None) == rainbow

    @settings(max_examples=60, deadline=None)
    @given(small_grids(max_n=3, max_m=3))
    def test_witness_counts_preserved(self, g):
        # a detector reports a witness exactly when some K22 has that pattern
        from itertools import combinations

        mono = rainbow = 0
        for i, i2 in combinations(range(1, g.n + 1), 2):
            for j, j2 in combinations(range(1, g.m + 1), 2):
                cs = {g.color(i, j), g.color(i, j2), g.color(i2, j), g.color(i2, j2)}
                mono += len(cs) == 1
                rainbow += len(cs) == 4
        assert (find_mono_rectangle(g) is not None) == (mono > 0)
        assert (find_rainbow_rectangle(g) is not None) == (rainbow > 0)
        assert naive_k22_scan(g) == (mono > 0, rainbow > 0)


class TestCertificates:
    def test_round_trip(self):
        g = grid([[1, 2, 3], [3, 2, 1]], 3)
        assert parse_grid_certificate(format_grid_certificate(g)) == g

    @settings(max_examples=100, deadline=None)
    @given(small_grids())
    def test_round_trip_any_grid(self, g):
        assert parse_grid_certificate(format_grid_certificate(g)) == g

    def test_format_matches_layout(self):
        text = format_grid_certificate(grid([[1, 2], [2, 1]], 2))
        assert text == "grid 2 2 2\n1 2\n2 1\n"

    def test_trailing_whitespace_tolerated(self):
        assert parse_grid_certificate("grid 1 2 2 \n1 2  \n\n") == grid([[1, 2]], 2)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "grind 1 1 1\n1\n",
            "grid 1 1\n1\n",
            "grid 2 1 1\n1\n",
            "grid 1 2 1\n1 1 extra-token\n",
            "grid 1 1 1\nx\n",
            "grid 1 1 1\n2\n",
            "grid one 1 1\n1\n",
        ],
    )
    def test_malformed_certificates_rejected(self, text):
        with pytest.raises(CertificateError):
            parse_grid_certificate(text)


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_grid_certificate, "grid 1 2 2\n+1 0_2\n"),  # a sign and a digit separator
        (parse_grid_certificate, "grid \u0661 2 2\n1 2\n"),  # an Arabic-Indic digit one
        (parse_grid_certificate, "grid 1 2 2\x1c1 2\n"),  # a line break other than \n
        (parse_grid_certificate, "grid 1 2 2\n01 2\n"),  # a leading zero
        (parse_grid_certificate, "grid 1 2 2\n1\u30002\n"),  # a separator other than one space
        (parse_search_certificate, "outcome exhausted 2 2 1 nodes=1_0\n"),
        (parse_search_certificate, "outcome exhausted 2 2 1 nodes=+1\n"),
        (parse_edge_coloring, "kgraph 2 1\n1 2 +1\n"),
        (parse_edge_coloring, "kgraph 2 1\n1\u00a02 1\n"),
        (parse_configuration, "config 1 01\np 0.5\n"),
        (parse_configuration, "config 1 1\np 1_0\n"),  # float() reads 10.0
        (parse_configuration, "config 1 1\np \u0661\n"),  # float() reads 1.0
        (parse_dimacs, "p cnf 1_0 1\n1 0\n"),  # a separator in the header
        (parse_dimacs, "p cnf 1 1\n+1 0\n"),  # a signed literal
        (parse_dimacs, "p cnf 2 1\n1 -0 2 0\n"),  # -0 is no literal
        (parse_dimacs, "p cnf 2 1\n1 \u0662 0\n"),  # a non-ASCII digit
        (parse_model_text, "v +1 -0_2 0"),  # int() reads {1: True, 2: False}
        (parse_model_text, "v 1 02 0"),  # a leading zero
        (parse_grid_certificate, "grid 1 2 2\u3000\n1 2\x1c\n"),  # trailing whitespace that is not plain
        (parse_edge_coloring, "kgraph 2 1\x85\n1 2 1\n"),
        (parse_grid_certificate, "grid 1 1 1\n" + "1" * 5000 + "\n"),  # past int()'s digit limit
        (parse_edge_coloring, "kgraph 2 1\n1 2 " + "1" * 5000 + "\n"),
    ],
)
def test_noncanonical_integers_and_line_breaks_rejected(parse, text):
    with pytest.raises(CertificateError):
        parse(text)


def test_carriage_return_is_trailing_whitespace():
    assert parse_grid_certificate("grid 1 2 2\r\n1 2\r\n") == grid([[1, 2]], 2)


class TestHugeColorCounts:
    """The work of a grid is bounded by its cells, never by r from the header."""

    def test_twenty_million_colors_in_a_one_cell_grid(self):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            g = parse_grid_certificate("grid 1 1 20000000\n1\n")
            assert verify_good(g).is_good
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 1_000_000  # a mask per color of r would take 160 MB

    def test_detectors_with_sparse_color_values(self):
        rng = random.Random(4)
        r = 10_000
        for _ in range(200):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            palette = rng.sample(range(1, r + 1), rng.randint(1, 6))
            g = GridColoring(n, m, r, [[rng.choice(palette) for _ in range(m)] for _ in range(n)])
            assert find_mono_rectangle(g) == naive_find_mono(g)
            assert find_rainbow_rectangle(g) == naive_find_rainbow(g)


class TestRectangleType:
    def test_rejects_degenerate_indices(self):
        with pytest.raises(ValueError):
            GridRectangle(2, 2, 1, 2)
        with pytest.raises(ValueError):
            GridRectangle(1, 2, 3, 2)

    def test_corner_enumeration(self):
        assert GridRectangle(1, 2, 3, 4).corners() == ((1, 3), (1, 4), (2, 3), (2, 4))
