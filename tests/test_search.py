"""Grid and point-set search engines: verdicts, symmetry safety, determinism, certificates."""

import dataclasses
import hashlib
import random
import sys
import tracemalloc
from itertools import combinations

import pytest

from gallaikit.grid import CertificateError, GridColoring, format_grid_certificate, verify_good
from gallaikit.search import (
    Outcome,
    SearchOptions,
    SearchOutcome,
    Undecided,
    format_search_certificate,
    minimal_forcing_m,
    parse_search_certificate,
    search_good_coloring,
    search_good_point_coloring,
    threshold_scan,
)

from oracles import (
    naive_good_exists,
    point_coloring_is_good,
    reference_point_coloring,
    set_partitions,
    two_row_forcing_threshold,
    two_row_good_exists,
)


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


@pytest.mark.parametrize("hint", [None, 2])
def test_engine_matches_naive_enumeration_up_to_twelve_cells(hint):
    # every grid of at most 12 cells with at most four colors; the hint changes nothing
    grids = [(n, m, r) for n in range(1, 13) for m in range(1, 12 // n + 1) for r in range(1, 5)]
    for n, m, r in grids:
        out = search_good_coloring(n, m, r, SearchOptions(worker_hint=hint))
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


# From four colors on the engine also prunes rainbow rectangles through its pair
# states; these counts pin that test, with the matching bounds at row starts and
# at completed columns, at the scale of the benchmark.
@pytest.mark.parametrize("hint", [None, 2])
@pytest.mark.parametrize(
    "n, m, r, budget, nodes, digests",
    [
        (5, 10, 4, None, 2_549, ("0e06c8e726c97d32782b5a571a130ab161486e4cac4cb9b567eaea248895bf50",
                                 "40587401be5663a0932e3cff48a02488d0e9f99f3be2bea3b290ada103f366f6")),
        (6, 7, 4, 400_000, 1_993, None),
        (6, 9, 5, 300_000, 5_996, None),
    ],
    ids=["5x10r4", "6x7r4", "6x9r5"],
)
def test_rainbow_pruning_counts_at_benchmark_scale(n, m, r, budget, nodes, digests, hint):
    out = search_good_coloring(n, m, r, SearchOptions(node_budget=budget, worker_hint=hint))
    assert (out.kind, out.nodes_visited) == (Outcome.FOUND, nodes)
    assert verify_good(out.witness).is_good
    if digests is not None:
        # the certificate, nodes= header included, and the witness grid alone: a
        # symmetry reduction or a bound changes node counts, never the witness (search.py)
        certificate, grid = digests
        assert hashlib.sha256(format_search_certificate(out, n, m, r).encode()).hexdigest() == certificate
        assert hashlib.sha256(format_grid_certificate(out.witness).encode()).hexdigest() == grid


def test_completed_column_bound_at_four_rows_with_three_colors():
    # the count test at completed columns (search.py) takes 4 x 14 r=3 from
    # 2,971,353 nodes, with the row-start bound alone, to 223,161; the witness grid
    # is the one found without it (OBS_3 has good 4 x 18 grids)
    out = search_good_coloring(4, 14, 3)
    assert (out.kind, out.nodes_visited) == (Outcome.FOUND, 223_161)
    assert verify_good(out.witness).is_good
    digest = hashlib.sha256(format_grid_certificate(out.witness).encode()).hexdigest()
    assert digest == "4bd8fcecfb41d3c8734973fba97e7cbe0ba9f60ec3683bc6f4a119743f3a82c5"


def test_many_colors_stay_cheap():
    # the pair states number pairs by their larger color and the engine makes its
    # tables only for the colors it meets, so r = 10**7 costs what the 100 cells cost
    tracemalloc.start()
    try:
        out = search_good_coloring(10, 10, 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (out.kind, out.nodes_visited) == (Outcome.FOUND, 109)
    assert peak < 256 * 1024


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


class TestThresholdScan:
    """threshold_scan on toy searches that return a fixed outcome per size."""

    @staticmethod
    def toy(kinds):
        # size k is decided as kinds[k]; a Found size's witness is f"w{k}"
        called = []

        def search(size):
            called.append(size)
            kind = kinds[size]
            return SearchOutcome(kind, f"w{size}" if kind is Outcome.FOUND else None, size)

        return search, called

    def test_first_exhausted_size_comes_with_the_previous_witness(self):
        F, E = Outcome.FOUND, Outcome.EXHAUSTED
        search, called = self.toy({2: F, 3: F, 4: E, 5: E})
        assert threshold_scan(range(2, 6), search) == (4, "w3")
        assert called == [2, 3, 4]

    def test_exhausted_at_the_first_size(self):
        search, _ = self.toy({3: Outcome.EXHAUSTED, 4: Outcome.FOUND})
        assert threshold_scan(range(3, 5), search) == (3, None)

    def test_no_exhausted_size_gives_the_last_witness(self):
        search, called = self.toy({1: Outcome.FOUND, 2: Outcome.FOUND, 3: Outcome.FOUND})
        assert threshold_scan(range(1, 4), search) == (None, "w3")
        assert called == [1, 2, 3]

    def test_budget_stop_names_the_size(self):
        search, called = self.toy({1: Outcome.FOUND, 2: Outcome.BUDGET_EXCEEDED, 3: Outcome.EXHAUSTED})
        with pytest.raises(Undecided) as caught:
            threshold_scan(range(1, 4), search)
        assert caught.value.size == 2
        assert called == [1, 2]

    def test_exhausted_size_stops_before_a_budget_size(self):
        search, called = self.toy({1: Outcome.EXHAUSTED, 2: Outcome.BUDGET_EXCEEDED})
        assert threshold_scan(range(1, 3), search) == (1, None)
        assert called == [1]


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


class TestPointSets:
    """search_good_point_coloring against a first-use enumeration that shares no code with it."""

    def test_random_systems_match_the_enumeration(self):
        rng = random.Random(31)
        kinds = {Outcome.FOUND: 0, Outcome.EXHAUSTED: 0}
        shared = 0
        for _ in range(300):
            points = rng.randint(2, 8)
            r = rng.randint(1, 4)
            mono, rainbow = [], []
            for _ in range(rng.randint(1, 8)):
                s = rng.sample(range(points), rng.randint(2, min(4, points)))
                where = rng.randrange(3)  # mono, rainbow or both
                if where != 1:
                    mono.append(s)
                if where != 0:
                    rainbow.append(s)
                shared += where == 2
            out = search_good_point_coloring(points, r, mono, rainbow)
            assert out.witness == reference_point_coloring(points, r, mono, rainbow), (points, r, mono, rainbow)
            kinds[out.kind] += 1
        assert min(kinds.values()) >= 50 and shared >= 100

    def test_no_sets_give_the_one_color_coloring(self):
        assert search_good_point_coloring(3, 2, [], []) == SearchOutcome(Outcome.FOUND, [1, 1, 1], 3)

    def test_a_pair_in_both_lists_has_no_good_coloring(self):
        # the two points may neither agree nor differ
        assert search_good_point_coloring(2, 5, [[0, 1]], [[1, 0]]).kind is Outcome.EXHAUSTED

    @pytest.mark.parametrize(
        "points, r, mono, rainbow",
        [
            (0, 2, [], []),
            (3, 0, [], []),
            (3, 2, [[1]], []),  # a one-point set
            (3, 2, [], [[2]]),
            (3, 2, [[0, 1, 1]], []),  # a repeated point
            (3, 2, [], [[2, 0, 2]]),
            (3, 2, [[0, 3]], []),  # points outside 0..2
            (3, 2, [], [[-1, 1]]),
        ],
    )
    def test_preconditions(self, points, r, mono, rainbow):
        with pytest.raises(ValueError):
            search_good_point_coloring(points, r, mono, rainbow)


def k6_pair_family() -> tuple[list[list[int]], list[list[int]]]:
    """The 15 vertex pairs of K6: the 45 4-cycles as mono sets, the 20 K3 and 60 K_{1,3} as rainbow sets.

    Placed as simplex_midpoint_embedding(6) places them, pairs sharing a
    vertex are 1 apart and disjoint ones sqrt(2), so these are the unit
    squares and the unit equilateral triangles of the family.
    """
    index = {pair: k for k, pair in enumerate(combinations(range(6), 2))}

    def point(u, v):
        return index[min(u, v), max(u, v)]

    cycles = set()
    for a, b, c, d in combinations(range(6), 4):
        for w, x, y, z in ((a, b, c, d), (a, b, d, c), (a, c, b, d)):
            cycles.add(frozenset((point(w, x), point(x, y), point(y, z), point(z, w))))
    triangles = [[point(a, b), point(b, c), point(a, c)] for a, b, c in combinations(range(6), 3)]
    stars = [
        [point(v, a), point(v, b), point(v, c)]
        for v in range(6)
        for a, b, c in combinations([u for u in range(6) if u != v], 3)
    ]
    return sorted(map(sorted, cycles)), triangles + stars


class TestK6PairFamily:
    def test_set_counts(self):
        mono, rainbow = k6_pair_family()
        assert (len(mono), len(rainbow)) == (45, 80)
        assert len({frozenset(s) for s in mono + rainbow}) == 125

    @pytest.mark.parametrize("r, nodes", [(2, 2083), (3, 3520), (6, 3654), (15, 3654), (10**7, 3654)])
    def test_every_coloring_has_a_mono_square_or_a_rainbow_triangle(self, r, nodes):
        mono, rainbow = k6_pair_family()
        assert search_good_point_coloring(15, r, mono, rainbow) == SearchOutcome(Outcome.EXHAUSTED, None, nodes)

    def test_two_colors_agree_with_the_enumeration(self):
        # all 2^14 first-use 2-colorings of the 15 points
        mono, rainbow = k6_pair_family()
        assert reference_point_coloring(15, 2, mono, rainbow) is None


#: seven points of {0,1}^6 spanning five dimensions
CUBE_SEVEN = [
    (0, 1, 1, 1, 1, 1),
    (1, 0, 1, 0, 0, 0),
    (1, 0, 1, 1, 1, 1),
    (1, 1, 0, 0, 0, 0),
    (1, 1, 0, 1, 1, 1),
    (1, 1, 1, 1, 0, 1),
    (1, 1, 1, 1, 1, 0),
]


def cube_seven_triangles(sides: list[int]) -> list[list[int]]:
    """The triples of CUBE_SEVEN whose sorted squared sides are `sides`, from exact integers."""

    def square(p, q):
        return sum((x - y) ** 2 for x, y in zip(CUBE_SEVEN[p], CUBE_SEVEN[q]))

    return [
        list(t)
        for t in combinations(range(len(CUBE_SEVEN)), 3)
        if sorted(square(p, q) for p, q in combinations(t, 2)) == sides
    ]


class TestCubeSeven:
    """Every coloring of E^5 has a mono (√2, √2, √2) or a rainbow (√2, √3, √5) triangle."""

    def test_the_points_span_five_dimensions(self):
        from gallaikit.euclid import Configuration, LabeledPoint, affine_rank

        config = Configuration(LabeledPoint(f"p{k}", p) for k, p in enumerate(CUBE_SEVEN))
        assert affine_rank(config) == 5

    @pytest.mark.parametrize("r, nodes", [(2, 79), (3, 120), (7, 122)])
    def test_every_coloring_has_a_mono_or_a_rainbow_triangle(self, r, nodes):
        mono, rainbow = cube_seven_triangles([2, 2, 2]), cube_seven_triangles([2, 3, 5])
        assert (len(mono), len(rainbow)) == (10, 14)
        assert search_good_point_coloring(7, r, mono, rainbow) == SearchOutcome(Outcome.EXHAUSTED, None, nodes)

    def test_no_set_partition_is_good(self):
        # a coloring of seven points is a partition of them, whatever r is
        mono, rainbow = cube_seven_triangles([2, 2, 2]), cube_seven_triangles([2, 3, 5])
        partitions = list(set_partitions(7, 7))
        assert len(partitions) == 877
        assert not any(point_coloring_is_good(c, mono, rainbow) for c in partitions)


class TestPointEngineOnGrids:
    """search_good_point_coloring with the rectangles as cell 4-sets against the grid engine."""

    @staticmethod
    def verdict(n, m, r):
        rectangles = [
            [i * m + j, i * m + j2, i2 * m + j, i2 * m + j2]
            for i, i2 in combinations(range(n), 2)
            for j, j2 in combinations(range(m), 2)
        ]
        out = search_good_point_coloring(n * m, r, rectangles, rectangles)
        assert out.kind is search_good_coloring(n, m, r).kind, (n, m, r)
        if out.witness is not None:
            rows = [out.witness[i * m : (i + 1) * m] for i in range(n)]
            assert verify_good(GridColoring(n, m, r, rows)).is_good, (n, m, r)
        return out

    def test_every_grid_of_at_most_twelve_cells(self):
        shapes = [(n, m) for n in range(1, 13) for m in range(1, 13) if n * m <= 12]
        instances = [(n, m, r) for n, m in shapes for r in range(1, 5)]
        assert len(instances) == 140
        for n, m, r in instances:
            out = self.verdict(n, m, r)
            if n * m <= 9:
                assert (out.kind is Outcome.FOUND) == naive_good_exists(n, m, r), (n, m, r)

    @pytest.mark.parametrize("n, m, nodes", [(3, 7, 39807), (5, 5, 17367)])
    def test_two_color_obstructions(self, n, m, nodes):
        # the grid engine's sorted rows and columns and matching bounds need 137 and 205
        assert self.verdict(n, m, 2) == SearchOutcome(Outcome.EXHAUSTED, None, nodes)
