"""Point configurations, congruence, embeddings, colorings, and the gadget."""

import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gallaikit.euclid import (
    Configuration,
    GADGET_SIDES,
    LabeledPoint,
    MAX_SEGMENT_STEPS,
    affine_rank,
    congruent,
    distance,
    falsify_strip,
    format_configuration,
    grid_lattice_embedding,
    halfplane_oracle,
    parse_configuration,
    planar_rectangle,
    rainbow_segment,
    regular_simplex,
    simplex_midpoint_embedding,
    strip_oracle,
    triangle_gadget,
    verify_triangle_gadget,
)
from gallaikit import euclid
from gallaikit.euclid import (
    TRIG_ERR,
    _BLOCK,
    _StripScreen,
    _congruent_within,
    _falsify_strip_blocks,
    _search_gadget,
    _verdict_table,
)
from gallaikit.grid import CertificateError

from oracles import (
    reference_affine_rank,
    reference_congruent,
    reference_congruent_prechecked,
    reference_falsify_strip,
    reference_gadget_sweep,
    reference_strip_corners,
    reference_strip_floors,
)

TOL = 1e-9
#: powers of two by which congruence tests scale both configurations
SCALES = range(-900, 901, 100)


def pt(label, *coords):
    return LabeledPoint(label, coords)


def scaled(config, k):
    """config with every coordinate multiplied by 2**k, exactly."""
    return Configuration(LabeledPoint(p.label, [math.ldexp(x, k) for x in p.coords]) for p in config.points)


class TestDistance:
    def test_three_four_five(self):
        assert distance(pt("a", 0, 0), pt("b", 3, 4)) == 5.0

    def test_zero_to_itself(self):
        p = pt("a", 1.5, -2.5, 3.5)
        assert distance(p, p) == 0.0

    def test_shared_coordinate_pair_points(self):
        s = 1 / math.sqrt(2)
        assert abs(distance(pt("a", s, s, 0), pt("b", 0, s, s)) - 1.0) <= TOL

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            distance(pt("a", 0, 0), pt("b", 0, 0, 0))

    def test_nonfinite_coordinates_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            pt("a", float("nan"), 0)

    def test_coordinates_whose_sum_overflows_are_accepted(self):
        assert sum((1e308, 1e308)) == math.inf
        assert pt("a", 1e308, 1e308).coords == (1e308, 1e308)
        assert pt("a", -1e308, -1e308, 1e308).coords == (-1e308, -1e308, 1e308)

    @pytest.mark.parametrize(
        "coords, bad",
        [
            ((1e308, math.inf), "inf"),
            ((-math.inf, 1e308), "-inf"),
            ((math.inf, -math.inf), "inf"),
            ((math.nan, 1.0), "nan"),
            ((1e308, 1e308, math.nan), "nan"),
            ((1.0, -math.inf, math.nan), "-inf"),
        ],
    )
    def test_first_nonfinite_coordinate_is_named(self, coords, bad):
        with pytest.raises(ValueError) as caught:
            pt("a", *coords)
        assert str(caught.value) == f"point 'a' has non-finite coordinate {bad}"


class TestConfiguration:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Configuration([pt("a", 0, 0), pt("a", 1, 1)])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            Configuration([pt("a", 0, 0), pt("b", 1, 1, 1)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Configuration([])


@st.composite
def small_configurations(draw):
    dim = draw(st.integers(1, 3))
    count = draw(st.integers(1, 4))
    coord = st.integers(-4, 4).map(float)
    points = [
        LabeledPoint(f"p{k}", tuple(draw(coord) for _ in range(dim))) for k in range(count)
    ]
    return Configuration(points)


class TestCongruent:
    def test_translated_triangle(self):
        a = Configuration([pt("x", 0, 0), pt("y", 1, 0), pt("z", 0, 1)])
        b = Configuration([pt("u", 5, 5), pt("v", 6, 5), pt("w", 5, 6)])
        assert congruent(a, b) == {"x": "u", "y": "v", "z": "w"}

    def test_different_triangles_not_congruent(self):
        right = Configuration([pt("x", 0, 0), pt("y", 1, 0), pt("z", 0, 1)])
        equilateral = regular_simplex(2, 1.0)
        assert congruent(right, equilateral) is None

    def test_ambient_dimensions_may_differ(self):
        s = 1 / math.sqrt(2)
        # the four pair-points of the 4-cycle image form a planar unit square
        high = Configuration(
            [
                pt("A", s, s, 0, 0, 0, 0),
                pt("B", 0, s, s, 0, 0, 0),
                pt("C", 0, 0, s, s, 0, 0),
                pt("D", s, 0, 0, s, 0, 0),
            ]
        )
        square = Configuration([pt("q1", 0, 0), pt("q2", 1, 0), pt("q3", 1, 1), pt("q4", 0, 1)])
        mapping = congruent(high, square)
        assert mapping is not None
        assert set(mapping) == {"A", "B", "C", "D"}

    def test_size_mismatch_is_error(self):
        with pytest.raises(ValueError, match="size"):
            congruent(regular_simplex(1, 1.0), regular_simplex(2, 1.0))

    @settings(max_examples=60, deadline=None)
    @given(small_configurations())
    def test_reflexive(self, config):
        assert congruent(config, config) is not None

    @settings(max_examples=60, deadline=None)
    @given(small_configurations(), small_configurations())
    def test_symmetric(self, a, b):
        if len(a) != len(b):
            return
        assert (congruent(a, b) is not None) == (congruent(b, a) is not None)

    @settings(max_examples=60, deadline=None)
    @given(small_configurations(), small_configurations())
    def test_found_bijection_implies_equal_distance_multisets(self, a, b):
        if len(a) != len(b):
            return
        if congruent(a, b) is not None:
            da = sorted(
                distance(p, q) for p, q in combinations(a.points, 2)
            )
            db = sorted(
                distance(p, q) for p, q in combinations(b.points, 2)
            )
            tol = TOL * max(da + db, default=0.0)
            assert all(abs(x - y) <= tol for x, y in zip(da, db))

    @settings(max_examples=100, deadline=None)
    @given(small_configurations(), st.randoms(use_true_random=False), st.floats(1e-12, 0.5))
    def test_found_bijection_keeps_every_distance(self, a, rnd, tol):
        # a shuffled copy with permuted, flipped and shifted axes (exact on integer
        # coordinates), and a jittered one that may or may not stay within tol
        axes = list(range(a.dim))
        rnd.shuffle(axes)
        signs = [rnd.choice((-1.0, 1.0)) for _ in axes]
        shift = [float(rnd.randint(-3, 3)) for _ in axes]
        order = list(a.points)
        rnd.shuffle(order)
        for jitter, must_match in ((0.0, True), (tol, False)):
            b = Configuration(
                LabeledPoint(
                    f"q{k}",
                    [s * p.coords[x] + t + rnd.uniform(-jitter, jitter) for x, s, t in zip(axes, signs, shift)],
                )
                for k, p in enumerate(order)
            )
            mapping = _congruent_within(a, b, tol)
            assert mapping is not None or not must_match
            if mapping is None:
                continue
            image = {p.label: p for p in b.points}
            assert sorted(mapping.values()) == sorted(image)
            for p, q in combinations(a.points, 2):
                assert abs(distance(p, q) - distance(image[mapping[p.label]], image[mapping[q.label]])) <= tol


class TestSortedDistancePreCheck:
    """congruent with its pre-check answers exactly what the backtracking alone answered."""

    @staticmethod
    def moved(config, rng, scale):
        """A shuffled, rotated, translated and scaled copy, relabeled."""
        pts = np.array([p.coords for p in config.points])
        q, _ = np.linalg.qr(np.array([[rng.gauss(0, 1) for _ in range(config.dim)] for _ in range(config.dim)]))
        shift = np.array([rng.uniform(-5, 5) for _ in range(config.dim)])
        image = (scale * pts @ q + shift).tolist()
        order = list(range(len(config)))
        rng.shuffle(order)
        return Configuration(LabeledPoint(f"q{k}", image[k]) for k in order)

    def test_random_moved_and_scaled_copies(self):
        rng = random.Random(11)
        matches = mismatches = 0
        for _ in range(300):
            k, dim = rng.randint(1, 6), rng.randint(1, 4)
            a = Configuration(
                LabeledPoint(f"p{i}", [rng.uniform(-3, 3) for _ in range(dim)]) for i in range(k)
            )
            scale = rng.choice((1.0, 1.0, 1.0 + 1e-12, 1.0 + 1e-6, 1.25))
            others = (
                self.moved(a, rng, scale),
                Configuration(
                    LabeledPoint(f"r{i}", [rng.uniform(-3, 3) for _ in range(dim)]) for i in range(k)
                ),
            )
            for b in others:
                for tol in (1e-12, 1e-9, 1e-3):
                    want = reference_congruent(a, b, tol)
                    assert _congruent_within(a, b, tol) == want
                    matches += want is not None
                    mismatches += want is None
                want = congruent(a, b)
                assert all(congruent(scaled(a, e), scaled(b, e)) == want for e in SCALES)
        assert matches >= 300 and mismatches >= 300

    @pytest.mark.parametrize("bump, congruent_expected", [(0.0, True), (2.0 ** -50, False)])
    def test_distances_exactly_tol_apart(self, bump, congruent_expected):
        # dyadic coordinates: every distance and every difference is exact
        tol = 0.25
        a = Configuration([pt("x", 0.0), pt("y", 1.0), pt("z", 3.0)])
        b = Configuration([pt("u", 0.0), pt("v", 1.25 + bump), pt("w", 3.0)])
        want = reference_congruent(a, b, tol)
        assert (want is not None) is congruent_expected
        assert _congruent_within(a, b, tol) == want

    def test_equal_distance_multisets_without_congruence(self):
        # two homometric sets on a line: the pre-check passes, the backtracking refuses
        a = Configuration(pt(f"a{x}", float(x)) for x in (0, 1, 4, 10, 12, 17))
        b = Configuration(pt(f"b{x}", float(x)) for x in (0, 1, 8, 11, 13, 17))
        da = sorted(distance(p, q) for p, q in combinations(a.points, 2))
        db = sorted(distance(p, q) for p, q in combinations(b.points, 2))
        assert da == db
        assert congruent(a, b) is None and reference_congruent(a, b) is None

    def test_lattice_rectangles_against_both_references(self):
        emb = grid_lattice_embedding(2, 1.1, 1.7)
        ref, wrong = planar_rectangle(1.1, 1.7), planar_rectangle(1.1, 1.25 * 1.7)
        rng = random.Random(4)
        for _ in range(50):
            i, i2 = sorted(rng.sample(range(1, emb.rows + 1), 2))
            j, j2 = sorted(rng.sample(range(1, emb.cols + 1), 2))
            rect = emb.rectangle_configuration(i, i2, j, j2)
            assert _congruent_within(rect, ref, TOL) == reference_congruent(rect, ref, TOL) is not None
            assert _congruent_within(rect, wrong, TOL) is reference_congruent(rect, wrong, TOL) is None


class TestCongruentMapping:
    """congruent returns the very mapping of the full-matrix algorithm with its pre-check."""

    @staticmethod
    def nudged(config, rng, size, prefix):
        """A copy of config with every coordinate moved by at most size, its points shuffled."""
        order = list(config.points)
        rng.shuffle(order)
        return Configuration(
            LabeledPoint(f"{prefix}{k}", [x + rng.uniform(-size, size) for x in p.coords]) for k, p in enumerate(order)
        )

    def test_seeded_configurations(self):
        rng = random.Random(34)
        found = missed = 0
        for case in range(400):
            k = rng.randint(3, 6)
            if case % 4 == 0:
                # a regular simplex: every distance within 1e-9 of every other, so the
                # search meets many candidates that pass and the first one must win
                a = self.nudged(regular_simplex(k - 1, rng.uniform(0.5, 2.0)), rng, 1e-11, "p")
            elif case % 4 == 1:
                # a square or rectangle with near-equal sides, plus points on the grid
                side = rng.uniform(0.5, 2.0)
                grid = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1)][:k]
                a = Configuration(
                    LabeledPoint(f"p{i}", (x * side, y * (side + rng.uniform(-4e-10, 4e-10))))
                    for i, (x, y) in enumerate(grid)
                )
            else:
                dim = rng.randint(1, 4)
                a = Configuration(
                    LabeledPoint(f"p{i}", [rng.uniform(-3, 3) for _ in range(dim)]) for i in range(k)
                )
            for b in (self.nudged(a, rng, 1e-10, "q"), self.nudged(a, rng, 1e-9, "q"), self.nudged(a, rng, 0.1, "q")):
                for tol in (1e-12, 1e-9, 1e-6):
                    want = reference_congruent_prechecked(a, b, tol)
                    assert _congruent_within(a, b, tol) == want, (case, tol)
                    found += want is not None
                    missed += want is None
                want = congruent(a, b)
                assert all(congruent(scaled(a, e), scaled(b, e)) == want for e in SCALES), case
        assert found >= 1000 and missed >= 1000

    def test_infinite_distances_never_match(self):
        # math.dist overflows to inf: congruent's tolerance is inf, and under a finite
        # one inf - inf is nan, which fails it
        a = Configuration([pt("x", -1e308, 0.0), pt("y", 1e308, 0.0), pt("z", 0.0, 0.0)])
        assert congruent(a, a) is None
        assert _congruent_within(a, a, TOL) is None and reference_congruent_prechecked(a, a, TOL) is None


class TestCongruentAtEveryScale:
    """congruent's tolerance is 1e-9 times the largest distance of the two configurations."""

    def test_lattice_rectangles_at_every_power_of_two_scale(self):
        emb = grid_lattice_embedding(2, 1.1, 1.7)
        ref, wrong = planar_rectangle(1.1, 1.7), planar_rectangle(1.1, 1.25 * 1.7)
        rng = random.Random(36)
        for _ in range(50):
            i, i2 = sorted(rng.sample(range(1, emb.rows + 1), 2))
            j, j2 = sorted(rng.sample(range(1, emb.cols + 1), 2))
            rect = emb.rectangle_configuration(i, i2, j, j2)
            want = congruent(rect, ref)
            assert want is not None and congruent(rect, wrong) is None
            for e in SCALES:
                assert congruent(scaled(rect, e), scaled(ref, e)) == want, e
                assert congruent(scaled(rect, e), scaled(wrong, e)) is None, e

    def test_tiny_rectangles_of_other_shapes_differ(self):
        # an absolute 1e-9 cannot tell sides of 2e-10 from sides of 3e-10
        a, b = planar_rectangle(1e-10, 2e-10), planar_rectangle(1e-10, 3e-10)
        assert _congruent_within(a, b, TOL) is not None
        assert congruent(a, b) is None

    def test_coincident_points_match_only_coincident_points(self):
        # the tolerance is 0 against the coincident pair and 1e-309 against the other
        same = Configuration([pt("x", 1.0, 2.0), pt("y", 1.0, 2.0)])
        assert congruent(same, Configuration([pt("u", -3.0, 0.0), pt("v", -3.0, 0.0)])) == {"x": "u", "y": "v"}
        assert congruent(same, Configuration([pt("u", 0.0, 0.0), pt("v", 1e-300, 0.0)])) is None


class TestRegularSimplex:
    def test_segment(self):
        config = regular_simplex(1, 2.0)
        assert len(config) == 2
        assert abs(distance(*config.points) - 2.0) <= TOL

    def test_unit_equilateral_triangle(self):
        config = regular_simplex(2, 1.0)
        for p, q in combinations(config.points, 2):
            assert abs(distance(p, q) - 1.0) <= TOL

    def test_five_simplex_with_sqrt2_side(self):
        config = regular_simplex(5, math.sqrt(2))
        assert len(config) == 6
        dists = [distance(p, q) for p, q in combinations(config.points, 2)]
        assert len(dists) == 15
        assert all(abs(d - math.sqrt(2)) <= TOL for d in dists)

    def test_affine_rank_is_k(self):
        for k in (1, 2, 3, 5):
            assert affine_rank(regular_simplex(k, 1.0)) == k

    def test_preconditions(self):
        with pytest.raises(ValueError):
            regular_simplex(0, 1.0)
        with pytest.raises(ValueError):
            regular_simplex(2, 0.0)


class TestLatticeEmbedding:
    def test_pythagorean_distances(self):
        emb = grid_lattice_embedding(1, 3.0, 4.0)
        assert abs(distance(emb.point(1, 1), emb.point(2, 1)) - 3.0) <= TOL
        assert abs(distance(emb.point(1, 1), emb.point(1, 2)) - 4.0) <= TOL
        assert abs(distance(emb.point(2, 1), emb.point(1, 2)) - 5.0) <= TOL

    def test_family_shape_for_r1(self):
        emb = grid_lattice_embedding(1, 1.0, 1.0)
        assert emb.rows == 7 and emb.cols == 12
        assert len(emb.configuration()) == 84

    def test_translation_identity(self):
        # point (i, j) is point (i, 1) translated by the column offset of (1, j)
        emb = grid_lattice_embedding(1, 2.0, 5.0)
        import numpy as np

        for i, j in [(2, 3), (4, 7), (7, 12)]:
            lhs = np.array(emb.point(i, j).coords)
            rhs = (
                np.array(emb.point(i, 1).coords)
                + np.array(emb.point(1, j).coords)
                - np.array(emb.point(1, 1).coords)
            )
            assert np.allclose(lhs, rhs, atol=TOL)

    def test_sample_quadruples_congruent_to_rectangle(self):
        emb = grid_lattice_embedding(1, 3.0, 4.0)
        reference = planar_rectangle(3.0, 4.0)
        for i, i2, j, j2 in [(1, 2, 1, 2), (1, 7, 1, 12), (3, 5, 2, 9)]:
            quad = emb.rectangle_configuration(i, i2, j, j2)
            assert congruent(quad, reference) is not None

    @pytest.mark.parametrize("a, b", [(1.1e7, 1.7e7), (1.1e8, 1.7e8)])
    def test_every_index_rectangle_at_any_size(self, a, b):
        # distances near 2e8 round by about 3e-8, more than an absolute 1e-9
        emb = grid_lattice_embedding(1, a, b)
        reference = planar_rectangle(a, b)
        quads = [
            (i, i2, j, j2)
            for i, i2 in combinations(range(1, emb.rows + 1), 2)
            for j, j2 in combinations(range(1, emb.cols + 1), 2)
        ]
        assert len(quads) == 1386
        for quad in quads:
            assert congruent(emb.rectangle_configuration(*quad), reference) is not None, quad

    @pytest.mark.parametrize(
        "a, b", [(s, s) for s in (1e-310, 1e-200, 1e-7, 1.0, 1e12, 1e200, 1e308)] + [(1e-7, 1.0), (1.0, 1e12)]
    )
    def test_affine_rank_does_not_depend_on_scale(self, a, b):
        for r in (1, 2):
            assert affine_rank(grid_lattice_embedding(r, a, b).configuration()) == 13 * r + 4

    def test_preconditions(self):
        with pytest.raises(ValueError):
            grid_lattice_embedding(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            grid_lattice_embedding(1, 1.0, -2.0)


class TestAffineRank:
    def test_known_families(self):
        for t in (3, 4, 6):
            assert affine_rank(simplex_midpoint_embedding(t).configuration()) == t - 1
        assert affine_rank(triangle_gadget()[0]) == 3
        assert affine_rank(Configuration([pt("a", 2.0, -1.0)])) == 0
        assert affine_rank(Configuration([pt("a", 2.0, -1.0), pt("b", 2.0, -1.0)])) == 0

    def test_collinear_up_to_rounding(self):
        # 0.1 * 3 != 0.3 in floats, so the third point is off the line by one rounding
        assert affine_rank(Configuration([pt("a", 0.0, 0.0), pt("b", 0.1, 0.2), pt("c", 0.3, 0.6)])) == 1

    def test_differences_beyond_the_float_range(self):
        # 1e308 - (-1e308) overflows, so the points are halved first
        assert affine_rank(Configuration([pt("a", -1e308), pt("b", 1e308)])) == 1
        line = [pt("a", -1e308, 0.0), pt("b", 1e308, 0.0), pt("c", 0.0, 0.0)]
        assert affine_rank(Configuration(line)) == 1
        assert affine_rank(Configuration([*line[:2], pt("c", 0.0, 1e300)])) == 2

    def test_matches_the_svd_of_the_whole_matrix(self):
        ranks = set()
        for seed in range(150):
            rng = np.random.default_rng(seed)
            k, dim = int(rng.integers(2, 60)), int(rng.integers(1, 50))  # tall and wide
            generic = rng.uniform(-1.0, 1.0, (k, dim)) * 10.0 ** rng.uniform(-300, 300)
            # integer factors and a power-of-two scale keep the low rank exact
            q = int(rng.integers(0, min(k - 1, dim) + 1))
            factors = rng.integers(-9, 10, (k, q)).astype(float), rng.integers(-9, 10, (q, dim)).astype(float)
            low = (factors[0] @ factors[1] + rng.integers(-9, 10, dim)) * 2.0 ** int(rng.integers(-996, 997))
            for x in (generic, low):
                if seed % 3 == 0:
                    x = x[rng.integers(0, k, k + int(rng.integers(0, 5)))]  # duplicated points
                config = Configuration(LabeledPoint(f"p{i}", tuple(row)) for i, row in enumerate(x.tolist()))
                want = reference_affine_rank(config)
                assert affine_rank(config) == want, (seed, k, dim)
                ranks.add(want)
        assert len(ranks) > 30


class TestPairEmbedding:
    def test_triangle_image_is_unit_equilateral(self):
        emb = simplex_midpoint_embedding(3)
        pts = [emb.point(1, 2), emb.point(2, 3), emb.point(1, 3)]
        for p, q in combinations(pts, 2):
            assert abs(distance(p, q) - 1.0) <= TOL

    def test_cycle_image_is_unit_square(self):
        emb = simplex_midpoint_embedding(4)
        cycle = Configuration(
            [emb.point(1, 2), emb.point(2, 3), emb.point(3, 4), emb.point(1, 4)]
        )
        square = Configuration(
            [pt("q1", 0, 0), pt("q2", 1, 0), pt("q3", 1, 1), pt("q4", 0, 1)]
        )
        assert congruent(cycle, square) is not None

    def test_path_image_distances(self):
        emb = simplex_midpoint_embedding(4)
        a, b, c = emb.point(1, 2), emb.point(2, 3), emb.point(3, 4)
        assert abs(distance(a, b) - 1.0) <= TOL
        assert abs(distance(b, c) - 1.0) <= TOL
        assert abs(distance(a, c) - math.sqrt(2)) <= TOL

    def test_count_and_edge_map(self):
        for t in (2, 3, 5, 8):
            emb = simplex_midpoint_embedding(t)
            assert len(emb.points) == t * (t - 1) // 2
            assert sorted(emb.points) == sorted(combinations(range(1, t + 1), 2))

    def test_distances_follow_shared_vertex_rule(self):
        emb = simplex_midpoint_embedding(6)
        for (i, j), (k, l) in combinations(sorted(emb.points), 2):
            d = distance(emb.point(i, j), emb.point(k, l))
            expected = 1.0 if len({i, j, k, l}) == 3 else math.sqrt(2)
            assert abs(d - expected) <= TOL


class TestStripColor:
    def test_origin(self):
        assert strip_oracle(3, 1.0)(0.0, 0.0) == 0

    def test_interior_point(self):
        assert strip_oracle(3, 1.0)(2.5, 7.0) == 2

    def test_negative_x_uses_mathematical_mod(self):
        assert strip_oracle(3, 1.0)(-0.5, 0.0) == 2

    def test_depends_only_on_x(self):
        rng = random.Random(3)
        color = strip_oracle(4, 0.7)
        for _ in range(100):
            x = rng.uniform(-10, 10)
            assert color(x, rng.uniform(-5, 5)) == color(x, rng.uniform(-5, 5))

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 6),
        st.floats(0.1, 3.0),
        st.floats(-50.0, 50.0),
        st.floats(-5.0, 5.0),
        st.floats(-5.0, 5.0),
    )
    def test_periodic_with_period_r_times_a(self, r, a, x, y1, y2):
        # stay away from strip boundaries where float rounding could flip the bin
        if abs(x / a - round(x / a)) < 1e-6:
            return
        color = strip_oracle(r, a)
        assert color(x, y1) == color(x + r * a, y2)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            strip_oracle(0, 1.0)
        with pytest.raises(ValueError):
            strip_oracle(3, 0.0)

    @pytest.mark.parametrize("a", [math.nan, math.inf])
    def test_nonfinite_width_rejected(self, a):
        with pytest.raises(ValueError, match="positive and finite"):
            strip_oracle(3, a)

    @pytest.mark.parametrize("x", [1e10, -1e10, math.inf, math.nan])
    def test_point_without_a_finite_strip_rejected(self, x):
        # 1e10 / 1e-300 overflows to inf, which has no floor
        with pytest.raises(ValueError, match="x/a is not finite"):
            strip_oracle(3, 1e-300)(x, 0.0)


class TestFalsifyStrip:
    def test_zero_trials(self):
        report = falsify_strip(3, 1.0, 1.0, 0, 7)
        assert report == type(report)(0, 0, 0)

    def test_no_hits_at_moderate_scale(self):
        report = falsify_strip(3, 1.0, 1.5, 20_000, 11)
        assert report.trials == 20_000
        assert report.mono_hits == 0 and report.rainbow_hits == 0

    def test_boundary_aspect_ratio_allowed(self):
        report = falsify_strip(4, 1.0, math.sqrt(3), 20_000, 5)
        assert report.mono_hits == 0 and report.rainbow_hits == 0

    def test_range_is_checked_exactly(self):
        # b^2 > 3a^2 exactly, though b <= math.sqrt(3) * a in floats
        a, b = 5.61679062459942, 9.728566737282724
        assert Fraction(b) ** 2 > 3 * Fraction(a) ** 2 and b <= math.sqrt(3) * a
        with pytest.raises(ValueError, match="sqrt"):
            falsify_strip(3, a, b, 10, 0)
        # b^2 <= 3a^2 exactly, though b > math.sqrt(3) * a in floats
        a, b = 9.221174446756038, 15.97154264723729
        assert Fraction(b) ** 2 <= 3 * Fraction(a) ** 2 and b > math.sqrt(3) * a
        report = falsify_strip(3, a, b, 5_000, 0)
        assert report.mono_hits == 0 and report.rainbow_hits == 0

    def test_deterministic_given_seed(self):
        assert falsify_strip(3, 0.5, 0.8, 5_000, 99) == falsify_strip(3, 0.5, 0.8, 5_000, 99)

    @pytest.mark.parametrize(
        "args",
        [
            (2, 1.0, 1.0, 10, 0),
            (3, 0.0, 1.0, 10, 0),
            (3, 1.0, 0.5, 10, 0),
            (3, 1.0, 1.8, 10, 0),
            (3, 1.0, 1.0, -1, 0),
            (3, math.inf, math.inf, 10, 0),
            (3, math.nan, 1.0, 10, 0),
            (3, 1.0, math.nan, 10, 0),
            (3, 1e308, 1e308, 10, 0),
            (10 ** 400, 1.0, 1.0, 10, 0),
            (3, 1.0, math.inf, 10, 0),
            # doubles near r*a are spaced too widely to resolve a corner
            (10 ** 17, 1.0, 1.5, 10, 1),
            (10 ** 23, 1.0, 1.5, 10, 1),
            (10 ** 16, 1.0, 1.5, 20_000, 1),
            (2 ** 21, 1.0, 1.0, 10, 1),
            (3, 2.0 ** -1045, 2.0 ** -1045, 10, 1),
        ],
    )
    def test_parameter_range_violations(self, args):
        with pytest.raises(ValueError):
            falsify_strip(*args)

    @pytest.mark.parametrize("a", [1.0, 0.1, 7.3, 2.0 ** -1022, 1e300 / 2 ** 20])
    def test_every_r_below_the_resolution_bound_is_accepted(self, a):
        for r, b in [(2 ** 20 - 3, a), (2 ** 20 - 3, a * 1.7), (300, a * 1.7)]:
            report = falsify_strip(r, a, b, 2_000, 3)
            assert report.mono_hits == report.rainbow_hits == 0


class TestRainbowSegment:
    def test_halfplane_walk(self):
        res = rainbow_segment(halfplane_oracle, 1.0, (-5.0, 0.0), (5.0, 0.0))
        assert abs(math.dist(res.p, res.q) - 1.0) <= TOL
        assert halfplane_oracle(*res.p) != halfplane_oracle(*res.q)
        assert res.iterations <= math.ceil(10.0 / 1.0) + 1

    def test_apex_branch_when_endpoints_at_distance_d(self):
        res = rainbow_segment(halfplane_oracle, 1.0, (-0.5, 0.0), (0.5, 0.0))
        assert res.iterations == 1
        assert abs(math.dist(res.p, res.q) - 1.0) <= TOL
        assert halfplane_oracle(*res.p) != halfplane_oracle(*res.q)

    def test_identical_colors_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            rainbow_segment(halfplane_oracle, 1.0, (1.0, 0.0), (2.0, 0.0))

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            rainbow_segment(halfplane_oracle, 0.0, (-1.0, 0.0), (1.0, 0.0))

    @pytest.mark.parametrize(
        "d, c, dpt",
        [
            (math.inf, (-1.0, 0.0), (1.0, 0.0)),
            (math.nan, (-1.0, 0.0), (1.0, 0.0)),
            (1.0, (-1.0, 0.0), (math.inf, 0.0)),
            (1.0, (math.nan, 0.0), (1.0, 0.0)),
            (1.0, (-1.0, math.nan), (1.0, -math.inf)),
            (1.0, (-1e308, 0.0), (1e308, 0.0)),  # the distance overflows
            (1e-320, (-1.0, 0.0), (1.0, 0.0)),  # so does the step count
        ],
    )
    def test_nonfinite_input_rejected(self, d, c, dpt):
        with pytest.raises(ValueError, match="finite"):
            rainbow_segment(halfplane_oracle, d, c, dpt)

    def test_step_limit_rejects_before_walking(self):
        # from x = -0.5 the first step crosses the color change, so only the limit decides
        start = (-0.5, 0.0)
        res = rainbow_segment(halfplane_oracle, 1.0, start, (MAX_SEGMENT_STEPS - 0.5, 0.0))
        assert res.iterations == 1
        calls = []

        def oracle(x, y):
            calls.append((x, y))
            return halfplane_oracle(x, y)

        for dpt in ((MAX_SEGMENT_STEPS + 0.5, 0.0), (1e300, 0.0)):
            with pytest.raises(ValueError, match=f"at most {MAX_SEGMENT_STEPS}"):
                rainbow_segment(oracle, 1.0, start, dpt)
        assert calls == []

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.01, 10.0),
        st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        st.integers(2, 5),
    )
    def test_iterations_within_bound_random(self, d, c, dpt, r):
        oracle = strip_oracle(r, 1.0)
        if oracle(*c) == oracle(*dpt):
            return
        res = rainbow_segment(oracle, d, c, dpt)
        assert res.iterations <= math.ceil(math.dist(c, dpt) / d) + 1
        assert oracle(*res.p) != oracle(*res.q)

    @pytest.mark.parametrize("d", [1.0, 0.37, 3.0])
    @pytest.mark.parametrize("far", [10.0**3, 10.0**5])
    def test_iterations_within_bound_far_apart(self, d, far):
        # the color changes only on the last step, so the walk takes every step
        c, dpt = (-far, 0.25 * far), (0.5 * d, 0.0)
        res = rainbow_segment(halfplane_oracle, d, c, dpt)
        dist = math.dist(c, dpt)
        assert res.iterations <= math.ceil(dist / d) + 1
        assert res.iterations >= math.ceil(dist / d) - 3
        assert abs(math.dist(res.p, res.q) - d) <= 1e-6 * d

    def test_step_below_coordinate_resolution_rejected(self):
        # at x = 1e15 floats are 0.125 apart, so a step of 0.05 rounds to nothing
        oracle = strip_oracle(3, 1.0)
        c, dpt = (1e15, 0.0), (1e15 + 10.0, 0.0)
        assert oracle(*c) != oracle(*dpt)
        with pytest.raises(ValueError, match="within 200 steps"):
            rainbow_segment(oracle, 0.05, c, dpt)

    @pytest.mark.parametrize("d, got", [(0.18, 0.125), (0.6, 0.625), (1.1, 1.125)])
    def test_step_rounded_away_from_d_rejected(self, d, got):
        # at x = 1e15 floats are 0.125 apart, so every step rounds to a multiple of 0.125
        oracle = strip_oracle(3, 1.0)
        with pytest.raises(ValueError, match=f"the pair found is {got} apart, not d={d}"):
            rainbow_segment(oracle, d, (1e15, 0.0), (1e15 + 10.0, 0.0))

    def test_strip_oracle_witnesses(self):
        oracle = strip_oracle(2, 1.0)
        rng = random.Random(2024)
        for _ in range(100):
            c = (rng.uniform(-8, 8), rng.uniform(-3, 3))
            d_point = (rng.uniform(-8, 8), rng.uniform(-3, 3))
            if oracle(*c) == oracle(*d_point):
                continue
            res = rainbow_segment(oracle, 1.0, c, d_point)
            assert abs(math.dist(res.p, res.q) - 1.0) <= TOL
            assert oracle(*res.p) != oracle(*res.q)
            assert res.iterations <= math.ceil(math.dist(c, d_point) / 1.0) + 1


class TestTriangleGadget:
    def test_nine_points(self):
        config, _ = triangle_gadget()
        assert len(config) == 9
        assert [p.label for p in config.points] == ["A", "B", "C", "A1", "A2", "A3", "A4", "A5", "A6"]

    def test_named_triples_present(self):
        _, triples = triangle_gadget()
        sets = {frozenset(t) for t in triples}
        for i in range(1, 7):
            assert frozenset({"A", "B", f"A{i}"}) in sets
        assert frozenset({"A", "A1", "C"}) in sets
        assert frozenset({"A", "A4", "C"}) in sets
        assert frozenset({"A2", "A3", "A5"}) in sets

    def test_base_triangle_is_not_a_gadget_triple(self):
        _, triples = triangle_gadget()
        assert frozenset({"A", "B", "C"}) not in {frozenset(t) for t in triples}
        config, _ = triangle_gadget()
        by_label = {p.label: p for p in config.points}
        side = math.sqrt(3) / 2
        for x, y in combinations(("A", "B", "C"), 2):
            assert abs(distance(by_label[x], by_label[y]) - side) <= TOL

    def test_triple_list_matches_independent_recomputation(self):
        config, triples = triangle_gadget()
        target = sorted(GADGET_SIDES)
        recomputed = set()
        for trio in combinations(config.points, 3):
            dists = sorted(distance(p, q) for p, q in combinations(trio, 2))
            if all(abs(x - y) <= TOL for x, y in zip(dists, target)):
                recomputed.add(frozenset(p.label for p in trio))
        assert recomputed == {frozenset(t) for t in triples}

    def test_hexagon_conditions(self):
        config, _ = triangle_gadget()
        by_label = {p.label: p for p in config.points}
        a = by_label["A"]
        hexagon = [by_label[f"A{i}"] for i in range(1, 7)]
        # (1) center A, circumradius 1/2, sides 1/2
        for h in hexagon:
            assert abs(distance(a, h) - 0.5) <= TOL
        for k in range(6):
            assert abs(distance(hexagon[k], hexagon[(k + 1) % 6]) - 0.5) <= TOL
        # (2) hexagon plane x=0 is perpendicular to AB along the x-axis
        assert all(h.coords[0] == 0.0 for h in hexagon)
        assert by_label["B"].coords[1] == by_label["B"].coords[2] == 0.0
        # (3) A1 and A4 lie on the line through A perpendicular to the ABC plane (z-axis)
        for label in ("A1", "A4"):
            x, y, _ = by_label[label].coords
            assert x == 0.0 and y == 0.0
        assert all(p.coords[2] == 0.0 for p in (a, by_label["B"], by_label["C"]))

    def test_colorings_with_external_hexagon_color_are_rainbow_covered(self):
        _, triples = triangle_gadget()
        # any A_i colored outside {1, 2} makes {A, B, A_i} rainbow
        for i in range(1, 7):
            colors = {"A": 1, "B": 2, "C": 1}
            for k in range(1, 7):
                colors[f"A{k}"] = 1
            colors[f"A{i}"] = 7
            hits = [
                t
                for t in triples
                if len({colors[t[0]], colors[t[1]], colors[t[2]]}) == 3
            ]
            assert any(frozenset(t) == frozenset({"A", "B", f"A{i}"}) for t in hits)

    def test_equal_axis_colors_force_mono_hexagon_triple(self):
        # with every A_i in {1, 2} and A1 == A4, some hexagon triple is mono
        _, triples = triangle_gadget()
        hex_triples = [t for t in triples if all(lab.startswith("A") and len(lab) == 2 for lab in t)]
        from itertools import product as iproduct

        for axis_color in (1, 2):
            for rest in iproduct((1, 2), repeat=4):
                colors = {"A1": axis_color, "A4": axis_color}
                for lab, c in zip(("A2", "A3", "A5", "A6"), rest):
                    colors[lab] = c
                mono = any(
                    colors[t[0]] == colors[t[1]] == colors[t[2]] for t in hex_triples
                )
                assert mono, colors


def test_gadget_enumeration_holds():
    report = verify_triangle_gadget()
    assert report.holds
    assert report.colorings_checked == 8 * 9 ** 6
    assert report.first_uncovered is None


def adversarial_draws(r, a, b, seed):
    """Draws that put corners on strip boundaries, just off them, and at both ends of the floor range.

    Most trials place one corner, chosen at random, at (k + t)*a for an
    integer k from -1 to r + 1 (a third of them from -1 to 2), with t = 0,
    |t| < 1e-12, or |t| within half the screen's trig margin; the doubles
    round cx, so |t| is at least about r*2^-52.  Where it can, a trial with
    t = 0 is moved to a corner x whose x/a and x*(1/a) have different
    floors.  The rest put the center at
    both ends of [0, 1), so corners reach negative x and pass r*a, under
    the angles that spread the corners most.
    """
    rng = np.random.default_rng(seed)
    n = 10_000
    turns = rng.random(n)
    theta = math.pi * turns
    ux, vx = (a / 2.0) * np.cos(theta), -(b / 2.0) * np.sin(theta)
    corner = rng.integers(0, 4, n)
    shift = np.array([1, 1, -1, -1])[corner] * ux + np.array([1, -1, 1, -1])[corner] * vx
    k = np.where(rng.random(n) < 1 / 3, rng.integers(-1, 3, n), rng.integers(-1, r + 2, n))
    sign = rng.choice([-1.0, 1.0], n)
    h = 0.5 + b / (2.0 * a)
    t = np.choose(rng.integers(0, 3, n), [np.zeros(n), 1e-12 * rng.random(n), TRIG_ERR * h * rng.uniform(0.05, 0.5, n)])
    shares = ((k + sign * t) * a - shift) / (r * a)
    # move each trial with t = 0 by up to 24 ulps of its center draw onto a corner
    # whose x/a and x*(1/a) have different floors, where there is one
    steps = np.arange(-24, 25)[:, None]
    moved = shares + steps * np.spacing(shares)
    x = reference_strip_corners(r, a, b, np.broadcast_to(turns, moved.shape), moved)
    split = (np.floor(x / a) != np.floor(x * (1 / a))).any(axis=0) & (t == 0)
    first = split.argmax(axis=0)
    shares = np.where(split.any(axis=0), moved[first, np.arange(n)], shares)
    inside = (0.0 <= shares) & (shares < 1.0)
    widest = math.atan2(b, a) / math.pi
    ends = [(u, w) for u in (0.0, widest, 0.5, 1.0 - widest, np.nextafter(1.0, 0.0)) for w in (0.0, 5e-324, 1e-17, np.nextafter(1.0, 0.0))]
    end_turns, end_shares = np.array(ends).T
    return np.concatenate([turns[inside], end_turns]), np.concatenate([shares[inside], end_shares])


def reference_codes(r, a, b, turns, shares, base):
    """The screen's codes, from the double floors of tests/oracles.py."""
    k = reference_strip_floors(r, a, b, turns, shares)
    d = k[1:] - k[0] + base // 2
    assert (d >= 0).all() and (d < base).all()
    return (d[0] * base + d[1]) * base + d[2]


class TestStripScreen:
    """Per trial, the single-precision screen gives the strip indices of the double sweep."""

    @pytest.mark.parametrize("r", [3, 4, 2**20 - 3])
    @pytest.mark.parametrize("a, b", [(1.0, 1.5), (0.95, 0.95 * 1.7), (0.45, 0.45)])
    def test_adversarial_draws_get_the_double_floors(self, r, a, b):
        turns, shares = adversarial_draws(r, a, b, r)
        screen = _StripScreen(r, a, b, len(turns))
        codes, exact = screen(turns, shares)
        want = reference_codes(r, a, b, turns, shares, screen.base)
        assert np.flatnonzero(codes != want).tolist() == []
        # the draws reach negative x and both ends of the floor range
        k = reference_strip_floors(r, a, b, turns, shares)
        assert k.min() <= -1 and k.max() >= r
        # every corner within half the trig margin of a boundary is recomputed in doubles
        x = reference_strip_corners(r, a, b, turns, shares)
        gap = np.abs(x / a - np.rint(x / a)).min(axis=0)
        assert len(turns) > 5000 and np.count_nonzero(gap < 1e-12) > 1000
        assert np.setdiff1d(np.flatnonzero(gap < TRIG_ERR * (0.5 + b / (2 * a)) / 2), exact).tolist() == []
        # some corners land where x/a and x*(1/a) have different floors
        assert a == 1.0 or np.count_nonzero((np.floor(x / a) != np.floor(x * (1 / a))).any(axis=0)) > 100

    @pytest.mark.parametrize("r", [3, 1000, 2**20 - 3])
    @pytest.mark.parametrize("b", [0.9, 1.5, 2.6])
    @pytest.mark.parametrize("a", [1.0, 2.0**-1022, 1e300 / 2**20])
    def test_random_draws_get_the_double_floors(self, r, a, b):
        rng = np.random.default_rng(r)
        turns, shares = rng.random((2, 50_000))
        screen = _StripScreen(r, a, a * b, 50_000)
        codes, exact = screen(turns, shares)
        assert np.array_equal(codes, reference_codes(r, a, a * b, turns, shares, screen.base))
        assert 0 < len(exact) < 500  # the screen settles all but about 0.3 %

    def test_float32_trig_stays_within_a_sixteenth_of_the_bound(self):
        specials = np.array([0.0, math.pi / 2, math.pi])
        singles = specials.astype(np.float32)
        neighbours = [np.nextafter(singles, np.float32(step)) for step in (-np.inf, np.inf)]
        theta = np.concatenate(
            [np.random.default_rng(3).uniform(0.0, math.pi, 10**6), np.linspace(0.0, math.pi, 2**16 + 1), specials, singles, *neighbours]
        )
        for trig in (np.cos, np.sin):
            err = np.abs(trig(theta.astype(np.float32)).astype(float) - trig(theta))
            assert err.max() <= TRIG_ERR / 16, trig

    # b outside [a, sqrt(3)*a], so that both hit counts are non-zero from r = 4 on
    CASES = [(3, 1.0, 0.9, 3 * _BLOCK + 17, 41), (4, 0.8, 2.6, 3 * _BLOCK + 17, 42), (5, 0.5, 2.4, 3 * _BLOCK + 17, 43)]

    @pytest.mark.parametrize("r, a, b, trials, seed", CASES)
    @pytest.mark.parametrize(
        "cuts", [[1], [_BLOCK - 1], [_BLOCK], [_BLOCK + 1], [1001, 12345, 20000], [1, _BLOCK - 1, _BLOCK, _BLOCK + 1]]
    )
    def test_one_screen_sums_over_any_partition(self, r, a, b, trials, seed, cuts):
        # one screen, called on pieces of every length, reuses leading parts of its buffers
        want = reference_falsify_strip(r, a, b, trials, seed)
        assert want.mono_hits > 0 and (want.rainbow_hits > 0) is (r >= 4)
        turns = np.random.default_rng(seed).random(trials)
        shares = np.random.Generator(np.random.PCG64(seed).advance(trials)).random(trials)
        bounds = [0, *cuts, trials]
        screen = _StripScreen(r, a, b, max(hi - lo for lo, hi in zip(bounds, bounds[1:])))
        table = _verdict_table(r, screen.base)
        verdicts = []
        for lo, hi in zip(bounds, bounds[1:]):
            codes, _ = screen(turns[lo:hi], shares[lo:hi])
            assert np.array_equal(codes, reference_codes(r, a, b, turns[lo:hi], shares[lo:hi], screen.base)), (lo, hi)
            verdicts.append(np.take(table, codes, mode="raise"))
        verdicts = np.concatenate(verdicts)
        assert (np.count_nonzero(verdicts == 1), np.count_nonzero(verdicts == 2)) == (want.mono_hits, want.rainbow_hits)

    def test_an_empty_block_gives_no_codes(self):
        screen = _StripScreen(4, 0.8, 2.6, 100)
        codes, exact = screen(np.empty(0), np.empty(0))
        assert len(codes) == len(exact) == 0

    @pytest.mark.parametrize("r", [3, 4, 5, 6, 7, 8, 127, 128, 1000, 2**20 - 3])
    def test_verdict_table_against_mod_r(self, r):
        for base in (5, 9):
            reach = base // 2
            want = []
            for d1, d2, d3 in product(range(-reach, reach + 1), repeat=3):
                colors = {0, d1 % r, d2 % r, d3 % r}
                want.append(1 if len(colors) == 1 else 2 if len(colors) == 4 else 0)
            table = _verdict_table(r, base)
            assert table.tolist() == want
            with pytest.raises(IndexError):
                np.take(table, [base**3], mode="raise")

    def test_a_code_outside_the_table_raises(self, monkeypatch):
        real_table = euclid._verdict_table
        monkeypatch.setattr(euclid, "_verdict_table", lambda r, base: real_table(r, base)[: base**3 // 2])
        with pytest.raises(IndexError):
            _falsify_strip_blocks(3, 1.0, 1.5, 1000, 1)

    def test_the_margin_and_range_for_the_accepted_widths(self):
        for b in (1.0, 1.5, math.sqrt(3)):
            screen = _StripScreen(3, 1.0, b, 1)
            assert screen.base == 9
            assert TRIG_ERR * (0.5 + b / 2) < screen.eps < 2 * TRIG_ERR * (0.5 + b / 2)


class TestStreamedStripFalsifier:
    """The blocked sweep reports exactly what the whole-array sweep reported."""

    def test_random_cases_match_the_whole_array_reference(self):
        rng = random.Random(7)
        edges = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1)
        with_hits = 0
        for k in range(200):
            r = rng.randint(3, 6)
            a = rng.uniform(0.3, 2.0)
            # even cases may leave [a, sqrt(3)*a], so hits occur
            b = a * (rng.uniform(1.0, math.sqrt(3)) if k % 2 else rng.uniform(0.5, 2.5))
            trials = edges[k // 2 % 4] if k % 10 < 2 else rng.randint(1, 2000)
            seed = rng.randrange(2 ** 32)
            want = reference_falsify_strip(r, a, b, trials, seed)
            assert _falsify_strip_blocks(r, a, b, trials, seed) == want, (r, a, b, trials, seed)
            with_hits += want.mono_hits + want.rainbow_hits > 0
        assert with_hits >= 40

    @pytest.mark.parametrize("b, seed", [(0.99, 8), (0.992, 39)])
    def test_first_hit_in_a_later_block(self, b, seed):
        trials = 2 * _BLOCK + 5
        report = _falsify_strip_blocks(3, 1.0, b, trials, seed)
        assert report == reference_falsify_strip(3, 1.0, b, trials, seed)
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.0, math.pi, trials)
        cx = rng.uniform(0.0, 3.0, trials)
        ux, vx = np.cos(theta) / 2, -b / 2 * np.sin(theta)
        c0, c1, c2, c3 = (np.floor(x) % 3 for x in (cx + ux + vx, cx + ux - vx, cx - ux + vx, cx - ux - vx))
        hits = np.flatnonzero((c0 == c1) & (c0 == c2) & (c0 == c3))
        assert len(hits) == report.mono_hits > 0 and hits[0] >= _BLOCK

    @pytest.mark.parametrize("r", [3, 4, 5, 6])
    def test_corners_reach_both_ends_of_the_floor_range(self, r):
        # b = 2.5a places corners up to hypot(a, b)/2 = 1.35a from the center, so
        # floor(x/a) runs from -2 to r + 1, the ends of the range the screen derives
        # (J = 2 around the center's strip, which runs from 0 to r - 1)
        a, b, trials, seed = 0.8, 2.0, 20_000, 100 + r
        report = _falsify_strip_blocks(r, a, b, trials, seed)
        assert report == reference_falsify_strip(r, a, b, trials, seed)
        assert report.mono_hits + report.rainbow_hits > 0
        assert (report.rainbow_hits > 0) is (r >= 4)
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.0, math.pi, trials)
        cx = rng.uniform(0.0, r * a, trials)
        ux, vx = a / 2 * np.cos(theta), -b / 2 * np.sin(theta)
        k = np.floor(np.concatenate([cx + ux + vx, cx + ux - vx, cx - ux + vx, cx - ux - vx]) / a)
        assert (k.min(), k.max()) == (-2, r + 1)

    def test_more_colors_than_the_table_holds(self):
        rng = random.Random(9)
        for _ in range(20):
            r = rng.choice((127, 128, 200, 300))
            a = rng.uniform(0.3, 2.0)
            b = a * rng.uniform(0.5, 2.5)
            seed = rng.randrange(2 ** 32)
            assert _falsify_strip_blocks(r, a, b, 3000, seed) == reference_falsify_strip(r, a, b, 3000, seed)

    @pytest.mark.parametrize("r", [127, 128, 1000])
    @pytest.mark.parametrize("b, seed", [(0.9, 51), (2.6, 52)])
    def test_one_table_for_many_colors(self, r, b, seed):
        # b outside [a, sqrt(3)*a]: below it whole placements fit in one strip, above
        # it placements span four strips
        report = _falsify_strip_blocks(r, 1.0, b, 2 * _BLOCK + 3, seed)
        assert report == reference_falsify_strip(r, 1.0, b, 2 * _BLOCK + 3, seed)
        assert (report.mono_hits > 0) is (b < 1.0) and (report.rainbow_hits > 0) is (b > 2.0)

    @pytest.mark.parametrize("trials", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
    def test_public_falsifier_matches_reference_at_block_edges(self, trials):
        report = falsify_strip(4, 0.8, 1.1, trials, 3)
        assert report == reference_falsify_strip(4, 0.8, 1.1, trials, 3)
        assert report.mono_hits == report.rainbow_hits == 0

    @pytest.mark.parametrize("r, a, b, seed", [(3, 1.0, 0.9, 61), (4, 0.8, 2.6, 62), (5, 0.5, 2.4, 63)])
    @pytest.mark.parametrize("trials", [1, 2, 5000, _BLOCK - 1, _BLOCK + 1, 2 * _BLOCK + 17, 3 * _BLOCK + 1])
    def test_short_and_single_trial_final_blocks(self, r, a, b, seed, trials):
        # a final block shorter than the others sweeps leading parts of the buffers
        want = reference_falsify_strip(r, a, b, trials, seed)
        assert trials < 5000 or (want.mono_hits > 0 and (want.rainbow_hits > 0) is (r >= 4))
        assert _falsify_strip_blocks(r, a, b, trials, seed) == want

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
    def test_a_process_pinned_to_one_cpu_reports_the_same(self):
        cases = [(3, 1.0, 0.9, 3 * _BLOCK + 17, 41), (4, 0.8, 2.6, 3 * _BLOCK + 17, 42), (6, 1.0, 1.6, 2 * 10 ** 5, 46)]
        script = (
            "import os, sys\n"
            "from gallaikit.euclid import _falsify_strip_blocks\n"
            "print(len(os.sched_getaffinity(0)))\n"
            f"for case in {cases!r}:\n"
            "    print(_falsify_strip_blocks(*case))\n"
        )
        cpu = min(os.sched_getaffinity(0))
        src = str(Path(euclid.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=src),
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0] == "1"
        assert lines[1:] == [repr(_falsify_strip_blocks(*case)) for case in cases]


class TestGadgetBroadcast:
    """The search on the driver reports exactly what the whole-array reference sweep reports."""

    def test_real_triples_match_the_reference(self):
        _, triples = triangle_gadget()
        report, nodes = _search_gadget(triples)
        assert report == reference_gadget_sweep(triples)
        assert report == verify_triangle_gadget()
        assert nodes == 69

    def test_the_triples_are_computed_once_per_process(self, monkeypatch):
        report = verify_triangle_gadget()
        first, second = triangle_gadget(), triangle_gadget()
        assert first[0] is not second[0] and first[1] is not second[1]
        first[1].clear()  # a caller's copy is its own
        assert list(euclid._gadget_triples()) == second[1]

        def recompute():
            raise AssertionError("the gadget was rebuilt")

        monkeypatch.setattr(euclid, "triangle_gadget", recompute)
        assert verify_triangle_gadget() == report
        assert _search_gadget(euclid._gadget_triples())[1] == 69

    @pytest.mark.parametrize(
        "drop, holds",
        [
            (lambda t: "B" in t, False),  # the six (A, B, A_i) triples
            (lambda t: "C" in t, False),
            (lambda t: "A1" in t, False),
            (lambda t: t == ("A1", "A2", "A4"), True),
        ],
    )
    def test_reduced_triple_lists_match_the_reference(self, drop, holds):
        _, triples = triangle_gadget()
        reduced = [t for t in triples if not drop(t)]
        report, _ = _search_gadget(reduced)
        assert report.holds is holds
        assert report == reference_gadget_sweep(reduced)

    @pytest.mark.parametrize(
        "triples",
        [
            [
                ("A3", "A4", "A5"), ("B", "C", "A6"), ("A", "A4", "A6"), ("C", "A2", "A3"), ("A", "C", "A1"),
                ("C", "A3", "A6"), ("A2", "A5", "A6"), ("B", "A1", "A5"), ("B", "A1", "A3"), ("A", "A3", "A4"),
            ],
            [
                ("A", "C", "A3"), ("A2", "A3", "A4"), ("B", "A3", "A4"), ("A", "A2", "A5"), ("C", "A5", "A6"),
                ("B", "A5", "A6"), ("A1", "A3", "A6"), ("A", "B", "A1"), ("A", "A4", "A6"), ("A1", "A3", "A5"),
                ("A2", "A3", "A6"), ("A", "A1", "A6"), ("A3", "A4", "A5"),
            ],
        ],
    )
    def test_first_uncovered_with_a_hexagon_color_above_three(self, triples):
        # no sub-list of the real triples has such a least uncovered coloring, so these
        # lists mix in other triples; the search numbers colors by first use and the
        # reference sweeps every color of C and the hexagon
        report, _ = _search_gadget(triples)
        assert report == reference_gadget_sweep(triples)
        assert max(report.first_uncovered[f"A{i}"] for i in range(1, 7)) >= 4

    def test_random_triple_lists_match_the_reference(self):
        labels = ("A", "B", "C", "A1", "A2", "A3", "A4", "A5", "A6")
        subsets = list(combinations(labels, 3))
        rng = random.Random(5)
        for _ in range(6):
            triples = rng.sample(subsets, rng.randint(3, 12))
            assert _search_gadget(triples)[0] == reference_gadget_sweep(triples), triples

    def test_first_uncovered_past_the_first_color_of_c(self):
        # every coloring with C = 1 is covered, so the order over C's axis shows
        triples = [
            ("B", "A3", "A4"), ("A", "C", "A2"), ("B", "A2", "A3"), ("B", "A3", "A6"),
            ("A3", "A4", "A6"), ("C", "A4", "A5"), ("B", "A2", "A4"), ("A", "A3", "A5"),
            ("A2", "A4", "A6"), ("C", "A3", "A6"), ("A", "A3", "A4"), ("A", "C", "A1"),
        ]
        report, _ = _search_gadget(triples)
        assert report == reference_gadget_sweep(triples)
        assert report.first_uncovered == {
            "A": 1, "B": 2, "C": 3, "A1": 1, "A2": 1, "A3": 1, "A4": 2, "A5": 2, "A6": 1,
        }


class TestBoundedMemory:
    """The geometry sweeps hold a block of work at a time, never the whole sweep."""

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            result = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    def test_strip_falsifier_memory_does_not_grow_with_trials(self):
        report, peak = self.traced_peak(lambda: falsify_strip(3, 1.0, 1.5, 2_000_000, 1))
        assert report == type(report)(2_000_000, 0, 0)
        assert peak < 16 * 2 ** 20  # holding all trials at once takes 245 MiB

    def test_gadget_sweep_memory(self):
        report, peak = self.traced_peak(verify_triangle_gadget)
        assert report.holds
        assert peak < 20 * 2 ** 20  # a 9^6 batch per color of C peaks at 30 MiB


class TestConfigurationFormat:
    def test_round_trip(self):
        config, _ = triangle_gadget()
        parsed = parse_configuration(format_configuration(config))
        assert [p.label for p in parsed.points] == [p.label for p in config.points]
        for p, q in zip(parsed.points, config.points):
            assert p.coords == q.coords

    def test_header_layout(self):
        text = format_configuration(regular_simplex(1, 1.0))
        assert text.splitlines()[0] == "config 2 2"

    def test_label_with_spaces_rejected(self):
        config = Configuration([pt("bad label", 0.0)])
        with pytest.raises(ValueError, match="label"):
            format_configuration(config)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "configuration 2 1\np 0 0\n",
            "config 2 2\np 0 0\n",
            "config 2 1\np 0\n",
            "config 2 1\np 0 zero\n",
            "config x 1\np 0 0\n",
            "config 2 1\np inf 0\n",
            "config 2 1\np 0 nan\n",
            "config 2 1\np 1e400 0\n",
            "config -1 2\n\n0\n",  # a blank line has dim + 1 = 0 fields
        ],
    )
    def test_malformed_configurations_rejected(self, text):
        with pytest.raises(CertificateError):
            parse_configuration(text)

    @pytest.mark.parametrize(
        "line",
        ["p\t1", "p \t1", "p  1", " p 1", "p\r1", "p\x1c1", "p 1\x0b", "p\u30001", "\u00e9 1"],
    )
    def test_point_fields_are_separated_by_single_spaces(self, line):
        # float() skips a tab or a carriage return next to a number; the text is ASCII
        assert parse_configuration("config 1 1\np 1\n").points[0].coords == (1.0,)
        with pytest.raises(CertificateError):
            parse_configuration(f"config 1 1\n{line}\n")

    def test_non_ascii_label_not_written(self):
        with pytest.raises(ValueError, match="label"):
            format_configuration(Configuration([pt("\u00e9", 0.0)]))
