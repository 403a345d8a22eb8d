"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` to see the status lines as the
criteria execute.  Geometry comparisons use absolute tolerance 1e-9; all
combinatorial answers are exact.
"""

import math
import random
import time
from itertools import combinations

from gallaikit.cli import run
from gallaikit.euclid import (
    congruent,
    distance,
    affine_rank,
    falsify_strip,
    grid_lattice_embedding,
    planar_rectangle,
    rainbow_segment,
    simplex_midpoint_embedding,
    strip_oracle,
    triangle_gadget,
    verify_triangle_gadget,
)
from gallaikit.graphs import (
    find_mono_subgraph,
    find_rainbow_triangle,
    gallai_ramsey_number,
    search_good_edge_coloring,
)
from gallaikit.grid import verify_good
from gallaikit.search import Outcome, minimal_forcing_m, search_good_coloring
from gallaikit.sat import encode_grid_cnf, decode_model

from oracles import (
    assignment_from_coloring,
    coloring_from_index,
    count_good_3xm_2colorings,
    count_good_naive,
    formula_coloring_model_count,
    naive_good_exists,
)

TOL = 1e-9


def report(num, ok, desc):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_gallai_ramsey_c4():
    start = time.perf_counter()
    k6 = search_good_edge_coloring(6, 3, "C4")
    k7 = search_good_edge_coloring(7, 3, "C4")
    witness_ok = (
        k6.kind is Outcome.FOUND
        and find_rainbow_triangle(k6.witness) is None
        and find_mono_subgraph(k6.witness, "C4") is None
    )
    cli = run(["gr-search", "c4", "3"])
    within_budget = time.perf_counter() - start <= 600
    ok = (
        witness_ok
        and k7.kind is Outcome.EXHAUSTED
        and gallai_ramsey_number("C4", 3, 10) == 7
        and cli.exit_code == 0
        and cli.summary == "gr=7"
        and within_budget
    )
    report(1, ok, "gr-search c4 3 = 7 (good K6 coloring found, K7 exhausted, <= 10 min)")


def test_criterion_2_gallai_ramsey_p4():
    start = time.perf_counter()
    cli = run(["gr-search", "p4", "3"])
    within_budget = time.perf_counter() - start <= 120
    ok = (
        cli.exit_code == 0
        and cli.summary == "gr=6"
        and gallai_ramsey_number("P4", 3, 10) == 6
        and within_budget
    )
    report(2, ok, "gr-search p4 3 = 6 (<= 2 min)")
    stretch = run(["gr-search", "p4", "4"])
    stretch_ok = stretch.exit_code == 0 and stretch.summary == "gr=7"
    print(f"[criterion 2 stretch] {'PASS' if stretch_ok else 'FAIL'}: gr-search p4 4 = 7")
    assert stretch_ok


def test_criterion_3_grid_forcing_r2():
    start = time.perf_counter()
    counts = {m: count_good_3xm_2colorings(m) for m in range(2, 8)}
    oracle_within_budget = time.perf_counter() - start <= 300
    oracle_ok = all(counts[m] > 0 for m in range(2, 7)) and counts[7] == 0
    engine_found = search_good_coloring(3, 6, 2)
    engine_exhausted = search_good_coloring(3, 7, 2)
    ok = (
        oracle_ok
        and oracle_within_budget
        and engine_found.kind is Outcome.FOUND
        and verify_good(engine_found.witness).is_good
        and engine_exhausted.kind is Outcome.EXHAUSTED
        and minimal_forcing_m(3, 2, 10) == 7
    )
    report(3, ok, "good 3x6 2-coloring exists, 3x7 exhausted, minimal_forcing_m(3,2,10)=7")


def test_criterion_4_engine_matches_brute_force():
    mismatches = []
    for n in range(1, 13):
        for m in range(1, 12 // n + 1):
            for r in range(1, 5):
                out = search_good_coloring(n, m, r)
                expected = naive_good_exists(n, m, r)
                if (out.kind is Outcome.FOUND) != expected or out.kind is Outcome.BUDGET_EXCEEDED:
                    mismatches.append((n, m, r, out.kind, expected))
    report(4, not mismatches, f"engine equals naive enumeration on all n*m<=12, r<=4 ({mismatches})")


def test_criterion_5_sat_faithfulness():
    failures = []
    for n, m in [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)]:
        for r in range(1, 5):
            cnf = encode_grid_cnf(n, m, r)
            model_count, first = formula_coloring_model_count(cnf, n, m, r)
            engine = search_good_coloring(n, m, r)
            if (model_count > 0) != (engine.kind is Outcome.FOUND):
                failures.append((n, m, r, "verdict"))
            if model_count != count_good_naive(n, m, r):
                failures.append((n, m, r, "count"))
            if first is not None:
                good = coloring_from_index(n, m, r, first)
                decoded = decode_model(n, m, r, assignment_from_coloring(good))
                if decoded != good or not verify_good(decoded).is_good:
                    failures.append((n, m, r, "decode"))
    report(5, not failures, f"formula satisfiability matches engine on n*m<=9, r<=4 ({failures})")


def test_criterion_6_embedding_geometry():
    failures = []
    for r, (a, b) in [(1, (3.0, 4.0)), (2, (1.0, 1.0)), (3, (1.0, 2.0))]:
        emb = grid_lattice_embedding(r, a, b)
        reference = planar_rectangle(a, b)
        for i, i2 in combinations(range(1, emb.rows + 1), 2):
            for j, j2 in combinations(range(1, emb.cols + 1), 2):
                if congruent(emb.rectangle_configuration(i, i2, j, j2), reference, TOL) is None:
                    failures.append((r, i, i2, j, j2))
        rank = affine_rank(emb.configuration())
        if rank != 13 * r + 4:
            failures.append((r, "rank", rank))
    for t in range(2, 9):
        emb = simplex_midpoint_embedding(t)
        for (i, j), (k, l) in combinations(sorted(emb.points), 2):
            d = distance(emb.point(i, j), emb.point(k, l))
            expected = 1.0 if len({i, j, k, l}) == 3 else math.sqrt(2)
            if abs(d - expected) > TOL:
                failures.append((t, (i, j), (k, l), d))
    # the named images: the 4-cycle maps to a unit square, the path to (1, 1, sqrt(2))
    emb = simplex_midpoint_embedding(4)
    a, b, c, d = emb.point(1, 2), emb.point(2, 3), emb.point(3, 4), emb.point(1, 4)
    square_sides = [distance(a, b), distance(b, c), distance(c, d), distance(a, d)]
    square_diagonals = [distance(a, c), distance(b, d)]
    if any(abs(s - 1.0) > TOL for s in square_sides):
        failures.append(("square-sides", square_sides))
    if any(abs(s - math.sqrt(2)) > TOL for s in square_diagonals):
        failures.append(("square-diagonals", square_diagonals))
    path = [distance(a, b), distance(b, c), distance(a, c)]
    if any(abs(got - want) > TOL for got, want in zip(path, (1.0, 1.0, math.sqrt(2)))):
        failures.append(("path", path))
    report(6, not failures, f"lattice rectangles congruent, rank 13r+4, pair distances 1/sqrt(2)-exact ({failures[:3]})")


def test_criterion_7_strip_construction():
    failures = []
    for r, a, b in [(3, 1.0, 1.0), (3, 1.0, 1.5), (4, 1.0, math.sqrt(3))]:
        start = time.perf_counter()
        rep = falsify_strip(r, a, b, 10 ** 6, 42)
        elapsed = time.perf_counter() - start
        if rep.mono_hits or rep.rainbow_hits:
            failures.append((r, a, b, rep.mono_hits, rep.rainbow_hits))
        if elapsed > 30:
            failures.append((r, a, b, "slow", elapsed))
    cli = run(["strip-falsify", "3", "1", "1.5", "--trials", "1000000", "--seed", "42"])
    if cli.exit_code != 0 or cli.summary != "mono=0 rainbow=0":
        failures.append(("cli", cli.exit_code, cli.summary))
    report(7, not failures, f"strip coloring survives 1e6 random placements per case, <= 30 s each ({failures})")


def test_criterion_8_triangle_gadget():
    start = time.perf_counter()
    rep = verify_triangle_gadget()
    within_budget = time.perf_counter() - start <= 120
    _, triples = triangle_gadget()
    sets = {frozenset(t) for t in triples}
    required = [frozenset({"A", "B", f"A{i}"}) for i in range(1, 7)]
    required += [frozenset({"A", "A1", "C"}), frozenset({"A", "A4", "C"}), frozenset({"A2", "A3", "A5"})]
    cli = run(["gadget-verify"])
    ok = (
        rep.holds
        and rep.colorings_checked == 8 * 9 ** 6
        and all(t in sets for t in required)
        and cli.exit_code == 0
        and cli.summary == "gadget holds=true colorings=4251528 triples=20"
        and within_budget
    )
    report(8, ok, "all 8*9^6 gadget colorings contain a mono or rainbow triple (<= 2 min)")


def test_criterion_9_rainbow_segment_suite():
    rng = random.Random(20260811)
    failures = []
    checked = 0
    while checked < 100:
        if checked % 2 == 0:
            # random half-plane: color 1 on the negative side of a random line
            nx, ny = rng.uniform(-1, 1), rng.uniform(-1, 1)
            if abs(nx) + abs(ny) < 0.1:
                continue
            offset = rng.uniform(-2, 2)

            def oracle(x, y, nx=nx, ny=ny, offset=offset):
                return 1 if nx * x + ny * y < offset else 2
        else:
            oracle = strip_oracle(rng.randint(2, 5), rng.uniform(0.3, 2.0))
        c = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        dpt = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        if oracle(*c) == oracle(*dpt):
            continue
        d = rng.uniform(0.1, 3.0)
        res = rainbow_segment(oracle, d, c, dpt)
        if abs(math.dist(res.p, res.q) - d) > TOL:
            failures.append(("distance", c, dpt, d))
        if oracle(*res.p) == oracle(*res.q):
            failures.append(("colors", c, dpt, d))
        if res.iterations > math.ceil(math.dist(c, dpt) / d) + 1:
            failures.append(("iterations", c, dpt, d))
        checked += 1
    report(9, not failures, f"100 random rainbow-segment walks return exact-distance rainbow pairs ({failures[:3]})")
