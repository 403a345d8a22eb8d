"""Both engines against a plain recursive reference search: verdict, witness and node count."""

from itertools import combinations_with_replacement, product

import pytest

from gallaikit.graphs import search_good_edge_coloring
from gallaikit.grid import GridColoring
from gallaikit.search import SearchOptions, _matching_bounds, search_good_coloring

from oracles import naive_hall_fails, naive_is_good, reference_edge_search, reference_grid_search

GRIDS = [(n, m) for n in range(1, 13) for m in range(1, 12 // n + 1)]


def flat_grid(out):
    return None if out.witness is None else [c for row in out.witness.cells for c in row]


def flat_edges(out):
    # the witness's colors in the edge engine's slot order, vertex by vertex (colex)
    ec = out.witness
    return None if ec is None else [ec.color(u, v) for v in range(2, ec.t + 1) for u in range(1, v)]


def assert_agrees_at_every_budget(engine, reference, flatten, label):
    # no budget, a budget of exactly the node count, and one node less
    kind, colors, nodes = reference(None)
    for budget in (None, nodes, nodes - 1):
        if budget == 0:
            continue
        want = reference(budget)
        out = engine(budget)
        assert (out.kind.value, flatten(out), out.nodes_visited) == want, (label, budget)
    return kind, colors  # the unbudgeted verdict and witness


# The engines always apply their symmetry reductions, and the grid engine its
# matching bounds at row starts and at completed columns, so their counts are
# pinned against the reference with all of them.  The parameters choose the
# reductions of a second reference run without either bound, which must give the
# same verdict and witness: the least good coloring of all is the least member of
# its orbit, so no reduction skips it, and the bounds reject only prefixes that no
# good coloring extends.
# A test id names the color and row flags, and ends in -cols when columns are sorted.
REDUCTIONS = [
    pytest.param(*flags, id=f"{flags[0]}-{flags[1]}" + ("-cols" if flags[2] else ""))
    for flags in product((True, False), repeat=3)
]


@pytest.mark.parametrize("color_symmetry, row_order_symmetry, col_order_symmetry", REDUCTIONS)
def test_grid_engine_matches_reference(color_symmetry, row_order_symmetry, col_order_symmetry):
    kinds = set()
    for (n, m), r in product(GRIDS, range(1, 5)):

        def engine(budget):
            return search_good_coloring(n, m, r, SearchOptions(budget))

        def reference(budget):
            return reference_grid_search(n, m, r, True, True, True, budget, row_matching=True, column_count=True)

        want = assert_agrees_at_every_budget(engine, reference, flat_grid, (n, m, r))
        second = reference_grid_search(n, m, r, color_symmetry, row_order_symmetry, col_order_symmetry, None)
        assert second[:2] == want, (n, m, r)
        kinds.add(want[0])
    assert kinds == {"found", "exhausted"}


@pytest.mark.parametrize("color_symmetry, row_order_symmetry, col_order_symmetry", REDUCTIONS)
def test_grid_engine_matches_reference_where_rainbows_prune(color_symmetry, row_order_symmetry, col_order_symmetry):
    # past 12 cells, rainbow rectangles reject colors that the first witness needs.
    # With five colors or more, one pair state can hold several pairs that avoid b,
    # and on 6 x 8 r=5 and 7 x 9 r=6 the engine must intersect all of them: keeping
    # only the first one costs 391 and 1,027 nodes more (1,486 against 1,095, and
    # 3,194 against 2,167).
    grids = ((4, 5, 4), (5, 5, 4), (5, 6, 4), (6, 6, 4), (4, 6, 5), (5, 5, 5), (5, 6, 6), (6, 5, 5), (6, 8, 5), (7, 9, 6))
    for n, m, r in grids:

        def engine(budget):
            return search_good_coloring(n, m, r, SearchOptions(budget))

        def reference(budget):
            return reference_grid_search(n, m, r, True, True, True, budget, row_matching=True, column_count=True)

        want = assert_agrees_at_every_budget(engine, reference, flat_grid, (n, m, r))
        second = reference_grid_search(n, m, r, color_symmetry, row_order_symmetry, col_order_symmetry, None)
        assert second[:2] == want, (n, m, r)


@pytest.mark.parametrize("rows, m, r", [(1, 3, 1), (2, 4, 2), (2, 6, 2), (3, 4, 3)])
def test_row_start_bound_rejects_only_dead_prefixes(rows, m, r):
    # Every good rows x m coloring, up to the order of its columns, as the rows above a
    # row start: the engine's matching bound and the oracle's subset test agree, and
    # when they reject, no next row makes a good coloring.
    res, tests = _matching_bounds(rows + 1, m, r)
    start = rows * m  # the slot of cell (rows, 0)
    rejected = 0
    for cols in combinations_with_replacement(product(range(1, r + 1), repeat=rows), m):
        above = [list(row) for row in zip(*cols)]
        if not naive_is_good(GridColoring(rows, m, r, above)):
            continue
        # the engine's resource masks: bit c*n + k for cell (k, j) of color c, n = rows + 1
        res[:] = [sum(1 << (c * (rows + 1) + k) for k, c in enumerate(col)) for col in cols]
        blocked = naive_hall_fails(above, r)
        assert tests[start](start) is not blocked, above
        if blocked:
            rejected += 1
            for row in product(range(1, r + 1), repeat=m):
                assert not naive_is_good(GridColoring(rows + 1, m, r, above + [list(row)])), (above, row)
    assert rejected


@pytest.mark.parametrize("rows, m, r", [(1, 3, 1), (2, 4, 2), (2, 6, 2), (3, 5, 3)])
def test_column_count_bound_rejects_only_dead_prefixes(rows, m, r):
    # Rows 0..i, i = rows - 1, of a rows + 1 by m grid.  The count tests of row i
    # read only columns 0..m-2, so every good coloring of those columns, up to their
    # order, stands for every good rows x m one.  At each cell (i, j), j >= 1, the
    # engine's count test over columns 0..j-1 agrees with a direct count, and when it
    # rejects, no next row of j cells makes those columns good, nor any of m cells.
    n = rows + 1
    res, tests = _matching_bounds(n, m, r)
    rejected = 0
    for cols in combinations_with_replacement(product(range(1, r + 1), repeat=rows), m - 1):
        above = [list(row) for row in zip(*cols)]
        if not naive_is_good(GridColoring(rows, m - 1, r, above)):
            continue
        # the engine's resource masks: bit c*n + k for cell (k, j) of color c
        res[:-1] = [sum(1 << (c * n + k) for k, c in enumerate(col)) for col in cols]
        for j in range(1, m):
            full = [col for col in cols[:j] if set(col) == set(range(1, r + 1))]
            blocked = len({(k, c) for col in full for k, c in enumerate(col)}) < len(full)
            pos = (rows - 1) * m + j
            assert tests[pos](pos) is not blocked, (above, j)
            if blocked:
                rejected += 1
                left = [row[:j] for row in above]
                for row in product(range(1, r + 1), repeat=j):
                    assert not naive_is_good(GridColoring(n, j, r, left + [list(row)])), (above, j, row)
                break  # as in the engine, no test of the row runs after a rejection
    assert rejected


# As for the grid, the engine is pinned against the reference with every reduction,
# and a second reference run with the chosen ones must give its verdict and witness.
@pytest.mark.parametrize(
    "target, color_symmetry, vertex_symmetry", list(product(("C4", "P4"), (True, False), (True, False)))
)
def test_edge_engine_matches_reference(target, color_symmetry, vertex_symmetry):
    kinds = set()
    for t, r in product(range(3, 7), range(1, 5)):

        def engine(budget):
            return search_good_edge_coloring(t, r, target, SearchOptions(budget))

        def reference(budget):
            return reference_edge_search(t, r, target, True, True, budget)

        want = assert_agrees_at_every_budget(engine, reference, flat_edges, (t, r))
        assert reference_edge_search(t, r, target, color_symmetry, vertex_symmetry, None)[:2] == want, (t, r)
        kinds.add(want[0])
    assert kinds == {"found", "exhausted"}


@pytest.mark.parametrize(
    "t, r, target, kind, nodes",
    [
        (7, 4, "C4", "found", 319),
        (7, 4, "P4", "exhausted", 560),
        (7, 3, "C4", "exhausted", 699),
        (8, 5, "C4", "found", 980),
    ],
)
def test_edge_engine_matches_reference_past_six_vertices(t, r, target, kind, nodes):
    # on K7 with four colors most edge visits have a split neighbour, so the
    # rainbow test narrows the colors before the target test sees them
    def engine(budget):
        return search_good_edge_coloring(t, r, target, SearchOptions(budget))

    def reference(budget):
        return reference_edge_search(t, r, target, True, True, budget)

    assert assert_agrees_at_every_budget(engine, reference, flat_edges, (t, r))[0] == kind
    assert engine(None).nodes_visited == nodes


def test_reference_counts_by_hand():
    # K4 with one color: edges (1,2), (1,3), (2,3) form a triangle, not a P4, and
    # the fourth edge (1,4) closes 4-1-2-3, so the search exhausts after 4 nodes
    assert reference_edge_search(4, 1, "P4", True, True, None) == ("exhausted", None, 4)
    # 2x2 with one color: the fourth cell closes the only rectangle
    assert reference_grid_search(2, 2, 1, True, True, True, None) == ("exhausted", None, 4)
