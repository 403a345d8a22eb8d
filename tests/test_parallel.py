"""Parallel search: forked workers must reproduce the sequential run exactly."""

import os
from functools import partial

import pytest

from gallaikit.graphs import search_good_edge_coloring
from gallaikit.search import (
    Outcome,
    SearchOptions,
    explore_subtrees,
    search_good_coloring,
    worker_count,
)


def outcome_key(out):
    return out.kind, out.witness, out.nodes_visited


def assert_hints_agree(search, **opts):
    plain = outcome_key(search(SearchOptions(**opts)))
    for hint in (2, 4):
        assert outcome_key(search(SearchOptions(worker_hint=hint, **opts))) == plain, hint
    return plain


def assert_no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "t, r, target, opts, kind",
    [
        (7, 3, "C4", {}, Outcome.EXHAUSTED),
        (8, 5, "C4", {}, Outcome.FOUND),
        (7, 3, "C4", {"node_budget": 5_000}, Outcome.BUDGET_EXCEEDED),
        # budget overrun while the parent lists the prefixes
        (7, 3, "C4", {"node_budget": 100}, Outcome.BUDGET_EXCEEDED),
        (6, 3, "C4", {"color_symmetry": False}, Outcome.FOUND),
        (7, 4, "P4", {"color_symmetry": False, "node_budget": 20_000}, Outcome.BUDGET_EXCEEDED),
    ],
)
def test_edge_engine_matches_sequential(t, r, target, opts, kind):
    plain = assert_hints_agree(lambda o: search_good_edge_coloring(t, r, target, o), **opts)
    assert plain[0] is kind
    assert_no_children_left()


def test_edge_engine_deferred_rainbow_check_matches_sequential():
    for t, target in ((6, "C4"), (7, "P4")):
        assert_hints_agree(lambda o: search_good_edge_coloring(t, 3, target, o, prune_rainbow=False))


@pytest.mark.parametrize(
    "n, m, r, opts, kind",
    [
        (4, 9, 3, {}, Outcome.FOUND),
        (4, 10, 3, {"node_budget": 50_000}, Outcome.BUDGET_EXCEEDED),
        (3, 7, 2, {}, Outcome.EXHAUSTED),
        (4, 6, 2, {"row_order_symmetry": False}, Outcome.FOUND),
        (3, 4, 3, {"color_symmetry": False, "row_order_symmetry": False}, Outcome.FOUND),
        (3, 7, 2, {"color_symmetry": False, "row_order_symmetry": False}, Outcome.EXHAUSTED),
    ],
)
def test_grid_engine_matches_sequential(n, m, r, opts, kind):
    plain = assert_hints_agree(lambda o: search_good_coloring(n, m, r, o), **opts)
    assert plain[0] is kind
    assert_no_children_left()


@pytest.mark.parametrize(
    "search, fixed",
    [
        (partial(search_good_edge_coloring, 7, 3, "P4"), {}),
        # the prefix listing alone counts more nodes than the witness's count
        (partial(search_good_edge_coloring, 5, 3, "C4"), {}),
        (partial(search_good_edge_coloring, 8, 5, "C4"), {}),
        (partial(search_good_edge_coloring, 6, 3, "C4"), {"color_symmetry": False}),
        (partial(search_good_coloring, 3, 4, 3), {}),
        (partial(search_good_coloring, 4, 9, 3), {}),
        (partial(search_good_coloring, 4, 6, 2), {"row_order_symmetry": False}),
    ],
)
def test_budget_boundary_matches_sequential(search, fixed):
    # A budget of exactly the sequential count must give the sequential verdict with
    # workers too, even when the prefix listing overruns it before the deciding
    # subtree is explored; one node less must give an overrun.
    plain = search(SearchOptions(**fixed))
    for budget, kind in ((plain.nodes_visited - 1, Outcome.BUDGET_EXCEEDED), (plain.nodes_visited, plain.kind)):
        assert assert_hints_agree(search, node_budget=budget, **fixed)[0] is kind, budget
    assert_no_children_left()


def test_worker_count_is_capped_by_cores_and_subtrees():
    assert worker_count(100_000, 2, 203) == 2
    assert worker_count(2, 64, 203) == 2
    assert worker_count(8, 16, 3) == 3
    assert worker_count(4, 4, 0) == 0


def test_worker_that_raises_makes_the_parent_raise():
    def explore(index, cap):
        if index == 1:
            raise ValueError("subtree 1 is broken")
        return 1, False, None

    with pytest.raises(RuntimeError, match="subtree 1 is broken"):
        explore_subtrees([0, 0, 0], 0, None, 2, explore)
    assert_no_children_left()


def test_worker_that_dies_makes_the_parent_raise():
    def explore(index, cap):
        os._exit(3)

    with pytest.raises(RuntimeError, match="without a result"):
        explore_subtrees([0, 0], 0, None, 2, explore)
    assert_no_children_left()


def test_results_commit_in_prefix_order():
    # prefix_nodes [1, 1, 2] and 3 prefix nodes in all; only subtree 2 holds a witness
    results = {0: (10, False, None), 1: (30, False, None), 2: (5, False, [7])}

    def explore(index, cap):
        return results[index]

    assert explore_subtrees([1, 1, 2], 3, None, 2, explore) == (Outcome.FOUND, 2 + 40 + 5, [7])
    assert explore_subtrees([1, 1, 2], 3, 40, 2, explore) == (Outcome.BUDGET_EXCEEDED, 41, None)
    assert explore_subtrees([1, 1, 2], 3, 46, 2, explore) == (Outcome.BUDGET_EXCEEDED, 47, None)
    assert explore_subtrees([1, 1, 2], 3, 47, 2, explore) == (Outcome.FOUND, 47, [7])
    assert_no_children_left()
