"""Parallel search: forked workers must reproduce the sequential run exactly."""

import os
from functools import partial

import pytest

from gallaikit.cli import run
from gallaikit.graphs import search_good_edge_coloring
from gallaikit.search import (
    Outcome,
    SearchOptions,
    explore_subtrees,
    search_good_coloring,
    worker_count,
)


def assert_hints_agree(search, **opts):
    plain = search(SearchOptions(**opts))
    for hint in (2, 4):
        assert search(SearchOptions(worker_hint=hint, **opts)) == plain, hint
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
        (6, 3, "C4", {}, Outcome.FOUND),
        (7, 4, "P4", {"node_budget": 5_000}, Outcome.BUDGET_EXCEEDED),
    ],
)
def test_edge_engine_matches_sequential(t, r, target, opts, kind):
    plain = assert_hints_agree(lambda o: search_good_edge_coloring(t, r, target, o), **opts)
    assert plain.kind is kind
    assert_no_children_left()


@pytest.mark.parametrize(
    "n, m, r, opts, kind",
    [
        (4, 9, 3, {}, Outcome.FOUND),
        (4, 10, 3, {"node_budget": 50_000}, Outcome.BUDGET_EXCEEDED),
        (3, 7, 2, {}, Outcome.EXHAUSTED),
        (4, 6, 2, {}, Outcome.FOUND),
        (3, 4, 3, {}, Outcome.FOUND),
        # a budget of exactly the node count
        (3, 7, 2, {"node_budget": 16_567}, Outcome.EXHAUSTED),
    ],
)
def test_grid_engine_matches_sequential(n, m, r, opts, kind):
    plain = assert_hints_agree(lambda o: search_good_coloring(n, m, r, o), **opts)
    assert plain.kind is kind
    assert_no_children_left()


@pytest.mark.parametrize(
    "search, fixed",
    [
        (partial(search_good_edge_coloring, 7, 3, "P4"), {}),
        # the prefix listing alone counts more nodes than the witness's count
        (partial(search_good_edge_coloring, 5, 3, "C4"), {}),
        (partial(search_good_edge_coloring, 8, 5, "C4"), {}),
        (partial(search_good_edge_coloring, 6, 3, "C4"), {}),
        (partial(search_good_coloring, 3, 4, 3), {}),
        (partial(search_good_coloring, 4, 9, 3), {}),
        (partial(search_good_coloring, 4, 6, 2), {}),
    ],
)
def test_budget_boundary_matches_sequential(search, fixed):
    # A budget of exactly the sequential count must give the sequential verdict with
    # workers too, even when the prefix listing overruns it before the deciding
    # subtree is explored; one node less must give an overrun.
    plain = search(SearchOptions(**fixed))
    for budget, kind in ((plain.nodes_visited - 1, Outcome.BUDGET_EXCEEDED), (plain.nodes_visited, plain.kind)):
        assert assert_hints_agree(search, node_budget=budget, **fixed).kind is kind, budget
    assert_no_children_left()


@pytest.mark.parametrize("hint", [None, 2])
def test_roadmap_baselines_are_pinned(hint):
    workers = [] if hint is None else ["--workers", str(hint)]
    assert run(["grid-search", "3", "7", "2", *workers]).summary == "outcome exhausted 3 7 2 nodes=16567"
    out = search_good_edge_coloring(7, 3, "C4", SearchOptions(worker_hint=hint))
    assert (out.kind, out.nodes_visited) == (Outcome.EXHAUSTED, 199_125)
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


def test_result_larger_than_the_pipe_buffer_commits():
    # about 1 MB of marshal data, far more than a pipe buffers
    witness = list(range(200_000))

    def explore(index, cap):
        return (5, False, witness) if index == 1 else (3, False, None)

    assert explore_subtrees([1, 1, 2], 3, None, 2, explore) == (Outcome.FOUND, 1 + 3 + 5, witness)
    assert_no_children_left()


def found_in_subtree_one(index, cap):
    return 1, False, [index] if index == 1 else None


def broken_subtree(index, cap):
    raise ValueError("subtree is broken")


def dead_worker(index, cap):
    os._exit(3)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
# a pipe file left open warns as it is collected, and the warning is unraisable there
@pytest.mark.filterwarnings("error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")
@pytest.mark.parametrize(
    "explore, error",
    [(found_in_subtree_one, None), (broken_subtree, "subtree is broken"), (dead_worker, "without a result")],
)
def test_every_exit_closes_the_pipes(explore, error):
    before = len(os.listdir("/proc/self/fd"))
    if error is None:
        assert explore_subtrees([0, 0, 0], 0, None, 2, explore) == (Outcome.FOUND, 2, [1])
    else:
        with pytest.raises(RuntimeError, match=error):
            explore_subtrees([0, 0, 0], 0, None, 2, explore)
    assert len(os.listdir("/proc/self/fd")) == before
    assert_no_children_left()
