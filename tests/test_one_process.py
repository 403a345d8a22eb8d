"""Worker hints are ignored: every search runs in this process and gives the hint-free result."""

import os
from functools import partial

import pytest

from gallaikit.cli import run
from gallaikit.graphs import search_good_edge_coloring
from gallaikit.search import Outcome, SearchOptions, SearchOutcome, search_good_coloring


@pytest.fixture
def no_fork(monkeypatch):
    def refuse_fork():
        raise AssertionError("a search forked")

    monkeypatch.setattr(os, "fork", refuse_fork)


def assert_hints_agree(search, **opts):
    plain = search(SearchOptions(**opts))
    for hint in (1, 2, 4):
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
        # K7 C4 r=3 exhausts in 699 nodes and K7 P4 r=4 in 560, so these budgets
        # stop each walk late in its tree
        (7, 3, "C4", {"node_budget": 600}, Outcome.BUDGET_EXCEEDED),
        (7, 3, "C4", {"node_budget": 100}, Outcome.BUDGET_EXCEEDED),
        (6, 3, "C4", {}, Outcome.FOUND),
        (7, 4, "P4", {"node_budget": 500}, Outcome.BUDGET_EXCEEDED),
    ],
)
def test_edge_engine_ignores_the_hint(t, r, target, opts, kind, no_fork):
    plain = assert_hints_agree(partial(search_good_edge_coloring, t, r, target), **opts)
    assert plain.kind is kind


@pytest.mark.parametrize(
    "n, m, r, opts, kind",
    [
        (4, 9, 3, {}, Outcome.FOUND),
        # found in 7,870 nodes, so a budget of 5,000 stops it
        (4, 11, 3, {"node_budget": 5_000}, Outcome.BUDGET_EXCEEDED),
        (3, 7, 2, {}, Outcome.EXHAUSTED),
        (4, 6, 2, {}, Outcome.FOUND),
        (3, 4, 3, {}, Outcome.FOUND),
        # a budget of exactly the node count
        (3, 7, 2, {"node_budget": 137}, Outcome.EXHAUSTED),
    ],
)
def test_grid_engine_ignores_the_hint(n, m, r, opts, kind, no_fork):
    plain = assert_hints_agree(partial(search_good_coloring, n, m, r), **opts)
    assert plain.kind is kind


BOUNDARY_SEARCHES = [
    partial(search_good_edge_coloring, 7, 3, "P4"),
    partial(search_good_edge_coloring, 5, 3, "C4"),
    partial(search_good_edge_coloring, 8, 5, "C4"),
    partial(search_good_edge_coloring, 6, 3, "C4"),
    partial(search_good_coloring, 3, 4, 3),
    partial(search_good_coloring, 4, 9, 3),
    partial(search_good_coloring, 4, 6, 2),
]


@pytest.mark.parametrize("search", BOUNDARY_SEARCHES)
def test_budget_boundary(search, no_fork):
    # a budget of exactly the node count gives the verdict; one node less stops
    # at the last node, with every hint
    plain = search()
    nodes = plain.nodes_visited
    assert assert_hints_agree(search, node_budget=nodes) == plain
    assert assert_hints_agree(search, node_budget=nodes - 1) == SearchOutcome(Outcome.BUDGET_EXCEEDED, None, nodes)


@pytest.mark.parametrize("hint", [None, 2])
def test_roadmap_baselines_are_pinned(hint, no_fork):
    workers = [] if hint is None else ["--workers", str(hint)]
    assert run(["grid-search", "3", "7", "2", *workers]).summary == "outcome exhausted 3 7 2 nodes=137"
    out = search_good_edge_coloring(7, 3, "C4", SearchOptions(worker_hint=hint))
    assert (out.kind, out.nodes_visited) == (Outcome.EXHAUSTED, 699)


@pytest.mark.parametrize(
    "search, nodes",
    [
        (partial(search_good_coloring, 3, 7, 2), 137),
        (partial(search_good_coloring, 4, 6, 2), None),
        (partial(search_good_coloring, 3, 4, 3), None),
        (partial(search_good_edge_coloring, 7, 3, "C4"), 699),
        (partial(search_good_edge_coloring, 6, 3, "C4"), None),
        (partial(search_good_edge_coloring, 7, 4, "P4"), 560),
    ],
)
def test_every_budget_stops_the_one_walk_in_order(search, nodes, no_fork):
    # the walk visits its nodes in one order whatever the budget: a budget b below
    # the node count stops at node b + 1, and any budget from the count up gives
    # the unbudgeted result
    plain = search()
    if nodes is not None:
        assert plain.nodes_visited == nodes
    nodes = plain.nodes_visited
    budgets = set(range(1, nodes + 2, max(1, nodes // 40))) | {1, 2, nodes - 2, nodes - 1, nodes, nodes + 1}
    for budget in sorted(b for b in budgets if b >= 1):
        want = plain if budget >= nodes else SearchOutcome(Outcome.BUDGET_EXCEEDED, None, budget + 1)
        assert search(SearchOptions(node_budget=budget, worker_hint=2)) == want, budget


@pytest.mark.parametrize(
    "search, opts",
    [
        (partial(search_good_edge_coloring, 9, 6, "P4"), {}),
        (partial(search_good_edge_coloring, 8, 5, "C4"), {}),
        (partial(search_good_coloring, 4, 12, 3), {"node_budget": 50_000}),
        (partial(search_good_coloring, 4, 10, 3), {}),
        (partial(search_good_edge_coloring, 8, 4, "C4"), {}),
        (partial(search_good_edge_coloring, 10, 7, "P4"), {}),
        (partial(search_good_coloring, 4, 11, 3), {}),
    ],
)
def test_hinted_searches_never_fork(search, opts, no_fork):
    assert search(SearchOptions(worker_hint=2, **opts)) == search(SearchOptions(**opts))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
@pytest.mark.parametrize(
    "search, opts",
    [
        (partial(search_good_coloring, 4, 9, 3), {}),
        (partial(search_good_edge_coloring, 7, 3, "C4"), {}),
        (partial(search_good_edge_coloring, 7, 3, "C4"), {"node_budget": 100}),
    ],
)
def test_a_hinted_search_opens_no_descriptor_and_leaves_no_child(search, opts):
    before = len(os.listdir("/proc/self/fd"))
    search(SearchOptions(worker_hint=4, **opts))
    assert len(os.listdir("/proc/self/fd")) == before
    assert_no_children_left()


@pytest.mark.parametrize(
    "argv",
    [
        ["grid-search", "3", "7", "2"],
        ["grid-search", "4", "6", "2"],
        ["grid-search", "3", "7", "2", "--budget", "100"],
        ["gr-search", "c4", "3"],
        ["gr-search", "p4", "4"],
    ],
)
def test_workers_flag_is_accepted_and_ignored(argv, no_fork):
    plain = run(argv)
    for workers in ("1", "2", "64"):
        assert run([*argv, "--workers", workers]) == plain, workers


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_nonpositive_workers_exit_two(workers):
    result = run(["grid-search", "3", "3", "3", "--workers", workers])
    assert (result.exit_code, result.summary) == (2, "error: worker_hint must be positive")
