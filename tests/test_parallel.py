"""Parallel search: forked workers must reproduce the sequential run exactly."""

import os
from functools import partial

import pytest

from gallaikit import search as driver
from gallaikit.cli import run
from gallaikit.graphs import search_good_edge_coloring
from gallaikit.search import (
    Outcome,
    SearchOptions,
    explore_subtrees,
    search_good_coloring,
    worker_count,
)

# Most searches here end within the default probe and so fork nothing; a probe
# of 0 makes a hinted search fork from its first node.
PROBES = (driver.PROBE_NODES, 0)


def assert_hints_agree(search, **opts):
    plain = search(SearchOptions(**opts))
    for probe in PROBES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(driver, "PROBE_NODES", probe)
            for hint in (2, 4):
                assert search(SearchOptions(worker_hint=hint, **opts)) == plain, (probe, hint)
    return plain


def assert_no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "t, r, target, opts, kind",
    [
        (7, 3, "C4", {}, Outcome.EXHAUSTED),
        (8, 5, "C4", {}, Outcome.FOUND),
        (7, 3, "C4", {"node_budget": 2_000}, Outcome.BUDGET_EXCEEDED),
        # budget overrun while the parent lists the prefixes
        (7, 3, "C4", {"node_budget": 100}, Outcome.BUDGET_EXCEEDED),
        (6, 3, "C4", {}, Outcome.FOUND),
        (7, 4, "P4", {"node_budget": 600}, Outcome.BUDGET_EXCEEDED),
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
        # found in 25,843 nodes; with the probe at 0 the budget runs out inside the
        # forked subtrees
        (4, 11, 3, {"node_budget": 20_000}, Outcome.BUDGET_EXCEEDED),
        (3, 7, 2, {}, Outcome.EXHAUSTED),
        (4, 6, 2, {}, Outcome.FOUND),
        (3, 4, 3, {}, Outcome.FOUND),
        # a budget of exactly the node count
        (3, 7, 2, {"node_budget": 224}, Outcome.EXHAUSTED),
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
def test_roadmap_baselines_are_pinned(hint, monkeypatch):
    workers = [] if hint is None else ["--workers", str(hint)]
    for probe in PROBES:
        monkeypatch.setattr(driver, "PROBE_NODES", probe)
        assert run(["grid-search", "3", "7", "2", *workers]).summary == "outcome exhausted 3 7 2 nodes=224"
        out = search_good_edge_coloring(7, 3, "C4", SearchOptions(worker_hint=hint))
        assert (out.kind, out.nodes_visited) == (Outcome.EXHAUSTED, 2_259)
    assert_no_children_left()


def count_listings(monkeypatch):
    # the number of prefixes of each listing that backtrack hands to explore_subtrees
    listed = []

    def spy(prefix_nodes, *args):
        listed.append(len(prefix_nodes))
        return explore_subtrees(prefix_nodes, *args)

    monkeypatch.setattr(driver, "explore_subtrees", spy)
    return listed


@pytest.mark.parametrize(
    "search, nodes",
    [
        (partial(search_good_coloring, 3, 7, 2), 224),
        (partial(search_good_edge_coloring, 7, 3, "C4"), 2_259),
    ],
)
def test_every_probe_gives_the_sequential_outcome(search, nodes, monkeypatch):
    # The probe may run out anywhere in the walk, at the search's last node or after
    # it, and below, at or above the budget; the walk then lists what is left.
    listed = count_listings(monkeypatch)
    plain = {budget: search(SearchOptions(node_budget=budget)) for budget in (None, nodes - 1, nodes)}
    assert plain[None].nodes_visited == nodes
    probes = set(range(0, nodes + 2, nodes // 20)) | {0, 1, nodes - 2, nodes - 1, nodes, nodes + 1}
    for probe in sorted(probes):
        monkeypatch.setattr(driver, "PROBE_NODES", probe)
        for budget, want in plain.items():
            assert search(SearchOptions(node_budget=budget, worker_hint=2)) == want, (probe, budget)
            assert_no_children_left()
    # the sweep lists a single subtree, which a forked worker explores too, and many
    assert 1 in listed and max(listed) > 1


def refuse_fork():
    raise AssertionError("a search forked")


@pytest.mark.parametrize(
    "search, opts",
    [
        (partial(search_good_edge_coloring, 9, 6, "P4"), {}),
        (partial(search_good_edge_coloring, 8, 5, "C4"), {}),
        # 4 x 12 r=3 takes 161,823 nodes, but a budget within the probe stops it first
        (partial(search_good_coloring, 4, 12, 3), {"node_budget": driver.PROBE_NODES}),
        # 4 x 10 r=3 is found in 5,657 nodes
        (partial(search_good_coloring, 4, 10, 3), {}),
        # K8 C4 r=4 exhausts in 21,569 nodes and K10 P4 r=7 in 21,375; both ran
        # slower forked than in one process (the probe sweep in CHANGES.md)
        (partial(search_good_edge_coloring, 8, 4, "C4"), {}),
        (partial(search_good_edge_coloring, 10, 7, "P4"), {}),
        # 4 x 11 r=3 is found in 25,843 nodes
        (partial(search_good_coloring, 4, 11, 3), {}),
    ],
)
def test_searches_within_the_probe_never_fork(search, opts, monkeypatch):
    plain = search(SearchOptions(**opts))
    assert plain.nodes_visited <= driver.PROBE_NODES + 1
    monkeypatch.setattr(driver, "_usable_cores", lambda: 2)
    monkeypatch.setattr(os, "fork", refuse_fork)
    assert search(SearchOptions(worker_hint=2, **opts)) == plain


def test_a_search_past_the_probe_forks(monkeypatch):
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(driver, "_usable_cores", lambda: 2)
    monkeypatch.setattr(os, "fork", counting_fork)
    out = search_good_coloring(4, 12, 3, SearchOptions(worker_hint=2))
    assert (out.kind, out.nodes_visited) == (Outcome.FOUND, 161_823)
    assert out == search_good_coloring(4, 12, 3)
    assert len(forks) == 2
    assert_no_children_left()


def test_worker_count_caps_the_hint_at_the_usable_cores(monkeypatch):
    monkeypatch.setattr(driver, "_usable_cores", lambda: 2)
    assert worker_count(None) == 0
    assert worker_count(1) == 0
    assert worker_count(2) == 2
    assert worker_count(100_000) == 2
    monkeypatch.setattr(driver, "_usable_cores", lambda: 64)
    assert worker_count(3) == 3
    # one usable core, or no fork, gives no worker whatever the hint
    monkeypatch.setattr(driver, "_usable_cores", lambda: 1)
    assert worker_count(100_000) == 0
    monkeypatch.setattr(driver, "_usable_cores", lambda: 2)
    monkeypatch.delattr(os, "fork")
    assert worker_count(100_000) == 0


def test_no_workers_is_an_error(monkeypatch):
    # with no worker, nothing would ever send the result that select waits for
    monkeypatch.setattr(os, "fork", refuse_fork)
    for workers in (0, -1):
        with pytest.raises(ValueError, match="at least one worker"):
            explore_subtrees([0], 0, None, workers, found_in_subtree_one)


def test_a_single_subtree_runs_in_a_worker():
    def explore(index, cap):
        return (4, False, [os.getpid()]) if cap is None else (cap + 1, True, None)

    kind, nodes, witness = explore_subtrees([3], 5, None, 2, explore)
    assert (kind, nodes) == (Outcome.FOUND, 3 + 4) and witness != [os.getpid()]
    assert explore_subtrees([3], 5, 20, 2, explore) == (Outcome.BUDGET_EXCEEDED, 21, None)
    assert explore_subtrees([3], 5, None, 2, lambda index, cap: (6, False, None)) == (Outcome.EXHAUSTED, 11, None)
    assert_no_children_left()


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
