"""Exhaustive backtracking search for good grid colorings.

The engine assigns cells in row-major order and prunes as soon as the newly
assigned cell completes a monochromatic or rainbow rectangle with earlier
cells.  Two optional symmetry reductions quotient the search space without
changing the Found/Exhausted verdict: first-use color numbering and
lexicographically nondecreasing rows.
"""

from __future__ import annotations

import marshal
import os
import sys
import time
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Sequence

from .grid import (
    CertificateError,
    GridColoring,
    format_grid_certificate,
    parse_grid_certificate,
    verify_good,
)


class Outcome(Enum):
    FOUND = "found"
    EXHAUSTED = "exhausted"
    BUDGET_EXCEEDED = "budget"


@dataclass(frozen=True)
class SearchOptions:
    """Engine knobs shared by the grid and complete-graph searches.

    node_budget caps the number of decision nodes (tentative color
    assignments).  worker_hint is the number of worker processes a search
    may fork, capped at the usable cores; with two or more, the tree is cut
    at a fixed depth and the subtrees below the cut are explored in
    parallel.  Verdicts, witnesses and nodes_visited never depend on it.
    row_order_symmetry has no effect on graph searches.
    """

    node_budget: int | None = None
    color_symmetry: bool = True
    row_order_symmetry: bool = True
    worker_hint: int | None = None

    def __post_init__(self) -> None:
        if self.node_budget is not None and self.node_budget < 1:
            raise ValueError("node_budget must be positive")
        if self.worker_hint is not None and self.worker_hint < 1:
            raise ValueError("worker_hint must be positive")


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a search: verdict, optional verified witness, and effort counters.

    elapsed is wall-clock seconds and is the one field that varies between
    otherwise identical runs.
    """

    kind: Outcome
    witness: GridColoring | None
    nodes_visited: int
    elapsed: float

    def __post_init__(self) -> None:
        if (self.witness is not None) != (self.kind is Outcome.FOUND):
            raise ValueError("witness must be present exactly for Found outcomes")


class _BudgetHit(Exception):
    pass


# Depth at which a parallel search cuts its tree into subtrees.  With
# first-use colors there are at most Bell(6) = 203 prefixes at depth 6.
SPLIT_DEPTH = 6
# Results commit in prefix order, so the first subtrees decide a Found or a
# budget verdict.  The first LEAD_PREFIXES prefixes are therefore cut deeper,
# at LEAD_DEPTH, and the cut rises back to SPLIT_DEPTH as the listing
# backtracks, so that the workers share the front of the order.
LEAD_DEPTH = 10
LEAD_PREFIXES = 16


def first_cut(opts: SearchOptions, slots: int) -> int:
    """Depth of the first cut of a search over `slots` decisions; `slots` means no cut.

    A cut below `slots` makes the search list its prefixes and explore the
    subtrees below them in workers.
    """
    hint = opts.worker_hint
    if hint is None or hint < 2 or slots <= SPLIT_DEPTH:
        return slots
    if not hasattr(os, "fork") or _usable_cores() < 2:
        return slots
    return min(LEAD_DEPTH, slots - 1)


def worker_count(hint: int, cores: int, prefixes: int) -> int:
    """Worker processes to fork: at most the hint, the usable cores and the subtrees."""
    return min(hint, cores, prefixes)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _send(fd: int, obj: Any) -> None:
    data = marshal.dumps(obj)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _read_exact(fd: int, size: int) -> bytes:
    buf = bytearray()
    while len(buf) < size:
        chunk = os.read(fd, size - len(buf))
        if not chunk:
            raise EOFError
        buf += chunk
    return bytes(buf)


def _recv(fd: int) -> Any:
    size = int.from_bytes(_read_exact(fd, 8), "little")
    return marshal.loads(_read_exact(fd, size))


def _worker_loop(task_fd: int, result_fd: int, explore: Callable[[int, int | None], tuple]) -> None:
    # Runs in a forked child until the parent closes the task pipe or kills it.
    try:
        while True:
            try:
                index, cap = _recv(task_fd)
            except EOFError:
                break
            try:
                result: Any = explore(index, cap)
            except Exception as exc:
                result = f"{type(exc).__name__}: {exc}"
            _send(result_fd, result)
    finally:
        os._exit(0)


def explore_subtrees(
    prefix_nodes: Sequence[int],
    nodes: int,
    budget: int | None,
    hint: int,
    explore: Callable[[int, int | None], tuple[int, bool, Any]],
) -> tuple[Outcome, int, Any]:
    """Explore the subtrees below a list of search prefixes in forked workers.

    prefix_nodes[i] is the node count a sequential run has reached on
    entering subtree i, not counting the nodes of earlier subtrees; nodes
    is the count after the whole prefix enumeration, or budget + 1 when
    the enumeration overran the budget and listed only some prefixes.
    explore(i, cap) runs in a worker, which inherits the prefixes through
    the fork.  It searches subtree i with at most cap nodes (no cap when
    None) and returns (nodes spent, whether the cap was hit, witness or
    None); the witness must be marshal-able.

    Results are committed in prefix order, so the returned (verdict,
    nodes_visited, witness) is the one a sequential run gives: the first
    witness in prefix order wins, and a budget overrun reports budget + 1
    nodes.  It forks worker_count(hint, usable cores, prefixes) workers,
    and kills and reaps every one before it returns or raises.  A worker
    that raises makes this raise RuntimeError.
    """
    # select and signal are imported here so that sequential runs never load them
    import select
    import signal

    count = len(prefix_nodes)
    results: dict[int, tuple[int, bool, Any]] = {}
    committed = 0  # subtrees committed, in prefix order
    spent = 0  # nodes of the committed subtrees
    cutoff = count  # a subtree at or past this index cannot change the result
    next_task = 0
    pids: list[int] = []
    channels: list[tuple[int, int]] = []  # (task fd, result fd) per worker
    busy: dict[int, tuple[tuple[int, int], int]] = {}  # result fd -> (channel, subtree)
    try:
        for _ in range(worker_count(hint, _usable_cores(), count)):
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                # keep only this worker's own ends, so that no pipe outlives the parent
                for fd in (task_w, result_r, *(fd for channel in channels for fd in channel)):
                    os.close(fd)
                _worker_loop(task_r, result_w, explore)
            pids.append(pid)
            os.close(task_r)
            os.close(result_w)
            channels.append((task_w, result_r))
        idle = channels[::-1]
        while committed < count:
            while idle and next_task < cutoff:
                channel = idle.pop()
                cap = None if budget is None else budget - prefix_nodes[next_task] - spent
                _send(channel[0], (next_task, cap))
                busy[channel[1]] = (channel, next_task)
                next_task += 1
            ready, _, _ = select.select(list(busy), [], [])
            for result_r in ready:
                channel, index = busy.pop(result_r)
                idle.append(channel)
                try:
                    result = _recv(result_r)
                except EOFError:
                    raise RuntimeError("search worker exited without a result") from None
                if isinstance(result, str):
                    raise RuntimeError(f"search worker failed: {result}")
                results[index] = result
                if result[1] or result[2] is not None:
                    cutoff = min(cutoff, index + 1)
            while committed in results:
                sub_nodes, hit, witness = results.pop(committed)
                reached = prefix_nodes[committed] + spent + sub_nodes
                if budget is not None and (hit or reached > budget):
                    return Outcome.BUDGET_EXCEEDED, budget + 1, None
                if witness is not None:
                    return Outcome.FOUND, reached, witness
                spent += sub_nodes
                committed += 1
        total = nodes + spent
        if budget is not None and total > budget:
            return Outcome.BUDGET_EXCEEDED, budget + 1, None
        return Outcome.EXHAUSTED, total, None
    finally:
        for task_w, result_r in channels:
            os.close(task_w)
            os.close(result_r)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)


def search_good_coloring(n: int, m: int, r: int, opts: SearchOptions | None = None) -> SearchOutcome:
    """Find a good n x m r-coloring or prove by exhaustion that none exists.

    Returns Found with the lexicographically least witness in the
    symmetry-reduced space, Exhausted after complete traversal, or
    BudgetExceeded once opts.node_budget decision nodes have been spent.
    Given fixed options the result is deterministic.
    """
    if opts is None:
        opts = SearchOptions()
    if n < 1 or m < 1 or r < 1:
        raise ValueError(f"n, m, r must be positive, got {(n, m, r)}")
    start = time.perf_counter()
    total = n * m
    if total + 100 > sys.getrecursionlimit():
        sys.setrecursionlimit(total + 1000)

    cells = [[0] * m for _ in range(n)]
    # ge[i]: row i is already strictly greater than row i-1 on the filled prefix
    ge = [False] * n
    budget = opts.node_budget
    color_sym = opts.color_symmetry
    row_sym = opts.row_order_symmetry
    rainbow_possible = r >= 4
    nodes = 0
    witness: GridColoring | None = None
    # `stop` is the full depth, or the next cut depth (see first_cut) while a
    # parallel run lists its prefixes: (colors, max_used, ge, nodes so far)
    stop = first_cut(opts, total)
    prefixes: list[tuple[list[int], int, list[bool], int]] = []

    def completes_bad(i: int, j: int, c: int) -> bool:
        # does assigning color c at (i, j) finish a mono or rainbow rectangle?
        row_i = cells[i]
        for i2 in range(i):
            row2 = cells[i2]
            b = row2[j]
            mono = b == c
            if not mono and not rainbow_possible:
                continue
            for j2 in range(j):
                a = row2[j2]
                d = row_i[j2]
                if mono and a == c and d == c:
                    return True
                if rainbow_possible and a != b and a != d and a != c and b != d and b != c and d != c:
                    return True
        return False

    def at_stop(pos: int, max_used: int) -> bool:
        # a leaf, or a cut while the prefixes of a parallel run are listed.  Kept
        # out of descend so that its recursion frames do not grow.
        nonlocal witness, stop
        if pos == total:
            witness = GridColoring(n, m, r, [row[:] for row in cells])
            return True
        prefix = [cells[p // m][p % m] for p in range(pos)]
        prefixes.append((prefix, max_used, ge[:], nodes))
        if len(prefixes) == LEAD_PREFIXES:
            stop = SPLIT_DEPTH
        return False

    def descend(pos: int, max_used: int) -> bool:
        nonlocal nodes
        if pos >= stop:
            return at_stop(pos, max_used)
        i, j = divmod(pos, m)
        hi = min(r, max_used + 1) if color_sym else r
        lo = 1
        prev = 0
        tie = False
        if row_sym and i > 0 and not ge[i]:
            prev = cells[i - 1][j]
            lo = prev
            tie = True
        for c in range(lo, hi + 1):
            nodes += 1
            if budget is not None and nodes > budget:
                raise _BudgetHit
            if completes_bad(i, j, c):
                continue
            cells[i][j] = c
            bumped = tie and c > prev
            if bumped:
                ge[i] = True
            if descend(pos + 1, c if c > max_used else max_used):
                return True
            if bumped:
                ge[i] = False
            cells[i][j] = 0
        return False

    def explore(index: int, cap: int | None) -> tuple[int, bool, Any]:
        # runs in a worker: search the subtree below prefixes[index]
        nonlocal nodes, budget, stop
        prefix, max_used, flags, _ = prefixes[index]
        for row in cells:
            row[:] = [0] * m
        for p, c in enumerate(prefix):
            cells[p // m][p % m] = c
        ge[:] = flags
        nodes, budget, stop = 0, cap, total
        try:
            found = descend(len(prefix), max_used)
        except _BudgetHit:
            return nodes, True, None
        return nodes, False, witness.cells if found else None

    try:
        found = descend(0, 0)
    except _BudgetHit:
        if stop == total:
            return SearchOutcome(Outcome.BUDGET_EXCEEDED, None, nodes, time.perf_counter() - start)
        # The prefix listing overran the budget.  A sequential run still reaches
        # the subtrees listed so far, and one of them may hold a witness within
        # budget; with nodes = budget + 1, explore_subtrees reports an overrun
        # otherwise.
        found = False
    if stop < total:
        prefix_nodes = [p[3] for p in prefixes]
        kind, nodes, grid = explore_subtrees(prefix_nodes, nodes, budget, opts.worker_hint, explore)
        if kind is Outcome.BUDGET_EXCEEDED:
            return SearchOutcome(kind, None, nodes, time.perf_counter() - start)
        found = grid is not None
        if found:
            witness = GridColoring(n, m, r, grid)
    if found:
        assert witness is not None
        if not verify_good(witness).is_good:
            raise RuntimeError("search engine produced a bad witness; this is a bug")
        return SearchOutcome(Outcome.FOUND, witness, nodes, time.perf_counter() - start)
    return SearchOutcome(Outcome.EXHAUSTED, None, nodes, time.perf_counter() - start)


def minimal_forcing_m(n: int, r: int, m_max: int, opts: SearchOptions | None = None) -> int | None:
    """Least m <= m_max such that no good n x m r-coloring exists, or None.

    Scans m upward; a good n x m coloring restricts to a good n x (m-1)
    coloring, so the first Exhausted width is the threshold.  Raises
    RuntimeError if a node budget prevents deciding some width.
    """
    if n < 2 or r < 1 or m_max < 2:
        raise ValueError(f"require n >= 2, r >= 1, m_max >= 2, got {(n, r, m_max)}")
    for m in range(1, m_max + 1):
        out = search_good_coloring(n, m, r, opts)
        if out.kind is Outcome.BUDGET_EXCEEDED:
            raise RuntimeError(f"node budget exhausted while deciding width m={m}")
        if out.kind is Outcome.EXHAUSTED:
            return m
    return None


@dataclass(frozen=True)
class SearchCertificate:
    """Parsed search certificate: verdict header plus optional witness grid."""

    kind: Outcome
    n: int
    m: int
    r: int
    nodes_visited: int
    witness: GridColoring | None


def format_search_certificate(result: SearchOutcome, n: int, m: int, r: int) -> str:
    """Certificate text: `outcome {found|exhausted|budget} n m r nodes=<count>` [+ grid]."""
    head = f"outcome {result.kind.value} {n} {m} {r} nodes={result.nodes_visited}"
    if result.kind is Outcome.FOUND:
        assert result.witness is not None
        return head + "\n" + format_grid_certificate(result.witness)
    return head + "\n"


def parse_search_certificate(text: str) -> SearchCertificate:
    """Strict parser for the search certificate format."""
    lines = text.splitlines()
    if not lines:
        raise CertificateError("empty search certificate")
    head = lines[0].split()
    if len(head) != 6 or head[0] != "outcome":
        raise CertificateError(f"bad outcome header: {lines[0]!r}")
    kinds = {o.value: o for o in Outcome}
    if head[1] not in kinds:
        raise CertificateError(f"unknown outcome kind: {head[1]!r}")
    kind = kinds[head[1]]
    try:
        n, m, r = int(head[2]), int(head[3]), int(head[4])
    except ValueError as exc:
        raise CertificateError(f"bad outcome header: {lines[0]!r}") from exc
    if not head[5].startswith("nodes="):
        raise CertificateError(f"bad outcome header: {lines[0]!r}")
    try:
        nodes = int(head[5][len("nodes="):])
    except ValueError as exc:
        raise CertificateError(f"bad outcome header: {lines[0]!r}") from exc
    rest = "\n".join(lines[1:])
    witness = None
    if kind is Outcome.FOUND:
        witness = parse_grid_certificate(rest)
        if (witness.n, witness.m, witness.r) != (n, m, r):
            raise CertificateError("witness dimensions disagree with the outcome header")
    elif rest.strip():
        raise CertificateError("unexpected content after non-found outcome header")
    return SearchCertificate(kind, n, m, r, nodes, witness)
