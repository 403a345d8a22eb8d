"""The backtracking driver shared by both engines, and the grid engine on top of it.

`backtrack` assigns colors to an ordered list of slots, one node per tried
color, with first-use color numbering, a node budget and, with
`worker_hint >= 2`, subtrees explored in forked workers.  An engine
supplies the local check as two callbacks: `fits(pos, hi)` returns, once
per slot visit, the bitmask of colors in 1..hi that slot pos may take, and
`place(pos, c)` assigns a color without checking it (with `unplace` to
undo it).  The K_t edge engine lives in `graphs`.

The grid engine assigns cells in row-major order and rejects a color as
soon as it would complete a monochromatic or rainbow rectangle with
earlier cells.  It keeps a column bitmask per (row, color), so the mono
test is one AND per row above and the rainbow test a few AND-NOTs per
row.  It visits only colorings whose colors are numbered by first use and
whose rows are lexicographically nondecreasing.  By the lex-leader
argument (Crawford, Ginsberg, Luks and Roy, "Symmetry-breaking predicates
for search problems", KR 1996) this changes no Found/Exhausted verdict.
Renaming colors and permuting rows map good colorings to good colorings.
Read a coloring as its cells in row-major order and take the least member
of an orbit.  Its rows are nondecreasing: otherwise swapping two adjacent
rows that are out of order gives a smaller member.  It numbers its colors
by first use: otherwise swapping the first color that skips ahead with the
least color not yet used gives a smaller member.  So every orbit of good
colorings meets the reduced space.  The same argument with colors alone
covers the K_t engine.
"""

from __future__ import annotations

import marshal
import os
from dataclasses import dataclass
from enum import Enum
from typing import Any, BinaryIO, Callable, Generic, Sequence, TypeVar

from .grid import (
    CertificateError,
    GridColoring,
    format_grid_certificate,
    parse_grid_certificate,
    split_strict,
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
    Each engine always applies its symmetry reductions (module docstring).
    """

    node_budget: int | None = None
    worker_hint: int | None = None

    def __post_init__(self) -> None:
        if self.node_budget is not None and self.node_budget < 1:
            raise ValueError("node_budget must be positive")
        if self.worker_hint is not None and self.worker_hint < 1:
            raise ValueError("worker_hint must be positive")


class Undecided(RuntimeError):
    """A node budget stopped a threshold scan before it decided size `size`."""

    def __init__(self, size: int) -> None:
        super().__init__(f"node budget exhausted while deciding size {size}")
        self.size = size


W = TypeVar("W")


@dataclass(frozen=True)
class SearchOutcome(Generic[W]):
    """Result of a search: verdict, optional verified witness, and node count.

    The witness is a GridColoring for grid searches and an EdgeColoring for
    complete-graph searches.  Every field is determined by the instance and
    the options, so two runs of one search give equal outcomes.
    """

    kind: Outcome
    witness: W | None
    nodes_visited: int

    def __post_init__(self) -> None:
        if (self.witness is not None) != (self.kind is Outcome.FOUND):
            raise ValueError("witness must be present exactly for Found outcomes")


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


def _worker_loop(task_fd: int, result_fd: int, explore: Callable[[int, int | None], tuple]) -> None:
    # Runs in a forked child until the parent closes the task pipe or kills it.
    # Each record is one marshal dump; the buffered writer sends a large one whole.
    try:
        tasks, results = open(task_fd, "rb"), open(result_fd, "wb")
        while True:
            try:
                index, cap = marshal.load(tasks)
            except EOFError:
                break
            try:
                result: Any = explore(index, cap)
            except Exception as exc:
                result = f"{type(exc).__name__}: {exc}"
            marshal.dump(result, results)
            results.flush()
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
    that raises makes this raise RuntimeError.  Tasks (index, cap) and
    results pass as marshal records on pipe files; a worker gets a task
    only once its last result was read, so a pipe holds one record at most.
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
    channels: list[tuple[BinaryIO, BinaryIO]] = []  # (task writer, result reader) per worker
    busy: dict[BinaryIO, tuple[tuple[BinaryIO, BinaryIO], int]] = {}  # result reader -> (channel, subtree)
    try:
        for _ in range(worker_count(hint, _usable_cores(), count)):
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                # keep only this worker's own ends, so that no pipe outlives the parent
                for fd in (task_w, result_r, *(f.fileno() for channel in channels for f in channel)):
                    os.close(fd)
                _worker_loop(task_r, result_w, explore)
            pids.append(pid)
            os.close(task_r)
            os.close(result_w)
            # an unbuffered task writer never writes on close (a task fits one pipe
            # write); a buffered reader suits select since a pipe holds one record
            channels.append((open(task_w, "wb", buffering=0), open(result_r, "rb")))
        idle = channels[::-1]
        while committed < count:
            while idle and next_task < cutoff:
                channel = idle.pop()
                cap = None if budget is None else budget - prefix_nodes[next_task] - spent
                marshal.dump((next_task, cap), channel[0])
                busy[channel[1]] = (channel, next_task)
                next_task += 1
            ready, _, _ = select.select(list(busy), [], [])
            for result_r in ready:
                channel, index = busy.pop(result_r)
                idle.append(channel)
                try:
                    result = marshal.load(result_r)
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
            task_w.close()
            result_r.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)


def backtrack(
    slots: int,
    r: int,
    opts: SearchOptions,
    fits: Callable[[int, int], int],
    place: Callable[[int, int], None],
    unplace: Callable[[int, int], None],
    floor: Callable[[int], int] | None = None,
    first_use: bool = True,
) -> tuple[Outcome, int, list[int] | None]:
    """Assign colors 1..r to slots 0..slots-1 in order; return (verdict, nodes, colors).

    The engine supplies the constraints.  fits(pos, hi) returns a bitmask
    (bit c for color c) of the colors in 1..hi that slot pos may take given
    the slots before it; hi is at least every color assigned so far.  The
    driver calls it once on entering a slot and walks the set bits in
    increasing order.  place(pos, c) assigns c to slot pos without checking
    it, and unplace(pos, c) undoes that.  floor(pos), if given, is the least
    color slot pos may take.  The first full assignment is the witness: an
    engine that must reject a leaf does so through fits at the last slot.
    With first_use a slot may open at most one new color, so no color
    exceeds min(r, slots); an engine that may not rename colors passes
    False.  The driver owns the rest: a node per tried color, the node
    budget, and the cut into subtrees for forked workers.
    Every color in floor..hi counts as a node, also the ones fits rejected,
    so the counts are those of trying each color in turn; a budget overrun
    reports budget + 1 nodes.  A Found verdict carries the
    lexicographically least assignment, and the counts never depend on
    opts.worker_hint.  Every exit leaves the engine with nothing assigned.
    """
    colors = [0] * slots
    # a parallel run lists (colors, max_used, nodes so far) at the cut
    prefixes: list[tuple[list[int], int, int]] = []
    # per placed slot: the fitting colors not yet tried there, and max_used before it
    left_at = [0] * slots
    used_before = [0] * slots

    def walk(prefix: Sequence[int], max_used: int, budget: int | None, stop: int) -> tuple[Outcome, int]:
        # search below `prefix` down to `stop` (a leaf at slots, otherwise a cut)
        nodes = 0
        pos = 0
        try:
            for c in prefix:  # every prefix color passed fits when the prefix was listed
                place(pos, c)
                colors[pos] = c
                pos += 1
            base = pos
            hi = max_used + 1 if first_use and max_used < r else r
            c = floor(pos) - 1 if floor is not None else 0
            left = fits(pos, hi) & -(2 << c)  # colors from c + 1 (the floor) up
            while True:
                if not left:
                    # the slot is spent: count the colors after c that fits rejected
                    if c < hi:
                        nodes += hi - c
                        if budget is not None and nodes > budget:
                            return Outcome.BUDGET_EXCEEDED, budget + 1
                    if pos == base:
                        return Outcome.EXHAUSTED, nodes
                    pos -= 1
                    c = colors[pos]
                    unplace(pos, c)
                    left = left_at[pos]
                    max_used = used_before[pos]
                    hi = max_used + 1 if first_use and max_used < r else r
                    continue
                low = left & -left
                left ^= low
                nxt = low.bit_length() - 1
                nodes += nxt - c  # the rejected colors between c and nxt, and nxt
                c = nxt
                if budget is not None and nodes > budget:
                    return Outcome.BUDGET_EXCEEDED, budget + 1
                place(pos, c)
                colors[pos] = c
                pos += 1
                if pos >= stop:
                    if pos == slots:
                        return Outcome.FOUND, nodes
                    prefixes.append((colors[:pos], c if c > max_used else max_used, nodes))
                    if len(prefixes) == LEAD_PREFIXES:
                        stop = SPLIT_DEPTH
                    pos -= 1
                    unplace(pos, c)
                    continue
                left_at[pos - 1] = left
                used_before[pos - 1] = max_used
                if c > max_used:
                    max_used = c
                    hi = max_used + 1 if first_use and max_used < r else r
                c = floor(pos) - 1 if floor is not None else 0
                left = fits(pos, hi) & -(2 << c)
        finally:
            while pos:
                pos -= 1
                unplace(pos, colors[pos])

    def explore(index: int, cap: int | None) -> tuple[int, bool, list[int] | None]:
        # runs in a worker: search the subtree below prefixes[index]
        prefix, max_used, _ = prefixes[index]
        kind, nodes = walk(prefix, max_used, cap, slots)
        return nodes, kind is Outcome.BUDGET_EXCEEDED, colors[:] if kind is Outcome.FOUND else None

    budget = opts.node_budget
    cut = first_cut(opts, slots)
    kind, nodes = walk((), 0, budget, cut)
    if cut == slots:
        return kind, nodes, colors[:] if kind is Outcome.FOUND else None
    # The listing never reaches a leaf.  If it overran the budget, a sequential
    # run still reaches the subtrees listed so far, and one of them may hold a
    # witness within budget; with nodes = budget + 1, explore_subtrees reports
    # an overrun otherwise.
    return explore_subtrees([p[2] for p in prefixes], nodes, budget, opts.worker_hint, explore)


def search_good_coloring(n: int, m: int, r: int, opts: SearchOptions | None = None) -> SearchOutcome[GridColoring]:
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
    cells = [[0] * m for _ in range(n)]
    # first-use numbering places no color above top
    top = min(r, n * m)
    # col_masks[i][c]: bitmask of the columns where row i holds color c
    col_masks = [[0] * (top + 1) for _ in range(n)]
    # per slot in row-major order: (row, column, the row, its masks, (row, masks) for each
    # row above, the bits of the columns before this one)
    slot_info = [
        (i, j, cells[i], col_masks[i], list(zip(cells[:i], col_masks[:i])), (1 << j) - 1)
        for i in range(n)
        for j in range(m)
    ]
    # ge_at[i]: the slot at which row i became strictly greater than row i-1, or -1
    ge_at = [-1] * n
    rainbow_possible = r >= 4
    all_colors = range(1, top + 1)

    def fits(pos: int, hi: int) -> int:
        # colors that finish no mono or rainbow rectangle with a row above
        _, j, row_i, masks_i, above, before = slot_info[pos]
        ok = (2 << hi) - 2  # the bits of colors 1..hi
        for row2, masks2 in above:
            b = row2[j]
            if masks2[b] & masks_i[b]:
                ok &= ~(1 << b)  # b would close a mono rectangle
            if rainbow_possible:
                # columns j2 < j where row2 and row i differ and neither holds b
                free = before & ~(masks2[b] | masks_i[b])
                if free:
                    for x in all_colors:
                        free &= ~(masks2[x] & masks_i[x])
                    if free:
                        # each such column leaves only b and its own two colors, so
                        # besides b only the first one's two colors can fit, and
                        # only if they occur in every such column
                        j2 = (free & -free).bit_length() - 1
                        keep = 1 << b
                        for x in (row2[j2], row_i[j2]):
                            if not free & ~(masks2[x] | masks_i[x]):
                                keep |= 1 << x
                        ok &= keep
        return ok

    def place(pos: int, c: int) -> None:
        i, j, row_i, masks_i, above, _ = slot_info[pos]
        row_i[j] = c
        masks_i[c] |= 1 << j
        if i and ge_at[i] < 0 and c > above[-1][0][j]:
            ge_at[i] = pos

    def unplace(pos: int, c: int) -> None:
        i, j, row_i, masks_i, _, _ = slot_info[pos]
        row_i[j] = 0
        masks_i[c] &= ~(1 << j)
        if ge_at[i] == pos:
            ge_at[i] = -1

    def floor(pos: int) -> int:
        # sorted rows: while row i ties row i-1, its cells may not fall below it
        i, j, _, _, above, _ = slot_info[pos]
        return above[-1][0][j] if i and ge_at[i] < 0 else 1

    kind, nodes, colors = backtrack(n * m, r, opts, fits, place, unplace, floor)
    witness = None
    if colors is not None:
        witness = GridColoring(n, m, r, [colors[i * m:(i + 1) * m] for i in range(n)])
        if not verify_good(witness).is_good:
            raise RuntimeError("search engine produced a bad witness; this is a bug")
    return SearchOutcome(kind, witness, nodes)


def minimal_forcing_m(n: int, r: int, m_max: int, opts: SearchOptions | None = None) -> int | None:
    """Least m <= m_max such that no good n x m r-coloring exists, or None.

    Scans m upward; a good n x m coloring restricts to a good n x (m-1)
    coloring, so the first Exhausted width is the threshold.  Raises
    Undecided(m) if a node budget prevents deciding width m.
    """
    if n < 2 or r < 1 or m_max < 2:
        raise ValueError(f"require n >= 2, r >= 1, m_max >= 2, got {(n, r, m_max)}")
    for m in range(1, m_max + 1):
        out = search_good_coloring(n, m, r, opts)
        if out.kind is Outcome.BUDGET_EXCEEDED:
            raise Undecided(m)
        if out.kind is Outcome.EXHAUSTED:
            return m
    return None


def format_search_certificate(result: SearchOutcome[GridColoring], n: int, m: int, r: int) -> str:
    """Certificate text: `outcome {found|exhausted|budget} n m r nodes=<count>` [+ grid]."""
    head = f"outcome {result.kind.value} {n} {m} {r} nodes={result.nodes_visited}"
    if result.kind is Outcome.FOUND:
        assert result.witness is not None
        return head + "\n" + format_grid_certificate(result.witness)
    return head + "\n"


def _nodes(tok: str) -> int:
    # the `nodes=<count>` field of a search certificate header
    if not tok.startswith("nodes="):
        raise ValueError(tok)
    return int(tok[len("nodes="):])


def parse_search_certificate(text: str) -> tuple[SearchOutcome[GridColoring], int, int, int]:
    """Strict parser for the search certificate format; returns (outcome, n, m, r).

    The exact inverse of format_search_certificate: parsing its text for
    (out, n, m, r) gives back (out, n, m, r).
    """
    header = (Outcome, int, int, int, _nodes)
    (kind, n, m, r, nodes), body = split_strict(text, "outcome", header, "search certificate")
    if min(n, m, r) < 1 or nodes < 0:
        raise CertificateError(f"bad outcome header: {text.splitlines()[0]!r}")
    witness = None
    if kind is Outcome.FOUND:
        witness = parse_grid_certificate("\n".join(body))
        if (witness.n, witness.m, witness.r) != (n, m, r):
            raise CertificateError("witness dimensions disagree with the outcome header")
    elif body:
        raise CertificateError("unexpected content after non-found outcome header")
    return SearchOutcome(kind, witness, nodes), n, m, r
