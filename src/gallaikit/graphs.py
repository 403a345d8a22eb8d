"""Edge colorings of complete graphs and small Gallai-Ramsey numbers.

A good edge coloring here avoids both a rainbow triangle and a
monochromatic copy of a target subgraph (the 4-cycle C4 or the
four-vertex path P4).  The backtracking engine assigns edges in
lexicographic order, pruning on every completed rainbow triangle or
monochromatic target; rainbow-triangle pruning is what makes exhaustion
tractable, since colorings without rainbow triangles are rigidly
structured.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, permutations
from typing import Iterator, Mapping

from .grid import CertificateError
from .search import LEAD_PREFIXES, SPLIT_DEPTH, Outcome, SearchOptions, explore_subtrees, first_cut

TARGETS = ("C4", "P4")


class WitnessKind(Enum):
    RAINBOW_K3 = "RainbowK3"
    MONO_C4 = "MonoC4"
    MONO_P4 = "MonoP4"


@dataclass(frozen=True)
class SubgraphWitness:
    """A located pattern: vertices in traversal order plus its color data.

    color_info is the shared color for monochromatic witnesses and the
    triple of distinct edge colors (in edge order (u,v), (u,w), (v,w)) for
    rainbow triangles.
    """

    kind: WitnessKind
    vertices: tuple[int, ...]
    color_info: int | tuple[int, int, int]


class EdgeColoring:
    """An r-coloring of the edges of the complete graph K_t, vertices 1..t."""

    __slots__ = ("t", "r", "_matrix")

    def __init__(self, t: int, r: int, colors: Mapping[tuple[int, int], int]):
        if t < 2 or r < 1:
            raise ValueError(f"require t >= 2 and r >= 1, got {(t, r)}")
        matrix = [[0] * (t + 1) for _ in range(t + 1)]
        seen = 0
        for (u, v), c in colors.items():
            if not 1 <= u < v <= t:
                raise ValueError(f"bad vertex pair ({u}, {v})")
            if not isinstance(c, int) or not 1 <= c <= r:
                raise ValueError(f"edge ({u},{v}) has color {c!r}, outside 1..{r}")
            if matrix[u][v]:
                raise ValueError(f"duplicate color for edge ({u},{v})")
            matrix[u][v] = matrix[v][u] = c
            seen += 1
        if seen != t * (t - 1) // 2:
            raise ValueError(f"expected {t * (t - 1) // 2} colored edges, got {seen}")
        self.t = t
        self.r = r
        self._matrix = matrix

    def color(self, u: int, v: int) -> int:
        """Color of edge {u, v}; symmetric in its arguments."""
        if u == v or not 1 <= u <= self.t or not 1 <= v <= self.t:
            raise ValueError(f"bad edge ({u}, {v})")
        return self._matrix[u][v]

    def pairs(self) -> Iterator[tuple[int, int, int]]:
        """All (u, v, color) with u < v in lexicographic order."""
        for u, v in combinations(range(1, self.t + 1), 2):
            yield u, v, self._matrix[u][v]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeColoring):
            return NotImplemented
        return self.t == other.t and self.r == other.r and self._matrix == other._matrix

    def __hash__(self) -> int:
        return hash((self.t, self.r, tuple(tuple(row) for row in self._matrix)))

    def __repr__(self) -> str:
        return f"EdgeColoring(t={self.t}, r={self.r}, {dict(((u, v), c) for u, v, c in self.pairs())})"


def find_rainbow_triangle(ec: EdgeColoring) -> SubgraphWitness | None:
    """Lexicographically least vertex triple with three pairwise-distinct edge colors."""
    mat = ec._matrix
    for u, v, w in combinations(range(1, ec.t + 1), 3):
        a, b, c = mat[u][v], mat[u][w], mat[v][w]
        if a != b and a != c and b != c:
            return SubgraphWitness(WitnessKind.RAINBOW_K3, (u, v, w), (a, b, c))
    return None


def _cycles_of(quad: tuple[int, int, int, int]) -> tuple[tuple[int, int, int, int], ...]:
    a, b, c, d = quad
    return ((a, b, c, d), (a, b, d, c), (a, c, b, d))


def find_mono_subgraph(ec: EdgeColoring, target: str) -> SubgraphWitness | None:
    """First monochromatic copy of the target (C4 or P4) in a fixed scan order, or None.

    C4 means the four cycle edges share one color (diagonals are free); P4
    means the three path edges share one color.
    """
    if target not in TARGETS:
        raise ValueError(f"target must be one of {TARGETS}, got {target!r}")
    if ec.t < 4:
        raise ValueError(f"require t >= 4 to search for {target}, got t={ec.t}")
    mat = ec._matrix
    if target == "C4":
        for quad in combinations(range(1, ec.t + 1), 4):
            for w, x, y, z in _cycles_of(quad):
                c = mat[w][x]
                if mat[x][y] == c and mat[y][z] == c and mat[z][w] == c:
                    return SubgraphWitness(WitnessKind.MONO_C4, (w, x, y, z), c)
        return None
    for quad in combinations(range(1, ec.t + 1), 4):
        for path in permutations(quad):
            if path[0] > path[3]:
                continue
            p0, p1, p2, p3 = path
            c = mat[p0][p1]
            if mat[p1][p2] == c and mat[p2][p3] == c:
                return SubgraphWitness(WitnessKind.MONO_P4, path, c)
    return None


@dataclass(frozen=True)
class EdgeSearchOutcome:
    """Result of a complete-graph search; witness is a verified good coloring."""

    kind: Outcome
    witness: EdgeColoring | None
    nodes_visited: int
    elapsed: float

    def __post_init__(self) -> None:
        if (self.witness is not None) != (self.kind is Outcome.FOUND):
            raise ValueError("witness must be present exactly for Found outcomes")


class _BudgetHit(Exception):
    pass


def _bits(x: int) -> Iterator[int]:
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def search_good_edge_coloring(
    t: int,
    r: int,
    target: str,
    opts: SearchOptions | None = None,
    *,
    prune_rainbow: bool = True,
) -> EdgeSearchOutcome:
    """Find an r-coloring of K_t with no rainbow triangle and no mono target, or exhaust.

    Edges are assigned in lexicographic (u, v) order with first-use color
    symmetry breaking; every completed rainbow triangle or monochromatic
    target among assigned edges prunes immediately.  prune_rainbow=False
    defers the rainbow check to the leaves (slower, identical verdicts);
    it exists so tests can confirm the pruning is verdict-preserving.
    """
    if target not in TARGETS:
        raise ValueError(f"target must be one of {TARGETS}, got {target!r}")
    if t < 3 or r < 1:
        raise ValueError(f"require t >= 3 and r >= 1, got {(t, r)}")
    if opts is None:
        opts = SearchOptions()
    start = time.perf_counter()
    edges = [(u, v) for u, v in combinations(range(1, t + 1), 2)]
    total = len(edges)
    colmat = [[0] * (t + 1) for _ in range(t + 1)]
    # nc[u][c]: bitmask of vertices joined to u by an assigned edge of color c
    nc = [[0] * (r + 1) for _ in range(t + 1)]
    amask = [0] * (t + 1)
    budget = opts.node_budget
    color_sym = opts.color_symmetry
    rainbow_check = prune_rainbow and r >= 3
    want_c4 = target == "C4"
    nodes = 0
    witness: EdgeColoring | None = None
    # `stop` is the full depth, or the next cut depth (see first_cut) while a
    # parallel run lists its prefixes: (colors, max_used, nodes so far)
    stop = first_cut(opts, total)
    prefixes: list[tuple[list[int], int, int]] = []

    def completes_bad(u: int, v: int, c: int) -> bool:
        ubit = 1 << u
        vbit = 1 << v
        nc_u = nc[u]
        nc_v = nc[v]
        if rainbow_check:
            common = amask[u] & amask[v]
            if common:
                same = 0
                for c2 in range(1, r + 1):
                    same |= nc_u[c2] & nc_v[c2]
                if common & ~same & ~nc_u[c] & ~nc_v[c]:
                    return True
        if want_c4:
            xs = nc_v[c] & ~ubit
            ys = nc_u[c] & ~vbit
            if xs and ys:
                for x in _bits(xs):
                    if nc[x][c] & ys:
                        return True
            return False
        # P4: edge (u, v) as middle edge a-u-v-b, then as an end edge
        a_set = nc_u[c] & ~vbit
        b_set = nc_v[c] & ~ubit
        if a_set and b_set and (a_set != b_set or a_set & (a_set - 1)):
            return True
        others = ~(ubit | vbit)
        for x in _bits(b_set):
            if nc[x][c] & others:
                return True
        for x in _bits(a_set):
            if nc[x][c] & others:
                return True
        return False

    def leaf_ok() -> bool:
        if prune_rainbow or r < 3:
            return True
        coloring = EdgeColoring(t, r, {(u, v): colmat[u][v] for u, v in edges})
        return find_rainbow_triangle(coloring) is None

    def at_stop(pos: int, max_used: int) -> bool:
        # a leaf, or a cut while the prefixes of a parallel run are listed.  Kept
        # out of descend so that its recursion frames do not grow.
        nonlocal witness, stop
        if pos == total:
            if not leaf_ok():
                return False
            witness = EdgeColoring(t, r, {(u, v): colmat[u][v] for u, v in edges})
            return True
        prefixes.append(([colmat[u][v] for u, v in edges[:pos]], max_used, nodes))
        if len(prefixes) == LEAD_PREFIXES:
            stop = SPLIT_DEPTH
        return False

    def descend(pos: int, max_used: int) -> bool:
        nonlocal nodes
        if pos >= stop:
            return at_stop(pos, max_used)
        u, v = edges[pos]
        hi = min(r, max_used + 1) if color_sym else r
        ubit = 1 << u
        vbit = 1 << v
        for c in range(1, hi + 1):
            nodes += 1
            if budget is not None and nodes > budget:
                raise _BudgetHit
            if completes_bad(u, v, c):
                continue
            colmat[u][v] = colmat[v][u] = c
            nc[u][c] |= vbit
            nc[v][c] |= ubit
            amask[u] |= vbit
            amask[v] |= ubit
            if descend(pos + 1, c if c > max_used else max_used):
                return True
            colmat[u][v] = colmat[v][u] = 0
            nc[u][c] &= ~vbit
            nc[v][c] &= ~ubit
            amask[u] &= ~vbit
            amask[v] &= ~ubit
        return False

    def explore(index: int, cap: int | None) -> tuple[int, bool, list[int] | None]:
        # runs in a worker: search the subtree below prefixes[index]
        nonlocal nodes, budget, stop
        prefix, max_used, _ = prefixes[index]
        for row in colmat:
            row[:] = [0] * (t + 1)
        for row in nc:
            row[:] = [0] * (r + 1)
        amask[:] = [0] * (t + 1)
        for (u, v), c in zip(edges, prefix):
            colmat[u][v] = colmat[v][u] = c
            nc[u][c] |= 1 << v
            nc[v][c] |= 1 << u
            amask[u] |= 1 << v
            amask[v] |= 1 << u
        nodes, budget, stop = 0, cap, total
        try:
            found = descend(len(prefix), max_used)
        except _BudgetHit:
            return nodes, True, None
        return nodes, False, [colmat[u][v] for u, v in edges] if found else None

    try:
        found = descend(0, 0)
    except _BudgetHit:
        if stop == total:
            return EdgeSearchOutcome(Outcome.BUDGET_EXCEEDED, None, nodes, time.perf_counter() - start)
        # The prefix listing overran the budget.  A sequential run still reaches
        # the subtrees listed so far, and one of them may hold a witness within
        # budget; with nodes = budget + 1, explore_subtrees reports an overrun
        # otherwise.
        found = False
    if stop < total:
        prefix_nodes = [p[2] for p in prefixes]
        kind, nodes, colors = explore_subtrees(prefix_nodes, nodes, budget, opts.worker_hint, explore)
        if kind is Outcome.BUDGET_EXCEEDED:
            return EdgeSearchOutcome(kind, None, nodes, time.perf_counter() - start)
        found = colors is not None
        if found:
            witness = EdgeColoring(t, r, dict(zip(edges, colors)))
    if found:
        assert witness is not None
        bad = find_rainbow_triangle(witness) if witness.t >= 3 and r >= 3 else None
        mono = find_mono_subgraph(witness, target) if witness.t >= 4 else None
        if bad is not None or mono is not None:
            raise RuntimeError("graph search produced a bad witness; this is a bug")
        return EdgeSearchOutcome(Outcome.FOUND, witness, nodes, time.perf_counter() - start)
    return EdgeSearchOutcome(Outcome.EXHAUSTED, None, nodes, time.perf_counter() - start)


def gallai_ramsey_number(
    target: str, r: int, t_max: int, opts: SearchOptions | None = None
) -> int | None:
    """Least t <= t_max whose every r-coloring contains a rainbow K3 or mono target.

    Returns None when every t <= t_max still admits a good coloring, or
    when a node budget prevents certifying exhaustion at some t.
    """
    if r < 1 or t_max < 3:
        raise ValueError(f"require r >= 1 and t_max >= 3, got {(r, t_max)}")
    for t in range(3, t_max + 1):
        out = search_good_edge_coloring(t, r, target, opts)
        if out.kind is Outcome.EXHAUSTED:
            return t
        if out.kind is Outcome.BUDGET_EXCEEDED:
            return None
    return None


def format_edge_coloring(ec: EdgeColoring) -> str:
    """Certificate text: `kgraph t r` then C(t,2) lines `u v c` in lexicographic order."""
    lines = [f"kgraph {ec.t} {ec.r}"]
    lines.extend(f"{u} {v} {c}" for u, v, c in ec.pairs())
    return "\n".join(lines) + "\n"


def parse_edge_coloring(text: str) -> EdgeColoring:
    """Strict parser for the kgraph certificate format."""
    lines = [line.rstrip() for line in text.splitlines()]
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise CertificateError("empty kgraph certificate")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "kgraph":
        raise CertificateError(f"bad kgraph header: {lines[0]!r}")
    try:
        t, r = int(head[1]), int(head[2])
    except ValueError as exc:
        raise CertificateError(f"bad kgraph header: {lines[0]!r}") from exc
    # compare with the file's line count before building anything of header size
    expected = t * (t - 1) // 2 if t > 0 else 0
    if len(lines) - 1 != expected:
        raise CertificateError(f"expected {expected} edge lines, found {len(lines) - 1}")
    colors = {}
    for line, (u, v) in zip(lines[1:], combinations(range(1, t + 1), 2)):
        parts = line.split()
        if len(parts) != 3:
            raise CertificateError(f"bad edge line: {line!r}")
        try:
            pu, pv, c = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise CertificateError(f"bad edge line: {line!r}") from exc
        if (pu, pv) != (u, v):
            raise CertificateError(f"edge line {line!r} out of order, expected edge ({u}, {v})")
        colors[(u, v)] = c
    try:
        return EdgeColoring(t, r, colors)
    except ValueError as exc:
        raise CertificateError(str(exc)) from exc
