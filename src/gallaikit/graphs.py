"""Edge colorings of complete graphs and small Gallai-Ramsey numbers.

A good edge coloring here avoids both a rainbow triangle and a
monochromatic copy of a target subgraph (the 4-cycle C4 or the
four-vertex path P4).  The edge engine runs the shared driver
`search.backtrack` over the edges in lexicographic order.  Its `fits`
returns, once per edge visit, the colors that complete no rainbow
triangle and no monochromatic target with the assigned edges: it finds
the common neighbours whose two edges differ once, and each color then
costs one AND-NOT for the rainbow test and a bitmask scan for the target.
Its `place` assigns without checking.  Rainbow-triangle pruning is what
makes exhaustion tractable, since colorings without rainbow triangles
are rigidly structured.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterator, Mapping

from .grid import CertificateError, split_strict
from .search import Outcome, SearchOptions, SearchOutcome, Undecided, backtrack

TARGETS = ("C4", "P4")


@dataclass(frozen=True)
class SubgraphWitness:
    """A located pattern: its vertices in traversal order; the coloring holds its colors."""

    vertices: tuple[int, ...]


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
            return SubgraphWitness((u, v, w))
    return None


# The 12 vertex orders of a 4-subset that read each path once (first < last),
# as indices into the subset, in permutations() order.
_P4_ORDERS = tuple(p for p in permutations(range(4)) if p[0] < p[3])


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
                    return SubgraphWitness((w, x, y, z))
        return None
    for quad in combinations(range(1, ec.t + 1), 4):
        for i0, i1, i2, i3 in _P4_ORDERS:
            p0, p1, p2, p3 = quad[i0], quad[i1], quad[i2], quad[i3]
            c = mat[p0][p1]
            if mat[p1][p2] == c and mat[p2][p3] == c:
                return SubgraphWitness((p0, p1, p2, p3))
    return None


def search_good_edge_coloring(
    t: int,
    r: int,
    target: str,
    opts: SearchOptions | None = None,
) -> SearchOutcome[EdgeColoring]:
    """Find an r-coloring of K_t with no rainbow triangle and no mono target, or exhaust.

    Edges are assigned in lexicographic (u, v) order with first-use color
    symmetry breaking; every completed rainbow triangle or monochromatic
    target among assigned edges prunes immediately.  The reference
    searches in tests/oracles.py share no code with this engine and pin
    its verdicts, witnesses and node counts on small instances.
    """
    if target not in TARGETS:
        raise ValueError(f"target must be one of {TARGETS}, got {target!r}")
    if t < 3 or r < 1:
        raise ValueError(f"require t >= 3 and r >= 1, got {(t, r)}")
    if opts is None:
        opts = SearchOptions()
    edges = [(u, v) for u, v in combinations(range(1, t + 1), 2)]
    slot_info = [(u, v, 1 << u, 1 << v) for u, v in edges]
    # nc[u][c]: bitmask of vertices joined to u by an assigned edge of color c (first-use: c <= edges)
    nc = [[0] * (min(r, len(edges)) + 1) for _ in range(t + 1)]
    amask = [0] * (t + 1)
    rainbow_check = r >= 3
    want_c4 = target == "C4"

    def fits(pos: int, hi: int) -> int:
        # colors for edge pos that complete no rainbow triangle and no mono target
        u, v, ubit, vbit = slot_info[pos]
        nc_u = nc[u]
        nc_v = nc[v]
        # split: common neighbours w whose edges uw and vw differ
        split = 0
        if rainbow_check:
            common = amask[u] & amask[v]
            if common:
                same = 0
                for c2 in range(1, hi + 1):
                    same |= nc_u[c2] & nc_v[c2]
                split = common & ~same
        ok = (2 << hi) - 2  # the bits of colors 1..hi
        for c in range(1, hi + 1):
            cu = nc_u[c]
            cv = nc_v[c]
            if split & ~(cu | cv):
                ok ^= 1 << c  # a split neighbour with neither edge colored c: rainbow
            elif want_c4:
                # a cycle u-v-x-y: x a c-neighbour of v, y one of u and of x
                xs = cv & ~ubit
                ys = cu & ~vbit
                if ys:
                    while xs:
                        low = xs & -xs
                        if nc[low.bit_length() - 1][c] & ys:
                            ok ^= 1 << c
                            break
                        xs ^= low
            else:
                # P4: edge (u, v) as middle edge a-u-v-b, then as an end edge
                a_set = cu & ~vbit
                b_set = cv & ~ubit
                if a_set and b_set and (a_set != b_set or a_set & (a_set - 1)):
                    ok ^= 1 << c
                    continue
                ends = a_set | b_set
                others = ~(ubit | vbit)
                while ends:
                    low = ends & -ends
                    if nc[low.bit_length() - 1][c] & others:
                        ok ^= 1 << c
                        break
                    ends ^= low
        return ok

    def place(pos: int, c: int) -> None:
        u, v, ubit, vbit = slot_info[pos]
        nc[u][c] |= vbit
        nc[v][c] |= ubit
        amask[u] |= vbit
        amask[v] |= ubit

    def unplace(pos: int, c: int) -> None:
        u, v, ubit, vbit = slot_info[pos]
        nc[u][c] &= ~vbit
        nc[v][c] &= ~ubit
        amask[u] &= ~vbit
        amask[v] &= ~ubit

    kind, nodes, colors = backtrack(len(edges), r, opts, fits, place, unplace)
    witness = None
    if colors is not None:
        witness = EdgeColoring(t, r, dict(zip(edges, colors)))
        bad = find_rainbow_triangle(witness) if r >= 3 else None
        mono = find_mono_subgraph(witness, target) if t >= 4 else None
        if bad is not None or mono is not None:
            raise RuntimeError("graph search produced a bad witness; this is a bug")
    return SearchOutcome(kind, witness, nodes)


def gallai_ramsey_number(
    target: str, r: int, t_max: int, opts: SearchOptions | None = None
) -> int | None:
    """Least t <= t_max whose every r-coloring contains a rainbow K3 or mono target.

    Returns None when every t <= t_max still admits a good coloring.
    Raises Undecided(t) if a node budget prevents deciding size t.
    """
    if r < 1 or t_max < 3:
        raise ValueError(f"require r >= 1 and t_max >= 3, got {(r, t_max)}")
    for t in range(3, t_max + 1):
        out = search_good_edge_coloring(t, r, target, opts)
        if out.kind is Outcome.EXHAUSTED:
            return t
        if out.kind is Outcome.BUDGET_EXCEEDED:
            raise Undecided(t)
    return None


def format_edge_coloring(ec: EdgeColoring) -> str:
    """Certificate text: `kgraph t r` then C(t,2) lines `u v c` in lexicographic order."""
    lines = [f"kgraph {ec.t} {ec.r}"]
    lines.extend(f"{u} {v} {c}" for u, v, c in ec.pairs())
    return "\n".join(lines) + "\n"


def parse_edge_coloring(text: str) -> EdgeColoring:
    """Strict parser for the kgraph certificate format."""
    (t, r), body = split_strict(text, "kgraph", (int, int), "kgraph certificate")
    # compare with the file's line count before building anything of header size
    expected = t * (t - 1) // 2 if t > 0 else 0
    if len(body) != expected:
        raise CertificateError(f"expected {expected} edge lines, found {len(body)}")
    colors = {}
    for line, (u, v) in zip(body, combinations(range(1, t + 1), 2)):
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
