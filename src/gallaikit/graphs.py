"""Edge colorings of complete graphs and small Gallai-Ramsey numbers.

A good edge coloring here avoids both a rainbow triangle and a
monochromatic copy of a target subgraph (the 4-cycle C4 or the
four-vertex path P4).  The edge engine runs the shared driver
`search.backtrack` over the edges vertex by vertex, so that the first
triangle closes at the third edge.  Its `fits`
returns, once per edge visit, the colors that complete no rainbow
triangle and no monochromatic target with the assigned edges.  It first
walks the common neighbours of the edge's ends: each "split" neighbour,
one whose two edges differ, leaves only those two colors.  Only the
colors that survive go on to the bitmask scan for the target.  Its
`place` assigns without checking.  Rainbow-triangle pruning is what
makes exhaustion tractable, since colorings without rainbow triangles
are rigidly structured.  The engine breaks two symmetries: colors are
numbered by first use, and the driver keeps only colorings that are lex
leaders under the swaps of adjacent vertices (`search.backtrack`'s
perms).  With both, K10 with six colors exhausts in 53,115 nodes, which
decides gr_6(K3 : C4) = 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterator, Mapping

from .grid import CertificateError, read_uint, read_uint_table, split_strict
from .search import SearchOptions, SearchOutcome, backtrack, threshold_scan

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

    Edges are assigned vertex by vertex, in colex order: (1,2), (1,3),
    (2,3), (1,4), (2,4), (3,4), ..., so vertex v's edges to 1..v-1 come
    straight after all of K_{v-1}'s edges and triangles close early.
    Every completed rainbow triangle or monochromatic target among
    assigned edges prunes immediately.  Colors are numbered by first use,
    and the driver gets the t - 1 transpositions of vertices i and i + 1,
    mapped to edge slots, as its perms.  Renaming vertices maps good
    colorings to good colorings, so by the lex-leader argument in
    `search.backtrack`, which holds for any fixed slot order, this changes
    no verdict, only node counts; a Found witness is the least good
    coloring read in slot order.  The slots of K_{t-1} are the first slots
    of K_t, and the swap of t - 1 and t compares nothing inside them, so
    when K_{t-1} exhausts, K_t exhausts in as many nodes.  The reference
    searches in tests/oracles.py share no code with this engine and pin
    its verdicts, witnesses and node counts on small instances.

    The rainbow test narrows before the target test.  A color c for the
    edge uv closes a rainbow triangle uvw exactly when uw and vw are
    assigned with colors a != b and c is neither a nor b: if a == b,
    then uv, uw and vw hold at most two colors whatever c is.  So the
    colors that close no rainbow triangle are those in {a, b} for every
    such "split" neighbour w, and fits intersects those pairs.  The
    target test then sees only those colors, and the mask fits returns is
    the one a color-by-color check of both tests would give, so the order
    of the tests changes no verdict, witness or node count.
    """
    if target not in TARGETS:
        raise ValueError(f"target must be one of {TARGETS}, got {target!r}")
    if t < 3 or r < 1:
        raise ValueError(f"require t >= 3 and r >= 1, got {(t, r)}")
    if opts is None:
        opts = SearchOptions()
    edges = [(u, v) for v in range(2, t + 1) for u in range(1, v)]
    # col[u][w]: the color of edge uw, live only while amask says uw is assigned
    col = [[0] * (t + 1) for _ in range(t + 1)]
    # nc[u][c]: bitmask of vertices joined to u by an assigned edge of color c (first-use: c <= edges)
    nc = [[0] * (min(r, len(edges)) + 1) for _ in range(t + 1)]
    amask = [0] * (t + 1)
    slot_info = [(u, v, 1 << u, 1 << v, col[u], col[v], nc[u], nc[v]) for u, v in edges]
    rainbow_check = r >= 3
    want_c4 = target == "C4"

    def fits(pos: int, hi: int) -> int:
        # colors for edge pos that complete no rainbow triangle, then no mono target
        u, v, ubit, vbit, col_u, col_v, nc_u, nc_v = slot_info[pos]
        ok = (2 << hi) - 2  # the bits of colors 1..hi
        if rainbow_check:
            # a split neighbour w (uw colored a, vw colored b != a) leaves only a and b;
            # below three colors no triangle is rainbow and every color goes on
            common = amask[u] & amask[v]
            while common:
                low = common & -common
                common ^= low
                w = low.bit_length() - 1
                a = col_u[w]
                b = col_v[w]
                if a != b:
                    ok &= 1 << a | 1 << b
                    if not ok:
                        return 0
        # the target test, on the surviving colors from low to high.  Edge uv is
        # not assigned yet, so v is in no nc_u[c] and u in no nc_v[c].
        others = ~(ubit | vbit)
        rest = ok
        while rest:
            low = rest & -rest
            rest ^= low
            c = low.bit_length() - 1
            cu = nc_u[c]
            cv = nc_v[c]
            if want_c4:
                # a cycle u-v-x-y: x a c-neighbour of v, y one of u and of x
                if cu:
                    xs = cv
                    while xs:
                        x = xs & -xs
                        if nc[x.bit_length() - 1][c] & cu:
                            ok ^= low
                            break
                        xs ^= x
            else:
                # P4: edge (u, v) as middle edge a-u-v-b, then as an end edge v-u-a-x or u-v-b-x
                if cu and cv and (cu != cv or cu & (cu - 1)):
                    ok ^= low
                    continue
                ends = cu | cv
                while ends:
                    x = ends & -ends
                    if nc[x.bit_length() - 1][c] & others:
                        ok ^= low
                        break
                    ends ^= x
        return ok

    def place(pos: int, c: int) -> None:
        u, v, ubit, vbit, col_u, col_v, nc_u, nc_v = slot_info[pos]
        col_u[v] = c
        col_v[u] = c
        nc_u[c] |= vbit
        nc_v[c] |= ubit
        amask[u] |= vbit
        amask[v] |= ubit

    def unplace(pos: int, c: int) -> None:
        u, v, ubit, vbit, _, _, nc_u, nc_v = slot_info[pos]
        nc_u[c] &= ~vbit
        nc_v[c] &= ~ubit
        amask[u] &= ~vbit
        amask[v] &= ~ubit

    # the transpositions of vertices i and i + 1, as permutations of the edge slots
    slot_of = {edge: k for k, edge in enumerate(edges)}
    swaps = []
    for i in range(1, t):
        image = list(range(t + 1))
        image[i], image[i + 1] = i + 1, i
        swaps.append([slot_of[min(image[u], image[v]), max(image[u], image[v])] for u, v in edges])
    kind, nodes, colors = backtrack(len(edges), r, opts, fits, place, unplace, perms=swaps)
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
    return gallai_ramsey_scan(target, r, t_max, opts)[0]


def gallai_ramsey_scan(
    target: str, r: int, t_max: int, opts: SearchOptions | None = None
) -> tuple[int | None, EdgeColoring | None]:
    """gallai_ramsey_number's value together with the last good coloring the scan found.

    The scan tries t = 3, 4, ... and stops at the first Exhausted t.  So
    when the value is t, the coloring is a good K_{t-1} coloring (t >= 4,
    since one color on K_3 is always good); when it is None, the coloring
    is a good K_{t_max} coloring.
    """
    if r < 1 or t_max < 3:
        raise ValueError(f"require r >= 1 and t_max >= 3, got {(r, t_max)}")
    return threshold_scan(range(3, t_max + 1), lambda t: search_good_edge_coloring(t, r, target, opts))


def format_edge_coloring(ec: EdgeColoring) -> str:
    """Certificate text: `kgraph t r` then C(t,2) lines `u v c` in lexicographic order."""
    lines = [f"kgraph {ec.t} {ec.r}"]
    lines.extend(f"{u} {v} {c}" for u, v, c in ec.pairs())
    return "\n".join(lines) + "\n"


def parse_edge_coloring(text: str) -> EdgeColoring:
    """Strict parser for the kgraph certificate format."""
    (t, r), body = split_strict(text, "kgraph", (read_uint, read_uint), "kgraph certificate")
    # compare with the file's line count before building anything of header size
    expected = t * (t - 1) // 2
    if len(body) != expected:
        raise CertificateError(f"expected {expected} edge lines, found {len(body)}")
    fields = read_uint_table(body, 3, "edge")
    edges = list(combinations(range(1, t + 1), 2))
    named = list(zip(fields[0::3], fields[1::3]))
    if named != edges:
        k = next(k for k, (pair, edge) in enumerate(zip(named, edges)) if pair != edge)
        raise CertificateError(f"edge line {body[k]!r} out of order, expected edge {edges[k]}")
    try:
        return EdgeColoring(t, r, dict(zip(edges, fields[2::3])))
    except ValueError as exc:
        raise CertificateError(str(exc)) from exc
