"""Independent brute-force oracles used to validate the library's fast paths.

Everything here is deliberately naive and shares no logic with the code it
checks: quadruple-nested scans, odometer enumerations over whole coloring
spaces, a bit-table sweep for two-color row triples, a column-type multiset
search for two-row grids, a plain recursive search with the engines' slot
order and symmetry rules and the grid engine's row-start Hall test (here
over every subset of the full columns), a first-use walk over every
coloring of a finite point set, a bit-parallel complete evaluation of CNF
encodings over all colorings, the SAT layer's former per-literal code
as the reference for its bulk rewrite, the former whole-array geometry
sweeps as the reference for their streamed rewrites, and the former
`congruent` without its sorted-distance pre-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations, product
from typing import Callable, Mapping

from gallaikit.grid import CertificateError, GridColoring, GridRectangle
from gallaikit.graphs import EdgeColoring
from gallaikit.sat import CnfDocument, color_var, selector_var


# ---------------------------------------------------------------- grids

def naive_find_mono(g: GridColoring) -> GridRectangle | None:
    """Quadruple-nested scan; first hit is the lexicographically least witness."""
    for i in range(1, g.n + 1):
        for i2 in range(i + 1, g.n + 1):
            for j in range(1, g.m + 1):
                for j2 in range(j + 1, g.m + 1):
                    a, b = g.color(i, j), g.color(i, j2)
                    c, d = g.color(i2, j), g.color(i2, j2)
                    if a == b == c == d:
                        return GridRectangle(i, i2, j, j2)
    return None


def naive_find_rainbow(g: GridColoring) -> GridRectangle | None:
    for i in range(1, g.n + 1):
        for i2 in range(i + 1, g.n + 1):
            for j in range(1, g.m + 1):
                for j2 in range(j + 1, g.m + 1):
                    corners = {g.color(i, j), g.color(i, j2), g.color(i2, j), g.color(i2, j2)}
                    if len(corners) == 4:
                        return GridRectangle(i, i2, j, j2)
    return None


def naive_is_good(g: GridColoring) -> bool:
    return naive_find_mono(g) is None and naive_find_rainbow(g) is None


def _flat_good(flat: list[int], n: int, m: int, r: int) -> bool:
    for i in range(n - 1):
        base_i = i * m
        for i2 in range(i + 1, n):
            base_i2 = i2 * m
            for j in range(m - 1):
                a = flat[base_i + j]
                c = flat[base_i2 + j]
                for j2 in range(j + 1, m):
                    b = flat[base_i + j2]
                    d = flat[base_i2 + j2]
                    if a == b == c == d:
                        return False
                    if r >= 4 and a != b and a != c and a != d and b != c and b != d and c != d:
                        return False
    return True


def _odometer(flat: list[int], r: int) -> bool:
    """Advance to the next coloring in place; False once the space wraps."""
    k = len(flat) - 1
    while k >= 0 and flat[k] == r:
        flat[k] = 1
        k -= 1
    if k < 0:
        return False
    flat[k] += 1
    return True


def naive_good_exists(n: int, m: int, r: int) -> bool:
    """Plain enumeration of all r^(n*m) colorings, stopping at the first good one."""
    flat = [1] * (n * m)
    while True:
        if _flat_good(flat, n, m, r):
            return True
        if not _odometer(flat, r):
            return False


def count_good_naive(n: int, m: int, r: int) -> int:
    """Exact count of good colorings by full odometer enumeration (no early exit)."""
    flat = [1] * (n * m)
    count = 0
    while True:
        if _flat_good(flat, n, m, r):
            count += 1
        if not _odometer(flat, r):
            return count


def count_good_3xm_2colorings(m: int) -> int:
    """Exact count of good 2-colorings of the 3 x m grid.

    Complete enumeration of all 2^(3m) colorings, factored over ordered
    row-bitmask triples: a pair of rows is clean when they share at most
    one color-2 column and at most one color-1 column (with two colors a
    rainbow rectangle is impossible).
    """
    size = 1 << m
    full = size - 1
    ok_rows = []
    for x in range(size):
        mask = 0
        for y in range(size):
            if (x & y).bit_count() < 2 and (~x & ~y & full).bit_count() < 2:
                mask |= 1 << y
        ok_rows.append(mask)
    count = 0
    for x in range(size):
        mx = ok_rows[x]
        bits = mx
        while bits:
            low = bits & -bits
            y = low.bit_length() - 1
            bits ^= low
            count += (mx & ok_rows[y]).bit_count()
    return count


# ---------------------------------------------------- two-row column types

def column_types_compatible(s: tuple[int, int], t: tuple[int, int]) -> bool:
    """Can columns of types s and t coexist in a good two-row coloring?

    Two copies of a diagonal type (c, c) form a mono rectangle; two columns
    whose four cells are pairwise distinct form a rainbow one.
    """
    if s == t:
        return s[0] != s[1]
    return len({s[0], s[1], t[0], t[1]}) != 4


def two_row_good_exists(r: int, m: int) -> bool:
    """Existence of a good 2 x m r-coloring via column-type count vectors.

    A two-row coloring is exactly a multiset of m column types (top,
    bottom); it is good iff all chosen columns are pairwise compatible.
    The search walks count vectors over the r^2 types with compatibility
    pruning, which is complete because column order never matters.
    """
    types = [(a, b) for a in range(1, r + 1) for b in range(1, r + 1)]

    def walk(idx: int, remaining: int, chosen: list[tuple[int, int]]) -> bool:
        if remaining == 0:
            return True
        if idx == len(types):
            return False
        t = types[idx]
        if all(column_types_compatible(t, s) for s in chosen):
            cap = remaining if column_types_compatible(t, t) else 1
            for cnt in range(cap, 0, -1):
                if walk(idx + 1, remaining - cnt, chosen + [t]):
                    return True
        return walk(idx + 1, remaining, chosen)

    return walk(0, m, [])


def two_row_forcing_threshold(r: int, m_max: int) -> int | None:
    for m in range(1, m_max + 1):
        if not two_row_good_exists(r, m):
            return m
    return None


# ------------------------------------------------------------- bipartite

def naive_k22_scan(g: GridColoring) -> tuple[bool, bool]:
    """(mono K22 exists, rainbow K22 exists) by scanning all vertex-pair pairs.

    The grid is read as an edge coloring of K_{n,m}: edge {left i, right j}
    carries cell (i, j), so a K22 is a pair of rows and a pair of columns.
    """
    mono = rainbow = False
    for i, i2 in combinations(range(1, g.n + 1), 2):
        for j, j2 in combinations(range(1, g.m + 1), 2):
            cs = (g.color(i, j), g.color(i, j2), g.color(i2, j), g.color(i2, j2))
            if cs[0] == cs[1] == cs[2] == cs[3]:
                mono = True
            if len(set(cs)) == 4:
                rainbow = True
    return mono, rainbow


# ----------------------------------------------------------- graph side

def naive_rainbow_triangle_exists(ec: EdgeColoring) -> bool:
    for u, v, w in combinations(range(1, ec.t + 1), 3):
        a, b, c = ec.color(u, v), ec.color(u, w), ec.color(v, w)
        if a != b and a != c and b != c:
            return True
    return False


def naive_mono_target_exists(ec: EdgeColoring, target: str) -> bool:
    """Scan every ordered 4-tuple for a monochromatic cycle (C4) or path (P4)."""
    for a, b, c, d in permutations(range(1, ec.t + 1), 4):
        col = ec.color(a, b)
        if ec.color(b, c) != col or ec.color(c, d) != col:
            continue
        if target == "P4" or ec.color(d, a) == col:
            return True
    return False


def _matrix_good(mat: list[list[int]], t: int, r: int, target: str) -> bool:
    if r >= 3:
        for u, v, w in combinations(range(1, t + 1), 3):
            a, b, c = mat[u][v], mat[u][w], mat[v][w]
            if a != b and a != c and b != c:
                return False
    if t >= 4:
        for a, b, c, d in permutations(range(1, t + 1), 4):
            col = mat[a][b]
            if mat[b][c] != col or mat[c][d] != col:
                continue
            if target == "P4" or mat[d][a] == col:
                return False
    return True


def naive_good_edge_coloring_exists(t: int, r: int, target: str) -> bool:
    """Enumerate all r^C(t,2) edge colorings, stopping at the first good one."""
    edges = list(combinations(range(1, t + 1), 2))
    mat = [[0] * (t + 1) for _ in range(t + 1)]
    for assignment in product(range(1, r + 1), repeat=len(edges)):
        for (u, v), c in zip(edges, assignment):
            mat[u][v] = mat[v][u] = c
        if _matrix_good(mat, t, r, target):
            return True
    return False


# ------------------------------------------------------- reference search

def _grid_new_bad(flat: list[int], m: int) -> bool:
    """Does the newest cell of a row-major prefix close a mono or rainbow rectangle?

    The newest cell comes last in row-major order, so it is the lower right
    corner of every rectangle it closes.
    """
    i2, j2 = divmod(len(flat) - 1, m)
    for i in range(i2):
        for j in range(j2):
            corners = {flat[i * m + j], flat[i * m + j2], flat[i2 * m + j], flat[-1]}
            if len(corners) in (1, 4):
                return True
    return False


def _edge_new_bad(col: dict[tuple[int, int], int], t: int, target: str, u: int, v: int) -> bool:
    """Does the newest edge (u, v) close a rainbow triangle or mono target with assigned edges?

    col holds the color of every assigned edge under both of its orientations.
    """
    color = col.get
    others = [x for x in range(1, t + 1) if x not in (u, v)]
    for w in others:
        cs = (color((u, v)), color((u, w)), color((v, w)))
        if None not in cs and len(set(cs)) == 3:
            return True
    for x, y in permutations(others, 2):
        for a, b, c, d in ((x, u, v, y), (u, v, x, y), (x, y, u, v), (x, v, u, y), (v, u, x, y), (x, y, v, u)):
            walk = [color((a, b)), color((b, c)), color((c, d))]
            if target == "C4":
                walk.append(color((d, a)))
            if None not in walk and len(set(walk)) == 1:
                return True
    return False


def reference_search(
    slots: int,
    r: int,
    bad: Callable[[list[int]], bool],
    floor: Callable[[list[int]], int],
    color_symmetry: bool,
    budget: int | None,
) -> tuple[str, list[int] | None, int]:
    """Plain recursive search; returns (verdict, colors, nodes).

    Slots take colors in order 1..r, one node per color tried, and bad(colors)
    rejects an assigned prefix whose shorter prefixes it accepted.  With color_symmetry a slot may open at most
    one color beyond those already used, and floor(colors) is the least color
    the next slot may take.  A budget overrun reports budget + 1 nodes.
    """
    colors: list[int] = []
    nodes = 0

    class Overrun(Exception):
        pass

    def descend() -> bool:
        nonlocal nodes
        if len(colors) == slots:
            return True
        top = min(r, max(colors, default=0) + 1) if color_symmetry else r
        for c in range(floor(colors), top + 1):
            nodes += 1
            if budget is not None and nodes > budget:
                raise Overrun
            colors.append(c)
            if not bad(colors) and descend():
                return True
            colors.pop()
        return False

    try:
        found = descend()
    except Overrun:
        return "budget", None, budget + 1
    return ("found", colors, nodes) if found else ("exhausted", None, nodes)


def naive_hall_fails(rows: list[list[int]], r: int) -> bool:
    """Do the columns of `rows` that hold every color 1..r break Hall's condition?

    Column j offers the pairs (k, rows[k][j]).  Hall's condition asks that every
    set of such full columns offer, between them, at least as many pairs as it
    has columns; this tries every set.
    """
    offers = []
    for col in zip(*rows):
        if set(col) == set(range(1, r + 1)):
            offers.append(set(enumerate(col)))
    for size in range(2, len(offers) + 1):
        for chosen in combinations(offers, size):
            if len(set().union(*chosen)) < size:
                return True
    return False


def reference_grid_search(
    n: int,
    m: int,
    r: int,
    color_symmetry: bool,
    row_order_symmetry: bool,
    col_order_symmetry: bool,
    budget: int | None,
    row_matching: bool = False,
    column_count: bool = False,
) -> tuple[str, list[int] | None, int]:
    """Row-major cells; with row_order_symmetry a row stays >= the row above it,
    and with col_order_symmetry a column, read top-down, stays >= the column to its left.

    With row_matching the first cell of a row i >= 1 is rejected, whatever its
    color, when the rows above break Hall's condition (naive_hall_fails).  With
    column_count a cell (i, j), j >= 1 and r - 1 <= i <= n - 2, is rejected,
    whatever its color, when the columns among 0..j-1 whose rows 0..i hold
    every color offer fewer distinct (row, color) pairs than there are of them.
    """

    def row_floor(flat: list[int]) -> int:
        k = len(flat)
        i, j = divmod(k, m)
        if not row_order_symmetry or i == 0:
            return 1
        above = flat[(i - 1) * m:(i - 1) * m + j + 1]
        return above[j] if flat[i * m:k] == above[:j] else 1

    def col_floor(flat: list[int]) -> int:
        i, j = divmod(len(flat), m)
        if not col_order_symmetry or j == 0:
            return 1
        left = flat[j - 1::m]  # column j-1 down to row i
        return left[i] if flat[j::m] == left[:i] else 1

    def floor(flat: list[int]) -> int:
        return max(row_floor(flat), col_floor(flat))

    def count_fails(flat: list[int], i: int, j: int) -> bool:
        full = [col for col in (flat[c::m][:i + 1] for c in range(j)) if set(col) == set(range(1, r + 1))]
        return len({(k, c) for col in full for k, c in enumerate(col)}) < len(full)

    def bad(flat: list[int]) -> bool:
        i, j = divmod(len(flat) - 1, m)
        if row_matching and i and not j and naive_hall_fails([flat[k * m:(k + 1) * m] for k in range(i)], r):
            return True
        if column_count and j and r - 1 <= i <= n - 2 and count_fails(flat, i, j):
            return True
        return _grid_new_bad(flat, m)

    return reference_search(n * m, r, bad, floor, color_symmetry, budget)


def _first_use(seq: list[int]) -> list[int]:
    """seq with its colors renumbered 1, 2, ... in order of first appearance."""
    names: dict[int, int] = {}
    return [names.setdefault(c, len(names) + 1) for c in seq]


def not_lex_leader(colors: list[int], perm: list[int]) -> bool:
    """Is colors[:K] > FU(colors o perm)[:K], for the prefix colors of an assignment?

    (colors o perm)[k] = colors[perm[k]], FU renumbers colors by first use,
    and K is the longest k with perm[0..k-1] all inside the prefix.
    """
    K = 0
    while K < len(perm) and perm[K] < len(colors):
        K += 1
    return colors[:K] > _first_use([colors[perm[k]] for k in range(K)])


def reference_edge_search(
    t: int, r: int, target: str, color_symmetry: bool, vertex_symmetry: bool, budget: int | None
) -> tuple[str, list[int] | None, int]:
    """Edges of K_t in colex order, vertex by vertex: (1,2), (1,3), (2,3), (1,4), ...

    Pairs (a, b), a < b, are sorted by b and then by a, so vertex b's edges
    to 1..b-1 follow all of K_{b-1}'s edges.  With vertex_symmetry a prefix
    must be the lex leader under each transposition of vertices i and
    i + 1, acting on the positions of that edge list.
    """
    edges = sorted(combinations(range(1, t + 1), 2), key=lambda e: (e[1], e[0]))
    swaps = []
    if vertex_symmetry:
        for i in range(1, t):
            rename = {i: i + 1, i + 1: i}
            swaps.append([edges.index(tuple(sorted((rename.get(a, a), rename.get(b, b))))) for a, b in edges])

    def bad(colors: list[int]) -> bool:
        col = {}
        for (a, b), c in zip(edges, colors):
            col[a, b] = col[b, a] = c
        if _edge_new_bad(col, t, target, *edges[len(colors) - 1]):
            return True
        return any(not_lex_leader(colors, perm) for perm in swaps)

    return reference_search(len(edges), r, bad, lambda colors: 1, color_symmetry, budget)


def reference_point_coloring(
    points: int, r: int, mono: list[list[int]], rainbow: list[list[int]]
) -> list[int] | None:
    """The least good first-use coloring of points 0..points-1 with r colors, or None.

    Walks every coloring numbered by first use in lexicographic order and
    tests each whole one: good when no mono set has one color and no
    rainbow set has as many colors as points.
    """

    def good(colors: list[int]) -> bool:
        return all(len({colors[p] for p in s}) > 1 for s in mono) and all(
            len({colors[p] for p in s}) < len(s) for s in rainbow
        )

    def walk(colors: list[int]) -> list[int] | None:
        if len(colors) == points:
            return colors if good(colors) else None
        for c in range(1, min(max(colors, default=0) + 1, r) + 1):
            found = walk(colors + [c])
            if found is not None:
                return found
        return None

    return walk([])


# ------------------------------------------------------------- sat side

def _replicate(block: int, width: int, times: int) -> int:
    """Concatenate `times` copies of a width-bit block, lowest block first."""
    if times == 1:
        return block
    half = _replicate(block, width, times // 2)
    out = half | (half << (width * (times // 2)))
    if times % 2:
        out = block | (out << width)
    return out


def coloring_from_index(n: int, m: int, r: int, idx: int) -> GridColoring:
    """Coloring number idx in the row-major mixed-radix order (cell (1,1) most significant)."""
    nm = n * m
    flat = [(idx // r ** (nm - 1 - k)) % r + 1 for k in range(nm)]
    return GridColoring(n, m, r, [flat[i * m:(i + 1) * m] for i in range(n)])


def assignment_from_coloring(g: GridColoring) -> dict[int, bool]:
    """Full truth assignment induced by a coloring: unit color variables plus greedy selectors."""
    n, m, r = g.n, g.m, g.r
    asn: dict[int, bool] = {}
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            for c in range(1, r + 1):
                asn[color_var(m, r, i, j, c)] = g.color(i, j) == c
    nm = n * m
    for p, q in combinations(range(1, nm + 1), 2):
        pi, pj = divmod(p - 1, m)
        qi, qj = divmod(q - 1, m)
        asn[selector_var(n, m, r, p, q)] = g.color(pi + 1, pj + 1) == g.color(qi + 1, qj + 1)
    return asn


def formula_coloring_model_count(cnf: CnfDocument, n: int, m: int, r: int) -> tuple[int, int | None]:
    """Evaluate the formula over ALL r^(n*m) colorings at once, bit-parallel.

    Bit k of each variable mask is the variable's truth value under
    coloring number k (see coloring_from_index).  Selectors are set
    greedily to "the two cells agree", which is the unique maximal choice
    consistent with the channeling clauses; rectangle clauses mention
    selectors only positively, so the formula is satisfiable iff some
    coloring survives under greedy selectors.  Returns (number of
    satisfying colorings, index of the first one or None).
    """
    nm = n * m
    total = r ** nm
    full = (1 << total) - 1
    masks: dict[int, int] = {}
    for cell in range(nm):
        s = nm - 1 - cell
        run_len = r ** s
        run = (1 << run_len) - 1
        period = r ** (s + 1)
        i, j = divmod(cell, m)
        for d in range(r):
            block = run << (d * run_len)
            masks[color_var(m, r, i + 1, j + 1, d + 1)] = _replicate(block, period, total // period)
    for p, q in combinations(range(1, nm + 1), 2):
        pi, pj = divmod(p - 1, m)
        qi, qj = divmod(q - 1, m)
        agree = 0
        for d in range(r):
            agree |= (
                masks[color_var(m, r, pi + 1, pj + 1, d + 1)]
                & masks[color_var(m, r, qi + 1, qj + 1, d + 1)]
            )
        masks[selector_var(n, m, r, p, q)] = agree
    sat = full
    for clause in cnf.clauses:
        acc = 0
        for lit in clause:
            v = masks[abs(lit)]
            acc |= v if lit > 0 else full & ~v
        sat &= acc
        if not sat:
            return 0, None
    first = (sat & -sat).bit_length() - 1
    return sat.bit_count(), first


# ---------------------------------------------------------------- SAT layer

# The SAT layer's encoder, DIMACS writer and reader, model checker and
# model reader as they stood before their bulk rewrite, kept verbatim as the
# reference: one Python step per literal and per token.  Only the names
# changed, and the encoder, like the bulk one, leaves out selectors below
# four colors; documents come back as ReferenceCnf, which keeps the
# clause-by-clause validation.

def cell_index(n: int, m: int, i: int, j: int) -> int:
    """1-based cell id of (i, j) in row-major order."""
    return (i - 1) * m + j


@dataclass
class ReferenceCnf:
    """CnfDocument with its clause-by-clause validation."""

    num_vars: int
    clauses: list[list[int]]
    comments: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise ValueError(f"num_vars must be non-negative, got {self.num_vars}")
        for idx, clause in enumerate(self.clauses):
            if not clause:
                raise ValueError(f"clause {idx} is empty")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"clause {idx} has literal {lit} outside +/-1..{self.num_vars}")


def reference_encode_grid_cnf(n: int, m: int, r: int) -> ReferenceCnf:
    """Encode "a good n x m r-coloring exists" as CNF.

    Clause groups, in emission order: exactly-one color per cell (one
    at-least-one clause plus pairwise at-most-one clauses), selector
    channeling (for each color c, a true e(p, q) and x(p, c) force
    x(q, c); the reverse direction follows from exactly-one and is not
    emitted), then per rectangle the r monochromatic-avoidance clauses and
    one rainbow-avoidance clause over its six pair selectors.  For r < 4
    no rectangle can be rainbow: selectors, channeling and rainbow clauses
    are left out.
    """
    if n < 2 or m < 2 or r < 1:
        raise ValueError(f"require n, m >= 2 and r >= 1, got {(n, m, r)}")
    nm = n * m
    rainbow = r >= 4
    num_vars = nm * r + (nm * (nm - 1) // 2 if rainbow else 0)
    clauses: list[list[int]] = []

    for i in range(1, n + 1):
        for j in range(1, m + 1):
            xs = [color_var(m, r, i, j, c) for c in range(1, r + 1)]
            clauses.append(xs)
            clauses.extend([-a, -b] for a, b in combinations(xs, 2))

    if rainbow:
        for p, q in combinations(range(1, nm + 1), 2):
            e = selector_var(n, m, r, p, q)
            pi, pj = divmod(p - 1, m)
            qi, qj = divmod(q - 1, m)
            for c in range(1, r + 1):
                xp = color_var(m, r, pi + 1, pj + 1, c)
                xq = color_var(m, r, qi + 1, qj + 1, c)
                clauses.append([-e, -xp, xq])

    for i, i2 in combinations(range(1, n + 1), 2):
        for j, j2 in combinations(range(1, m + 1), 2):
            corner_cells = (
                cell_index(n, m, i, j),
                cell_index(n, m, i, j2),
                cell_index(n, m, i2, j),
                cell_index(n, m, i2, j2),
            )
            for c in range(1, r + 1):
                clauses.append(
                    [
                        -color_var(m, r, i, j, c),
                        -color_var(m, r, i, j2, c),
                        -color_var(m, r, i2, j, c),
                        -color_var(m, r, i2, j2, c),
                    ]
                )
            if rainbow:
                clauses.append(
                    [selector_var(n, m, r, p, q) for p, q in combinations(sorted(corner_cells), 2)]
                )

    comments = [
        f"grid n={n} m={m} r={r}",
        f"varmap x(i,j,c)=((i-1)*{m}+(j-1))*{r}+c for 1<=i<={n} 1<=j<={m} 1<=c<={r}",
    ]
    if rainbow:
        comments.append(
            f"varmap e(p,q)={nm * r}+rank(p,q) for cell ids p<q (p=(i-1)*{m}+j), pairs in lexicographic order"
        )
    return ReferenceCnf(num_vars, clauses, comments)


def reference_check_model_against_cnf(cnf: CnfDocument | ReferenceCnf, assignment: Mapping[int, bool]) -> bool:
    """True iff every clause contains a true literal under the assignment.

    The assignment must cover every variable 1..num_vars; anything less is
    an error.  Extra variables are ignored.
    """
    # count covered variables from the assignment, never by scanning 1..num_vars
    covered = {v for v in assignment if isinstance(v, int) and 1 <= v <= cnf.num_vars}
    if len(covered) < cnf.num_vars:
        # scan the int keys only: a float key such as 2.0 covers nothing
        first = next(v for v in range(1, len(covered) + 2) if v not in covered)
        raise ValueError(
            f"assignment covers {len(covered)} of {cnf.num_vars} variables (first missing: {first})"
        )
    for clause in cnf.clauses:
        for lit in clause:
            if assignment[abs(lit)] == (lit > 0):
                break
        else:
            return False
    return True


def reference_format_dimacs(cnf: CnfDocument | ReferenceCnf) -> str:
    """Standard DIMACS CNF text with `c` comment lines and zero-terminated clauses."""
    lines = [f"c {comment}" for comment in cnf.comments]
    lines.append(f"p cnf {cnf.num_vars} {len(cnf.clauses)}")
    lines.extend(" ".join(str(lit) for lit in clause) + " 0" for clause in cnf.clauses)
    return "\n".join(lines) + "\n"


def _canonical_int(tok: str, signed: bool) -> int:
    """int(tok) if tok is written as str() writes an int, negative only when signed; else ValueError."""
    digits = tok[1:] if signed and tok[:1] == "-" else tok
    if not digits or any(ch not in "0123456789" for ch in digits) or (digits[0] == "0" and tok != "0"):
        raise ValueError(f"not a canonical integer: {tok!r}")
    return int(tok)


def _reject_odd_characters(text: str, name: str) -> None:
    """CertificateError at the first character above 0x7F or in \\x0b, \\x0c, \\x1c-\\x1f."""
    for ch in text:
        if ord(ch) > 0x7F or ch in "\x0b\x0c\x1c\x1d\x1e\x1f":
            raise CertificateError(f"bad character {ch!r} in {name}")


def reference_parse_dimacs(text: str) -> ReferenceCnf:
    """Strict DIMACS reader; clause count and variable bounds must match the header."""
    _reject_odd_characters(text, "DIMACS text")
    comments: list[str] = []
    header: tuple[int, int] | None = None
    tokens: list[str] = []
    for line in text.split("\n"):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("c"):
            comments.append(stripped[1:].lstrip())
            continue
        if stripped.startswith("p"):
            if header is not None:
                raise CertificateError("duplicate problem line")
            parts = stripped.split()
            bad = f"bad problem line: {stripped!r}, not `p cnf <num_vars> <num_clauses>`"
            if len(parts) != 4 or parts[1] != "cnf":
                raise CertificateError(bad)
            try:
                header = (_canonical_int(parts[2], False), _canonical_int(parts[3], False))
            except ValueError as exc:
                raise CertificateError(bad) from exc
            continue
        if header is None:
            raise CertificateError("clause data before the problem line")
        tokens.extend(stripped.split())
    if header is None:
        raise CertificateError("missing problem line")
    num_vars, num_clauses = header
    clauses: list[list[int]] = []
    current: list[int] = []
    for tok in tokens:
        try:
            lit = _canonical_int(tok, True)
        except ValueError as exc:
            raise CertificateError(f"bad clause token: {tok!r}") from exc
        if lit == 0:
            if not current:
                raise CertificateError("empty clause in input")
            clauses.append(current)
            current = []
        else:
            current.append(lit)
    if current:
        raise CertificateError("final clause is not zero-terminated")
    if len(clauses) != num_clauses:
        raise CertificateError(f"header promises {num_clauses} clauses, found {len(clauses)}")
    try:
        return ReferenceCnf(num_vars, clauses, comments)
    except ValueError as exc:
        raise CertificateError(str(exc)) from exc


def reference_parse_model_text(text: str) -> dict[int, bool]:
    """Parse solver model output: whitespace-separated signed ints, optional v prefixes and 0s."""
    _reject_odd_characters(text, "model text")
    assignment: dict[int, bool] = {}
    for line in text.split("\n"):
        stripped = line.strip()
        if not stripped or stripped.startswith("s ") or stripped in ("s", "SAT", "SATISFIABLE"):
            continue
        for tok in stripped.split():
            if tok == "v":
                continue
            try:
                lit = _canonical_int(tok, True)
            except ValueError as exc:
                raise CertificateError(f"bad model token: {tok!r}") from exc
            if lit == 0:
                continue
            var = abs(lit)
            value = lit > 0
            if var in assignment and assignment[var] != value:
                raise CertificateError(f"conflicting truth values for variable {var}")
            assignment[var] = value
    return assignment


# ---------------------------------------------------------------- geometry sweeps
#
# Two whole-array numpy sweeps, kept as the reference for the blocked strip
# kernel and for the gadget search on the driver, and the affine rank as one
# LAPACK SVD of the whole difference matrix; they share no code with what they
# check.  numpy is imported inside them so that the grid, graph and SAT tests
# load no numpy through this module.

def reference_falsify_strip(r: int, a: float, b: float, trials: int, seed: int):
    """Whole-array strip falsifier: every trial's arrays are alive at once.

    Makes no range check on b, so b outside [a, sqrt(3)*a] produces hits.
    """
    from gallaikit.euclid import FalsificationReport

    mono, rainbow = _reference_strip_hits(r, a, b, trials, seed)
    return FalsificationReport(trials, int(mono.sum()), int(rainbow.sum()))


def reference_falsify_strip_part(r: int, a: float, b: float, trials: int, seed: int, lo: int, hi: int):
    """(mono, rainbow) hits among trials lo..hi-1 of the whole-array sweep of `trials`."""
    mono, rainbow = _reference_strip_hits(r, a, b, trials, seed)
    return int(mono[lo:hi].sum()), int(rainbow[lo:hi].sum())


def _reference_strip_hits(r: int, a: float, b: float, trials: int, seed: int):
    """Per-trial mono and rainbow flags of the whole-array sweep."""
    import math

    import numpy as np

    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, math.pi, trials)
    cx = rng.uniform(0.0, r * a, trials)
    half_a = a / 2.0
    half_b = b / 2.0
    ux = half_a * np.cos(theta)
    vx = -half_b * np.sin(theta)
    corner_x = (cx + ux + vx, cx + ux - vx, cx - ux + vx, cx - ux - vx)
    colors = [np.floor(x / a).astype(np.int64) % r for x in corner_x]
    c0, c1, c2, c3 = colors
    mono = (c0 == c1) & (c0 == c2) & (c0 == c3)
    rainbow = (
        (c0 != c1) & (c0 != c2) & (c0 != c3) & (c1 != c2) & (c1 != c3) & (c2 != c3)
    )
    return mono, rainbow


def reference_affine_rank(config) -> int:
    """`affine_rank` as numpy.linalg.matrix_rank of the scaled differences to the first point."""
    import numpy as np

    pts = np.array([p.coords for p in config.points], dtype=float)
    if np.abs(pts).max(initial=0.0) > np.finfo(float).max / 2:
        pts /= 2
    diffs = pts[1:] - pts[0]
    scale = np.abs(diffs).max(initial=0.0)
    if scale == 0.0:
        return 0
    return int(np.linalg.matrix_rank(diffs / scale))


def reference_gadget_sweep(triples: list[tuple[str, str, str]]):
    """One 9^6 batch per color of C, OR-ing every triple over the whole batch."""
    import numpy as np

    from gallaikit.euclid import GadgetReport

    hex_labels = ("A1", "A2", "A3", "A4", "A5", "A6")
    n_hex = 9 ** 6
    unraveled = np.unravel_index(np.arange(n_hex), (9,) * 6)
    hex_colors = [arr.astype(np.int8) + 1 for arr in unraveled]
    checked = 0
    first_uncovered = None
    holds = True
    for c_color in (1, 3, 4, 5, 6, 7, 8, 9):
        colors: dict[str, object] = {"A": 1, "B": 2, "C": c_color}
        for lab, arr in zip(hex_labels, hex_colors):
            colors[lab] = arr
        covered = np.zeros(n_hex, dtype=bool)
        for p, q, s in triples:
            cp, cq, cs = colors[p], colors[q], colors[s]
            mono = (cp == cq) & (cq == cs)
            rainbow = (cp != cq) & (cp != cs) & (cq != cs)
            covered |= mono | rainbow
        checked += n_hex
        if not covered.all():
            holds = False
            if first_uncovered is None:
                idx = int(np.argmin(covered))
                first_uncovered = {"A": 1, "B": 2, "C": c_color}
                for lab, arr in zip(hex_labels, hex_colors):
                    first_uncovered[lab] = int(arr[idx])
    return GadgetReport(holds, checked, len(triples), first_uncovered)


def reference_congruent(a, b, tol: float = 1e-9) -> dict[str, str] | None:
    """`congruent` as it was before the sorted-distance pre-check: backtracking alone."""
    import math

    if tol <= 0:
        raise ValueError("tol must be positive")
    if len(a) != len(b):
        raise ValueError(f"size mismatch: {len(a)} vs {len(b)} points")
    k = len(a)
    da = [[math.dist(p.coords, q.coords) for q in a.points] for p in a.points]
    db = [[math.dist(p.coords, q.coords) for q in b.points] for p in b.points]
    mapping = [-1] * k
    used = [False] * k

    def place(idx: int) -> bool:
        if idx == k:
            return True
        for cand in range(k):
            if used[cand]:
                continue
            row_a, row_b = da[idx], db[cand]
            if all(abs(row_a[p] - row_b[mapping[p]]) <= tol for p in range(idx)):
                mapping[idx] = cand
                used[cand] = True
                if place(idx + 1):
                    return True
                used[cand] = False
                mapping[idx] = -1
        return False

    if place(0):
        return {a.points[i].label: b.points[mapping[i]].label for i in range(k)}
    return None


def reference_congruent_prechecked(a, b, tol: float = 1e-9) -> dict[str, str] | None:
    """`congruent` with the sorted-distance pre-check over full distance matrices, then the backtracking."""
    import math

    if tol <= 0:
        raise ValueError("tol must be positive")
    if len(a) != len(b):
        raise ValueError(f"size mismatch: {len(a)} vs {len(b)} points")
    k = len(a)
    da = [[math.dist(p.coords, q.coords) for q in a.points] for p in a.points]
    db = [[math.dist(p.coords, q.coords) for q in b.points] for p in b.points]
    sorted_a = sorted(da[i][j] for i in range(k) for j in range(i))
    sorted_b = sorted(db[i][j] for i in range(k) for j in range(i))
    if max((abs(x - y) for x, y in zip(sorted_a, sorted_b)), default=0.0) > tol:
        return None
    return reference_congruent(a, b, tol)
