"""The backtracking driver shared by the engines, and the grid and point-set engines on top of it.

`backtrack` assigns colors to an ordered list of slots in one depth-first
walk in this process, one node per tried color, with first-use color
numbering and a node budget.  An engine supplies the local check as two
callbacks: `fits(pos, hi)` returns, once per slot visit, the bitmask of
colors in 1..hi that slot pos may take, and `place(pos, c)` assigns a
color without checking it (with `unplace` to undo it).  An engine may
also pass slot permutations that are symmetries of its instances, and the
driver then keeps only lex leaders under them.  The K_t edge engine lives
in `graphs` and passes the swaps of adjacent vertices.
`search_good_point_coloring` colors a finite point set so that no set of
one list is monochromatic and no set of another is rainbow; the nine-point
gadget of `euclid` is one of its instances.

The grid engine keeps the grid as a list of columns, assigns cells in
row-major order and rejects a color as soon as it would complete a
monochromatic or rainbow rectangle with earlier cells.  Only that test
depends on r.  Below four colors no rectangle is rainbow, and the engine
keeps a column bitmask per (row, color), so the mono test is one AND per
row above.  From four colors on it keeps a pair state for each pair of
rows k < i: one bit for each unordered pair {x, y} of colors, x = y
allowed, that rows k and i hold in one column so far.  Placing a cell ORs
one bit into the state of each row above, and unplacing restores the
states saved for that slot.  The test of cell (i, j) reads, for each row
k above, allowed[state][b] with b the color of cell (k, j); the table is
cached per search and made from the state's set bits on first use.  It
is exact: a color c closes a mono rectangle with row k iff c = b and the
state holds {b, b}, and a rainbow one iff c != b and some pair {x, y},
x != y, of the state avoids b and does not contain c.  So the allowed
colors are b, unless the state holds {b, b}, together with the
intersection of the state's pairs that avoid b.

The grid engine visits only colorings whose colors are numbered by first
use, whose rows are lexicographically nondecreasing, and whose columns,
each read top-down, are lexicographically nondecreasing too (the
"double-lex" reduction of Flener et al., "Breaking row and column
symmetries in matrix models", CP 2002).  By the lex-leader argument
(Crawford, Ginsberg, Luks and Roy, "Symmetry-breaking predicates for
search problems", KR 1996) this changes no Found/Exhausted verdict.
Renaming colors and permuting rows or columns map good colorings to good
colorings.  Read a coloring as its cells in row-major order and take the
least member of an orbit under rows x columns x colors.  Its rows are
nondecreasing: otherwise swapping two adjacent rows that are out of order
gives a smaller member.  Its columns are nondecreasing: if column j-1 is
greater than column j, swapping them changes no row above the first row
where the two columns differ, and there puts the smaller cell first, so
the row-major reading gets smaller.  It numbers its colors by first use:
otherwise swapping the first color that skips ahead with the least color
not yet used gives a smaller member.  So every orbit of good colorings
meets the reduced space.  The least good coloring of all is the least
member of its own orbit, so it lies in every such reduced space, and
Found returns it whichever reductions apply: adding one changes node
counts, never witnesses.  The same argument covers the K_t engine, with
vertex renaming in place of rows and columns: the least member of an
orbit under vertices x colors is numbered by first use and is no greater
than its image under any vertex swap, which is what the lex-leader check
of `backtrack` asks.  The grid engine passes no perms: a lex-leader check
on adjacent row and column swaps, in place of the floors, visits more
nodes (157 against 137 on 3 x 7 with two colors, 720 against 377 on 4 x 9
with three).

The floor of `backtrack` keeps rows and columns sorted.  On entering cell
(i, j) it sets two flags from placed cells.  Row i ties row i - 1 when
i >= 1 and either j = 0, or row i tied at cell (i, j - 1) and cells
(i, j - 1) and (i - 1, j - 1) are equal.  Column j ties column j - 1 when
j >= 1 and either i = 0, or column j tied at cell (i - 1, j) and cells
(i - 1, j) and (i - 1, j - 1) are equal.  While a line ties, the floor
has kept each of its cells at or above its neighbor, so equal cells mean
an equal prefix.  Cell (i, j) may then not fall below cell (i - 1, j)
while row i ties, nor below cell (i, j - 1) while column j ties.  The
flags are kept per cell and read by the next cell and the cell below.
That is sound because the driver calls floor once on each entry to a
cell, with every earlier cell placed.

At the start of each row i >= 1, before cell (i, 0), the grid engine also
tests whether any row i can follow the rows above, by a matching bound.
Call a column full when its cells above row i hold every color 1..r.  A
row-i cell of color c in a full column j lies below some cell (k, j) of
color c, and so uses the resource (k, c).  Two row-i cells that use one
resource (k, c) close a mono rectangle with row k.  So a good row i gives
each full column its own resource (k, color of cell (k, j)), k < i, and
when the full columns have no such system of distinct representatives
(Hall's condition fails), fits returns no color at (i, 0).  The test reads
only placed rows, and it rejects only prefixes with no good completion at
all, in the reduced space or outside it.  So, as with the reductions above,
verdicts and Found witnesses stay the same and only node counts fall.

The engine does not wait for the row start when a column is complete.  At
cell (i, j), j >= 1 and r - 1 <= i <= n - 2, call a column among 0..j-1
full through row i when its cells in rows 0..i hold every color.  The same
argument says that row i + 1 must give each such column its own resource
(k, c), k <= i, and these columns' cells in rows 0..i are all placed, so
their resources can no longer change.  When the columns outnumber the
resources they offer between them (Hall's condition on the set of all of
them), no completion of the prefix exists, and fits returns no color at
(i, j).  The count and the union of resources are carried forward from
cell (i, j - 1), so the test costs O(1) per cell.  A column of i cells
holds every color only if i >= r, so the engine builds either test only
when r < n.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import isqrt
from typing import Callable, Generic, Iterable, Sequence, TypeVar

from .grid import (
    CertificateError,
    GridColoring,
    format_grid_certificate,
    parse_grid_certificate,
    read_uint,
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
    assignments).  worker_hint is accepted, and must be positive, but is
    ignored: every search runs in one process.  Each engine always applies
    its symmetry reductions (module docstring).  The point-set search,
    search_good_point_coloring, takes no options yet: it has no budget.
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

    The witness is a GridColoring for grid searches, an EdgeColoring for
    complete-graph searches and the list of the points' colors for
    point-set searches.  Every field is determined by the instance and
    the options, so two runs of one search give equal outcomes.
    """

    kind: Outcome
    witness: W | None
    nodes_visited: int

    def __post_init__(self) -> None:
        if (self.witness is not None) != (self.kind is Outcome.FOUND):
            raise ValueError("witness must be present exactly for Found outcomes")


def _lex_leader_check(perms: Sequence[Sequence[int]], slots: int, top: int, colors: list[int]) -> Callable[[int], bool]:
    """A test that the first-use colors[:pos + 1] are still the lex leader under every g in perms.

    Each g is a permutation of the slots, and y = FU(x o g) is the coloring
    (x o g)[k] = x[g[k]] renumbered by first use.  check(pos) reads colors[pos],
    just assigned, and returns False when some g has x[k] > y[k] at the first
    k where x and y differ, with g[0..k] all assigned; see `backtrack`.  It
    keeps per depth, for each g, None once x < y for good, or the renaming
    of x's colors into y's while they tie: ren[a] is the color y gives to
    x's color a (0 if not met yet), and ren[0] counts the colors met.
    check(pos) reads the state of depth pos, left by the last accepting
    check(pos - 1), and so must run on every slot in order.  No color
    exceeds top.
    """
    for g in perms:
        if sorted(g) != list(range(slots)):
            raise ValueError("each of perms must be a permutation of the slots")
    # steps[pos]: (g's index, the positions k and slots g[k] it compares) for each g
    # whose compared front moves once pos is assigned.  g[0..k] are all assigned
    # exactly when slots 0..max(g[0..k]) are, so the fronts do not depend on colors.
    steps: list[list[tuple[int, tuple[tuple[int, int], ...]]]] = [[] for _ in range(slots)]
    for gi, g in enumerate(perms):
        k = 0
        for pos in range(slots):
            start = k
            while k < slots and g[k] <= pos:
                k += 1
            if k > start:
                steps[pos].append((gi, tuple((j, g[j]) for j in range(start, k))))
    tied: list[list[list[int] | None]] = [[]] * (slots + 1)
    tied[0] = [[0] * (top + 1)] * len(perms)  # shared: a renaming is copied before it changes

    def check(pos: int) -> bool:
        state = tied[pos]
        new = None
        for gi, pairs in steps[pos]:
            ren = state[gi]
            if ren is None:
                continue
            for k, src in pairs:
                a = colors[src]
                b = ren[a]
                if not b:
                    ren = ren[:]
                    b = ren[a] = ren[0] = ren[0] + 1
                x = colors[k]
                if x != b:
                    if x > b:
                        return False
                    ren = None  # x < y from here on, whatever follows
                    break
            if ren is not state[gi]:
                if new is None:
                    new = state[:]
                new[gi] = ren
        tied[pos + 1] = state if new is None else new
        return True

    return check


def backtrack(
    slots: int,
    r: int,
    opts: SearchOptions,
    fits: Callable[[int, int], int],
    place: Callable[[int, int], None],
    unplace: Callable[[int, int], None],
    floor: Callable[[int], int] | None = None,
    perms: Sequence[Sequence[int]] | None = None,
) -> tuple[Outcome, int, list[int] | None]:
    """Assign colors 1..r to slots 0..slots-1 in order; return (verdict, nodes, colors).

    The engine supplies the constraints.  fits(pos, hi) returns a bitmask
    (bit c for color c) of the colors in 1..hi that slot pos may take given
    the slots before it; hi is at least every color assigned so far.  The
    driver calls it once on entering a slot and walks the set bits in
    increasing order.  place(pos, c) assigns c to slot pos without checking
    it, and unplace(pos, c) undoes that.  floor(pos), if given, is the least
    color slot pos may take.  The driver calls it once each time it enters
    slot pos, with slots 0..pos-1 placed and slot pos not, just before
    fits(pos, hi), and not when it comes back to pos from a later slot.  So
    an engine may compute per-slot state in floor from the placed slots and
    read it at later slots: the state of slot pos stays valid until the
    driver next enters pos.  The first full assignment is the witness: an
    engine that must reject a leaf does so through fits at the last slot.
    Colors are numbered by first use, so no color exceeds min(r, slots);
    the constraints must not tell colors apart, so that the least good
    assignment is numbered by first use too (module docstring).  The driver
    owns the rest: a node per tried color and the node budget.  Every color
    in floor..hi counts as a node, also the ones fits rejected, so the
    counts are those of trying each color in turn; a budget overrun reports
    budget + 1 nodes.  A Found verdict carries the lexicographically least
    assignment.  Every exit leaves the engine with nothing assigned.

    perms, if given, lists slot permutations g that map every good
    assignment to a good one, and the driver then also breaks that symmetry
    by the lex-leader rule.  With x the assignment so far and y = FU(x o g),
    where (x o g)[k] = x[g[k]] and FU renumbers colors by first use, a color
    that fits is rejected, and counts as a node, if x[k] > y[k] at the first
    k where x and y differ with g[0..k] all assigned.  This is sound: take
    the least member x of an orbit under the group that perms generate,
    together with color renaming.  x is numbered by first use, and x <=
    FU(x o g) for each g, because FU(x o g) is in the orbit too; so no
    prefix of x is rejected.  As in the module docstring, the least good
    assignment is the least member of its own orbit, so Found returns the
    witness it would return without perms and only node counts fall.
    """
    budget = opts.node_budget
    colors = [0] * slots
    check = None if not perms else _lex_leader_check(perms, slots, min(r, slots), colors)
    # per placed slot: the fitting colors not yet tried there, and hi there
    left_at = [0] * slots
    hi_at = [0] * slots
    nodes = pos = 0
    hi = 1
    try:
        c = floor(pos) - 1 if floor is not None else 0
        left = fits(pos, hi) & -(2 << c)  # colors from c + 1 (the floor) up
        while True:
            if not left:
                # the slot is spent: count the colors after c that fits rejected
                if c < hi:
                    nodes += hi - c
                    if budget is not None and nodes > budget:
                        return Outcome.BUDGET_EXCEEDED, budget + 1, None
                if not pos:
                    return Outcome.EXHAUSTED, nodes, None
                pos -= 1
                c = colors[pos]
                unplace(pos, c)
                left = left_at[pos]
                hi = hi_at[pos]
                continue
            low = left & -left
            left ^= low
            nxt = low.bit_length() - 1
            nodes += nxt - c  # the rejected colors between c and nxt, and nxt
            c = nxt
            if budget is not None and nodes > budget:
                return Outcome.BUDGET_EXCEEDED, budget + 1, None
            colors[pos] = c
            if check is not None and not check(pos):
                continue
            place(pos, c)
            pos += 1
            if pos == slots:
                return Outcome.FOUND, nodes, colors[:]
            left_at[pos - 1] = left
            hi_at[pos - 1] = hi
            if c == hi and hi < r:  # c is new, so the next slot may open c + 1
                hi += 1
            c = floor(pos) - 1 if floor is not None else 0
            left = fits(pos, hi) & -(2 << c)
    finally:
        while pos:
            pos -= 1
            unplace(pos, colors[pos])


def search_good_point_coloring(
    points: int, r: int, mono: Iterable[Iterable[int]], rainbow: Iterable[Iterable[int]]
) -> SearchOutcome[list[int]]:
    """Search for a coloring of points 0..points-1 with colors 1..r that is good for the sets.

    A coloring is good when no set of mono has all its points one color
    and no set of rainbow has all its points pairwise different colors; a
    set may be in both lists.  Each set holds at least two distinct points.
    The witness of a Found outcome is the list of the points' colors.

    backtrack colors the points in index order, and each set is tested at
    its last point, the first slot where all its points are placed, by one
    bitmask rule.  Let seen be the colors of its other points.  A mono set
    whose other points share one color rejects that color, and a rainbow
    set whose other points hold pairwise distinct colors (as many colors
    in seen as other points) keeps only the colors in seen.  A color is
    rejected exactly when it makes some set ending at this point mono or
    rainbow, so the leaves that pass are exactly the good colorings.

    The rule reads only which colors are equal, so renaming colors maps
    good colorings to good colorings, and first-use numbering is sound: the
    least good coloring is numbered by first use, otherwise swapping the
    first color that skips ahead with the least color not yet used gives a
    smaller good one.  backtrack tries colors in increasing order and
    returns its first full assignment, so Found returns the least good
    coloring of all.  A set's verdict depends on the colors of its own
    points alone, which are all placed when it is tested, so a rejected
    color covers every extension of the prefix, and Exhausted proves that
    every r-coloring of the points has a mono set of mono or a rainbow set
    of rainbow.
    """
    if points < 1 or r < 1:
        raise ValueError(f"require points >= 1 and r >= 1, got {(points, r)}")
    mono, rainbow = [tuple(s) for s in mono], [tuple(s) for s in rainbow]
    # at[last]: (the other points, rainbow?) of each set whose last point is last
    at: list[list[tuple[list[int], int]]] = [[] for _ in range(points)]
    for is_rainbow, sets in enumerate((mono, rainbow)):
        for s in sets:
            if len(s) < 2 or len(set(s)) < len(s) or not all(0 <= p < points for p in s):
                raise ValueError(f"each set needs at least 2 distinct points in 0..{points - 1}, got {s}")
            *others, last = sorted(s)
            at[last].append((others, is_rainbow))
    colors = [0] * points

    def fits(pos: int, hi: int) -> int:
        ok = (2 << hi) - 2  # colors 1..hi
        for others, is_rainbow in at[pos]:
            seen = 0
            for p in others:
                seen |= 1 << colors[p]
            if not is_rainbow:
                if not seen & (seen - 1):
                    ok &= ~seen
            elif seen.bit_count() == len(others):
                ok &= seen
        return ok

    # fits reads only earlier points, so unplace may leave a color behind
    kind, nodes, found = backtrack(points, r, SearchOptions(), fits, colors.__setitem__, lambda pos, c: None)
    if found is not None and (
        any(len({found[p] for p in s}) == 1 for s in mono) or any(len({found[p] for p in s}) == len(s) for s in rainbow)
    ):
        raise RuntimeError("point search produced a bad witness; this is a bug")
    return SearchOutcome(kind, found, nodes)


def _matching_bounds(n: int, m: int, r: int) -> tuple[list[int], list[Callable[[int], bool] | None]]:
    """The grid engine's matching bounds (module docstring); for r < n only.

    Returns (res, tests).  res[j] is the resource mask of column j: bit c*n + k
    is set while cell (k, j) holds color c, and the engine's place and unplace
    keep it.  tests[pos] is None or the test that fits runs, as test(pos), on
    entering slot pos.  At a row start (i, 0), i >= r, it is hall, which tells
    whether the full columns, those whose placed cells hold every color 1..r,
    can each get a resource bit of their own.  At a cell (i, j), j >= 1 and
    r - 1 <= i <= n - 2, it is count_test, which tells whether the columns
    0..j-1 that are full through row i offer at least as many resource bits
    between them as there are such columns.  The count tests of a row must run
    in column order, each only after the one before it passed.
    """
    res = [0] * m
    # While row n - 1 is unplaced the top bit, k = n - 1, of each color's n-bit block
    # is clear, so adding `fill` carries into that bit exactly in the blocks that hold
    # a bit: a column is full when (mask + fill) & tops == tops.
    fill = sum(((1 << (n - 1)) - 1) << (c * n) for c in range(1, r + 1))
    tops = sum(1 << (c * n + n - 1) for c in range(1, r + 1))

    def full(mask: int) -> bool:
        return (mask + fill) & tops == tops

    def hall(_pos: int) -> bool:
        masks = [mask for mask in res if full(mask)]
        # give each full column its lowest resource not given yet, and gather them all
        given = union = 0
        for mask in masks:
            union |= mask
            free = mask & ~given
            given |= free & -free
        if given.bit_count() == len(masks):
            return True
        # Hall's condition on the set of all full columns rejects most row starts at once
        return union.bit_count() >= len(masks) and _distinct_representatives(masks)

    # counts[pos] and unions[pos] at a cell pos = (i, j): how many of the columns
    # 0..j-1 are full through row i, and the OR of their masks.  Each is carried
    # forward from cell (i, j - 1), and both stay 0 at row starts.
    counts = [0] * (n * m)
    unions = [0] * (n * m)

    def count_test(pos: int) -> bool:
        mask = res[pos % m - 1]  # the column that the cell before pos completed
        if not full(mask):
            counts[pos] = counts[pos - 1]
            unions[pos] = unions[pos - 1]
            return True  # the same columns passed at the cell before
        count = counts[pos] = counts[pos - 1] + 1
        union = unions[pos] = unions[pos - 1] | mask
        return count <= union.bit_count()

    tests: list[Callable[[int], bool] | None] = [None] * (n * m)
    for i in range(r, n):
        tests[i * m] = hall
    for i in range(r - 1, n - 1):
        tests[i * m + 1:(i + 1) * m] = [count_test] * (m - 1)
    return res, tests


def _distinct_representatives(sets: list[int]) -> bool:
    """Whether each mask in sets can get a set bit of its own, by Kuhn's augmenting paths."""
    owner: dict[int, int] = {}  # bit -> the index of the mask matched to it
    seen = 0

    def augment(k: int) -> bool:
        # match sets[k], moving matched masks along an alternating path
        nonlocal seen
        free = sets[k] & ~seen
        while free:
            bit = free & -free
            seen |= bit
            other = owner.get(bit)
            if other is None or augment(other):
                owner[bit] = k
                return True
            free = sets[k] & ~seen
        return False

    for k in range(len(sets)):
        seen = 0
        if not augment(k):
            return False
    return True


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
    # first-use numbering places no color above top
    top = min(r, n * m)
    # the matching bounds (module docstring): res is empty and every test None unless
    # r < n, since a column of fewer than r cells is never full
    res, tests = _matching_bounds(n, m, r) if r < n else ([], [None] * (n * m))
    # cols[j][i]: the color of cell (i, j), read only while placed (unplace leaves it);
    # per slot in row-major order: (row, column, the column, the column before it,
    # matching test or None)
    cols = [[0] * n for _ in range(m)]
    slot_info = [(i, j, cols[j], cols[j - 1], tests[i * m + j]) for i in range(n) for j in range(m)]
    # row_tie[pos] and col_tie[pos], set by floor on entering slot pos = (i, j): whether
    # row i ties row i - 1 in columns 0..j-1, and column j ties column j - 1 in rows 0..i-1
    row_tie = [False] * (n * m)
    col_tie = [False] * (n * m)

    def floor(pos: int) -> int:
        # sorted rows and columns, from the ties of the slot before and the slot above
        # (module docstring)
        i, j, col, prev, _ = slot_info[pos]
        row = row_tie[pos] = i > 0 and (j == 0 or (row_tie[pos - 1] and prev[i] == prev[i - 1]))
        column = col_tie[pos] = j > 0 and (i == 0 or (col_tie[pos - m] and col[i - 1] == prev[i - 1]))
        low = col[i - 1] if row else 1
        if column and prev[i] > low:
            return prev[i]
        return low

    if r < 4:
        # a rectangle with three colors or fewer is never rainbow
        # col_masks[i][c]: bitmask of the columns where row i holds color c
        col_masks = [[0] * (top + 1) for _ in range(n)]
        # above[i]: (k, col_masks[k]) for each row k < i; per slot in row-major order:
        # (the column, the masks of the row, the rows above, matching test or None)
        above = [list(enumerate(col_masks[:i])) for i in range(n)]
        fit_info = [(cols[j], col_masks[i], above[i], tests[i * m + j]) for i in range(n) for j in range(m)]

        def fits(pos: int, hi: int) -> int:
            # colors that finish no mono rectangle with a row above
            col, masks_i, rows_above, test = fit_info[pos]
            if test is not None and not test(pos):
                return 0
            ok = (2 << hi) - 2  # the bits of colors 1..hi
            for k, masks2 in rows_above:
                b = col[k]
                if masks2[b] & masks_i[b]:
                    ok &= ~(1 << b)  # b would close a mono rectangle
            return ok

        def place(pos: int, c: int) -> None:
            i, j, col, _, _ = slot_info[pos]
            col[i] = c
            col_masks[i][c] |= 1 << j
            if res:
                res[j] |= 1 << (c * n + i)

        def unplace(pos: int, c: int) -> None:
            i, j, _, _, _ = slot_info[pos]
            col_masks[i][c] ^= 1 << j
            if res:
                res[j] ^= 1 << (c * n + i)

    else:
        # pair_state[i][k]: the pair state of rows k < i over the columns placed in row i
        pair_state = [[0] * i for i in range(n)]
        saved: list[list[int]] = [[]] * (n * m)  # pair_state[i] before each slot was placed
        # the pair {x, y}, x <= y, is bit tri[y] + x of a state: pairs are numbered by
        # their larger color, so a state over few colors stays small however large r is
        tri = [y * (y + 1) // 2 for y in range(top + 1)]
        # pair_bits[c][x]: the bit of the pair {c, x}, made up to the largest x met so far
        pair_bits: list[list[int]] = [[] for _ in range(top + 1)]
        # allowed[state][b]: the colors that row i may take below b, the color of row k,
        # under the state of rows k and i; made up to the largest b met so far.  Two
        # disjoint pairs would be a rainbow rectangle, so the pairs x != y of a state
        # pairwise meet, and few states occur.
        allowed: dict[int, list[int]] = {}

        def allowed_at(state: int, b: int) -> int:
            # b unless the state holds {b, b}, and every color in all the state's
            # pairs {x, y}, x != y, that avoid b (module docstring)
            mono = 0
            pairs = []
            rest = state
            while rest:
                low = rest & -rest
                rest ^= low
                idx = low.bit_length() - 1
                y = (isqrt(8 * idx + 1) - 1) // 2
                x = idx - tri[y]
                if x == y:
                    mono |= 1 << x
                else:
                    pairs.append(1 << x | 1 << y)
            table = allowed.setdefault(state, [])
            for b2 in range(len(table), b + 1):
                bit = 1 << b2
                keep = -1
                for pair in pairs:
                    if not pair & bit:
                        keep &= pair
                table.append((keep | bit) & ~(mono & bit))
            return table[b]

        def fits(pos: int, hi: int) -> int:
            # colors that finish no mono or rainbow rectangle with a row above
            i, _, col, _, test = slot_info[pos]
            if test is not None and not test(pos):
                return 0
            ok = (2 << hi) - 2  # the bits of colors 1..hi
            for state, b in zip(pair_state[i], col):
                try:
                    ok &= allowed[state][b]
                except (KeyError, IndexError):  # a state or a b not met before
                    ok &= allowed_at(state, b)
            return ok

        def place(pos: int, c: int) -> None:
            i, j, col, _, _ = slot_info[pos]
            col[i] = c
            if res:
                res[j] |= 1 << (c * n + i)
            states = saved[pos] = pair_state[i]
            bits = pair_bits[c]
            new = []
            for state, a in zip(states, col):
                try:
                    new.append(state | bits[a])
                except IndexError:  # a color placed since c's bits were made
                    bits.extend(1 << (tri[c] + x if x <= c else tri[x] + c) for x in range(len(bits), a + 1))
                    new.append(state | bits[a])
            pair_state[i] = new

        def unplace(pos: int, c: int) -> None:
            i, j, _, _, _ = slot_info[pos]
            if res:
                res[j] ^= 1 << (c * n + i)
            pair_state[i] = saved[pos]

    kind, nodes, colors = backtrack(n * m, r, opts, fits, place, unplace, floor)
    witness = None
    if colors is not None:
        witness = GridColoring(n, m, r, [colors[i * m:(i + 1) * m] for i in range(n)])
        if not verify_good(witness).is_good:
            raise RuntimeError("search engine produced a bad witness; this is a bug")
    return SearchOutcome(kind, witness, nodes)


def threshold_scan(sizes: Iterable[int], search: Callable[[int], SearchOutcome[W]]) -> tuple[int | None, W | None]:
    """(first Exhausted size, witness of the size before it), or (None, last witness).

    A good instance restricts to a good instance one size smaller, so the first
    Exhausted size is the threshold.  Raises Undecided(size) if a node budget stops a size.
    """
    witness = None
    for size in sizes:
        out = search(size)
        if out.kind is Outcome.BUDGET_EXCEEDED:
            raise Undecided(size)
        if out.kind is Outcome.EXHAUSTED:
            return size, witness
        witness = out.witness
    return None, witness


def minimal_forcing_m(n: int, r: int, m_max: int, opts: SearchOptions | None = None) -> int | None:
    """Least m <= m_max with no good n x m r-coloring, or None; Undecided(m) if a budget stops width m."""
    if n < 2 or r < 1 or m_max < 2:
        raise ValueError(f"require n >= 2, r >= 1, m_max >= 2, got {(n, r, m_max)}")
    return threshold_scan(range(1, m_max + 1), lambda m: search_good_coloring(n, m, r, opts))[0]


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
    return read_uint(tok[len("nodes="):])


def parse_search_certificate(text: str) -> tuple[SearchOutcome[GridColoring], int, int, int]:
    """Strict parser for the search certificate format; returns (outcome, n, m, r).

    The exact inverse of format_search_certificate: parsing its text for
    (out, n, m, r) gives back (out, n, m, r).
    """
    header = (Outcome, read_uint, read_uint, read_uint, _nodes)
    (kind, n, m, r, nodes), body = split_strict(text, "outcome", header, "search certificate")
    if min(n, m, r) < 1:
        raise CertificateError("bad outcome header: " + repr(text.partition("\n")[0]))
    witness = None
    if kind is Outcome.FOUND:
        witness = parse_grid_certificate("\n".join(body))
        if (witness.n, witness.m, witness.r) != (n, m, r):
            raise CertificateError("witness dimensions disagree with the outcome header")
    elif body:
        raise CertificateError("unexpected content after non-found outcome header")
    return SearchOutcome(kind, witness, nodes), n, m, r
