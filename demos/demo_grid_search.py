#!/usr/bin/env python3
"""Walk through grid colorings: detection, search, and forcing thresholds.

A coloring of the n x m grid is "good" when no axis-aligned rectangle has
four equal-colored corners (monochromatic) and none has four pairwise
distinct corners (rainbow).  This script shows the detectors on small
examples, then lets the backtracking engine find witnesses and exhaust
small spaces, and finally computes the least forcing width for three rows
and two colors.
"""

from gallaikit.grid import GridColoring, find_mono_rectangle, find_rainbow_rectangle, verify_good
from gallaikit.search import (
    Outcome,
    SearchOptions,
    format_search_certificate,
    minimal_forcing_m,
    parse_search_certificate,
    search_good_coloring,
)


def show(g):
    for row in g.cells:
        print("   ", " ".join(str(c) for c in row))


print("== Detectors ==")
g = GridColoring(2, 3, 4, [[1, 1, 2], [3, 1, 4]])
show(g)
print("mono:", find_mono_rectangle(g))
print("rainbow:", find_rainbow_rectangle(g))
print("report:", verify_good(g))

print()
print("== Searching for good colorings ==")
for n, m, r in [(2, 2, 1), (2, 2, 4), (3, 6, 2), (3, 7, 2)]:
    out = search_good_coloring(n, m, r)
    print(f"{n}x{m} grid, {r} colors -> {out.kind.value} ({out.nodes_visited} nodes)")
    if out.kind is Outcome.FOUND:
        show(out.witness)

print()
print("== Certificates round-trip ==")
out = search_good_coloring(3, 6, 2)
text = format_search_certificate(out, 3, 6, 2)
print(text, end="")
parsed, _, _, _ = parse_search_certificate(text)
print("re-verified:", verify_good(parsed.witness).is_good)

print()
print("== Forcing threshold for three rows, two colors ==")
threshold = minimal_forcing_m(3, 2, 10)
print("least width with no good coloring:", threshold)

print()
print("== Honest budgets ==")
out = search_good_coloring(13, 45, 4, SearchOptions(node_budget=50_000))
print("13x45 grid, 4 colors, 50k-node budget ->", out.kind.value)
