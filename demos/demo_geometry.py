#!/usr/bin/env python3
"""Tour the Euclidean constructions: simplices, embeddings, and the gadget.

Two point families do the heavy lifting when transferring finite coloring
statements into Euclidean space: a lattice built from two orthogonal
regular simplices, whose index rectangles are all congruent to one target
rectangle, and the vertex-pair family whose distances read off shared
vertices.  A nine-point gadget does the same for the 30-60-90 triangle
with unit hypotenuse, and the 15 vertex pairs of K6 force a monochromatic
unit square or a rainbow unit triangle with any number of colors.
"""

import math
from itertools import combinations

from gallaikit.euclid import (
    affine_rank,
    congruent,
    distance,
    grid_lattice_embedding,
    planar_rectangle,
    regular_simplex,
    simplex_midpoint_embedding,
    triangle_gadget,
    verify_triangle_gadget,
)
from gallaikit.search import search_good_point_coloring

print("== Regular simplices ==")
simplex = regular_simplex(5, math.sqrt(2))
dists = {round(distance(p, q), 12) for p, q in combinations(simplex.points, 2)}
print(f"6 points, pairwise distances {dists}, affine rank {affine_rank(simplex)}")

print()
print("== Lattice embedding: grid indices become metric rectangles ==")
emb = grid_lattice_embedding(1, 3.0, 4.0)
print(f"family is {emb.rows} x {emb.cols} in {emb.point(1, 1).dim} ambient coordinates")
print("row step:", distance(emb.point(1, 1), emb.point(2, 1)))
print("column step:", distance(emb.point(1, 1), emb.point(1, 2)))
print("diagonal:", distance(emb.point(2, 1), emb.point(1, 2)))
quad = emb.rectangle_configuration(2, 5, 3, 11)
print("random index quadruple congruent to 3x4 rectangle:",
      congruent(quad, planar_rectangle(3.0, 4.0)) is not None)
print("affine rank of the whole family:", affine_rank(emb.configuration()))

print()
print("== Vertex-pair family ==")
pairs = simplex_midpoint_embedding(4)
a, b, c, d = (pairs.point(1, 2), pairs.point(2, 3), pairs.point(3, 4), pairs.point(1, 4))
print("4-cycle image distances:",
      [round(distance(x, y), 12) for x, y in [(a, b), (b, c), (c, d), (a, d), (a, c), (b, d)]])
print("(a unit square: four sides 1, two diagonals sqrt(2))")

print()
print("== The nine-point gadget ==")
config, triples = triangle_gadget()
print(f"{len(config)} points, {len(triples)} triples congruent to the 30-60-90 triangle")
report = verify_triangle_gadget()
print(f"every one of {report.colorings_checked} restricted colorings covered: {report.holds}")

print()
print("== The K6 pair family: mono unit squares or rainbow unit triangles ==")
family = simplex_midpoint_embedding(6)
keys = sorted(family.points)
index = {pair: k for k, pair in enumerate(keys)}


def at(u, v):
    return index[min(u, v), max(u, v)]


squares = sorted({
    tuple(sorted((at(w, x), at(x, y), at(y, z), at(z, w))))
    for a, b, c, d in combinations(range(1, 7), 4)
    for w, x, y, z in ((a, b, c, d), (a, b, d, c), (a, c, b, d))
})
# three pairs at mutual distance 1 share a vertex pairwise: a triangle or a star of K6
triangles = [s for s in combinations(range(len(keys)), 3)
             if all(len(set(keys[p]) & set(keys[q])) == 1 for p, q in combinations(s, 2))]
pts = [family.points[k] for k in keys]
shapes = {tuple(sorted(round(distance(pts[p], pts[q]), 12) for p, q in combinations(s, 2))) for s in squares}
print(f"{len(keys)} points, {len(squares)} 4-cycle squares, each with distances {shapes.pop()},")
print(f"and {len(triangles)} unit triangles (20 triangles and 60 stars of K6)")
for r in (2, len(keys)):
    out = search_good_point_coloring(len(keys), r, squares, triangles)
    print(f"r={r}: {out.kind.value} nodes={out.nodes_visited}")
