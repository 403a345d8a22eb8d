#!/usr/bin/env python3
"""Tour the Euclidean constructions: simplices, embeddings, and the gadget.

Two point families do the heavy lifting when transferring finite coloring
statements into Euclidean space: a lattice built from two orthogonal
regular simplices, whose index rectangles are all congruent to one target
rectangle, and the vertex-pair family whose distances read off shared
vertices.  A nine-point gadget does the same for the 30-60-90 triangle
with unit hypotenuse.
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
