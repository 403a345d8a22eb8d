#!/usr/bin/env python3
"""Planar colorings: the strip construction and the rainbow-segment walk.

Coloring vertical strips of width a cyclically with r colors avoids both
monochromatic and rainbow copies of any a x b rectangle as long as
a <= b <= sqrt(3) * a: a congruent copy can neither fit inside one strip
nor stretch across four distinct ones.  The falsifier hammers that claim
with a million random placements.  Separately, whenever a planar coloring
uses two colors at all, a short walk plus one perpendicular-bisector apex
produces two differently-colored points at any requested distance.
"""

import math

from gallaikit.euclid import falsify_strip, halfplane_oracle, rainbow_segment, strip_oracle

print("== Strip coloring basics ==")
color = strip_oracle(3, 1.0)
for p in [(0.0, 0.0), (2.5, 7.0), (-0.5, 0.0)]:
    print(f"strip_oracle(3, 1){p} = {color(*p)}")

print()
print("== Monte-Carlo falsification (expected: zero hits) ==")
for r, a, b in [(3, 1.0, 1.0), (3, 1.0, 1.5), (4, 1.0, math.sqrt(3))]:
    rep = falsify_strip(r, a, b, 10 ** 6, seed=42)
    print(f"r={r}, {a} x {b:.4f}: mono={rep.mono_hits} rainbow={rep.rainbow_hits} "
          f"over {rep.trials} placements")

print()
print("== Rainbow segments at a prescribed distance ==")
res = rainbow_segment(halfplane_oracle, 1.0, (-5.0, 0.0), (5.0, 0.0))
print(f"half-plane oracle: {res.p} / {res.q} after {res.iterations} iterations, "
      f"|pq| = {math.dist(res.p, res.q)}")

oracle = strip_oracle(2, 1.0)
res = rainbow_segment(oracle, 0.3, (0.5, 0.0), (3.7, 2.0))
print(f"strip oracle: {res.p} / {res.q}, colors "
      f"{oracle(*res.p)} vs {oracle(*res.q)}, |pq| = {math.dist(res.p, res.q):.12f}")
