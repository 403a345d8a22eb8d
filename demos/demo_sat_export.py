#!/usr/bin/env python3
"""Encode grid-avoidance instances as CNF and check models.

Each cell gets one boolean per color, and monochromatic rectangles are
ruled out with one clause per rectangle and color.  From four colors on,
rainbow rectangles are ruled out with equality-selector variables: some
corner pair of every rectangle must be selected, and a selected pair is
forced to share a color.  That takes one clause per selector e(p, q) and
color c, "e and x(p, c) give x(q, c)"; the reverse direction follows from
each cell having exactly one color, so it is not emitted.  Below four
colors no rectangle can be rainbow, so those formulas have no selectors.
Either way the formula is satisfiable exactly when a good coloring exists.
"""

from gallaikit.grid import GridColoring
from gallaikit.sat import (
    check_model_against_cnf,
    color_var,
    decode_model,
    encode_grid_cnf,
    format_dimacs,
    selector_var,
)
from itertools import combinations

print("== A tiny instance: 2 x 2 grid, 2 colors (no selectors) ==")
cnf = encode_grid_cnf(2, 2, 2)
print(format_dimacs(cnf), end="")

print()
print("== Induced assignments ==")
good = GridColoring(2, 2, 2, [[1, 2], [2, 1]])
bad = GridColoring(2, 2, 2, [[1, 1], [1, 1]])


def induced_assignment(g):
    asn = {}
    for i in range(1, g.n + 1):
        for j in range(1, g.m + 1):
            for c in range(1, g.r + 1):
                asn[color_var(g.m, g.r, i, j, c)] = g.color(i, j) == c
    if g.r >= 4:
        for p, q in combinations(range(1, g.n * g.m + 1), 2):
            pi, pj = divmod(p - 1, g.m)
            qi, qj = divmod(q - 1, g.m)
            asn[selector_var(g.n, g.m, g.r, p, q)] = g.color(pi + 1, pj + 1) == g.color(qi + 1, qj + 1)
    return asn


print("good coloring satisfies formula:", check_model_against_cnf(cnf, induced_assignment(good)))
print("mono coloring satisfies formula:", check_model_against_cnf(cnf, induced_assignment(bad)))

print()
print("== Decoding a model back to a coloring ==")
decoded = decode_model(2, 2, 2, induced_assignment(good))
print("decoded cells:", [list(row) for row in decoded.cells])

print()
print("== Four colors add the selector layer ==")
cnf4 = encode_grid_cnf(2, 2, 4)
rainbow_clause = next(clause for clause in cnf4.clauses if len(clause) == 6)
print(f"2 x 2 grid with 4 colors: {cnf4.num_vars} variables (16 colors + 6 selectors), {len(cnf4.clauses)} clauses")
print("rainbow clause over the six corner-pair selectors:", rainbow_clause)
rainbow = GridColoring(2, 2, 4, [[1, 2], [3, 4]])
print("rainbow coloring satisfies formula:", check_model_against_cnf(cnf4, induced_assignment(rainbow)))

print()
print("== Size of a full-scale export ==")
big = encode_grid_cnf(13, 45, 4)
print(f"13 x 45 grid with 4 colors: {big.num_vars} variables, {len(big.clauses)} clauses")
print("(emit with `gallaikit sat-export 13 45 4 --out instance.cnf` and hand to any solver)")
