"""Independent truth for the benchmark's correctness gate.

Nothing here imports gallaikit.  Verdicts are judged against known values
(OBS_2, the closed forms for gr_k(K3:C4) and gr_k(K3:P4), the gadget and
strip theorems) and witnesses against plain scans over the definitions, so a
bug in the program's own detectors cannot vouch for itself.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, permutations

# Good witnesses, one row of color digits per line.  load_good_grids()
# re-checks each one with grid_defects() before the benchmark uses it.
_GOOD_GRID_ROWS = {
    (4, 6, 2): ("111222", "122112", "212121", "221211"),
    (4, 5, 4): ("11111", "12222", "12333", "12344"),
    (5, 7, 3): ("1111111", "1222233", "1233322", "2312323", "2313232"),
    (4, 9, 3): ("111111111", "122222333", "212333223", "333123232"),
    (6, 6, 4): ("111111", "122222", "123333", "123444", "134234", "134243"),
    (5, 10, 4): ("1111111111", "1222222222", "1233333444", "1323444334", "1444234343"),
}

# (rows, columns) of the minimal grids every 2-coloring of which has a
# monochromatic rectangle (Fenner, Gasarch, Glover, Purewal).
OBS_2 = ((3, 7), (5, 5), (7, 3))

# verify_triangle_gadget sweeps C != 2 (8 colors) times 9 colors on each of
# the six hexagon points; the gadget has 20 right triangles with sides 1/2,
# sqrt(3)/2 and 1.
GADGET_COLORINGS = 8 * 9**6
GADGET_TRIPLES = 20

Cells = tuple[tuple[int, ...], ...]


def load_good_grids() -> dict[tuple[int, int, int], Cells]:
    grids = {}
    for key, rows in _GOOD_GRID_ROWS.items():
        cells = tuple(tuple(int(ch) for ch in row) for row in rows)
        shape_ok = (len(cells), len(cells[0])) == key[:2] and max(map(max, cells)) <= key[2]
        if not shape_ok or any(grid_defects(cells)):
            raise RuntimeError(f"built-in witness {key} is not a good coloring")
        grids[key] = cells
    return grids


# ---------------------------------------------------------------- grids


def corner_colors(cells: Cells, i: int, i2: int, j: int, j2: int) -> tuple[int, int, int, int]:
    """Corner colors of the rectangle with 1-based rows i, i2 and columns j, j2."""
    return cells[i - 1][j - 1], cells[i - 1][j2 - 1], cells[i2 - 1][j - 1], cells[i2 - 1][j2 - 1]


def is_mono(corners: tuple[int, ...]) -> bool:
    return len(set(corners)) == 1


def is_rainbow(corners: tuple[int, ...]) -> bool:
    return len(set(corners)) == 4


def grid_defects(cells: Cells) -> tuple[bool, bool]:
    """(has a monochromatic rectangle, has a rainbow rectangle) by a plain quadruple scan."""
    n, m = len(cells), len(cells[0])
    mono = rainbow = False
    for i, i2 in combinations(range(1, n + 1), 2):
        for j, j2 in combinations(range(1, m + 1), 2):
            corners = corner_colors(cells, i, i2, j, j2)
            mono = mono or is_mono(corners)
            rainbow = rainbow or is_rainbow(corners)
            if mono and rainbow:
                return True, True
    return mono, rainbow


def good_grid_exists(n: int, m: int, r: int, known: dict[tuple[int, int, int], Cells]) -> bool | None:
    """Whether a good n x m r-coloring exists: OBS_2 for r = 2, known witnesses otherwise."""
    if r == 2:
        return not any(n >= a and m >= b for a, b in OBS_2)
    if any(r == kr and n <= kn and m <= km for kn, km, kr in known):
        return True
    return None


def minimal_forcing_r2(n: int, m_max: int) -> int | None:
    """Least m <= m_max at which every 2-coloring of n x m is forced, from OBS_2."""
    for m in range(1, m_max + 1):
        if not good_grid_exists(n, m, 2, {}):
            return m
    return None


def random_grid(rng: random.Random, n: int, m: int, r: int) -> Cells:
    return tuple(tuple(rng.randint(1, r) for _ in range(m)) for _ in range(n))


def shuffle_grid(rng: random.Random, cells: Cells, r: int) -> Cells:
    """Permute rows, columns and color names; goodness is invariant under all three."""
    rows = list(cells)
    rng.shuffle(rows)
    cols = list(range(len(cells[0])))
    rng.shuffle(cols)
    names = list(range(1, r + 1))
    rng.shuffle(names)
    return tuple(tuple(names[row[j] - 1] for j in cols) for row in rows)


def grid_text(n: int, m: int, r: int, cells: Cells) -> str:
    """The documented grid certificate text: `grid n m r` and n rows."""
    return f"grid {n} {m} {r}\n" + "".join(" ".join(map(str, row)) + "\n" for row in cells)


def read_grid_text(text: str) -> tuple[int, int, int, Cells]:
    """Read a grid certificate, or the grid part of a found search certificate."""
    lines = [line.split() for line in text.splitlines() if line.strip()]
    if lines and lines[0][0] == "outcome":
        lines = lines[1:]
    if not lines or len(lines[0]) != 4 or lines[0][0] != "grid":
        raise ValueError("no grid header")
    n, m, r = map(int, lines[0][1:])
    cells = tuple(tuple(map(int, row)) for row in lines[1:])
    if len(cells) != n or any(len(row) != m for row in cells):
        raise ValueError("grid shape disagrees with its header")
    return n, m, r, cells


# ------------------------------------------------------- complete graphs

# An edge coloring of K_t is a dict {(u, v): color} over 1 <= u < v <= t.
EdgeColors = dict[tuple[int, int], int]


def _col(colors: EdgeColors, u: int, v: int) -> int:
    return colors[(u, v) if u < v else (v, u)]


def gr_number(target: str, k: int) -> int:
    """gr_k(K3 : C4) = k + 4 and gr_k(K3 : P4) = k + 3 (Faudree, Gould, Jacobson, Magnant)."""
    return k + (4 if target == "C4" else 3)


def rainbow_triangle(colors: EdgeColors, u: int, v: int, w: int) -> bool:
    return len({_col(colors, u, v), _col(colors, u, w), _col(colors, v, w)}) == 3


def mono_path(colors: EdgeColors, path: tuple[int, ...]) -> bool:
    return len({_col(colors, a, b) for a, b in zip(path, path[1:])}) == 1


def mono_cycle(colors: EdgeColors, cycle: tuple[int, ...]) -> bool:
    return mono_path(colors, cycle + cycle[:1])


def edge_defects(t: int, colors: EdgeColors) -> tuple[bool, bool, bool]:
    """(rainbow triangle, mono C4, mono P4) by scanning every triple and ordered quadruple."""
    vertices = range(1, t + 1)
    rainbow = any(rainbow_triangle(colors, *tri) for tri in combinations(vertices, 3))
    c4 = p4 = False
    for quad in permutations(vertices, 4):
        p4 = p4 or mono_path(colors, quad)
        c4 = c4 or mono_cycle(colors, quad)
        if c4 and p4:
            break
    return rainbow, c4, p4


def random_edge_coloring(rng: random.Random, t: int, r: int) -> EdgeColors:
    return {pair: rng.randint(1, r) for pair in combinations(range(1, t + 1), 2)}


def gallai_edge_coloring(rng: random.Random, t: int, r: int) -> EdgeColors:
    """A coloring with no rainbow triangle, built by Gallai substitution.

    The vertices split into blocks; edges between blocks follow a 2-coloring
    of the reduced graph and each block is colored recursively.  Substituting
    into a 2-colored reduced graph never creates a rainbow triangle.
    """
    colors: EdgeColors = {}

    def fill(block: list[int]) -> None:
        if len(block) < 2:
            return
        k = rng.randint(2, min(4, len(block)))
        cuts = sorted(rng.sample(range(1, len(block)), k - 1))
        parts = [block[a:b] for a, b in zip([0, *cuts], [*cuts, len(block)])]
        pair_colors = rng.sample(range(1, r + 1), 2) if r >= 2 else [1, 1]
        for x, y in combinations(range(k), 2):
            c = rng.choice(pair_colors)
            for u in parts[x]:
                for v in parts[y]:
                    colors[(min(u, v), max(u, v))] = c
        for part in parts:
            fill(part)

    fill(list(range(1, t + 1)))
    return colors


def kgraph_text(t: int, r: int, colors: EdgeColors) -> str:
    """The documented kgraph certificate text: `kgraph t r` and one `u v c` line per edge."""
    return f"kgraph {t} {r}\n" + "".join(f"{u} {v} {colors[(u, v)]}\n" for u, v in sorted(colors))


# ------------------------------------------------------------------ CNF


def read_dimacs(text: str) -> tuple[int, list[list[int]]]:
    """(num_vars, clauses) of a DIMACS file; the clause count must match the header."""
    header = None
    literals: list[int] = []
    for line in text.splitlines():
        words = line.split()
        if not words or words[0] == "c":
            continue
        if words[0] == "p":
            header = (int(words[2]), int(words[3]))
        else:
            literals.extend(map(int, words))
    if header is None:
        raise ValueError("no problem line")
    clauses, current = [], []
    for lit in literals:
        if lit:
            current.append(lit)
        else:
            clauses.append(current)
            current = []
    if current or len(clauses) != header[1]:
        raise ValueError("clause count disagrees with the problem line")
    return header[0], clauses


def satisfies(clauses: list[list[int]], model: dict[int, bool]) -> bool:
    return all(any(model[abs(lit)] == (lit > 0) for lit in clause) for clause in clauses)


def model_text(model: dict[int, bool]) -> str:
    return "v " + " ".join(str(v if model[v] else -v) for v in sorted(model)) + " 0\n"


# ------------------------------------------------------------- geometry


def strip_oracle(r: int, a: float):
    """Vertical strips of width a colored floor(x / a) mod r."""
    return lambda x, y: math.floor(x / a) % r
