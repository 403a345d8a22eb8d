"""Propositional encodings of grid-avoidance instances.

A formula produced here is satisfiable exactly when a good n x m r-coloring
exists.  Cell colors use one boolean per (cell, color); rainbow avoidance
is expressed through equality-selector variables e(p, q): a rectangle
clause demands that some corner pair is equal, and one-directional
channeling clauses make a true selector force the equality.  No solver is
bundled; the module emits standard DIMACS text and re-checks any claimed
model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping

from .grid import CertificateError, GridColoring, verify_good


@dataclass
class CnfDocument:
    """A CNF formula: clause list over variables 1..num_vars plus annotation comments."""

    num_vars: int
    clauses: list[list[int]]
    comments: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        for idx, clause in enumerate(self.clauses):
            if not clause:
                raise ValueError(f"clause {idx} is empty")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"clause {idx} has literal {lit} outside +/-1..{self.num_vars}")


def cell_index(n: int, m: int, i: int, j: int) -> int:
    """1-based cell id of (i, j) in row-major order."""
    return (i - 1) * m + j


def color_var(m: int, r: int, i: int, j: int, c: int) -> int:
    """Variable id of x(i, j, c): true when cell (i, j) has color c."""
    return ((i - 1) * m + (j - 1)) * r + c


def selector_var(n: int, m: int, r: int, p: int, q: int) -> int:
    """Variable id of the equality selector e(p, q) for cell ids p < q.

    Selectors are numbered after all color variables, in lexicographic
    order of the pair (p, q).
    """
    if not 1 <= p < q <= n * m:
        raise ValueError(f"bad cell pair ({p}, {q})")
    # rank of (p, q) among combinations of {1..nm} taken 2 at a time, 1-based
    nm = n * m
    rank = (p - 1) * nm - (p - 1) * p // 2 + (q - p)
    return nm * r + rank


def encode_grid_cnf(n: int, m: int, r: int) -> CnfDocument:
    """Encode "a good n x m r-coloring exists" as CNF.

    Clause groups, in emission order: exactly-one color per cell (one
    at-least-one clause plus pairwise at-most-one clauses), selector
    channeling (a true e(p, q) forces cells p and q to share each color in
    both directions), then per rectangle the r monochromatic-avoidance
    clauses and one rainbow-avoidance clause over its six pair selectors.
    """
    if n < 2 or m < 2 or r < 1:
        raise ValueError(f"require n, m >= 2 and r >= 1, got {(n, m, r)}")
    nm = n * m
    num_vars = nm * r + nm * (nm - 1) // 2
    clauses: list[list[int]] = []

    for i in range(1, n + 1):
        for j in range(1, m + 1):
            xs = [color_var(m, r, i, j, c) for c in range(1, r + 1)]
            clauses.append(xs)
            clauses.extend([-a, -b] for a, b in combinations(xs, 2))

    for p, q in combinations(range(1, nm + 1), 2):
        e = selector_var(n, m, r, p, q)
        pi, pj = divmod(p - 1, m)
        qi, qj = divmod(q - 1, m)
        for c in range(1, r + 1):
            xp = color_var(m, r, pi + 1, pj + 1, c)
            xq = color_var(m, r, qi + 1, qj + 1, c)
            clauses.append([-e, -xp, xq])
            clauses.append([-e, -xq, xp])

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
            clauses.append(
                [selector_var(n, m, r, p, q) for p, q in combinations(sorted(corner_cells), 2)]
            )

    comments = [
        f"grid n={n} m={m} r={r}",
        f"varmap x(i,j,c)=((i-1)*{m}+(j-1))*{r}+c for 1<=i<={n} 1<=j<={m} 1<=c<={r}",
        f"varmap e(p,q)={nm * r}+rank(p,q) for cell ids p<q (p=(i-1)*{m}+j), pairs in lexicographic order",
    ]
    return CnfDocument(num_vars, clauses, comments)


def decode_model(n: int, m: int, r: int, assignment: Mapping[int, bool]) -> GridColoring:
    """Read a coloring out of a model of encode_grid_cnf(n, m, r).

    The assignment must cover all color variables and set exactly one color
    per cell; the decoded coloring must verify good.  Violations raise
    ValueError (a bad decoded coloring signals an encoding bug).
    """
    cells = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, m + 1):
            true_colors = []
            for c in range(1, r + 1):
                var = color_var(m, r, i, j, c)
                if var not in assignment:
                    raise ValueError(f"assignment misses color variable {var} for cell ({i},{j})")
                if assignment[var]:
                    true_colors.append(c)
            if len(true_colors) != 1:
                raise ValueError(
                    f"cell ({i},{j}) has {len(true_colors)} true color variables, expected exactly 1"
                )
            row.append(true_colors[0])
        cells.append(row)
    coloring = GridColoring(n, m, r, cells)
    report = verify_good(coloring)
    if not report.is_good:
        raise ValueError(
            f"decoded coloring is not good (mono={report.mono_witness}, "
            f"rainbow={report.rainbow_witness}); the encoding is buggy"
        )
    return coloring


def check_model_against_cnf(cnf: CnfDocument, assignment: Mapping[int, bool]) -> bool:
    """True iff every clause contains a true literal under the assignment.

    The assignment must cover every variable 1..num_vars; anything less is
    an error.  Extra variables are ignored.
    """
    # count covered variables from the assignment, never by scanning 1..num_vars
    covered = sum(1 for v in assignment if isinstance(v, int) and 1 <= v <= cnf.num_vars)
    if covered < cnf.num_vars:
        first = next(v for v in range(1, covered + 2) if v not in assignment)
        raise ValueError(
            f"assignment covers {covered} of {cnf.num_vars} variables (first missing: {first})"
        )
    for clause in cnf.clauses:
        for lit in clause:
            if assignment[abs(lit)] == (lit > 0):
                break
        else:
            return False
    return True


def format_dimacs(cnf: CnfDocument) -> str:
    """Standard DIMACS CNF text with `c` comment lines and zero-terminated clauses."""
    lines = [f"c {comment}" for comment in cnf.comments]
    lines.append(f"p cnf {cnf.num_vars} {len(cnf.clauses)}")
    lines.extend(" ".join(str(lit) for lit in clause) + " 0" for clause in cnf.clauses)
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> CnfDocument:
    """Strict DIMACS reader; clause count and variable bounds must match the header."""
    comments: list[str] = []
    header: tuple[int, int] | None = None
    tokens: list[str] = []
    for line in text.splitlines():
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
            if len(parts) != 4 or parts[1] != "cnf":
                raise CertificateError(f"bad problem line: {stripped!r}")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError as exc:
                raise CertificateError(f"bad problem line: {stripped!r}") from exc
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
            lit = int(tok)
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
        return CnfDocument(num_vars, clauses, comments)
    except ValueError as exc:
        raise CertificateError(str(exc)) from exc


def parse_model_text(text: str) -> dict[int, bool]:
    """Parse solver model output: whitespace-separated signed ints, optional v prefixes and 0s."""
    assignment: dict[int, bool] = {}
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("s ") or stripped in ("s", "SAT", "SATISFIABLE"):
            continue
        for tok in stripped.split():
            if tok == "v":
                continue
            try:
                lit = int(tok)
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
