"""Propositional encodings of grid-avoidance instances.

A formula produced here is satisfiable exactly when a good n x m r-coloring
exists.  Cell colors use one boolean per (cell, color).  From four colors
on, rainbow avoidance is expressed through equality-selector variables
e(p, q): a rectangle clause demands that some corner pair is equal, and
one-directional channeling clauses (cell p's color carried to cell q;
the converse follows from exactly-one) make a true selector force the
equality.  Below four colors no rectangle can be rainbow, so the formula
has no selectors.  No solver is bundled; the module emits standard DIMACS
text and re-checks any claimed model.

DIMACS export is byte-stable: the same instance always gives the same
text, and the tests pin SHA-256 digests of `sat-export` files.  The
per-literal work of encoding, formatting, parsing and model checking runs
inside C-level builtins (join, split, map, list.index, set operations);
tests/oracles.py keeps a per-literal reference that the tests compare with.
Encoding and parsing build one list per clause, all tracked by the cyclic
garbage collector, whose full passes would walk the whole growing formula;
those two functions run with the collector paused, and re-enable it on the
way out only if it was enabled on the way in.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from functools import wraps
from itertools import chain, combinations, repeat
from typing import Callable, Mapping, ParamSpec, TypeVar

from .grid import CertificateError, GridColoring, read_uint, require_plain_text, verify_good

P = ParamSpec("P")
T = TypeVar("T")


@dataclass
class CnfDocument:
    """A CNF formula: clause list over variables 1..num_vars plus annotation comments."""

    num_vars: int
    clauses: list[list[int]]
    comments: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        nv = self.num_vars
        if nv < 0:
            raise ValueError(f"num_vars must be non-negative, got {nv}")
        clauses = self.clauses
        # no empty clause, and no literal 0 or outside -nv..nv among the distinct ones
        lits = set(chain.from_iterable(clauses))
        if all(clauses) and 0 not in lits and -nv <= min(lits, default=0) and max(lits, default=0) <= nv:
            return
        for idx, clause in enumerate(clauses):
            if not clause:
                raise ValueError(f"clause {idx} is empty")
            bad = [lit for lit in clause if not lit or not -nv <= lit <= nv]
            if bad:
                raise ValueError(f"clause {idx} has literal {bad[0]} outside +/-1..{nv}")


def color_var(m: int, r: int, i: int, j: int, c: int) -> int:
    """Variable id of x(i, j, c): true when cell (i, j) has color c."""
    return ((i - 1) * m + (j - 1)) * r + c


def selector_var(n: int, m: int, r: int, p: int, q: int) -> int:
    """Variable id of the equality selector e(p, q) for cell ids p < q.

    Selectors are numbered after all color variables, in lexicographic
    order of the pair (p, q).  encode_grid_cnf uses them only for r >= 4;
    below r = 4 the numbers lie past its num_vars and no clause uses them.
    """
    if not 1 <= p < q <= n * m:
        raise ValueError(f"bad cell pair ({p}, {q})")
    # rank of (p, q) among combinations of {1..nm} taken 2 at a time, 1-based
    nm = n * m
    rank = (p - 1) * nm - (p - 1) * p // 2 + (q - p)
    return nm * r + rank


def _collector_paused(func: Callable[P, T]) -> Callable[P, T]:
    """func run with the cyclic garbage collector off, restored to its state on entry."""

    @wraps(func)
    def paused(*args: P.args, **kwargs: P.kwargs) -> T:
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


@_collector_paused
def encode_grid_cnf(n: int, m: int, r: int) -> CnfDocument:
    """Encode "a good n x m r-coloring exists" as CNF.

    Clause groups, in emission order: exactly-one color per cell (one
    at-least-one clause plus pairwise at-most-one clauses), selector
    channeling (per color c one clause [-e(p, q), -x(p, c), x(q, c)]),
    then per rectangle the r monochromatic-avoidance clauses and one
    rainbow-avoidance clause over its six pair selectors.  For r < 4 the
    selectors, their channeling and the rainbow clauses are left out and
    num_vars is n*m*r: four corners cannot take four distinct colors from
    fewer than four, so rainbow avoidance is vacuous there and the formula
    stays satisfiable exactly when a good coloring exists.

    Channeling runs from p to q only; the reverse clause
    [-e, -x(q, c), x(p, c)] is implied.  If e and x(q, c) hold, p has some
    color c' by its at-least-one clause, the kept clause for c' gives
    x(q, c'), and at-most-one at q gives c' = c, so x(p, c) holds.  The
    formula therefore has exactly the models it would have with both
    directions, over the same variables, with r clauses per selector
    instead of 2r.
    """
    if n < 2 or m < 2 or r < 1:
        raise ValueError(f"require n, m >= 2 and r >= 1, got {(n, m, r)}")
    nm = n * m
    top = nm * r  # the last color variable; selectors follow
    rainbow = r >= 4
    num_vars = top + nm * (nm - 1) // 2 if rainbow else top
    colors = range(1, r + 1)
    clauses: list[list[int]] = []
    append = clauses.append

    # Literals are built from variable bases: cell k (0-based, row-major)
    # owns the color variables k*r + c, so color_var(m, r, i, j, c) is
    # ((i-1)*m + j-1)*r + c.
    color_pairs = list(combinations(colors, 2))
    for base in range(0, top, r):
        append(list(range(base + 1, base + r + 1)))
        clauses.extend([-base - a, -base - b] for a, b in color_pairs)

    if rainbow:
        e = top  # selectors are numbered consecutively in pair order
        for p_base in range(0, top, r):
            for q_base in range(p_base + r, top, r):
                e += 1
                not_e = -e
                clauses.extend([not_e, -p_base - c, q_base + c] for c in colors)

    # selector_var(n, m, r, p + 1, q + 1) == sel[p] + q for 0-based cells p < q
    sel = [top + p * nm - p * (p + 1) // 2 - p for p in range(nm)]
    for row in range(0, nm - m, m):
        for row2 in range(row + m, nm, m):
            for j in range(m - 1):
                tl, bl = row + j, row2 + j
                for tr, br in zip(range(tl + 1, row + m), range(bl + 1, row2 + m)):
                    x_tl, x_tr, x_bl, x_br = tl * r, tr * r, bl * r, br * r
                    clauses.extend([-x_tl - c, -x_tr - c, -x_bl - c, -x_br - c] for c in colors)
                    if rainbow:
                        s_tl, s_tr = sel[tl], sel[tr]
                        append([s_tl + tr, s_tl + bl, s_tl + br, s_tr + bl, s_tr + br, sel[bl] + br])

    comments = [
        f"grid n={n} m={m} r={r}",
        f"varmap x(i,j,c)=((i-1)*{m}+(j-1))*{r}+c for 1<=i<={n} 1<=j<={m} 1<=c<={r}",
    ]
    if rainbow:
        comments.append(
            f"varmap e(p,q)={nm * r}+rank(p,q) for cell ids p<q (p=(i-1)*{m}+j), pairs in lexicographic order"
        )
    return CnfDocument(num_vars, clauses, comments)


def decode_model(n: int, m: int, r: int, assignment: Mapping[int, bool]) -> GridColoring:
    """Read a coloring out of a model of encode_grid_cnf(n, m, r).

    The assignment must cover all color variables and set exactly one color
    per cell; the decoded coloring must verify good.  A value is read as in
    check_model_against_cnf: true when it == True, false when it == False,
    and a value that equals neither is an error.  Violations raise
    ValueError (a bad decoded coloring signals an encoding bug).
    """
    colors = range(1, r + 1)
    cells = []
    var = 0  # color_var(m, r, i, j, c), counted up in row-major cell order
    for i in range(1, n + 1):
        row = []
        for j in range(1, m + 1):
            true_colors = []
            for c in colors:
                var += 1
                if var not in assignment:
                    raise ValueError(f"assignment misses color variable {var} for cell ({i},{j})")
                value = assignment[var]
                if value == True:
                    true_colors.append(c)
                elif value != False:
                    raise ValueError(f"color variable {var} has value {value!r}, neither true nor false")
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
    an error.  Extra variables are ignored.  Literal v is true when its
    value == True and -v when its value == False, so a value that equals
    neither satisfies no literal.
    """
    nv = cnf.num_vars
    # count covered variables from the assignment, never by scanning 1..num_vars
    covered = [v for v in assignment if isinstance(v, int) and 1 <= v <= nv]
    if len(covered) < nv:
        # search the covered int keys, not the assignment: a float key such as
        # 2.0 equals 2 but covers nothing.  The keys are distinct, so some value
        # in 1..len(covered)+1 is missing.
        present = set(covered)
        first = next(v for v in range(1, len(covered) + 2) if v not in present)
        raise ValueError(
            f"assignment covers {len(covered)} of {nv} variables (first missing: {first})"
        )
    true_lits = {v for v in covered if assignment[v] == True}
    true_lits.update(-v for v in covered if assignment[v] == False)
    return not any(map(true_lits.isdisjoint, cnf.clauses))


def format_dimacs(cnf: CnfDocument) -> str:
    """Standard DIMACS CNF text with `c` comment lines and zero-terminated clauses."""
    head = [f"c {comment}\n" for comment in cnf.comments]
    head.append(f"p cnf {cnf.num_vars} {len(cnf.clauses)}\n")
    # one string per distinct literal, with its separator; None ends a clause
    text_of = {lit: str(lit) + " " for lit in set(chain.from_iterable(cnf.clauses))}
    text_of[None] = "0\n"
    body = chain.from_iterable(chain.from_iterable(zip(cnf.clauses, repeat((None,)))))
    return "".join(chain(head, map(text_of.__getitem__, body)))


_CHUNK = 1 << 16  # tokens converted per step in parse_dimacs


def _split_head(text: str, marks: str) -> tuple[list[str], list[str]]:
    """The lines that may start with a character of `marks`, and the tokens after them.

    Such a line holds a mark, so it ends no later than the line holding the
    last mark in the text; past that line the text is whitespace-split in
    one go.  Only a line feed ends a line, as in every reader here: a lone
    carriage return stays inside its line.  Line breaks are whitespace, so
    the head's lines and the tail's tokens hold the same tokens as the
    lines of the whole text.
    """
    last = max(map(text.rfind, marks))
    cut = 0 if last < 0 else text.find("\n", last) + 1 or len(text)
    head = text[:cut]
    tokens = text.split()
    del tokens[: len(head.split())]
    return head.split("\n"), tokens


def _token_values(tokens: list[str], special: dict[str, int]) -> dict[str, int | None]:
    """The int of each distinct token that is a literal, None for any other, with `special` tokens preset.

    A literal is exactly what str() writes for its int (`0|-?[1-9][0-9]*`):
    int() also reads `+1`, `01`, `-0`, `1_0` and non-ASCII digits, and those
    do not read back as themselves.
    """
    values: dict[str, int | None] = dict(special)
    for tok in set(tokens).difference(special):
        try:
            value = int(tok)
        except ValueError:  # not a number, or more digits than int() converts
            value = None
        values[tok] = value if str(value) == tok else None
    return values


@_collector_paused
def parse_dimacs(text: str) -> CnfDocument:
    """Strict DIMACS reader; clause count and variable bounds must match the header.

    The header's counts are read by read_uint and each literal must be
    `0|-?[1-9][0-9]*`, so `+1`, `01`, `-0` and `1_0` are format errors.
    The text must be ASCII without \\x0b, \\x0c or \\x1c-\\x1f (`grid.require_plain_text`).
    """
    require_plain_text(text, "DIMACS text")
    lines, tokens = _split_head(text, "cp")
    comments: list[str] = []
    header: tuple[int, int] | None = None
    head_tokens: list[str] = []
    for line in lines:
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
                header = (read_uint(parts[2]), read_uint(parts[3]))
            except ValueError as exc:
                raise CertificateError(bad) from exc
            continue
        if header is None:
            raise CertificateError("clause data before the problem line")
        head_tokens.extend(stripped.split())
    if header is None:
        raise CertificateError("clause data before the problem line" if tokens else "missing problem line")
    num_vars, num_clauses = header
    tokens[:0] = head_tokens

    values = _token_values(tokens, {})
    bad_token = None
    if None in values.values():
        bad_at = list(map(values.__getitem__, tokens)).index(None)
        bad_token = tokens[bad_at]
        del tokens[bad_at:]  # only the tokens before it can raise first
    # convert in place, a slice at a time, so the token strings are freed as
    # they go and no second list the size of the body is ever built
    for k in range(0, len(tokens), _CHUNK):
        tokens[k : k + _CHUNK] = map(values.__getitem__, tokens[k : k + _CHUNK])
    lits = tokens
    clauses: list[list[int]] = []
    start = 0
    while True:
        try:
            stop = lits.index(0, start)
        except ValueError:
            break
        if stop == start:
            raise CertificateError("empty clause in input")
        clauses.append(lits[start:stop])
        start = stop + 1
    if bad_token is not None:
        raise CertificateError(f"bad clause token: {bad_token!r}")
    if start < len(lits):
        raise CertificateError("final clause is not zero-terminated")
    if len(clauses) != num_clauses:
        raise CertificateError(f"header promises {num_clauses} clauses, found {len(clauses)}")
    try:
        return CnfDocument(num_vars, clauses, comments)
    except ValueError as exc:
        raise CertificateError(str(exc)) from exc


def parse_model_text(text: str) -> dict[int, bool]:
    """Parse solver model output: whitespace-separated literals `0|-?[1-9][0-9]*`, optional v prefixes and 0s.

    The text must be ASCII without \\x0b, \\x0c or \\x1c-\\x1f (`grid.require_plain_text`).
    """
    require_plain_text(text, "model text")
    lines, tokens = _split_head(text, "sS")
    head_tokens: list[str] = []
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("s ") or stripped in ("s", "SAT", "SATISFIABLE"):
            continue
        head_tokens.extend(stripped.split())
    tokens[:0] = head_tokens

    values = _token_values(tokens, {"v": 0})
    lits = list(map(values.__getitem__, tokens))
    chosen = set(values.values())
    chosen.discard(0)
    if None in chosen or not chosen.isdisjoint(map(int.__neg__, chosen)):
        seen: set[int] = set()
        for tok, lit in zip(tokens, lits):
            if lit is None:
                raise CertificateError(f"bad model token: {tok!r}")
            if lit and -lit in seen:
                raise CertificateError(f"conflicting truth values for variable {abs(lit)}")
            seen.add(lit)
    # each variable at its first occurrence, true when that literal is positive
    firsts = dict.fromkeys(lits)
    firsts.pop(0, None)
    return dict(zip(map(abs, firsts), map((0).__lt__, firsts)))
