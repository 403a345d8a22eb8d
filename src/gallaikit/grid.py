"""Grid colorings and rectangle detectors.

A grid coloring assigns one of r colors to every cell of an n x m grid.
The detectors look for axis-aligned rectangles whose four corner cells all
share one color (monochromatic) or carry four pairwise-distinct colors
(rainbow).  A coloring is "good" when it contains neither.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Callable, Sequence


class CertificateError(ValueError):
    """A certificate file deviates from its documented text format."""


# a non-negative integer exactly as str() writes it: ASCII digits, no sign, no leading zero
_UINT = "(?:0|[1-9][0-9]*)"
_UINT_RE = re.compile(_UINT)
# such integers, each after the first preceded by one space or one line feed
_UINTS_RE = re.compile(f"{_UINT}(?:[ \n]{_UINT})*")


def read_uint(tok: str) -> int:
    """The non-negative int that str() writes as tok; raises ValueError on any other text."""
    if _UINT_RE.fullmatch(tok) is None:
        raise ValueError(f"not a non-negative integer: {tok!r}")
    return int(tok)


def read_uint_table(lines: list[str], width: int, what: str) -> list[int]:
    """The fields of body lines from split_strict in reading order, each line `width` read_uint tokens.

    Fields are separated by single spaces.  One regex match checks the
    distinct fields and one map converts them, so the work per field is a
    dict lookup.  A line of any other form, or with a field longer than
    int() converts, raises CertificateError(`bad <what> line: <line>`).
    """
    if not lines:
        return []
    fields = " ".join(lines).split(" ")
    distinct = list(set(fields))
    spaces = set(map(str.count, lines, repeat(" ")))
    try:
        if _UINTS_RE.fullmatch("\n".join(distinct)) is None or spaces != {width - 1}:
            raise ValueError
        value = dict(zip(distinct, map(int, distinct)))  # ValueError past int()'s digit limit
    except ValueError as exc:
        bad = next(line for line in lines if not _reads_as_uints(line, width))
        raise CertificateError(f"bad {what} line: {bad!r}") from exc
    return list(map(value.__getitem__, fields))


def _reads_as_uints(line: str, width: int) -> bool:
    # whether line is `width` read_uint tokens separated by single spaces
    try:
        values = list(map(read_uint, line.split(" ")))
    except ValueError:
        return False
    return len(values) == width


# the ASCII characters other than space, tab, CR and LF that str.split() takes for whitespace
_ODD_SEPARATORS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f")


def require_plain_text(text: str, name: str) -> None:
    """Raise CertificateError if text holds a non-ASCII character or one of _ODD_SEPARATORS.

    Readers that split or strip at any whitespace would otherwise take
    those for separators or trailing whitespace: str.split() and
    str.rstrip() take \\x1c and non-ASCII spaces such as U+3000 for
    whitespace, and no writer here emits them.  isascii() and six `in`
    scans cost far less than a regex over the text.
    """
    if not text.isascii() or any(sep in text for sep in _ODD_SEPARATORS):
        bad = next(ch for ch in text if not ch.isascii() or ch in _ODD_SEPARATORS)
        raise CertificateError(f"bad character {bad!r} in {name}")


def split_strict(text: str, keyword: str, readers: Sequence[Callable[[str], Any]], name: str) -> tuple[list, list[str]]:
    """Split a strict text file into its header's fields and its body lines.

    The text must pass require_plain_text.  Lines end at line feeds only,
    and fields are separated by single spaces.  The header is `keyword`
    followed by one field per reader, and each reader turns its token into
    a value or raises ValueError.  Trailing whitespace (a carriage return
    too) and trailing blank lines are dropped; an empty file raises
    `empty <name>` and any other header raises `bad <keyword> header`.
    """
    require_plain_text(text, name)
    lines = [line.rstrip() for line in text.split("\n")]
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise CertificateError(f"empty {name}")
    head = lines[0].split(" ")
    if len(head) != len(readers) + 1 or head[0] != keyword:
        raise CertificateError(f"bad {keyword} header: {lines[0]!r}")
    try:
        values = [read(tok) for read, tok in zip(readers, head[1:])]
    except ValueError as exc:
        raise CertificateError(f"bad {keyword} header: {lines[0]!r}") from exc
    return values, lines[1:]


@dataclass(frozen=True, order=True)
class GridRectangle:
    """Axis-aligned rectangle named by two rows i < i2 and two columns j < j2 (1-based)."""

    i: int
    i2: int
    j: int
    j2: int

    def __post_init__(self) -> None:
        if not (1 <= self.i < self.i2) or not (1 <= self.j < self.j2):
            raise ValueError(f"invalid rectangle indices {(self.i, self.i2, self.j, self.j2)}")

    def corners(self) -> tuple[tuple[int, int], ...]:
        """The four (row, column) corner positions."""
        return ((self.i, self.j), (self.i, self.j2), (self.i2, self.j), (self.i2, self.j2))


class GridColoring:
    """An r-coloring of the n x m grid with colors drawn from {1, ..., r}.

    Instances are immutable after construction.  Each row keeps a column
    bitmask for every color that occurs in it, so the monochromatic detector
    works on words: two rows share a monochromatic rectangle of color c
    exactly when the AND of their color-c masks has at least two bits set.
    Only colors that occur get a mask, so the work is bounded by n*m
    whatever r is.
    """

    __slots__ = ("n", "m", "r", "cells", "_masks")

    def __init__(self, n: int, m: int, r: int, cells: Sequence[Sequence[int]]):
        if n < 1 or m < 1 or r < 1:
            raise ValueError(f"n, m, r must be positive, got {(n, m, r)}")
        if len(cells) != n:
            raise ValueError(f"expected {n} rows, got {len(cells)}")
        rows = []
        masks = []
        for i, raw in enumerate(cells, start=1):
            row = tuple(raw)
            if len(row) != m:
                raise ValueError(f"row {i} has {len(row)} cells, expected {m}")
            per_color: dict[int, int] = {}
            for j, c in enumerate(row):
                if not isinstance(c, int) or not 1 <= c <= r:
                    raise ValueError(f"cell ({i},{j + 1}) has color {c!r}, outside 1..{r}")
                per_color[c] = per_color.get(c, 0) | 1 << j
            rows.append(row)
            masks.append(per_color)
        self.n = n
        self.m = m
        self.r = r
        self.cells = tuple(rows)
        self._masks = tuple(masks)

    def color(self, i: int, j: int) -> int:
        """Color of cell (i, j), indices 1-based."""
        return self.cells[i - 1][j - 1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridColoring):
            return NotImplemented
        return (self.n, self.m, self.r, self.cells) == (other.n, other.m, other.r, other.cells)

    def __hash__(self) -> int:
        return hash((self.n, self.m, self.r, self.cells))

    def __repr__(self) -> str:
        return f"GridColoring(n={self.n}, m={self.m}, r={self.r}, cells={[list(row) for row in self.cells]})"


@dataclass(frozen=True)
class VerificationReport:
    """Combined detector output: the least witness of each kind, or None."""

    mono_witness: GridRectangle | None
    rainbow_witness: GridRectangle | None

    @property
    def is_good(self) -> bool:
        """True exactly when both witnesses are absent."""
        return self.mono_witness is None and self.rainbow_witness is None


def find_mono_rectangle(g: GridColoring) -> GridRectangle | None:
    """Lexicographically least (i, i2, j, j2) monochromatic rectangle, or None."""
    masks = g._masks
    for i in range(g.n - 1):
        mi = masks[i]
        for i2 in range(i + 1, g.n):
            mi2 = masks[i2]
            best = None
            for c in mi:
                if c in mi2:
                    inter = mi[c] & mi2[c]
                    rest = inter & (inter - 1)
                    if rest:  # two or more shared columns
                        j = (inter & -inter).bit_length() - 1
                        j2 = (rest & -rest).bit_length() - 1
                        if best is None or (j, j2) < best:
                            best = (j, j2)
            if best is not None:
                return GridRectangle(i + 1, i2 + 1, best[0] + 1, best[1] + 1)
    return None


def find_rainbow_rectangle(g: GridColoring) -> GridRectangle | None:
    """Lexicographically least rectangle with four pairwise-distinct corners, or None.

    Impossible for r <= 3, so that case returns immediately.  Column pairs
    are prefiltered to those where the two rows disagree, since a rainbow
    corner pair within one column must already use two colors.
    """
    if g.r < 4:
        return None
    cells = g.cells
    columns = range(g.m)
    for i in range(g.n - 1):
        row_i = cells[i]
        for i2 in range(i + 1, g.n):
            cols = [(j, a, b) for j, a, b in zip(columns, row_i, cells[i2]) if a != b]
            for x, (j, a, b) in enumerate(cols):
                for j2, a2, b2 in cols[x + 1 :]:
                    # a != b and a2 != b2 hold by the prefilter
                    if a != a2 and a != b2 and b != a2 and b != b2:
                        return GridRectangle(i + 1, i2 + 1, j + 1, j2 + 1)
    return None


def verify_good(g: GridColoring) -> VerificationReport:
    """Run both detectors and combine them into a report."""
    mono = find_mono_rectangle(g)
    rainbow = find_rainbow_rectangle(g)
    return VerificationReport(mono, rainbow)


def format_grid_certificate(g: GridColoring) -> str:
    """Grid certificate text: `grid n m r` then n lines of m space-separated colors."""
    lines = [f"grid {g.n} {g.m} {g.r}"]
    lines.extend(" ".join(str(c) for c in row) for row in g.cells)
    return "\n".join(lines) + "\n"


def parse_grid_certificate(text: str) -> GridColoring:
    """Strict parser for the grid certificate format; trailing ASCII whitespace is tolerated."""
    (n, m, r), rows = split_strict(text, "grid", (read_uint,) * 3, "grid certificate")
    if len(rows) != n:
        raise CertificateError(f"expected {n} rows, found {len(rows)}")
    cells = read_uint_table(rows, m, "row")
    try:
        return GridColoring(n, m, r, [cells[i * m:(i + 1) * m] for i in range(n)])
    except ValueError as exc:
        raise CertificateError(str(exc)) from exc
