"""Euclidean point configurations, congruence, and explicit colorings.

Covers the geometric side of the toolkit: exact-enough point families
(regular simplices, the orthogonal-block lattice of grid points, the
midpoint family indexed by vertex pairs), congruence testing by distance
matching, the planar strip coloring with its Monte-Carlo falsifier, the
constructive rainbow-segment walk, and the nine-point gadget whose finite
enumeration establishes that every coloring of 3-space contains a
monochromatic or rainbow 30-60-90 triangle with unit hypotenuse.

All arithmetic is double precision, except where the strip falsifier
screens its trials in single precision and recomputes in double every
trial the screen cannot settle, so its reports are those of a double
sweep.  Points are tuples of Python floats and every distance is
math.dist of two of them; numpy runs only the affine rank (one
numpy.linalg.matrix_rank) and the strip falsifier (in blocks, on the
calling thread), which import it when they run.  The gadget is an instance of
`search.search_good_point_coloring`: its nine points, the pairs {A, B}
and {B, C} and its 20 triples as sets that may not be monochromatic, and
the same 20 triples as sets that may not be rainbow.
Congruence compares distances with a tolerance of 1e-9 times the largest
pairwise distance of the two configurations, so it does not depend on
their scale: scaling both by a power of two scales every distance, every
difference of two and the tolerance exactly, as long as none of them
overflows or falls below the normal range.  The gadget's triples are
matched by the same rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations, starmap
from operator import sub
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from .grid import CertificateError, read_uint, split_strict

if TYPE_CHECKING:
    import numpy as np

#: congruence tolerance, relative to the largest pairwise distance compared
_REL_TOL = 1e-9

#: side lengths of the 30-60-90 triangle with unit hypotenuse
GADGET_SIDES = (0.5, math.sqrt(3) / 2, 1.0)

ColoringOracle = Callable[[float, float], int]


@dataclass(frozen=True)
class LabeledPoint:
    """A point with a string label and finite real coordinates."""

    label: str
    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        coords = tuple(map(float, self.coords))
        # an infinite or nan coordinate makes the sum inf or nan; a finite sum clears them all
        if not math.isfinite(sum(coords)):
            bad = next((x for x in coords if not math.isfinite(x)), None)
            if bad is not None:
                raise ValueError(f"point {self.label!r} has non-finite coordinate {bad}")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)


class Configuration:
    """A finite ordered set of labeled points sharing one ambient dimension."""

    __slots__ = ("points",)

    def __init__(self, points: Iterable[LabeledPoint]):
        pts = tuple(points)
        if not pts:
            raise ValueError("configuration must contain at least one point")
        dim = pts[0].dim
        labels = set()
        for p in pts:
            if p.dim != dim:
                raise ValueError(f"point {p.label!r} has dimension {p.dim}, expected {dim}")
            if p.label in labels:
                raise ValueError(f"duplicate label {p.label!r}")
            labels.add(p.label)
        self.points = pts

    @property
    def dim(self) -> int:
        return self.points[0].dim

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"Configuration({len(self.points)} points in dim {self.dim})"


def distance(p: LabeledPoint, q: LabeledPoint) -> float:
    """Euclidean distance between two points of the same ambient dimension."""
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.label!r} has {p.dim}, {q.label!r} has {q.dim}")
    return math.dist(p.coords, q.coords)


def congruent(a: Configuration, b: Configuration) -> dict[str, str] | None:
    """Label bijection under which all pairwise distances match, or None.

    Two distances match when they differ by at most tol, 1e-9 times the
    largest pairwise distance of a and b, so the answer does not depend on
    the scale: `grid_lattice_embedding(1, 1.1e8, 1.7e8)` has all its index
    rectangles congruent to `planar_rectangle(1.1e8, 1.7e8)`, and a
    1e-10 x 2e-10 rectangle is not congruent to a 1e-10 x 3e-10 one.  When
    that largest distance overflows to inf, the answer is None.

    The two configurations may live in different ambient dimensions.  The
    search tries assignments in point order with early pruning on the
    first mismatched distance, so the returned bijection is deterministic.
    The distances compared are those distance() returns, so the bijection
    keeps every distance() within tol.

    Before searching, it sorts the pairwise distances of each side and
    returns None when the j-th entries of the two lists differ by more than
    tol for some j.  This rejects only what the search would reject: a
    bijection matching every distance within tol maps the j smallest
    distances of a to j distances of b, each at most tol above the j-th
    smallest of a, so the j-th smallest of b is at most tol above it, and
    by symmetry the j-th entries differ by at most tol.  Rounded
    subtraction is monotone in each argument, so this holds for the
    computed differences too.
    """
    return _congruent_within(a, b, None)


def _congruent_within(a: Configuration, b: Configuration, tol: float | None) -> dict[str, str] | None:
    """congruent with the absolute tolerance tol, or with congruent's own when tol is None."""
    if len(a) != len(b):
        raise ValueError(f"size mismatch: {len(a)} vs {len(b)} points")
    k = len(a)
    # each pair (i, j), i < j, once: math.dist(p, q) == math.dist(q, p) bit for bit
    dist_a = list(starmap(math.dist, combinations([p.coords for p in a.points], 2)))
    dist_b = list(starmap(math.dist, combinations([p.coords for p in b.points], 2)))
    if tol is None:
        tol = _REL_TOL * max(max(dist_a, default=0.0), max(dist_b, default=0.0))
        if not math.isfinite(tol):  # a distance overflowed
            return None
    if max(map(abs, map(sub, sorted(dist_a), sorted(dist_b))), default=0.0) > tol:
        return None
    # da[j]: the distances from point j of a to its points 0..j-1; db: every distance of b
    da: list[list[float]] = [[] for _ in range(k)]
    db = [[0.0] * k for _ in range(k)]
    for (i, j), d, e in zip(combinations(range(k), 2), dist_a, dist_b):
        da[j].append(d)
        db[i][j] = db[j][i] = e
    mapping = [-1] * k
    used = [False] * k

    def place(idx: int) -> bool:
        if idx == k:
            return True
        row_a = da[idx]
        for cand in range(k):
            if used[cand]:
                continue
            row_b = db[cand]
            for d, m in zip(row_a, mapping):
                if not abs(d - row_b[m]) <= tol:  # so a nan difference, inf - inf, fails
                    break
            else:
                mapping[idx] = cand
                used[cand] = True
                if place(idx + 1):
                    return True
                used[cand] = False
                mapping[idx] = -1
        return False

    if place(0):
        return {a.points[i].label: b.points[mapping[i]].label for i in range(k)}
    return None


def regular_simplex(k: int, side: float) -> Configuration:
    """k+1 points with all pairwise distances equal to side.

    Built as the scaled standard basis (side/sqrt(2)) * e_i in k+1 ambient
    coordinates, so every pairwise distance is exact; the family spans a
    k-dimensional affine subspace (check with affine_rank if needed).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if side <= 0:
        raise ValueError("side must be positive")
    scale = side / math.sqrt(2)
    points = []
    for i in range(k + 1):
        coords = [0.0] * (k + 1)
        coords[i] = scale
        points.append(LabeledPoint(f"v{i + 1}", tuple(coords)))
    return Configuration(points)


def affine_rank(config: Configuration) -> int:
    """Dimension of the affine span: the numerical rank of the differences to the first point.

    The differences are divided by their largest absolute entry, so the
    singular values neither overflow nor underflow, and the rank is
    numpy.linalg.matrix_rank's, whose cutoff, s.max() * max(rows, cols) *
    eps, is relative to the largest singular value, so the rank does not
    depend on the scale of the configuration.
    """
    import numpy as np

    pts = np.array([p.coords for p in config.points], dtype=float)
    if np.abs(pts).max(initial=0.0) > np.finfo(float).max / 2:
        pts /= 2  # so no difference overflows; halving numbers this large is exact
    diffs = pts[1:] - pts[0]
    scale = np.abs(diffs).max(initial=0.0)
    if scale == 0.0:
        return 0
    return int(np.linalg.matrix_rank(diffs / scale))


@dataclass(frozen=True)
class LatticeEmbedding:
    """Grid points realized in high dimension so index rectangles become metric rectangles.

    Point (i, j) is the concatenation of the i-th vertex of a side-a
    simplex and the j-th vertex of a side-b simplex in orthogonal
    coordinate blocks, translated so point (1, 1) is the origin.  Rows are
    side a apart, columns side b apart, and every index quadruple
    (i, i2, j, j2) is congruent to the planar a x b rectangle.
    """

    rows: int
    cols: int
    points: Mapping[tuple[int, int], LabeledPoint]

    def point(self, i: int, j: int) -> LabeledPoint:
        return self.points[(i, j)]

    def configuration(self) -> Configuration:
        return Configuration(
            self.points[(i, j)] for i in range(1, self.rows + 1) for j in range(1, self.cols + 1)
        )

    def rectangle_configuration(self, i: int, i2: int, j: int, j2: int) -> Configuration:
        return Configuration(
            (self.points[(i, j)], self.points[(i, j2)], self.points[(i2, j)], self.points[(i2, j2)])
        )


def planar_rectangle(a: float, b: float) -> Configuration:
    """The reference a x b rectangle (0,0), (a,0), (0,b), (a,b) in the plane."""
    return Configuration(
        (
            LabeledPoint("q1", (0.0, 0.0)),
            LabeledPoint("q2", (a, 0.0)),
            LabeledPoint("q3", (0.0, b)),
            LabeledPoint("q4", (a, b)),
        )
    )


def grid_lattice_embedding(r: int, a: float, b: float) -> LatticeEmbedding:
    """The (2r+5) x (11r+1) family A_{i,j} in 13r+6 ambient coordinates.

    A_{i,j} = A_{i,1} + (A_{1,j} - A_{1,1}) with the row simplex (side a)
    and the column simplex (side b) in complementary orthogonal blocks;
    the affine rank of the family is (2r+4) + 11r = 13r+4.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    if a <= 0 or b <= 0:
        raise ValueError("side lengths must be positive")
    rows = 2 * r + 5
    cols = 11 * r + 1
    row_offsets, col_offsets = (
        [list(map(sub, p.coords, simplex.points[0].coords)) for p in simplex.points]
        for simplex in (regular_simplex(rows - 1, a), regular_simplex(cols - 1, b))
    )
    points = {}
    for i, row in enumerate(row_offsets, 1):
        for j, col in enumerate(col_offsets, 1):
            points[(i, j)] = LabeledPoint(f"A{i}_{j}", row + col)
    return LatticeEmbedding(rows, cols, points)


@dataclass(frozen=True)
class PairEmbedding:
    """The C(t,2) midpoint-style points indexed by vertex pairs of K_t.

    Point {i, j} has value 1/sqrt(2) in coordinates i and j and zero
    elsewhere; two points are at distance 1 when their pairs share a
    vertex and sqrt(2) otherwise.  The keys of points are the vertex
    pairs, so any point coloring induces an edge coloring of K_t.
    """

    t: int
    points: Mapping[tuple[int, int], LabeledPoint]

    def point(self, i: int, j: int) -> LabeledPoint:
        return self.points[(i, j)]

    def configuration(self) -> Configuration:
        return Configuration(self.points[pair] for pair in sorted(self.points))


def simplex_midpoint_embedding(t: int) -> PairEmbedding:
    """Build the vertex-pair point family for K_t, t >= 2."""
    if t < 2:
        raise ValueError("t must be at least 2")
    value = 1 / math.sqrt(2)
    points = {}
    for i, j in combinations(range(1, t + 1), 2):
        coords = [0.0] * t
        coords[i - 1] = value
        coords[j - 1] = value
        points[(i, j)] = LabeledPoint(f"m{i}_{j}", tuple(coords))
    return PairEmbedding(t, points)


def halfplane_oracle(x: float, y: float) -> int:
    """Two-coloring of the plane: color 1 left of the y-axis, color 2 elsewhere."""
    return 1 if x < 0.0 else 2


def strip_oracle(r: int, a: float) -> ColoringOracle:
    """The vertical strip coloring as a point oracle.

    The plane splits into strips i*a <= x < (i+1)*a colored i mod r, so
    the color of (x, y) is floor(x/a) mod r as a value in {0, ..., r-1};
    the mathematical mod fixes the convention for negative x.  A point
    where x/a is not finite (it overflows, or x is not finite) has no strip
    and raises ValueError.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    if not 0 < a < math.inf:
        raise ValueError("a must be positive and finite")

    def color(x: float, y: float) -> int:
        strip = x / a
        if not math.isfinite(strip):
            raise ValueError(f"x/a is not finite at x={x!r}, a={a!r}")
        return math.floor(strip) % r

    return color


@dataclass(frozen=True)
class FalsificationReport:
    """Monte-Carlo tally of monochromatic and rainbow placements."""

    trials: int
    mono_hits: int
    rainbow_hits: int


_BLOCK = 1 << 14  # trials per step of the strip falsifier; a step's arrays stay in L2 cache

#: The bound the strip screen rests on: for every double t in [0, pi],
#: |cos(float32(t)) - cos(t)| and |sin(float32(t)) - sin(t)| are at most this,
#: numpy's float32 trig against its float64 trig.  Observed: about 1.6e-7.
TRIG_ERR = 2.0**-12


def _square_at_most_thrice(b: float, a: float) -> bool:
    """b^2 <= 3a^2 in exact arithmetic, for finite a and b."""
    (bn, bd), (an, ad) = b.as_integer_ratio(), a.as_integer_ratio()
    return (bn * ad) ** 2 <= 3 * (an * bd) ** 2


def falsify_strip(r: int, a: float, b: float, trials: int, seed: int) -> FalsificationReport:
    """Attack the strip coloring with random congruent copies of the a x b rectangle.

    Trial i is a placement drawn from one seeded PCG64 stream
    (numpy.random.default_rng(seed)): its rotation angle, uniform in
    [0, pi), is draw i; its center x, uniform in the fundamental domain
    [0, r*a), is draw trials + i.  The strip coloring depends on x alone,
    so the center's y is never drawn.  Trials are drawn and tested in
    blocks of 16,384 on the calling thread, so memory is bounded by the
    block size and not by `trials`.  Which numbers a trial draws depends
    on its index alone, and each hit count is a sum of per-trial tests, so
    reports are reproducible bit for bit and do not depend on the block
    size.

    For a <= b <= sqrt(3)*a no placement can be monochromatic or rainbow,
    so both hit counts are zero: a copy rotated by theta spreads its
    corners over a*|cos theta| + b*|sin theta| in x, which lies in
    [a, sqrt(a^2 + b^2)] and so in [a, 2a].  A spread of at least a puts
    the corners in strips whose indices differ by 1 or 2, which have
    different colors for r >= 3, and a spread of at most 2a puts them in
    at most three strips.  The range is checked exactly: a <= b,
    and b^2 <= 3a^2 in integers over the exact ratios of the two floats,
    so no rounding of sqrt(3)*a can let a b through or turn one away.

    The verdicts are those of a sweep in doubles: a trial with draws u
    and w has the angle pi*u and the center x cx = (r*a)*w, its corners
    are (cx +- ux) +- vx with ux = cos(angle)*(a/2) and vx =
    sin(angle)*(-b/2), and a corner's color is floor(x/a) mod r.
    _StripScreen finds these floors, mostly in single precision.  The
    sweep rounds.  With u = math.ulp(E), E = r*a + a + b, no corner
    exceeds E in size, so a computed x/a lies within 4u/a of the exact one
    at the drawn angle and center.  A false hit needs a corner within 4u
    of a strip boundary (probability at most 32u/a) and a spread within 8u
    of a or 2a, so E must be finite and u at most a/2^32, which keeps
    false hits below 2^-40 per trial.  As E/2^53 < u <= E/2^52 for normal
    E, that accepts every r up to 2^20 - 3 for every normal a, none from
    2^21 on, and keeps floor(x/a) below 2^21; at r*a = 10^16 the spacing
    is 2.
    """
    if r < 3:
        raise ValueError("r must be at least 3")
    if not 0 < a < math.inf:
        raise ValueError("a must be positive and finite")
    if not (a <= b < math.inf and _square_at_most_thrice(b, a)):
        raise ValueError(f"require a <= b <= sqrt(3)*a, got a={a}, b={b}")
    extent = r * a + a + b if r < 2**21 else math.inf  # no r from 2^21 on passes
    if not math.ulp(extent) <= a * 2.0**-32:
        raise ValueError(f"r*a + a + b must be finite, with doubles at most a/2^32 apart, got r={r}, a={a}, b={b}")
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    return _falsify_strip_blocks(r, a, b, trials, seed)


def _falsify_strip_blocks(r: int, a: float, b: float, trials: int, seed: int) -> FalsificationReport:
    """falsify_strip's sweep, without its range checks, in blocks on the calling thread.

    Each PCG64 output is one double, so a generator advanced by `trials`
    steps continues the stream at draw `trials`, and Generator.random(out=)
    continues each stream where the previous block stopped.  A block's
    draws go to a _StripScreen, which gives each trial the code of its
    corners' strip indices, and one np.take from the table that
    _verdict_table builds once per call turns the codes into verdicts,
    0 (neither), 1 (mono) and 2 (rainbow).  The draw buffers are
    allocated once, as are the screen's; a shorter final block uses their
    leading parts.

    No thread is started, so the address space does not grow with the
    number of cores.  The CLI also caps the pool OpenBLAS starts when numpy
    is imported at one thread, unless OPENBLAS_NUM_THREADS says otherwise:
    `strip-falsify 3 1 1.5 --trials 20000000` peaks at 112 MB of VmPeak
    on a 2-core machine, against 153 MB with the default of one OpenBLAS
    thread per core, about 42 MB each.  A sweep split into one run per
    core, each further run on its own thread, peaked at 223 MB there:
    each thread reserves an 8 MB stack and a 64 MB malloc arena.  On the
    screened block step two threads gained under 4 %.
    """
    import numpy as np

    size = min(_BLOCK, trials)
    screen = _StripScreen(r, a, b, size)
    table = _verdict_table(r, screen.base)
    angles = np.random.default_rng(seed)
    centers_x = np.random.Generator(np.random.PCG64(seed).advance(trials))
    turns_buf, shares_buf = np.empty((2, size))
    mono_hits = rainbow_hits = 0
    for first in range(0, trials, _BLOCK):
        n = min(_BLOCK, trials - first)
        turns, shares = turns_buf[:n], shares_buf[:n]
        angles.random(out=turns)
        centers_x.random(out=shares)
        codes, _ = screen(turns, shares)
        verdicts = np.take(table, codes, mode="raise")
        found = int(np.count_nonzero(verdicts))  # mono + rainbow
        if found:
            rainbow = int(verdicts.sum()) - found  # the sum is mono + 2 * rainbow
            mono_hits += found - rainbow
            rainbow_hits += rainbow
    return FalsificationReport(trials, mono_hits, rainbow_hits)


class _StripScreen:
    """The strip falsifier's block step: the code of each trial's four strip indices.

    A trial draws u (its angle's) and w (its center's).  Its corners, in
    the order (cx + ux) + vx, (cx + ux) - vx, (cx - ux) + vx and
    (cx - ux) - vx, get the strip indices k0..k3, k = floor(x/a) of the
    double x/a that falsify_strip's docstring defines.  Their colors are
    k mod r, so the verdict depends only on r and d_i = k_i - k0.  Each
    |d_i| <= 2J (below), and the trial's code is (d1 + 2J)*B^2 +
    (d2 + 2J)*B + (d3 + 2J) for B = base = 4J + 1, one of 0..B^3 - 1.

    The screen.  K = floor(r*w) and the fraction f = r*w - K come from the
    double r*w; with c = cos(t)/2 and s = -(b/2a)*sin(t) from float32 trig
    of t = float32(pi*u), the corner offsets o = (f +- c) +- s are summed
    in float32, and j = floor(o) is the screened k - K.  Nothing of this
    depends on r but f.  A trial with a corner whose o lies within eps of
    an integer, |(o - j) - 1/2| > 1/2 - eps, is recomputed from its draws
    with the double expressions, pi*u, (r*a)*w, cos(angle)*(a/2),
    sin(angle)*(-b/2), the two sums in order, /a and floor: about 0.2-0.3 %
    of trials, at every r.

    Soundness.  Let h = 1/2 + b/(2a) and X one of the sweep's doubles
    x/a.  The screen is sound exactly when the TRIG_ERR bound holds (a
    test checks it at over 10^6 angles): then c and s are within
    TRIG_ERR/2 and (b/2a)*TRIG_ERR of cos(angle)/2 and -(b/2a)*sin(angle)
    for the double cos and sin of the sweep's angle, a sum of TRIG_ERR*h.
    Every other error is below 2^-20*(1 + h): X is within 5u/a <= 2^-29
    of r*w + cos(angle)/2 - (b/2a)*sin(angle) (or its other three sign
    patterns) in exact arithmetic, the 4u/a of falsify_strip's docstring
    and u/a for cx; the double r*w is within 2^-32 of r*w; f's rounding
    to float32 is at most 2^-25, the float32 factor b/2a and product at
    most h*2^-23, the two float32 sums (1 + h)*2^-23, and the float32
    test itself 2^-24.  So with eps = TRIG_ERR*h + 2^-20*(1 + h),
    o and X - K lie on the same side of every integer whenever the trial
    is not recomputed, and j = floor(X) - K.  Both o and X - K lie within
    2*eps of [-h, 1 + h), as f is in [0, 1), so j and floor(X) - K lie in
    [-J, J] for J = floor(h + 2*eps) + 1, and the d_i in [-2J, 2J].  For
    a <= b <= sqrt(3)*a, J = 2 and the table has 9^3 entries.
    """

    def __init__(self, r: int, a: float, b: float, size: int):
        import numpy as np

        half = 0.5 + b / (2.0 * a)
        self.eps = TRIG_ERR * half + 2.0**-20 * (1.0 + half)
        self.base = 4 * (math.floor(half + 2.0 * self.eps) + 1) + 1
        self._r, self._a, self._span = r, a, r * a
        self._half_a, self._neg_half_b = a / 2.0, -(b / 2.0)
        self._ratio = np.float32(-(b / (2.0 * a)))
        self._limit = np.float32(0.5 - self.eps)
        self._singles = np.empty((4, size), dtype=np.float32)
        self._doubles = np.empty((2, size))
        self._corners = np.empty((2, 4 * size), dtype=np.float32)
        self._near = np.empty(size, dtype=bool)
        self._codes = np.empty(size, dtype=np.intp)

    def __call__(self, turns: np.ndarray, shares: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The codes of the trials with draws turns[i] and shares[i], and which were recomputed.

        The codes are a view of the screen's buffer, valid until its next call.
        """
        import numpy as np

        n = len(turns)
        angle, cos, sin, frac = (buf[:n] for buf in self._singles)
        scaled, whole = (buf[:n] for buf in self._doubles)
        offsets, floors = (buf[: 4 * n].reshape(4, n) for buf in self._corners)
        near, codes = self._near[:n], self._codes[:n]
        np.multiply(turns, math.pi, out=angle)  # the double angle, rounded to float32
        np.cos(angle, out=cos)
        cos *= 0.5
        np.sin(angle, out=sin)
        sin *= self._ratio
        np.multiply(shares, self._r, out=scaled)
        np.floor(scaled, out=whole)
        np.subtract(scaled, whole, out=frac)  # exact in doubles, then rounded to float32
        o0, o1, o2, o3 = offsets
        np.add(frac, cos, out=o0)
        np.subtract(frac, cos, out=o2)
        np.subtract(o0, sin, out=o1)
        o0 += sin
        np.subtract(o2, sin, out=o3)
        o2 += sin
        np.floor(offsets, out=floors)
        offsets -= floors  # each offset's fraction
        offsets -= 0.5
        np.abs(offsets, out=offsets)
        np.max(offsets, axis=0, out=frac)
        np.greater(frac, self._limit, out=near)
        k0, k1, k2, k3 = floors
        base = self.base
        k1 *= base
        k1 += k2
        k1 *= base
        k1 += k3
        k0 *= -(base * base + base + 1)
        k0 += base**3 // 2
        np.add(k1, k0, out=codes, casting="unsafe")  # small integers, exact in float32
        exact = np.flatnonzero(near)
        if len(exact):
            codes[exact] = self._exact_codes(turns[exact], shares[exact])
        return codes, exact

    def _exact_codes(self, turns: np.ndarray, shares: np.ndarray) -> np.ndarray:
        """The codes of these trials from the double sweep's own expressions."""
        import numpy as np

        angle = turns * math.pi
        cx = shares * self._span
        ux = np.cos(angle) * self._half_a
        vx = np.sin(angle) * self._neg_half_b
        right, left = cx + ux, cx - ux
        k0, k1, k2, k3 = np.floor(np.stack([right + vx, right - vx, left + vx, left - vx]) / self._a)
        base = self.base
        return (((k1 - k0) * base + (k2 - k0)) * base + (k3 - k0) + base**3 // 2).astype(np.intp)


def _verdict_table(r: int, base: int) -> np.ndarray:
    """The verdict of every code of _StripScreen with this base, for r colors.

    Entry (d1 + R)*base^2 + (d2 + R)*base + (d3 + R), R = base // 2 and
    each |d_i| <= R, is 1 if the strip indices 0, d1, d2, d3 have one
    color mod r, 2 if they have four (never for r < 4) and 0 otherwise.
    np.take(..., mode="raise") raises on a code past the end.
    """
    import numpy as np

    digits = np.indices((base, base, base)).reshape(3, -1) - base // 2
    colors = np.vstack([np.zeros_like(digits[0]), digits]) % r
    mono = (colors == colors[0]).all(axis=0)
    rainbow = np.ones_like(mono)
    for i, j in combinations(range(4), 2):
        rainbow &= colors[i] != colors[j]
    return (mono + 2 * rainbow).astype(np.intp)


MAX_SEGMENT_STEPS = 10**6  # the longest walk rainbow_segment takes, in steps of length d


@dataclass(frozen=True)
class SegmentResult:
    """A rainbow pair at the requested distance, plus the walk's iteration count."""

    p: tuple[float, float]
    q: tuple[float, float]
    iterations: int


def rainbow_segment(
    oracle: ColoringOracle,
    d: float,
    c: tuple[float, float],
    dpt: tuple[float, float],
) -> SegmentResult:
    """Two points at distance d with distinct oracle colors, from a rainbow witness.

    Walks from c toward dpt in steps of length d while the segment is
    longer than 2d, returning early when a step changes color; once within
    2d it takes the apex on the perpendicular bisector at distance d from
    both endpoints (of the two apexes, the lexicographically larger one)
    and pairs it with whichever endpoint disagrees.  Each step shortens the
    segment by d, so in exact arithmetic a walk from |c dpt| > 2d takes at
    most ceil(|c dpt| / d) - 2 steps, and the apex is one more iteration.
    d, both endpoints and |c dpt| / d must be finite, and |c dpt| / d at
    most MAX_SEGMENT_STEPS, since an oracle that changes color only near
    dpt makes the walk take every step; anything else raises ValueError
    before the walk.  In floating point a step near the resolution of the
    coordinates rounds to less than d, or to nothing, so a walk that would
    need more than ceil(|c dpt| / d) + 1 iterations raises ValueError, and
    so does a pair whose distance differs from d by more than a relative
    1e-9.
    """
    if not 0 < d < math.inf:
        raise ValueError("d must be positive and finite")
    cur = (float(c[0]), float(c[1]))
    other = (float(dpt[0]), float(dpt[1]))
    # a non-finite coordinate makes the distance non-finite too
    steps = math.dist(cur, other) / d
    if not math.isfinite(steps):
        raise ValueError("endpoints must be finite and |c dpt| / d must be finite")
    if steps > MAX_SEGMENT_STEPS:
        raise ValueError(f"|c dpt| / d must be at most {MAX_SEGMENT_STEPS}, got {steps!r}")
    col_cur = oracle(*cur)
    col_other = oracle(*other)
    if col_cur == col_other:
        raise ValueError("oracle must give the two starting points distinct colors")
    limit = math.ceil(steps)  # walk steps, leaving one iteration for the apex
    iterations = 0
    while math.dist(cur, other) > 2 * d:
        iterations += 1
        if iterations > limit:
            raise ValueError(
                f"the walk did not end within {limit} steps: d is too small for these coordinates"
            )
        length = math.dist(cur, other)
        nxt = (
            cur[0] + (other[0] - cur[0]) * d / length,
            cur[1] + (other[1] - cur[1]) * d / length,
        )
        if oracle(*nxt) != col_cur:
            return _at_distance(cur, nxt, d, iterations)
        cur = nxt
    iterations += 1
    length = math.dist(cur, other)
    mid = ((cur[0] + other[0]) / 2.0, (cur[1] + other[1]) / 2.0)
    height = math.sqrt(max(d * d - (length / 2.0) ** 2, 0.0))
    normal = (-(other[1] - cur[1]) / length, (other[0] - cur[0]) / length)
    apex = max(
        (mid[0] + height * normal[0], mid[1] + height * normal[1]),
        (mid[0] - height * normal[0], mid[1] - height * normal[1]),
    )
    if oracle(*apex) != col_cur:
        return _at_distance(apex, cur, d, iterations)
    return _at_distance(apex, other, d, iterations)


def _at_distance(p: tuple[float, float], q: tuple[float, float], d: float, iterations: int) -> SegmentResult:
    """rainbow_segment's result, or ValueError when rounding left p and q not d apart."""
    got = math.dist(p, q)
    if not math.isclose(got, d, rel_tol=1e-9):
        raise ValueError(f"the pair found is {got!r} apart, not d={d!r}: these coordinates cannot resolve d")
    return SegmentResult(p, q, iterations)


def triangle_gadget() -> tuple[Configuration, list[tuple[str, str, str]]]:
    """The nine-point gadget and every 3-subset congruent to the 30-60-90 triangle.

    Points: an equilateral triangle A, B, C of side sqrt(3)/2 in the z=0
    plane, plus a regular hexagon A1..A6 of circumradius 1/2 centered at A
    in the plane x=0 (perpendicular to AB) with A1 and A4 on the z-axis
    (the line through A perpendicular to the ABC plane).  The triple list
    is found by matching each 3-subset's sorted sides against 1/2,
    sqrt(3)/2 and 1, within 1e-9 times the largest of the six, as
    `congruent` matches distances.
    """
    s3 = math.sqrt(3)
    config = Configuration(
        (
            LabeledPoint("A", (0.0, 0.0, 0.0)),
            LabeledPoint("B", (s3 / 2, 0.0, 0.0)),
            LabeledPoint("C", (s3 / 4, 0.75, 0.0)),
            LabeledPoint("A1", (0.0, 0.0, 0.5)),
            LabeledPoint("A2", (0.0, s3 / 4, 0.25)),
            LabeledPoint("A3", (0.0, s3 / 4, -0.25)),
            LabeledPoint("A4", (0.0, 0.0, -0.5)),
            LabeledPoint("A5", (0.0, -s3 / 4, -0.25)),
            LabeledPoint("A6", (0.0, -s3 / 4, 0.25)),
        )
    )
    target = sorted(GADGET_SIDES)
    triples = []
    pts = config.points
    for x, y, z in combinations(range(len(pts)), 3):
        dists = sorted(
            (distance(pts[x], pts[y]), distance(pts[x], pts[z]), distance(pts[y], pts[z]))
        )
        tol = _REL_TOL * max(dists[-1], target[-1])
        if all(abs(got - want) <= tol for got, want in zip(dists, target)):
            triples.append((pts[x].label, pts[y].label, pts[z].label))
    return config, triples


@dataclass(frozen=True)
class GadgetReport:
    """Outcome of the finite gadget enumeration."""

    holds: bool
    colorings_checked: int
    triple_count: int
    first_uncovered: dict[str, int] | None


def verify_triangle_gadget() -> GadgetReport:
    """Check that every restricted coloring of the gadget contains a mono or rainbow triple.

    The colorings are those with A = 1, B = 2, C != 2 and C, A1..A6 in 1..9
    (nine colors represent any coloring of nine points up to renaming);
    those fixings encode the symmetry reductions under which the full
    statement follows.  The search is search.search_good_point_coloring
    over the points A, B, C, A1..A6, in that order, with nine colors.  Its
    mono sets are the pairs {A, B} and {B, C} and the 20 triples, and its
    rainbow sets are the same 20 triples.  A two-point mono set makes its
    points differ.  So the uncovered colorings of the 8 * 9^6 are exactly
    the good colorings of the search with A = 1 and B = 2, and Exhausted
    proves them all covered.  Found carries the least good coloring, which
    is numbered by first use and so has A = 1 and B = 2 (and C != 2): it
    is the least uncovered coloring in row-major order over the axes
    C = (1, 3, ..., 9) and A_i = (1..9).
    """
    return _search_gadget(_gadget_triples())[0]


@cache
def _gadget_triples() -> tuple[tuple[str, str, str], ...]:
    """triangle_gadget's triples, computed once per process for verify_triangle_gadget."""
    return tuple(triangle_gadget()[1])


_GADGET_ORDER = ("A", "B", "C", "A1", "A2", "A3", "A4", "A5", "A6")
#: pairs that must differ: with first-use colors they give A = 1, B = 2 and C != 2
_GADGET_PAIRS = (("A", "B"), ("B", "C"))


def _search_gadget(triples: Sequence[tuple[str, str, str]]) -> tuple[GadgetReport, int]:
    """verify_triangle_gadget's search over a given list of gadget triples, and its node count."""
    from .search import search_good_point_coloring

    index = {label: i for i, label in enumerate(_GADGET_ORDER)}
    sets = [[index[label] for label in group] for group in triples]
    pairs = [[index[label] for label in pair] for pair in _GADGET_PAIRS]
    out = search_good_point_coloring(len(_GADGET_ORDER), 9, pairs + sets, sets)
    first_uncovered = None if out.witness is None else dict(zip(_GADGET_ORDER, out.witness))
    return GadgetReport(out.witness is None, 8 * 9**6, len(triples), first_uncovered), out.nodes_visited


def format_configuration(config: Configuration) -> str:
    """Configuration text: `config dim k` then k lines `label x1 ... x_dim`."""
    for p in config.points:
        if not p.label or not p.label.isascii() or any(ch.isspace() for ch in p.label):
            raise ValueError(f"label {p.label!r} cannot be written to the text format")
    lines = [f"config {config.dim} {len(config)}"]
    lines.extend(p.label + " " + " ".join(map(repr, p.coords)) for p in config.points)
    return "\n".join(lines) + "\n"


def parse_configuration(text: str) -> Configuration:
    """Strict parser for the configuration text format.

    The text must be ASCII without \\x0b, \\x0c or \\x1c-\\x1f (`grid.split_strict`
    checks it), and the fields of a point line are separated by single spaces.
    """
    (dim, count), body = split_strict(text, "config", (read_uint, read_uint), "configuration")
    if len(body) != count:
        raise CertificateError(f"expected {count} point lines, found {len(body)}")
    points = []
    for line in body:
        parts = line.split(" ")
        # a tab, a carriage return or a run of spaces would split otherwise; float()
        # would skip the first two, and it also reads `1_0`, which the format does not write
        if len(parts) != dim + 1 or parts != line.split() or "_" in line.partition(" ")[2]:
            raise CertificateError(f"bad point line: {line!r}")
        try:
            # LabeledPoint converts the tokens and rejects non-finite values
            points.append(LabeledPoint(parts[0], parts[1:]))
        except ValueError as exc:
            raise CertificateError(f"bad point line: {line!r}") from exc
    try:
        return Configuration(points)
    except ValueError as exc:
        raise CertificateError(str(exc)) from exc
