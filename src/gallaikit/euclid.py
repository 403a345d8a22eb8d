"""Euclidean point configurations, congruence, and explicit colorings.

Covers the geometric side of the toolkit: exact-enough point families
(regular simplices, the orthogonal-block lattice of grid points, the
midpoint family indexed by vertex pairs), congruence testing by distance
matching, the planar strip coloring with its Monte-Carlo falsifier, the
constructive rainbow-segment walk, and the nine-point gadget whose finite
enumeration establishes that every coloring of 3-space contains a
monochromatic or rainbow 30-60-90 triangle with unit hypotenuse.

All arithmetic is double precision.  Points are tuples of Python floats
and every distance is math.dist of two of them; numpy runs only the affine
rank and the strip falsifier, which import it when they run.  The strip
falsifier sweeps its blocks of trials on one thread per usable core, up
to eight, each in buffers it allocates once.  The affine rank keeps
OpenBLAS's thread pool asleep so that those threads get the cores: it
reduces the difference matrix with a Householder QR in
elementwise numpy and gives LAPACK only the small triangular factor.  An
SVD of the tall matrix (373 x 45 for the r = 3 lattice) is large enough
for OpenBLAS to run on its pool, and the pool's threads keep spinning for
about 130 ms after the call.  The gadget is an instance of
`search.search_good_point_coloring`: its nine points, the pairs {A, B}
and {B, C} and its 20 triples as sets that may not be monochromatic, and
the same 20 triples as sets that may not be rainbow.
Distance comparisons use an absolute tolerance, 1e-9 by default.  That is
ample for the gadget and the other small families (small combinations of
1/2, 1/sqrt(2), sqrt(3)/4), but not at every scale: a distance near D is
rounded by about D * 2^-53, so from sides near 1e8 on the default misses
true matches.  `congruent` finds all 1,386 index rectangles of
`grid_lattice_embedding(1, 1.1e7, 1.7e7)` with the default, none of those
of `grid_lattice_embedding(1, 1.1e8, 1.7e8)`, and all of them with
tol=1e-6.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cache
from itertools import combinations, starmap
from operator import sub
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from .grid import CertificateError, read_uint, split_strict

if TYPE_CHECKING:
    import threading

    import numpy as np

DEFAULT_TOL = 1e-9

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


def congruent(a: Configuration, b: Configuration, tol: float = DEFAULT_TOL) -> dict[str, str] | None:
    """Label bijection under which all pairwise distances match within tol, or None.

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

    tol is absolute, so it must exceed the rounding of the distances, about
    2^-53 times their size: the default 1e-9 finds every index rectangle of
    grid_lattice_embedding(1, 1.1e7, 1.7e7) in planar_rectangle(1.1e7,
    1.7e7), but none at 1.1e8 x 1.7e8, where tol=1e-6 finds them all.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if len(a) != len(b):
        raise ValueError(f"size mismatch: {len(a)} vs {len(b)} points")
    k = len(a)
    # each pair (i, j), i < j, once: math.dist(p, q) == math.dist(q, p) bit for bit
    dist_a = list(starmap(math.dist, combinations([p.coords for p in a.points], 2)))
    dist_b = list(starmap(math.dist, combinations([p.coords for p in b.points], 2)))
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
    singular values neither overflow nor underflow, and the cutoff is
    numpy.linalg.matrix_rank's, s.max() * max(rows, cols) * eps, relative
    to the largest of them, so the rank does not depend on the scale of
    the configuration.  The singular values are taken from the triangular
    factor of a Householder QR of the difference matrix (or of its
    transpose, whichever is tall), which has the same singular values up
    to rounding.  The QR is elementwise numpy and makes no BLAS call, and
    LAPACK sees only the factor, min(rows, cols) on a side (45 for the
    r = 3 lattice).  An SVD of the tall matrix itself (373 x 45) is large
    enough for OpenBLAS to run it on its thread pool, whose threads then
    spin for about 130 ms and hold the cores that the strip falsifier's
    threads need.
    """
    import numpy as np

    pts = np.array([p.coords for p in config.points], dtype=float)
    if np.abs(pts).max(initial=0.0) > np.finfo(float).max / 2:
        pts /= 2  # so no difference overflows; halving numbers this large is exact
    diffs = pts[1:] - pts[0]
    scale = np.abs(diffs).max(initial=0.0)
    if scale == 0.0:
        return 0
    diffs /= scale
    # one row per column of the tall one of diffs and diffs.T
    lines = np.ascontiguousarray(diffs.T) if len(diffs) > diffs.shape[1] else diffs
    s = np.linalg.svd(_triangular_factor(lines), compute_uv=False)
    return int(np.count_nonzero(s > s.max() * max(diffs.shape) * np.finfo(float).eps))


def _triangular_factor(lines: np.ndarray) -> np.ndarray:
    """R^T of a Householder QR of lines.T (lines is wide), overwriting lines, with no BLAS call.

    Reflector j is built from line j scaled by its largest entry, so its
    norm neither overflows nor underflows, and is applied to the lines
    below it with elementwise products and row sums.  Lines are rows, so
    every operand is contiguous.
    """
    import numpy as np

    count = len(lines)
    for j in range(count):
        v = lines[j, j:]
        top = np.abs(v).max()
        if top == 0.0:
            continue
        v = v / top
        v0 = float(v[0])
        norm = math.sqrt((v * v).sum())
        beta = -norm if v0 >= 0.0 else norm  # opposite to v0, so v0 - beta cancels nothing
        v[0] = v0 - beta
        rest = lines[j + 1 :, j:]
        # 2 / (v . v) = 1 / (norm * (norm + |v0|)) once v0 has moved away from beta
        rest -= ((rest * v).sum(axis=1) / (norm * (norm + abs(v0))))[:, None] * v
        lines[j, j] = beta * top
    return np.tril(lines[:, :count])


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


_BLOCK = 1 << 13  # trials per step of the strip falsifier; a step's 64 KiB arrays stay in L2 cache
_MAX_RUNS = 8  # the most threads the strip falsifier sweeps on; see _falsify_strip_blocks


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
    blocks of 8,192, so memory is bounded by the block size (per usable
    core) and not by `trials`.  The blocks are shared out in contiguous
    runs, one per usable core up to 8, each swept on its own thread from
    generators advanced to its first trial (see _falsify_strip_blocks).
    Which numbers a trial draws depends on its index alone, and each hit
    count is a sum of per-trial tests, so reports are reproducible bit for
    bit and do not depend on the number of cores.

    For a <= b <= sqrt(3)*a no placement can be monochromatic or rainbow,
    so both hit counts are zero: a copy rotated by theta spreads its
    corners over a*|cos theta| + b*|sin theta| in x, which lies in
    [a, sqrt(a^2 + b^2)] and so in [a, 2a].  A spread of at least a puts
    the corners in strips whose indices differ by 1 or 2, which have
    different colors for r >= 3, and a spread of at most 2a puts them in
    at most three strips.  The range is checked exactly: a <= b,
    and b^2 <= 3a^2 in integers over the exact ratios of the two floats,
    so no rounding of sqrt(3)*a can let a b through or turn one away.

    A corner's color is read from a table indexed by floor(x/a).  Every
    corner lies within (a + b)/2 of its center x, which lies in [0, r*a],
    so floor(x/a) lies in [floor(-(a+b)/(2a)) - 1, r + ceil((a+b)/(2a))];
    the extra -1 absorbs rounding below an integer.  The table covers that
    range and gives the exact color of any index it accepts; an index
    outside it raises IndexError, so a wrong bound can never give a wrong
    color.  For r < 4 the rainbow test is skipped: four corners cannot take
    four distinct colors out of three, so the rainbow count is exactly 0.

    The sweep rounds.  With u = math.ulp(E), E = r*a + a + b, no corner
    exceeds E in size, so a computed x/a (two rounded sums of cx and the
    rounded ux and vx, then a division) lies within 4u/a of the exact one at
    the drawn angle and center.  A false hit needs a corner within 4u of a
    strip boundary (probability at most 32u/a) and a spread within 8u of a
    or 2a, so E must be finite and u at most a/2^32, which keeps false hits
    below 2^-40 per trial.  As E/2^53 < u <= E/2^52 for normal E, that
    accepts every r up to 2^20 - 3 for every normal a, none from 2^21 on,
    and keeps floor(x/a) below 2^21; at r*a = 10^16 the spacing is 2.
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
    """falsify_strip's sweep, without its range checks, split over the usable cores.

    The blocks of trials are cut into one contiguous run of whole blocks
    per usable core (os.sched_getaffinity, else os.cpu_count()), at most
    one run per block and at most _MAX_RUNS = 8 runs.  The calling thread
    sweeps the first run and a threading.Thread each other one; numpy's
    draws and array operations release the interpreter lock, so the runs
    overlap.  With one run no thread is started.  Each run draws from its
    own generators, advanced to its first trial, so every trial draws the
    numbers a single sweep draws and is tested in a block of the same
    size: the hit counts are the same sums, bit for bit, however many runs
    there are.  Every exit joins every thread.  An exception in any run
    makes the others stop at their next block, and is re-raised once all
    have stopped.

    Each extra thread costs about 74 MB of address space, an 8 MB stack
    and a 64 MB malloc arena, though little memory.  With the usable-core
    count set in-process, `strip-falsify 3 1 1.5 --trials 20000000`
    peaks at 152, 223, 370 and 665 MB of address space with 1, 2, 4 and 8
    runs; without the cap it reached 739 MB with 9 and 813 MB with 10.
    Eight is the most runs that stay under an address-space limit of
    800,000 KiB (`ulimit -v 800000`) with room for one more thread: the
    in-process count does not start the thread OpenBLAS adds per core
    when numpy is imported, about 42 MB each.
    """
    import threading

    blocks = -(-trials // _BLOCK)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    runs = max(1, min(cores, blocks, _MAX_RUNS))
    cuts = [blocks * k // runs * _BLOCK for k in range(runs)] + [trials]
    halt = threading.Event()
    results: list = [None] * runs

    def sweep(k: int) -> None:
        try:
            results[k] = _strip_range(r, a, b, trials, seed, cuts[k], cuts[k + 1], halt)
        except BaseException as exc:  # re-raised below, on the calling thread
            halt.set()
            results[k] = exc

    threads = []
    try:
        for k in range(1, runs):
            thread = threading.Thread(target=sweep, args=(k,))
            thread.start()
            threads.append(thread)
        sweep(0)
        for thread in threads:
            thread.join()
    finally:
        halt.set()  # after the joins above a no-op; on any other exit it stops the runs
        for thread in threads:
            thread.join()
    mono_hits = rainbow_hits = 0
    for result in results:
        if isinstance(result, BaseException):
            raise result
        mono_hits += result[0]
        rainbow_hits += result[1]
    return FalsificationReport(trials, mono_hits, rainbow_hits)


def _strip_range(
    r: int, a: float, b: float, trials: int, seed: int, start: int, stop: int, halt: threading.Event
) -> tuple[int, int]:
    """Mono and rainbow hits of trials start..stop-1 of a falsify_strip sweep of `trials`.

    Each PCG64 output is one double, so a generator advanced by k steps
    continues the stream at draw k: trial i's angle is draw i and its
    center x draw trials + i, whatever start is.  Trials are tested 8,192
    at a time from start, and the sweep returns early, with the hits so
    far, once halt is set.

    The run allocates its buffers once, for a whole block, and every step
    works in them; the final block, if shorter, uses their leading parts.
    The four corners of a block are the rows of one (4, n) array, in the
    order (cx + ux) + vx, (cx + ux) - vx, (cx - ux) + vx, (cx - ux) - vx,
    so one divide by a, one floor, one cast and one table lookup cover
    them all; the cast writes the strip indices over the block's draws,
    which are no longer read once the corners are built.  Every value is the one the whole-array sweep computes, bit
    for bit: uniform(0, hi) is 0 + hi * u for u = Generator.random(), and
    0 + hi * u is hi * u exactly, so random(out=) scaled in place by pi
    and by r*a gives the same angles and centers; a ufunc writing into a
    buffer rounds as one that allocates its result; and the corners are
    the same two rounded sums in the same order.
    """
    import numpy as np

    angles = np.random.Generator(np.random.PCG64(seed).advance(start))
    centers_x = np.random.Generator(np.random.PCG64(seed).advance(trials + start))
    half_a = a / 2.0
    neg_half_b = -(b / 2.0)
    span = r * a
    table = _corner_colors(r, a, b)
    size = min(_BLOCK, stop - start)
    draws = np.empty((4, size))
    theta_buf, cx_buf, ux_buf, vx_buf = draws
    corner_buf = np.empty(4 * size)
    index_buf = draws.reshape(-1).view(np.intp)  # the draws are dead once the corners are built
    mask_buf = np.empty((2, size), dtype=bool)
    mono_hits = rainbow_hits = 0
    for first in range(start, stop, _BLOCK):
        if halt.is_set():
            break
        n = min(_BLOCK, stop - first)
        theta, cx, ux, vx = theta_buf[:n], cx_buf[:n], ux_buf[:n], vx_buf[:n]
        corners = corner_buf[: 4 * n].reshape(4, n)
        index = index_buf[: 4 * n].reshape(4, n)
        hit, pair = mask_buf[:, :n]
        angles.random(out=theta)
        theta *= math.pi
        centers_x.random(out=cx)
        cx *= span
        np.cos(theta, out=ux)
        ux *= half_a
        np.sin(theta, out=vx)
        vx *= neg_half_b
        right_up, right_down, left_up, left_down = corners
        np.add(cx, ux, out=right_up)
        np.subtract(cx, ux, out=left_up)
        np.subtract(right_up, vx, out=right_down)
        right_up += vx
        np.subtract(left_up, vx, out=left_down)
        left_up += vx
        corners /= a
        np.floor(corners, out=corners)
        np.copyto(index, corners, casting="unsafe")
        c0, c1, c2, c3 = table[index]  # raises IndexError outside the table, never a wrong color
        np.equal(c0, c1, out=hit)
        for c in (c2, c3):
            hit &= np.equal(c0, c, out=pair)
        mono_hits += int(np.count_nonzero(hit))
        if r >= 4:
            np.not_equal(c0, c1, out=hit)
            for p, q in ((c0, c2), (c0, c3), (c1, c2), (c1, c3), (c2, c3)):
                hit &= np.not_equal(p, q, out=pair)
            rainbow_hits += int(np.count_nonzero(hit))
    return mono_hits, rainbow_hits


def _corner_colors(r: int, a: float, b: float) -> np.ndarray:
    """The table of strip colors the strip falsifier reads floor(x/a) mod r from.

    Its length L is a multiple of r and it holds i mod r at index i, in
    the smallest unsigned type that holds r - 1.  Indexing reads a
    negative k as L + k, which is congruent to k mod r, so every k in
    [-L, L) gets exactly its color and any other k raises IndexError.  L
    exceeds both ends of the range falsify_strip's docstring derives for
    k = floor(x/a), so the lookup never raises; for the largest r it
    accepts, 2^20 - 3, the table takes 8 MiB.
    """
    import numpy as np

    reach = math.ceil((a + b) / (2.0 * a))
    return np.tile(np.arange(r, dtype=np.min_scalar_type(r - 1)), 2 + reach // r)


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
    is found by matching each 3-subset's distance multiset against
    {1/2, sqrt(3)/2, 1} within 1e-9.
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
        if all(abs(got - want) <= DEFAULT_TOL for got, want in zip(dists, target)):
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
