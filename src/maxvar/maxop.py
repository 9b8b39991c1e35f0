"""Discrete maximal operators with pruned exact-supremum search.

Two kernels serve four geometries:

  l1            -- centered: averages over dilated cross-polytopes
                   |m - n|_1 <= r (`centered_max_l1`)
  cube          -- uncentered: averages over admissible lattice boxes
                   containing n, i.e. boxes whose per-axis point counts
                   differ by at most one, the lattice traces of real cubes
                   (`uncentered_max_cube`)
  centered1d    -- l1 at d = 1: symmetric intervals [n-r, n+r]
  uncentered1d  -- cube at d = 1: intervals [a, b] containing n

The 1-D names are aliases for d = 1: N(1, r) = 2r + 1 and every interval is
admissible, so the kernels, candidates and tie-breaks are the same.
`centered_max_1d` and `uncentered_max_1d` are the d = 1 kernels called with
an integer point.

All suprema of finitely supported inputs are attained, and the search spaces
below are pruned to provably sufficient finite sets:

* centered sweeps stop at r* = max distance from n to the support, beyond
  which the average is ||f||_1 / N(r), strictly decreasing;
* candidate cube boxes are the minimal-count admissible boxes around the
  hull of {n} and a closed support subset.  For any box B the average is
  at most mass(B) / Q where Q is that minimal count for B's own captured
  subset, so the subset candidates dominate every box, and each candidate
  is realised by an actual box.  A subset S is closed when it is all of
  the support inside its own hull; S and its closure give {n} the same
  hull, and the closure carries strictly more mass unless it is S, so only
  closed subsets -- one per closed box, `hull_closures` -- can win.  The
  literal box enumeration lives in `oracle` as the independent
  cross-check.
* at d = 1 the minimal box is the hull itself, and a subset has the same
  hull as the run of consecutive support points between its least and
  largest point, which carries at least its mass.  So the O(s^2) runs of
  the sorted support, taken around n, are the candidates.

Averages are compared by integer cross-multiplication of the masses over
their common denominator.  `integer_core` normalises them once per function
and returns the kernel's integer core, whose winning (mass, count) at a point
forms no Fraction; only a witness or a box value does.  Ties are broken
deterministically: smallest radius for centered operators; smallest point
count, then lexicographic lower corner, then lexicographic upper corner for
uncentered ones.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, product
from math import prod
from operator import index, sub
from typing import Callable, Iterator

from . import lattice
from .exact import tree_sum
from .gridfn import GridFunction
from .lattice import Box, LatticePoint

GEOMETRIES = ("centered1d", "uncentered1d", "l1", "cube")

@dataclass(frozen=True)
class BallSpec:
    """Averaging geometry plus dimension."""

    geometry: str
    dim: int

    def __post_init__(self) -> None:
        if self.geometry not in GEOMETRIES:
            raise ValueError(f"unknown geometry {self.geometry!r}")
        if self.geometry in ("centered1d", "uncentered1d") and self.dim != 1:
            raise ValueError(f"{self.geometry} requires dim = 1, got {self.dim}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    @property
    def centered(self) -> bool:
        return self.geometry in ("centered1d", "l1")


@dataclass(frozen=True)
class L1Ball:
    """Closed cross-polytope {m : |m - center|_1 <= radius}; radius 0 is the point."""

    center: LatticePoint
    radius: int

    def count(self) -> int:
        return lattice.l1_ball_count(len(self.center), self.radius)

    def contains(self, p: LatticePoint) -> bool:
        return sum(abs(a - b) for a, b in zip(p, self.center)) <= self.radius


@dataclass(frozen=True)
class LatticeBox:
    """Axis-aligned lattice box [lower, upper] (componentwise)."""

    lower: LatticePoint
    upper: LatticePoint

    def count(self) -> int:
        """Lattice points in the box; 0 when it is inverted on any axis."""
        return prod(max(u - l + 1, 0) for l, u in zip(self.lower, self.upper))

    def contains(self, p: LatticePoint) -> bool:
        return all(l <= c <= u for l, u, c in zip(self.lower, self.upper, p))


Region = L1Ball | LatticeBox


@dataclass(frozen=True)
class ArgmaxWitness:
    """Optimal averaging set realising a maximal-function value.

    `value` equals the average of |f| over `region` exactly, and `region`
    contains the query point.
    """

    value: Fraction
    count: int
    region: Region

    @property
    def radius(self) -> int:
        if not isinstance(self.region, L1Ball):
            raise AttributeError("witness region is not a centered ball")
        return self.region.radius

    @property
    def interval(self) -> tuple[int, int]:
        if not isinstance(self.region, LatticeBox) or len(self.region.lower) != 1:
            raise AttributeError("witness region is not a 1-D interval")
        return self.region.lower[0], self.region.upper[0]

    @property
    def box(self) -> Box:
        if not isinstance(self.region, LatticeBox):
            raise AttributeError("witness region is not a box")
        return self.region.lower, self.region.upper


def average(f: GridFunction, region: Region) -> Fraction:
    """Exact mean of |f| over the lattice points of `region`."""
    count = region.count()
    if count < 1:
        raise ValueError("averaging set must contain at least one lattice point")
    mass = tree_sum(abs(v).as_integer_ratio() for p, v in f.items() if region.contains(p))
    return mass / count


# ---------------------------------------------------------------------------
# Centered kernel
# ---------------------------------------------------------------------------

def centered_max_l1(f: GridFunction, n: LatticePoint) -> ArgmaxWitness:
    """Cross-polytope maximal function at n, smallest-radius tie-break.

    The candidate radii are the distances from n to the support: between
    consecutive distances the mass is constant and the count strictly
    increases, and beyond the largest the average is ||f||_1 / N(d, r),
    strictly decreasing.  Scanning them in increasing order with strict
    improvement yields the smallest maximising radius (`_l1_core`).
    """
    return maximal_witness(f, BallSpec("l1", f.dim), n)


def _l1_core(
    support: tuple[LatticePoint, ...], masses: list[int], n: LatticePoint
) -> tuple[int, int, int]:
    """(mass, count, radius) of the smallest best ball; (0, 1, 0) with no support."""
    by_dist: dict[int, int] = {}
    for p, m in zip(support, masses):
        k = sum(map(abs, map(sub, p, n)))
        by_dist[k] = by_dist.get(k, 0) + m
    best, mass, d = (0, 1, 0), 0, len(n)
    for k in sorted(by_dist):
        mass += by_dist[k]
        count = lattice.l1_ball_count(d, k)
        if mass * best[1] > best[0] * count:
            best = mass, count, k
    return best


def centered_max_1d(f: GridFunction, n: int) -> ArgmaxWitness:
    """Max average of |f| over [n-r, n+r]: `centered_max_l1` at d = 1."""
    return centered_max_l1(f, (n,))


# ---------------------------------------------------------------------------
# Uncentered kernel
# ---------------------------------------------------------------------------

#: (scaled mass, point count, lower corner, upper corner) of a candidate box
Candidate = tuple[int, int, LatticePoint, LatticePoint]


def uncentered_max_cube(f: GridFunction, n: LatticePoint) -> ArgmaxWitness:
    """Max average of |f| over admissible boxes containing n.

    Equals the supremum over all lattice boxes with per-axis counts
    differing by at most one that contain n and meet the support.
    Tie-break: smallest count, then lexicographic lower corner, then
    lexicographic upper corner.
    """
    return maximal_witness(f, BallSpec("cube", f.dim), n)


def _cube_core(candidates: Callable[..., Iterator[Candidate]], n: LatticePoint) -> Candidate:
    """Best of `candidates(n)` by that tie-break; (0, 1, n, n) with none."""
    best = 0, 1, n, n
    for cand in candidates(n):
        cross = cand[0] * best[1] - best[0] * cand[1]
        if cross > 0 or (cross == 0 and cand[1:] < best[1:]):
            best = cand
    return best


def uncentered_max_1d(f: GridFunction, n: int) -> ArgmaxWitness:
    """Max average of |f| over intervals containing n: `uncentered_max_cube` at d = 1."""
    return uncentered_max_cube(f, (n,))


def _run_boxes(xs: list[int], masses: list[int], n: LatticePoint) -> Iterator[Candidate]:
    """Hull of {n} and each run xs[i..j] of the sorted 1-D support.

    Runs ending before the last point <= n, or starting after the first
    point >= n, are skipped: extending them towards n keeps the hull.
    """
    prefix = list(accumulate(masses, initial=0))
    (c,) = n
    first = min(bisect_left(xs, c), len(xs) - 1)
    last = max(bisect_right(xs, c) - 1, 0)
    for i in range(first + 1):
        lo = min(xs[i], c)
        for j in range(max(i, last), len(xs)):
            hi = max(xs[j], c)
            yield prefix[j + 1] - prefix[i], hi - lo + 1, (lo,), (hi,)


@lru_cache(maxsize=64)
def hull_closures(
    points: tuple[LatticePoint, ...], masses: tuple[int, ...]
) -> tuple[tuple[int, LatticePoint, LatticePoint], ...]:
    """(mass, lower, upper) per distinct hull box of a nonempty support subset.

    Those boxes are the closed ones, each the hull of the support points
    inside it, and the mass is that of those points, the subset's closure;
    with positive masses it is the largest mass of any subset with that
    hull.  `_closed_boxes` lists them axis by axis from the support's own
    coordinates, O(s^(2d)) slabs for s points.  This runs once per support
    and is memoised on (points, masses).
    """
    return tuple(_closed_boxes(list(zip(points, masses)), 0))


def _closed_boxes(
    members: list[tuple[LatticePoint, int]], axis: int
) -> Iterator[tuple[int, LatticePoint, LatticePoint]]:
    """(mass, lower, upper) of the points of `members` inside each box that
    is closed on the axes from `axis` on; lower and upper are their hull on
    every axis.

    The boxes with extent [lo, hi] on `axis` are the closed boxes of the
    slab lo <= x <= hi on the later axes whose points reach both lo and
    hi.  Past the last axis the one box to list is the members' own hull.
    """
    if axis == len(members[0][0]):
        points, masses = zip(*members)
        yield sum(masses), tuple(map(min, zip(*points))), tuple(map(max, zip(*points)))
        return
    groups: dict[int, list[tuple[LatticePoint, int]]] = {}
    for p, m in members:
        groups.setdefault(p[axis], []).append((p, m))
    coords = sorted(groups)
    for i, lo in enumerate(coords):
        slab: list[tuple[LatticePoint, int]] = []
        for hi in coords[i:]:
            slab += groups[hi]
            for box in _closed_boxes(slab, axis + 1):
                if box[1][axis] == lo and box[2][axis] == hi:
                    yield box


def _subset_boxes(
    closures: tuple[tuple[int, LatticePoint, LatticePoint], ...], n: LatticePoint
) -> Iterator[Candidate]:
    """Minimal-count admissible box around hull(n, S) per closed subset S."""
    for mass, hull_lo, hull_hi in closures:
        # conditional expressions: this loop runs once per point and closure
        his = [h if h > c else c for h, c in zip(hull_hi, n)]
        extents = [h - (l if l < c else c) + 1 for l, h, c in zip(hull_lo, his, n)]
        short = max(extents) - 1
        counts = [e if e > short else short for e in extents]
        # lexicographically smallest placement keeping hull(n, S) inside
        lower = tuple([h - c + 1 for h, c in zip(his, counts)])
        upper = tuple([l + c - 1 for l, c in zip(lower, counts)])
        yield mass, prod(counts), lower, upper


# ---------------------------------------------------------------------------
# Closed forms for unit deltas
# ---------------------------------------------------------------------------

def delta_centered_l1_closed_form(p: LatticePoint, n: LatticePoint) -> Fraction:
    """Value at n of the cross-polytope maximal function of a unit delta at p.

    The optimal radius is exactly the distance |n - p|_1, giving
    1 / N(d, |n - p|_1).
    """
    k = sum(abs(a - b) for a, b in zip(p, n))
    return Fraction(1, lattice.l1_ball_count(len(p), k))


def delta_uncentered_cube_closed_form(p: LatticePoint, n: LatticePoint) -> Fraction:
    """Value at n of the cube maximal function of a unit delta at p.

    With M = |n - p|_inf, the cheapest admissible box around both points
    (`lattice.cube_count`) has max(|n_i - p_i| + 1, M) points along axis i:
    M + 1 along the extremal axes, M along the others, and 1 when n = p.
    """
    return Fraction(1, lattice.cube_count([abs(a - b) + 1 for a, b in zip(p, n)]))


# ---------------------------------------------------------------------------
# Box evaluation
# ---------------------------------------------------------------------------

def maximal_witness(f: GridFunction, spec: BallSpec, n: LatticePoint | int) -> ArgmaxWitness:
    core, scale = integer_core(f, spec)
    n = tuple(map(index, n)) if hasattr(n, "__iter__") else (index(n),)
    if len(n) != f.dim:
        raise ValueError("point dimension does not match function dimension")
    mass, count, *region = core(n)
    region = L1Ball(n, *region) if spec.centered else LatticeBox(*region)
    return ArgmaxWitness(Fraction(mass, scale * count), count, region)


def integer_core(f: GridFunction, spec: BallSpec) -> tuple[Callable, int]:
    """f's kernel core, a function of the point alone, and the scale: the
    winner's (mass, count, region data) at n, Mf(n) = mass / (scale * count).
    The masses, and the cube's closed boxes, are formed once."""
    return _integer_core(f, spec, *f.integer_masses())


def _integer_core(f: GridFunction, spec: BallSpec, masses: list[int], scale: int):
    if spec.dim != f.dim:
        raise ValueError(f"spec dim {spec.dim} does not match function dim {f.dim}")
    if spec.centered:
        return partial(_l1_core, f.support, masses), scale
    if f.dim == 1:
        return partial(_cube_core, partial(_run_boxes, [p[0] for p in f.support], masses)), scale
    closures = hull_closures(f.support, tuple(masses)) if f else ()
    return partial(_cube_core, partial(_subset_boxes, closures)), scale


def evaluate_on_box(
    f: GridFunction, spec: BallSpec, box: Box
) -> dict[LatticePoint, Fraction]:
    """Maximal function values at every lattice point of `box`, in
    lexicographic order; identical to pointwise calls, from one core."""
    lower, upper = box
    if len(lower) != f.dim:
        raise ValueError("box dimension does not match function dimension")
    if any(l > u for l, u in zip(lower, upper)):
        raise ValueError("invalid box")
    core, scale = integer_core(f, spec)
    axes = [range(l, u + 1) for l, u in zip(lower, upper)]
    return {p: Fraction(*core(p)[:2]) / scale for p in product(*axes)}
