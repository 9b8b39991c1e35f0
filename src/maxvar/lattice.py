"""Exact lattice-point counting and box geometry on Z^d.

The first of the two counts defined here, on ints and arrays alike, is the
closed cross-polytope count

    N(d, k) = #{p in Z^d : |p_1| + ... + |p_d| <= k}
            = sum_{i=0}^{min(d, k)} 2^i C(d, i) C(k, i),

the i-th term counting the points with exactly i nonzero coordinates (pick
the axes, their signs, and i positive parts summing to at most k).
`l1_ball_count` evaluates the sum in O(min(d, k)) steps on integers of
O(d + k) bits, behind one bounded cache; nothing is kept that grows with d
or k.  As a polynomial in k the sum has forward differences 2^j C(d, j) at
k = 0, so `ShellTable` steps a whole row N(d, 0..K) out of d + 1 running
differences without touching lower dimensions.  For every fixed d the
sequence k -> N(d, k) is strictly increasing and strictly log-concave;
`check_log_concavity` and `check_gap_monotonicity` verify both facts exactly
on demand.

The module also enumerates the axis-aligned lattice boxes that arise as
traces of real cubes: a cube of side 2r meets each coordinate axis in an
interval of one common real length, so its per-axis lattice point counts
differ by at most one.  The second count, `cube_count`, is that of the
least such box around a hull.  `admissible_boxes_through` enumerates exactly
those boxes and `box_realization` produces an explicit rational cube
witnessing realizability.  That enumeration is the search set of
`oracle.brute_uncentered_cube`, and no fast path uses it; like every
enumeration here it stops at the cap, so the cube oracle raises
`EnumerationCapExceeded` past 10^7 boxes, which the CLI maps to exit 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import accumulate, product
from math import comb, prod
from operator import index
from typing import Iterator, Sequence

import numpy as np

LatticePoint = tuple[int, ...]
Box = tuple[LatticePoint, LatticePoint]

#: Hard ceiling on the number of points/boxes any enumeration may produce.
DEFAULT_ENUM_CAP = 10**7


class EnumerationCapExceeded(RuntimeError):
    """An enumeration would produce more items than the configured cap."""


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------

@lru_cache(maxsize=2**12)
def l1_ball_count(d: int, k):
    """Number of lattice points p in Z^d with |p|_1 <= k, cached for an
    integer k, which a numpy integer scalar also is (`operator.index`);
    `l1_ball_count.__wrapped__` takes an int64 or object array of radii,
    unchecked, and is exact while d^2 N(d, max k) fits its dtype."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if not isinstance(k, np.ndarray):
        k = index(k)
        if k < 0:
            raise ValueError(f"radius must be >= 0, got {k}")
    # term_i = 2^i C(d, i) C(k, i) vanishes from i = k + 1 on, so an array
    # runs all d steps; each division is exact, since term_i 2 (d - i) (k - i)
    # = term_{i+1} (i + 1)^2, which stays below d^2 N(d, k)
    term = k * (2 * d)
    total = term + 1
    for i in range(1, min(d, k) if isinstance(k, int) else d):
        term *= (k - i) * (2 * (d - i))
        term //= (i + 1) * (i + 1)
        total += term
    return total


def l1_shell_count(d: int, k: int) -> int:
    """Number of lattice points at l1-distance exactly k from the origin."""
    if k == 0:
        return 1
    return l1_ball_count(d, k) - l1_ball_count(d, k - 1)


@dataclass(frozen=True)
class ShellTable:
    """Immutable table of cross-polytope counts N(d, 0..k_max)."""

    dim: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not self.counts or self.counts[0] != 1:
            raise ValueError("counts must start with N(d,0) = 1")
        if any(b <= a for a, b in zip(self.counts, self.counts[1:])):
            raise ValueError("counts must be strictly increasing")

    @classmethod
    def build(cls, d: int, k_max: int) -> "ShellTable":
        """N(d, 0..k_max) from the forward differences 2^j C(d, j) at k = 0:
        the j-th differences along k are running sums of the (j+1)-th, and
        the d-th are constant."""
        if d < 1 or k_max < 0:
            raise ValueError(f"need d >= 1 and k_max >= 0, got {d}, {k_max}")
        row = [2**d] * k_max
        for j in range(d - 1, -1, -1):
            row = list(accumulate(row[:k_max], initial=2**j * comb(d, j)))
        return cls(d, tuple(row))

    @property
    def k_max(self) -> int:
        return len(self.counts) - 1

    def count(self, k: int) -> int:
        return self.counts[k]

    def shell(self, k: int) -> int:
        return self.counts[k] if k == 0 else self.counts[k] - self.counts[k - 1]

    def gap(self, k: int) -> Fraction:
        """1/N(k) - 1/N(k+1), the largest possible jump of a ball average."""
        return Fraction(1, self.counts[k]) - Fraction(1, self.counts[k + 1])


def l1_ball_points(d: int, k: int, cap: int | None = None) -> list[LatticePoint]:
    """All p with |p|_1 <= k in lexicographic order.

    Raises EnumerationCapExceeded before generating anything if the known
    count N(d, k) exceeds the cap; the caller should fall back to
    counting-only code paths.
    """
    cap = DEFAULT_ENUM_CAP if cap is None else cap
    total = l1_ball_count(d, k)  # rejects d < 1 and k < 0
    if total > cap:
        raise EnumerationCapExceeded(
            f"l1 ball d={d} k={k} holds {total} points, cap is {cap}"
        )
    out: list[LatticePoint] = []
    point = [0] * d

    def rec(axis: int, budget: int) -> None:
        if axis == d - 1:
            for x in range(-budget, budget + 1):
                point[axis] = x
                out.append(tuple(point))
            return
        for x in range(-budget, budget + 1):
            point[axis] = x
            rec(axis + 1, budget - abs(x))

    rec(0, k)
    if len(out) != total:
        raise AssertionError(f"l1 ball d={d} k={k}: enumerated {len(out)} points, counted {total}")
    return out


# ---------------------------------------------------------------------------
# Exact inequality batteries
# ---------------------------------------------------------------------------

def check_log_concavity(d: int, k_max: int) -> list[tuple[int, int, int]]:
    """Verify N(d,k)^2 > N(d,k+1)*N(d,k-1) for 1 <= k <= k_max.

    Returns a list of violating triples (k, lhs, rhs); empty means every
    inequality holds.  All arithmetic is exact.
    """
    if d < 1 or k_max < 1:
        raise ValueError("need d >= 1 and k_max >= 1")
    table = ShellTable.build(d, k_max + 1)
    bad = []
    c = table.counts
    for k in range(1, k_max + 1):
        lhs = c[k] * c[k]
        rhs = c[k + 1] * c[k - 1]
        if not lhs > rhs:
            bad.append((k, lhs, rhs))
    return bad


def check_gap_monotonicity(d: int, k_max: int) -> list[tuple[int, Fraction, Fraction]]:
    """Verify 1/N(k) - 1/N(k+1) > 1/N(k+1) - 1/N(k+2) for 0 <= k <= k_max."""
    if d < 1 or k_max < 0:
        raise ValueError("need d >= 1 and k_max >= 0")
    table = ShellTable.build(d, k_max + 2)
    n = table.counts
    # with a, b, c = N(k), N(k+1), N(k+2) > 0, multiplying the gap
    # inequality by abc gives b (a + c) > 2ac; gaps are formed only on failure
    return [
        (k, table.gap(k), table.gap(k + 1))
        for k in range(0, k_max + 1)
        if not n[k + 1] * (n[k] + n[k + 2]) > 2 * n[k] * n[k + 2]
    ]


# ---------------------------------------------------------------------------
# Admissible boxes (lattice traces of real cubes)
# ---------------------------------------------------------------------------

def _validate_box(box: Box, dim: int) -> None:
    lower, upper = box
    if len(lower) != dim or len(upper) != dim:
        raise ValueError("box dimension mismatch")
    if any(l > u for l, u in zip(lower, upper)):
        raise ValueError(f"invalid box {box}: lower must be <= upper componentwise")


def admissible_boxes_through(
    point: LatticePoint,
    support_box: Box,
    max_side: int | None = None,
    cap: int | None = None,
) -> Iterator[Box]:
    """Yield the lattice boxes through `point` that a real cube can trace.

    A yielded box B satisfies: point in B, B intersects support_box, every
    per-axis point count L_i >= 1 and max_i L_i - min_i L_i <= 1.  Each such
    box equals Z^d intersected with some real cube (see `box_realization`).
    Cubes with no lattice point are never generated.

    `max_side` bounds the largest per-axis count; by default it is the
    per-axis span of the hull of `point` and `support_box`, which is enough
    to contain every average-maximising box.  Boxes come out in a fixed
    deterministic order (side, per-axis counts, lower corner).
    """
    d = len(point)
    _validate_box(support_box, d)
    lower, upper = support_box
    if max_side is None:
        max_side = max(max(u, p) - min(l, p) + 1 for l, u, p in zip(lower, upper, point))
    cap = DEFAULT_ENUM_CAP if cap is None else cap
    yielded = 0
    for side in range(1, max_side + 1):
        for profile in _count_profiles(d, side):
            # per axis, the corners a of the boxes [a, a+L-1] that contain
            # point and meet the support box (one empty range empties all)
            ranges = [
                range(max(p, l) - L + 1, min(p, u) + 1)
                for p, l, u, L in zip(point, lower, upper, profile)
            ]
            for corner in product(*ranges):
                yielded += 1
                if yielded > cap:
                    raise EnumerationCapExceeded(f"box enumeration exceeded cap {cap}")
                yield corner, tuple(c + l - 1 for c, l in zip(corner, profile))


def cube_count(extents):
    """prod_i max(e_i, M - 1), M = max(e): the least point count of an
    admissible box around a hull of extents e, d integers (`operator.index`)
    or d int64 or object arrays that broadcast together (e[0] itself at
    d = 1).  It is the largest of prod(e) and e_j (e_j - 1)^|T| prod_{i not
    in T, i != j} e_i over axes j and nonempty sets T of other axes, the one
    with e_j = M and T = {i : e_i < M - 1} equal to it.  At d = 2 they are ab, a(a - 1) and b(b - 1): only ab
    takes the full broadcast shape, and an array count is updated in place."""
    e = extents if isinstance(extents[0], np.ndarray) else [index(x) for x in extents]
    count = prod(e[1:], start=e[0])
    for j, k, kept in _cube_products(len(e)):
        term = prod([e[j] - 1] * k + [e[i] for i in kept], start=e[j])
        if isinstance(count, np.ndarray):
            np.maximum(count, term, out=count)
        else:
            count = max(count, term)
    return count


@cache
def _cube_products(d: int) -> tuple[tuple[int, int, list[int]], ...]:
    """(j, |T|, the axes outside T and j) per axis j and nonempty T."""
    return tuple((j, sum(cut), [i for i, c in enumerate(cut) if i != j and not c])
                 for j in range(d) for cut in product((0, 1), repeat=d)
                 if any(cut) and not cut[j])


def _count_profiles(d: int, side: int) -> Iterator[tuple[int, ...]]:
    """Per-axis count tuples with max = side and min >= side - 1."""
    if side == 1:
        yield (1,) * d
        return
    for mask in range(1 << d):
        profile = tuple(side if (mask >> i) & 1 else side - 1 for i in range(d))
        if side in profile:
            yield profile


def box_realization(lower: LatticePoint, upper: LatticePoint) -> tuple[tuple[Fraction, ...], Fraction]:
    """Rational cube (center, radius) whose lattice trace is exactly [lower, upper].

    Uses side 2r = maxL - 1/2 with each axis interval centered on its lattice
    midpoint, which contains the L_i requested points and excludes the
    neighbours whenever max L - min L <= 1.
    """
    counts = [u - l + 1 for l, u in zip(lower, upper)]
    if max(counts) - min(counts) > 1:
        raise ValueError("box is not the trace of any cube: counts differ by > 1")
    radius = Fraction(2 * max(counts) - 1, 4)
    center = tuple(Fraction(l + u, 2) for l, u in zip(lower, upper))
    if box_lattice_trace(center, radius) != (tuple(lower), tuple(upper)):
        raise AssertionError(f"cube {center}, {radius} does not trace [{lower}, {upper}]")
    return center, radius


def box_lattice_trace(center: Sequence[Fraction], radius: Fraction) -> Box | None:
    """Lattice box Z^d cut out by the real cube, or None if it is empty."""
    lo, hi = [], []
    for c in center:
        a = c - radius
        b = c + radius
        # ceil(a), floor(b) with exact rationals
        ai = -((-a.numerator) // a.denominator)
        bi = b.numerator // b.denominator
        if ai > bi:
            return None
        lo.append(ai)
        hi.append(bi)
    return tuple(lo), tuple(hi)
