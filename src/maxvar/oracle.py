"""Brute-force reference implementations.

Everything here is a literal transcription of the operator definitions:
no pruning lemmas, no prefix sums, no minimal-box shortcuts.  These
functions exist to certify the fast paths in `maxop` and `varanalysis`,
so they deliberately share nothing with them beyond GridFunction and
Fraction arithmetic (ball membership is re-derived from the norm
inequality on the spot).  The cube oracle searches the lattice's checked
set of real-cube traces, `lattice.admissible_boxes_through`, which no fast
path uses.  They are slow on purpose.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod

from .gridfn import GridFunction
from .lattice import Box, LatticePoint, admissible_boxes_through
from .maxop import ArgmaxWitness, L1Ball, LatticeBox


def _require_1d(f: GridFunction) -> None:
    if f.dim != 1:
        raise ValueError("oracle expects a 1-D function")


def brute_centered_1d(f: GridFunction, n: int, r_cap: int) -> ArgmaxWitness:
    """Exhaustive max over r in [0, r_cap] of literal window averages."""
    _require_1d(f)
    if f and r_cap < max(abs(p[0] - n) for p in f.support):
        raise ValueError("r_cap does not cover the support")
    best_val = Fraction(0)
    best_r = 0
    for r in range(0, r_cap + 1):
        total = Fraction(0)
        for k in range(-r, r + 1):
            total += abs(f[(n + k,)])
        val = total / (2 * r + 1)
        if val > best_val:
            best_val, best_r = val, r
    return ArgmaxWitness(best_val, 2 * best_r + 1, L1Ball((n,), best_r))


def brute_uncentered_1d(f: GridFunction, n: int, reach_cap: int) -> ArgmaxWitness:
    """Exhaustive max over intervals [a, b] with n in [a, b], |a-n|,|b-n| <= reach_cap."""
    _require_1d(f)
    if f and reach_cap < max(abs(p[0] - n) for p in f.support):
        raise ValueError("reach_cap does not cover the support")
    best: tuple[Fraction, int, int] | None = None
    for a in range(n - reach_cap, n + 1):
        for b in range(n, n + reach_cap + 1):
            total = Fraction(0)
            for t in range(a, b + 1):
                total += abs(f[(t,)])
            count = b - a + 1
            val = total / count
            if best is None or val > best[0] or (
                val == best[0] and (count, a) < (best[1], best[2])
            ):
                best = (val, count, a)
    assert best is not None
    val, count, a = best
    return ArgmaxWitness(val, count, LatticeBox((a,), (a + count - 1,)))


def brute_centered_l1(f: GridFunction, n: LatticePoint, r_cap: int) -> ArgmaxWitness:
    """Exhaustive max over r in [0, r_cap]; balls enumerated point by point."""
    n = tuple(n)
    d = f.dim
    if f and r_cap < max(
        sum(abs(a - b) for a, b in zip(p, n)) for p in f.support
    ):
        raise ValueError("r_cap does not cover the support")
    best_val = Fraction(0)
    best_r = 0
    best_count = 1
    for r in range(0, r_cap + 1):
        total = Fraction(0)
        count = 0
        for offset in product(range(-r, r + 1), repeat=d):
            if sum(abs(x) for x in offset) <= r:
                count += 1
                total += abs(f[tuple(a + b for a, b in zip(n, offset))])
        val = total / count
        if val > best_val:
            best_val, best_r, best_count = val, r, count
    return ArgmaxWitness(best_val, best_count, L1Ball(n, best_r))


def brute_uncentered_cube(f: GridFunction, n: LatticePoint, span_cap: int) -> ArgmaxWitness:
    """Exhaustive max of literal box averages over the cube traces through n.

    The search set is `lattice.admissible_boxes_through(n, support box,
    max_side=span_cap)`, the lattice's checked set of real-cube traces: the
    boxes with per-axis counts at most span_cap that differ by at most one,
    n inside, meeting the support's bounding box.  No fast path uses it.
    """
    n = tuple(n)
    bbox = f.support_box()
    if bbox is None:
        return ArgmaxWitness(Fraction(0), 1, LatticeBox(n, n))
    if span_cap < max(max(u, c) - min(l, c) + 1 for l, u, c in zip(*bbox, n)):
        raise ValueError("span_cap does not cover the support span")

    def rank(box: Box) -> tuple[Fraction, int, LatticePoint, LatticePoint]:
        # the largest average wins; ties go to the smallest count, then corners
        lower, upper = box
        total = Fraction(0)
        for p, v in f.items():
            if all(a <= x <= b for a, x, b in zip(lower, p, upper)):
                total += abs(v)
        count = prod(b - a + 1 for a, b in zip(lower, upper))
        return -total / count, count, lower, upper

    boxes = admissible_boxes_through(n, bbox, max_side=span_cap)
    value, count, lower, upper = min(map(rank, boxes))
    return ArgmaxWitness(-value, count, LatticeBox(lower, upper))


def brute_variation(
    values: dict[LatticePoint, Fraction], box: Box, zero_extend: bool = False
) -> Fraction:
    """Literal neighbour-difference sum over the box.

    Sums |v(n + e_i) - v(n)| over all edges with both endpoints inside the
    box; with `zero_extend`, edges crossing the boundary to the implicit
    zero extension are included too.
    """
    lower, upper = box
    d = len(lower)
    total = Fraction(0)
    for point in product(*(range(l, u + 1) for l, u in zip(lower, upper))):
        v = values.get(point, Fraction(0))
        for i in range(d):
            nb = tuple(c + (1 if j == i else 0) for j, c in enumerate(point))
            if nb[i] <= upper[i]:
                total += abs(values.get(nb, Fraction(0)) - v)
            elif zero_extend:
                total += abs(v)
        if zero_extend:
            for i in range(d):
                if point[i] == lower[i]:
                    total += abs(v)
    return total
