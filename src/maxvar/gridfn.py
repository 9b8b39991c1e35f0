"""Finitely supported functions on Z^d with exact rational values.

Everything downstream (maximal operators, variation sums, sharpness gaps)
relies on strict inequalities between rationals, so values are Fractions end
to end; floats appear only in display code.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .exact import tree_sum
from .lattice import Box, LatticePoint

Rational = Fraction | int | str


class GridFunction:
    """Immutable map from Z^d to Q with finite support.

    Zero values are dropped on construction; absent points read as 0.
    Signed values are accepted (the maximal operators average |f|), and
    `absolutize` produces the nonnegative working form.
    """

    __slots__ = ("_dim", "_values", "_support")

    def __init__(self, dim: int, values: Mapping[LatticePoint, Rational]):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        cleaned: dict[LatticePoint, Fraction] = {}
        for point, raw in values.items():
            # int() would take bools, truncate floats and Fractions and parse strings
            if any(isinstance(c, bool) or not hasattr(type(c), "__index__") for c in point):
                raise ValueError(f"point {point} has a non-integer coordinate")
            point = tuple(map(operator.index, point))
            if len(point) != dim:
                raise ValueError(f"point {point} does not have dimension {dim}")
            v = Fraction(raw)
            if v != 0:
                cleaned[point] = v
        self._dim = dim
        self._values = cleaned
        self._support = tuple(sorted(cleaned))

    @classmethod
    def delta(cls, point: LatticePoint | int, value: Rational = 1) -> "GridFunction":
        if isinstance(point, int):
            point = (point,)
        return cls(len(point), {tuple(point): value})

    @classmethod
    def zero(cls, dim: int) -> "GridFunction":
        return cls(dim, {})

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def support(self) -> tuple[LatticePoint, ...]:
        return self._support

    def __getitem__(self, point: LatticePoint | int) -> Fraction:
        if isinstance(point, int):
            point = (point,)
        return self._values.get(tuple(point), Fraction(0))

    def items(self) -> Iterable[tuple[LatticePoint, Fraction]]:
        for p in self._support:
            yield p, self._values[p]

    def __bool__(self) -> bool:
        return bool(self._values)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GridFunction)
            and self._dim == other._dim
            and self._values == other._values
        )

    def __hash__(self) -> int:
        return hash((self._dim, tuple((p, self._values[p]) for p in self._support)))

    def __repr__(self) -> str:
        return f"GridFunction(dim={self._dim}, support={len(self._support)} pts)"

    # -- derived quantities -------------------------------------------------

    def l1_norm(self) -> Fraction:
        return tree_sum(abs(v).as_integer_ratio() for v in self._values.values())

    def is_delta(self) -> bool:
        return len(self._support) == 1

    def absolutize(self) -> "GridFunction":
        if all(v > 0 for v in self._values.values()):
            return self
        return GridFunction(self._dim, {p: abs(v) for p, v in self._values.items()})

    def translate(self, shift: LatticePoint) -> "GridFunction":
        if len(shift) != self._dim:
            raise ValueError("shift dimension mismatch")
        return GridFunction(
            self._dim,
            {tuple(c + s for c, s in zip(p, shift)): v for p, v in self._values.items()},
        )

    def scale(self, factor: Rational) -> "GridFunction":
        factor = Fraction(factor)
        return GridFunction(self._dim, {p: v * factor for p, v in self._values.items()})

    def support_box(self) -> Box | None:
        if not self._support:
            return None
        lo = tuple(min(p[i] for p in self._support) for i in range(self._dim))
        hi = tuple(max(p[i] for p in self._support) for i in range(self._dim))
        return lo, hi

    def integer_masses(self) -> tuple[list[int], int]:
        """|f| on the support, in support order, as integers over `scale`.

        `scale` is the least common denominator, so |f(p_i)| = masses[i] / scale
        exactly and averages compare by integer cross-multiplication.
        """
        values = [self._values[p] for p in self._support]
        scale = math.lcm(*(v.denominator for v in values))
        return [abs(v.numerator) * (scale // v.denominator) for v in values], scale

    def support_radius(self) -> int:
        """Smallest R with support contained in the centered box [-R, R]^d."""
        if not self._support:
            return 0
        return max(abs(c) for p in self._support for c in p)


def lp_norm(f: GridFunction, p: float | Fraction) -> Fraction | float:
    """l^p norm of f.

    Exact rational for p = 1, p = inf, and for integer p whenever the p-th
    root of sum |f|^p happens to be rational (e.g. 3-4-5 style supports);
    otherwise a rounded float, computed from logarithms of the exact
    integers so that huge values do not overflow.
    """
    if p == float("inf"):
        return max((abs(v) for _, v in f.items()), default=Fraction(0))
    p_frac = Fraction(p)
    if p_frac < 1:
        raise ValueError("lp_norm requires p >= 1")
    if p_frac == 1 or not f:
        return f.l1_norm()
    if p_frac.denominator == 1:
        power = int(p_frac)
        total = tree_sum((abs(v) ** power).as_integer_ratio() for _, v in f.items())
        root = _exact_root(total, power)
        if root is not None:
            return root
        # logarithms of the exact integers: float(total) overflows past ~1e308
        return math.exp(_log(total) / power)
    # log(sum |v|^p) = top + log(sum exp(p log|v| - top)), top the largest term
    logs = [float(p_frac) * _log(abs(v)) for _, v in f.items()]
    top = max(logs)
    return math.exp((top + math.log(sum(math.exp(x - top) for x in logs))) / float(p_frac))


def _log(q: Fraction) -> float:
    """Natural logarithm of a positive rational of any size."""
    return math.log(q.numerator) - math.log(q.denominator)


def _exact_root(q: Fraction, n: int) -> Fraction | None:
    num = _iroot(q.numerator, n)
    den = _iroot(q.denominator, n)
    if num is not None and den is not None:
        return Fraction(num, den)
    return None


def _iroot(m: int, n: int) -> int | None:
    """The integer n-th root of m >= 1, or None if m is not an n-th power."""
    if n == 2:
        r = math.isqrt(m)
    else:
        # integer Newton steps from above descend to floor(m^(1/n))
        r = 1 << -(-m.bit_length() // n)
        while True:
            s = ((n - 1) * r + m // r ** (n - 1)) // n
            if s >= r:
                break
            r = s
    return r if r**n == m else None


def total_variation(f: GridFunction) -> Fraction:
    """Sum over all axis-parallel nearest-neighbour edges of |f(n+e_i)-f(n)|.

    Finite support makes the double sum finite: only edges touching the
    support contribute.
    """
    d = f.dim
    terms: list[tuple[int, int]] = []
    seen: set[tuple[LatticePoint, int]] = set()
    for p, _ in f.items():
        for i in range(d):
            for base in (p, tuple(c - (1 if j == i else 0) for j, c in enumerate(p))):
                key = (base, i)
                if key in seen:
                    continue
                seen.add(key)
                nb = tuple(c + (1 if j == i else 0) for j, c in enumerate(base))
                diff = abs(f[nb] - f[base])
                if diff:
                    terms.append(diff.as_integer_ratio())
    return tree_sum(terms)


def line_restriction(
    values: Mapping[LatticePoint, Fraction],
    axis: int,
    base: LatticePoint,
    box: Box,
) -> list[Fraction]:
    """Values of `values` along {base + t*e_axis}, clipped to `box`.

    Absent points read as zero.  Returned in increasing t.
    """
    lower, upper = box
    d = len(base)
    if not 0 <= axis < d:
        raise ValueError(f"axis {axis} out of range for dimension {d}")
    out = []
    for t in range(lower[axis], upper[axis] + 1):
        point = tuple(t if i == axis else base[i] for i in range(d))
        if all(lower[i] <= point[i] <= upper[i] for i in range(d)):
            out.append(values.get(point, Fraction(0)))
    return out


# ---------------------------------------------------------------------------
# Strings of local maxima / minima
# ---------------------------------------------------------------------------

Endpoint = int | None  # None encodes -inf (left slot) or +inf (right slot)


@dataclass(frozen=True)
class StringDecomposition:
    """Interleaved strings of local maxima and minima of a 1-D sequence.

    The sequence is the finite window extended by a constant `limit` on both
    sides, so the outermost strings may be infinite (None endpoint markers).
    `variation` is the exact total variation of the extended sequence;
    `pairing_sum` is twice the difference between summed maxima and minima
    levels, and `boundary_correction` makes the identity

        variation == pairing_sum + boundary_correction

    exact.  Strings that touch the truncation window boundary (or run to
    infinity) are flagged: for truncated maximal-function data they may not
    be strings of the untruncated function.
    """

    maxima: tuple[tuple[Endpoint, Endpoint], ...]
    minima: tuple[tuple[Endpoint, Endpoint], ...]
    maxima_levels: tuple[Fraction, ...]
    minima_levels: tuple[Fraction, ...]
    maxima_boundary: tuple[bool, ...]
    minima_boundary: tuple[bool, ...]
    is_constant: bool
    limit: Fraction
    variation: Fraction
    pairing_sum: Fraction
    boundary_correction: Fraction


def string_decomposition(
    seq: Sequence[Rational],
    start: int = 0,
    limit: Rational = 0,
) -> StringDecomposition:
    """Decompose a finite window (with constant two-sided limit) into strings.

    A string of local maxima is a maximal constant run strictly above both
    neighbouring values; minima are defined symmetrically.  A constant
    extended sequence has no strings and zero variation (flagged via
    `is_constant`).
    """
    values = [Fraction(v) for v in seq]
    limit = Fraction(limit)
    window_lo = start
    window_hi = start + len(values) - 1

    # runs of equal value over the extended sequence; None = infinite end
    runs: list[tuple[Fraction, Endpoint, Endpoint]] = [(limit, None, window_lo - 1)]
    for offset, v in enumerate(values):
        t = start + offset
        lvl, lo, hi = runs[-1]
        if v == lvl:
            runs[-1] = (lvl, lo, t)
        else:
            runs.append((v, t, t))
    lvl, lo, hi = runs[-1]
    if lvl == limit:
        runs[-1] = (lvl, lo, None)
    else:
        runs.append((limit, window_hi + 1, None))
    if len(runs) == 1:
        zero = Fraction(0)
        return StringDecomposition(
            (), (), (), (), (), (), True, limit, zero, zero, zero
        )

    maxima, minima = [], []
    max_lvls, min_lvls = [], []
    max_bdry, min_bdry = [], []
    variation_terms = []
    for idx, (lvl, lo, hi) in enumerate(runs):
        left = runs[idx - 1][0] if idx > 0 else None
        right = runs[idx + 1][0] if idx < len(runs) - 1 else None
        is_max = (left is None or lvl > left) and (right is None or lvl > right)
        is_min = (left is None or lvl < left) and (right is None or lvl < right)
        touches = (
            lo is None
            or hi is None
            or lo <= window_lo
            or hi >= window_hi
        )
        if is_max:
            maxima.append((lo, hi))
            max_lvls.append(lvl)
            max_bdry.append(touches)
        elif is_min:
            minima.append((lo, hi))
            min_lvls.append(lvl)
            min_bdry.append(touches)
        if right is not None:
            variation_terms.append(abs(runs[idx + 1][0] - lvl))

    variation = tree_sum(q.as_integer_ratio() for q in variation_terms)
    pairing = 2 * (
        tree_sum(q.as_integer_ratio() for q in max_lvls)
        - tree_sum(q.as_integer_ratio() for q in min_lvls)
    )
    return StringDecomposition(
        tuple(maxima),
        tuple(minima),
        tuple(max_lvls),
        tuple(min_lvls),
        tuple(max_bdry),
        tuple(min_bdry),
        False,
        limit,
        variation,
        pairing,
        variation - pairing,
    )
