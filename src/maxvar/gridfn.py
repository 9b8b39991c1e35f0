"""Finitely supported functions on Z^d with exact rational values.

Everything downstream (maximal operators, variation sums, sharpness gaps)
relies on strict inequalities between rationals, so values are Fractions end
to end; floats appear only in display code.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping

from .exact import tree_sum
from .lattice import Box, LatticePoint

Rational = Fraction | int | str


class GridFunction:
    """Immutable map from Z^d to Q with finite support.

    Zero values are dropped on construction; absent points read as 0.
    Signed values are accepted; the maximal operators average |f|.
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
