"""Small exact-arithmetic helpers shared across modules."""

from __future__ import annotations

import decimal
import re
from fractions import Fraction
from functools import cache
from math import gcd
from typing import Iterable


#: denominator size past which a pair tree joins reduced Fractions, not integer pairs
_REDUCE_BITS = 1 << 12


def tree_sum(pairs: Iterable[tuple[int, int]]) -> Fraction:
    """Exact sum of the pairs' n / d, d > 0, by `_pair_sum`; Fractions pass `q.as_integer_ratio()`."""
    return _pair_sum(list(pairs))


class PairTree:
    """`_pair_sum` over prefixes of a growing list of denominators, its joins
    kept: node j of level l covers leaves [j 2^l, (j+1) 2^l) in every prefix
    holding them all, so a sum takes gcds only at nodes no earlier sum formed
    and at the one node per level that its length cuts short."""

    def __init__(self, leaves: Iterable[int] = ()) -> None:
        self.leaves = list(leaves)  # extended, never changed: the records hold joins of its start
        self._levels: list[list[tuple[int, int, int]]] = []  # per level: its joins' (u, v, b u)

    def sum(self, nums: list[int], scale: int = 1) -> Fraction:
        """Exact sum of nums[k] / (scale d_k) over the first len(nums) leaves d_k."""
        if len(nums) > len(self.leaves):
            raise ValueError(f"{len(nums)} numerators for {len(self.leaves)} leaves")
        self._levels += [[] for _ in range(len(self._levels), len(nums).bit_length())]
        return _pair_sum(list(zip(nums, self.leaves)), self._levels, scale)


def _pair_sum(items: list[tuple[int, int]], levels=(), scale: int = 1) -> Fraction:
    """Exact sum of n / (scale d) over the pairs (n, d) by a balanced pair tree.

    Level l + 1 joins nodes 2j and 2j + 1 of level l and carries an odd last
    one up, so operands stay small until the top.  While node 1 of a level
    has at most `_REDUCE_BITS` bits, a/b and c/d join over their lcm as
    (a u + c v) / (b u), with g = gcd(b, d), u = d/g, v = b/g, and no
    numerator gcd; above it the nodes are reduced Fractions, whose `+` never
    takes a gcd at the root's full size (Knuth, TAOCP vol. 2, 4.5.1).  Given
    `levels`, the (u, v, b u) of each join of two complete nodes are read
    from the level's records if there, and recorded if not.
    """
    n, level, h, nxt, keep = len(items), 0, 0, [], False
    while len(items) > 1 and items[1][1].bit_length() <= _REDUCE_BITS:
        if levels:
            joins = levels[level]
            k = n >> level + 1  # joins of two complete nodes, the first h of them replayed
            h, keep = min(len(joins), k), len(joins) < k  # keep: record the rest
            nxt = [(a * u + c * v, D) for (a, _), (c, _), (u, v, D) in zip(items[::2], items[1::2], joins[:h])]
        for (a, b), (c, d) in zip(items[2 * h :: 2], items[2 * h + 1 :: 2]):
            g = gcd(b, d)
            u, v = d // g, b // g
            nxt.append((a * u + c * v, D := b * u))
            if keep and len(joins) < k:
                joins.append((u, v, D))
        if len(items) % 2:
            nxt.append(items[-1])
        items, nxt, level = nxt, [], level + 1
    parts = [Fraction(a, b * scale) for a, b in items]
    while len(parts) > 1:
        parts = [p + q for p, q in zip(parts[::2], parts[1::2])] + parts[len(parts) & ~1:]
    return parts[0] if parts else Fraction(0)


def decimal_str(q: Fraction, digits: int = 12) -> str:
    """Deterministic decimal rendering of a rational, round half to even.

    Pure integer arithmetic; used only for display columns, never in
    certificates.
    """
    if digits < 0:
        raise ValueError("digits must be >= 0")
    sign = "-" if q < 0 else ""
    q = abs(q)
    scale = 10**digits
    scaled = q * scale
    whole, rem = divmod(scaled.numerator, scaled.denominator)
    # round half to even on the last kept digit
    twice = 2 * rem
    if twice > scaled.denominator or (twice == scaled.denominator and whole % 2 == 1):
        whole += 1
    if digits == 0:
        return sign + _digits(whole)
    int_part, frac_part = divmod(whole, scale)
    return f"{sign}{_digits(int_part)}.{_digits(frac_part).zfill(digits)}"


#: most exponent digits `parse_rational` expands: 10^99999 takes milliseconds,
#: while Fraction would spend hours expanding 1e999999999 before any check
_EXPONENT_DIGITS = 5


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q', integer, or decimal strings into an exact Fraction."""
    shown = repr(text) if len(text) <= 40 else repr(text[:40]) + "..."  # bounded message
    exponent = re.search(r"e[-+]?([\d_]*)\s*$", text, re.IGNORECASE)
    if exponent and len(exponent[1].replace("_", "").lstrip("0")) > _EXPONENT_DIGITS:
        raise ValueError(f"exponent of more than {_EXPONENT_DIGITS} digits in {shown}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {shown}") from None
    except ValueError:  # Fraction's own message would quote the whole text
        raise ValueError(f"not a rational number, or too many digits: {shown}") from None


def format_rational(q: Fraction) -> str:
    """Canonical 'p/q' (or plain integer) form with q > 0 and gcd(p,q)=1.

    Prints every digit, however many: `str` of an int refuses more than
    the interpreter's conversion limit (4300 digits by default).
    """
    sign = "-" if q < 0 else ""
    num = _digits(abs(q.numerator))
    return sign + num if q.denominator == 1 else f"{sign}{num}/{_digits(q.denominator)}"


#: below this many bits `str` is fast and within every allowed digit limit
_STR_BITS = 2048


def _digits(n: int) -> str:
    """Decimal digits of n >= 0 in time subquadratic in its length.

    Large n are split in binary halves, n = hi * 2^w + lo, converted to
    `decimal.Decimal` and recombined there, where multiplication is
    subquadratic; the context holds every digit and traps Inexact, so the
    result is exact or raises.
    """
    if n.bit_length() <= _STR_BITS:
        return str(n)

    @cache
    def pow2(w: int) -> decimal.Decimal:
        if w <= _STR_BITS:
            return decimal.Decimal(1 << w)
        return pow2(w >> 1) * pow2(w - (w >> 1))

    def convert(n: int, w: int) -> decimal.Decimal:
        if w <= _STR_BITS:
            return decimal.Decimal(n)
        half = w >> 1
        hi = n >> half
        return convert(hi, w - half) * pow2(half) + convert(n - (hi << half), half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return str(convert(n, n.bit_length()))
