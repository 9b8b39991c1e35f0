"""Small exact-arithmetic helpers shared across modules."""

from __future__ import annotations

import decimal
import re
from fractions import Fraction
from functools import cache
from math import gcd
from typing import Iterable


#: denominator size past which `tree_sum` joins reduced Fractions, not integer pairs
_REDUCE_BITS = 1 << 12


def tree_sum(pairs: Iterable[tuple[int, int]]) -> Fraction:
    """Exact sum of the rationals n / d given as integer pairs (n, d), d > 0.

    Balanced pairwise reduction: summing thousands of rationals with
    pairwise-coprime denominators left to right would make every step work
    against the full accumulated denominator; the tree keeps the operands
    small until its top.  While a level's denominators (one pair is checked)
    have at most `_REDUCE_BITS` bits, each node joins its children a/b and
    c/d on integers over the lcm of their denominators, with g = gcd(b, d),
    as (a (d/g) + c (b/g)) / (b (d/g)), and takes no numerator gcd.  Above
    that the nodes become reduced Fractions, whose `+` takes gcds only of
    the two denominators and of their common factor (Knuth, TAOCP vol. 2,
    4.5.1), never one at the root's full size.  Callers holding Fractions
    pass `q.as_integer_ratio()`.
    """
    items = list(pairs)
    while len(items) > 1 and items[1][1].bit_length() <= _REDUCE_BITS:
        nxt = []
        for (a, b), (c, d) in zip(items[::2], items[1::2]):
            g = gcd(b, d)
            d //= g
            nxt.append((a * d + c * (b // g), b * d))
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    parts = [Fraction(n, d) for n, d in items]
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
