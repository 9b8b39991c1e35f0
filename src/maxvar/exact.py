"""Small exact-arithmetic helpers shared across modules."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable


def tree_sum(terms: Iterable[Fraction]) -> Fraction:
    """Exact sum by pairwise reduction.

    Summing thousands of rationals with pairwise-coprime denominators left
    to right makes every step renormalise against the full accumulated
    denominator; balanced reduction keeps the intermediate operands small
    until the top of the tree.
    """
    items = list(terms)
    if not items:
        return Fraction(0)
    while len(items) > 1:
        nxt = [items[i] + items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


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
        return f"{sign}{whole}"
    int_part, frac_part = divmod(whole, scale)
    return f"{sign}{int_part}.{frac_part:0{digits}d}"


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q', integer, or decimal strings into an exact Fraction."""
    return Fraction(text.strip())


def format_rational(q: Fraction) -> str:
    """Canonical 'p/q' (or plain integer) form with q > 0 and gcd(p,q)=1.

    Prints every digit, however many: `str` of an int refuses more than
    the interpreter's conversion limit (4300 digits by default).
    """
    sign = "-" if q < 0 else ""
    num = _digits(abs(q.numerator))
    return sign + num if q.denominator == 1 else f"{sign}{num}/{_digits(q.denominator)}"


def _digits(n: int) -> str:
    """Decimal digits of n >= 0, split in halves while `str` refuses them."""
    try:
        return str(n)
    except ValueError:
        k = n.bit_length() * 3 // 20  # about half the digit count
        hi, lo = divmod(n, 10**k)
        return _digits(hi) + _digits(lo).zfill(k)

