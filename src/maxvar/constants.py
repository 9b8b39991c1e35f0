"""Exact partial sums and certified enclosures for the sharp variation ratios.

Two one-parameter families of constants are handled:

* centered cross-polytope averages, d >= 2:

      C(d) = 2d * (1 + sum_{k>=1} (N(d-1,k) - N(d-1,k-1)) / N(d,k))

* uncentered cube averages, d >= 1:

      Ct(d) = 2d * (1 + sum_{k>=1} (1/k) * ((2/(k+1) + (2k-1)/k)^(d-1)
                                            - ((2k-1)/k)^(d-1)))

Both sharp 1-D constants are exactly 2.  Uncentered, the d = 1 numerator
polynomial is zero: nothing is summed and the majorant certifies c = 0.
Centered, C(1) is undefined; the interval operator's constant is
`ONE_DIM_CENTERED_SHARP`, the one d = 1 branch, in `bound_for_geometry`.

For each (d, kind) the term t_k is a fixed rational function of k,
num(k) / den(k) with integer-coefficient polynomials (`_term_polynomials`).
Centered partial sums form the polynomials' values at k = 1..K by nested
cumulative sums over their constant highest forward difference, and add the
quotients as exact rationals.  This is exact for every k >= 1, not only
where it is checked: the centered num and den expand the closed form of
N(d, k) as a polynomial in k (see below), and the uncentered quotient equals
the defining expression by an algebraic identity in (a + b) and b.
`centered_term` and `uncentered_term` stay the reference definitions that
the polynomials are checked against at k = 1..40.

Uncentered partial sums go through the partial fractions of the term.  Let
m = d - 1.  num has the factor k (top(0) = bot(0) = -1 in
`_term_polynomials`), and the k^(2m) parts of top^m and bot^m cancel, so
after cancelling k the numerator has degree at most 2m - 2 over
k^m (k+1)^m.  Hence t_k = sum_{i<=m} alpha_i/k^i + beta_i/(k+1)^i with
integers alpha_i, beta_i (Taylor coefficients at k = 0 and k = -1), and
alpha_1 + beta_1 = 0 as t_k = O(1/k^2).  The (k+1)-parts telescope:

    S_K = r_0 + sum_i beta_i/(K+1)^i + sum_{k=1}^{K} Q(k)/k^m,

r_0 = 2d - sum_i beta_i and Q(k) = sum_{i>=2} q_i k^(m-i), q_i = alpha_i +
beta_i; at d <= 2, Q = 0 and nothing is summed.  So Ct(d) = r_0 +
sum_{j>=2} q_j zeta(j) (Edwards, *Riemann's Zeta Function*, 1974).
`_uncentered_parts` proves the split by recombining it into num/den as
integer polynomials, and raises if that fails or alpha_1 + beta_1 != 0.
The root of the sum over k has denominator lcm(1..K)^m, but `tree_sum`
joins neighbouring pairs over the lcm of their denominators: in k order
consecutive k share almost no prime, so its integer levels carry
denominators near the products of neighbouring k^m.  The pairs go in
shared-prime order instead (`_shared_prime_order`: k stably sorted by
largest prime factor), where siblings share their large primes and each
level's lcm stays near the lcm of its own k^m.

Enclosures add a certified tail bound: we certify a majorant

    t_k <= c / (k (k+1))        for all k >= k0,

by one shift-and-sign test, `_nonnegative_from(poly, k0)`: the coefficients
of poly(k0 + t) in t are nonnegative, so poly >= 0 at every k >= k0.  It is
applied to c * den(k) - k (k+1) * num(k), den and num, so the division is
sound and the terms are nonnegative.  The tail beyond K >= k0 - 1 then
telescopes to at most c / (K+1).  The centered numerator/denominator
polynomials expand the binomial sum N(d, k) = sum_i 2^i C(d, i) C(k, i) of
`lattice.l1_ball_count` with C(k, i) = k (k - 1) ... (k - i + 1) / i!, which
holds at every k >= 0 (C(k, i) vanishes for i > k); it is checked against
`l1_ball_count` at k = 0..d + 40.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, islice, repeat
from math import comb, factorial, lcm

from . import lattice
from .exact import tree_sum
from .maxop import BallSpec

KINDS = ("centered", "uncentered")

#: sharp constant in Var Mf <= 2 ||f||_1 for the centered interval operator on Z
ONE_DIM_CENTERED_SHARP = Fraction(2)


# ---------------------------------------------------------------------------
# Series terms and partial sums
# ---------------------------------------------------------------------------

def centered_term(d: int, k: int) -> Fraction:
    """k-th series term of C(d): 2d * shell_{d-1}(k) / N(d, k)."""
    if d < 2:
        raise ValueError("centered constants are defined for d >= 2")
    if k < 1:
        raise ValueError("terms are indexed from k = 1")
    return Fraction(2 * d * lattice.l1_shell_count(d - 1, k), lattice.l1_ball_count(d, k))


def uncentered_term(d: int, k: int) -> Fraction:
    """k-th series term of Ct(d)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if k < 1:
        raise ValueError("terms are indexed from k = 1")
    a = Fraction(2, k + 1)
    b = Fraction(2 * k - 1, k)
    return Fraction(2 * d, k) * ((a + b) ** (d - 1) - b ** (d - 1))


def centered_constant_partial(d: int, K: int) -> Fraction:
    """Partial sum of C(d) through k = K (K = 0 gives 2d)."""
    if d < 2:
        raise ValueError(
            "centered constants are defined for d >= 2; "
            "the sharp 1-D constant is ONE_DIM_CENTERED_SHARP"
        )
    if K < 0:
        raise ValueError("K must be >= 0")
    return _partial_sum(d, K, "centered")


def uncentered_constant_partial(d: int, K: int) -> Fraction:
    """Partial sum of Ct(d) through k = K."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if K < 0:
        raise ValueError("K must be >= 0")
    return _partial_sum(d, K, "uncentered")


def _partial_sum(d: int, K: int, kind: str) -> Fraction:
    """2d + sum_{k=1}^{K} term_k: centered from the integer term polynomials,
    uncentered from its partial fractions, summing nothing at d <= 2."""
    if kind == "uncentered":
        r0, B, Q = _uncentered_parts(d)
        lower = r0 + Fraction(_peval(B, K + 1), (K + 1) ** (d - 1))
        if not Q:
            return lower
        values = list(_pvalues(Q, K))
        return lower + tree_sum((values[k - 1], k ** (d - 1)) for k in _shared_prime_order(K))
    num, den = _term_polynomials(d, kind)
    return 2 * d + tree_sum(zip(_pvalues(num, K), _pvalues(den, K)))


def _shared_prime_order(K: int) -> list[int]:
    """1..K stably sorted by largest prime factor (1 first), from one sieve:
    each prime p overwrites its multiples, so the largest one stays."""
    top = list(range(K + 1))
    for p in range(2, K // 2 + 1):
        if top[p] == p:
            top[2 * p::p] = [p] * (K // p - 1)
    return sorted(range(1, K + 1), key=top.__getitem__)


# ---------------------------------------------------------------------------
# Polynomial helpers (coefficient tuples, ascending powers, int or Fraction
# entries; integer inputs give integer outputs)
# ---------------------------------------------------------------------------

Poly = tuple[int | Fraction, ...]


def _padd(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def _pneg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def _pscale(a: Poly, s: int | Fraction) -> Poly:
    return tuple(c * s for c in a)


def _pmul(a: Poly, b: Poly) -> Poly:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def _ppow(a: Poly, n: int) -> Poly:
    out: Poly = (1,)
    for _ in range(n):
        out = _pmul(out, a)
    return out


def _peval(a: Poly, x: int | Fraction) -> int | Fraction:
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _pvalues(a: Poly, K: int) -> islice:
    """a(1), ..., a(K): m nested cumulative sums over the constant m-th
    forward difference of a, for a of degree m, started from a(1..m+1)."""
    rows = [[_peval(a, k) for k in range(1, max(len(a), 1) + 1)]]
    while len(rows[-1]) > 1:
        rows.append([y - x for x, y in zip(rows[-1], rows[-1][1:])])
    values = repeat(rows.pop()[0])
    for row in reversed(rows):
        values = accumulate(values, initial=row[0])
    return islice(values, K)


def _pshift(a: Poly, h: int) -> Poly:
    """Coefficients of a(h + t) as a polynomial in t."""
    out: Poly = ()
    for c in reversed(a):
        out = _padd(_pmul(out, (h, 1)), (c,))
    return out


def _nonnegative_from(poly: Poly, k0: int) -> bool:
    """True when poly(k0 + t) has no negative coefficient in t, which makes
    poly nonnegative at every real k >= k0."""
    return all(coef >= 0 for coef in _pshift(poly, k0))


def _ptrim(a: Poly) -> Poly:
    n = len(a)
    while n > 0 and a[n - 1] == 0:
        n -= 1
    return a[:n]


@cache
def _count_poly(d: int) -> Poly:
    """N(d, k) = sum_i 2^i C(d, i) C(k, i) as a polynomial in k, with
    C(k, i) = k (k - 1) ... (k - i + 1) / i!, checked against
    `lattice.l1_ball_count` on k = 0..d + 40."""
    poly: Poly = (1,)
    falling: Poly = (1,)  # k (k - 1) ... (k - i + 1)
    for i in range(1, d + 1):
        falling = _pmul(falling, (1 - i, 1))
        poly = _padd(poly, _pscale(falling, Fraction(2**i * comb(d, i), factorial(i))))
    for k in range(0, d + 41):
        if _peval(poly, k) != lattice.l1_ball_count(d, k):
            raise AssertionError(f"count polynomial mismatch at d={d}, k={k}")
    return _ptrim(poly)


@cache
def _term_polynomials(d: int, kind: str) -> tuple[Poly, Poly]:
    """(num, den) with term_k = num(k) / den(k) for k >= 1, both with int coefficients.

    Partial sums are formed from these polynomials, so they must give the term
    exactly at every k >= 1, not only at the k = 1..40 checked here.
    Centered: num = 2d * (N(d-1, k) - N(d-1, k-1)) and den = N(d, k) come
    from `_count_poly`, whose binomial sum is N(d, k) at every k >= 0;
    clearing their denominators with one common lcm leaves the quotient
    unchanged.  Uncentered: with a + b = top / (k(k+1))
    and b = bot / (k(k+1)), the term (2d/k)((a + b)^(d-1) - b^(d-1)) equals
    2d (top^(d-1) - bot^(d-1)) / (k^d (k+1)^(d-1)) as an algebraic identity.
    """
    x: Poly = (0, 1)
    if kind == "centered":
        shell = _padd(_count_poly(d - 1), _pneg(_pshift(_count_poly(d - 1), -1)))
        num = _pscale(shell, 2 * d)
        den = _count_poly(d)
        scale = lcm(*(c.denominator for c in num + den))
        num, den = (tuple(int(c * scale) for c in p) for p in (num, den))
    else:
        # a + b = (2k^2 + 3k - 1) / (k(k+1)), b = (2k^2 + k - 1) / (k(k+1))
        top = (-1, 3, 2)
        bot = (-1, 1, 2)
        num = _pscale(_padd(_ppow(top, d - 1), _pneg(_ppow(bot, d - 1))), 2 * d)
        den = _pmul(_ppow(x, d), _ppow(_padd(x, (1,)), d - 1))
    num, den = _ptrim(num), _ptrim(den)
    term = centered_term if kind == "centered" else uncentered_term
    for k in range(1, 41):
        if Fraction(_peval(num, k), _peval(den, k)) != term(d, k):
            raise AssertionError(
                f"term polynomial mismatch at d={d}, kind={kind}, k={k}"
            )
    return num, den


@cache
def _uncentered_parts(d: int) -> tuple[int, Poly, Poly]:
    """(r_0, B, Q) of the module docstring, B(t) = sum_i beta_i t^(m-i), proven
    by recombining them into `_term_polynomials` as integer polynomials."""
    num, den = _term_polynomials(d, "uncentered")
    m, x, x1 = d - 1, (0, 1), (1, 1)
    # Taylor quotients of num/k by (k+1)^m at k = 0 and by k^m = (t-1)^m at t = k + 1 = 0,
    # from 1/(1+x)^m = sum_j C(m+j-1, j) (-x)^j; A(k)/k^m = sum_i alpha_i/k^i
    series = [comb(m + j - 1, j) for j in range(m)]
    A = _pmul(num[1:], tuple((-1) ** j * c for j, c in enumerate(series)))[:m]
    B = _pmul(_pshift(num[1:], -1), tuple((-1) ** m * c for c in series))[:m]
    joined = _padd(_pmul(A, _ppow(x1, m)), _pmul(_pshift(B, 1), _ppow(x, m)))
    if (_ptrim(_pmul(x, joined)) != num or den != _pmul(_ppow(x, d), _ppow(x1, m))
            or m and A[-1] + B[-1]):  # alpha_1 + beta_1
        raise AssertionError(f"uncentered partial fractions fail at d={d}")
    return 2 * d - sum(B), B, _padd(A, B)[: m - 1]


@dataclass(frozen=True)
class TailMajorant:
    """Certificate that term_k <= c / (k (k+1)) for every k >= crossover."""

    d: int
    kind: str
    c: Fraction
    crossover: int
    statement: str

    def tail_bound(self, K: int) -> Fraction:
        """Upper bound for sum_{k > K} term_k; requires K >= crossover - 1."""
        if K < self.crossover - 1:
            raise ValueError(
                f"K = {K} is below the certified crossover {self.crossover}"
            )
        return self.c / (K + 1)


@cache
def tail_majorant(d: int, kind: str) -> TailMajorant:
    """Search for and certify a termwise majorant c / (k (k+1)).

    The certificate is exact: `_nonnegative_from(poly, k0)` for poly =
    c * den - k(k+1) * num, den and num, so the division is sound and the
    terms are nonnegative (making the partial sums genuine lower bounds).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "centered" and d < 2:
        raise ValueError("centered constants are defined for d >= 2")
    num, den = _term_polynomials(d, kind)
    kk1 = _pmul(num, (0, 1, 1))  # k(k+1) * num
    scan = max(
        (Fraction(_peval(kk1, k), _peval(den, k)) for k in range(1, 513)),
        default=Fraction(0),
    )
    if len(kk1) == len(den):
        scan = max(scan, Fraction(kk1[-1], den[-1]))
    elif len(kk1) > len(den):
        raise AssertionError("term does not decay like 1/k^2")
    c = scan
    for _ in range(8):
        rem = _padd(_pscale(den, c), _pneg(kk1))
        for k0 in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64):
            if all(_nonnegative_from(p, k0) for p in (rem, den, num)):
                statement = (
                    f"term_k <= {c}/(k(k+1)) for all k >= {k0}: the polynomial "
                    f"{c}*den(k) - k(k+1)*num(k) has nonnegative coefficients "
                    f"after the substitution k -> {k0} + t, hence the tail "
                    f"beyond K telescopes to at most {c}/(K+1)"
                )
                return TailMajorant(d, kind, c, k0, statement)
        c *= Fraction(17, 16)
    raise AssertionError(f"no tail majorant certificate found for d={d}, {kind}")


# ---------------------------------------------------------------------------
# Enclosures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantEnclosure:
    """Exact rational bracket [lower, upper] for a sharp constant.

    `lower` is the partial sum through k = terms_used, `upper` adds the
    certified tail majorant.  The true constant lies in the closed interval.
    """

    d: int
    kind: str
    terms_used: int
    lower: Fraction
    upper: Fraction
    majorant: TailMajorant

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    def contains(self, x: Fraction) -> bool:
        return self.lower <= x <= self.upper


def constant_enclosure(d: int, K: int, kind: str) -> ConstantEnclosure:
    """Certified enclosure from K exact terms plus the tail majorant.

    Rejects K below the majorant's certified crossover.  For uncentered
    d = 1 no term is summed and c = 0, so the enclosure is the point [2, 2].
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    maj = tail_majorant(d, kind)
    if K < 0:
        raise ValueError("K must be >= 0")
    lower = _partial_sum(d, K, kind)
    upper = lower + maj.tail_bound(K)
    return ConstantEnclosure(d, kind, K, lower, upper, maj)


def bound_for_geometry(geometry: str, dim: int, terms: int = 1000) -> ConstantEnclosure:
    """Enclosure of the sharp Var/||f||_1 ratio bound for an operator geometry.

    The bound depends only on whether the geometry is centered and on dim,
    so the 1-D names share theirs with l1 and cube at d = 1.  Centered at
    d = 1 it is the point `ONE_DIM_CENTERED_SHARP`.  Cached per (centered,
    dim, terms): the enclosure is frozen, and every adaptive run needs it.
    """
    centered = BallSpec(geometry, dim).centered
    if terms < 0:
        raise ValueError("K must be >= 0")
    return _bound(centered, dim, terms)


@cache
def _bound(centered: bool, dim: int, terms: int) -> ConstantEnclosure:
    if centered and dim == 1:
        maj = TailMajorant(1, "centered", Fraction(0), 0, "exact sharp constant 2")
        two = ONE_DIM_CENTERED_SHARP
        return ConstantEnclosure(1, "centered", 0, two, two, maj)
    return constant_enclosure(dim, terms, "centered" if centered else "uncentered")
