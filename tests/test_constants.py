import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from maxvar import constants
from maxvar.constants import (
    ONE_DIM_CENTERED_SHARP,
    TailMajorant,
    bound_for_geometry,
    centered_constant_partial,
    centered_term,
    constant_enclosure,
    tail_majorant,
    uncentered_constant_partial,
    uncentered_term,
    _nonnegative_from,
    _partial_sum,
    _peval,
    _pvalues,
    _term_polynomials,
)
from maxvar.exact import tree_sum

Q = Fraction


class TestPartialSums:
    def test_centered_empty_sum(self):
        assert centered_constant_partial(2, 0) == 4

    def test_centered_two_terms(self):
        assert centered_constant_partial(2, 2) == Q(404, 65)

    def test_centered_d3(self):
        assert centered_constant_partial(3, 1) == Q(66, 7)

    def test_centered_d1_rejected(self):
        with pytest.raises(ValueError):
            centered_constant_partial(1, 5)
        assert ONE_DIM_CENTERED_SHARP == 2

    def test_centered_d2_closed_form(self):
        for K in (0, 1, 5, 50):
            closed = 4 + 8 * sum(
                (Q(1, k * k + (k + 1) * (k + 1)) for k in range(1, K + 1)),
                Q(0),
            )
            assert centered_constant_partial(2, K) == closed

    def test_uncentered_d1_is_two(self):
        for K in (0, 1, 10, 100):
            assert uncentered_constant_partial(1, K) == 2

    def test_uncentered_d1_sums_no_term(self, monkeypatch):
        # its term numerator is the zero polynomial, so no K costs anything
        monkeypatch.setattr(constants, "tree_sum", None)
        partial = uncentered_constant_partial(1, 10**12)
        assert partial == 2 and isinstance(partial, Fraction)

    def test_uncentered_d2_telescopes(self):
        for K in (1, 7, 10, 1000):
            assert uncentered_constant_partial(2, K) == 12 - Q(8, K + 1)
        assert uncentered_constant_partial(2, 1) == 8

    def test_nondecreasing_in_K(self):
        prev_c = prev_u = None
        for K in range(0, 20):
            c = centered_constant_partial(3, K)
            u = uncentered_constant_partial(3, K)
            if prev_c is not None:
                assert c > prev_c and u > prev_u
            prev_c, prev_u = c, u


class TestTermPolynomials:
    @pytest.mark.parametrize("kind", ["centered", "uncentered"])
    @pytest.mark.parametrize("d", range(2, 9))
    def test_coefficients_are_ints(self, d, kind):
        num, den = _term_polynomials(d, kind)
        assert num and den
        assert all(type(c) is int for c in num + den)

    @pytest.mark.parametrize(
        "kind, d",
        [("centered", d) for d in range(2, 9)] + [("uncentered", d) for d in range(1, 9)],
    )
    @settings(derandomize=True, database=None, deadline=None, max_examples=10)
    @given(K=st.integers(0, 400))
    def test_partial_sums_equal_the_reference_terms(self, kind, d, K):
        if kind == "centered":
            partial, term = centered_constant_partial, centered_term
        else:
            partial, term = uncentered_constant_partial, uncentered_term
        assert partial(d, K) == 2 * d + sum((term(d, k) for k in range(1, K + 1)), Q(0))


POLYNOMIALS = {
    f"{kind}-{d}-{part}": p
    for kind in ("centered", "uncentered")
    for d in range(2, 9)
    for part, p in zip(("num", "den"), _term_polynomials(d, kind))
} | {"zero": (), "const8": (8,), "const-3": (-3,), "linear": (2, 5), "minus-k": (0, -1)}


class TestCumulativeValues:
    """`_pvalues` forms a(1..K) by nested cumulative sums; Horner is the reference."""

    @pytest.mark.parametrize("name", POLYNOMIALS)
    def test_equal_horner(self, name):
        a = POLYNOMIALS[name]
        m = max(len(a) - 1, 0)
        for K in (0, 1, 2, m, m + 1, m + 2, 60):
            assert list(_pvalues(a, K)) == [_peval(a, k) for k in range(1, K + 1)], K

    @pytest.mark.parametrize("kind", ["centered", "uncentered"])
    @pytest.mark.parametrize("d", range(2, 9))
    def test_partial_sums_equal_the_term_sums(self, d, kind):
        term = centered_term if kind == "centered" else uncentered_term
        total = Q(2 * d)
        for K in range(0, 61):
            if K:
                total += term(d, K)
            assert _partial_sum(d, K, kind) == total, K


def _term_polynomial_sum(d, K):
    """The uncentered partial sum as the term polynomials give it: 2d plus
    the exact quotients num(k)/den(k), k = 1..K, joined by `tree_sum`."""
    num, den = _term_polynomials(d, "uncentered")
    if not num:
        return Q(2 * d)
    return 2 * d + tree_sum(zip(_pvalues(num, K), _pvalues(den, K)))


def _corrupt(monkeypatch, change):
    """Let `_uncentered_parts` read `change(num)` as its numerator."""
    polys = _term_polynomials
    monkeypatch.setattr(constants, "_term_polynomials",
                        lambda d, kind: (change(polys(d, kind)[0]), polys(d, kind)[1]))


class TestUncenteredPartialFractions:
    """S_K = r_0 + sum_i beta_i/(K+1)^i + sum_{k<=K} Q(k)/k^(d-1), proven by
    recombining the parts into the term polynomials."""

    # Ct(d) = r_0 + sum_{j>=2} q_j zeta(j), q listed from j = 2
    @pytest.mark.parametrize("d, r0, q", [
        (2, 12, ()),
        (3, 126, (-48,)),
        (4, 1304, (-688, -16)),
        (5, 12410, (-6880, -320, -240)),
    ])
    def test_closed_form_coefficients(self, d, r0, q):
        r, _, poly = constants._uncentered_parts(d)
        assert (r, poly[::-1]) == (r0, q)
        assert all(type(c) is int for c in poly)

    @pytest.mark.parametrize("d", range(1, 9))
    @settings(derandomize=True, database=None, deadline=None, max_examples=8)
    @given(K=st.integers(0, 3100))
    def test_equal_the_term_polynomial_sums(self, d, K):
        for k in {0, 1, 2, d - 1, d, d + 1, 60, K}:
            assert _partial_sum(d, k, "uncentered") == _term_polynomial_sum(d, k), k

    @pytest.mark.parametrize("K", [0, 1, 2, 97, 1024, 3100])
    def test_shared_prime_order_is_a_permutation(self, K):
        assert sorted(constants._shared_prime_order(K)) == list(range(1, K + 1))

    def test_d2_sums_no_term(self, monkeypatch):
        monkeypatch.setattr(constants, "tree_sum", None)
        enc = constant_enclosure(2, 10**12, "uncentered")
        assert (enc.lower, enc.upper) == (12 - Q(8, 10**12 + 1), 12)

    # a nonzero constant term: num/den has no factor k to cancel
    def test_recombination_checks_the_numerator(self, monkeypatch):
        _corrupt(monkeypatch, lambda num: (1,) + num[1:])
        with pytest.raises(AssertionError, match="partial fractions"):
            constants._uncentered_parts.__wrapped__(4)

    # a term of order 1/k: the parts recombine, but alpha_1 + beta_1 != 0
    def test_the_1_over_k_parts_must_cancel(self, monkeypatch):
        _corrupt(monkeypatch, lambda num: num + (1,))
        with pytest.raises(AssertionError, match="partial fractions"):
            constants._uncentered_parts.__wrapped__(4)


class TestTailMajorants:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_centered_certificates_exist(self, d):
        maj = tail_majorant(d, "centered")
        assert maj.c > 0 and maj.crossover >= 1
        for k in range(maj.crossover, 2000, 37):
            assert centered_term(d, k) <= maj.c / (k * (k + 1))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_uncentered_certificates_exist(self, d):
        maj = tail_majorant(d, "uncentered")
        for k in range(max(maj.crossover, 1), 2000, 37):
            assert uncentered_term(d, k) <= maj.c / (k * (k + 1))

    def test_centered_d2_majorant_tight(self):
        maj = tail_majorant(2, "centered")
        assert maj.c == 4 and maj.crossover == 1

    def test_uncentered_d2_majorant_exact(self):
        maj = tail_majorant(2, "uncentered")
        assert maj.c == 8 and maj.crossover == 1
        # the d=2 term IS 8/(k(k+1)), so the majorant is an identity
        for k in (1, 2, 17):
            assert uncentered_term(2, k) == Q(8, k * (k + 1))

    def test_uncentered_d1_certifies_zero(self):
        # the zero numerator leaves nothing to bound: the general search
        # certifies c = 0 at the first start
        maj = tail_majorant(1, "uncentered")
        assert maj.c == 0 and maj.crossover == 1

    def test_search_pinned_through_d20(self):
        # sha256 of the "kind d c crossover" lines: a change to the search
        # order, the start list or the certificate test moves it
        rows = [(kind, d, tail_majorant(d, kind)) for kind in ("centered", "uncentered")
                for d in range(2, 21)]
        text = "".join(f"{kind} {d} {m.c} {m.crossover}\n" for kind, d, m in rows)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "57757241c0aec49c7d6a9c95b16b9ae628e1df7765942f5c1a9e55dbe286aa56"
        )
        # k0 > 1 is reached only by uncentered d >= 16
        late = {(kind, d): m.crossover for kind, d, m in rows if m.crossover > 1}
        assert late == {("uncentered", 16): 24, ("uncentered", 17): 12,
                        ("uncentered", 18): 8, ("uncentered", 19): 8, ("uncentered", 20): 6}

    def test_nonnegative_from(self):
        poly = (8, -6, 1)  # (k - 2)(k - 4): shifted by 3, t^2 - 1; by 4, t^2 + 2t
        assert not _nonnegative_from(poly, 3)
        assert _nonnegative_from(poly, 4)
        assert _nonnegative_from((), 1)

    def test_below_crossover_rejected(self):
        maj = TailMajorant(2, "centered", Q(4), 3, "synthetic")
        with pytest.raises(ValueError):
            maj.tail_bound(1)


class TestEnclosures:
    def test_uncentered_d1_point_interval(self):
        for K in (0, 10, 10**12):
            enc = constant_enclosure(1, K, "uncentered")
            assert enc.lower == enc.upper == 2

    def test_uncentered_d2_width_exact(self):
        enc = constant_enclosure(2, 1000, "uncentered")
        assert enc.lower == 12 - Q(8, 1001)
        assert enc.upper == 12
        assert enc.width == Q(8, 1001)
        assert enc.contains(Q(12))

    def test_centered_d2_width_bound(self):
        for K in (10, 100, 1000):
            enc = constant_enclosure(2, K, "centered")
            assert enc.width <= Q(8, K)

    def test_nesting(self):
        prev = None
        for K in (1, 2, 4, 8, 16, 32):
            enc = constant_enclosure(2, K, "centered")
            if prev is not None:
                assert prev.lower <= enc.lower and enc.upper <= prev.upper
            prev = enc

    def test_limit_in_every_enclosure_uncentered_d2(self):
        for K in (1, 3, 10, 200):
            assert constant_enclosure(2, K, "uncentered").contains(Q(12))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            constant_enclosure(2, 5, "fancy")


class TestGeometryBounds:
    def test_centered_1d_exact_two(self):
        enc = bound_for_geometry("centered1d", 1)
        assert enc.lower == enc.upper == 2

    def test_uncentered_1d_exact_two(self):
        enc = bound_for_geometry("uncentered1d", 1)
        assert enc.lower == enc.upper == 2

    @pytest.mark.parametrize("geometry, dim", [("centered1d", 1), ("uncentered1d", 1), ("l1", 2)])
    def test_negative_terms_rejected(self, geometry, dim):
        with pytest.raises(ValueError, match="K must be >= 0"):
            bound_for_geometry(geometry, dim, -1)

    def test_default_and_explicit_terms_share_one_enclosure(self):
        assert bound_for_geometry("l1", 2) is bound_for_geometry("l1", 2, 1000)

    def test_1d_names_share_the_d1_enclosures(self):
        assert bound_for_geometry("cube", 1) is bound_for_geometry("uncentered1d", 1, 1000)
        assert bound_for_geometry("l1", 1) is bound_for_geometry("centered1d", 1)

    def test_cube_d2_upper_is_twelve(self):
        assert bound_for_geometry("cube", 2, terms=50).upper == 12

    def test_l1_d2(self):
        enc = bound_for_geometry("l1", 2, terms=2000)
        assert enc.width < Q(1, 400)
        assert Q(15, 2) < enc.lower < enc.upper < Q(76, 10)


_OPTIMIZED_CERTIFICATES = """
import sys
from fractions import Fraction
from maxvar import constants, lattice

if __debug__:
    sys.exit("expected python -O")


def raises(fn, *args):
    try:
        fn(*args)
    except AssertionError:
        return True
    return False


enc = constants.constant_enclosure(3, 100, "centered")
print(enc.lower < enc.upper)
print(lattice.box_realization((0, 0), (2, 1)) == ((1, Fraction(1, 2)), Fraction(5, 4)))

# corrupt each certificate's input: the check must still fire
trace = lattice.box_lattice_trace
lattice.box_lattice_trace = lambda center, radius: ((0, 0), (0, 0))
print(raises(lattice.box_realization, (0, 0), (2, 1)))
lattice.box_lattice_trace = trace

count = lattice.l1_ball_count
lattice.l1_ball_count = lambda d, k: count(d, k) + (k > d)
print(raises(constants._count_poly.__wrapped__, 4))
lattice.l1_ball_count = count

term = constants.centered_term
constants.centered_term = lambda d, k: term(d, k) + (k == 40)
print(raises(constants._term_polynomials, 4, "centered"))

lattice.l1_ball_count = lambda d, k: count(d, k) + 1
print(raises(lattice.l1_ball_points, 2, 3))
lattice.l1_ball_count = count
"""


def test_certificate_checks_survive_python_O():
    import subprocess
    import sys

    r = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_CERTIFICATES],
        capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["True"] * 6


_OPTIMIZED_PARTIAL_FRACTIONS = """
import sys
from maxvar import constants

if __debug__:
    sys.exit("expected python -O")

polys = constants._term_polynomials
# a numerator without the factor k, then one whose term decays like 1/k
for change in (lambda num: (1,) + num[1:], lambda num: num + (1,)):
    constants._term_polynomials = lambda d, kind: (change(polys(d, kind)[0]), polys(d, kind)[1])
    try:
        constants._uncentered_parts.__wrapped__(4)
        print(False)
    except AssertionError:
        print(True)
constants._term_polynomials = polys
print(constants._uncentered_parts(4)[0] == 1304)
"""


def test_partial_fraction_checks_survive_python_O():
    import subprocess
    import sys

    r = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_PARTIAL_FRACTIONS],
        capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["True"] * 3
