import random
import sys
import time
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxvar import exact
from maxvar.exact import PairTree, decimal_str, format_rational, parse_rational, tree_sum
from maxvar.lattice import ShellTable

Q = Fraction

pairs = st.tuples(st.integers(-(2**80), 2**80), st.integers(1, 2**70))

# denominators on both sides of the size at which tree_sum switches to
# reduced Fraction subtotals
BIG = 2**exact._REDUCE_BITS
mixed_pairs = st.tuples(
    st.integers(-BIG * 2**64, BIG * 2**64),
    st.integers(1, 2**20) | st.integers(BIG, BIG * 2**200),
)


def _reference(ps):
    return sum((Q(n, d) for n, d in ps), Q(0))


class TestTreeSum:
    def test_empty_sum_is_zero(self):
        assert tree_sum([]) == 0 and type(tree_sum([])) is Fraction

    def test_single_term_is_normalised(self):
        q = tree_sum([(-6, 4)])
        assert (q.numerator, q.denominator) == (-3, 2)

    def test_takes_any_iterable(self):
        assert tree_sum((k, k + 1) for k in range(1, 6)) == _reference(
            [(k, k + 1) for k in range(1, 6)]
        )

    def test_repeated_and_non_coprime_denominators(self):
        ps = [(1, 6), (1, 6), (5, 12), (-7, 18), (1, 4), (3, 6), (2, 12)]
        assert tree_sum(ps) == _reference(ps)

    def test_terms_cancelling_to_zero(self):
        q = tree_sum([(1, 3), (-2, 6), (5, 10), (-1, 2)])
        assert q == 0 and q.denominator == 1

    def test_beyond_64_bits(self):
        ps = [(3**90 + k, 2**70 * (k + 1)) for k in range(37)]
        ps += [(-(7**60), 11**30), (5**100, 13**40)]
        assert tree_sum(ps) == _reference(ps)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.lists(pairs, max_size=40))
    @example([(k - 8, 3 * k + 1) for k in range(15)])  # 2^4 - 1 terms: a cut node on every level
    @example([(k - 8, 3 * k + 1) for k in range(17)])  # 2^4 + 1: one leaf carried to the root
    def test_equals_the_builtin_sum(self, ps):
        q = tree_sum(ps)
        assert q == _reference(ps)
        assert q.denominator > 0 and gcd(q.numerator, q.denominator) == 1

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(st.lists(mixed_pairs, max_size=40))
    @example([(-5, BIG + 1)])  # a single pair past the switch
    @example([(0, BIG + 3), (7, BIG * 3 + 1), (-(BIG + 5), BIG * 5 + 3)])  # odd count
    @example([(1, 3), (-2, BIG + 1), (0, 5), (BIG, BIG * 7 + 1), (4, BIG * 9 + 1)])
    @example([(k - 4, 2 * k + 1) for k in range(8)] + [(-3, BIG * 3 + 1)])  # a cut node past it
    @example([(k - 4, BIG * (2 * k + 1) + 1) for k in range(9)])  # 2^3 + 1 leaves past it
    def test_both_sides_of_the_switch(self, ps):
        q = tree_sum(ps)
        assert q == _reference(ps) and type(q) is Fraction
        assert q.denominator > 0 and gcd(q.numerator, q.denominator) == 1

    def test_switch_to_reduced_subtotals(self, monkeypatch):
        # leaves past the switch become Fractions at once and 14 Fraction
        # additions join the 15 of them; small leaves never add a Fraction
        large = [(k - 7, (BIG + 2 * k + 1) * (k + 1)) for k in range(15)]
        small = [(k - 7, 2 * k + 1) for k in range(15)]
        expected = [_reference(large), _reference(small)]
        added = []
        add = Fraction.__add__
        monkeypatch.setattr(Fraction, "__add__", lambda a, b: added.append(1) or add(a, b))
        assert tree_sum(large) == expected[0] and len(added) == 14
        assert tree_sum(small) == expected[1] and len(added) == 14

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(
        st.lists(
            st.tuples(st.integers(-50, 50), st.sampled_from([1, 2, 3, 4, 6, 12, 36])),
            max_size=60,
        )
    )
    def test_small_shared_denominators(self, ps):
        assert tree_sum(ps) == _reference(ps)


def _prefix_lengths(top):
    """1, 2, 3 and 2^l - 1, 2^l, 2^l + 1 up to top, increasing."""
    lengths = {1, 2, 3} | {2**l + e for l in range(2, top.bit_length()) for e in (-1, 0, 1)}
    return sorted(n for n in lengths if n <= top)


class TestPairTree:
    """Sums over prefixes of one growing tree against `tree_sum` of the
    same pairs, with the tree's records made by earlier, longer or shorter,
    prefixes."""

    @pytest.mark.parametrize(
        "leaves",
        [
            ShellTable.build(2, 3000).counts,
            ShellTable.build(6, 3000).counts,
            # every seventh leaf past the switch, from leaf 6 on: level 2 is reduced
            [c * (BIG + k) if k % 7 == 6 else c for k, c in enumerate(ShellTable.build(2, 600).counts)],
        ],
        ids=["d2", "d6", "mixed"],
    )
    def test_prefixes_grow_then_shrink_in_one_tree(self, leaves):
        # short prefixes stay integer pairs up to their root, long ones pass the switch
        assert lcm(*leaves[:3]).bit_length() <= exact._REDUCE_BITS < lcm(*leaves).bit_length()
        rng = random.Random(len(leaves))
        lengths = _prefix_lengths(len(leaves))
        tree = PairTree(leaves[:2])
        for n in lengths + lengths[::-1]:
            if len(tree.leaves) < n:  # grown unevenly, past the next prefix
                tree.leaves.extend(leaves[len(tree.leaves) : n + rng.randrange(9)])
            nums = [rng.choice([0, rng.randint(-(2**40), 2**40)]) for _ in range(n)]
            scale = rng.choice([1, 6, 10**20])
            got = tree.sum(nums, scale)
            assert got == tree_sum(zip(nums, (c * scale for c in leaves[:n]))) and type(got) is Fraction

    def test_a_repeated_prefix_takes_gcds_only_where_it_is_cut(self, monkeypatch):
        leaves = ShellTable.build(2, 1000).counts
        tree = PairTree(leaves)
        calls = []
        monkeypatch.setattr(exact, "gcd", lambda a, b: calls.append(1) or gcd(a, b))
        rng = random.Random(1000)
        for n, fresh in [(1001, range(500, 1001)), (1001, range(11)), (512, [0]), (700, range(11))]:
            # the first sum joins every node, later ones at most one cut node per level
            nums = [rng.randint(-9, 9) for _ in range(n)]
            want = tree_sum(zip(nums, leaves))
            calls.clear()
            assert tree.sum(nums) == want and len(calls) in fresh

    def test_empty_and_single_leaf_prefixes(self):
        tree = PairTree([5, 7])
        assert tree.sum([]) == 0 and type(tree.sum([])) is Fraction
        assert tree.sum([-10], 4) == Q(-1, 2)
        with pytest.raises(ValueError):
            tree.sum([1, 2, 3])


@pytest.fixture
def no_digit_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


class TestFormatRational:
    @pytest.mark.parametrize("bits", [1, 64, 2047, 2048, 2049, 4097, 14_300, 100_003])
    def test_equals_str(self, no_digit_limit, bits):
        rng = random.Random(bits)
        for n in (rng.getrandbits(bits) | 1 << (bits - 1), (1 << bits) - 1, 10 ** (bits * 3 // 10)):
            assert format_rational(Q(n)) == str(n)
            assert format_rational(Q(-n)) == str(-n)

    def test_200k_digits_equal_str(self, no_digit_limit):
        n = random.Random(0).getrandbits(664_000)
        digits = str(n)
        assert len(digits) > 199_000
        assert format_rational(Q(n)) == digits and format_rational(Q(-n)) == "-" + digits

    def test_fractions_equal_str(self, no_digit_limit):
        q = Q(-(7**20_000) - 3, 11**15_000)
        assert format_rational(q) == f"{q.numerator}/{q.denominator}"

    def test_zero_and_small_values(self):
        assert format_rational(Q(0)) == "0"
        assert format_rational(Q(-5)) == "-5" and format_rational(Q(3, 4)) == "3/4"

    def test_ignores_the_digit_limit(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            s = format_rational(Q(10**5000 + 1, 3))
        finally:
            sys.set_int_max_str_digits(old)
        assert s == "1" + "0" * 4999 + "1/3"


class TestDecimalStr:
    def test_past_the_digit_limit(self):
        assert decimal_str(Q(1, 3), 5000) == "0." + "3" * 5000
        assert decimal_str(Q(-(10**5000)), 0) == "-1" + "0" * 5000
        # leading zeros of the fraction, and round half to even
        assert decimal_str(Q(1, 100), 3) == "0.010" and decimal_str(Q(1, 8), 2) == "0.12"

    @pytest.mark.parametrize(
        "q, digits, text",
        [
            (Q(5, 2), 0, "2"),
            (Q(7, 2), 0, "4"),
            (Q(-5, 2), 0, "-2"),
            (Q(3, 8), 2, "0.38"),
            (Q(-3, 8), 2, "-0.38"),
            (Q(99995, 10000), 3, "10.000"),
        ],
        ids=["half-down-to-even", "half-up-to-even", "negative-half", "half-up-fraction",
             "negative-half-fraction", "carry-into-integer-part"],
    )
    def test_round_half_to_even(self, q, digits, text):
        assert decimal_str(q, digits) == text


class TestParseRational:
    @pytest.mark.parametrize(
        "text",
        ["3/4", " -7 ", "1.5E-3", "2e+0_1", "-4.25e3", "1e99999", "1e-099999", "1e0000000000001", "1e-0_0_0_0_0_0_1"],
    )
    def test_accepted_inputs_equal_fraction(self, text):
        assert parse_rational(text) == Q(text)

    @pytest.mark.parametrize(
        "text",
        ["1e100000", "-1e-100000", "1e999999999", "2.5E-999999999", "1e1_000_000", "1e" + "9" * 10**6],
        ids=["1e100000", "-1e-100000", "1e999999999", "2.5E-999999999", "1e1_000_000", "1e9x10^6"],
    )
    def test_huge_exponents_refused_fast(self, text):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exponent") as err:
            parse_rational(text)
        assert time.perf_counter() - start < 0.1
        assert len(str(err.value)) < 100  # long inputs are cut short

    @pytest.mark.parametrize(
        "text, reason",
        [("1/0", "zero denominator"), ("1/" + "0" * 99, "zero denominator"),
         ("x" * 10**5, "not a rational"), ("1/" + "0" * 10**5, "too many digits")],
        ids=["zero", "long-zero", "long-garbage", "long-digits"],
    )
    def test_refusals_quote_at_most_40_characters(self, text, reason):
        with pytest.raises(ValueError, match=reason) as err:
            parse_rational(text)
        assert len(str(err.value)) < 100
