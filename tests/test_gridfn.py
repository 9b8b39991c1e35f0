import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxvar.gridfn import (
    GridFunction,
    line_restriction,
    lp_norm,
    string_decomposition,
    total_variation,
)

Q = Fraction


def small_gridfn(d, rng, radius=5, max_points=5, signed=False):
    n_pts = rng.randint(1, max_points)
    vals = {}
    while len(vals) < n_pts:
        p = tuple(rng.randint(-radius, radius) for _ in range(d))
        v = Q(rng.randint(1, 9), rng.randint(1, 9))
        vals[p] = -v if signed and rng.random() < 0.5 else v
    return GridFunction(d, vals)


class TestGridFunction:
    def test_drops_zeros_and_reads_zero_outside(self):
        f = GridFunction(1, {(0,): 1, (3,): 0})
        assert f.support == ((0,),)
        assert f[(3,)] == 0 and f[(0,)] == 1

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            GridFunction(2, {(0,): 1})
        with pytest.raises(ValueError):
            GridFunction(0, {})

    @pytest.mark.parametrize(
        "c", [0.5, 1.0, Q(1, 2), Q(1), "1", True, False],
        ids=["0.5", "1.0", "Q(1,2)", "Q(1)", "str", "True", "False"],
    )
    def test_refuses_non_integer_coordinates(self, c):
        with pytest.raises(ValueError):
            GridFunction(2, {(0, c): 1})

    def test_truncated_coordinates_do_not_merge_points(self):
        # int() would truncate 0.5 to 0 and keep one of the two values
        with pytest.raises(ValueError):
            GridFunction(1, {(0,): 1, (0.5,): 2})

    def test_integer_like_coordinates_become_ints(self):
        import numpy as np

        f = GridFunction(2, {(np.int64(3), -1): 2})
        assert f.support == ((3, -1),) and type(f.support[0][0]) is int

    def test_absolutize_idempotent_preserves_l1(self):
        f = GridFunction(1, {(0,): Q(-3, 2), (1,): 2})
        g = f.absolutize()
        assert g[(0,)] == Q(3, 2)
        assert g.absolutize() == g
        assert g.l1_norm() == f.l1_norm() == Q(7, 2)

    def test_zero_function(self):
        z = GridFunction.zero(2)
        assert not z and z.l1_norm() == 0 and total_variation(z) == 0
        assert z.support_box() is None and z.support_radius() == 0


class TestLpNorm:
    def test_delta_l1(self):
        assert lp_norm(GridFunction.delta(0, 3), 1) == 3

    def test_linf(self):
        assert lp_norm(GridFunction(1, {(0,): 1, (5,): 2}), float("inf")) == 2

    def test_three_four_five(self):
        assert lp_norm(GridFunction(1, {(0,): 3, (1,): 4}), 2) == 5

    def test_irrational_root_falls_back_to_float(self):
        v = lp_norm(GridFunction(1, {(0,): 1, (1,): 1}), 2)
        assert isinstance(v, float) and abs(v - 2**0.5) < 1e-12

    def test_huge_values_use_integer_roots(self):
        big = 10**200
        assert lp_norm(GridFunction(1, {(0,): 3 * big, (1,): 4 * big}), 2) == 5 * big
        cubes = GridFunction(1, {(0,): 3 * big, (1,): 4 * big, (2,): 5 * big})
        assert lp_norm(cubes, 3) == 6 * big
        v = lp_norm(GridFunction(1, {(0,): big, (1,): big}), 2)
        assert isinstance(v, float) and abs(v / 1e200 - 2**0.5) < 1e-12

    def test_fractional_p_single_value(self):
        v = lp_norm(GridFunction.delta(0, 4), Q(3, 2))
        assert abs(v - 4) < 1e-12 * 4

    def test_fractional_p_matches_float_reference(self):
        f = GridFunction(1, {(0,): Q(3, 2), (4,): Q(-7, 3)})
        ref = (1.5**2.5 + (7 / 3) ** 2.5) ** (1 / 2.5)
        assert abs(lp_norm(f, Q(5, 2)) - ref) < 1e-12 * ref

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            lp_norm(GridFunction.delta(0), Q(1, 2))


class TestTotalVariation:
    def test_delta(self):
        for d in (1, 2, 3):
            for k in (1, Q(5, 3), -2):
                f = GridFunction.delta((0,) * d, k)
                assert total_variation(f) == 2 * d * abs(Q(k))

    def test_adjacent_indicator(self):
        assert total_variation(GridFunction(1, {(0,): 1, (1,): 1})) == 2

    def test_separated_indicator(self):
        assert total_variation(GridFunction(1, {(0,): 1, (2,): 1})) == 4

    def test_triangle_bound(self):
        rng = random.Random(5)
        for _ in range(60):
            d = rng.choice((1, 2))
            f = small_gridfn(d, rng, signed=True)
            assert total_variation(f) <= 2 * d * f.l1_norm()

    def test_translation_invariance(self):
        rng = random.Random(6)
        for _ in range(20):
            f = small_gridfn(2, rng, signed=True)
            shift = (rng.randint(-4, 4), rng.randint(-4, 4))
            assert total_variation(f.translate(shift)) == total_variation(f)

    def test_permutation_invariance(self):
        rng = random.Random(7)
        for _ in range(20):
            f = small_gridfn(2, rng)
            swapped = GridFunction(2, {(p[1], p[0]): v for p, v in f.items()})
            assert total_variation(swapped) == total_variation(f)

    @given(
        st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=8),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_1d_neighbour_sum(self, vals):
        f = GridFunction(1, {(i,): v for i, v in enumerate(vals)})
        lo, hi = -1, len(vals) + 1
        direct = sum(
            abs(f[(t + 1,)] - f[(t,)]) for t in range(lo - 1, hi + 1)
        )
        assert total_variation(f) == direct


class TestLineRestriction:
    def test_delta_line(self):
        vals = {(0, 0): Q(1)}
        box = ((-2, -2), (2, 2))
        assert line_restriction(vals, 0, (0, 0), box) == [0, 0, 1, 0, 0]

    def test_constant_line(self):
        vals = {(x, 1): Q(3) for x in range(-1, 2)}
        assert line_restriction(vals, 0, (0, 1), ((-1, 0), (1, 1))) == [3, 3, 3]

    def test_disjoint_parallel_line(self):
        vals = {(x, 5): Q(1) for x in range(3)}
        assert line_restriction(vals, 0, (0, 0), ((-1, -1), (1, 1))) == [0, 0, 0]

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            line_restriction({}, 2, (0, 0), ((0, 0), (0, 0)))


def brute_extended_variation(vals, limit):
    seq = [limit] * 2 + list(vals) + [limit] * 2
    return sum(abs(b - a) for a, b in zip(seq, seq[1:]))


class TestStringDecomposition:
    def test_spec_example(self):
        sd = string_decomposition([0, 1, 1, 0, 2, 0])
        assert sd.maxima == ((1, 2), (4, 4))
        assert (3, 3) in sd.minima
        assert sd.variation == 6
        assert sd.variation == sd.pairing_sum + sd.boundary_correction
        # interior maxima levels 1 and 2; all minima sit at level 0
        assert sorted(sd.maxima_levels) == [1, 2]
        assert all(v == 0 for v in sd.minima_levels)

    def test_single_spike(self):
        sd = string_decomposition([5])
        assert sd.variation == 10
        assert sd.maxima == ((0, 0),)

    def test_monotone_ramp(self):
        sd = string_decomposition([1, 2, 3])
        assert sd.maxima == ((2, 2),)
        assert sd.variation == 6

    def test_constant_flagged(self):
        sd = string_decomposition([0, 0, 0])
        assert sd.is_constant and sd.variation == 0
        assert sd.maxima == () and sd.minima == ()

    def test_constant_above_limit(self):
        sd = string_decomposition([2, 2], limit=0)
        assert not sd.is_constant
        assert sd.maxima == ((0, 1),)
        assert sd.variation == 4

    def test_infinite_end_markers(self):
        sd = string_decomposition([0, 1, 0])
        (lo, hi) = sd.minima[0]
        assert lo is None  # leading zeros merge with the left limit run
        assert sd.minima[-1][1] is None

    def test_boundary_flags(self):
        sd = string_decomposition([3, 0, 1, 0])
        # the level-3 maxima string starts at the window edge
        assert sd.maxima_boundary[0] is True

    def test_round_trip_random(self):
        rng = random.Random(17)
        for _ in range(1000):
            n = rng.randint(1, 12)
            vals = [Q(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(n)]
            limit = rng.choice([Q(0), Q(0), Q(1, 2)])
            sd = string_decomposition(vals, start=rng.randint(-5, 5), limit=limit)
            assert sd.variation == brute_extended_variation(vals, limit)
            assert sd.variation == sd.pairing_sum + sd.boundary_correction
            # strict interleaving: counts differ by at most one
            assert abs(len(sd.maxima) - len(sd.minima)) <= 1
