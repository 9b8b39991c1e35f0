import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxvar.gridfn import GridFunction, total_variation

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

    def test_zero_function(self):
        z = GridFunction.zero(2)
        assert not z and z.l1_norm() == 0 and total_variation(z) == 0
        assert z.support_box() is None and z.support_radius() == 0


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
