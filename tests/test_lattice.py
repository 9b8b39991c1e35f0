import random
from fractions import Fraction
from itertools import product
from math import prod

import numpy as np
import pytest

from maxvar import constants, maxop
from maxvar.gridfn import GridFunction
from maxvar.lattice import (
    EnumerationCapExceeded,
    ShellTable,
    admissible_boxes_through,
    box_lattice_trace,
    box_realization,
    check_gap_monotonicity,
    check_log_concavity,
    cube_count,
    l1_ball_count,
    l1_ball_points,
)


def brute_count(d, k):
    """Independent enumeration oracle: count |p|_1 <= k by brute force."""
    from itertools import product

    return sum(
        1 for p in product(range(-k, k + 1), repeat=d) if sum(abs(c) for c in p) <= k
    )


def recurrence_counts(d_max, k_max):
    """Reference rows N(d, 0..k_max) for d = 1..d_max, by peeling off the
    last coordinate: N(d, k) = N(d-1, k) + 2 * sum_{j<k} N(d-1, j)."""
    rows = {0: [1] * (k_max + 1)}
    for d in range(1, d_max + 1):
        prev, row, below = rows[d - 1], [], 0
        for k in range(k_max + 1):
            row.append(prev[k] + 2 * below)
            below += prev[k]
        rows[d] = row
    return rows


class TestClosedForm:
    def test_matches_the_recurrence(self):
        # k < d included, where the binomial sum stops at i = k
        rows = recurrence_counts(6, 300)
        for d in range(1, 7):
            assert [l1_ball_count(d, k) for k in range(301)] == rows[d], d

    def test_shell_table_matches_the_count(self):
        for d in range(1, 7):
            for k_max in (0, 1, d, 120):
                table = ShellTable.build(d, k_max)
                assert table.counts == tuple(l1_ball_count(d, k) for k in range(k_max + 1))

    def test_huge_radius(self):
        k = 10**18
        assert l1_ball_count(2, k) == 2 * k * k + 2 * k + 1
        assert 3 * l1_ball_count(3, k) == 4 * k**3 + 6 * k * k + 8 * k + 3


class TestCount:
    def test_one_dimensional_closed_form(self):
        assert l1_ball_count(1, 5) == 11
        for k in range(0, 200):
            assert l1_ball_count(1, k) == 2 * k + 1

    def test_origin_only(self):
        assert l1_ball_count(2, 0) == 1
        assert l1_ball_count(7, 0) == 1

    def test_d2_example(self):
        assert l1_ball_count(2, 3) == 25

    def test_d2_closed_form(self):
        for k in range(0, 100):
            assert l1_ball_count(2, k) == k * k + (k + 1) * (k + 1)

    def test_matches_enumeration_oracle(self):
        for d in range(1, 4):
            for k in range(0, 7):
                assert l1_ball_count(d, k) == brute_count(d, k), (d, k)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            l1_ball_count(0, 3)
        with pytest.raises(ValueError):
            l1_ball_count(2, -1)


class TestSharedCounts:
    """`l1_ball_count` and `cube_count` on ints and on int64 and object
    arrays, against each other and against the specialised forms."""

    DTYPES = [np.int64, object]

    @pytest.mark.parametrize("d", range(1, 7))
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_ball_count_arrays_match_the_int_form(self, d, dtype):
        k = np.arange(60).reshape(3, 4, 5).astype(dtype)
        got = l1_ball_count.__wrapped__(d, k)
        assert got.shape == k.shape and got.dtype == np.dtype(dtype)
        assert got.ravel().tolist() == [l1_ball_count(d, x) for x in range(60)]
        # all radii 0: every count is 1, in the radii's shape and type
        ones = l1_ball_count.__wrapped__(d, k[:1, :1] * 0)
        assert ones.shape == (1, 1, 5) and ones.dtype == np.dtype(dtype) and (ones == 1).all()

    @pytest.mark.parametrize("d", range(1, 7))
    def test_int64_is_exact_up_to_the_intermediate_bound(self, d):
        # the largest radius whose intermediates, below d^2 N(d, k), fit int64
        lo, hi = 0, 2**62
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if d * d * l1_ball_count(d, mid) < 2**63 else (lo, mid)
        k = np.array([lo - 1, lo], dtype=np.int64)
        assert l1_ball_count.__wrapped__(d, k).tolist() == [l1_ball_count(d, lo - 1), l1_ball_count(d, lo)]
        big = np.array([lo, 10**40], dtype=object)
        assert l1_ball_count.__wrapped__(d, big).tolist() == [l1_ball_count(d, lo), l1_ball_count(d, 10**40)]

    @pytest.mark.parametrize("d", range(1, 7))
    def test_specialised_forms_match_the_array_count(self, d):
        k_max = 200
        want = l1_ball_count.__wrapped__(d, np.arange(k_max + 1, dtype=object)).tolist()
        assert list(ShellTable.build(d, k_max).counts) == want
        poly = constants._count_poly(d)
        assert [constants._peval(poly, k) for k in range(k_max + 1)] == want

    @pytest.mark.parametrize("d", range(1, 5))
    def test_cube_count_is_the_product_of_maxima(self, d):
        grid = list(product(range(1, 7), repeat=d))
        want = [prod(max(x, max(e) - 1) for x in e) for e in grid]
        assert [cube_count(list(e)) for e in grid] == want
        for dtype in self.DTYPES:
            # one open axis per extent, broadcasting to the whole grid
            got = cube_count([a.astype(dtype) for a in np.ix_(*[range(1, 7)] * d)])
            assert got.dtype == np.dtype(dtype) and got.ravel().tolist() == want
        huge = [10**12 + x for x in range(d)]
        assert cube_count(huge) == prod(max(x, max(huge) - 1) for x in huge)
        got = cube_count([np.array([x], dtype=object) for x in huge])
        assert got.tolist() == [cube_count(huge)]

    @pytest.mark.parametrize("d", range(1, 5))
    def test_cube_count_is_the_product_of_the_kernel_sides(self, d):
        rng = random.Random(40 + d)
        for _ in range(25):
            points = {tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, 4))}
            f = GridFunction(d, dict.fromkeys(points, 1))
            closures = maxop.hull_closures(f.support, tuple(f.integer_masses()[0]))
            n = tuple(rng.randint(-6, 6) for _ in range(d))
            extents = [[max(h, c) - min(l, c) + 1 for l, h, c in zip(lo, hi, n)]
                       for _, lo, hi in closures]
            sides = [prod(u - l + 1 for l, u in zip(lower, upper))
                     for _, _, lower, upper in maxop._subset_boxes(closures, n)]
            counts = [count for _, count, _, _ in maxop._subset_boxes(closures, n)]
            assert [cube_count(e) for e in extents] == sides == counts
            for dtype in self.DTYPES:
                got = cube_count([np.array(axis, dtype=dtype) for axis in zip(*extents)])
                assert got.tolist() == sides


class TestPoints:
    def test_unit_cross_polytope(self):
        assert l1_ball_points(2, 1) == [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]

    def test_one_dimensional(self):
        assert l1_ball_points(1, 2) == [(-2,), (-1,), (0,), (1,), (2,)]

    def test_d3_radius_1(self):
        assert len(l1_ball_points(3, 1)) == 7

    def test_length_matches_count(self):
        for d in range(1, 5):
            for k in range(0, 13):
                assert len(l1_ball_points(d, k)) == l1_ball_count(d, k)

    def test_lexicographic_order(self):
        pts = l1_ball_points(3, 4)
        assert pts == sorted(pts)

    def test_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            l1_ball_points(2, 100, cap=10)


class TestShellTable:
    def test_strict_increase(self):
        for d in (1, 2, 5):
            t = ShellTable.build(d, 60)
            assert all(t.counts[k + 1] > t.counts[k] for k in range(60))

    def test_shells_sum_to_counts(self):
        t = ShellTable.build(3, 40)
        assert sum(t.shell(k) for k in range(41)) == t.count(40)

    def test_ratio_strictly_decreasing(self):
        # equivalent formulation of log-concavity
        for d in (1, 2, 3, 4):
            t = ShellTable.build(d, 50)
            ratios = [Fraction(t.counts[k + 1], t.counts[k]) for k in range(50)]
            assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_invalid_table_rejected(self):
        with pytest.raises(ValueError):
            ShellTable(1, (1, 3, 3))
        with pytest.raises(ValueError):
            ShellTable(1, (2, 3))


class TestLogConcavity:
    def test_d1(self):
        # N(1,k)^2 = 4k^2+4k+1 > (2k+3)(2k-1)
        assert check_log_concavity(1, 100) == []

    def test_d2_spot(self):
        assert 5 * 5 > 13 * 1
        assert check_log_concavity(2, 1) == []

    def test_medium_run(self):
        assert check_log_concavity(3, 300) == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            check_log_concavity(0, 10)
        with pytest.raises(ValueError):
            check_log_concavity(2, 0)


class TestGapMonotonicity:
    def test_d1_with_hand_values(self):
        assert Fraction(1, 1) - Fraction(1, 3) > Fraction(1, 3) - Fraction(1, 5)
        assert check_gap_monotonicity(1, 100) == []

    def test_d2_spot(self):
        assert Fraction(1) - Fraction(1, 5) > Fraction(1, 5) - Fraction(1, 13)
        assert check_gap_monotonicity(2, 0) == []

    def test_medium_run(self):
        assert check_gap_monotonicity(4, 60) == []

    def test_doctored_table_reports_the_fraction_gaps(self, monkeypatch):
        # not a lattice count: the gaps tie at k = 1 (3 is the harmonic
        # mean of 2 and 6) and grow at k = 4
        counts = (1, 2, 3, 6, 7, 8, 70, 71)
        monkeypatch.setattr(
            ShellTable, "build", classmethod(lambda cls, d, k: cls(d, counts[: k + 1]))
        )
        gap = lambda k: Fraction(1, counts[k]) - Fraction(1, counts[k + 1])
        expected = [(k, gap(k), gap(k + 1)) for k in range(6) if not gap(k) > gap(k + 1)]
        assert [k for k, _, _ in expected] == [1, 4]
        assert check_gap_monotonicity(1, 5) == expected


class TestAdmissibleBoxes:
    def test_single_point_support(self):
        boxes = list(admissible_boxes_through((0, 0), ((0, 0), (0, 0))))
        assert (((0, 0), (0, 0))) in boxes

    def test_balanced_counts_only(self):
        boxes = list(
            admissible_boxes_through((3, 0), ((0, 0), (0, 0)), max_side=4)
        )
        assert (((0, 0), (3, 2))) in boxes  # counts (4, 3)
        for lower, upper in boxes:
            counts = [u - l + 1 for l, u in zip(lower, upper)]
            assert max(counts) - min(counts) <= 1
            assert all(l <= p <= u for l, u, p in zip(lower, upper, (3, 0)))
        assert (((0, -1), (3, 0))) not in boxes  # counts (4, 2)

    def test_one_dimensional_intervals(self):
        # exactly the intervals [l, u] with l <= 0 and u >= 5, up to the cap
        assert set(admissible_boxes_through((5,), ((0,), (0,)), max_side=6)) == {
            ((0,), (5,))
        }
        assert set(admissible_boxes_through((5,), ((0,), (0,)), max_side=7)) == {
            ((0,), (5,)),
            ((-1,), (5,)),
            ((0,), (6,)),
        }

    def test_every_yield_is_realizable(self):
        for box in admissible_boxes_through((2, -1), ((0, 0), (1, 1)), max_side=5):
            center, radius = box_realization(*box)
            assert box_lattice_trace(center, radius) == box

    def test_realizable_cubes_are_yielded(self):
        # sample real cubes on a quarter grid; every nonempty trace through the
        # point that meets the support box must be produced by the iterator
        point = (1, 0)
        support = ((0, 0), (0, 0))
        yielded = set(admissible_boxes_through(point, support, max_side=6))
        for cx4 in range(-6, 7):
            for cy4 in range(-6, 7):
                for r4 in range(0, 13):
                    center = (Fraction(cx4, 2), Fraction(cy4, 2))
                    trace = box_lattice_trace(center, Fraction(r4, 2))
                    if trace is None:
                        continue
                    lower, upper = trace
                    if not all(
                        l <= p <= u for l, u, p in zip(lower, upper, point)
                    ):
                        continue
                    if not all(l <= 0 <= u for l, u in zip(lower, upper)):
                        continue
                    if max(u - l + 1 for l, u in zip(lower, upper)) > 6:
                        continue
                    assert trace in yielded, trace

    def test_empty_when_disjoint_under_cap(self):
        boxes = list(
            admissible_boxes_through((10, 0), ((0, 0), (0, 0)), max_side=3)
        )
        assert boxes == []

    def test_invalid_support_box(self):
        with pytest.raises(ValueError):
            list(admissible_boxes_through((0, 0), ((1, 0), (0, 0))))

    def test_cap_enforced(self):
        with pytest.raises(EnumerationCapExceeded):
            list(
                admissible_boxes_through(
                    (0, 0), ((-8, -8), (8, 8)), max_side=17, cap=50
                )
            )


def test_realization_rejects_unbalanced():
    with pytest.raises(ValueError):
        box_realization((0, 0), (3, 1))
