from fractions import Fraction

import pytest

from maxvar.gridfn import GridFunction
from maxvar.maxop import BallSpec
from maxvar.verify import (
    DEFAULT_RATIOS,
    random_gridfn,
    scan_extremizers,
    two_point_shapes,
    verify_inequality,
    verify_uncentered_var_bound_1d,
)

Q = Fraction


class TestVerifyInequality:
    def test_delta_centered_1d(self):
        rec, rep = verify_inequality(
            GridFunction.delta(0), BallSpec("centered1d", 1), Q(1, 1000)
        )
        assert rec.is_delta and rec.bound == 2
        assert 0 < rec.gap < Q(1, 400)
        assert rec.ratio < 2
        assert rep.cap_satisfied

    def test_two_point_gap_strictly_larger(self):
        rec_d, _ = verify_inequality(
            GridFunction.delta(0), BallSpec("centered1d", 1), Q(1, 1000)
        )
        rec_2, _ = verify_inequality(
            GridFunction(1, {(0,): 1, (1,): 1}), BallSpec("centered1d", 1), Q(1, 1000)
        )
        assert rec_2.gap > rec_d.gap > 0

    def test_cube_delta_bound_twelve_gap_shrinks(self):
        f = GridFunction.delta((0, 0))
        spec = BallSpec("cube", 2)
        rec_small, _ = verify_inequality(f, spec, Q(1, 10**9), r_max=32)
        rec_large, _ = verify_inequality(f, spec, Q(1, 10**9), r_max=64)
        assert rec_small.bound == rec_large.bound == 12
        assert 0 < rec_large.gap < rec_small.gap

    def test_zero_function_rejected(self):
        with pytest.raises(ValueError):
            verify_inequality(GridFunction.zero(1), BallSpec("centered1d", 1), 1)

    def test_scaling_invariance(self):
        f = GridFunction(1, {(0,): 1, (3,): Q(2, 3)})
        spec = BallSpec("centered1d", 1)
        a, _ = verify_inequality(f, spec, Q(1, 100))
        b, _ = verify_inequality(f.scale(Q(7, 5)), spec, Q(7, 5) / 100)
        assert (a.ratio, a.gap) == (b.ratio, b.gap)

    def test_translation_invariance(self):
        f = GridFunction(1, {(0,): 1, (2,): 2})
        spec = BallSpec("centered1d", 1)
        a, _ = verify_inequality(f, spec, Q(1, 100), r_max=256)
        b, _ = verify_inequality(f.translate((5,)), spec, Q(1, 100), r_max=256)
        assert (a.ratio, a.gap) == (b.ratio, b.gap)


class TestUncenteredVarBound1D:
    def test_delta_all_sharp(self):
        chk = verify_uncentered_var_bound_1d(GridFunction.delta(0), R=300)
        assert chk.all_hold
        assert chk.var_f == 2 == 2 * chk.l1_norm
        assert 2 - chk.maxfn_var_truncated < Q(1, 100)

    def test_block_indicator(self):
        f = GridFunction(1, {(i,): 1 for i in range(5)})
        chk = verify_uncentered_var_bound_1d(f)
        assert chk.var_f == 2 and chk.l1_norm == 5
        assert chk.all_hold

    def test_random_signed(self):
        for seed in range(25):
            f = random_gridfn(seed, 1, 20, 1 + seed % 6, signed=True)
            assert verify_uncentered_var_bound_1d(f).all_hold

    def test_dim_guard(self):
        with pytest.raises(ValueError):
            verify_uncentered_var_bound_1d(GridFunction.delta((0, 0)))


class TestRandomGridfn:
    def test_deterministic(self):
        a = random_gridfn(123, 2, 6, 4)
        b = random_gridfn(123, 2, 6, 4)
        assert a == b

    def test_delta_case(self):
        f = random_gridfn(5, 1, 10, 1)
        assert f.is_delta()

    def test_support_count(self):
        f = random_gridfn(9, 2, 6, 5)
        assert len(f.support) == 5

    def test_positive_values_by_default(self):
        f = random_gridfn(11, 1, 8, 6)
        assert all(v > 0 for _, v in f.items())

    def test_count_exceeding_box_rejected(self):
        with pytest.raises(ValueError):
            random_gridfn(1, 1, 1, 10)


class TestScan:
    def test_shapes_1d(self):
        spec = BallSpec("centered1d", 1)
        assert two_point_shapes(spec, 3) == [(1,), (2,), (3,)]

    def test_shapes_d2_metrics(self):
        l1_shapes = two_point_shapes(BallSpec("l1", 2), 2)
        assert set(l1_shapes) == {(1, 0), (1, 1), (2, 0)}
        cube_shapes = two_point_shapes(BallSpec("cube", 2), 2)
        assert set(cube_shapes) == {(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)}

    def test_shapes_d3_metrics(self):
        assert two_point_shapes(BallSpec("l1", 3), 2) == [(1, 0, 0), (1, 1, 0), (2, 0, 0)]
        assert two_point_shapes(BallSpec("cube", 3), 1) == [(1, 0, 0), (1, 1, 0), (1, 1, 1)]

    def test_delta_only_family(self):
        recs = scan_extremizers(
            BallSpec("centered1d", 1), max_distance=1, R=500, ratios=(Q(1),)
        )
        delta_rows = [r for r in recs if r.is_delta]
        assert len(delta_rows) == 1
        # the delta gap is exactly the truncation tail (bound is exact here)
        assert delta_rows[0].gap == Q(2, 2 * 500 + 1)

    def test_sorted_by_gap_with_deltas_first(self):
        recs = scan_extremizers(BallSpec("centered1d", 1), max_distance=4, R=400)
        gaps = [r.gap for r in recs]
        assert gaps == sorted(gaps)
        assert recs[0].is_delta
        assert all(r.gap > 0 for r in recs)

    def test_delta_gap_halves_when_R_doubles(self):
        for spec, r0 in ((BallSpec("centered1d", 1), 256), (BallSpec("cube", 2), 32)):
            g = {}
            for R in (r0, 2 * r0):
                recs = scan_extremizers(spec, max_distance=1, R=R, ratios=(Q(1),))
                g[R] = [r for r in recs if r.is_delta][0].gap
            assert g[2 * r0] < Q(7, 10) * g[r0]

    def test_r_must_cover_family(self):
        with pytest.raises(ValueError):
            scan_extremizers(BallSpec("centered1d", 1), max_distance=10, R=5)

    def test_nine_default_ratios(self):
        assert len(DEFAULT_RATIOS) == 9
