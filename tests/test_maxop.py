import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxvar import oracle
from maxvar.gridfn import GridFunction
from maxvar.maxop import (
    BallSpec,
    L1Ball,
    LatticeBox,
    average,
    centered_max_1d,
    centered_max_l1,
    delta_centered_l1_closed_form,
    delta_uncentered_cube_closed_form,
    evaluate_on_box,
    hull_closures,
    maximal_witness,
    uncentered_max_1d,
    uncentered_max_cube,
)
from maxvar.verify import oracle_agreement

Q = Fraction


class TestBallSpec:
    def test_interval_geometries_need_dim_1(self):
        with pytest.raises(ValueError):
            BallSpec("centered1d", 2)
        with pytest.raises(ValueError):
            BallSpec("uncentered1d", 3)

    def test_unknown_geometry(self):
        with pytest.raises(ValueError):
            BallSpec("l2", 2)

    def test_cube_any_dim(self):
        BallSpec("cube", 1)
        BallSpec("cube", 3)
        BallSpec("l1", 1)


class TestAverage:
    def test_interval(self):
        assert average(GridFunction.delta(0), L1Ball((0,), 2)) == Q(1, 5)

    def test_l1_ball_off_center(self):
        f = GridFunction.delta((0, 0))
        assert average(f, L1Ball((1, 0), 1)) == Q(1, 5)

    def test_zero_function(self):
        assert average(GridFunction.zero(2), LatticeBox((0, 0), (3, 1))) == 0

    def test_takes_absolute_values(self):
        f = GridFunction(1, {(0,): -3})
        assert average(f, L1Ball((0,), 1)) == 1

    def test_degenerate_region_rejected(self):
        with pytest.raises(ValueError):
            average(GridFunction.delta(0), L1Ball((0,), -1))

    @pytest.mark.parametrize(
        "lower, upper",
        [((1, 1), (0, 1)), ((2, 2), (0, 0)), ((0, 5, 5), (2, 3, 3))],
        ids=["one-axis", "both-axes", "two-of-three-axes"],
    )
    def test_inverted_boxes_hold_no_points(self, lower, upper):
        # inverted on an even number of axes too: no sign cancellation
        box = LatticeBox(lower, upper)
        assert box.count() == 0
        with pytest.raises(ValueError):
            average(GridFunction.delta((1,) * len(lower)).scale(3), box)


class TestCentered1D:
    def test_delta_at_distance(self):
        w = centered_max_1d(GridFunction.delta(0), 3)
        assert w.value == Q(1, 7) and w.radius == 3 and w.count == 7

    def test_delta_at_origin(self):
        w = centered_max_1d(GridFunction.delta(0), 0)
        assert w.value == 1 and w.radius == 0

    def test_two_points_balanced(self):
        w = centered_max_1d(GridFunction(1, {(0,): 1, (6,): 1}), 3)
        assert w.value == Q(2, 7) and w.radius == 3

    def test_zero_function(self):
        w = centered_max_1d(GridFunction.zero(1), 4)
        assert w.value == 0 and w.radius == 0 and w.count == 1

    def test_smallest_radius_tie_break(self):
        # f constant 1 on [-2, 2]: every radius <= 2 averages to 1
        f = GridFunction(1, {(i,): 1 for i in range(-2, 3)})
        assert centered_max_1d(f, 0).radius == 0


class TestUncentered1D:
    def test_delta_at_distance(self):
        w = uncentered_max_1d(GridFunction.delta(0), 3)
        assert w.value == Q(1, 4) and w.interval == (0, 3)

    def test_delta_at_origin(self):
        assert uncentered_max_1d(GridFunction.delta(0), 0).value == 1

    def test_block_indicator_far_point(self):
        f = GridFunction(1, {(i,): 1 for i in range(10)})
        w = uncentered_max_1d(f, 20)
        assert w.value == Q(10, 21) and w.interval == (0, 20)

    def test_dominates_centered(self):
        rng = random.Random(1)
        for _ in range(40):
            f = _random_f(1, rng)
            n = rng.randint(-8, 8)
            assert uncentered_max_1d(f, n).value >= centered_max_1d(f, n).value


class TestCenteredL1:
    def test_delta_general_distance(self):
        f = GridFunction.delta((1, -1, 0))
        w = centered_max_l1(f, (0, 0, 0))
        assert w.value == Q(1, 25) and w.radius == 2  # N(3,2) = 25

    def test_delta_diagonal(self):
        w = centered_max_l1(GridFunction.delta((0, 0)), (1, 1))
        assert w.value == Q(1, 13) and w.radius == 2

    def test_zero(self):
        assert centered_max_l1(GridFunction.zero(2), (3, 4)).value == 0

    def test_reduces_to_centered_1d(self):
        rng = random.Random(2)
        for _ in range(25):
            f = _random_f(1, rng)
            n = rng.randint(-8, 8)
            a = centered_max_l1(f, (n,))
            b = centered_max_1d(f, n)
            assert (a.value, a.radius) == (b.value, b.radius)


class TestUncenteredCube:
    def test_delta_axis(self):
        w = uncentered_max_cube(GridFunction.delta((0, 0)), (2, 0))
        assert w.value == Q(1, 6)
        counts = [u - l + 1 for l, u in zip(*w.box)]
        assert sorted(counts) == [2, 3]

    def test_delta_origin(self):
        w = uncentered_max_cube(GridFunction.delta((0, 0)), (0, 0))
        assert w.value == 1 and w.box == ((0, 0), (0, 0))

    def test_one_dimensional_interval(self):
        w = uncentered_max_cube(GridFunction.delta(0), (5,))
        assert w.value == Q(1, 6) and w.box == ((0,), (5,))

    def test_matches_uncentered_1d(self):
        rng = random.Random(3)
        for _ in range(30):
            f = _random_f(1, rng)
            n = rng.randint(-8, 8)
            a = uncentered_max_cube(f, (n,))
            b = uncentered_max_1d(f, n)
            assert a.value == b.value and a.box == (
                (b.interval[0],),
                (b.interval[1],),
            )

    def test_nested_and_offset_captures_match_oracle(self):
        # configurations where the cheapest box around one support subset
        # necessarily swallows other support points
        from maxvar.oracle import brute_uncentered_cube

        cases = [
            {(4, 4): Q(1), (2, 2): Q(1, 3)},
            {(4, 4): Q(1, 7), (2, 2): Q(5)},
            {(3, 0): Q(1), (1, -2): Q(1)},
            {(3, 0): Q(2, 3), (1, -2): Q(1, 5), (0, 1): Q(1)},
        ]
        for vals in cases:
            f = GridFunction(2, vals)
            for n in [(0, 0), (1, 1), (-1, 0), (5, 5)]:
                bbox = f.support_box()
                span = max(
                    max(u, c) - min(l, c) + 1
                    for l, u, c in zip(bbox[0], bbox[1], n)
                ) + 1
                fast = uncentered_max_cube(f, n)
                slow = brute_uncentered_cube(f, n, span)
                assert (fast.value, fast.region) == (slow.value, slow.region)

    def test_dominates_centered_cube_averages(self):
        # the centered cube [n-r, n+r]^d is itself admissible
        rng = random.Random(4)
        for _ in range(20):
            f = _random_f(2, rng)
            n = (rng.randint(-4, 4), rng.randint(-4, 4))
            best = uncentered_max_cube(f, n).value
            for r in range(0, 4):
                box = LatticeBox(tuple(c - r for c in n), tuple(c + r for c in n))
                assert best >= average(f, box)


def _random_f(d, rng, radius=6, signed=False):
    n_pts = rng.randint(1, 5)
    vals = {}
    while len(vals) < n_pts:
        p = tuple(rng.randint(-radius, radius) for _ in range(d))
        v = Q(rng.randint(1, 16), rng.randint(1, 16))
        vals[p] = -v if signed and rng.random() < 0.5 else v
    return GridFunction(d, vals)


_signed = st.tuples(st.integers(1, 9), st.integers(1, 9), st.booleans()).map(
    lambda t: Q(t[0], t[1]) * (-1 if t[2] else 1)
)


class TestOneDimensionalKernels:
    """At d = 1 every geometry is one of the two kernels; check all four
    names against the brute-force interval oracles on signed supports of up
    to 16 points, once from a single point and once from 13, so the run
    candidates of large supports are covered."""

    @pytest.mark.parametrize("min_size", [1, 13])
    @pytest.mark.parametrize("geometry", ["l1", "cube", "centered1d", "uncentered1d"])
    def test_matches_interval_oracle(self, geometry, min_size):
        spec = BallSpec(geometry, 1)
        brute = oracle.brute_centered_1d if spec.centered else oracle.brute_uncentered_1d

        @settings(derandomize=True, database=None, deadline=None, max_examples=30)
        @given(
            st.dictionaries(st.integers(-10, 10), _signed, min_size=min_size, max_size=16),
            st.integers(-13, 13),
        )
        def check(values, n):
            f = GridFunction(1, {(x,): v for x, v in values.items()})
            reach = max(abs(x - n) for x in values) + 2
            fast, slow = maximal_witness(f, spec, n), brute(f, n, reach)
            assert (fast.value, fast.count, fast.region) == (
                slow.value,
                slow.count,
                slow.region,
            )

        check()


class TestHullClosures:
    """`hull_closures` against all 2^s - 1 subsets of supports of up to 10
    points: one entry per distinct hull box, carrying the largest subset
    mass for that hull, which is the mass of every support point inside."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_subset_enumeration(self, d):
        @settings(derandomize=True, database=None, deadline=None, max_examples=40)
        @given(
            st.dictionaries(
                st.tuples(*[st.integers(-3, 3)] * d), st.integers(1, 60), min_size=1, max_size=10
            )
        )
        def check(values):
            points = tuple(sorted(values))
            masses = tuple(values[p] for p in points)
            best: dict = {}
            for mask in range(1, 1 << len(points)):
                sel = [p for i, p in enumerate(points) if mask >> i & 1]
                hull = tuple(map(min, zip(*sel))), tuple(map(max, zip(*sel)))
                mass = sum(values[p] for p in sel)
                best[hull] = max(best.get(hull, 0), mass)
            closures = hull_closures(points, masses)
            assert len(closures) == len(best)
            assert {(lo, hi): m for m, lo, hi in closures} == best
            for m, lo, hi in closures:
                inside = LatticeBox(lo, hi)
                assert m == sum(v for p, v in values.items() if inside.contains(p))

        check()


class TestCubeWitnessesLargeSupports:
    """Cube witnesses against the literal box enumeration: signed 2-D
    supports of 9 to 16 points and 3-D supports of up to 10, where every
    candidate is a closed box of `hull_closures`."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=20)
    @given(
        st.dictionaries(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
            _signed,
            min_size=9,
            max_size=16,
        ),
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    )
    def test_matches_box_oracle(self, values, n):
        fast, slow = oracle_agreement(GridFunction(2, values), BallSpec("cube", 2), n)
        assert (fast.value, fast.count, fast.region) == (slow.value, slow.count, slow.region)

    @settings(derandomize=True, database=None, deadline=None, max_examples=20)
    @given(
        st.dictionaries(
            st.tuples(*[st.integers(-1, 1)] * 3), _signed, min_size=1, max_size=10
        ),
        st.tuples(*[st.integers(-3, 3)] * 3),
    )
    def test_matches_box_oracle_3d(self, values, n):
        fast, slow = oracle_agreement(GridFunction(3, values), BallSpec("cube", 3), n)
        assert (fast.value, fast.count, fast.region) == (slow.value, slow.count, slow.region)


class TestClosedForms:
    def test_centered_identity_point(self):
        assert delta_centered_l1_closed_form((0, 0, 0), (0, 0, 0)) == 1

    def test_centered_matches_search(self):
        from maxvar.lattice import l1_ball_points

        for d in (1, 2, 3):
            p = (0,) * d
            f = GridFunction.delta(p)
            for n in l1_ball_points(d, 30):
                assert delta_centered_l1_closed_form(p, n) == centered_max_l1(
                    f, n
                ).value

    def test_centered_1d_value(self):
        assert delta_centered_l1_closed_form((0,), (7,)) == Q(1, 15)

    def test_cube_examples(self):
        assert delta_uncentered_cube_closed_form((0, 0), (0, 0)) == 1
        assert delta_uncentered_cube_closed_form((0, 0), (2, 0)) == Q(1, 6)
        assert delta_uncentered_cube_closed_form((0, 0), (1, 1)) == Q(1, 4)

    def test_cube_matches_search(self):
        from itertools import product

        for d in (1, 2, 3):
            p = (0,) * d
            f = GridFunction.delta(p)
            reach = 12 if d <= 2 else 4
            for n in product(range(-reach, reach + 1), repeat=d):
                assert delta_uncentered_cube_closed_form(p, n) == uncentered_max_cube(
                    f, n
                ).value, (d, n)

    def test_translation_consistency(self):
        p = (3, -2)
        assert delta_uncentered_cube_closed_form(p, (4, 0)) == (
            delta_uncentered_cube_closed_form((0, 0), (1, 2))
        )


class TestWitnessInvariants:
    def test_witness_consistency_and_domination(self):
        rng = random.Random(9)
        specs = [
            BallSpec("centered1d", 1),
            BallSpec("uncentered1d", 1),
            BallSpec("l1", 2),
            BallSpec("cube", 2),
        ]
        for spec in specs:
            for _ in range(25):
                f = _random_f(spec.dim, rng, signed=True)
                n = tuple(rng.randint(-7, 7) for _ in range(spec.dim))
                w = maximal_witness(f, spec, n)
                assert w.region.contains(n)
                assert average(f, w.region) == w.value
                assert w.count == w.region.count()
                assert w.value >= abs(f[n])  # pointwise domination

    def test_homogeneity(self):
        rng = random.Random(10)
        for spec in (BallSpec("l1", 2), BallSpec("cube", 2)):
            for _ in range(15):
                f = _random_f(2, rng)
                n = (rng.randint(-5, 5), rng.randint(-5, 5))
                c = Q(rng.randint(1, 9), rng.randint(1, 9))
                w1 = maximal_witness(f, spec, n)
                w2 = maximal_witness(f.scale(c), spec, n)
                assert w2.value == c * w1.value
                assert w2.region == w1.region


class TestEvaluateOnBox:
    def test_centered_1d_delta(self):
        vals = evaluate_on_box(
            GridFunction.delta(0), BallSpec("centered1d", 1), ((-2,), (2,))
        )
        assert [vals[(i,)] for i in range(-2, 3)] == [
            Q(1, 5),
            Q(1, 3),
            1,
            Q(1, 3),
            Q(1, 5),
        ]

    def test_zero_function(self):
        vals = evaluate_on_box(
            GridFunction.zero(2), BallSpec("cube", 2), ((-1, -1), (1, 1))
        )
        assert all(v == 0 for v in vals.values())

    def test_cube_delta_neighbourhood(self):
        vals = evaluate_on_box(
            GridFunction.delta((0, 0)), BallSpec("cube", 2), ((-1, -1), (1, 1))
        )
        assert vals[(0, 0)] == 1
        assert vals[(1, 0)] == vals[(0, -1)] == Q(1, 2)
        assert vals[(1, 1)] == vals[(-1, -1)] == Q(1, 4)

    def test_invalid_box(self):
        with pytest.raises(ValueError):
            evaluate_on_box(GridFunction.delta(0), BallSpec("centered1d", 1), ((1,), (0,)))
