import random
import time
import tracemalloc
from fractions import Fraction
from itertools import chain, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxvar import constants, maxop, varanalysis
from maxvar.gridfn import GridFunction
from maxvar.lattice import l1_shell_count
from maxvar.maxop import BallSpec, evaluate_on_box, maximal_value
from maxvar.oracle import brute_variation
from maxvar.verify import verify_uncentered_var_bound_1d
from maxvar.varanalysis import (
    LatticeLine,
    adaptive_variation,
    delta_line_cap_totals,
    delta_variation_closed_form,
    line_contribution_cap_cube,
    line_contribution_cap_l1,
    truncated_variation_maxfn,
)

Q = Fraction


def _box_reference(f, spec, R):
    box = ((-R,) * f.dim, (R,) * f.dim)
    return brute_variation(evaluate_on_box(f, spec, box), box)


def _random_f(d, rng, radius=4, signed=False):
    vals = {}
    for _ in range(rng.randint(1, 4)):
        p = tuple(rng.randint(-radius, radius) for _ in range(d))
        v = Q(rng.randint(1, 9), rng.randint(1, 9))
        vals[p] = -v if signed and rng.random() < 0.5 else v
    return GridFunction(d, vals)


class TestTruncatedVariation:
    def test_centered_1d_delta_telescopes(self):
        f = GridFunction.delta(0)
        spec = BallSpec("centered1d", 1)
        for R in (0, 1, 5, 40):
            assert truncated_variation_maxfn(f, spec, R) == 2 * (1 - Q(1, 2 * R + 1))

    def test_uncentered_1d_delta_telescopes(self):
        f = GridFunction.delta(0)
        spec = BallSpec("uncentered1d", 1)
        for R in (0, 1, 5, 40):
            assert truncated_variation_maxfn(f, spec, R) == 2 * (1 - Q(1, R + 1))

    def test_zero_function(self):
        assert truncated_variation_maxfn(GridFunction.zero(2), BallSpec("l1", 2), 5) == 0

    def test_rejects_small_radius(self):
        with pytest.raises(ValueError):
            truncated_variation_maxfn(GridFunction.delta(7), BallSpec("centered1d", 1), 3)

    def test_monotone_in_radius(self):
        rng = random.Random(31)
        for geom, d in (("centered1d", 1), ("l1", 2), ("cube", 2)):
            spec = BallSpec(geom, d)
            f = _random_f(d, rng)
            r0 = f.support_radius()
            vs = [truncated_variation_maxfn(f, spec, r0 + extra) for extra in (0, 3, 9)]
            assert vs[0] <= vs[1] <= vs[2]

    def test_grid_path_equals_pointwise_path(self):
        rng = random.Random(32)
        for _ in range(12):
            f = _random_f(2, rng, signed=True)
            R = f.support_radius() + rng.randint(0, 4)
            for geom in ("l1", "cube"):
                spec = BallSpec(geom, 2)
                assert truncated_variation_maxfn(f, spec, R) == (
                    _box_reference(f, spec, R)
                ), (geom, f.support)

    def test_overflow_guard_routes_to_pointwise(self):
        # three coprime ~1e9 denominators scale the masses past int64 range;
        # the guard must reject the int64 kernel and the result stay exact
        vals = {
            (0, 0): Q(1, 10**9 + 7),
            (1, 1): Q(1, 10**9 + 9),
            (2, 0): Q(1, 10**9 + 21),
        }
        f = GridFunction(2, vals)
        assert not varanalysis._grid_products_fit_int64(f, True, 5)
        spec = BallSpec("l1", 2)
        assert truncated_variation_maxfn(f, spec, 4) == _box_reference(f, spec, 4)
        assert varanalysis._grid_products_fit_int64(
            GridFunction(2, {(0, 0): Q(1, 2)}), True, 1000
        )
        for geom in ("l1", "cube"):
            spec = BallSpec(geom, 2)
            for R in range(f.support_radius(), f.support_radius() + 10):
                assert truncated_variation_maxfn(f, spec, R) == (
                    _box_reference(f, spec, R)
                ), (geom, R)

    def test_matches_brute_edge_sum(self):
        rng = random.Random(33)
        f = _random_f(2, rng)
        R = f.support_radius() + 2
        spec = BallSpec("cube", 2)
        values = evaluate_on_box(f, spec, ((-R, -R), (R, R)))
        assert truncated_variation_maxfn(f, spec, R) == brute_variation(
            values, ((-R, -R), (R, R))
        )


# deterministic examples, so that CI runs the same inputs every time
SWEEP = settings(derandomize=True, database=None, deadline=None)

_values = st.tuples(st.integers(1, 9), st.integers(1, 9), st.booleans()).map(
    lambda t: Q(t[0], t[1]) * (-1 if t[2] else 1)
)


def _functions(d, radius, min_size, max_size):
    points = st.tuples(*[st.integers(-radius, radius)] * d)
    return st.dictionaries(points, _values, min_size=min_size, max_size=max_size).map(
        lambda vals: GridFunction(d, vals)
    )


def _no_exact_values(*args):
    raise AssertionError("the exact evaluator was used")


def _spread(d, rng, points, reach):
    """`points` cube support points with positive masses, spread over
    [0, reach] on the first axis and [-2, 2] on the others."""
    support = {(0,) + (0,) * (d - 1), (reach,) + (1,) * (d - 1)}
    while len(support) < points:
        support.add((rng.randint(0, reach), *(rng.randint(-2, 2) for _ in range(d - 1))))
    return GridFunction(d, {p: Q(rng.randint(1, 9), rng.randint(1, 9)) for p in support})


class TestSweepMatchesReference:
    """The monotone-tail sweep against the literal edge sum over the box,
    on signed inputs, at truncation radii from the support radius up to
    nine beyond it."""

    @pytest.mark.parametrize(
        "geometry, d, radius, max_size, examples",
        [
            ("centered1d", 1, 6, 6, 40),
            ("uncentered1d", 1, 6, 6, 40),
            ("l1", 1, 6, 6, 25),
            ("cube", 1, 6, 6, 25),
            ("l1", 2, 3, 6, 25),
            ("cube", 2, 3, 6, 25),
            ("l1", 3, 1, 4, 10),
            ("cube", 3, 1, 4, 10),
        ],
    )
    def test_random_signed_inputs(self, geometry, d, radius, max_size, examples):
        @settings(SWEEP, max_examples=examples)
        @given(_functions(d, radius, 1, max_size), st.integers(0, 9))
        def check(f, extra):
            spec = BallSpec(geometry, d)
            R = f.support_radius() + extra
            assert truncated_variation_maxfn(f, spec, R) == _box_reference(f, spec, R)

        check()

    @settings(SWEEP, max_examples=6)
    @given(_functions(2, 2, 7, 8), st.integers(0, 9))
    def test_cube_supports_up_to_grid_limit(self, f, extra):
        spec = BallSpec("cube", 2)
        R = f.support_radius() + extra
        assert len(f.support) <= 8
        assert varanalysis._grid_products_fit_int64(f, False, R)
        assert truncated_variation_maxfn(f, spec, R) == _box_reference(f, spec, R)

    @settings(SWEEP, max_examples=6)
    @given(_functions(2, 2, 7, 8), st.integers(0, 9))
    def test_l1_supports_up_to_grid_limit(self, f, extra):
        spec = BallSpec("l1", 2)
        R = f.support_radius() + extra
        assert len(f.support) <= 8
        assert varanalysis._grid_products_fit_int64(f, True, R)
        assert truncated_variation_maxfn(f, spec, R) == _box_reference(f, spec, R)

    @pytest.mark.parametrize(
        "values",
        [
            {(1, 0): Q(1), (-1, 0): Q(2), (0, 1): Q(-3, 2), (0, -1): Q(1, 3)},
            {(0, 0): Q(1), (2, 0): Q(-1, 2), (1, 1): Q(3)},
        ],
        ids=["diamond", "triangle"],
    )
    def test_l1_tied_distances(self, values):
        # several support points at the same distance from many query
        # points: each radius must count every one of them
        f = GridFunction(2, values)
        spec = BallSpec("l1", 2)
        for R in (f.support_radius(), f.support_radius() + 3):
            assert varanalysis._grid_products_fit_int64(f, True, R)
            assert truncated_variation_maxfn(f, spec, R) == _box_reference(f, spec, R)

    @pytest.mark.parametrize("geometry", ["l1", "cube"])
    def test_large_supports_take_vectorised_evaluator(self, geometry, monkeypatch):
        # the evaluator's width (s^2 cells for l1, the closure count for
        # cube), not the support size, decides the path
        monkeypatch.setattr(varanalysis, "_exact_values", _no_exact_values)
        spec = BallSpec(geometry, 2)

        @settings(SWEEP, max_examples=4)
        @given(_functions(2, 2, 9, 16), st.integers(0, 9))
        def check(f, extra):
            R = f.support_radius() + extra
            assert len(f.support) > 8
            assert varanalysis._grid_products_fit_int64(f, spec.centered, R)
            assert truncated_variation_maxfn(f, spec, R) == _box_reference(f, spec, R)

        check()

    @pytest.mark.parametrize(
        "geometry, d, radius", [("uncentered1d", 1, 6), ("cube", 1, 6), ("cube", 3, 1)]
    )
    def test_cube_sweeps_take_vectorised_evaluator(self, geometry, d, radius, monkeypatch):
        monkeypatch.setattr(varanalysis, "_exact_values", _no_exact_values)
        spec = BallSpec(geometry, d)

        @settings(SWEEP, max_examples=10)
        @given(_functions(d, radius, 1, 6), st.integers(0, 9))
        def check(f, extra):
            R = f.support_radius() + extra
            assert varanalysis._grid_products_fit_int64(f, False, R)
            assert truncated_variation_maxfn(f, spec, R) == _box_reference(f, spec, R)

        check()

    @pytest.mark.parametrize("geometry", ["centered1d", "uncentered1d", "l1", "cube"])
    def test_1d_sweeps_at_huge_radius_cost_o_of_the_support(self, geometry):
        # neither the int64 check nor a ball count near R builds a table
        # up to R: the sweep's time and memory do not grow with R
        f = GridFunction(1, {(0,): Q(1), (3,): Q(-1, 2), (5,): Q(2, 3)})
        start = time.perf_counter()
        tracemalloc.start()
        try:
            var = truncated_variation_maxfn(f, BallSpec(geometry, 1), 10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if geometry == "uncentered1d":
            assert verify_uncentered_var_bound_1d(f, 10**8).maxfn_var_truncated == var
        assert time.perf_counter() - start < 1
        assert peak < 4 * 2**20
        assert var >= truncated_variation_maxfn(f, BallSpec(geometry, 1), 14)

    @pytest.mark.parametrize(
        "geometry, d, radius, max_size, scale",
        [
            ("cube", 1, 6, 6, 10**19),
            ("cube", 2, 2, 12, 10**19),
            ("cube", 3, 1, 4, 10**19),
            ("l1", 2, 2, 12, 10**18),
        ],
        ids=["1-6-6", "2-2-12", "3-1-4", "l1-2-2-12"],
    )
    def test_large_masses_take_object_arrays(self, geometry, d, radius, max_size, scale, monkeypatch):
        # products that could pass int64: the same evaluator on Python ints;
        # 10^19 times any box count, 2 or more, passes 2^62, and so does
        # 10^18 times two masses times any ball count reachable at d = 2
        monkeypatch.setattr(varanalysis, "_exact_values", _no_exact_values)
        dtypes = []
        reduce = varanalysis._add_run_boundaries

        def recording(num, den, *running):
            dtypes.append(den.dtype)
            return reduce(num, den, *running)

        monkeypatch.setattr(varanalysis, "_add_run_boundaries", recording)
        spec = BallSpec(geometry, d)

        @settings(SWEEP, max_examples=4)
        @given(_functions(d, radius, 2, max_size), st.integers(0, 9))
        def check(f, extra):
            f = f.scale(scale)
            R = f.support_radius() + extra
            assert not varanalysis._grid_products_fit_int64(f, spec.centered, R)
            dtypes.clear()
            assert truncated_variation_maxfn(f, spec, R) == _box_reference(f, spec, R)
            assert set(dtypes) == {np.dtype(object)}

        check()


def _run_boundaries_per_entry(num, den, acc):
    """The per-entry reduction `_add_run_boundaries` replaced: one dict
    update per nonzero run-boundary coefficient."""
    if num.shape[1] < 2:
        return
    sign = np.sign(num[:, 1:] * den[:, :-1] - num[:, :-1] * den[:, 1:])
    coef = np.zeros(num.shape, dtype=sign.dtype)
    coef[:, 1:] += sign
    coef[:, :-1] -= sign
    ys, xs = np.nonzero(coef)
    for c, nn, dd in zip(coef[ys, xs].tolist(), num[ys, xs].tolist(), den[ys, xs].tolist()):
        acc[dd] = acc.get(dd, 0) + c * nn


def _running(acc):
    """Running (denominators, totals) arrays holding the dict acc."""
    dens, totals = zip(*sorted(acc.items())) if acc else ((), ())
    return np.array(dens, dtype=np.int64), np.array(totals, dtype=np.int64)


def _merged(num, den, dens, totals):
    """`_add_run_boundaries` on rows of values as a dict, checking that the
    running arrays stay sorted with one entry per denominator.  The sweep
    lays a chunk out as (stops, lines), so each row goes in as a column."""
    dens, totals = varanalysis._add_run_boundaries(num.T, den.T, dens, totals)
    got = dict(zip(dens.tolist(), totals.tolist()))
    assert list(got) == sorted(got) and len(got) == len(dens) == len(totals)
    assert all(type(k) is int and type(v) is int for k, v in got.items())
    return got, dens, totals


class TestRunBoundaryReduction:
    """Grouped per-denominator totals against the per-entry reference."""

    @staticmethod
    def _check(num, den, start=None):
        want = dict(start or {})
        _run_boundaries_per_entry(num, den, want)
        got = _merged(num, den, *_running(start or {}))[0]
        assert got == want
        return got

    @pytest.mark.parametrize("seed", range(12))
    def test_int64_rows_with_plateaus_and_repeated_denominators(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = int(rng.integers(1, 9)), int(rng.integers(2, 30))
        # few distinct values, so rows have plateaus and denominators repeat
        num = rng.integers(0, 4, size=(rows, cols)).cumsum(axis=1) * rng.integers(1, 3)
        den = rng.choice(np.array([1, 2, 3, 6, 12]), size=(rows, cols))
        self._check(num.astype(np.int64), den.astype(np.int64), {6: 5, 7: -1})

    def test_broadcast_numerators(self):
        # `_best` returns the numerators as a read-only broadcast view
        den = np.array([[4, 3, 2, 3, 4], [9, 5, 5, 7, 9], [2, 2, 2, 2, 2]], dtype=np.int64)
        num = np.broadcast_to(np.int64(3), den.shape)
        assert self._check(num, den)

    def test_single_column_adds_nothing(self):
        acc = self._check(np.array([[1], [2]], dtype=np.int64), np.ones((2, 1), np.int64))
        assert acc == {}

    def test_flat_rows_add_nothing(self):
        num = np.full((3, 5), 7, dtype=np.int64)
        den = np.full((3, 5), 2, dtype=np.int64)
        assert self._check(num, den, {2: 1}) == {2: 1}

    def test_int64_totals_beyond_2_63(self):
        # every term fits in int64, their per-denominator total does not
        num = np.tile(np.array([0, 2**61], dtype=np.int64), (4, 8))
        acc = self._check(num, np.ones_like(num))
        assert acc[1] > 2**63

    def test_object_arrays_beyond_2_63(self):
        rng = random.Random(5)
        big = 2**70
        num = np.array(
            [[big * rng.randint(0, 5) + rng.randint(0, 3) for _ in range(9)] for _ in range(4)],
            dtype=object,
        )
        den = np.array([[big + rng.choice([1, 3]) for _ in range(9)] for _ in range(4)], dtype=object)
        acc = self._check(num, den)
        assert acc and max(abs(v) for v in acc.values()) > 2**63

    @pytest.mark.parametrize("seed", range(6))
    def test_totals_merged_over_chunks_equal_one_pass(self, seed):
        # chunks of rows, and blocks of columns sharing one column, as the
        # sweep cuts lines: the boundary terms of a shared column add up
        rng = np.random.default_rng(50 + seed)
        num = rng.integers(-3, 4, size=(7, 23)).cumsum(axis=1)
        den = rng.choice(np.array([1, 2, 3, 5, 8, 13]), size=num.shape)
        want = {}
        _run_boundaries_per_entry(num, den, want)
        dens, totals = _running({})
        rows, cols = int(rng.integers(1, 4)), int(rng.integers(2, 6))
        for r0 in range(0, 7, rows):
            for c0 in range(0, 22, cols - 1):
                sl = np.s_[r0 : r0 + rows, c0 : c0 + cols]
                got, dens, totals = _merged(num[sl], den[sl], dens, totals)
        assert got == want

    def test_running_totals_beyond_2_63(self):
        # each chunk's own total fits in int64, the running total does not
        num = np.tile(np.array([0, 2**60, 0], dtype=np.int64), (8, 1))
        den = np.ones_like(num)
        dens, totals = _running({})
        for row in range(8):
            got, dens, totals = _merged(num[row : row + 1], den[row : row + 1], dens, totals)
        assert got == {1: 8 * 2**61}


def _best_sequential(num, den):
    """The per-candidate loop the tournament replaced: a running best that
    takes a later candidate only where it is strictly larger."""
    bn, bd = num[0], den[0]
    for n, d in zip(num[1:], den[1:]):
        better = n * bd > bn * d
        bn = np.where(better, n, bn)
        bd = np.where(better, d, bd)
    return np.broadcast_to(bn, bd.shape), bd


class TestTournament:
    """`_best` against the sequential reference: the same (num, den) pair
    must win at every point, ties included."""

    @staticmethod
    def _check(num, den):
        want = _best_sequential(num, den)
        got = varanalysis._best(num.copy(), den.copy())  # the rounds consume their input
        assert got[1].shape == den.shape[1:]
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("count", range(1, 10))
    def test_full_arrays(self, count):
        rng = np.random.default_rng(count)
        num = rng.integers(1, 30, size=(count, 4, 7))
        den = rng.integers(1, 30, size=(count, 4, 7))
        self._check(num, den)

    @pytest.mark.parametrize("count", range(1, 10))
    def test_scalar_masses_broadcast_against_counts(self, count):
        rng = np.random.default_rng(100 + count)
        num = rng.integers(1, 30, size=(count, 1, 1))
        den = rng.integers(1, 30, size=(count, 5, 3))
        self._check(num, den)

    @pytest.mark.parametrize("count", range(2, 10))
    def test_equal_values_with_different_pairs(self, count):
        # every candidate is v/w scaled by its own factor, and v/w takes two
        # values, so most points see ties between distinct (num, den) pairs
        rng = np.random.default_rng(200 + count)
        scale = np.arange(1, count + 1)[:, None, None]
        v = rng.integers(1, 3, size=(count, 6, 6))
        num, den = v * scale, 2 * scale * np.ones_like(v)
        self._check(num, den)
        got = varanalysis._best(num.copy(), den.copy())
        # the lowest index holding the maximum wins
        first = np.argmax(v == v.max(axis=0), axis=0)
        assert np.array_equal(got[1], 2 * (first + 1))

    def test_products_just_below_the_int64_bound(self):
        # masses near 2^40 against counts near 2^22: every product is just
        # under 2^62, the bound `_grid_products_fit_int64` enforces
        rng = np.random.default_rng(7)
        top_num, top_den = 2**40, 2**22
        num = top_num - rng.integers(1, 4, size=(7, 1, 1))
        den = top_den - rng.integers(1, 4, size=(7, 3, 8))
        assert int(num.max()) * int(den.max()) < 2**62
        self._check(num, den)
        # near-equal ratios that only exact products tell apart
        num = np.array([top_num - 1, top_num - 3, top_num - 2]).reshape(3, 1, 1)
        den = np.array([top_den - 1, top_den - 3, top_den - 2]).reshape(3, 1, 1).repeat(2, axis=1)
        self._check(num, den)

    def test_read_only_masses_are_copied_not_written(self):
        # one point: the even slots of the masses have the winners' shape
        num = np.array([3, 5, 4, 5], dtype=np.int64).reshape(4, 1, 1)
        num.flags.writeable = False
        den = np.array([2, 3, 2, 4], dtype=np.int64).reshape(4, 1, 1)
        want = _best_sequential(num, den)
        got = varanalysis._best(num, den.copy())
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert num.ravel().tolist() == [3, 5, 4, 5]

    def test_single_point_chunks_leave_the_cube_masses_intact(self):
        # the cube masses are shared by every chunk of a sweep
        f = _eight_point(random.Random(3))
        values, _, scale = varanalysis._vectorised_values(f, False, np.int64)
        for x, y in [(0, 0), (-6, 2), (0, 0), (5, -1)]:
            num, den = values([np.array([[x]]), np.array([[y]])])
            got = Q(int(num[0, 0]), scale * int(den[0, 0]))
            assert got == maximal_value(f, BallSpec("cube", 2), (x, y))

    def test_single_candidate_takes_no_round(self):
        den = np.arange(1, 13, dtype=np.int64).reshape(1, 3, 4)
        num = np.full((1, 1, 1), 5, dtype=np.int64)
        bn, bd = varanalysis._best(num, den)
        assert np.shares_memory(bd, den) and np.shares_memory(bn, num)


class TestCubeCount:
    """The cube evaluator's candidate counts, one per closed support subset,
    against the kernel's minimal admissible boxes and the closed form."""

    @pytest.mark.parametrize("d, radius", [(1, 6), (2, 3), (3, 2)])
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_counts_match_the_kernel_and_the_closed_form(self, d, radius, dtype, monkeypatch):
        stacks = []
        best = varanalysis._best

        def recording_best(num, den):
            stacks.append(den.copy())  # the rounds consume their input
            return best(num, den)

        monkeypatch.setattr(varanalysis, "_best", recording_best)

        @settings(SWEEP, max_examples=15)
        @given(
            _functions(d, radius, 1, 6),
            st.tuples(*[st.integers(-radius - 3, radius + 3)] * d),
        )
        def check(f, n):
            masses, _ = f.integer_masses()
            values = varanalysis._vectorised_values(f, False, dtype)[0]
            stacks.clear()
            values([np.array([[c]]) for c in n])
            assert stacks[0].dtype == np.dtype(dtype)
            got = [int(c) for c in stacks[0][:, 0, 0]]
            assert got == [box[1] for box in maxop._subset_boxes(f.support, masses, n)]
            want = []
            for _, lower, upper in maxop.hull_closures(f.support, tuple(masses)):
                e = [max(h, c) - min(l, c) + 1 for l, h, c in zip(lower, upper, n)]
                m = max(e)
                k = e.count(m)
                want.append(m**k * (m - 1) ** (d - k))
            assert got == want

        check()


def _eight_point(rng):
    points = set()
    while len(points) < 8:
        points.add((rng.randint(-4, 4), rng.randint(-4, 4)))
    values = [Q(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1)) for _ in points]
    return GridFunction(2, dict(zip(sorted(points), values)))


class _Recorded(np.ndarray):
    """Coordinates that record the size of every array derived from them."""

    sizes: list = []

    def __array_finalize__(self, obj):
        _Recorded.sizes.append(self.size)


class TestChunkBudget:
    """The vectorised evaluator keeps every array of a chunk, the candidate
    stacks and the tournament's temporaries included, within _CHUNK_CELLS
    cells, or within two stops of one line where those pass it."""

    @staticmethod
    def _recorded(f, spec, R, monkeypatch):
        """The variation, with every array of the sweep: the candidate
        stacks, the evaluator's results and the sizes of all arrays derived
        from the coordinates."""
        stacks, returned = [], []
        evaluator, best = varanalysis._vectorised_values, varanalysis._best

        def recording_evaluator(*args):
            values, width, scale = evaluator(*args)

            def recorded(coords):
                out = values([c.view(_Recorded) for c in coords])
                returned.extend(out)
                return [np.asarray(a) for a in out]

            return recorded, width, scale

        def recording_best(num, den):
            stacks.extend((num, den))
            return best(num, den)

        monkeypatch.setattr(_Recorded, "sizes", [])
        monkeypatch.setattr(varanalysis, "_vectorised_values", recording_evaluator)
        monkeypatch.setattr(varanalysis, "_best", recording_best)
        var = truncated_variation_maxfn(f, spec, R)
        assert stacks and returned and _Recorded.sizes
        return var, stacks + returned, _Recorded.sizes

    @pytest.mark.parametrize("geometry", ["l1", "cube"])
    def test_no_array_exceeds_the_budget(self, geometry, monkeypatch):
        rng = random.Random(geometry)
        f = _eight_point(rng)
        spec = BallSpec(geometry, 2)
        want = truncated_variation_maxfn(f, spec, 128)
        var, arrays, sizes = self._recorded(f, spec, 128, monkeypatch)
        assert var == want
        budget = varanalysis._CHUNK_CELLS
        assert len(f.support) == 8
        assert max(a.size for a in arrays) <= budget
        assert max(sizes) <= budget
        # the chunks do fill the budget: the widest array, the candidate
        # stack for cube and the distance comparison for l1, passes half of it
        assert max(sizes) > budget // 2

    @pytest.mark.parametrize("d, points, reach, R", [(1, 8, 4000, 4000), (2, 8, 4, 128), (3, 6, 2, 12)])
    @pytest.mark.parametrize("scale", [1, 10**19], ids=["int64", "object"])
    def test_cube_arrays_stay_within_the_budget(self, d, points, reach, R, scale, monkeypatch):
        f = _spread(d, random.Random(d), points, reach).scale(scale)
        spec = BallSpec("cube", d)
        assert varanalysis._grid_products_fit_int64(f, False, R) == (scale == 1)
        want = varanalysis._sweep(
            varanalysis._exact_values(f, spec), 1, 1, R,
            [list(chain(*parts)) for parts in varanalysis._stops(f, R)],
        )
        var, arrays, sizes = self._recorded(f, spec, R, monkeypatch)
        assert var == want
        assert {a.dtype for a in arrays} == {np.dtype(np.int64 if scale == 1 else object)}
        budget = varanalysis._CHUNK_CELLS
        assert max(a.size for a in arrays) <= budget
        assert budget // 2 < max(sizes) <= budget

    def test_a_line_past_the_budget_is_cut_into_blocks(self, monkeypatch):
        # 8 cube points spread over x in [0, 1200]: each line along x has
        # 1,202 stops, which times the closures is past the budget alone
        rng = random.Random(1200)
        points = {(0, 0), (1200, 1)}
        while len(points) < 8:
            points.add((rng.randint(0, 1200), rng.randint(-4, 4)))
        f = GridFunction(2, {p: Q(rng.randint(1, 9), rng.randint(1, 9)) for p in points})
        closures = maxop.hull_closures(f.support, tuple(f.integer_masses()[0]))
        stops = sum(map(len, varanalysis._stops(f, 1200)[0]))
        assert stops == 1202 and stops * len(closures) > varanalysis._CHUNK_CELLS
        var, arrays, sizes = self._recorded(f, BallSpec("cube", 2), 1200, monkeypatch)
        budget = varanalysis._CHUNK_CELLS
        assert max(a.size for a in arrays) <= budget
        assert max(sizes) <= budget
        # with twice the budget every line is whole again
        monkeypatch.undo()
        monkeypatch.setattr(varanalysis, "_CHUNK_CELLS", 2 * budget)
        assert truncated_variation_maxfn(f, BallSpec("cube", 2), 1200) == var

    @pytest.mark.parametrize("scale", [1, 10**19], ids=["int64", "object"])
    def test_a_support_past_the_budget_takes_two_stops_at_a_time(self, scale, monkeypatch):
        # closures alone past half the budget: still the vectorised
        # evaluator, one block of two stops of one line per chunk
        f = _eight_point(random.Random("wide")).scale(scale)
        spec = BallSpec("cube", 2)
        R = f.support_radius() + 3
        width = len(maxop.hull_closures(f.support, tuple(f.integer_masses()[0])))
        want = varanalysis._sweep(
            varanalysis._exact_values(f, spec), 1, 1, R,
            [list(chain(*parts)) for parts in varanalysis._stops(f, R)],
        )
        monkeypatch.setattr(varanalysis, "_exact_values", _no_exact_values)
        for cells in (1, width, 2 * width - 1):
            with monkeypatch.context() as m:  # fresh recorders per budget
                m.setattr(varanalysis, "_CHUNK_CELLS", cells)
                var, arrays, sizes = self._recorded(f, spec, R, m)
            assert var == want
            assert {a.dtype for a in arrays} == {np.dtype(np.int64 if scale == 1 else object)}
            assert max(a.size for a in arrays) <= 2 * width
            assert max(sizes) == 2 * width

    def test_2d_l1_takes_the_exact_evaluator_past_half_the_budget(self, monkeypatch):
        f = _eight_point(random.Random("l1"))
        spec = BallSpec("l1", 2)
        R = f.support_radius() + 3
        want = _box_reference(f, spec, R)
        calls = []
        exact = varanalysis._exact_values

        def counting(*args):
            calls.append(args)
            return exact(*args)

        monkeypatch.setattr(varanalysis, "_exact_values", counting)
        width = len(f.support) ** 2
        for cells in (1, 2 * width - 1, 2 * width, varanalysis._CHUNK_CELLS):
            monkeypatch.setattr(varanalysis, "_CHUNK_CELLS", cells)
            calls.clear()
            assert truncated_variation_maxfn(f, spec, R) == want
            assert len(calls) == (width > cells // 2)

    @pytest.mark.parametrize("geometry", ["l1", "cube"])
    def test_blocks_add_up_to_the_whole_line(self, geometry, monkeypatch):
        # with the least budget the vectorised evaluator takes, every block
        # is one edge of one line
        f = _eight_point(random.Random(geometry))
        spec = BallSpec(geometry, 2)
        want = truncated_variation_maxfn(f, spec, 12)
        width = varanalysis._vectorised_values(f, spec.centered, np.int64)[1]
        monkeypatch.setattr(varanalysis, "_CHUNK_CELLS", 2 * width)
        blocks = []
        reduce = varanalysis._add_run_boundaries

        def counting(num, den, *running):
            blocks.append(num.shape)
            return reduce(num, den, *running)

        monkeypatch.setattr(varanalysis, "_add_run_boundaries", counting)
        assert truncated_variation_maxfn(f, spec, 12) == want
        assert set(blocks) == {(2, 1)}  # (stops, lines)


class TestChunkIndependence:
    @pytest.mark.parametrize(
        "geometry, d, radius",
        [
            ("centered1d", 1, 6),
            ("uncentered1d", 1, 6),
            ("cube", 1, 6),
            ("l1", 2, 3),
            ("cube", 2, 3),
            ("l1", 3, 1),
            ("cube", 3, 1),
        ],
    )
    def test_value_does_not_depend_on_chunk_cells(self, geometry, d, radius, monkeypatch):
        self._check(BallSpec(geometry, d), radius, 1, monkeypatch)

    @pytest.mark.parametrize(
        "geometry, d, radius",
        [("cube", 1, 6), ("cube", 2, 3), ("cube", 3, 1), ("l1", 2, 3)],
        ids=["1-6", "2-3", "3-1", "l1-2-3"],
    )
    def test_object_arrays_do_not_depend_on_chunk_cells(self, geometry, d, radius, monkeypatch):
        self._check(BallSpec(geometry, d), radius, 10**19, monkeypatch)

    @staticmethod
    def _check(spec, radius, scale, monkeypatch):
        budgets = (1, 7, 97, varanalysis._CHUNK_CELLS)
        if not spec.centered:  # cube sweeps take the vectorised evaluator at every budget
            monkeypatch.setattr(varanalysis, "_exact_values", _no_exact_values)

        @settings(SWEEP, max_examples=6)
        @given(_functions(spec.dim, radius, 1, 6), st.integers(0, 4))
        def check(f, extra):
            f = f.scale(scale)
            R = f.support_radius() + extra
            assert varanalysis._grid_products_fit_int64(f, spec.centered, R) == (scale == 1)
            values = set()
            for cells in budgets:
                monkeypatch.setattr(varanalysis, "_CHUNK_CELLS", cells)
                values.add(truncated_variation_maxfn(f, spec, R))
            assert len(values) == 1

        check()


class TestSweepPoints:
    @pytest.mark.parametrize(
        "d, geometry", [(1, "centered1d"), (2, "l1"), (2, "cube"), (3, "cube")]
    )
    def test_counts_the_points_the_sweep_evaluates(self, d, geometry, monkeypatch):
        rng = random.Random(d)
        seen = []
        reduce = varanalysis._add_run_boundaries
        def counting(num, den, *running):
            seen.append(num.size)
            return reduce(num, den, *running)

        monkeypatch.setattr(varanalysis, "_add_run_boundaries", counting)
        for _ in range(4):
            f = _random_f(d, rng, radius=3)
            for R in (f.support_radius(), f.support_radius() + 2):
                seen.clear()
                truncated_variation_maxfn(f, BallSpec(geometry, d), R)
                assert sum(seen) == varanalysis.sweep_points(f, R)

    def test_exact_evaluator_calls_the_kernel_once_per_distinct_point(self, monkeypatch):
        # support box [-1, 1]^3 at R = 4: each axis stops at {-4, -1, 0, 1, 4},
        # so the sweep meets 9^3 - 4^3 distinct points of its 1,215 stops
        f = GridFunction(3, {(-1, -1, -1): 1, (1, 0, 1): Q(2, 3), (0, 1, 0): 3})
        spec = BallSpec("l1", 3)
        calls = []
        kernel = maxop.maximal_value

        def counting(g, s, point):
            assert all(type(c) is int for c in point)  # no numpy integers reach the kernel
            calls.append(point)
            return kernel(g, s, point)

        monkeypatch.setattr(maxop, "maximal_value", counting)
        var = truncated_variation_maxfn(f, spec, 4)
        assert varanalysis.sweep_points(f, 4) == 1215
        assert len(calls) == len(set(calls)) == 9**3 - 4**3
        monkeypatch.undo()
        assert var == _box_reference(f, spec, 4)

    def test_zero_function_and_small_radius(self):
        assert varanalysis.sweep_points(GridFunction.zero(2), 5) == 0
        assert varanalysis.sweep_points(GridFunction.delta((0, 0)), 0) == 2
        # stops {-3, 3} + [-3..1] on the first axis, {-3, 3} + [0] on the second
        f = GridFunction(2, {(-3, 0): 1, (1, 0): 1})
        assert varanalysis.sweep_points(f, 3) == 7 * 6 + 7 * 3
        with pytest.raises(ValueError):
            varanalysis.sweep_points(GridFunction.delta((3, 0)), 2)


class TestAdaptiveVariation:
    def test_delta_centered_converges_near_two(self):
        rep = adaptive_variation(
            GridFunction.delta(0), BallSpec("centered1d", 1), Q(1, 1000)
        )
        assert rep.stop_reason == "converged"
        assert rep.truncated_var > 2 - Q(2, 1000)
        assert rep.truncated_var < 2
        assert rep.cap_satisfied

    def test_trace_nondecreasing(self):
        rep = adaptive_variation(
            GridFunction(2, {(0, 0): 1, (1, 0): 1}),
            BallSpec("l1", 2),
            Q(1, 10),
            r_max=64,
        )
        vars_ = [v for _, v in rep.convergence_trace]
        assert all(a <= b for a, b in zip(vars_, vars_[1:]))

    def test_cube_delta_approaches_twelve_from_below(self):
        rep = adaptive_variation(
            GridFunction.delta((0, 0)), BallSpec("cube", 2), Q(1, 100), r_max=128
        )
        vars_ = [v for _, v in rep.convergence_trace]
        assert all(v < 12 for v in vars_)
        assert vars_[-1] > 11 and rep.cap_satisfied
        assert rep.theoretical_cap == 12

    def test_two_point_l1_strictly_below_cap(self):
        f = GridFunction(2, {(0, 0): 1, (1, 0): 1})
        rep = adaptive_variation(f, BallSpec("l1", 2), Q(1, 100), r_max=128)
        assert rep.cap_satisfied
        assert rep.theoretical_cap - rep.truncated_var > Q(1, 2)  # visible gap

    def test_rmax_flagged(self):
        rep = adaptive_variation(
            GridFunction.delta(0), BallSpec("centered1d", 1), Q(1, 10**9), r_max=32
        )
        assert rep.stop_reason == "rmax"
        assert rep.truncation_radius == 32

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            adaptive_variation(GridFunction.delta(0), BallSpec("centered1d", 1), 0)


class TestLineCaps:
    def test_l1_on_line(self):
        assert line_contribution_cap_l1((3, 4), LatticeLine(0, (0, 4))) == 2

    def test_l1_distance_one(self):
        assert line_contribution_cap_l1((0, 0), LatticeLine(0, (7, 1))) == Q(2, 5)

    def test_l1_d3_distance_two(self):
        assert line_contribution_cap_l1(
            (0, 0, 0), LatticeLine(2, (1, 1, 9))
        ) == Q(2, 25)

    def test_cube_on_line(self):
        assert line_contribution_cap_cube((5, 5), LatticeLine(1, (5, 0))) == 2

    def test_cube_d2_k1(self):
        assert line_contribution_cap_cube((0, 0), LatticeLine(1, (1, 3))) == 1

    def test_cube_d3_k2_j1(self):
        cap = line_contribution_cap_cube((0, 0, 0), LatticeLine(2, (2, 1, 0)))
        assert cap == Q(2, 3 * 4) == Q(1, 6)

    @pytest.mark.parametrize("geometry", ["l1", "cube"])
    @pytest.mark.parametrize("d, axis", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
    def test_caps_honored_by_delta_runs(self, geometry, d, axis):
        # measured variation of a mass off the origin along lines up to 3
        # from it never exceeds the cap; each line's segment is centred on
        # its point nearest the mass, and the within-line tails are
        # monotone, so adding their exact remainder 2*v(edge) reaches the cap
        p = (1, -2, 0)[:d]
        f = GridFunction.delta(p)
        spec = BallSpec(geometry, d)
        cap_fn = line_contribution_cap_l1 if geometry == "l1" else line_contribution_cap_cube
        W = 12
        for offset in product(range(-3, 4), repeat=d - 1):
            rest = [c + o for c, o in zip(p[:axis] + p[axis + 1 :], offset)]
            line = LatticeLine(axis, tuple(rest[:axis] + [7] + rest[axis:]))
            seq = [
                maximal_value(f, spec, tuple(rest[:axis] + [t] + rest[axis:]))
                for t in range(p[axis] - W, p[axis] + W + 1)
            ]
            measured = sum(abs(b - a) for a, b in zip(seq, seq[1:]))
            cap = cap_fn(p, line)
            assert measured <= cap
            assert measured + 2 * seq[0] == cap


class TestDeltaClosedFormSums:
    def test_d1_both_geometries(self):
        for R in (0, 3, 1000, 10**4):
            assert delta_variation_closed_form("centered1d", 1, R) == 2 * (
                1 - Q(1, 2 * R + 1)
            )
            assert delta_variation_closed_form("uncentered1d", 1, R) == 2 * (
                1 - Q(1, R + 1)
            )

    def test_matches_operator_evaluation(self):
        for geom in ("l1", "cube"):
            spec = BallSpec(geom, 2)
            for R in (1, 4, 9):
                assert delta_variation_closed_form(geom, 2, R) == (
                    truncated_variation_maxfn(GridFunction.delta((0, 0)), spec, R)
                )

    def test_cube_d2_convergence_to_twelve(self):
        v = delta_variation_closed_form("cube", 2, 1000)
        assert 12 - Q(2, 100) < v < 12

    def test_l1_d2_approaches_enclosure(self):
        v = delta_variation_closed_form("l1", 2, 500)
        enc = constants.constant_enclosure(2, 2000, "centered")
        assert v < enc.upper
        assert enc.lower - v < Q(3, 100)

    def test_interval_geometry_dim_guard(self):
        with pytest.raises(ValueError):
            delta_variation_closed_form("centered1d", 2, 5)


def _string_levels(seq):
    """Levels of the strict local maxima and minima of `seq` extended by zeros.

    Equal neighbours are first compressed into one run. The infinite zero
    runs at both ends have level 0 and add nothing to either sum.
    """
    runs = [0]
    for v in [*seq, 0]:
        if v != runs[-1]:
            runs.append(v)
    triples = list(zip(runs, runs[1:], runs[2:]))
    return [b for a, b, c in triples if b > max(a, c)], [b for a, b, c in triples if b < min(a, c)]


def _zero_extended_variation(seq):
    ext = [0, *seq, 0]
    return sum((abs(b - a) for a, b in zip(ext, ext[1:])), Q(0))


class TestStringIdentity:
    # the identity on sequences worked by hand, so that the strings test
    # below rests on a helper that is itself checked
    @pytest.mark.parametrize(
        "seq, maxima, minima",
        [
            ([0, 1, 1, 0, 2, 0], [1, 2], [0]),
            ([5], [5], []),
            ([1, 2, 3], [3], []),
            ([0, 0, 0], [], []),
            ([2, 2], [2], []),
            ([3, 1, 3], [3, 3], [1]),
            ([-1, 2], [2], [-1]),
        ],
        ids=["two-strings", "single-spike", "monotone-ramp", "all-zero", "plateau", "valley",
             "signed"],
    )
    def test_levels_by_hand(self, seq, maxima, minima):
        assert _string_levels(seq) == (maxima, minima)
        assert 2 * (sum(maxima) - sum(minima)) == _zero_extended_variation(seq)

    def test_random_sequences_match_neighbour_sum(self):
        rng = random.Random(17)
        for _ in range(2000):
            seq = [Q(rng.randint(-2, 4), rng.randint(1, 3)) for _ in range(rng.randint(0, 12))]
            maxima, minima = _string_levels(seq)
            assert 2 * (sum(maxima, Q(0)) - sum(minima, Q(0))) == _zero_extended_variation(seq)
            # strict extrema alternate along the runs
            assert abs(len(maxima) - len(minima)) <= 1


class TestStringsOnMaximalFunctions:
    def test_decomposition_reconciles_with_truncated_variation(self):
        # the string identity of Bober-Carneiro-Hughes-Pierce: the variation
        # of the zero-extended line is 2 * (sum of maxima - sum of minima),
        # and it exceeds the in-window variation by the two boundary jumps
        rng = random.Random(41)
        spec = BallSpec("uncentered1d", 1)
        for _ in range(10):
            f = _random_f(1, rng)
            R = f.support_radius() + rng.randint(4, 12)
            values = evaluate_on_box(f, spec, ((-R,), (R,)))
            seq = [values[(t,)] for t in range(-R, R + 1)]
            maxima, minima = _string_levels(seq)
            window_var = sum((abs(b - a) for a, b in zip(seq, seq[1:])), Q(0))
            assert 2 * (sum(maxima, Q(0)) - sum(minima, Q(0))) == window_var + seq[0] + seq[-1]
            assert truncated_variation_maxfn(f, spec, R) == window_var
            # at least one maxima string, the highest at the maximum of Mf
            assert maxima
            assert max(maxima) == max(seq)


class TestLineCapTotals:
    @pytest.mark.parametrize("d", [2, 3])
    def test_l1_totals_match_series_terms(self, d):
        k_max = 40 if d == 2 else 12
        totals = delta_line_cap_totals("l1", d, k_max)
        assert totals[0] == (d, Q(2 * d))
        for k in range(1, k_max + 1):
            count, total = totals[k]
            assert count == d * l1_shell_count(d - 1, k)
            assert total == constants.centered_term(d, k)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cube_totals_match_series_terms(self, d):
        k_max = 40 if d <= 2 else 12
        totals = delta_line_cap_totals("cube", d, k_max)
        assert totals[0] == (d, Q(2 * d))
        for k in range(1, k_max + 1):
            if d == 1:
                assert k not in totals
                continue
            count, total = totals[k]
            assert count == d * ((2 * k + 1) ** (d - 1) - (2 * k - 1) ** (d - 1))
            assert total == constants.uncentered_term(d, k)

    def test_cumulative_totals_are_partial_sums(self):
        for K in (1, 5, 20):
            totals = delta_line_cap_totals("l1", 2, K)
            assert sum(t for _, t in totals.values()) == (
                constants.centered_constant_partial(2, K)
            )
            totals = delta_line_cap_totals("cube", 2, K)
            assert sum(t for _, t in totals.values()) == (
                constants.uncentered_constant_partial(2, K)
            )
