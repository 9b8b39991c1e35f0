"""Oracle self-checks and fast-path certification at module-test scale.

The full 100-instance-per-geometry battery lives in the acceptance suite;
here the oracles are exercised on their documented examples, their cap
stability, and a smaller randomized agreement run.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxvar import oracle
from maxvar.gridfn import GridFunction
from maxvar.maxop import (
    centered_max_1d,
    centered_max_l1,
    uncentered_max_1d,
    uncentered_max_cube,
)

Q = Fraction


def test_brute_centered_1d_examples():
    d0 = GridFunction.delta(0)
    w = oracle.brute_centered_1d(d0, 3, 10)
    assert w.value == Q(1, 7) and w.radius == 3
    assert oracle.brute_centered_1d(d0, 0, 0).value == 1
    w = oracle.brute_centered_1d(GridFunction(1, {(0,): 1, (6,): 1}), 3, 10)
    assert w.value == Q(2, 7)


def test_brute_centered_1d_cap_too_small():
    with pytest.raises(ValueError):
        oracle.brute_centered_1d(GridFunction.delta(5), 0, 2)


def test_brute_uncentered_cube_examples():
    d00 = GridFunction.delta((0, 0))
    assert oracle.brute_uncentered_cube(d00, (1, 1), 6).value == Q(1, 4)
    assert oracle.brute_uncentered_cube(d00, (0, 0), 3).value == 1
    assert oracle.brute_uncentered_cube(GridFunction.delta(0), (5,), 8).value == Q(1, 6)


def test_brute_uncentered_cube_cap_too_small():
    with pytest.raises(ValueError):
        oracle.brute_uncentered_cube(GridFunction.delta((4, 0)), (0, 0), 3)


def test_brute_variation_examples():
    assert oracle.brute_variation({(0,): Q(1)}, ((-1,), (1,)), zero_extend=True) == 2
    const = {(i,): Q(1) for i in range(-1, 2)}
    assert oracle.brute_variation(const, ((-1,), (1,)), zero_extend=False) == 0
    assert (
        oracle.brute_variation({(0, 0): Q(1)}, ((-1, -1), (1, 1)), zero_extend=True)
        == 4
    )


def test_brute_variation_agrees_with_total_variation():
    from maxvar.gridfn import total_variation

    rng = random.Random(21)
    for _ in range(20):
        d = rng.choice((1, 2))
        vals = {}
        for _ in range(rng.randint(1, 5)):
            p = tuple(rng.randint(-4, 4) for _ in range(d))
            vals[p] = Q(rng.randint(-9, 9), rng.randint(1, 9))
        f = GridFunction(d, {p: v for p, v in vals.items() if v})
        if not f:
            continue
        box = f.support_box()
        assert (
            oracle.brute_variation(dict(f.items()), box, zero_extend=True)
            == total_variation(f)
        )


def _random_f(d, rng):
    vals = {}
    for _ in range(rng.randint(1, 4)):
        p = tuple(rng.randint(-6, 6) for _ in range(d))
        vals[p] = Q(rng.randint(1, 16), rng.randint(1, 16))
    return GridFunction(d, vals)


def test_cap_stability():
    """Enlarging the documented caps never changes the oracle output."""
    rng = random.Random(22)
    for _ in range(10):
        f1 = _random_f(1, rng)
        n = rng.randint(-6, 6)
        reach = max(abs(p[0] - n) for p in f1.support) + 1
        a = oracle.brute_centered_1d(f1, n, reach)
        b = oracle.brute_centered_1d(f1, n, 2 * reach)
        assert (a.value, a.region) == (b.value, b.region)
        a = oracle.brute_uncentered_1d(f1, n, reach)
        b = oracle.brute_uncentered_1d(f1, n, 2 * reach)
        assert (a.value, a.region) == (b.value, b.region)

        f2 = _random_f(2, rng)
        n2 = (rng.randint(-4, 4), rng.randint(-4, 4))
        bbox = f2.support_box()
        span = max(
            max(u, c) - min(l, c) + 1 for l, u, c in zip(bbox[0], bbox[1], n2)
        )
        a = oracle.brute_uncentered_cube(f2, n2, span)
        b = oracle.brute_uncentered_cube(f2, n2, span + 3)
        assert (a.value, a.region) == (b.value, b.region)


def test_fast_paths_with_doubled_pruning_bound():
    """Extending the centered sweep beyond r* never changes the result."""
    rng = random.Random(23)
    for _ in range(15):
        f = _random_f(1, rng)
        n = rng.randint(-8, 8)
        r_star = max(abs(p[0] - n) for p in f.support)
        fast = centered_max_1d(f, n)
        slow = oracle.brute_centered_1d(f, n, 2 * r_star + 3)
        assert (fast.value, fast.region) == (slow.value, slow.region)


def test_randomized_agreement_all_geometries():
    rng = random.Random(24)
    for _ in range(15):
        f1 = _random_f(1, rng)
        n = rng.randint(-8, 8)
        reach = max(abs(p[0] - n) for p in f1.support) + 2
        fw, ow = centered_max_1d(f1, n), oracle.brute_centered_1d(f1, n, reach)
        assert (fw.value, fw.region) == (ow.value, ow.region)
        fw, ow = uncentered_max_1d(f1, n), oracle.brute_uncentered_1d(f1, n, reach)
        assert (fw.value, fw.region) == (ow.value, ow.region)

        f2 = _random_f(2, rng)
        n2 = (rng.randint(-7, 7), rng.randint(-7, 7))
        reach = max(
            sum(abs(a - b) for a, b in zip(p, n2)) for p in f2.support
        ) + 2
        fw, ow = centered_max_l1(f2, n2), oracle.brute_centered_l1(f2, n2, reach)
        assert (fw.value, fw.region) == (ow.value, ow.region)
        bbox = f2.support_box()
        span = (
            max(max(u, c) - min(l, c) + 1 for l, u, c in zip(bbox[0], bbox[1], n2))
            + 1
        )
        fw, ow = uncentered_max_cube(f2, n2), oracle.brute_uncentered_cube(
            f2, n2, span
        )
        assert (fw.value, fw.region) == (ow.value, ow.region)


_signed = st.tuples(st.integers(1, 9), st.integers(1, 9), st.booleans()).map(
    lambda t: Q(t[0], t[1]) * (-1 if t[2] else 1)
)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.dictionaries(st.integers(-6, 6), _signed, max_size=6), st.integers(-8, 8))
def test_d_dimensional_oracles_match_interval_oracles_at_d1(values, n):
    """At d = 1 a cube trace is an interval and an l1 ball a window, so the
    d-dimensional oracles must return the interval oracles' witnesses."""
    f = GridFunction(1, {(x,): v for x, v in values.items()})
    hull = [n, *values]
    reach = max(abs(x - n) for x in hull) + 2
    span = max(hull) - min(hull) + 2
    for slow, literal in [
        (oracle.brute_uncentered_cube(f, (n,), span), oracle.brute_uncentered_1d(f, n, reach)),
        (oracle.brute_centered_l1(f, (n,), reach), oracle.brute_centered_1d(f, n, reach)),
    ]:
        assert (slow.value, slow.count, slow.region) == (literal.value, literal.count, literal.region)
