"""Truncated total variation of maximal functions and per-line caps.

Maximal functions of nonzero finitely supported inputs are supported on all
of Z^d, so their variation can only be measured on truncations.  Every
omitted edge contributes a nonnegative amount, which makes each truncated
value a certified lower bound of the true variation; a certified upper bound
for general inputs is deliberately not offered (per-line tails are not
bounded here), and reports say so.  For unit deltas the pointwise closed
forms give two-sided control: `delta_variation_closed_form` evaluates the
truncated variation exactly and converges to the sharp constants.

Line caps.  Along an axis-parallel line the maximal function of a unit mass
at p peaks at the line's point nearest to p (p's coordinate on the line's
axis, the line's own coordinates on the others) and decreases towards 0
both ways.  So a line's cap, its full variation, is twice `maxop`'s closed
form (`delta_centered_l1_closed_form`, `delta_uncentered_cube_closed_form`)
at that point.  Summed per distance from p, the caps are the sharp
constants' series terms (`delta_line_cap_totals`): the paper's line
decomposition.

Monotone-tail lemma.  Fix an axis i and a line {base + t e_i}, and let
[lo, hi] be the projection of the support onto axis i.  Then
t -> Mf(base + t e_i) is nondecreasing for t <= lo and nonincreasing for
t >= hi, in every geometry.  Take a step away from the support, from t to
t - 1 with t <= lo (the other side is symmetric):

* l1 (centered1d is its d = 1 case): Mf is the best of mass(S_k) / N(d, k)
  over the distances k from the query point to the support, S_k being the
  support points within distance k.  Every support point lies on the far
  side, so every distance grows by exactly 1 and their order is kept: each
  candidate keeps its mass set and its count grows.
* cube (uncentered1d is its d = 1 case): Mf is the best of mass(S) / q_S
  over the closed support subsets S (those holding every support point of
  their own hull, `maxop.hull_closures`), q_S being the least count of an
  admissible box around the hull of S and the query point.  The closed
  subsets do not depend on the query point.  Exactly one hull extent, e_i,
  grows by 1; the per-axis counts max(e_j, max(e) - 1) are nondecreasing in
  every extent, so every q_S is nondecreasing.

Either way no candidate increases, so neither does their maximum.  The edges
of a line inside [-R, lo] therefore telescope to Mf(lo) - Mf(-R), those
inside [hi, R] to Mf(hi) - Mf(R), and the line's exact truncated variation
is that of its compressed sequence at t in {-R} + [lo..hi] + {R}.

All radii from one sweep.  So at each radius r covering the support, a
line l whose base b (its other coordinates) has |b|_inf <= r varies by
A(l) - Mf(l, -r) - Mf(l, r), with A(l) = (its variation on [lo, hi]) +
Mf(l, lo) + Mf(l, hi) free of r.  For radii r_0 < ... < r_J covering the
support, call the least j with |b|_inf <= r_j the shell of l; then
T(r_j) = sum_{s <= j} W_s - P_j, with W_s the variation at r_J plus the
ends Mf(l, +-r_J) of the lines of shell s, and P_j the ends Mf(l, +-r_j) of
the lines within r_j.  So one sweep at r_J tags each line's run-boundary
terms and ends with its shell, and its ends again with P_J's tag; the
smaller radii's ends are one flat point list per axis, in batches of at
most `_CHUNK_CELLS` // width points.  Keyed den * 2(J+1) + tag, the totals
form a table per denominator and tag, summed over the shells per radius.
With one radius the keys are the denominators and nothing is tagged.

Reach rule.  For radii r < r' covering the support and a line l0 within r,
T(r') - T(r) >= Mf(l0, -r) - Mf(l0, -r') + Mf(l0, r) - Mf(l0, r'): by the
identity, the gain sums such end differences over the lines within r and
the variations of the lines new at r', all >= 0 by the lemma.

One driver, `_sweep`, walks the lines of each axis in chunks and asks an
evaluator for integer arrays (num, den) with Mf = num / (scale * den).  Each
line is reduced to its monotone-run boundaries:
sum_t |v(t+1) - v(t)| = sum_t (s_{t-1} - s_t) v(t), with s_t the exact sign
of v(t+1) - v(t) found by cross-multiplication, so only local extrema and
line ends contribute.  Per chunk, the nonzero terms join one running pair
of arrays (keys, totals), and one stable sort and one `np.add.reduceat`
total them per key again, so no chunk's terms outlive it.  A centered
sweep at d >= 2 places each total at its k in N(d, 0), N(d, 1), ... by
`np.searchsorted` (a denominator that is no ball count raises) and sums
them in `_count_tree`'s `exact.PairTree`, which replays earlier sweeps'
joins; others give (total, scale * den) to `tree_sum`.

One integer width serves the whole sweep, decided by `_fits_int64` before
either evaluator is built: int64 where every integer provably stays below
2^63, object arrays of Python ints otherwise.  Let M be the scaled total
mass and max_den the largest ball or box count in the sweep.  A numerator
is at most M, a cross-multiplied product at most M max_den, a term at most
2M.  A sweep evaluates at most 2 points cells (points = `sweep_points`, plus
the smaller radii's ends), since a line cut into blocks repeats one stop per
block, so no total or partial sum of totals passes 4M points.  The bound
M max(max_den, 2 points) < 2^62 keeps all below 2^63, and so do the keys
of J + 1 radii with max_den 2(J+1) < 2^63 (M >= 1 gives it at J = 0).

Two evaluators feed the driver, chosen from the input alone, before either
is built.  The vectorised one forms all candidates of the `maxop` kernels
as integer arrays stacked along a leading candidate axis -- per closed
support subset for cube at every d, per support point for l1 at d = 2 (the
mass within its distance, from one broadcast comparison of the distances,
over the ball count at that distance) -- and `_best` reduces that axis by
an adjacent-pair tournament of cross-multiplications; each point keeps the
lowest-index maximum, as a sequential scan would.  It takes every cube
input, at any support size, and every l1 input at d = 2 of at most
`_L1_GRID_POINTS` = 72 points (the two evaluators cross between 64 and 80).
Every other l1 input takes each distinct point's unreduced (mass, count)
from one `maxop.integer_core` per sweep, in the sweep's width.  The lemma
is a statement about the values of Mf, not about how they are computed, so
the compression is exact for both evaluators.

Cost: d (2R+1)^(d-1) lines of at most span + 2 points each (`sweep_points`),
span being the support's extent along the line's axis, and 2d (2r+1)^(d-1)
ends per smaller radius r, times C candidates per point and about 2C int64
products in the tournament; the (2R+1)^d box is never formed.  No chunk
array exceeds max(`_CHUNK_CELLS`, 2C) cells summed over the candidate axis:
longer lines are cut into blocks of at least two stops, each sharing its
first stop with the previous one's last, whose variations add up to the line's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate, chain, product

import numpy as np

from . import constants, lattice, maxop
from .exact import PairTree, tree_sum
from .gridfn import GridFunction
from .maxop import BallSpec

#: cells per array of a chunk, summed over the candidate axis (s^2 distance
#: comparisons per point for l1), unless two stops need more: 512 KiB of int64
_CHUNK_CELLS = 2**16
#: 2-D l1 supports past this many points take the exact evaluator, the faster one
_L1_GRID_POINTS = 72
#: N(d, k) for arrays of radii, which the cache of `lattice.l1_ball_count` cannot hash
_ball_counts = lattice.l1_ball_count.__wrapped__
_count_trees: dict[int, tuple[PairTree, np.ndarray]] = {}  # d -> what `_count_tree` keeps


# ---------------------------------------------------------------------------
# Truncated variation
# ---------------------------------------------------------------------------

def truncated_variation_maxfn(f: GridFunction, spec: BallSpec, R: int) -> Fraction:
    """Exact variation of the maximal function over the box [-R, R]^d.

    Sums |difference| over all axis-parallel edges with both endpoints in
    the box.  Requires R to cover the support so that the monotone-tail
    compression of the module docstring applies.
    """
    return _truncated_variations(f, spec, [R])[0]


def _truncated_variations(f: GridFunction, spec: BallSpec, radii: list[int]) -> list[Fraction]:
    """`truncated_variation_maxfn` at each of the increasing `radii`, from one sweep at the last."""
    if spec.dim != f.dim:
        raise ValueError("spec dimension does not match function dimension")
    R, d = radii[-1], f.dim
    stops = _stops(f, R)
    if not f:
        return [Fraction(0)] * len(radii)
    points = _points(stops, R) + sum(2 * d * (2 * r + 1) ** (d - 1) for r in radii[:-1])
    counts = _count_tree(d, d * (R + f.support_radius())) if spec.centered and d > 1 else None
    return _sweep(*_evaluator(f, spec, R, points, len(radii), counts), radii, [list(chain(*p)) for p in stops], counts)


def _evaluator(f: GridFunction, spec: BallSpec, R: int, points: int, radii: int, counts=None):
    """(values, width, scale) for nonzero f at `points` points over `radii` radii up to R: the
    module docstring's one width check and evaluator choice, l1 vectorised only given `counts`."""
    normalised = f.integer_masses()  # one normalisation for the width and the evaluator
    dtype = np.int64 if _fits_int64(f, normalised[0], spec.centered, R, points, radii) else object
    if spec.centered and (counts is None or f.dim != 2 or len(f.support) > _L1_GRID_POINTS):
        return _exact_values(f, spec, dtype, normalised)
    return _vectorised_values(f, counts, dtype, normalised)


def sweep_points(f: GridFunction, R: int) -> int:
    """Distinct points `truncated_variation_maxfn` evaluates at radius R,
    counted without forming them: per axis, (2R+1)^(d-1) lines at its
    stops.  A line cut into blocks evaluates the stops its blocks share
    twice; those repeats are not counted."""
    return _points(_stops(f, R), R)


def _points(stops: list[tuple[range, range, range]], R: int) -> int:
    return sum((2 * R + 1) ** (len(stops) - 1) * sum(map(len, parts)) for parts in stops)


def _stops(f: GridFunction, R: int) -> list[tuple[range, range, range]]:
    """Per axis, the stops of a line at radius R in increasing order: the
    line ends -R and R, and the support's projection [lo..hi] between them,
    where Mf may turn.  Kept as ranges, so they can be counted unformed."""
    if R < f.support_radius():
        raise ValueError(
            f"truncation radius {R} smaller than support radius {f.support_radius()}"
        )
    if not f:
        return []
    return [
        (range(-R, lo)[:1], range(lo, hi + 1), range(hi + 1, R + 1)[-1:])
        for lo, hi in zip(*f.support_box())
    ]


def _fits_int64(f: GridFunction, masses: list[int], centered: bool, R: int, points: int, radii=1) -> bool:
    """Every integer of a sweep of f's `masses` at `points` points over
    `radii` radii stays exact in int64: the one width check of the module
    docstring, O(1) at any R.  d^2 times the largest count bounds forming one."""
    span, d = f.support_radius(), f.dim
    box = (2 * R + 2 * span + 2) ** d
    max_den = lattice.l1_ball_count(d, d * (R + span) + 2) if centered else box
    return sum(masses) * max(max_den, 2 * points) < 2**62 and max_den * max(d * d, 2 * radii) < 2**63


def _count_tree(d: int, kmax: int) -> tuple[PairTree, np.ndarray]:
    """N(d, 0..K) for a K >= kmax, as the dimension's kept pair tree and as an
    array, int64 while d^2 N(d, K) fits (`_ball_counts` is exact there)."""
    tree, table = _count_trees.get(d) or (PairTree(), np.zeros(0, dtype=np.int64))
    if len(table) <= kmax:
        dtype = np.int64 if d * d * lattice.l1_ball_count(d, kmax) < 2**63 else object
        table = np.concatenate((table, _ball_counts(d, np.arange(len(table), kmax + 1, dtype=dtype))))
        tree.leaves += table[len(tree.leaves) :].tolist()
        _count_trees[d] = tree, table
    return tree, table


def _sweep(values, width: int, scale: int, radii: list[int], stops: list[list[int]], counts=None) -> list[Fraction]:
    """Line sweep at the last of the increasing `radii`: the variation at each.

    The lines of each axis are evaluated in chunks, one row per stop of a
    block of `block` stops, consecutive blocks sharing one stop, and one
    column per line, so inner loops run along lines: `values` maps the d
    coordinate arrays of a chunk, which broadcast to (stops, lines), to
    integer arrays (num, den) with Mf = num / (scale * den).  `width` is
    the number of array cells the evaluator forms per point, which sizes
    the blocks and chunks.  `counts` is `_count_tree(d, k)` for centered d >= 2.
    """
    d, R, J = len(stops), radii[-1], len(radii)
    lines, tags = (2 * R + 1) ** (d - 1), 2 * J if J > 1 else 1
    # the other d - 1 coordinates of every line of an axis, one column per line
    rests = np.indices((2 * R + 1,) * (d - 1)).reshape(d - 1, lines) - R
    keys = totals = np.zeros(0, dtype=np.int64)
    for axis, ts in enumerate(stops):
        block = max(2, min(len(ts), _CHUNK_CELLS // width))
        batch = max(1, _CHUNK_CELLS // (block * width))
        for b0 in range(0, max(len(ts) - 1, 1), block - 1):
            t = np.array(ts[b0 : b0 + block], dtype=np.int64)[:, None]
            ends = [0] * (b0 == 0) + [-1] * (b0 + block >= len(ts))  # rows at -R and R
            for l0 in range(0, lines, batch):
                coords = [c[None, l0 : l0 + batch] for c in rests]
                coords.insert(axis, t)
                # for J > 1 radii, each line's shell: the first radius its base lies within
                shells = np.searchsorted(radii, abs(rests[:, l0 : l0 + batch]).max(axis=0, initial=0)) if J > 1 else None
                tagged = None if shells is None else (tags, shells[None], ends)
                keys, totals = _add_run_boundaries(*values(coords), keys, totals, tagged)
    columns = totals[None]  # per radius, its totals per denominator
    if J > 1:  # the ends -r, r of the lines within each smaller r, bases formed per batch from a flat index
        first = list(accumulate(((2 * r + 1) ** (d - 1) for r in radii[:-1]), initial=0))
        per = max(1, _CHUNK_CELLS // (2 * width))
        for g0 in range(0, first[-1], per):
            g = np.arange(g0, min(g0 + per, first[-1]), dtype=np.int64)
            j = np.searchsorted(first[1:], g, side="right")
            r, q = np.take(radii, j), g - np.take(first, j)
            rest = [q // (2 * r + 1) ** i % (2 * r + 1) - r for i in range(d - 1)]
            for axis in range(d):
                num, den = values([c[None] for c in rest[:axis]] + [np.stack((-r, r))] + [c[None] for c in rest[axis:]])
                keys, totals = _merge(keys, totals, (den * tags + (J + j)).ravel(), num.ravel())
        # then the table of totals per denominator and tag, summed over the shells per radius
        tag, keys = (keys % tags).astype(np.int64), keys // tags
        new = np.concatenate(([True], keys[1:] != keys[:-1]))
        table = np.zeros((new.sum(), tags), dtype=totals.dtype)
        table[np.cumsum(new) - 1, tag] = totals
        keys, columns = keys[new], (np.cumsum(table[:, :J], axis=1) - table[:, J:]).T
    if counts is None:
        return [tree_sum((n, dd * scale) for n, dd in zip(col, keys.tolist()) if n) for col in columns.tolist()]
    ks = np.searchsorted(counts[1], keys)
    if not np.array_equal(counts[1].take(ks, mode="clip"), keys):
        raise ArithmeticError("a centered sweep reached a denominator that is not an l1 ball count")
    nums = np.zeros((J, ks[-1] + 1 if ks.size else 0), dtype=totals.dtype)
    nums[:, ks] = columns
    sums = []
    for row in nums.tolist():
        while row and not row[-1]:  # a smaller radius sums only its own counts
            row.pop()
        sums.append(counts[0].sum(row, scale))
    return sums


def _add_run_boundaries(num, den, keys, totals, tagged=None):
    """Merge each column's run-boundary terms coef_t * num_t into the
    running per-key totals (keys, totals), sorted by key.

    The variation of a column of values v(t) = num_t / (scale * den_t) is
    sum_t coef_t * v(t) with coef_t = s_{t-1} - s_t and s_t the exact sign
    of v(t+1) - v(t), compared by cross-multiplication; coefficients vanish
    away from monotone-run boundaries.  Works alike on int64 arrays, which
    `_fits_int64` keeps exact, and on object arrays of Python ints.  Given
    `tagged` = (tags, shell, ends), keys are den * tags + shell, and the
    values at the rows `ends` join their shell and the last tag too.
    """
    sign = np.sign(num[1:] * den[:-1] - num[:-1] * den[1:])
    coef = np.zeros(num.shape, dtype=sign.dtype)
    coef[1:] += sign
    coef[:-1] -= sign
    if tagged is None:
        hit = coef != 0
        return _merge(keys, totals, den[hit], coef[hit] * num[hit])
    tags, shell, ends = tagged
    coef[ends] += 1
    hit = coef != 0
    den = den * tags + shell
    at = np.concatenate((den[hit], (den[ends] + (tags - 1 - shell)).ravel()))
    return _merge(keys, totals, at, np.concatenate((coef[hit] * num[hit], num[ends].ravel())))


def _merge(keys, totals, at, terms):
    """(keys, totals) with `terms` added at keys `at`, by one stable sort and one reduceat."""
    if not terms.size:
        return keys, totals
    keys = np.concatenate((keys, at))
    order = np.argsort(keys, kind="stable")
    keys, terms = keys[order], np.concatenate((totals, terms))[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(terms, starts)


def _exact_values(f: GridFunction, spec: BallSpec, dtype, normalised: tuple[list[int], int]):
    """Evaluator of exact (mass, count) pairs of f's `normalised` masses, once
    per distinct point, as arrays of `dtype`, with its width 1 and scale."""
    core, scale = maxop._integer_core(f, spec, *normalised)
    pairs = np.frompyfunc(cache(lambda *point: core(point)[:2]), f.dim, 2)
    return (lambda coords: np.asarray(pairs(*coords), dtype)), 1, scale


# -- vectorised evaluator ----------------------------------------------------

def _vectorised_values(f: GridFunction, counts, dtype, normalised: tuple[list[int], int]):
    """Evaluator of integer values (l1 at d = 2, given `counts` to the largest
    distance, cube at any d, given None), with its width and scale.

    The candidates at the points of a chunk are (num, den) arrays of `dtype`
    (int64, or object for Python ints) stacked along a leading axis, num
    possibly broadcasting along the point axes; Mf is the largest
    num / (scale * den), which `_best` picks.  `width` is the widest array's
    cells per point.  Columns are formed once per sweep.
    """
    masses, scale = normalised
    if counts is not None:
        px, py = np.array(f.support, dtype=np.int64).T[:, :, None, None]
        candidates = partial(_l1_candidates_2d, px, py, np.array(masses, dtype=dtype), counts[1])
        width = len(masses) ** 2
    else:
        d = f.dim
        closures = maxop.hull_closures(f.support, tuple(masses))
        mass, lower, upper = zip(*closures)
        columns = np.array([mass, *zip(*lower), *zip(*upper)], dtype=dtype)[:, :, None, None]
        columns.flags.writeable = False  # shared by every chunk of the sweep
        rows = list(columns)  # row views formed once, not per chunk
        candidates = partial(_cube_candidates, rows[0], rows[1 : d + 1], rows[d + 1 :])
        width = len(closures)
    return (lambda coords: _best(*candidates(*coords))), width, scale


def _best(num, den):
    """Largest num / den along the leading candidate axis, with its pair.

    Each round of the tournament plays candidate 2i against 2i + 1, keeping
    the later one only where it is strictly larger, and carries an odd last
    one up; every winner is the lowest-index maximum of a contiguous block,
    the pair a sequential scan keeps.  Winners go to the even slots of den,
    and of num once it is a full writeable array, so both are consumed; a
    read-only num is copied first.
    """
    while len(den) > 1:
        h = len(den) // 2
        better = num[1::2] * den[: 2 * h : 2] > num[: 2 * h : 2] * den[1::2]
        np.copyto(den[: 2 * h : 2], den[1::2], where=better)
        kept = num[::2]
        if kept.shape != den[::2].shape or not kept.flags.writeable:  # shared masses: copy once
            kept = np.array(np.broadcast_to(kept, den[::2].shape))
        np.copyto(kept[:h], num[1::2], where=better)
        num, den = kept, den[::2]
    return np.broadcast_to(num[0], den[0].shape), den[0]


def _l1_candidates_2d(px, py, masses, counts, x, y):
    """Per support point p, stacked: the mass within k = |(x, y) - p|_1 of
    (x, y) over N(2, k) = counts[k], the radii `maxop.centered_max_l1`
    scans, both in the dtype of `masses`."""
    dist = np.abs(x - px) + np.abs(y - py)
    # within[j, i]: support point i lies within distance dist[j]
    within = dist[None] <= dist[:, None]
    if masses.dtype == object:  # numpy 1.24 has no object einsum
        mass = (within * masses[:, None, None]).sum(axis=1)
    else:
        mass = np.einsum("ji...,i->j...", within, masses)
    return mass, counts[dist].astype(masses.dtype, copy=False)


def _cube_candidates(mass, lower, upper, *coords):
    """Per closed support subset S of `maxop.hull_closures`, stacked: its
    mass over `lattice.cube_count` of the extents of the hull of S and the
    point, the least count of an admissible box around both."""
    e = [np.maximum(hi, c) - np.minimum(lo, c) + 1 for lo, hi, c in zip(lower, upper, coords)]
    return mass, lattice.cube_count(e)


# ---------------------------------------------------------------------------
# Adaptive truncation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VariationReport:
    """Truncated variation with its convergence trace and theoretical cap.

    `truncated_var` is a certified lower bound of the true variation (all
    omitted edges contribute nonnegatively); no upper bound is claimed for
    general inputs.  `theoretical_cap` is enclosure-upper(constant) times
    ||f||_1, so `cap_satisfied` is a sound one-sided check.
    """

    operator: BallSpec
    truncation_radius: int
    truncated_var: Fraction
    convergence_trace: tuple[tuple[int, Fraction], ...]
    theoretical_cap: Fraction
    cap_satisfied: bool
    stop_reason: str  # "converged" or "rmax"


def adaptive_variation(
    f: GridFunction,
    spec: BallSpec,
    epsilon: Fraction | int | str,
    r_max: int = 4096,
    terms: int = 1000,
) -> VariationReport:
    """Double the truncation radius until the variation gain drops below epsilon.

    Starts at the support radius, doubles, and clamps the final step to
    r_max; hitting r_max is a flagged outcome, not an error.  The trace is
    nondecreasing.  Each batch of radii, from the next one to the first whose
    reach-rule bound (module docstring) is below epsilon or to r_max, is one
    sweep at its largest, its values tested in order as one sweep's per radius.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    bound = constants.bound_for_geometry(spec.geometry, spec.dim, terms)
    cap = bound.upper * f.l1_norm()
    radii = [min(max(f.support_radius(), 1), r_max)]
    while radii[-1] < r_max:
        radii.append(min(2 * radii[-1], r_max))
    ends = _line_ends(f, spec, radii) if f else [0] * len(radii)
    trace: list[tuple[int, Fraction]] = []
    stop = None
    while stop is None:
        k = len(trace)  # the batch: radii k..last, last the first step the loop may stop at
        last = next((i for i in range(max(k, 1), len(radii) - 1) if ends[i - 1] - ends[i] < epsilon), len(radii) - 1)
        for r, var in zip(radii[k:], _truncated_variations(f, spec, radii[k : last + 1])):
            stop = "converged" if trace and var - trace[-1][1] < epsilon else "rmax" if r >= r_max else None
            trace.append((r, var))
            if stop:
                break
    r, var = trace[-1]
    return VariationReport(spec, r, var, tuple(trace), cap, var <= cap, stop)


def _line_ends(f: GridFunction, spec: BallSpec, radii: list[int]) -> list[Fraction]:
    """Mf(-r, b) + Mf(r, b) per radius r on the axis-0 line through nonzero
    f's first support point, b its other coordinates, from one evaluator call:
    for centered inputs the exact one, which needs no count table up to r_max."""
    values, _, scale = _evaluator(f, spec, radii[-1], 2 * len(radii), len(radii))
    (lo, hi), (dlo, dhi) = (a.tolist() for a in values([np.array([[-r for r in radii], radii]), *f.support[0][1:]]))
    return [Fraction(a, scale * b) + Fraction(c, scale * e) for a, b, c, e in zip(lo, dlo, hi, dhi)]


# ---------------------------------------------------------------------------
# Closed-form delta sums
# ---------------------------------------------------------------------------

def delta_variation_closed_form(geometry: str, d: int, R: int) -> Fraction:
    """Truncated variation over [-R, R]^d of the maximal function of a unit
    delta at the origin, from the pointwise closed forms.

    Along every axis-parallel line the closed-form values are nonincreasing
    in the distance to the closest point of the line to the origin, so each
    line segment contributes exactly twice (peak minus boundary value).  The
    d directions contribute equally by symmetry.
    """
    if BallSpec(geometry, d).centered:
        value = maxop.delta_centered_l1_closed_form
    else:
        value = maxop.delta_uncentered_cube_closed_form
    if R < 0:
        raise ValueError("R must be >= 0")
    origin = (0,) * d
    terms = (
        (2 * (value(origin, base + (0,)) - value(origin, base + (R,)))).as_integer_ratio()
        for base in product(range(-R, R + 1), repeat=d - 1)
    )
    return d * tree_sum(terms)


def delta_line_cap_totals(
    geometry: str, d: int, k_max: int
) -> dict[int, tuple[int, Fraction]]:
    """Full-line delta contributions grouped by line distance.

    For a unit delta at the origin, the variation along a whole line at
    distance k is the line's cap.  Returns {k: (number of lines, summed
    caps)} over all d directions, for distances up to k_max; the k-th total
    is the k-th series term of the matching constant.
    """
    if geometry == "l1":
        value, norm = maxop.delta_centered_l1_closed_form, sum
        bases = lattice.l1_ball_points(d - 1, k_max) if d > 1 else [()]
    elif geometry == "cube":
        value, norm = maxop.delta_uncentered_cube_closed_form, max
        bases = product(range(-k_max, k_max + 1), repeat=d - 1)
    else:
        raise ValueError("geometry must be 'l1' or 'cube'")
    origin = (0,) * d
    totals: dict[int, tuple[int, Fraction]] = {}
    for base in bases:
        k = norm((0, *map(abs, base)))  # the 0 is the distance at d = 1, whose base is ()
        cnt, tot = totals.get(k, (0, Fraction(0)))
        # the line {base + t e_d} is nearest the origin at t = 0
        totals[k] = (cnt + d, tot + d * 2 * value(origin, base + (0,)))
    return totals
