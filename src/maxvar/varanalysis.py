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
at p peaks at the line's point nearest to p (`LatticeLine.nearest`) and
decreases towards 0 both ways, so the line's full variation, its cap, is
twice the `maxop` closed form there.  Summed per distance from p, the caps
are the sharp constants' series terms (`delta_line_cap_totals`): the
paper's line decomposition.

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

One driver, `_sweep`, walks the lines of each axis in chunks and asks an
evaluator for integer arrays (num, den) with Mf = num / (scale * den).  Each
line is reduced to its monotone-run boundaries:
sum_t |v(t+1) - v(t)| = sum_t (s_{t-1} - s_t) v(t), with s_t the exact sign
of v(t+1) - v(t) found by cross-multiplication, so only local extrema and
line ends contribute.  Per chunk, the nonzero terms join one running pair
of arrays (denominators, totals), and one stable sort and one
`np.add.reduceat` total them per denominator again, so no chunk's terms
outlive it.  Totals stay int64 while a checked bound keeps them below 2^63
and become Python ints otherwise; at the end one integer pair (total,
scale * den) per distinct denominator reaches `exact.tree_sum`, the lcm
pair tree, once per sweep.

Two evaluators feed the driver, chosen from the input alone, before either
is built.  The vectorised one forms all candidates of the `maxop` kernels
as integer arrays stacked along a leading candidate axis -- per closed
support subset for cube at every d, per support point for l1 at d = 2 (the
mass within its distance, from one broadcast comparison of the distances,
over the ball count at that distance) -- and `_best` reduces that axis by
an adjacent-pair tournament of cross-multiplications; each point keeps the
lowest-index maximum, as a sequential scan would.  Its arrays are int64
while `_grid_products_fit_int64` keeps every product exact, and object
arrays of Python ints otherwise.  It takes every cube input, at any support
size, and every l1 input at d = 2 whose s^2 distance comparisons per point
leave room for a block of two stops in `_CHUNK_CELLS`.  Every other l1
input takes each distinct point's value from `maxop.maximal_value` once
(the faster evaluator past about 100 support points), as object arrays
with scale 1.  The lemma is a statement about the values of Mf, not about
how they are computed, so the compression is exact for both evaluators.

Cost: d (2R+1)^(d-1) lines of at most span + 2 points each (`sweep_points`),
span being the support's extent along the line's axis, times C candidates
per point and about 2C int64 products in the tournament; the (2R+1)^d box
is never formed.  No array of a chunk exceeds max(`_CHUNK_CELLS`, 2C) cells
summed over the candidate axis: a line longer than that is cut into blocks
of at least two stops, each sharing its first stop with the previous
block's last, and the blocks' run-boundary variations add up to the line's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import chain, product
from math import prod

import numpy as np

from . import constants, lattice, maxop
from .exact import tree_sum
from .gridfn import GridFunction
from .lattice import Box, LatticePoint
from .maxop import BallSpec

#: cells per array of a chunk, summed over the candidate axis (s^2 distance
#: comparisons per point for l1), unless two stops need more: 512 KiB of int64
_CHUNK_CELLS = 2**16


# ---------------------------------------------------------------------------
# Truncated variation
# ---------------------------------------------------------------------------

def truncated_variation_maxfn(f: GridFunction, spec: BallSpec, R: int) -> Fraction:
    """Exact variation of the maximal function over the box [-R, R]^d.

    Sums |difference| over all axis-parallel edges with both endpoints in
    the box.  Requires R to cover the support so that the monotone-tail
    compression of the module docstring applies.
    """
    if spec.dim != f.dim:
        raise ValueError("spec dimension does not match function dimension")
    stops = [list(chain(*parts)) for parts in _stops(f, R)]
    if not f:
        return Fraction(0)
    if spec.centered and (f.dim != 2 or len(f.support) ** 2 > _CHUNK_CELLS // 2):
        return _sweep(_exact_values(f, spec), 1, 1, R, stops)
    fits = _grid_products_fit_int64(f, spec.centered, R)
    return _sweep(*_vectorised_values(f, spec.centered, np.int64 if fits else object), R, stops)


def sweep_points(f: GridFunction, R: int) -> int:
    """Distinct points `truncated_variation_maxfn` evaluates at radius R,
    counted without forming them: per axis, (2R+1)^(d-1) lines at its
    stops.  A line cut into blocks evaluates the stops its blocks share
    twice; those repeats are not counted."""
    return sum((2 * R + 1) ** (f.dim - 1) * sum(map(len, parts)) for parts in _stops(f, R))


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


def _grid_products_fit_int64(f: GridFunction, centered: bool, R: int) -> bool:
    """Cross-multiplied comparisons must stay exact in int64.

    The largest numerator is the scaled total mass, the largest denominator
    the largest ball (`centered`) or box count reachable inside the sweep;
    their product is the biggest value formed.  Otherwise the evaluator
    runs on object arrays.  Either bound is one closed form, O(1) at any R.
    """
    masses, _ = f.integer_masses()
    span, d = f.support_radius(), f.dim
    box = (2 * R + 2 * span + 2) ** d
    max_den = lattice.l1_ball_count(d, d * (R + span) + 2) if centered else box
    return sum(masses) * max_den < 2**62


def _sweep(values, width: int, scale: int, R: int, stops: list[list[int]]) -> Fraction:
    """Line sweep reduced exactly per denominator.

    The lines of each axis are evaluated in chunks, one row per stop of a
    block of `block` stops, consecutive blocks sharing one stop, and one
    column per line, so inner loops run along lines: `values` maps the d
    coordinate arrays of a chunk, which broadcast to (stops, lines), to
    integer arrays (num, den) with Mf = num / (scale * den).  `width` is
    the number of array cells the evaluator forms per point, which sizes
    the blocks and chunks.
    """
    d = len(stops)
    lines = (2 * R + 1) ** (d - 1)
    # the other d - 1 coordinates of every line of an axis, one column per line
    rests = np.indices((2 * R + 1,) * (d - 1)).reshape(d - 1, lines) - R
    dens = totals = np.zeros(0, dtype=np.int64)
    for axis, ts in enumerate(stops):
        block = max(2, min(len(ts), _CHUNK_CELLS // width))
        batch = max(1, _CHUNK_CELLS // (block * width))
        for b0 in range(0, max(len(ts) - 1, 1), block - 1):
            t = np.array(ts[b0 : b0 + block], dtype=np.int64)[:, None]
            for l0 in range(0, lines, batch):
                coords = [c[None, l0 : l0 + batch] for c in rests]
                coords.insert(axis, t)
                dens, totals = _add_run_boundaries(*values(coords), dens, totals)
    return tree_sum((n, dd * scale) for n, dd in zip(totals.tolist(), dens.tolist()) if n)


def _add_run_boundaries(num, den, dens, totals):
    """Merge each column's run-boundary terms coef_t * num_t into the
    running per-denominator totals (dens, totals), sorted by denominator.

    The variation of a column of values v(t) = num_t / (scale * den_t) is
    sum_t coef_t * v(t) with coef_t = s_{t-1} - s_t and s_t the exact sign
    of v(t+1) - v(t), compared by cross-multiplication; coefficients vanish
    away from monotone-run boundaries.  The nonzero terms join the running
    pair and are totalled per denominator by one stable sort and one
    grouped reduction.  Works alike on int64 arrays, where
    |coef_t * num_t| <= 2 max(num) cannot overflow while
    `_grid_products_fit_int64` holds, and on object arrays of Python ints;
    totals move to Python ints once their checked bound reaches 2^63.
    """
    sign = np.sign(num[1:] * den[:-1] - num[:-1] * den[1:])
    coef = np.zeros(num.shape, dtype=sign.dtype)
    coef[1:] += sign
    coef[:-1] -= sign
    hit = coef != 0
    terms = coef[hit] * num[hit]
    if not terms.size:
        return dens, totals
    # no total grows by more than the sum of the new terms' sizes
    if terms.dtype != object and (
            int(abs(totals).max(initial=0)) + int(abs(terms).max()) * terms.size >= 2**63):
        terms = terms.astype(object)
    dens = np.concatenate((dens, den[hit]))
    order = np.argsort(dens, kind="stable")
    dens, terms = dens[order], np.concatenate((totals, terms))[order]
    starts = np.flatnonzero(np.concatenate(([True], dens[1:] != dens[:-1])))
    return dens[starts], np.add.reduceat(terms, starts)


def _exact_values(f: GridFunction, spec: BallSpec):
    """Evaluator of exact values: object arrays of the numerators and
    denominators of `maxop.maximal_value`, once per distinct point."""
    pairs = np.frompyfunc(
        cache(lambda *point: maxop.maximal_value(f, spec, point).as_integer_ratio()), f.dim, 2
    )
    return lambda coords: pairs(*coords)


# -- vectorised evaluator ----------------------------------------------------

def _vectorised_values(f: GridFunction, centered: bool, dtype):
    """Evaluator of integer values (l1 at d = 2, cube at any d), with its
    width and scale.

    The candidates at the points of a chunk are (num, den) arrays of `dtype`
    (int64, or object for Python ints) stacked along a leading axis, num
    possibly broadcasting along the point axes; Mf is the largest
    num / (scale * den), which `_best` picks.  `width` is the widest array's
    cells per point.  Columns are formed once per sweep.
    """
    masses, scale = f.integer_masses()
    if centered:
        px, py = np.array(f.support, dtype=np.int64).T[:, :, None, None]
        candidates = partial(_l1_candidates_2d, px, py, np.array(masses, dtype=dtype))
        width = len(masses) ** 2
    else:
        d = f.dim
        closures = maxop.hull_closures(f.support, tuple(masses))
        mass, lower, upper = zip(*closures)
        columns = np.array([mass, *zip(*lower), *zip(*upper)], dtype=dtype)[:, :, None, None]
        columns.flags.writeable = False  # shared by every chunk of the sweep
        # e_j (e_j - 1)^|T| prod_{i not in T, i != j} e_i per axis j and nonempty
        # subset T of the other axes, as (j, |T|, the other axes not in T)
        terms = [(j, sum(cut), [i for i, c in enumerate(cut) if i != j and not c])
                 for j in range(d) for cut in product((0, 1), repeat=d) if any(cut) and not cut[j]]
        rows = list(columns)  # row views formed once, not per chunk
        candidates = partial(_cube_candidates, terms, rows[0], rows[1 : d + 1], rows[d + 1 :])
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


def _l1_candidates_2d(px, py, masses, x, y):
    """Per support point p, stacked: the mass within k = |(x, y) - p|_1 of
    (x, y) over N(2, k) = 2k^2 + 2k + 1, the radii `maxop.centered_max_l1`
    scans, both in the dtype of `masses`."""
    dist = np.abs(x - px) + np.abs(y - py)
    # within[j, i]: support point i lies within distance dist[j]
    within = dist[None] <= dist[:, None]
    if masses.dtype == object:  # numpy 1.24 has no object einsum
        mass = (within * masses[:, None, None]).sum(axis=1)
    else:
        mass = np.einsum("ji...,i->j...", within, masses)
    k = dist.astype(masses.dtype, copy=False)
    return mass, 2 * k * (k + 1) + 1


def _cube_candidates(terms, mass, lower, upper, *coords):
    """Per closed support subset S of `maxop.hull_closures`, stacked: its
    mass over the least count of an admissible box around the hull of S and
    the point.  For hull extents e with M = max(e), that count is
    prod_i max(e_i, M - 1) = M^k (M - 1)^(d - k), k = #{i : e_i = M}.  No
    product in `terms` exceeds it, and the one with e_j = M and T the axes
    with e_i < M - 1 equals it (prod e does when T is empty), so it is their
    largest.  At d = 2 they are ab, a(a - 1) and b(b - 1): only ab is formed
    at full size, the others broadcast along the stops or the lines."""
    e = [np.maximum(hi, c) - np.minimum(lo, c) + 1 for lo, hi, c in zip(lower, upper, coords)]
    den = prod(e[1:], start=e[0])
    for j, k, kept in terms:
        np.maximum(den, prod([e[j] - 1] * k + [e[i] for i in kept], start=e[j]), out=den)
    return mass, den


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
    truncation_box: Box
    truncated_var: Fraction
    convergence_trace: tuple[tuple[int, Fraction], ...]
    theoretical_cap: Fraction
    cap_satisfied: bool
    stop_reason: str  # "converged" or "rmax"
    lower_bound_only: bool = True

    @property
    def truncation_radius(self) -> int:
        return self.truncation_box[1][0]


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
    nondecreasing.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    bound = constants.bound_for_geometry(spec.geometry, spec.dim, terms)
    cap = bound.upper * f.l1_norm()
    r = max(f.support_radius(), 1)
    r = min(r, r_max)
    trace: list[tuple[int, Fraction]] = []
    prev: Fraction | None = None
    var = Fraction(0)
    while True:
        var = truncated_variation_maxfn(f, spec, r)
        trace.append((r, var))
        if prev is not None and var - prev < epsilon:
            stop = "converged"
            break
        if r >= r_max:
            stop = "rmax"
            break
        prev = var
        r = min(2 * r, r_max)
    box = ((-r,) * f.dim, (r,) * f.dim)
    return VariationReport(
        spec, box, var, tuple(trace), cap, var <= cap, stop
    )


# ---------------------------------------------------------------------------
# Per-line contribution caps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeLine:
    """Axis-parallel lattice line: {through + t * e_axis : t in Z}."""

    axis: int
    through: LatticePoint

    def __post_init__(self) -> None:
        if not 0 <= self.axis < len(self.through):
            raise ValueError("axis out of range")

    def nearest(self, p: LatticePoint) -> LatticePoint:
        """The line's point nearest to p: `through` with p's `axis` coordinate."""
        return tuple(p[i] if i == self.axis else c for i, c in enumerate(self.through))


def line_contribution_cap_l1(p: LatticePoint, line: LatticeLine) -> Fraction:
    """Largest possible share of one unit of mass at p in the variation of the
    cross-polytope maximal function along `line`: twice its value at the
    line's point nearest to p, 2 / N(d, dist_l1(line, p))."""
    return 2 * maxop.delta_centered_l1_closed_form(p, line.nearest(p))


def line_contribution_cap_cube(p: LatticePoint, line: LatticeLine) -> Fraction:
    """Cube analogue: twice the unit mass's value at the line's point n
    nearest to p, 2 / prod_i max(|n_i - p_i| + 1, k) with k = |n - p|_inf."""
    return 2 * maxop.delta_uncentered_cube_closed_form(p, line.nearest(p))


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
        cap, norm = line_contribution_cap_l1, sum
        bases = lattice.l1_ball_points(d - 1, k_max) if d > 1 else [()]
    elif geometry == "cube":
        cap, norm = line_contribution_cap_cube, max
        bases = product(range(-k_max, k_max + 1), repeat=d - 1)
    else:
        raise ValueError("geometry must be 'l1' or 'cube'")
    origin = (0,) * d
    totals: dict[int, tuple[int, Fraction]] = {}
    for base in bases:
        k = norm((0, *map(abs, base)))  # the 0 is the distance at d = 1, whose base is ()
        cnt, tot = totals.get(k, (0, Fraction(0)))
        totals[k] = (cnt + d, tot + d * cap(origin, LatticeLine(d - 1, base + (0,))))
    return totals
