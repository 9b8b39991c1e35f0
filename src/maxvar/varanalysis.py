"""Truncated total variation of maximal functions and per-line caps.

Maximal functions of nonzero finitely supported inputs are supported on all
of Z^d, so their variation can only be measured on truncations.  Every
omitted edge contributes a nonnegative amount, which makes each truncated
value a certified lower bound of the true variation; a certified upper bound
for general inputs is deliberately not offered (per-line tails are not
bounded here), and reports say so.  For unit deltas the pointwise closed
forms give two-sided control: `delta_variation_closed_form` evaluates the
truncated variation exactly and converges to the sharp constants.

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

Each compressed sequence is reduced to its monotone-run boundaries:
sum_t |v(t+1) - v(t)| = sum_t (s_{t-1} - s_t) v(t), with s_t the exact sign
of v(t+1) - v(t), so only local extrema and line ends reach the exact
rational sum.

Two evaluators produce the compressed values, chosen from the input.  At
d = 2, for l1 and cube supports of at most `_GRID_SUPPORT_LIMIT` points, a
vectorised kernel computes every candidate as an integer (numerator,
denominator) pair and compares them by cross-multiplication in int64, which
is exact while `_grid_products_fit_int64` holds.  Every other input (d = 1,
d >= 3, larger cube supports, products that could overflow) evaluates each
distinct compressed point once through the exact rational kernels of
`maxop`.  The lemma is a statement about the values of Mf, not about how they
are computed, so the compression is exact for both evaluators.

Cost: d (2R+1)^(d-1) lines of at most span + 2 points each, span being the
support's extent along the line's axis, times the per-point candidate work;
the (2R+1)^d box is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product

import numpy as np

from . import constants, lattice, maxop
from .exact import tree_sum
from .gridfn import GridFunction
from .lattice import Box, LatticePoint
from .maxop import BallSpec

#: largest support size routed through the vectorised path; the cube layers
#: are the closed subsets of `maxop.hull_closures`, at most 2^s - 1 of them
_GRID_SUPPORT_LIMIT = 8

#: int64 cells per candidate layer that one vectorised chunk of lines may hold
_CHUNK_CELLS = 4_000_000


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
    if R < f.support_radius():
        raise ValueError(
            f"truncation radius {R} smaller than support radius {f.support_radius()}"
        )
    if not f:
        return Fraction(0)
    # per axis: the line ends plus the support's projection, where Mf may turn
    stops = [sorted({-R, R, *range(lo, hi + 1)}) for lo, hi in zip(*f.support_box())]
    if f.dim == 2 and len(f.support) <= _GRID_SUPPORT_LIMIT and _grid_products_fit_int64(f, R):
        return _sweep_2d(f, spec.centered, R, stops)
    return _sweep_exact(f, spec, R, stops)


def _grid_products_fit_int64(f: GridFunction, R: int) -> bool:
    """Cross-multiplied comparisons must stay exact in int64.

    The largest numerator is the scaled total mass, the largest denominator
    the largest ball/box count reachable inside the sweep; their product is
    the biggest value formed.  Falls back to the exact evaluator otherwise.
    """
    masses, _ = f.integer_masses()
    max_num = sum(masses)
    span = f.support_radius()
    max_den = max(
        lattice.l1_ball_count(2, 2 * R + 2 * span + 2),
        (2 * R + 2 * span + 2) ** 2,
    )
    return max_num * max_den < 2**62


def _sweep_exact(
    f: GridFunction, spec: BallSpec, R: int, stops: list[list[int]]
) -> Fraction:
    """Line sweep over exact rational values, one `maxop` call per distinct
    point; each line is reduced to its run-boundary terms."""
    values: dict[LatticePoint, Fraction] = {}
    terms: list[Fraction] = []
    for axis, ts in enumerate(stops):
        for rest in product(range(-R, R + 1), repeat=f.dim - 1):
            line = []
            for t in ts:
                point = rest[:axis] + (t,) + rest[axis:]
                v = values.get(point)
                if v is None:
                    v = values[point] = maxop.maximal_value(f, spec, point)
                line.append(v)
            signs = [0] + [(b > a) - (b < a) for a, b in zip(line, line[1:])] + [0]
            terms += [(s - u) * v for s, u, v in zip(signs, signs[1:], line) if s != u]
    return tree_sum(terms)


# -- vectorised 2-D sweep ----------------------------------------------------

def _sweep_2d(f: GridFunction, centered: bool, R: int, stops: list[list[int]]) -> Fraction:
    """Line sweep over int64 values, reduced exactly per denominator.

    Lines run along axis 0 (then axis 1) and are evaluated in chunks of
    rows, one row per line and one column per stop.
    """
    masses, scale = f.integer_masses()
    if centered:
        layers = len(masses)
        values = partial(_l1_values_2d, f.support, masses, R)
    else:
        closures = maxop.hull_closures(f.support, tuple(masses))
        layers = len(closures)
        values = partial(_cube_values_2d, closures)
    coords = np.arange(-R, R + 1, dtype=np.int64)
    acc: dict[int, int] = {}
    for axis, ts in enumerate(stops):
        t = np.array(ts, dtype=np.int64)[None, :]
        rows = max(1, _CHUNK_CELLS // (len(ts) * layers))
        for r0 in range(0, len(coords), rows):
            c = coords[r0 : r0 + rows, None]
            x, y = (t, c) if axis == 0 else (c, t)
            num, den = values(x, y)
            _add_run_boundaries(num, den, acc)
    terms = [
        Fraction(total, dd * scale) for dd, total in sorted(acc.items()) if total
    ]
    return tree_sum(terms)


def _add_run_boundaries(num, den, acc: dict[int, int]) -> None:
    """Add each row's run-boundary terms coef_t * num_t to acc[den_t].

    Row values are num / (scale * den).  The variation of a row is
    sum_t coef_t * v(t) with coef_t = s_{t-1} - s_t and s_t the exact sign
    of v(t+1) - v(t), compared by cross-multiplication; coefficients vanish
    away from monotone-run boundaries.
    """
    if num.shape[1] < 2:
        return
    cross = num[:, 1:] * den[:, :-1] - num[:, :-1] * den[:, 1:]
    sign = np.sign(cross)
    coef = np.zeros(num.shape, dtype=np.int64)
    coef[:, 1:] += sign
    coef[:, :-1] -= sign
    ys, xs = np.nonzero(coef)
    for c, nn, dd in zip(
        coef[ys, xs].tolist(), num[ys, xs].tolist(), den[ys, xs].tolist()
    ):
        acc[dd] = acc.get(dd, 0) + c * nn


def _l1_values_2d(points: tuple[LatticePoint, ...], masses: list[int], R: int, x, y):
    """Cross-polytope Mf at the points (x, y) as int64 arrays (num, den).

    `masses` are the support's |values| times their common denominator
    `scale`, and Mf = num / (scale * den).  x and y are int64 coordinate
    arrays with entries in [-R, R] that broadcast to the result's shape.
    """
    shape = np.broadcast_shapes(x.shape, y.shape)
    k_max = max(abs(p[0]) + abs(p[1]) for p in points) + 2 * R
    ntab = np.array(lattice.ShellTable.build(2, k_max).counts, dtype=np.int64)
    layers = len(points)
    d1 = np.abs(x - points[0][0]) + np.abs(y - points[0][1])
    if layers == 1:
        return np.full(shape, masses[0], dtype=np.int64), ntab[d1]
    if layers == 2:
        d2 = np.abs(x - points[1][0]) + np.abs(y - points[1][1])
        first_near = d1 <= d2
        near = np.where(first_near, d1, d2)
        far = np.where(first_near, d2, d1)
        m_near = np.where(first_near, masses[0], masses[1])
        n_near = ntab[near]
        n_far = ntab[far]
        total = masses[0] + masses[1]
        # best of (m_near / N(near), total / N(far)), ties to either
        take_far = total * n_near > m_near * n_far
        num = np.where(take_far, total, m_near)
        den = np.where(take_far, n_far, n_near)
        return num, den
    mass_arr = np.array(masses, dtype=np.int64)
    dist = np.stack(
        [np.broadcast_to(np.abs(x - p[0]) + np.abs(y - p[1]), shape) for p in points]
    )
    order = np.argsort(dist, axis=0, kind="stable")
    dsort = np.take_along_axis(dist, order, axis=0)
    cum = np.cumsum(mass_arr[order], axis=0)
    dens = ntab[dsort]
    bn = cum[0].copy()
    bd = dens[0].copy()
    for i in range(1, layers):
        better = cum[i] * bd > bn * dens[i]
        np.copyto(bn, cum[i], where=better)
        np.copyto(bd, dens[i], where=better)
    return bn, bd


def _cube_values_2d(closures, x, y):
    """Cube Mf at the points (x, y) as int64 arrays (num, den), as in
    `_l1_values_2d`: the best minimal admissible-box count around the hull
    of (x, y) and each closed support subset of `maxop.hull_closures`."""
    bn = bd = None
    for mass, (mnx, mny), (mxx, mxy) in closures:
        ex = np.maximum(mxx, x) - np.minimum(mnx, x) + 1
        ey = np.maximum(mxy, y) - np.minimum(mny, y) + 1
        side = np.maximum(ex, ey)
        q = np.maximum(ex, side - 1) * np.maximum(ey, side - 1)
        if bn is None:
            bn = np.full(q.shape, mass, dtype=np.int64)
            bd = q
        else:
            better = mass * bd > bn * q
            np.copyto(bn, np.int64(mass), where=better)
            bd = np.where(better, q, bd)
    return bn, bd


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


def line_contribution_cap_l1(p: LatticePoint, line: LatticeLine) -> Fraction:
    """Largest possible share of one unit of mass at p in the variation of the
    cross-polytope maximal function along `line`: 2 / N(d, dist_l1(line, p))."""
    d = len(p)
    k = sum(
        abs(line.through[i] - p[i]) for i in range(d) if i != line.axis
    )
    return Fraction(2, lattice.l1_ball_count(d, k) if k else 1)


def line_contribution_cap_cube(p: LatticePoint, line: LatticeLine) -> Fraction:
    """Cube analogue: 2 / ((k+1)^j * max(1,k)^(d-j)) with k the sup-distance
    from p to the line and j the number of fixed coordinates attaining it."""
    d = len(p)
    diffs = [abs(line.through[i] - p[i]) for i in range(d) if i != line.axis]
    k = max(diffs, default=0)
    if k == 0:
        return Fraction(2)
    j = sum(1 for x in diffs if x == k)
    return Fraction(2, (k + 1) ** j * k ** (d - j))


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
    terms = [
        2 * (value(origin, base + (0,)) - value(origin, base + (R,)))
        for base in product(range(-R, R + 1), repeat=d - 1)
    ]
    return d * tree_sum(terms)


def delta_line_cap_totals(
    geometry: str, d: int, k_max: int
) -> dict[int, tuple[int, Fraction]]:
    """Full-line delta contributions grouped by line distance.

    For a unit delta at the origin, every line at distance k contributes its
    cap in full (the per-line variation of the delta's maximal function over
    the whole line equals the cap).  Returns {k: (number of lines, summed
    contribution)} over all d directions, for distances up to k_max.  The
    k-th total reproduces the k-th series term of the matching constant.
    """
    if geometry not in ("l1", "cube"):
        raise ValueError("geometry must be 'l1' or 'cube'")
    origin = (0,) * d
    totals: dict[int, tuple[int, Fraction]] = {}
    if d == 1:
        bases: list[LatticePoint] = [()]
    elif geometry == "l1":
        bases = lattice.l1_ball_points(d - 1, k_max)
    else:
        bases = list(product(range(-k_max, k_max + 1), repeat=d - 1))
    cap_fn = line_contribution_cap_l1 if geometry == "l1" else line_contribution_cap_cube
    for base in bases:
        if geometry == "l1":
            k = sum(abs(c) for c in base)
        else:
            k = max((abs(c) for c in base), default=0)
        if k > k_max:
            continue
        line = LatticeLine(d - 1, base + (0,))
        cap = cap_fn(origin, line)
        cnt, tot = totals.get(k, (0, Fraction(0)))
        totals[k] = (cnt + d, tot + d * cap)
    return totals
