"""Executable sharpness checks and extremizer scans.

The headline inequalities say Var(maximal function) <= constant * ||f||_1
with equality exactly for one-point supports.  These routines measure the
truncated variation (a certified lower bound), compare it against the
enclosure upper bound of the constant, and report the gap.  A negative gap
would falsify an inequality (or reveal a bug) and is treated as a hard
failure by the suites.  Strictly positive gaps for non-delta inputs are
*consistent with* the uniqueness of delta extremizers; they do not prove it,
since the sharp inequalities quantify over all of l1(Z^d).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import maxop, oracle
from .constants import bound_for_geometry
from .gridfn import GridFunction, total_variation
from .lattice import LatticePoint
from .maxop import ArgmaxWitness, BallSpec
from .varanalysis import VariationReport, adaptive_variation, truncated_variation_maxfn


@dataclass(frozen=True)
class SharpnessRecord:
    """One measured instance of Var(Mf) / ||f||_1 against its sharp bound."""

    support_size: int
    support: tuple[LatticePoint, ...]
    l1_norm: Fraction
    spec: BallSpec
    ratio: Fraction
    bound: Fraction
    gap: Fraction
    is_delta: bool
    truncation_radius: int

    def sort_key(self):
        return (self.gap, self.support)


def recenter(f: GridFunction) -> GridFunction:
    """Translate the support bounding box to straddle the origin.

    The operators commute with translations, and the floor-midpoint shift is
    translation equivariant, so measuring recentered copies makes every
    record exactly translation invariant despite the origin-centered
    truncation boxes.
    """
    box = f.support_box()
    if box is None:
        return f
    shift = tuple(-((lo + hi) // 2) for lo, hi in zip(*box))
    if any(shift):
        return f.translate(shift)
    return f


def _record(
    f: GridFunction, spec: BallSpec, var: Fraction, bound: Fraction, R: int
) -> SharpnessRecord:
    """The record of a truncated variation `var` of Mf measured at radius R."""
    norm = f.l1_norm()
    ratio = var / norm
    return SharpnessRecord(
        support_size=len(f.support),
        support=f.support,
        l1_norm=norm,
        spec=spec,
        ratio=ratio,
        bound=bound,
        gap=bound - ratio,
        is_delta=f.is_delta(),
        truncation_radius=R,
    )


def verify_inequality(
    f: GridFunction,
    spec: BallSpec,
    epsilon: Fraction | int | str,
    r_max: int = 4096,
    terms: int = 1000,
) -> tuple[SharpnessRecord, VariationReport]:
    """Adaptive truncated variation of Mf against the enclosure upper bound.

    The gap uses the *upper* end of the constant's enclosure, so gap >= 0 is
    a sound claim even though the constant itself is known only to enclosure
    width.  The input is recentered before measuring; see `recenter`.
    """
    if not f:
        raise ValueError("verify_inequality requires a nonzero function")
    f = recenter(f)
    report = adaptive_variation(f, spec, epsilon, r_max=r_max, terms=terms)
    bound = bound_for_geometry(spec.geometry, spec.dim, terms).upper
    return _record(f, spec, report.truncated_var, bound, report.truncation_radius), report


@dataclass(frozen=True)
class UncenteredVarBound1D:
    """Eq-style chain for the 1-D uncentered operator: Var Mf <= Var f <= 2||f||_1.

    The first comparison pits a truncated (lower-bound) left side against an
    exact right side, which keeps the check one-sided and sound; the second
    is exact on both sides.
    """

    var_f: Fraction
    l1_norm: Fraction
    maxfn_var_truncated: Fraction
    truncation_radius: int
    maxfn_le_var: bool
    var_le_2l1: bool

    @property
    def all_hold(self) -> bool:
        return self.maxfn_le_var and self.var_le_2l1


def verify_uncentered_var_bound_1d(
    f: GridFunction, R: int | None = None
) -> UncenteredVarBound1D:
    if f.dim != 1:
        raise ValueError("this check is specific to dimension 1")
    if not f:
        raise ValueError("requires a nonzero function")
    if R is None:
        R = f.support_radius() + 32
    spec = BallSpec("uncentered1d", 1)
    trunc = truncated_variation_maxfn(f, spec, R)
    var_f = total_variation(f)
    norm = f.l1_norm()
    return UncenteredVarBound1D(
        var_f=var_f,
        l1_norm=norm,
        maxfn_var_truncated=trunc,
        truncation_radius=R,
        maxfn_le_var=trunc <= var_f,
        var_le_2l1=var_f <= 2 * norm,
    )


def random_gridfn(
    seed: int,
    d: int,
    support_radius: int,
    support_count: int,
    value_bound: int = 16,
    signed: bool = False,
) -> GridFunction:
    """Deterministic pseudo-random finite-support function.

    Support points are drawn without replacement from the centered box of
    the given radius; values are uniform rationals p/q with
    1 <= p, q <= value_bound (negated with probability 1/2 when `signed`).
    """
    if d < 1 or support_radius < 0 or support_count < 1 or value_bound < 1:
        raise ValueError("parameters must be positive")
    box_size = (2 * support_radius + 1) ** d
    if support_count > box_size:
        raise ValueError(
            f"support_count {support_count} exceeds box size {box_size}"
        )
    rng = random.Random(seed)
    points: set[LatticePoint] = set()
    while len(points) < support_count:
        points.add(
            tuple(rng.randint(-support_radius, support_radius) for _ in range(d))
        )
    values = {}
    for p in sorted(points):
        v = Fraction(rng.randint(1, value_bound), rng.randint(1, value_bound))
        if signed and rng.random() < 0.5:
            v = -v
        values[p] = v
    return GridFunction(d, values)


def oracle_agreement(
    f: GridFunction, spec: BallSpec, n: LatticePoint
) -> tuple[ArgmaxWitness, ArgmaxWitness]:
    """The kernel's witness of Mf at n and the brute-force `oracle` one.

    Each oracle's search reaches past the support as seen from n, so it
    covers every optimal region; a correct kernel agrees with it in value
    and region.
    """
    fast = maxop.maximal_witness(f, spec, n)
    reach = max((sum(abs(a - b) for a, b in zip(p, n)) for p in f.support), default=0) + 2
    if spec.geometry == "centered1d":
        return fast, oracle.brute_centered_1d(f, n[0], reach)
    if spec.geometry == "uncentered1d":
        return fast, oracle.brute_uncentered_1d(f, n[0], reach)
    if spec.geometry == "l1":
        return fast, oracle.brute_centered_l1(f, n, reach)
    bbox = f.support_box()
    span = 2
    if bbox is not None:
        span = max(max(u, c) - min(l, c) + 1 for l, u, c in zip(*bbox, n)) + 1
    return fast, oracle.brute_uncentered_cube(f, n, span)


DEFAULT_RATIOS: tuple[Fraction, ...] = (
    Fraction(1, 4),
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(1),
    Fraction(3, 2),
    Fraction(2),
    Fraction(3),
    Fraction(4),
)


def two_point_shapes(spec: BallSpec, max_distance: int) -> list[LatticePoint]:
    """Canonical second-point offsets for two-point supports {0, q}.

    The operators commute with coordinate permutations and sign flips and
    every record is translation invariant, so offsets are canonicalised to
    non-increasing nonnegative coordinates; the distance is measured in the
    geometry's own metric.
    """
    norm = sum if spec.centered else max
    return [
        q
        for q in product(range(max_distance + 1), repeat=spec.dim)
        if all(a >= b for a, b in zip(q, q[1:])) and 0 < norm(q) <= max_distance
    ]


def scan_extremizers(
    spec: BallSpec,
    max_distance: int,
    R: int,
    ratios: tuple[Fraction, ...] = DEFAULT_RATIOS,
    terms: int = 1000,
) -> list[SharpnessRecord]:
    """Sweep the delta plus the two-point family {0 -> 1, q -> ratio}.

    Every instance is truncated at radius R exactly, so gaps are comparable
    across the family.  Records come back sorted by (gap, support), so delta
    rows lead when the family is consistent with delta-only extremality.
    At max_distance 0 the family is the delta alone.
    """
    if max_distance < 0:
        raise ValueError("the family distance must be >= 0")
    if R < max_distance:
        raise ValueError("R must cover the family diameter")
    bound = bound_for_geometry(spec.geometry, spec.dim, terms).upper
    origin = (0,) * spec.dim
    family = [GridFunction.delta(origin)] + [
        GridFunction(spec.dim, {origin: Fraction(1), q: ratio})
        for q in two_point_shapes(spec, max_distance)
        for ratio in ratios
    ]
    records = [_record(f, spec, truncated_variation_maxfn(f, spec, R), bound, R) for f in family]
    records.sort(key=SharpnessRecord.sort_key)
    return records
