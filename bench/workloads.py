"""The four seeded workloads.

A workload is a list of items; an item is one call into a public maxvar
entry point.  Inputs come from the benchmark's own generator seeded with
`--seed`; maxvar only sees the generated functions and parameters.  Each
workload also primes the program's caches for its warm-up, checks every
item's output outside the timed phase, and renders each output exactly
(canonical ``p/q``) for the digest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from maxvar import constants, lattice, maxop, oracle, varanalysis, verify
from maxvar.gridfn import GridFunction, total_variation
from maxvar.maxop import BallSpec


@dataclass(frozen=True)
class Item:
    """One call `module.attr(*args, **kwargs)`; looked up at call time so that
    the tracer's wrappers take effect."""

    id: str
    kind: str
    module: object
    attr: str
    args: tuple
    kwargs: dict = field(default_factory=dict)
    probes: tuple = ()  # kernel query points checked against maxvar.oracle

    def run(self):
        return getattr(self.module, self.attr)(*self.args, **self.kwargs)


def _signed_function(rng: random.Random, d: int, radius: int, count: int) -> GridFunction:
    """Signed values p/q with 1 <= p, q <= 16 on `count` points of [-radius, radius]^d.

    From two points on, the support reaches both faces of the box along the
    first axis.  Its hull width, which sets the 1-D uncentered cost and the
    radius the adaptive doubling starts from, is then the same for every seed.
    """
    points: set[tuple[int, ...]] = set()
    if count >= 2:
        for end in (-radius, radius):
            points.add((end,) + tuple(rng.randint(-radius, radius) for _ in range(d - 1)))
    while len(points) < count:
        points.add(tuple(rng.randint(-radius, radius) for _ in range(d)))
    values = {}
    for p in sorted(points):
        v = Fraction(rng.randint(1, 16), rng.randint(1, 16))
        values[p] = -v if rng.random() < 0.5 else v
    return GridFunction(d, values)


def _gap(geometry: str, d: int, f: GridFunction, var: Fraction) -> Fraction:
    return constants.bound_for_geometry(geometry, d).upper - var / f.l1_norm()


# ---------------------------------------------------------------------------
# scan2d: the paper's two-point family at one truncation radius
# ---------------------------------------------------------------------------

SCAN_R = 300
SCAN_DISTANCE = 5
SCAN_RATIOS = 4


def scan2d_items(rng: random.Random) -> list[Item]:
    ratios: set[Fraction] = set()
    while len(ratios) < SCAN_RATIOS:
        ratios.add(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
    items = []
    for geometry in ("l1", "cube"):
        spec = BallSpec(geometry, 2)
        delta = GridFunction.delta((0, 0))
        items.append(Item(f"{geometry}/delta", f"{geometry}/delta", varanalysis,
                          "truncated_variation_maxfn", (delta, spec, SCAN_R)))
        for q in verify.two_point_shapes(spec, SCAN_DISTANCE):
            for r in sorted(ratios):
                f = GridFunction(2, {(0, 0): 1, q: r})
                items.append(Item(f"{geometry}/{q[0]},{q[1]}/{r}", f"{geometry}/pair",
                                  varanalysis, "truncated_variation_maxfn", (f, spec, SCAN_R)))
    return items


def scan2d_prime(items: list[Item]) -> None:
    for geometry in ("l1", "cube"):
        constants.bound_for_geometry(geometry, 2)
    lattice.l1_ball_count(2, 2 * SCAN_R + 4 * SCAN_DISTANCE)


def scan2d_check(items: list[Item], out: dict) -> dict[str, str]:
    bad = {}
    for geometry in ("l1", "cube"):
        closed = varanalysis.delta_variation_closed_form(geometry, 2, SCAN_R)
        gaps = {}
        for it in items:
            if it.args[1].geometry != geometry or it.id not in out:
                continue
            f = it.args[0]
            gaps[it.id] = _gap(geometry, 2, f, out[it.id])
            if gaps[it.id] <= 0:
                bad[it.id] = "gap is not positive"
            if f.is_delta() and out[it.id] != closed:
                bad[it.id] = "delta row differs from delta_variation_closed_form"
        deltas = [i for i in gaps if i.endswith("/delta")]
        others = [g for i, g in gaps.items() if not i.endswith("/delta")]
        for i in deltas:
            if others and not gaps[i] < min(others):
                bad[i] = "delta gap does not lead the family"
    return bad


def scan2d_render(item: Item, result) -> str:
    return str(result)


# ---------------------------------------------------------------------------
# adaptive2d: verify_inequality doubling up to a fixed r_max
# ---------------------------------------------------------------------------

ADAPTIVE_R_MAX = 128
ADAPTIVE_EPSILON = Fraction(1, 10**12)  # below every doubling gain, so runs reach r_max
ADAPTIVE_RADIUS = 4
ADAPTIVE_REPEATS = 3


def adaptive2d_items(rng: random.Random) -> list[Item]:
    items = []
    for rep in range(ADAPTIVE_REPEATS):
        for s in range(3, 9):
            f = _signed_function(rng, 2, ADAPTIVE_RADIUS, s)
            for geometry in ("l1", "cube"):
                items.append(Item(f"{geometry}/s{s}/{rep}", geometry, verify,
                                  "verify_inequality", (f, BallSpec(geometry, 2), ADAPTIVE_EPSILON),
                                  {"r_max": ADAPTIVE_R_MAX}))
    return items


def adaptive2d_prime(items: list[Item]) -> None:
    for geometry in ("l1", "cube"):
        constants.bound_for_geometry(geometry, 2)
    lattice.l1_ball_count(2, 2 * ADAPTIVE_R_MAX + 8 * ADAPTIVE_RADIUS)


def adaptive2d_check(items: list[Item], out: dict) -> dict[str, str]:
    bad = {}
    for it in items:
        if it.id not in out:
            continue
        record, report = out[it.id]
        trace = [v for _, v in report.convergence_trace]
        if any(b < a for a, b in zip(trace, trace[1:])):
            bad[it.id] = "convergence trace decreases"
        elif not report.cap_satisfied:
            bad[it.id] = "cap not satisfied"
        elif record.gap < 0:
            bad[it.id] = "negative gap"
    return bad


def adaptive2d_render(item: Item, result) -> str:
    record, report = result
    steps = " ".join(f"{r}:{v}" for r, v in report.convergence_trace)
    return f"{record.ratio} {report.stop_reason} {steps}"


# ---------------------------------------------------------------------------
# pointwise: 1-D corpus (criteria 05/06 shape) and small d = 3 boxes
# ---------------------------------------------------------------------------

CORPUS_SIZE = 12
CORPUS_RADIUS = 20
CORPUS_PROBE_REACH = 22
D3_FUNCTIONS = 12
D3_RADIUS = 1
D3_R = 4
D3_PROBE_REACH = 2


def pointwise_items(rng: random.Random) -> list[Item]:
    tv = "truncated_variation_maxfn"
    items = []
    for i in range(CORPUS_SIZE):
        f = _signed_function(rng, 1, CORPUS_RADIUS, 1 + i % 6)
        r = f.support_radius()
        probes = tuple((rng.randint(-CORPUS_PROBE_REACH, CORPUS_PROBE_REACH),) for _ in range(2))
        items += [
            Item(f"centered1d/{i}", "centered1d", varanalysis, tv,
                 (f, BallSpec("centered1d", 1), r + 100), probes=probes[:1]),
            Item(f"uncentered1d/{i}", "uncentered1d", varanalysis, tv,
                 (f, BallSpec("uncentered1d", 1), r + 24), probes=probes[1:]),
            Item(f"chain1d/{i}", "chain1d", verify, "verify_uncentered_var_bound_1d", (f,)),
        ]
    for i in range(D3_FUNCTIONS):
        f = _signed_function(rng, 3, D3_RADIUS, 1 + i % 3)
        for geometry in ("l1", "cube"):
            probe = tuple(rng.randint(-D3_PROBE_REACH, D3_PROBE_REACH) for _ in range(3))
            items.append(Item(f"{geometry}3/{i}", f"{geometry}3", varanalysis, tv,
                              (f, BallSpec(geometry, 3), D3_R), probes=(probe,)))
    return items


def pointwise_prime(items: list[Item]) -> None:
    pass


def _oracle_agrees(f: GridFunction, geometry: str, n: tuple[int, ...]) -> bool:
    reach = max(sum(abs(a - b) for a, b in zip(p, n)) for p in f.support) + 2
    if geometry == "centered1d":
        fast, slow = maxop.centered_max_1d(f, n[0]), oracle.brute_centered_1d(f, n[0], reach)
    elif geometry == "uncentered1d":
        fast, slow = maxop.uncentered_max_1d(f, n[0]), oracle.brute_uncentered_1d(f, n[0], reach)
    elif geometry == "l1":
        fast, slow = maxop.centered_max_l1(f, n), oracle.brute_centered_l1(f, n, reach)
    else:
        lo, hi = f.support_box()
        span = max(max(u, c) - min(l, c) + 1 for l, u, c in zip(lo, hi, n)) + 1
        fast, slow = maxop.uncentered_max_cube(f, n), oracle.brute_uncentered_cube(f, n, span)
    return fast.value == slow.value and fast.region == slow.region


def pointwise_check(items: list[Item], out: dict) -> dict[str, str]:
    bad = {}
    for it in items:
        if it.id not in out:
            continue
        f, res = it.args[0], out[it.id]
        norm = f.l1_norm()
        if it.kind == "centered1d":
            ok = res <= 2 * norm and (len(f.support) < 2 or 2 * norm - res > 0)
        elif it.kind == "uncentered1d":
            ok = res <= total_variation(f) <= 2 * norm
        elif it.kind == "chain1d":
            ok = res.all_hold
        else:
            ok = 0 <= res and _gap(it.args[1].geometry, 3, f, res) >= 0
        if not ok:
            bad[it.id] = "inequality fails"
        elif not all(_oracle_agrees(f, it.args[1].geometry, n) for n in it.probes):
            bad[it.id] = "kernel disagrees with maxvar.oracle"
    return bad


def pointwise_render(item: Item, result) -> str:
    if item.kind == "chain1d":
        return f"{result.maxfn_var_truncated} {result.var_f}"
    return str(result)


# ---------------------------------------------------------------------------
# certify: constant enclosures and the lattice lemma batteries
# ---------------------------------------------------------------------------

CERTIFY_DIMS = range(2, 7)
CERTIFY_K_STRATA = 3  # K drawn from [1000 j, 1000 j + 100), j = 1..3
LOG_CONCAVITY_K = (1500, 2500)
GAP_MONOTONICITY_K = (300, 600)


def certify_items(rng: random.Random) -> list[Item]:
    items = []
    for d in CERTIFY_DIMS:
        for kind in constants.KINDS:
            for j in range(1, CERTIFY_K_STRATA + 1):
                K = 1000 * j + rng.randrange(100)
                items.append(Item(f"enclosure/{kind}/d{d}/K{K}", f"enclosure/{kind}",
                                  constants, "constant_enclosure", (d, K, kind)))
    for d in range(1, 7):
        items.append(Item(f"log_concavity/d{d}", "log_concavity", lattice,
                          "check_log_concavity", (d, rng.randint(*LOG_CONCAVITY_K))))
    for d in range(1, 5):
        items.append(Item(f"gap_monotonicity/d{d}", "gap_monotonicity", lattice,
                          "check_gap_monotonicity", (d, rng.randint(*GAP_MONOTONICITY_K))))
    return items


def certify_prime(items: list[Item]) -> None:
    for d in CERTIFY_DIMS:
        for kind in constants.KINDS:
            constants.tail_majorant(d, kind)
    lattice.l1_ball_count(max(CERTIFY_DIMS), max(it.args[1] for it in items) + 2)


def certify_check(items: list[Item], out: dict) -> dict[str, str]:
    bad = {}
    chains: dict[tuple[int, str], list[tuple[int, str]]] = {}
    for it in items:
        if it.id not in out:
            continue
        res = out[it.id]
        if it.attr != "constant_enclosure":
            if res:
                bad[it.id] = "lemma battery reports violations"
            continue
        d, K, kind = it.args
        if not res.lower < res.upper:
            bad[it.id] = "empty enclosure"
        elif kind == "uncentered" and d == 2 and (res.lower, res.upper) != (12 - Fraction(8, K + 1), 12):
            bad[it.id] = "uncentered d=2 enclosure is not [12 - 8/(K+1), 12]"
        chains.setdefault((d, kind), []).append((K, it.id))
    for chain in chains.values():
        chain.sort()
        for (_, a), (_, b) in zip(chain, chain[1:]):
            if not (out[a].lower <= out[b].lower and out[b].upper <= out[a].upper):
                bad[b] = "enclosures not nested in K"
    return bad


def certify_render(item: Item, result) -> str:
    if item.attr == "constant_enclosure":
        return f"{result.lower} {result.upper}"
    return repr(result)


@dataclass(frozen=True)
class Workload:
    name: str
    items: object
    prime: object
    check: object
    render: object
    probe_grid: int = 0  # side of the speed probe's numpy grid; 0 for none


WORKLOADS = {
    w.name: w
    for w in (
        # the 2-D workloads' items are partly numpy-bound: their speed follows
        # a probe with a numpy pass over a grid of their largest size better
        # than the Fraction loop alone
        Workload("scan2d", scan2d_items, scan2d_prime, scan2d_check, scan2d_render,
                 probe_grid=2 * SCAN_R + 1),
        Workload("adaptive2d", adaptive2d_items, adaptive2d_prime, adaptive2d_check, adaptive2d_render,
                 probe_grid=2 * ADAPTIVE_R_MAX + 1),
        Workload("pointwise", pointwise_items, pointwise_prime, pointwise_check, pointwise_render),
        Workload("certify", certify_items, certify_prime, certify_check, certify_render),
    )
}
