"""Spans around calls into maxvar's public functions, recorded from outside.

`Tracer.install` replaces each traced function in every maxvar module
namespace that binds it (``from .exact import tree_sum`` leaves separate
copies in gridfn, maxop, varanalysis and constants) with a wrapper that
records one span per call: name, start, end, parent span and item id, plus
one or two work counts taken at the boundary.  Spans stay in memory as
packed columns; `per_layer` derives the per-layer metrics from them and
`write` dumps them at exit.  A layer's self time is its span's duration
minus the durations of its direct children.

Nothing inside the program is changed: calls the program makes between two
traced functions are attributed to the nearest traced caller.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter_ns

from maxvar import constants, exact, gridfn, lattice, maxop, varanalysis, verify

#: item id of spans recorded while the benchmark warms up
SETUP_ITEM = -1

GRID_BYTES_PER_CELL = 64
"""int64 bytes the 2-D grid path allocates per cell, computed from array
sizes: the num and den grids, and per direction the cross, sign and coef
arrays (8 bytes x (2 + 2 x 3)).  Layer-construction temporaries and cache
traffic are not counted."""


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _cells(args, kwargs, result):
    f = args[0]
    return (2 * _arg(args, kwargs, 2, "R") + 1) ** f.dim


def _box_points(args, kwargs, result):
    lower, upper = _arg(args, kwargs, 2, "box")
    n = 1
    for lo, hi in zip(lower, upper):
        n *= hi - lo + 1
    return n


def _cube_candidates(args, kwargs, result):
    return (1 << len(args[0].support)) - 1


def _interval_candidates(args, kwargs, result):
    f, n = args[0], args[1]
    if not f:
        return 1
    supp_lo, supp_hi = f.support[0][0], f.support[-1][0]
    lo, hi = min(supp_lo, n), max(supp_hi, n)
    return (min(n, supp_hi) - lo + 1) * (hi - max(n, supp_lo) + 1)


def _entries(args, kwargs, result):
    return len(result.counts)


def _den_bits(args, kwargs, result):
    return result.denominator.bit_length()


def _materialise(args, kwargs):
    # tree_sum takes any iterable; the lazily generated series terms are
    # produced here, inside tree_sum's span, and counted afterwards
    return (list(args[0]),), kwargs


def _term_count(args, kwargs, result):
    return len(args[0])


# (span name, module, attribute, work, aux, argument preparation)
TARGETS = (
    ("varanalysis.truncated_variation", varanalysis, "truncated_variation_maxfn", _cells, None, None),
    ("varanalysis.adaptive", varanalysis, "adaptive_variation", None, None, None),
    ("maxop.evaluate_on_box", maxop, "evaluate_on_box", _box_points, None, None),
    ("maxop.centered_max_1d", maxop, "centered_max_1d", None, None, None),
    ("maxop.uncentered_max_1d", maxop, "uncentered_max_1d", _interval_candidates, None, None),
    ("maxop.centered_max_l1", maxop, "centered_max_l1", None, None, None),
    ("maxop.uncentered_max_cube", maxop, "uncentered_max_cube", _cube_candidates, None, None),
    ("exact.tree_sum", exact, "tree_sum", _term_count, _den_bits, _materialise),
    ("lattice.l1_ball_count", lattice, "l1_ball_count", None, None, None),
    ("lattice.check_log_concavity", lattice, "check_log_concavity", None, None, None),
    ("lattice.check_gap_monotonicity", lattice, "check_gap_monotonicity", None, None, None),
    ("constants.tail_majorant", constants, "tail_majorant", None, None, None),
    ("constants.term", constants, "centered_term", None, None, None),
    ("constants.term", constants, "uncentered_term", None, None, None),
    ("constants.constant_enclosure", constants, "constant_enclosure", None, None, None),
    ("verify.verify_inequality", verify, "verify_inequality", None, None, None),
    ("gridfn.total_variation", gridfn, "total_variation", None, None, None),
)
SHELL_BUILD = "lattice.ShellTable.build"
SPAN_NAMES = tuple(dict.fromkeys([t[0] for t in TARGETS] + [SHELL_BUILD]))

KERNELS = ("centered_max_1d", "uncentered_max_1d", "centered_max_l1", "uncentered_max_cube")

# (metric, unit, better) in the order the benchmark reports them
PER_LAYER = (
    [
        ("varanalysis.truncated_variation.calls", "count", "lower"),
        ("varanalysis.truncated_variation.self_s", "s", "lower"),
        ("varanalysis.truncated_variation.cells", "count", "lower"),
        ("varanalysis.truncated_variation.ns_per_cell", "ns", "lower"),
        ("varanalysis.truncated_variation.bytes_computed", "B", "lower"),
        ("varanalysis.truncated_variation.pointwise_calls", "count", "lower"),
        ("varanalysis.adaptive.steps", "count", "lower"),
        ("varanalysis.adaptive.useful_cell_ratio", "ratio", "higher"),
        ("maxop.evaluate_on_box.points", "count", "lower"),
        ("maxop.evaluate_on_box.self_s", "s", "lower"),
    ]
    + [(f"maxop.{k}.{m}", u, "lower") for k in KERNELS for m, u in (("calls", "count"), ("us_per_call", "us"))]
    + [
        ("maxop.uncentered_max_cube.candidates", "count", "lower"),
        ("maxop.uncentered_max_1d.candidates", "count", "lower"),
        ("exact.tree_sum.calls", "count", "lower"),
        ("exact.tree_sum.terms", "count", "lower"),
        ("exact.tree_sum.self_s", "s", "lower"),
        ("exact.tree_sum.den_bits_max", "bit", "lower"),
        ("lattice.l1_ball_count.calls", "count", "lower"),
        ("lattice.l1_ball_count.self_s", "s", "lower"),
        ("lattice.ShellTable.build.entries", "count", "lower"),
        ("lattice.ShellTable.build.self_s", "s", "lower"),
        ("lattice.check_log_concavity.self_s", "s", "lower"),
        ("lattice.check_gap_monotonicity.self_s", "s", "lower"),
        ("constants.tail_majorant.self_s", "s", "lower"),
        ("constants.term.calls", "count", "lower"),
        ("constants.term.self_s", "s", "lower"),
        ("constants.constant_enclosure.self_s", "s", "lower"),
        ("verify.verify_inequality.self_s", "s", "lower"),
        ("gridfn.total_variation.self_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)


class Tracer:
    """In-memory span recorder; `item` is the id stamped on new spans."""

    def __init__(self) -> None:
        self.name = array("b")
        self.parent = array("q")
        self.item_of = array("q")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")
        self.aux = array("q")
        self.current = -1
        self.item = SETUP_ITEM
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name_id, fn, work, aux, prepare):
        rec = self

        def traced(*args, **kwargs):
            parent = rec.current
            idx = len(rec.start)
            rec.name.append(name_id)
            rec.parent.append(parent)
            rec.item_of.append(rec.item)
            rec.end.append(0)
            rec.work.append(0)
            rec.aux.append(0)
            rec.current = idx
            rec.start.append(perf_counter_ns())
            try:
                if prepare is not None:
                    args, kwargs = prepare(args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                rec.end[idx] = perf_counter_ns()
                rec.current = parent
            if work is not None:
                rec.work[idx] = work(args, kwargs, result)
            if aux is not None:
                rec.aux[idx] = aux(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Swap every binding of each target in every loaded maxvar module."""
        modules = [m for n, m in sys.modules.items() if n == "maxvar" or n.startswith("maxvar.")]
        for span, module, attr, work, aux, prepare in TARGETS:
            original = getattr(module, attr)
            wrapper = self._wrap(SPAN_NAMES.index(span), original, work, aux, prepare)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapper)
        build = lattice.ShellTable.__dict__["build"]
        self._patches.append((lattice.ShellTable, "build", build))
        lattice.ShellTable.build = classmethod(
            self._wrap(SPAN_NAMES.index(SHELL_BUILD), build.__func__, _entries, None, None)
        )

    def uninstall(self) -> None:
        for target, key, value in reversed(self._patches):
            setattr(target, key, value)
        self._patches.clear()

    # -- reduction ----------------------------------------------------------

    def per_layer(self, passes: int, overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics per traced pass over the item list.

        Spans of the warm-up are left out, except for the tail-majorant
        certificate: it is built once per process during warm-up, and every
        later call is a cache hit.
        """
        n = len(self.start)
        ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        child = array("q", bytes(8 * n))
        eob_child = bytearray(n)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
                if self.name[i] == ids["maxop.evaluate_on_box"]:
                    eob_child[p] = 1
        agg = {name: [0, 0, 0, 0, 0] for name in SPAN_NAMES}  # calls, total_ns, self_ns, work, aux_max
        tv, ad = ids["varanalysis.truncated_variation"], ids["varanalysis.adaptive"]
        pointwise = grid_cells = steps = step_cells = 0
        last_step: dict[int, int] = {}
        tail_setup_ns = 0
        for i in range(n):
            name = self.name[i]
            dur = self.end[i] - self.start[i]
            if self.item_of[i] == SETUP_ITEM:
                if name == ids["constants.tail_majorant"]:
                    tail_setup_ns += dur - child[i]
                continue
            a = agg[SPAN_NAMES[name]]
            a[0] += 1
            a[1] += dur
            a[2] += dur - child[i]
            a[3] += self.work[i]
            a[4] = max(a[4], self.aux[i])
            if name == tv:
                if eob_child[i]:
                    pointwise += 1
                else:
                    grid_cells += self.work[i]
                p = self.parent[i]
                if p >= 0 and self.name[p] == ad:
                    steps += 1
                    step_cells += self.work[i]
                    last_step[p] = self.work[i]
        final_cells = sum(last_step.values())
        per = max(passes, 1)

        def self_s(name):
            return agg[name][2] / 1e9 / per

        t = agg["varanalysis.truncated_variation"]
        out = {
            "varanalysis.truncated_variation.calls": t[0] / per,
            "varanalysis.truncated_variation.self_s": self_s("varanalysis.truncated_variation"),
            "varanalysis.truncated_variation.cells": t[3] / per,
            "varanalysis.truncated_variation.ns_per_cell": t[1] / t[3] if t[3] else 0.0,
            "varanalysis.truncated_variation.bytes_computed": GRID_BYTES_PER_CELL * grid_cells / per,
            "varanalysis.truncated_variation.pointwise_calls": pointwise / per,
            "varanalysis.adaptive.steps": steps / per,
            "varanalysis.adaptive.useful_cell_ratio": final_cells / step_cells if step_cells else 0.0,
            "maxop.evaluate_on_box.points": agg["maxop.evaluate_on_box"][3] / per,
            "maxop.evaluate_on_box.self_s": self_s("maxop.evaluate_on_box"),
        }
        for k in KERNELS:
            calls, total_ns = agg[f"maxop.{k}"][:2]
            out[f"maxop.{k}.calls"] = calls / per
            out[f"maxop.{k}.us_per_call"] = total_ns / 1e3 / calls if calls else 0.0
        ts = agg["exact.tree_sum"]
        out.update({
            "maxop.uncentered_max_cube.candidates": agg["maxop.uncentered_max_cube"][3] / per,
            "maxop.uncentered_max_1d.candidates": agg["maxop.uncentered_max_1d"][3] / per,
            "exact.tree_sum.calls": ts[0] / per,
            "exact.tree_sum.terms": ts[3] / per,
            "exact.tree_sum.self_s": self_s("exact.tree_sum"),
            "exact.tree_sum.den_bits_max": ts[4],
            "lattice.l1_ball_count.calls": agg["lattice.l1_ball_count"][0] / per,
            "lattice.l1_ball_count.self_s": self_s("lattice.l1_ball_count"),
            "lattice.ShellTable.build.entries": agg[SHELL_BUILD][3] / per,
            "lattice.ShellTable.build.self_s": self_s(SHELL_BUILD),
            "lattice.check_log_concavity.self_s": self_s("lattice.check_log_concavity"),
            "lattice.check_gap_monotonicity.self_s": self_s("lattice.check_gap_monotonicity"),
            "constants.tail_majorant.self_s": tail_setup_ns / 1e9,
            "constants.term.calls": agg["constants.term"][0] / per,
            "constants.term.self_s": self_s("constants.term"),
            "constants.constant_enclosure.self_s": self_s("constants.constant_enclosure"),
            "verify.verify_inequality.self_s": self_s("verify.verify_inequality"),
            "gridfn.total_variation.self_s": self_s("gridfn.total_variation"),
            "trace.overhead_ratio": overhead_ratio,
        })
        return out

    def write(self, path, limit_item_spans: int) -> int:
        """Write warm-up spans and the first `limit_item_spans` item spans as TSV."""
        kept = 0
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\titem\twork\taux\n")
            for i in range(len(self.start)):
                if self.item_of[i] != SETUP_ITEM:
                    if kept >= limit_item_spans:
                        continue
                    kept += 1
                fh.write(
                    f"{i}\t{SPAN_NAMES[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\t"
                    f"{self.parent[i]}\t{self.item_of[i]}\t{self.work[i]}\t{self.aux[i]}\n"
                )
        return kept
