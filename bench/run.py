"""maxvar benchmark: seeded certification workloads, untraced or traced.

    python3 bench/run.py --workload scan2d --seed 1 --seconds 20 --trace 0

Run from the root of a maxvar checkout; the package is imported from the
checkout's ``src/`` and nowhere else.  One process, one thread, a closed
loop: each item starts when the previous one has returned.

--trace 0   end-to-end metrics: items_per_s, item_p50_ms, item_p90_ms,
            setup_s (median over fresh processes), peak_rss_mb; the failure
            count goes into the result's "failed" field and the summary's
            failed_ratio line.
--trace 1   per-layer metrics from spans recorded around calls into maxvar,
            over whole passes of the item list, alternating with untraced
            passes of the same items for the overhead ratio.

The last line of stdout is one JSON object; the lines before it are a
human-readable summary, the machine block and the output digest.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from probe import SpeedProbe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference_digests.json"
DEFAULT_SEED = 1
SETUP_SAMPLES = 5
SPAN_FILE_LIMIT = 100_000
SPAN_BUDGET = 1_000_000  # spans kept in memory, about 50 MB
READY = "ready"
PROBE_WINDOW = 5


def _import_maxvar() -> None:
    """Import maxvar from this checkout, or exit non-zero without a result."""
    if not (SRC / "maxvar" / "__init__.py").is_file():
        sys.exit(f"bench: no maxvar sources under {SRC}; run from a maxvar checkout")
    sys.path.insert(0, str(SRC))
    import maxvar

    if Path(maxvar.__file__).resolve().parent != (SRC / "maxvar").resolve():
        sys.exit(f"bench: imported maxvar from {maxvar.__file__}, not from {SRC}")


def _warm_up(workload, items) -> None:
    """Prime the program's caches, then run one item of each kind."""
    workload.prime(items)
    for item in {it.kind: it for it in reversed(items)}.values():
        item.run()


def _rescale(times: list[int], probes: list[int], ref_ns: float) -> list[float]:
    return [
        t * ref_ns / statistics.median(probes[max(0, i - PROBE_WINDOW): i + PROBE_WINDOW + 1])
        for i, t in enumerate(times)
    ]


def _setup_seconds(args, probe) -> tuple[list[float], list[float]]:
    """Wall time from spawning a fresh process to the end of its warm-up,
    raw and rescaled by probes taken just before and after."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        before = [probe() for _ in range(3)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            t1 = time.perf_counter()
            child.stdout.read()
            if child.wait(timeout=120) != 0 or line.strip() != READY:
                raise RuntimeError(f"setup process failed: {line!r}")
        around = before + [probe() for _ in range(3)]
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * probe.ref_ns / statistics.median(around))
    return raw, scaled


def _machine() -> dict:
    import numpy

    block = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "numpy": numpy.__version__}
    try:
        libc = ctypes.CDLL(None)
        block["l2_bytes"] = libc.sysconf(191)  # _SC_LEVEL2_CACHE_SIZE (glibc)
        block["l3_bytes"] = libc.sysconf(194)  # _SC_LEVEL3_CACHE_SIZE (glibc)
    except (OSError, AttributeError):
        block["l2_bytes"] = block["l3_bytes"] = None
    return block


class Runner:
    """Runs items, keeps each item's first output and counts failures."""

    def __init__(self, items):
        self.items = items
        self.outputs: dict[str, object] = {}
        self.raised: set[str] = set()
        self.runs: dict[str, int] = {}

    @property
    def attempted(self) -> int:
        return sum(self.runs.values())

    def run(self, item) -> int:
        """Run one item as an attempt; return its wall time in ns."""
        self.runs[item.id] = self.runs.get(item.id, 0) + 1
        return self._execute(item)

    def _execute(self, item) -> int:
        t0 = time.perf_counter_ns()
        try:
            result = item.run()
        except Exception:
            elapsed = time.perf_counter_ns() - t0
            if item.id not in self.raised:
                print(f"bench: item {item.id} raised", file=sys.stderr)
                traceback.print_exc()
            self.raised.add(item.id)
            return elapsed
        elapsed = time.perf_counter_ns() - t0
        first = self.outputs.setdefault(item.id, result)
        if first is not result and first != result:
            print(f"bench: item {item.id} gave a different output on a repeat", file=sys.stderr)
            self.raised.add(item.id)
        return elapsed

    def finish(self, workload) -> tuple[set[str], str]:
        """Outside the timed phase: run items never reached, check every
        output and digest them.  Returns the failed ids and the digest."""
        for item in self.items:
            if item.id not in self.outputs and item.id not in self.raised:
                self._execute(item)
        bad = workload.check(self.items, self.outputs)
        for item_id, reason in sorted(bad.items()):
            print(f"bench: item {item_id} fails its check: {reason}", file=sys.stderr)
        failed = set(bad) | self.raised
        digest = hashlib.sha256()
        for item in self.items:
            text = workload.render(item, self.outputs[item.id]) if item.id in self.outputs else "raised"
            digest.update(f"{item.id}\t{text}\n".encode())
        return failed, digest.hexdigest()

    def failed_count(self, failed: set[str]) -> int:
        return sum(self.runs.get(i, 0) for i in failed)


def _timed_phase(runner, items, seconds, rng, probe) -> tuple[list[int], list[int], float]:
    """Whole passes over the items, in one seeded order, until `seconds`;
    a speed probe follows every item.

    Whole passes give every item the same weight in the quantiles, however
    far the last pass got."""
    order = items[:]
    rng.shuffle(order)
    times, probes = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        for item in order:
            times.append(runner.run(item))
            probes.append(probe())
    return times, probes, time.perf_counter() - start


def _traced_phase(runner, items, seconds, tracer) -> tuple[int, float, int]:
    """Alternate untraced and traced passes over all items until `seconds`,
    or until one more traced pass would take the spans past SPAN_BUDGET."""
    passes = 0
    plain_s = traced_s = 0.0
    first_pass_spans = 0
    start = time.perf_counter()
    while passes == 0 or (time.perf_counter() - start < seconds
                          and len(tracer.start) + first_pass_spans <= SPAN_BUDGET):
        t0 = time.perf_counter()
        for item in items:
            runner.run(item)
        t1 = time.perf_counter()
        tracer.install()
        try:
            for idx, item in enumerate(items):
                tracer.item = idx
                runner.run(item)
        finally:
            tracer.uninstall()
        plain_s += t1 - t0
        traced_s += time.perf_counter() - t1
        passes += 1
        if passes == 1:
            first_pass_spans = len(tracer.start) - sum(1 for i in tracer.item_of if i < 0)
    return passes, traced_s / plain_s, first_pass_spans


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.set_int_max_str_digits(0)  # enclosure denominators run to tens of thousands of digits

    _import_maxvar()
    if not args.setup_only and hasattr(os, "sched_setaffinity"):
        # one CPU for items, probes and setup processes, so that every probe
        # sees the speed of the core the measurement it scales ran on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}:{args.seed}")
    items = workload.items(rng)

    if args.setup_only:
        _warm_up(workload, items)
        print(READY, flush=True)
        return 0

    runner = Runner(items)
    if args.trace:
        from tracing import PER_LAYER, Tracer

        tracer = Tracer()
        tracer.install()
        try:
            _warm_up(workload, items)
        finally:
            tracer.uninstall()
        passes, overhead, first_pass_spans = _traced_phase(runner, items, args.seconds, tracer)
        values = tracer.per_layer(passes, overhead)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}.spans.tsv"
        tracer.write(spans_path, min(first_pass_spans, SPAN_FILE_LIMIT))
        summary = [f"traced {passes} passes of {len(items)} items, overhead ratio {overhead:.3f}; "
                   f"spans of the warm-up and first traced pass in {spans_path.relative_to(ROOT)}"]
        summary += [f"  {name:<52} {values[name]:>16.6g} {unit}" for name, unit, _ in PER_LAYER]
    else:
        setup_raw, setup = _setup_seconds(args, SpeedProbe())
        _warm_up(workload, items)
        probe = SpeedProbe(workload.probe_grid)
        raw, probes, wall = _timed_phase(runner, items, args.seconds, rng, probe)
        scaled = sorted(_rescale(raw, probes, probe.ref_ns))
        n = len(scaled)
        values = {
            "items_per_s": n / (sum(scaled) / 1e9),
            "item_p50_ms": statistics.median(scaled) / 1e6,
            "item_p90_ms": _quantile(scaled, 0.9) / 1e6,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"items_per_s": "1/s", "item_p50_ms": "ms", "item_p90_ms": "ms",
                 "setup_s": "s", "peak_rss_mb": "MiB"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        raw.sort()
        summary = [
            f"timed {n} item runs ({len(items)} distinct items, whole passes) in {wall:.3f} s; "
            f"{n - math.ceil(0.9 * n)} samples beyond p90",
            f"probe median {statistics.median(probes) / 1e6:.3f} ms (reference "
            f"{probe.ref_ns / 1e6:.3f} ms); raw: {n / (sum(raw) / 1e9):.4g} items/s, p50 "
            f"{statistics.median(raw) / 1e6:.4g} ms, p90 {_quantile(raw, 0.9) / 1e6:.4g} ms, "
            f"setup " + " ".join(f"{s:.3f}" for s in setup_raw) + " s",
        ]
        summary += [f"  {k:<14} {v:>12.6g} {units[k]}" for k, v in values.items()]

    failed_ids, digest = runner.finish(workload)
    failed = runner.failed_count(failed_ids)
    attempted = runner.attempted
    correct = not failed_ids
    reference = json.loads(REFERENCE.read_text()).get(args.workload) if REFERENCE.is_file() else None
    note = "no reference for this seed"
    if reference and reference["seed"] == args.seed:
        note = "matches reference" if reference["sha256"] == digest else "DIFFERS FROM REFERENCE"
        if reference["sha256"] != digest:
            print(f"bench: {args.workload} seed {args.seed} output digest differs from "
                  f"{REFERENCE.relative_to(ROOT)}", file=sys.stderr)
            correct = False

    print("machine " + json.dumps(_machine(), sort_keys=True)
          + "  (bytes_computed is computed from array sizes; no bandwidth or roofline claim)")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("\n".join(summary))
    print(f"  failed_ratio   {failed / attempted:>12.6g} ({failed} of {attempted})")
    print(f"digest {args.workload} seed={args.seed} sha256={digest} ({note})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
