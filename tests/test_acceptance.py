"""Acceptance battery: one test per criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` (or plain `pytest`).  The
full battery takes a few minutes; the bulk is the R = 1000 two-point scans
of criterion 10.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

from maxvar import constants, lattice
from maxvar.gridfn import GridFunction, total_variation
from maxvar.maxop import BallSpec, evaluate_on_box
from maxvar.varanalysis import delta_variation_closed_form, truncated_variation_maxfn
from maxvar.verify import oracle_agreement, random_gridfn, scan_extremizers

Q = Fraction


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2}: {name}: {status}{'  ' + detail if detail else ''}")
    assert ok, f"criterion {number} failed: {name} {detail}"


def test_criterion_01_log_concavity_battery():
    t0 = time.time()
    violations = []
    for d in range(1, 7):
        violations += lattice.check_log_concavity(d, 2000)
    elapsed = time.time() - t0
    _report(
        1,
        "count log-concavity, d in [1,6], k in [1,2000]",
        not violations and elapsed < 60,
        f"({elapsed:.2f}s)",
    )


def test_criterion_02_gap_monotonicity_battery():
    violations = []
    for d in range(1, 5):
        violations += lattice.check_gap_monotonicity(d, 500)
    _report(2, "average-gap monotonicity, d in [1,4], k in [0,500]", not violations)


def test_criterion_03_counting_cross_checks():
    ok = True
    for d in range(1, 5):
        for k in range(0, 13):
            ok = ok and len(lattice.l1_ball_points(d, k)) == lattice.l1_ball_count(d, k)
    for k in range(0, 10**4 + 1):
        ok = ok and lattice.l1_ball_count(1, k) == 2 * k + 1
    for k in range(0, 10**3 + 1):
        ok = ok and lattice.l1_ball_count(2, k) == k * k + (k + 1) * (k + 1)
    _report(3, "recurrence vs enumeration and closed forms", ok)


def test_criterion_04_centered_1d_delta_sharpness():
    R = 10**4
    v = truncated_variation_maxfn(
        GridFunction.delta(0), BallSpec("centered1d", 1), R
    )
    expected = 2 * (1 - Q(1, 2 * R + 1))
    ok = v == expected and 2 - v < Q(1, 10**4) and v < 2
    _report(4, "centered 1-D delta variation at R=1e4", ok, f"value {float(v):.6f}")


def _corpus_1d():
    for i in range(500):
        yield random_gridfn(
            seed=10_000 + i,
            d=1,
            support_radius=20,
            support_count=1 + i % 6,
            value_bound=16,
            signed=True,
        )


def test_criterion_05_centered_1d_inequality_corpus():
    spec = BallSpec("centered1d", 1)
    failures = 0
    for f in _corpus_1d():
        R = f.support_radius() + 100
        var = truncated_variation_maxfn(f, spec, R)
        bound = 2 * f.l1_norm()
        if not (var <= bound):
            failures += 1
        if len(f.support) >= 2 and not (bound - var > 0):
            failures += 1
    _report(5, "500 random 1-D: Var Mf <= 2||f||_1, positive gap off deltas", failures == 0)


def test_criterion_06_uncentered_1d_chain_corpus():
    spec = BallSpec("uncentered1d", 1)
    failures = 0
    for f in _corpus_1d():
        R = f.support_radius() + 24
        var_m = truncated_variation_maxfn(f, spec, R)
        var_f = total_variation(f)
        if not (var_m <= var_f <= 2 * f.l1_norm()):
            failures += 1
    _report(6, "500 random 1-D: Var (uncentered M)f <= Var f <= 2||f||_1", failures == 0)


def test_criterion_07_uncentered_cube_d2():
    ok = True
    for K in (1, 10, 10**3):
        ok = ok and constants.uncentered_constant_partial(2, K) == 12 - Q(8, K + 1)
    closed = delta_variation_closed_form("cube", 2, 200)
    operator = truncated_variation_maxfn(
        GridFunction.delta((0, 0)), BallSpec("cube", 2), 200
    )
    ok = ok and closed == operator and 12 - Q(2, 10) < closed < 12
    enc1 = constants.constant_enclosure(1, 10, "uncentered")
    ok = ok and enc1.lower == enc1.upper == 2
    _report(
        7,
        "uncentered cube d=2: telescoped partials, R=200 delta run, d=1 point enclosure",
        ok,
        f"delta Var(200) = {float(closed):.4f}",
    )


def test_criterion_08_centered_l1_d2():
    enc = constants.constant_enclosure(2, 10**4, "centered")
    ok = enc.width <= Q(1, 1000)

    # term-for-term: the per-line variation of the actual operator, completed
    # by its exact monotone tails and grouped by line distance, reproduces
    # the series terms of the constant
    R = 40
    f = GridFunction.delta((0, 0))
    box = ((-R, -R), (R, R))
    values = evaluate_on_box(f, BallSpec("l1", 2), box)
    by_distance: dict[int, Q] = {}
    for axis in (0, 1):
        for c in range(-R, R + 1):
            seq = [values[(t, c) if axis == 0 else (c, t)] for t in range(-R, R + 1)]
            trunc = sum((abs(b - a) for a, b in zip(seq, seq[1:])), Q(0))
            full = trunc + seq[0] + seq[-1]  # exact monotone tail completion
            k = abs(c)
            by_distance[k] = by_distance.get(k, Q(0)) + full
    ok = ok and by_distance[0] == 4
    for k in range(1, R + 1):
        ok = ok and by_distance[k] == constants.centered_term(2, k)
    # and the grouped totals accumulate to the partial sums
    acc = Q(0)
    for K in range(0, R + 1):
        acc += by_distance[K]
        ok = ok and acc == constants.centered_constant_partial(2, K)
    _report(
        8,
        "centered l1 d=2: enclosure width at K=1e4 and term-for-term match to R=40",
        ok,
        f"width {float(enc.width):.2e}",
    )


def test_criterion_09_oracle_equivalence():
    import random as _random

    rng = _random.Random(20250809)
    checked = 0
    agreed = 0
    for geometry in ("centered1d", "uncentered1d", "l1", "cube"):
        d = 1 if geometry.endswith("1d") else 2
        for _ in range(100):
            f = random_gridfn(rng.randint(0, 10**9), d, 6, rng.randint(1, 5))
            n = tuple(rng.randint(-8, 8) for _ in range(d))
            fast, slow = oracle_agreement(f, BallSpec(geometry, d), n)
            checked += 1
            if fast.value == slow.value and fast.region == slow.region:
                agreed += 1
    _report(9, "oracle equivalence, 100 instances per geometry", agreed == checked, f"{agreed}/{checked}")


def test_criterion_10_uniqueness_scan():
    t0 = time.time()
    ok = True
    details = []
    for spec in (BallSpec("centered1d", 1), BallSpec("l1", 2), BallSpec("cube", 2)):
        records = scan_extremizers(spec, max_distance=5, R=10**3)
        non_delta = [r for r in records if not r.is_delta]
        delta = [r for r in records if r.is_delta]
        ok = ok and all(r.gap > 0 for r in records)
        ok = ok and max(d.gap for d in delta) < min(r.gap for r in non_delta)
        details.append(
            f"{spec.geometry}: {len(records)} records, min non-delta gap "
            f"{float(min(r.gap for r in non_delta)):.4f}"
        )
    _report(
        10,
        "two-point scans (dist<=5, 9 ratios, R=1e3): positive gaps, deltas lead",
        ok,
        f"({time.time()-t0:.0f}s) " + "; ".join(details),
    )


def test_criterion_11_cli_determinism(tmp_path):
    cli = [sys.executable, "-m", "maxvar.cli"]

    def run(*args):
        return subprocess.run(cli + list(args), capture_output=True, timeout=600)

    doc = tmp_path / "f.json"
    doc.write_text(
        json.dumps(
            {
                "dim": 2,
                "support": [
                    {"point": [0, 0], "value": "1"},
                    {"point": [2, -1], "value": "5/3"},
                ],
            }
        )
    )
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    ok = True
    r1 = run("maxfn", "--input", str(doc), "--geometry", "cube", "--box", "5", "--output", str(out_a))
    r2 = run("maxfn", "--input", str(doc), "--geometry", "cube", "--box", "5", "--output", str(out_b))
    ok = ok and r1.returncode == r2.returncode == 0
    ok = ok and out_a.read_bytes() == out_b.read_bytes()
    for args in (
        ("scan", "--geometry", "centered1d", "--family", "two-point", "--radius", "3", "--box", "128"),
        ("constant", "--kind", "centered", "--dim", "2", "--terms", "500"),
        ("verify", "--suite", "oracle", "--seed", "7", "--instances", "3"),
    ):
        a, b = run(*args), run(*args)
        ok = ok and a.returncode == b.returncode and a.stdout == b.stdout
    _report(11, "CLI determinism: byte-identical CSV/JSON for fixed seeds", ok)
