"""Command-line front end.

Subcommands:

  count     lattice points of a dilated cross-polytope (optionally listed)
  maxfn     evaluate a maximal function on a box, CSV output
  constant  certified enclosure of a sharp constant
  verify    inequality checks for one input, or canned suites
  scan      two-point extremizer sweep, CSV output

Input grid functions are JSON documents

    {"dim": 2, "support": [{"point": [0, 0], "value": "3/2"}, ...]}

with values as exact rational strings.  Data goes to stdout (CSV with a
header row, or canonical JSON); diagnostics go to stderr.  Rationals are
serialised as canonical "p/q" strings, so outputs are byte-identical across
runs for fixed inputs and seeds.

Exit codes: 0 success, 1 property violation, 2 bad arguments or parse
failure, 3 enumeration cap exceeded, 4 geometry/dimension mismatch.  The cap
(MAXVAR_ENUM_CAP, a positive integer, else exit 2) bounds the points `count
--enumerate` lists, and before any work each command checks these costs
against it.  Here d is --dim, the input's dimension for `maxfn` and `verify`,
and 2 (1 for the 1-D geometries) for `scan`; bitlen(K) is K's bit length.

  command   flags               cost checked
  count     --dim, --radius k   2(d+1)(k+1): the closed form's min(d, k) steps
                                times their O(d + k)-bit integers
  maxfn     --box R             (2R+1)^d points of the box
  constant  --terms K, --dim    K d bitlen(K): K exact terms whose
                                denominators have about d bitlen(K) bits
  constant  --dim               (2d)^3: the (2d)^2 steps of shifting the
                                certificate's degree-2d polynomials times
                                their O(d)-digit coefficients
  constant  --digits D          3D digits of the three decimals printed
  verify    --rmax R            the points the line sweep evaluates
  verify    --terms K           K d bitlen(K), as for `constant`
  scan      --radius r, --box R the points the line sweep evaluates for the
                                pair {0, (r, ..., r)}, which bounds every member
  scan      --terms K           K d bitlen(K), as for `constant`
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

from . import constants, lattice, maxop, varanalysis, verify
from .exact import decimal_str, format_rational, parse_rational
from .gridfn import GridFunction
from .maxop import BallSpec

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_MISMATCH = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# GridFunction document I/O
# ---------------------------------------------------------------------------

def load_gridfn(path: str) -> GridFunction:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_USAGE)
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{path}: JSON parse failure at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            EXIT_USAGE,
        )
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text: invalid byte at offset {exc.start}", EXIT_USAGE)
    except ValueError:  # json.load's int() refuses more digits than the interpreter converts
        raise CliError(f"{path}: JSON parse failure: a number has too many digits", EXIT_USAGE)
    except RecursionError:
        raise CliError(f"{path}: JSON parse failure: arrays or objects nested too deeply", EXIT_USAGE)
    try:
        dim = _integer(doc["dim"])
        entries = doc["support"]
        if dim < 1:
            raise ValueError("dim must be >= 1")
        values: dict[tuple[int, ...], Fraction] = {}
        for i, entry in enumerate(entries):
            if not isinstance(entry["point"], list):  # a string would be read digit by digit
                raise ValueError(f"support[{i}]: point is not a JSON array")
            point = tuple(map(_integer, entry["point"]))
            if len(point) != dim:
                raise ValueError(f"support[{i}]: point has wrong dimension")
            if point in values:
                raise ValueError(f"support[{i}]: duplicate point {list(point)}")
            value = parse_rational(str(entry["value"]))
            if value == 0:
                raise ValueError(f"support[{i}]: zero value not allowed")
            values[point] = value
        return GridFunction(dim, values)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{path}: invalid grid function document: {exc}", EXIT_USAGE)


def _integer(x) -> int:
    # int() would take true as 1, truncate 2.7 and parse "7", " 7 " and "1_000"
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError(f"{x!r} is not a JSON integer")
    return x


def dump_gridfn(f: GridFunction) -> dict:
    return {
        "dim": f.dim,
        "support": [
            {"point": list(p), "value": format_rational(v)} for p, v in f.items()
        ],
    }


def _spec_for(geometry: str, dim: int) -> BallSpec:
    if geometry in ("centered1d", "uncentered1d") and dim != 1:
        raise CliError(
            f"geometry {geometry} requires a 1-D input, got dim {dim}", EXIT_MISMATCH
        )
    return BallSpec(geometry, dim)


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def cmd_count(args: argparse.Namespace) -> int:
    if args.dim < 1 or args.radius < 0:
        raise CliError("need --dim >= 1 and --radius >= 0", EXIT_USAGE)
    _check_cap(2 * (args.dim + 1) * (args.radius + 1),
               f"steps times bits of the count at --dim {args.dim} --radius {args.radius}")
    print(lattice.l1_ball_count(args.dim, args.radius))
    if args.enumerate:
        for p in lattice.l1_ball_points(args.dim, args.radius, cap=_enum_cap()):
            print(" ".join(str(c) for c in p))
    return EXIT_OK


def _check_cap(cost: int, what: str) -> None:
    """Exit 3, before any work, when `what` costs more than the cap."""
    cap = _enum_cap()
    if cost > cap:
        raise CliError(f"{what}: {cost} > cap {cap}", EXIT_CAP)


def _enum_cap() -> int:
    raw = os.environ.get("MAXVAR_ENUM_CAP")
    if raw is None:
        return lattice.DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise CliError(f"MAXVAR_ENUM_CAP is not an integer: {raw!r}", EXIT_USAGE)
    if cap < 1:
        raise CliError(f"MAXVAR_ENUM_CAP must be >= 1, got {cap}", EXIT_USAGE)
    return cap


# ---------------------------------------------------------------------------
# maxfn
# ---------------------------------------------------------------------------

def cmd_maxfn(args: argparse.Namespace) -> int:
    f = load_gridfn(args.input)
    spec = _spec_for(args.geometry, f.dim)
    R = args.box
    if R < 0:
        raise CliError("--box must be >= 0", EXIT_USAGE)
    _check_cap((2 * R + 1) ** f.dim, f"points of the box at --box {R}, dim {f.dim}")
    box = ((-R,) * f.dim, (R,) * f.dim)
    values = maxop.evaluate_on_box(f, spec, box)
    try:
        out = open(args.output, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise CliError(f"cannot write {args.output}: {exc}", EXIT_USAGE)
    with out:
        writer = csv.writer(out)
        writer.writerow([f"n{i+1}" for i in range(f.dim)] + ["value", "decimal"])
        for point in sorted(values):
            v = values[point]
            writer.writerow(
                [str(c) for c in point] + [format_rational(v), decimal_str(v)]
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# constant
# ---------------------------------------------------------------------------

def cmd_constant(args: argparse.Namespace) -> int:
    kind = args.kind
    d = args.dim
    if kind == "centered" and d < 2:
        raise CliError(
            "centered constants need --dim >= 2 (the sharp 1-D centered "
            "constant is exactly 2)",
            EXIT_USAGE,
        )
    if d < 1:
        raise CliError("--dim must be >= 1", EXIT_USAGE)
    if args.digits < 0:
        raise CliError("--digits must be >= 0", EXIT_USAGE)
    K = args.terms
    _check_cap(K * d * K.bit_length(), f"bits of the partial sum at --terms {K} --dim {d}")
    _check_cap((2 * d) ** 3, f"steps times digits of the certificate at --dim {d}")
    _check_cap(3 * args.digits, f"digits printed at --digits {args.digits}")
    try:
        enc = constants.constant_enclosure(d, K, kind)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE)
    print(f"[{format_rational(enc.lower)}, {format_rational(enc.upper)}]")
    print(
        f"decimal: [{decimal_str(enc.lower, args.digits)}, "
        f"{decimal_str(enc.upper, args.digits)}]  "
        f"width {decimal_str(enc.width, args.digits)}"
    )
    print(f"tail majorant: {enc.majorant.statement}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite:
        return _run_suite(args)
    if not args.input or not args.geometry:
        raise CliError("verify needs --input and --geometry, or --suite", EXIT_USAGE)
    f = load_gridfn(args.input)
    if not f:
        raise CliError("input function is identically zero", EXIT_USAGE)
    spec = _spec_for(args.geometry, f.dim)
    try:
        epsilon = parse_rational(args.epsilon)
        # verify_inequality measures the recentered copy, so that is what is swept
        _check_cap(varanalysis.sweep_points(verify.recenter(f), args.rmax),
                   f"points of the line sweep at --rmax {args.rmax}")
        if epsilon <= 0:  # a usage error outranks the terms cap
            raise ValueError("epsilon must be positive")
        K = args.terms
        _check_cap(K * f.dim * K.bit_length(), f"bits of the partial sum at --terms {K}, dim {f.dim}")
        record, report = verify.verify_inequality(
            f, spec, epsilon, r_max=args.rmax, terms=K
        )
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE)
    payload = {
        "geometry": spec.geometry,
        "dim": spec.dim,
        "l1_norm": format_rational(record.l1_norm),
        "support_size": record.support_size,
        "is_delta": record.is_delta,
        "truncation_radius": record.truncation_radius,
        "var_lower_bound": format_rational(report.truncated_var),
        "ratio": format_rational(record.ratio),
        "bound_upper": format_rational(record.bound),
        "gap": format_rational(record.gap),
        "cap_satisfied": report.cap_satisfied,
        "stop_reason": report.stop_reason,
        "trace": [[r, format_rational(v)] for r, v in report.convergence_trace],
    }
    _emit_json(payload)
    ok = record.gap >= 0 and report.cap_satisfied
    print(
        f"{'PASS' if ok else 'FAIL'}: Var lower bound "
        f"{decimal_str(report.truncated_var, 6)} vs cap "
        f"{decimal_str(report.theoretical_cap, 6)} "
        f"(gap {decimal_str(record.gap, 6)})",
        file=sys.stderr,
    )
    return EXIT_OK if ok else EXIT_VIOLATION


def _check(name: str, ok: bool, checks: list, detail: dict | None = None) -> None:
    checks.append({"name": name, "status": "pass" if ok else "fail", **(detail or {})})
    print(f"{'PASS' if ok else 'FAIL'}: {name}", file=sys.stderr)


def _run_suite(args: argparse.Namespace) -> int:
    checks: list[dict] = []
    if args.suite == "lemmas":
        for d in range(1, 7):
            bad = lattice.check_log_concavity(d, 2000)
            detail = {"violations": [[k, str(a), str(b)] for k, a, b in bad[:10]]} if bad else None
            _check(f"log-concavity d={d} k<=2000", not bad, checks, detail)
        for d in range(1, 5):
            bad = lattice.check_gap_monotonicity(d, 500)
            detail = {"violations": [[k, str(a), str(b)] for k, a, b in bad[:10]]} if bad else None
            _check(f"gap monotonicity d={d} k<=500", not bad, checks, detail)
    elif args.suite == "sharpness":
        _sharpness_suite(checks)
    elif args.suite == "oracle":
        if args.instances < 0:
            raise CliError("--instances must be >= 0", EXIT_USAGE)
        _oracle_suite(checks, seed=args.seed, instances=args.instances)
    else:
        raise CliError(f"unknown suite {args.suite!r}", EXIT_USAGE)
    all_pass = all(c["status"] == "pass" for c in checks)
    _emit_json({"suite": args.suite, "seed": args.seed, "all_pass": all_pass, "checks": checks})
    return EXIT_OK if all_pass else EXIT_VIOLATION


def _sharpness_suite(checks: list) -> None:
    R = 1000
    v = varanalysis.truncated_variation_maxfn(
        GridFunction.delta(0), BallSpec("centered1d", 1), R
    )
    _check(
        "centered 1-D delta variation matches closed form",
        v == 2 * (1 - Fraction(1, 2 * R + 1)),
        checks,
        {"value": format_rational(v)},
    )
    _check("centered 1-D delta variation stays below 2", v < 2, checks)
    v = varanalysis.delta_variation_closed_form("cube", 2, 200)
    _check(
        "cube d=2 delta variation at R=200 within (11.8, 12)",
        Fraction(59, 5) < v < 12,
        checks,
        {"value": format_rational(v)},
    )
    enc = constants.constant_enclosure(2, 1000, "uncentered")
    _check(
        "uncentered d=2 partial sums telescope",
        enc.lower == 12 - Fraction(8, 1001) and enc.upper == 12,
        checks,
    )
    ok = True
    for K in range(1, 41):
        totals = varanalysis.delta_line_cap_totals("l1", 2, K)
        partial = sum(tot for _count, tot in totals.values())
        ok = ok and partial == constants.centered_constant_partial(2, K)
    _check("l1 d=2 line-cap sums match series partial sums (K<=40)", ok, checks)


def _oracle_suite(checks: list, seed: int, instances: int) -> None:
    import random as _random

    rng = _random.Random(seed)
    agree = 0
    total = 0
    failures = []
    for geometry in maxop.GEOMETRIES:
        for i in range(instances):
            d = 1 if geometry.endswith("1d") else rng.choice((1, 2))
            if geometry == "l1" and d == 1:
                d = 2
            f = verify.random_gridfn(
                rng.randint(0, 10**9), d, 6, rng.randint(1, 5)
            )
            n = tuple(rng.randint(-8, 8) for _ in range(d))
            fast, slow = verify.oracle_agreement(f, BallSpec(geometry, d), n)
            total += 1
            if fast.value == slow.value and fast.region == slow.region:
                agree += 1
            else:
                failures.append(
                    {"geometry": geometry, "f": dump_gridfn(f), "point": list(n)}
                )
    _check(
        f"oracle equivalence {agree}/{total}",
        agree == total,
        checks,
        {"failures": failures},
    )


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def cmd_scan(args: argparse.Namespace) -> int:
    if args.family != "two-point":
        raise CliError(f"unknown family {args.family!r}", EXIT_USAGE)
    dim = 1 if args.geometry.endswith("1d") else 2
    spec = BallSpec(args.geometry, dim)
    K = args.terms
    if args.box >= args.radius >= 0:  # else scan_extremizers names the bad argument
        # every member's support lies in [0, radius]^dim, so the pair of its
        # corners has the widest sweep
        pair = GridFunction(dim, {(0,) * dim: 1, (args.radius,) * dim: 1})
        _check_cap(varanalysis.sweep_points(pair, args.box),
                   f"points of the line sweep at --radius {args.radius} --box {args.box}")
        _check_cap(K * dim * K.bit_length(), f"bits of the partial sum at --terms {K}, dim {dim}")
    try:
        records = verify.scan_extremizers(
            spec, max_distance=args.radius, R=args.box, terms=K
        )
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE)
    writer = csv.writer(sys.stdout)
    writer.writerow(
        [
            "geometry",
            "support",
            "support_size",
            "is_delta",
            "l1_norm",
            "truncation_radius",
            "ratio",
            "bound_upper",
            "gap",
        ]
    )
    for r in records:
        writer.writerow(
            [
                spec.geometry,
                ";".join(",".join(str(c) for c in p) for p in r.support),
                r.support_size,
                int(r.is_delta),
                format_rational(r.l1_norm),
                r.truncation_radius,
                format_rational(r.ratio),
                format_rational(r.bound),
                format_rational(r.gap),
            ]
        )
    if any(r.gap < 0 for r in records):
        return EXIT_VIOLATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxvar",
        description="exact computations and sharpness checks for discrete maximal functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="cross-polytope lattice point count")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--enumerate", action="store_true")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("maxfn", help="evaluate a maximal function on a box")
    p.add_argument("--input", required=True)
    p.add_argument("--geometry", choices=maxop.GEOMETRIES, required=True)
    p.add_argument("--box", type=int, required=True, help="box radius R")
    p.add_argument("--output", required=True)
    p.add_argument("--threads", type=int, default=1, help="accepted and ignored")
    p.set_defaults(func=cmd_maxfn)

    p = sub.add_parser("constant", help="certified constant enclosure")
    p.add_argument("--kind", choices=("centered", "uncentered"), required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--digits", type=int, default=12)
    p.set_defaults(func=cmd_constant)

    p = sub.add_parser("verify", help="inequality checks / canned suites")
    p.add_argument("--input")
    p.add_argument("--geometry", choices=maxop.GEOMETRIES)
    p.add_argument("--epsilon", default="1/1000")
    p.add_argument("--rmax", type=int, default=4096)
    p.add_argument("--terms", type=int, default=1000)
    p.add_argument("--suite", choices=("lemmas", "sharpness", "oracle"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=100, help="per geometry, oracle suite")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="extremizer family sweep")
    p.add_argument("--geometry", choices=maxop.GEOMETRIES, required=True)
    p.add_argument("--family", default="two-point")
    p.add_argument("--radius", type=int, required=True, help="family max distance")
    p.add_argument("--box", type=int, required=True, help="truncation radius")
    p.add_argument("--terms", type=int, default=1000)
    p.set_defaults(func=cmd_scan)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except lattice.EnumerationCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
