import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "maxvar.cli"]


def run_cli(*args, env_extra=None, timeout=300):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, timeout=timeout
    )


def write_doc(tmp_path, name, dim, support):
    path = tmp_path / name
    path.write_text(json.dumps({"dim": dim, "support": support}))
    return str(path)


class TestCount:
    def test_examples(self):
        assert run_cli("count", "--dim", "1", "--radius", "5").stdout.splitlines()[0] == "11"
        assert run_cli("count", "--dim", "2", "--radius", "0").stdout.strip() == "1"
        assert run_cli("count", "--dim", "2", "--radius", "3").stdout.strip() == "25"

    def test_enumerate(self):
        out = run_cli("count", "--dim", "2", "--radius", "1", "--enumerate").stdout
        lines = out.splitlines()
        assert lines[0] == "5"
        assert lines[1:] == ["-1 0", "0 -1", "0 0", "0 1", "1 0"]

    def test_invalid_args_exit_2(self):
        assert run_cli("count", "--dim", "0", "--radius", "3").returncode == 2
        assert run_cli("count", "--dim", "2").returncode == 2  # argparse error

    def test_cap_exceeded_exit_3(self):
        r = run_cli(
            "count",
            "--dim",
            "2",
            "--radius",
            "100",
            "--enumerate",
            env_extra={"MAXVAR_ENUM_CAP": "10"},
        )
        assert r.returncode == 3

    def test_enumeration_past_the_cap_exit_3(self):
        # the count fits the work bound, 2 * 3 * 4 = 24 steps, but its 25
        # points do not fit the enumeration cap
        r = run_cli(
            "count", "--dim", "2", "--radius", "3", "--enumerate",
            env_extra={"MAXVAR_ENUM_CAP": "24"},
        )
        assert r.returncode == 3
        assert r.stdout == "25\n"
        assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1

    @pytest.mark.parametrize("radius, code", [("16", 3), ("15", 0)])
    def test_memo_growth_checked_against_enum_cap(self, radius, code):
        # at dim 2 the memo takes 2 * 3 * (radius + 1) entries: 102, then 96
        r = run_cli("count", "--dim", "2", "--radius", radius, env_extra={"MAXVAR_ENUM_CAP": "100"})
        assert r.returncode == code
        if code:
            assert r.stdout == ""
            assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1
        else:
            assert r.stdout == "481\n"


class TestMaxfn:
    def test_delta_centered(self, tmp_path):
        doc = write_doc(tmp_path, "f.json", 1, [{"point": [0], "value": "1"}])
        out = str(tmp_path / "out.csv")
        r = run_cli("maxfn", "--input", doc, "--geometry", "centered1d", "--box", "2", "--output", out)
        assert r.returncode == 0
        rows = Path(out).read_text().splitlines()
        assert rows[0] == "n1,value,decimal"
        values = [row.split(",")[1] for row in rows[1:]]
        assert values == ["1/5", "1/3", "1", "1/3", "1/5"]

    def test_empty_support_all_zero(self, tmp_path):
        doc = write_doc(tmp_path, "z.json", 1, [])
        out = str(tmp_path / "out.csv")
        r = run_cli("maxfn", "--input", doc, "--geometry", "uncentered1d", "--box", "1", "--output", out)
        assert r.returncode == 0
        values = [row.split(",")[1] for row in Path(out).read_text().splitlines()[1:]]
        assert values == ["0", "0", "0"]

    def test_cube_dim1_matches_uncentered1d(self, tmp_path):
        doc = write_doc(
            tmp_path, "f.json", 1,
            [{"point": [0], "value": "2/3"}, {"point": [3], "value": "5"}],
        )
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        assert run_cli("maxfn", "--input", doc, "--geometry", "cube", "--box", "6", "--output", out1).returncode == 0
        assert run_cli("maxfn", "--input", doc, "--geometry", "uncentered1d", "--box", "6", "--output", out2).returncode == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_parse_failure_exit_2_with_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 1, "support": [}')
        r = run_cli("maxfn", "--input", str(path), "--geometry", "centered1d", "--box", "1", "--output", str(tmp_path / "o.csv"))
        assert r.returncode == 2
        assert "line" in r.stderr and "column" in r.stderr

    def test_geometry_dim_mismatch_exit_4(self, tmp_path):
        doc = write_doc(tmp_path, "f2.json", 2, [{"point": [0, 0], "value": "1"}])
        r = run_cli("maxfn", "--input", doc, "--geometry", "centered1d", "--box", "1", "--output", str(tmp_path / "o.csv"))
        assert r.returncode == 4

    @pytest.mark.parametrize("box, code", [("50", 3), ("49", 0)])
    def test_box_checked_against_enum_cap(self, tmp_path, box, code):
        # 101^2 = 10,201 points at --box 50, 99^2 = 9,801 at --box 49
        doc = write_doc(tmp_path, "f.json", 2, [{"point": [0, 0], "value": "1"}])
        out = tmp_path / "o.csv"
        r = run_cli(
            "maxfn", "--input", doc, "--geometry", "l1", "--box", box, "--output", str(out),
            env_extra={"MAXVAR_ENUM_CAP": "10000"},
        )
        assert r.returncode == code
        if code:
            assert "cap" in r.stderr and "Traceback" not in r.stderr
            assert not out.exists()
        else:
            assert len(out.read_text().splitlines()) == 1 + 9801

    def test_duplicate_point_rejected(self, tmp_path):
        doc = write_doc(
            tmp_path, "dup.json", 1,
            [{"point": [0], "value": "1"}, {"point": [0], "value": "2"}],
        )
        r = run_cli("maxfn", "--input", doc, "--geometry", "centered1d", "--box", "1", "--output", str(tmp_path / "o.csv"))
        assert r.returncode == 2

    @pytest.mark.parametrize(
        "dim, support",
        [
            (1, [{"point": [0], "value": "1/0"}]),
            (2.7, [{"point": [0, 0], "value": "1"}]),
            (True, [{"point": [0], "value": "1"}]),
            (2, [{"point": [0.5, 0], "value": "1"}]),
            (2, [{"point": [True, 0], "value": "1"}]),
            (1, [{"point": [0], "value": "1e999999999"}]),
            (1, [{"point": [0], "value": "1e" + "9" * 10**6}]),
            (2, [{"point": "12", "value": "1"}]),
            ("1", [{"point": [0], "value": "1"}]),
            (1, [{"point": ["7"], "value": "1"}]),
            (1, [{"point": [" 7 "], "value": "1"}]),
            (1, [{"point": ["1_000"], "value": "1"}]),
        ],
        ids=["zero-denominator", "float-dim", "bool-dim", "float-coordinate", "bool-coordinate",
             "huge-exponent", "million-digit-exponent", "string-point", "string-dim",
             "string-coordinate", "spaced-string-coordinate", "underscored-string-coordinate"],
    )
    def test_malformed_numbers_exit_2(self, tmp_path, dim, support):
        doc = write_doc(tmp_path, "f.json", dim, support)
        out = tmp_path / "o.csv"
        r = run_cli("maxfn", "--input", doc, "--geometry", "cube", "--box", "1", "--output", str(out))
        assert r.returncode == 2 and "Traceback" not in r.stderr
        assert r.stderr.startswith("error:") and not out.exists()
        assert len(r.stderr.splitlines()) == 1 and len(r.stderr) < 200  # the input cut short

    @pytest.mark.parametrize(
        "raw",
        [
            b"\xff\xfe",
            b'{"dim": 1, "support": [{"point": [' + b"9" * 5000 + b'], "value": "1"}]}',
            b"[" * 100_000 + b"]" * 100_000,
        ],
        ids=["not-utf8", "5000-digit-integer", "deep-nesting"],
    )
    def test_undecodable_input_exit_2(self, tmp_path, raw):
        doc = tmp_path / "f.json"
        doc.write_bytes(raw)
        out = tmp_path / "o.csv"
        r = run_cli("maxfn", "--input", str(doc), "--geometry", "cube", "--box", "1", "--output", str(out))
        assert r.returncode == 2 and "Traceback" not in r.stderr
        assert r.stderr.startswith("error:") and not out.exists()
        assert len(r.stderr.splitlines()) == 1 and "9" * 41 not in r.stderr


class TestConstant:
    def test_uncentered_dim1(self):
        r = run_cli("constant", "--kind", "uncentered", "--dim", "1", "--terms", "10")
        assert r.stdout.splitlines()[0] == "[2, 2]"

    def test_uncentered_dim2_terms_999(self):
        r = run_cli("constant", "--kind", "uncentered", "--dim", "2", "--terms", "999")
        assert r.stdout.splitlines()[0] == "[1499/125, 12]"  # 12 - 8/1000

    def test_centered_dim2_zero_terms(self):
        r = run_cli("constant", "--kind", "centered", "--dim", "2", "--terms", "0")
        assert r.stdout.splitlines()[0] == "[4, 8]"

    def test_majorant_statement_on_stderr(self):
        r = run_cli("constant", "--kind", "centered", "--dim", "2", "--terms", "5")
        assert "tail majorant" in r.stderr

    def test_centered_dim1_exit_2(self):
        assert run_cli("constant", "--kind", "centered", "--dim", "1", "--terms", "5").returncode == 2

    def test_negative_digits_exit_2(self):
        r = run_cli("constant", "--kind", "centered", "--dim", "2", "--terms", "10", "--digits", "-1")
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.splitlines() == ["error: --digits must be >= 0"]

    def test_digits_past_the_int_to_str_limit(self):
        r = run_cli("constant", "--kind", "centered", "--dim", "2", "--terms", "10", "--digits", "5000")
        assert r.returncode == 0 and "Traceback" not in r.stderr
        lower = r.stdout.splitlines()[1].split("[")[1].split(",")[0]
        assert len(lower.split(".")[1]) == 5000

    # the cost is K d bitlen(K): 13 * 2 * 4 = 104, then 12 * 2 * 4 = 96
    @pytest.mark.parametrize("terms, code", [("13", 3), ("12", 0)])
    def test_terms_checked_against_enum_cap(self, terms, code):
        r = run_cli(
            "constant", "--kind", "centered", "--dim", "2", "--terms", terms,
            env_extra={"MAXVAR_ENUM_CAP": "100"},
        )
        assert r.returncode == code
        if code:
            assert r.stdout == ""
            assert len(r.stderr.splitlines()) == 1
            assert r.stderr.startswith("error: ")

    @pytest.mark.parametrize("kind, flag, value, code", [
        ("centered", "--dim", "5", 0),  # (2d)^3 = 1000
        ("uncentered", "--dim", "5", 0),
        ("centered", "--dim", "6", 3),  # 1728
        ("uncentered", "--dim", "6", 3),
        ("centered", "--digits", "333", 0),  # three decimals of 333 digits
        ("centered", "--digits", "334", 3),
    ])
    def test_dim_and_digits_checked_against_enum_cap(self, kind, flag, value, code):
        args = {"--dim": "2", "--digits": "12", flag: value}
        r = run_cli("constant", "--kind", kind, "--terms", "10", *(a for kv in args.items() for a in kv),
                    env_extra={"MAXVAR_ENUM_CAP": "1000"})
        assert r.returncode == code
        if code:
            assert r.stdout == ""
            assert len(r.stderr.splitlines()) == 1
            assert r.stderr.startswith("error: ")


class TestVerify:
    def test_suite_lemmas_passes(self):
        r = run_cli("verify", "--suite", "lemmas")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["all_pass"] is True
        assert len(payload["checks"]) == 10

    def test_suite_sharpness_passes(self):
        r = run_cli("verify", "--suite", "sharpness")
        assert r.returncode == 0
        assert json.loads(r.stdout)["all_pass"] is True

    def test_suite_oracle_small(self):
        r = run_cli("verify", "--suite", "oracle", "--seed", "7", "--instances", "5")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["all_pass"] is True
        assert payload["checks"][0]["name"] == "oracle equivalence 20/20"

    def test_single_input_delta(self, tmp_path):
        doc = write_doc(tmp_path, "f.json", 1, [{"point": [0], "value": "1"}])
        r = run_cli("verify", "--input", doc, "--geometry", "centered1d", "--epsilon", "1/1000")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["is_delta"] is True
        assert payload["bound_upper"] == "2"
        assert payload["cap_satisfied"] is True
        assert "PASS" in r.stderr

    def test_rmax_below_support_radius_exit_2(self, tmp_path):
        doc = write_doc(
            tmp_path, "f.json", 1,
            [{"point": [0], "value": "1"}, {"point": [100], "value": "1"}],
        )
        r = run_cli("verify", "--input", doc, "--geometry", "centered1d", "--rmax", "4")
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and len(r.stderr.splitlines()) == 1

    def test_centered1d_sweep_to_huge_rmax(self, tmp_path):
        # the epsilon is small enough that the doubling runs to --rmax; the
        # sweep costs O(support) at any radius, so this takes well under a
        # second (it ran out of time and memory while the ball counts were
        # memoised up to the radius)
        doc = write_doc(
            tmp_path, "f.json", 1,
            [{"point": [0], "value": "1"}, {"point": [3], "value": "-1/2"},
             {"point": [5], "value": "2/3"}],
        )
        r = run_cli("verify", "--input", doc, "--geometry", "centered1d", "--rmax", "100000000",
                    "--epsilon", "1/1000000000000000", timeout=30)
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["stop_reason"] == "rmax" and payload["truncation_radius"] == 10**8
        assert r.stderr.startswith("PASS: ") and len(r.stderr.splitlines()) == 1

    def test_missing_flags_exit_2(self):
        assert run_cli("verify").returncode == 2

    def test_zero_denominator_epsilon_exit_2(self, tmp_path):
        doc = write_doc(tmp_path, "f.json", 1, [{"point": [0], "value": "1"}])
        r = run_cli("verify", "--input", doc, "--geometry", "centered1d", "--epsilon", "1/0")
        assert r.returncode == 2 and r.stdout == "" and "Traceback" not in r.stderr
        assert r.stderr.startswith("error:") and len(r.stderr.splitlines()) == 1

    @pytest.mark.parametrize(
        "epsilon", ["1e999999999", "1e-999999999", "1e" + "9" * 10**5], ids=["big", "small", "long"]
    )
    def test_huge_exponent_epsilon_exit_2(self, tmp_path, epsilon):
        doc = write_doc(tmp_path, "f.json", 1, [{"point": [0], "value": "1"}])
        start = time.perf_counter()
        r = run_cli("verify", "--input", doc, "--geometry", "centered1d", "--epsilon", epsilon)
        assert time.perf_counter() - start < 10  # the process start included
        assert r.returncode == 2 and r.stdout == "" and "Traceback" not in r.stderr
        assert r.stderr.startswith("error:") and len(r.stderr.splitlines()) == 1
        assert len(r.stderr) < 200

    def test_off_origin_input_swept_after_recentering(self, tmp_path):
        # the delta at 100 is measured at the origin, so --rmax 4 covers it
        outs = []
        for point in (100, 0):
            doc = write_doc(tmp_path, f"f{point}.json", 1, [{"point": [point], "value": "1"}])
            r = run_cli("verify", "--input", doc, "--geometry", "centered1d", "--rmax", "4")
            assert r.returncode == 0
            outs.append((r.stdout, r.stderr))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("cap, code", [("118", 3), ("119", 0)])
    def test_sweep_at_rmax_checked_against_enum_cap(self, tmp_path, cap, code):
        # at R = 8: 17 lines of 4 stops along the first axis, 17 of 3 along the second
        doc = write_doc(
            tmp_path, "f.json", 2,
            [{"point": [0, 0], "value": "1"}, {"point": [1, 0], "value": "1/2"}],
        )
        r = run_cli("verify", "--input", doc, "--geometry", "l1", "--rmax", "8", "--terms", "10",
                    env_extra={"MAXVAR_ENUM_CAP": cap})
        assert r.returncode == code
        if code:
            assert r.stdout == ""
            assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1

    def test_negative_oracle_instances_exit_2(self):
        r = run_cli("verify", "--suite", "oracle", "--instances", "-1")
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.startswith("error:") and len(r.stderr.splitlines()) == 1

    def test_l1_on_1d_input_equals_centered1d(self, tmp_path):
        doc = write_doc(
            tmp_path, "f.json", 1,
            [{"point": [-3], "value": "2/3"}, {"point": [0], "value": "-1"}, {"point": [4], "value": "5/2"}],
        )
        l1 = run_cli("verify", "--input", doc, "--geometry", "l1")
        interval = run_cli("verify", "--input", doc, "--geometry", "centered1d")
        assert l1.returncode == interval.returncode == 0
        a, b = json.loads(l1.stdout), json.loads(interval.stdout)
        assert a.pop("geometry") == "l1" and b.pop("geometry") == "centered1d"
        assert a == b


class TestScan:
    def test_unknown_family_exit_2(self):
        r = run_cli("scan", "--geometry", "centered1d", "--family", "rings", "--radius", "2", "--box", "50")
        assert r.returncode == 2

    def test_two_point_1d(self):
        r = run_cli("scan", "--geometry", "centered1d", "--family", "two-point", "--radius", "2", "--box", "100")
        assert r.returncode == 0
        rows = r.stdout.splitlines()
        assert rows[0].startswith("geometry,support,")
        gaps = [row.split(",")[-1] for row in rows[1:]]
        from fractions import Fraction as Q

        parsed = [Q(g) for g in gaps]
        assert parsed == sorted(parsed)
        assert all(g > 0 for g in parsed)
        # first row is the delta
        assert rows[1].split(",")[3] == "1"

    @pytest.mark.parametrize(
        "args",
        [
            ("--radius", "5", "--box", "3"),
            ("--radius", "2", "--box", "10", "--terms", "-1"),
            ("--radius", "-1", "--box", "10"),
        ],
    )
    def test_bad_arguments_exit_2(self, args):
        r = run_cli("scan", "--geometry", "cube", *args)
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.startswith("error:") and len(r.stderr.splitlines()) == 1

    @pytest.mark.parametrize("box, code", [("20", 3), ("19", 0)])
    def test_sweep_at_box_checked_against_enum_cap(self, box, code):
        # the widest member {(0, 0), (1, 1)} has 4 stops on each of 2 (2R + 1)
        # lines: 328 points at R = 20, 312 at R = 19
        r = run_cli("scan", "--geometry", "cube", "--radius", "1", "--box", box, "--terms", "10",
                    env_extra={"MAXVAR_ENUM_CAP": "320"})
        assert r.returncode == code
        if code:
            assert r.stdout == ""
            assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1

    def test_radius_zero_prints_the_delta_row(self):
        r = run_cli("scan", "--geometry", "cube", "--radius", "0", "--box", "10")
        assert r.returncode == 0
        assert r.stdout.splitlines()[1:] == ['cube,"0,0",1,1,1,10,6362/605,12,898/605']

    def test_gaps_over_4300_digits_print_in_full(self):
        r = run_cli("scan", "--geometry", "l1", "--radius", "5", "--box", "1000")
        assert r.returncode == 0, r.stderr
        longest = max(len(field) for row in r.stdout.splitlines() for field in row.split(","))
        assert longest > 4300


class TestTermsCap:
    """`verify` and `scan` refuse --terms K whose cost K d bitlen(K), or
    K (d-1) bitlen(K) uncentered, is above MAXVAR_ENUM_CAP before summing, as
    `constant` does; a usage error still exits 2 first.  At d = 1 every bound
    is exactly 2, and Ct(2) telescopes: --terms costs 0 there."""

    @pytest.fixture
    def delta(self, tmp_path):
        return write_doc(tmp_path, "delta.json", 2, [{"point": [0, 0], "value": "1"}])

    def _commands(self, delta, terms):
        return [
            ("verify", "--input", delta, "--geometry", "l1", "--rmax", "2", "--terms", terms),
            ("scan", "--geometry", "l1", "--radius", "0", "--box", "1", "--terms", terms),
        ]

    # at dim 2: 42 * 2 * 6 = 504, then 41 * 2 * 6 = 492
    @pytest.mark.parametrize("terms, code", [("42", 3), ("41", 0)])
    def test_terms_checked_against_enum_cap(self, delta, terms, code):
        for args in self._commands(delta, terms):
            r = run_cli(*args, env_extra={"MAXVAR_ENUM_CAP": "500"})
            assert r.returncode == code, args
            if code:
                assert r.stdout == ""
                assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1

    # the cost at d = 1 would be 10^6 * 1 * 20 = 2 * 10^7, past the default cap
    @pytest.mark.parametrize("args", [
        ("verify", "--input", "{doc}", "--geometry", "centered1d"),
        ("verify", "--input", "{doc}", "--geometry", "uncentered1d"),
        ("scan", "--geometry", "centered1d", "--radius", "1", "--box", "2"),
        ("constant", "--kind", "uncentered", "--dim", "1"),
    ], ids=["verify-centered1d", "verify-uncentered1d", "scan-centered1d", "constant-uncentered"])
    def test_1d_terms_cost_nothing(self, tmp_path, args):
        doc = write_doc(tmp_path, "delta1.json", 1, [{"point": [0], "value": "1"}])
        args = tuple(a.format(doc=doc) for a in args)
        many, few = (run_cli(*args, "--terms", terms) for terms in ("1000000", "1000"))
        assert many.returncode == few.returncode == 0, many.stderr
        assert many.stdout == few.stdout

    # uncentered, the terms sum over k^(d-1): at dim 3, 42 * 2 * 6 = 504, then 41 * 2 * 6 = 492
    @pytest.mark.parametrize("terms, code", [("42", 3), ("41", 0)])
    def test_uncentered_terms_cost_d_minus_1(self, terms, code):
        r = run_cli("constant", "--kind", "uncentered", "--dim", "3", "--terms", terms,
                    env_extra={"MAXVAR_ENUM_CAP": "500"})
        assert r.returncode == code
        if code:
            assert r.stdout == ""
            assert r.stderr == "error: bits of the partial sum at --terms 42 --dim 3: 504 > cap 500\n"

    # Ct(2) telescopes; the cost at d = 2 would be 10^6 * 1 * 20 = 2 * 10^7, past the default cap
    @pytest.mark.parametrize("args", [
        ("verify", "--input", "{doc}", "--geometry", "cube", "--rmax", "2"),
        ("scan", "--geometry", "cube", "--radius", "0", "--box", "1"),
        ("constant", "--kind", "uncentered", "--dim", "2"),
    ], ids=["verify-cube", "scan-cube", "constant-uncentered"])
    def test_uncentered_d2_terms_cost_nothing(self, delta, args):
        args = tuple(a.format(doc=delta) for a in args)
        many, few = (run_cli(*args, "--terms", terms) for terms in ("1000000", "1000"))
        assert many.returncode == few.returncode == 0, many.stderr
        if args[0] == "constant":
            assert many.stdout.splitlines()[0] == "[12000004/1000001, 12]"
        else:
            assert many.stdout == few.stdout

    # the 1-D bounds sum nothing, yet a negative K is still a usage error
    @pytest.mark.parametrize("args", [
        ("verify", "--input", "{doc}", "--geometry", "centered1d"),
        ("verify", "--input", "{doc}", "--geometry", "uncentered1d"),
        ("scan", "--geometry", "centered1d", "--radius", "1", "--box", "2"),
        ("scan", "--geometry", "uncentered1d", "--radius", "1", "--box", "2"),
    ], ids=["verify-centered1d", "verify-uncentered1d", "scan-centered1d", "scan-uncentered1d"])
    def test_1d_negative_terms_exit_2(self, tmp_path, args):
        doc = write_doc(tmp_path, "delta1.json", 1, [{"point": [0], "value": "1"}])
        r = run_cli(*(a.format(doc=doc) for a in args), "--terms", "-1")
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == "error: K must be >= 0\n"

    def test_usage_errors_outrank_the_terms_cap(self, delta):
        verify_args, _ = self._commands(delta, "1000")
        for args in [
            verify_args + ("--epsilon", "0"),
            ("scan", "--geometry", "cube", "--radius", "2", "--box", "1", "--terms", "1000"),
        ]:
            r = run_cli(*args, env_extra={"MAXVAR_ENUM_CAP": "500"})
            assert r.returncode == 2, args
            assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1


class TestCapValue:
    """MAXVAR_ENUM_CAP must be a positive integer: zero or a negative value
    is a usage error, not a cap that every input exceeds."""

    @pytest.mark.parametrize("cap", ["0", "-5"])
    @pytest.mark.parametrize("args", [
        ("constant", "--kind", "centered", "--dim", "2", "--terms", "-1"),
        ("constant", "--kind", "centered", "--dim", "2", "--terms", "10"),
        ("count", "--dim", "2", "--radius", "1"),
    ])
    def test_nonpositive_cap_exit_2(self, cap, args):
        r = run_cli(*args, env_extra={"MAXVAR_ENUM_CAP": cap})
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1

    def test_cap_of_one(self):
        # one sweep point, one summed term; no `constant` fits: its --dim and
        # --digits cost more than 1
        r = run_cli("scan", "--geometry", "centered1d", "--radius", "0", "--box", "0",
                    "--terms", "1", env_extra={"MAXVAR_ENUM_CAP": "1"})
        assert r.returncode == 0
        r = run_cli("count", "--dim", "2", "--radius", "1", env_extra={"MAXVAR_ENUM_CAP": "1"})
        assert r.returncode == 3


class TestCapRefusals:
    """Every cost checked before any work refuses the same way, and names
    the flags that set it."""

    PAIR = [{"point": [0, 0], "value": "1"}, {"point": [1, 0], "value": "1/2"}]

    @pytest.mark.parametrize("cap, args, flags", [
        ("100", ("count", "--dim", "2", "--radius", "16"), ("--dim", "--radius")),
        ("10000", ("maxfn", "--input", "{doc}", "--geometry", "l1", "--box", "50",
                   "--output", "{out}"), ("--box",)),
        ("100", ("constant", "--kind", "centered", "--dim", "2", "--terms", "13"),
         ("--terms", "--dim")),
        ("1000", ("constant", "--kind", "centered", "--dim", "6", "--terms", "10"), ("--dim",)),
        ("1000", ("constant", "--kind", "centered", "--dim", "2", "--terms", "10",
                  "--digits", "334"), ("--digits",)),
        ("118", ("verify", "--input", "{doc}", "--geometry", "l1", "--rmax", "8", "--terms", "10"),
         ("--rmax",)),
        ("500", ("verify", "--input", "{doc}", "--geometry", "l1", "--rmax", "2", "--terms", "42"),
         ("--terms",)),
        ("320", ("scan", "--geometry", "cube", "--radius", "1", "--box", "20", "--terms", "10"),
         ("--radius", "--box")),
        ("500", ("scan", "--geometry", "l1", "--radius", "0", "--box", "1", "--terms", "42"),
         ("--terms",)),
    ], ids=["count", "maxfn-box", "constant-terms", "constant-dim", "constant-digits",
            "verify-rmax", "verify-terms", "scan-box", "scan-terms"])
    def test_refusal_names_its_flags(self, tmp_path, cap, args, flags):
        paths = {"doc": write_doc(tmp_path, "f.json", 2, self.PAIR), "out": str(tmp_path / "o.csv")}
        r = run_cli(*(a.format(**paths) for a in args), env_extra={"MAXVAR_ENUM_CAP": cap})
        assert r.returncode == 3 and r.stdout == ""
        assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1
        assert all(flag in r.stderr for flag in flags), r.stderr


class TestFormatRational:
    def test_more_than_4300_digits(self):
        from fractions import Fraction as Q

        from maxvar.exact import format_rational

        def parse(digits):  # int(str) has the same digit limit, so go in chunks
            n = 0
            for i in range(0, len(digits), 1000):
                chunk = digits[i : i + 1000]
                n = n * 10 ** len(chunk) + int(chunk)
            return n

        q = Q(-(7**6000) - 3, 11**5000)
        num, den = format_rational(q).split("/")
        assert num.startswith("-") and len(num) > 4300 and len(den) > 4300
        assert Q(parse(num[1:]), parse(den)) == -q
        assert format_rational(Q(-5)) == "-5" and format_rational(Q(3, 4)) == "3/4"


class TestDocumentRoundTrip:
    def test_write_then_read_is_identity(self, tmp_path):
        from fractions import Fraction as Q

        from maxvar.cli import dump_gridfn, load_gridfn
        from maxvar.gridfn import GridFunction

        f = GridFunction(2, {(0, 0): Q(1), (2, -1): Q(-7, 3), (5, 5): Q(4)})
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(dump_gridfn(f)))
        assert load_gridfn(str(path)) == f


class TestDeterminism:
    def test_scan_byte_identical(self):
        a = run_cli("scan", "--geometry", "uncentered1d", "--family", "two-point", "--radius", "3", "--box", "64")
        b = run_cli("scan", "--geometry", "uncentered1d", "--family", "two-point", "--radius", "3", "--box", "64")
        assert a.stdout == b.stdout and a.returncode == b.returncode == 0

    def test_oracle_suite_byte_identical(self):
        args = ("verify", "--suite", "oracle", "--seed", "11", "--instances", "3")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_maxfn_byte_identical(self, tmp_path):
        doc = write_doc(
            tmp_path, "f.json", 2,
            [{"point": [0, 0], "value": "1"}, {"point": [1, 2], "value": "7/3"}],
        )
        outs = []
        for name in ("a.csv", "b.csv"):
            out = str(tmp_path / name)
            assert run_cli("maxfn", "--input", doc, "--geometry", "l1", "--box", "4", "--output", out).returncode == 0
            outs.append(Path(out).read_bytes())
        assert outs[0] == outs[1]


class TestGoldenOutputs:
    """sha256 of the raw stdout bytes of fixed commands: a refactor of the
    operators or of the variation code must leave every byte as it is."""

    @pytest.mark.parametrize(
        "args, digest",
        [
            (("scan", "--geometry", "centered1d", "--radius", "3", "--box", "128"),
             "f3a50ef6cc0e00bd00e23dcb1fe5542b35a1263ec5d660c837baa65bf083e432"),
            (("scan", "--geometry", "uncentered1d", "--radius", "3", "--box", "128"),
             "f587cea3eb5393468632efc50bc62f8dcfe6aa57673e1eaa826a10183d2919d9"),
            (("scan", "--geometry", "l1", "--radius", "3", "--box", "128"),
             "b123c6372b779c6cd7065e946034916226fb5be44c09908e5f555caff29f9aac"),
            (("scan", "--geometry", "cube", "--radius", "3", "--box", "128"),
             "40da68c190c4debb10efe0c43cf78eff3ff607905e2e638990095de6287774e8"),
            (("verify", "--suite", "sharpness"),
             "d205fb13b7de76a348f26331f9af1bf6ae32bd6423a0704b1b1593884078f4fb"),
            (("count", "--dim", "3", "--radius", "12", "--enumerate"),
             "e6f0bde312792dc7b8b3a266e49762c2638f227636cb8b13b893dc6708f32046"),
            (("count", "--dim", "6", "--radius", "100000"),
             "dc2bec69ce4cd9db689811b2ea8826a54257081fedec20c5e7b144cc8c9c6f79"),
            (("constant", "--kind", "centered", "--dim", "3", "--terms", "2000"),
             "fc3237ed3522fb2fb492c8e3da9ff0fa867941e0ddd0f3eb2cfaa1da8234cf98"),
            (("constant", "--kind", "uncentered", "--dim", "4", "--terms", "2000"),
             "ee680cff4b8a44d273220a6f95e9bc74805976e1ad63be004cb0c8342bbc0ed8"),
        ],
        ids=["scan-centered1d", "scan-uncentered1d", "scan-l1", "scan-cube", "sharpness",
             "count-enumerate", "count-d6", "constant-centered3", "constant-uncentered4"],
    )
    def test_stdout_digest(self, args, digest):
        r = subprocess.run(CLI + list(args), capture_output=True, timeout=300)
        assert r.returncode == 0, r.stderr
        assert hashlib.sha256(r.stdout).hexdigest() == digest

    @pytest.mark.parametrize(
        "kind, dim, stdout_digest, stderr_digest",
        [
            ("centered", 2,
             "3c226dc6480a0055280a24a2ccce17532e7c4ba0d16c32131ede6f9d89fd473f",
             "59eb437ca39f0038798a553916e626aacbaa789fb2a9cace797b4265a6ba443e"),
            ("centered", 3,
             "8f9fa9204eb9de178dd3f0f7880fa1a0f3bf5d87d21fdf9405a2877aa61b0f32",
             "c97f550dfcc5e71723a3798db794906cf9ddb2e4a9d67998191e91661c13c80f"),
            ("centered", 4,
             "9c1178fd15c4d052c35136f0462de9163b364155149c788a67d2e4f9b71e3011",
             "f37dc7095b352427b97b218bd902dbf6660292dbc2b5d650c0a9b5e4b11254fb"),
            ("centered", 5,
             "72735f9a0d3931ccf559b52c08fa21acf5410acb2f884b43bcc4a713cff505aa",
             "7d2d1100c0c352af0cf0a1af6b97e5cac7c4863b5e33e82c426f0a945aff7925"),
            ("centered", 6,
             "57ad67ac2cbf451e033f9dd2574f79d35029136109a7419526ee3e71700cbdf3",
             "7fe53041b8dfa2c72a634426dffa9b6b20fc98938ce3e0bcd324c9fd7b093a77"),
            ("uncentered", 2,
             "7e4a769f9ecbd51b2c564971a27ef0c412a05b136370411db27af0e2f6b91137",
             "89b41f5db687204927e23e9fecb7a864959c4cd77955a6764cbe2ccd7bed3004"),
            ("uncentered", 3,
             "2c2e0624a82cda6008bb9d4bd34b04bc165159680879b4510e7799d0544e08a7",
             "f37dc7095b352427b97b218bd902dbf6660292dbc2b5d650c0a9b5e4b11254fb"),
            ("uncentered", 4,
             "e1a22372a5520cb0d78ab7fd585ff4d949d2e9d7f6912e6aa9e5fabf3faea3bc",
             "8b1835316fdd8f0dbd7d2f5aa827d96861a330c8047bc0c2d51f71c69ce7008e"),
            ("uncentered", 5,
             "de6722400e4827b8310168905a236bb6eec3cf1f20f595e78194a9310e727e41",
             "cb437154a7d31662f3dbe69541ab31ee67f7b23e35281c5cd3f9b357aa92833a"),
            ("uncentered", 6,
             "1ababdbee4509395ceb7b342dac8636c08882e9aebd5cd60d227eb5a27a6b427",
             "601efb63d187dad4db96f9bb84f249f15b5852d7b9673ba80be78d0af1ca8898"),
        ],
    )
    def test_constant_digests(self, kind, dim, stdout_digest, stderr_digest):
        args = ("constant", "--kind", kind, "--dim", str(dim), "--terms", "1500")
        r = subprocess.run(CLI + list(args), capture_output=True, timeout=300)
        assert r.returncode == 0, r.stderr
        assert hashlib.sha256(r.stdout).hexdigest() == stdout_digest
        assert hashlib.sha256(r.stderr).hexdigest() == stderr_digest

    SIGNED_2D = [{"point": [0, 0], "value": "3/2"}, {"point": [2, -1], "value": "-1/3"},
                 {"point": [-1, 3], "value": "2"}]
    PAIR_3D = [{"point": [0, 0, 0], "value": "1"}, {"point": [1, -2, 1], "value": "-5/7"}]

    @pytest.mark.parametrize(
        "geometry, dim, support, digest",
        [
            ("l1", 2, SIGNED_2D, "4a78b96cea25051d325f74f5d80ded2d2c6bb7f3a4d8dd8e36918a95d796ed01"),
            ("cube", 2, SIGNED_2D, "9d389e28e31fdbc2e3de5e4d1559d9ab87b710317d1345f59b4d04eca2ac433a"),
            ("l1", 3, PAIR_3D, "2f68aa244951b4fb78a9b24024b7124f1337accbf331edf4f170732d62a50661"),
            ("cube", 3, PAIR_3D, "4d74be39328d4db91e80f926e4924e0c1fedfbd7a017fa2f46649e5ff8eaddee"),
        ],
        ids=["l1-2d", "cube-2d", "l1-3d", "cube-3d"],
    )
    def test_maxfn_output_digest(self, tmp_path, geometry, dim, support, digest):
        out = tmp_path / "out.csv"
        args = ("maxfn", "--input", write_doc(tmp_path, "f.json", dim, support),
                "--geometry", geometry, "--box", "3", "--output", str(out))
        r = subprocess.run(CLI + list(args), capture_output=True, timeout=300)
        assert r.returncode == 0, r.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "geometry, digest",
        [
            ("l1", "68f7e23481b2cd86dfb300126fb82dec50cb436b41f297dcaaf4a789f093591e"),
            ("cube", "6ae65b7103f68a66b7866c3ae3ea066254a633f4b3559b96bf5d946b4ecdc1a6"),
        ],
    )
    def test_verify_input_digest(self, tmp_path, geometry, digest):
        args = ("verify", "--input", write_doc(tmp_path, "f.json", 3, self.PAIR_3D),
                "--geometry", geometry, "--rmax", "8")
        r = subprocess.run(CLI + list(args), capture_output=True, timeout=300)
        assert r.returncode == 0, r.stderr
        assert hashlib.sha256(r.stdout).hexdigest() == digest
