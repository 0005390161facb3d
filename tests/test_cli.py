"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import borderings
import borderings.cli as cli_module
import borderings.factored as factored_module
import borderings.factorials as factorials_module
import borderings.ordering as ordering_module
import borderings.verify as verify_module
from borderings import tables
from borderings.cli import DECIMAL_BITS_MAX, EXPONENTS_K_MAX, ROWPRODUCT_N_MAX, build_parser, main
from borderings.closedforms import alpha_Z
from borderings.factored import (
    AUTO_K_MAX_P,
    AUTO_K_MAX_Z,
    BASE_SPEC_MAX,
    FactoredNumber,
    group_digits,
    parse_base_spec,
)
from borderings.intsets import RANGE_WIDTH_MAX, parse_set_spec
from borderings.ordering import b_ordering


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExponents:
    def test_integers(self, capsys):
        code, out, _ = run_cli(capsys, "exponents", "--set", "Z", "--base", "2", "--k", "4")
        assert code == 0
        rows = [line.split() for line in out.splitlines()[2:]]
        assert [r[1] for r in rows] == ["0", "0", "1", "1", "3"]

    def test_finite_set_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "exponents", "--set", "list:0,1,2,3,4,5", "--base", "6", "--k", "7",
            "--format", "csv",
        )
        assert code == 0
        data = [line.split(",") for line in out.splitlines()[2:]]
        assert [d[1] for d in data] == ["0"] * 6 + ["inf", "inf"]

    def test_base_one_text_uses_symbol(self, capsys):
        code, out, _ = run_cli(capsys, "exponents", "--set", "P", "--base", "1", "--k", "2")
        assert code == 0
        assert out.count("∞") == 2

    def test_bad_spec_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "exponents", "--set", "what", "--base", "2", "--k", "3")
        assert code == 2 and "set spec" in err

    def test_oversized_range_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "exponents", "--set", "range:0..1000000", "--base", "2", "--k", "3"
        )
        assert code == 2 and "limit" in err

    def test_oversized_file_exits_2_before_any_work(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "set.txt"
        path.write_text("".join(f"{v}\n" for v in range(RANGE_WIDTH_MAX)))
        assert len(parse_set_spec(f"file:{path}").values) == RANGE_WIDTH_MAX
        with open(path, "a") as fh:
            fh.write(f"{RANGE_WIDTH_MAX}\n")

        def no_work(*args, **kwargs):
            raise AssertionError("exponents started work on an oversized set file")

        monkeypatch.setattr(cli_module, "exponent_sequence", no_work)
        code, out, err = run_cli(capsys, "exponents", "--set", f"file:{path}", "--base", "6", "--k", "3")
        assert code == 2 and out == ""
        assert f"{RANGE_WIDTH_MAX + 1} members; the limit is {RANGE_WIDTH_MAX}" in err

    def test_deep_progression_is_certified(self, capsys):
        # every class mod 2^l with l <= 12 that meets the set holds the whole
        # prefix, so the greedy reference walks deeper than 12 levels
        argv = ("exponents", "--set", "ap:0,4096", "--base", "2", "--k", "3")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and "source=closed-form" in out.splitlines()[0]
        rows = [line.split() for line in out.splitlines()[2:]]
        assert [r[1] for r in rows] == ["0", "12", "25", "37"]
        run = b_ordering(parse_set_spec("ap:0,4096"), 2, 3)
        assert [str(v.value) for v in run.exponents] == [r[1] for r in rows]

    def test_wide_list_is_parsed_without_listing_its_span(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "exponents", "--set", "list:0,1,10000000000", "--base", "2", "--k", "2")
        assert code == 0 and "source=greedy" in out.splitlines()[0]
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("spec", ["range:-4..5", "ap:3,12", "list:14,2,8,20"])
    def test_progressions_take_the_closed_form_unless_forced(self, capsys, spec):
        argv = ("exponents", "--set", spec, "--base", "6", "--k", "12", "--format", "json")
        doc = json.loads(run_cli(capsys, *argv)[1])
        assert doc["config"]["source"] == "closed-form"
        greedy = b_ordering(parse_set_spec(spec), 6, 12).exponents  # INF past |S| - 1
        assert doc["results"] == [
            {"i": i, "alpha": str(v.value) if v.is_finite else "inf"} for i, v in enumerate(greedy)
        ]

    def test_k_over_the_limit_exits_2_before_any_work(self, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("exponents started work past the k limit")

        monkeypatch.setattr(cli_module, "parse_set_spec", no_work)
        monkeypatch.setattr(cli_module, "exponent_sequence", no_work)
        for k in (EXPONENTS_K_MAX + 1, 10**10):
            code, out, err = run_cli(capsys, "exponents", "--set", "ap:0,1", "--base", "2", "--k", str(k))
            assert code == 2 and out == ""
            assert f"k <= {EXPONENTS_K_MAX}" in err

    def test_k_at_the_limit(self, capsys):
        code, out, _ = run_cli(
            capsys, "exponents", "--set", "ap:0,1", "--base", "2", "--k", str(EXPONENTS_K_MAX),
            "--format", "csv",
        )
        lines = out.splitlines()
        assert code == 0 and len(lines) == EXPONENTS_K_MAX + 3
        assert lines[-1] == f"{EXPONENTS_K_MAX},{alpha_Z(EXPONENTS_K_MAX, 2)}"


class TestParserReuse:
    ARGVS = (
        ("exponents", "--set", "ap:3,12", "--base", "6", "--k", "5", "--format", "json"),
        ("exponents", "--set", "range:-4..5", "--base", "6", "--k", "5"),
        ("factorial", "--set", "N", "--bases", "list:0,1,2,6", "--k", "3", "--format", "csv"),
        ("binomial", "--set", "list:1,5,9,14", "--bases", "list:2,3", "--k", "3", "--l", "1"),
        ("rowproduct", "--n", "6", "--x", "4"),
        ("rowproduct", "--n", "6"),
        ("tables", "--which", "3", "--format", "csv"),
        ("verify", "--suite", "tables", "--seed", "3", "--scale", "0.2"),
        ("exponents", "--set", "Z", "--base", "2"),  # no --k: usage error
        ("--version",),
    )

    def test_reused_parser_gives_the_bytes_of_a_fresh_one(self, capsys):
        fresh = {}
        for argv in self.ARGVS:
            cli_module._parser.cache_clear()
            fresh[argv] = run_cli(capsys, *argv)
        for order in (self.ARGVS, self.ARGVS[::-1]):
            cli_module._parser.cache_clear()
            for argv in order:
                assert run_cli(capsys, *argv) == fresh[argv], argv
            assert cli_module._parser.cache_info().misses == 1


# stderr after "error: " for base specs that must exit 2
BAD_BASE_SPECS = {
    "upto:1": "bad base spec 'upto:1': base cutoff must be >= 2, got 1",
    "upto:x": "bad base spec 'upto:x': invalid literal for int() with base 10: 'x'",
    "upto:": "bad base spec 'upto:': invalid literal for int() with base 10: ''",
    "upto:10001": "bad base spec 'upto:10001': base cutoff 10001 is over the limit 10000",
    "primes:-3": "bad base spec 'primes:-3': prime cutoff must be >= 2, got -3",
    "primes:1.5": "bad base spec 'primes:1.5': invalid literal for int() with base 10: '1.5'",
    "primes:10001": "bad base spec 'primes:10001': prime cutoff 10001 is over the limit 10000",
    "list:a": "bad base spec 'list:a': invalid literal for int() with base 10: 'a'",
    "list:-1": "bad base spec 'list:-1': bases must be >= 0, got -1",
    "list:2,,x": "bad base spec 'list:2,,x': invalid literal for int() with base 10: 'x'",
    "range:5": "bad base spec 'range:5': expected range:lo..hi",
    "range:5..1": "bad base spec 'range:5..1': bad base range 5..1",
    "range:a..b": "bad base spec 'range:a..b': invalid literal for int() with base 10: 'a'",
    "range:-1..3": "bad base spec 'range:-1..3': bad base range -1..3",
    "range:0..10001": "bad base spec 'range:0..10001': base range width 10002 is over the limit 10000",
    "nope": "unrecognised base spec 'nope'",
    "": "unrecognised base spec ''",
}


class TestFactoredCommands:
    def test_factorial_table_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "factorial", "--set", "Z", "--bases", "auto", "--k", "19"
        )
        assert code == 0
        assert "2^44 * 3^19 * 5^5 * 7^3 * 11 * 13 * 17 * 19" in out
        assert "1,012,293,271,997,777,582,457,303,859,200,000" in out

    def test_integer_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "integer", "--set", "Z", "--bases", "auto", "--n", "36", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        row = doc["results"][0]
        assert row["decimal"] == "362,797,056"
        assert row["factored"] == "2^11 * 3^11"

    def test_binomial_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "binomial", "--set", "Z", "--bases", "auto", "--k", "9", "--l", "4"
        )
        assert code == 0 and "54,432" in out

    def test_integer_over_no_bases_is_one(self, capsys):
        # over T = {} every factorial is the empty product, past |S| too
        for n in ("1", "2", "5"):
            code, out, _ = run_cli(
                capsys, "integer", "--set", "list:1,2", "--bases", "list:", "--n", n, "--format", "csv"
            )
            assert code == 0 and out.splitlines()[2:] == ["1,1,1"], n

    def test_json_factored_round_trip(self, capsys):
        for args in (
            ["factorial", "--set", "Z", "--bases", "auto", "--k", "14"],
            ["integer", "--set", "Z", "--bases", "auto", "--n", "48"],
            ["binomial", "--set", "Z", "--bases", "auto", "--k", "10", "--l", "5"],
        ):
            code, out, _ = run_cli(capsys, *args, "--format", "json")
            assert code == 0
            row = json.loads(out)["results"][0]
            parsed = FactoredNumber.parse(row["factored"])
            assert parsed == FactoredNumber.parse(row["factored"])
            assert f"{parsed.value():,}" == row["decimal"]
            assert FactoredNumber.parse(row["factored_bases"]).value() == parsed.value()

    @pytest.mark.parametrize("spec,k_max", [("Z", 12), ("P", 6)])
    def test_force_greedy_matches_closed_forms(self, capsys, monkeypatch, spec, k_max):
        # the expected rows are built per base from canonical greedy runs
        S, auto = parse_set_spec(spec), parse_base_spec("auto")
        runs = {b: b_ordering(S, b, k_max).exponents for b in auto.resolve(S, k_max)}

        def expected(k, *ks):
            value = FactoredNumber(
                {b: runs[b][k].value - sum(runs[b][j].value for j in ks) for b in auto.resolve(S, k)}
            )
            return [{
                "decimal": group_digits(value.value()),
                "factored": value.refine_to_primes().format_factored(),
                "factored_bases": value.format_factored(),
            }]

        calls = 0
        original = ordering_module.b_ordering

        def counting_b_ordering(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(ordering_module, "b_ordering", counting_b_ordering)
        queries = [(("factorial", "--k", str(k)), (k,)) for k in range(k_max + 1)]
        queries += [(("integer", "--n", str(n)), (n, n - 1)) for n in range(1, k_max + 1)]
        queries += [
            (("binomial", "--k", str(k_max), "--l", str(l)), (k_max, l, k_max - l)) for l in range(k_max + 1)
        ]
        for query, ks in queries:
            code, out, _ = run_cli(capsys, *query, "--set", spec, "--bases", "auto", "--format", "json")
            assert code == 0
            assert calls == 0, query  # closed forms serve Z and P
            assert json.loads(out)["results"] == expected(*ks), query

    def test_auto_bases_rejected_off_ZP(self, capsys):
        code, _, err = run_cli(
            capsys, "factorial", "--set", "ap:1,4", "--bases", "auto", "--k", "3"
        )
        assert code == 2 and "auto" in err

    @pytest.mark.parametrize(
        "query,spec,limit",
        [
            (("factorial", "--k"), "P", AUTO_K_MAX_P),
            (("integer", "--n"), "Z", AUTO_K_MAX_Z),
            (("binomial", "--l", "1", "--k"), "N", AUTO_K_MAX_Z),
        ],
    )
    def test_auto_bases_over_the_k_limit_exit_2_before_any_work(
        self, capsys, monkeypatch, query, spec, limit
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("base resolution started work past the k limit")

        monkeypatch.setattr(factored_module, "totients_and_omegas", no_work)
        monkeypatch.setattr(factorials_module, "invariants", no_work)
        code, out, err = run_cli(
            capsys, *query, str(limit + 1), "--set", spec, "--bases", "auto"
        )
        assert code == 2 and out == ""
        assert f"k <= {limit}" in err

    def test_oversized_base_spec_exits_2_before_any_work(self, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("base resolution started work past the size limit")

        monkeypatch.setattr(factorials_module, "invariants", no_work)
        code, out, err = run_cli(
            capsys, "factorial", "--set", "Z", "--bases", f"upto:{BASE_SPEC_MAX + 1}", "--k", "3"
        )
        assert code == 2 and out == ""
        assert "limit" in err

    def test_oversized_base_list_exits_2_before_any_work(self, capsys, monkeypatch):
        # 10,001 bases: about 49 KB, one argv string under the 128 KiB cap
        def no_work(*args, **kwargs):
            raise AssertionError("factorial started work on an oversized base list")

        monkeypatch.setattr(factorials_module, "invariants", no_work)
        bases = "list:" + ",".join(map(str, range(2, BASE_SPEC_MAX + 3)))
        code, out, err = run_cli(capsys, "factorial", "--set", "Z", "--bases", bases, "--k", "3")
        assert code == 2 and out == ""
        assert err.startswith("error: bad base spec 'list:2,3,4,")
        assert err.endswith(f": base list length {BASE_SPEC_MAX + 1} is over the limit {BASE_SPEC_MAX}\n")

    def test_auto_bases_print_up_to_the_k_limit(self, capsys):
        # 1000!_Z has 32,363 bits, past Python's default str-digit limit
        code, out, err = run_cli(
            capsys, "factorial", "--set", "Z", "--bases", "auto", "--k", str(AUTO_K_MAX_Z),
            "--format", "json",
        )
        assert code == 0, err
        assert len(json.loads(out)["results"][0]["decimal"].replace(",", "")) > 4300

    def test_oversized_decimal_exits_2_before_value(self, capsys, monkeypatch):
        # alpha_100000000(Z, 3) is about 5 * 10^7, so 3^alpha has about 8 * 10^7 bits
        def no_value(self):
            raise AssertionError("value() called past the decimal bound")

        monkeypatch.setattr(FactoredNumber, "value", no_value)
        t0 = time.perf_counter()
        code, out, err = run_cli(
            capsys, "factorial", "--set", "Z", "--bases", "list:3", "--k", "100000000"
        )
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert str(DECIMAL_BITS_MAX) in err

    def test_prime_cutoff_below_two_exits_2(self, capsys):
        for cutoff in ("-3", "0", "1"):
            code, out, err = run_cli(
                capsys, "factorial", "--set", "P", "--bases", f"primes:{cutoff}", "--k", "5"
            )
            assert code == 2 and out == "", cutoff
            assert "prime cutoff" in err

    @pytest.mark.parametrize("spec", sorted(BAD_BASE_SPECS))
    def test_bad_base_spec_messages(self, capsys, spec):
        # each message carries the spec once, whichever check refused it
        code, out, err = run_cli(capsys, "factorial", "--set", "Z", "--k", "3", "--bases", spec)
        assert (code, out, err) == (2, "", f"error: {BAD_BASE_SPECS[spec]}\n")


class TestTables:
    def test_all_tables_match(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--which", "all")
        assert code == 0
        assert out.count("matches golden") == 4

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_each_table_built_once(self, capsys, monkeypatch, fmt):
        built = []
        original = tables.generate

        def counting_generate(which):
            built.append(which)
            return original(which)

        monkeypatch.setattr(tables, "generate", counting_generate)
        code, _, _ = run_cli(capsys, "tables", "--which", "all", "--format", fmt)
        assert code == 0 and built == [1, 2, 3, 4]

    def test_compare_checks_the_given_text(self):
        text = tables.generate(3)
        assert tables.compare(3, text) == []
        assert len(tables.compare(3, text.replace("4,050", "4,051"))) == 1

    def test_single_table_json(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--which", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"][0]["matches_golden"] is True
        assert doc["results"][0]["lines"][-1].startswith("10|1|100|4,050")


def test_python_dash_m_runs_the_cli(tmp_path):
    # from a checkout, with the package found on PYTHONPATH only
    src = str(pathlib.Path(borderings.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "borderings", "tables", "--which", "2"],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("# table 2: matches golden\n", 1)[1] == tables.golden(2)


def test_closed_stdout_exits_141_without_a_traceback(tmp_path):
    # about 1 MB of output, more than a pipe buffer holds, so the write after
    # the reader has gone fails whatever the timing
    src = str(pathlib.Path(borderings.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "borderings", "exponents", "--set", "ap:0,1", "--base", "2", "--k", "100000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path, env=env,
    )
    assert proc.stdout.readline().startswith(b"# borderings ")
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=120), err) == (141, b"")


class TestRowProduct:
    def test_values(self, capsys):
        code, out, _ = run_cli(capsys, "rowproduct", "--n", "2")
        assert code == 0 and "2" in out
        code, out, _ = run_cli(capsys, "rowproduct", "--n", "4", "--format", "csv")
        assert code == 0
        assert "4,4,\"6,144\",2^11 * 3," in out
        code, out, _ = run_cli(capsys, "rowproduct", "--n", "9", "--x", "2", "--format", "csv")
        data = out.splitlines()[-1].split(",")
        assert data[0] == "9" and data[1] == "2"

    def test_digits_column_is_exact(self, capsys):
        code, out, _ = run_cli(capsys, "rowproduct", "--n", "30", "--format", "json")
        row = json.loads(out)["results"][0]
        assert code == 0 and row["digits"] == len(row["decimal"].replace(",", ""))

    def test_decimals_past_the_str_digit_limit(self, capsys):
        # row 75 has 4,341 digits, past Python's default limit of 4,300
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, "rowproduct", "--n", "75", "--format", "json")
        assert code == 0, err
        row = json.loads(out)["results"][0]
        assert row["digits"] == len(row["decimal"].replace(",", "")) == 4341
        assert sys.get_int_max_str_digits() == limit

    def test_n_over_the_cap_exits_2_before_any_work(self, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("rowproduct started work past the n cap")

        monkeypatch.setattr(cli_module, "row_product", no_work)
        code, out, err = run_cli(capsys, "rowproduct", "--n", str(ROWPRODUCT_N_MAX + 1))
        assert code == 2 and out == ""
        assert f"n <= {ROWPRODUCT_N_MAX}" in err


class TestVerify:
    def test_single_suite(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "tables", "--seed", "3", "--scale", "0.2"
        )
        assert code == 0 and "PASS tables" in out

    def test_json_deterministic(self, capsys):
        args = (
            "verify", "--suite", "transport", "--seed", "11", "--scale", "0.15",
            "--format", "json",
        )
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["results"][0]["passed"] is True
        assert doc["results"][0]["checked"] > 0

    @pytest.mark.parametrize("scale", ["inf", "nan", "1e9", "0", "-3"])
    def test_scale_out_of_range_exits_2_before_any_suite(self, capsys, monkeypatch, scale):
        def no_suite(*args):
            raise AssertionError("a suite ran with an out-of-range scale")

        for name in verify_module.SUITE_NAMES:
            monkeypatch.setitem(verify_module._SUITES, name, no_suite)
        code, out, err = run_cli(capsys, "verify", "--scale", scale)
        assert code == 2 and out == ""
        assert "scale" in err and str(verify_module.SCALE_MAX) in err


class TestHeader:
    def test_config_embedded(self, capsys):
        for argv, keys in (
            (
                ("exponents", "--set", "Z", "--base", "3", "--k", "2"),
                ["command", "set", "base", "k", "source", "format"],
            ),
            (
                ("verify", "--suite", "tables", "--scale", "0.1"),
                ["command", "suite", "scale", "format", "seed"],
            ),
        ):
            code, out, _ = run_cli(capsys, *argv)
            prefix, _, fields = out.splitlines()[0].partition(" | ")
            assert code == 0 and prefix == f"# borderings {borderings.__version__}"
            assert [field.split("=", 1)[0] for field in fields.split(" ")] == keys, argv

    def test_byte_identical_repeat(self, capsys):
        args = ("factorial", "--set", "Z", "--bases", "auto", "--k", "16", "--format", "csv")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


ENGINE_COMMANDS = ("exponents", "factorial", "integer", "binomial", "verify")
COMMANDS = {  # command: (a valid argument list, its header keys)
    "exponents": (
        ["--set", "Z", "--base", "3", "--k", "2"],
        {"command", "set", "base", "k", "source", "format"},  # source: the route that ran
    ),
    "factorial": (
        ["--set", "Z", "--bases", "auto", "--k", "3"],
        {"command", "set", "bases", "k", "format"},
    ),
    "integer": (
        ["--set", "Z", "--bases", "auto", "--n", "3"],
        {"command", "set", "bases", "n", "format"},
    ),
    "binomial": (
        ["--set", "Z", "--bases", "auto", "--k", "3", "--l", "1"],
        {"command", "set", "bases", "k", "l", "format"},
    ),
    "tables": (["--which", "3"], {"command", "which", "format"}),
    "rowproduct": (["--n", "4"], {"command", "n", "x", "format"}),
    "verify": (
        ["--suite", "tables", "--scale", "0.1"],
        {"command", "suite", "scale", "seed", "format"},
    ),
}


def accepted_flags(command):
    """The dests of every option the subcommand's parser accepts."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions if a.dest != "help"}


class TestHeaderHonesty:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_header_is_parameters_flags_and_engine_config(self, capsys, command):
        argv, keys = COMMANDS[command]
        code, out, _ = run_cli(capsys, command, *argv, "--format", "json")
        assert code == 0
        assert set(json.loads(out)["config"]) == keys
        # the parameters are flags too: the header is the command, its flags
        # and, for exponents, the route that ran
        route = {"source"} if command == "exponents" else set()
        assert {"command"} | accepted_flags(command) | route == keys

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_series_cap_is_gone(self, capsys, command):
        code, _, _ = run_cli(capsys, command, *COMMANDS[command][0], "--series-cap", "8")
        assert code == 2

    @pytest.mark.parametrize(
        "command,flag",
        [
            (command, flag)
            for command in ENGINE_COMMANDS
            for flag in ("--enum-bound=5", "--bb-level-max=3", "--allow-uncertified")
            if (command, flag) != ("verify", "--allow-uncertified")  # never a verify flag
        ],
    )
    def test_depth_cap_and_window_flags_are_gone(self, capsys, command, flag):
        code, _, _ = run_cli(capsys, command, *COMMANDS[command][0], flag)
        assert code == 2

    @pytest.mark.parametrize("command", sorted(set(COMMANDS) - {"verify"}))
    def test_seed_only_on_verify(self, capsys, command):
        code, _, _ = run_cli(capsys, command, *COMMANDS[command][0], "--seed", "3")
        assert code == 2

    @pytest.mark.parametrize(
        "command,flag",
        [
            (command, flag)
            for command in ("tables", "rowproduct")
            for flag in (
                "--enum-bound=5",
                "--bb-level-max=3",
                "--search-cap=9",
                "--force-greedy",
                "--allow-uncertified",
            )
        ]
        + [(command, flag) for command in ENGINE_COMMANDS for flag in ("--search-cap=9", "--force-greedy")]
        + [("verify", "--allow-uncertified")],
    )
    def test_engine_flags_only_where_they_act(self, capsys, command, flag):
        code, _, _ = run_cli(capsys, command, *COMMANDS[command][0], flag)
        assert code == 2


# sha256 of json.dumps(results, sort_keys=True) for the command below; a change
# that is not meant to alter verify output keeps it, one that is re-records it
# and says why
VERIFY_RESULTS_SHA256 = "11dd58530428de970d0aab830138806eec10de7637db50c733e88a03c3c230be"


def test_verify_results_are_byte_identical(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "all", "--seed", "7", "--scale", "0.1", "--format", "json"
    )
    assert code == 0
    results = json.loads(out)["results"]
    digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
    assert digest == VERIFY_RESULTS_SHA256


# sha256 of the whole stdout of the same command in the other two formats
VERIFY_OUTPUT_SHA256 = {
    "text": "669a9441b071c7d6c2c06f91e6ccee23d32792ee6e725d8d98551e2f8ac57c5b",
    "csv": "925bd5bc6aee41035ba341c4b58abbd96a06d3b5e6990a39af7af3dd02fa43c0",
}


@pytest.mark.parametrize("fmt", VERIFY_OUTPUT_SHA256)
def test_verify_text_and_csv_are_byte_identical(capsys, fmt):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "all", "--seed", "7", "--scale", "0.1", "--format", fmt
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_OUTPUT_SHA256[fmt]


# sha256 of the whole stdout of `tables --which all` in csv and json; the text
# bytes are pinned by CI
TABLES_OUTPUT_SHA256 = {
    "csv": "72117907a76ac2ef7ff383d7713f8ac9c87305d229cf1bcc02e6e061b0bf4bc0",
    "json": "788467a898ec7c47e81daaf243d8ee53ba40779c2d5d9d0faa26976a321c2c5b",
}


@pytest.mark.parametrize("fmt", TABLES_OUTPUT_SHA256)
def test_tables_csv_and_json_are_byte_identical(capsys, fmt):
    code, out, _ = run_cli(capsys, "tables", "--which", "all", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLES_OUTPUT_SHA256[fmt]


def _pinned_cli_argvs():
    fmts = ("text", "csv", "json")
    bases = ("auto", "upto:12", "primes:13", "list:0,1,2,3,6", "range:2..9")
    sets = {"Z": bases, "P": bases, "list:-3,0,1,4,9,10,12,15": bases[1:]}
    queries = {"factorial": ("--k", "6"), "integer": ("--n", "6"), "binomial": ("--k", "6", "--l", "2")}
    for fmt in fmts:
        yield ("rowproduct", "--n", "12", "--format", fmt)
        yield ("rowproduct", "--n", "12", "--x", "5", "--format", fmt)
        for command, numbers in queries.items():
            for spec, specs in sets.items():
                for T in specs:
                    yield (command, "--set", spec, "--bases", T, *numbers, "--format", fmt)


# sha256 over the outputs of every command in _pinned_cli_argvs, in order, each
# preceded by its argv; pins rowproduct and the factored commands byte for byte
CLI_OUTPUT_SHA256 = "54f6a59bd4dd7910b902124714c96ee05532c5751bf847bb830f6f9bf58674fd"


def test_cli_outputs_are_byte_identical(capsys):
    h = hashlib.sha256()
    for argv in _pinned_cli_argvs():
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        h.update(" ".join(argv).encode() + b"\n" + out.encode())
    assert h.hexdigest() == CLI_OUTPUT_SHA256


def _pinned_exponents_argvs():
    sets = ("Z", "N", "P", "ap:3,7", "ap:0,6", "list:-3,0,1,4,9,10,12,15", "range:-4..5")
    for fmt in ("text", "csv", "json"):
        for spec in sets:
            for b in ("0", "1", "2", "6", "12"):
                for k in ("0", "9"):
                    yield ("exponents", "--set", spec, "--base", b, "--k", k, "--format", fmt)


# sha256 over the outputs of every command in _pinned_exponents_argvs, in order,
# each preceded by its argv; pins every value `exponents` prints, k = 9 running
# past |S| - 1 for the list set, and the route: ap: and range: sets print
# source=closed-form
EXPONENTS_OUTPUT_SHA256 = "7fb1843094b7bd5b4a3c04f88a854dcafe25757f9bf95a018bff5928c527d3fc"


def test_exponents_outputs_are_byte_identical(capsys):
    h = hashlib.sha256()
    for argv in _pinned_exponents_argvs():
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        h.update(" ".join(argv).encode() + b"\n" + out.encode())
    assert h.hexdigest() == EXPONENTS_OUTPUT_SHA256


def _pinned_edge_argvs():
    """factorial, integer and binomial at the edges the pinned digests above miss.

    Degenerate bases 0 and 1 alone and mixed in, N, an ap: set and a small
    list set, and indices at 0 or 1, at |S| - 1 and at |S|; the formats take
    turns so each query meets all three.
    """
    size = 3  # |S| of the list set; the infinite sets run over the same indices
    sets = {"N": ("auto",), "ap:3,7": (), "list:5,9,12": ()}
    fmts = itertools.cycle(("text", "csv", "json"))
    for spec, extra in sets.items():
        finite = spec.startswith("list:")
        for T in ("list:0", "list:1", "list:0,1", "list:0,1,2,6", *extra):
            numbers = [("factorial", "--k", str(k)) for k in (0, size - 1, size)]
            numbers += [("integer", "--n", str(n)) for n in (1, size - 1, size)]
            for k, ell in ((1, 0), (1, 1), (size - 1, 1), (size, 1), (size, size)):
                if not (finite and k >= size):
                    numbers.append(("binomial", "--k", str(k), "--l", str(ell)))
            for command, *args in numbers:
                yield (command, "--set", spec, "--bases", T, *args, "--format", next(fmts))


# sha256 over the outputs of every command in _pinned_edge_argvs, in order, each
# preceded by its argv
EDGE_OUTPUT_SHA256 = "657c58cb74fe0f08413ccdc682ffa2537087c40960be7a2bb3ca7d95b3a782cb"


def test_edge_outputs_are_byte_identical(capsys):
    h = hashlib.sha256()
    for argv in _pinned_edge_argvs():
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        h.update(" ".join(argv).encode() + b"\n" + out.encode())
    assert h.hexdigest() == EDGE_OUTPUT_SHA256
