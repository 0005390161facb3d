"""Command-line interface: computations, table reproduction, verification harness.

Every run prints a reproducibility header with the fully resolved
configuration; identical (config, seed) runs produce byte-identical
output.  Infinity renders as the symbol in text mode and as the literal
string "inf" in CSV and JSON.

Exit codes: 0 success, 1 property or table-comparison failure,
2 usage/spec error, 3 uncertified result without --allow-uncertified.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, tables, verify
from .factored import BaseSetError, FactoredNumber, group_digits, parse_base_spec
from .factorials import (
    WindowLimitedError,
    factorial,
    gen_binomial,
    gen_integer,
    partial_row_product,
    row_product,
)
from .intsets import SearchExhausted, SetSpecError, parse_set_spec
from .numerics import ExtNat
from .ordering import EngineConfig, exponent_sequence

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_USAGE = 2
EXIT_UNCERTIFIED = 3


def _log10(n: int) -> float:
    """log10 of a positive integer of any size."""
    s = str(n)
    import math

    head = int(s[:15]) if len(s) > 15 else n
    return len(s) - (15 if len(s) > 15 else len(s)) + math.log10(head)


def _render_extnat(v: ExtNat, fmt: str) -> str:
    if v.is_finite:
        return str(v.value)
    return "∞" if fmt == "text" else "inf"


class _Emitter:
    """Collects rows and emits them in the selected format."""

    def __init__(self, fmt: str, config: dict, columns: list[str]):
        self.fmt = fmt
        self.config = config
        self.columns = columns
        self.rows: list[dict] = []

    def add(self, **row) -> None:
        self.rows.append(row)

    def header_line(self) -> str:
        parts = [f"{k}={v}" for k, v in self.config.items()]
        return f"# borderings {__version__} | " + " ".join(parts)

    def emit(self, out=None) -> None:
        out = out if out is not None else sys.stdout
        if self.fmt == "json":
            doc = {"version": __version__, "config": self.config, "results": self.rows}
            print(json.dumps(doc, indent=2, sort_keys=False), file=out)
            return
        print(self.header_line(), file=out)
        if self.fmt == "csv":
            print(",".join(self.columns), file=out)
            for row in self.rows:
                print(",".join(_csv_cell(row.get(c, "")) for c in self.columns), file=out)
        else:
            widths = {
                c: max([len(c)] + [len(str(r.get(c, ""))) for r in self.rows])
                for c in self.columns
            }
            print("  ".join(c.ljust(widths[c]) for c in self.columns), file=out)
            for row in self.rows:
                print(
                    "  ".join(str(row.get(c, "")).ljust(widths[c]) for c in self.columns),
                    file=out,
                )


def _csv_cell(v) -> str:
    s = str(v)
    if "," in s or '"' in s:
        s = '"' + s.replace('"', '""') + '"'
    return s


def _engine_config(args) -> EngineConfig:
    return EngineConfig(
        level_max=args.bb_level_max,
        window=args.enum_bound,
        search_cap=args.search_cap,
    )


def _base_config(args, command: str, **extra) -> dict:
    cfg = {"command": command}
    cfg.update(extra)
    cfg.update(
        {
            "format": args.format,
            "seed": args.seed,
            "enum_bound": args.enum_bound,
            "bb_level_max": args.bb_level_max,
            "series_cap": args.series_cap,
            "force_greedy": args.force_greedy,
            "allow_uncertified": args.allow_uncertified,
        }
    )
    return cfg


def _factored_fields(F: FactoredNumber, fmt: str) -> dict:
    refined = F.refine_to_primes()
    return {
        "decimal": group_digits(F.value()),
        "factored": refined.format_factored(),
        "factored_bases": F.format_factored(),
    }


def cmd_exponents(args) -> int:
    S = parse_set_spec(args.set)
    seq = exponent_sequence(
        S, args.base, args.k, force_greedy=args.force_greedy, config=_engine_config(args)
    )
    if seq.window_limited and not args.allow_uncertified:
        print(
            "error: result is window-limited (uncertified); rerun with --allow-uncertified",
            file=sys.stderr,
        )
        return EXIT_UNCERTIFIED
    config = _base_config(
        args, "exponents", set=S.spec, base=args.base, k=args.k, source=seq.source
    )
    em = _Emitter(args.format, config, ["i", "alpha", "certified"])
    for i, (v, cert) in enumerate(zip(seq.values, seq.certified_steps)):
        em.add(i=i, alpha=_render_extnat(v, args.format), certified=cert)
    em.emit()
    return EXIT_OK


def _run_factored_command(args, command: str, compute) -> int:
    S = parse_set_spec(args.set)
    T = parse_base_spec(args.bases)
    try:
        value = compute(S, T, allow=args.allow_uncertified)
    except WindowLimitedError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNCERTIFIED
    params = {"set": S.spec, "bases": T.describe()}
    if command == "factorial":
        params["k"] = args.k
    elif command == "integer":
        params["n"] = args.n
    else:
        params.update({"k": args.k, "l": args.l})
    config = _base_config(args, command, **params)
    em = _Emitter(args.format, config, ["decimal", "factored", "factored_bases"])
    em.add(**_factored_fields(value, args.format))
    em.emit()
    return EXIT_OK


def cmd_factorial(args) -> int:
    return _run_factored_command(
        args,
        "factorial",
        lambda S, T, allow: factorial(
            S, T, args.k, config=_engine_config(args), allow_uncertified=allow,
            force_greedy=args.force_greedy,
        ),
    )


def cmd_integer(args) -> int:
    return _run_factored_command(
        args,
        "integer",
        lambda S, T, allow: gen_integer(
            S, T, args.n, config=_engine_config(args), allow_uncertified=allow,
            force_greedy=args.force_greedy,
        ),
    )


def cmd_binomial(args) -> int:
    return _run_factored_command(
        args,
        "binomial",
        lambda S, T, allow: gen_binomial(
            S, T, args.k, args.l, config=_engine_config(args), allow_uncertified=allow,
            force_greedy=args.force_greedy,
        ),
    )


def cmd_tables(args) -> int:
    which = tables.TABLE_NAMES if args.which == "all" else (int(args.which),)
    config = _base_config(args, "tables", which=args.which)
    failed = False
    if args.format == "json":
        results = []
        for w in which:
            text = tables.generate(w)
            diff = tables.compare(w, text)
            results.append(
                {
                    "table": w,
                    "matches_golden": diff.ok,
                    "mismatches": diff.mismatches,
                    "lines": text.splitlines(),
                }
            )
            failed = failed or not diff.ok
        doc = {"version": __version__, "config": config, "results": results}
        print(json.dumps(doc, indent=2))
    else:
        em = _Emitter(args.format, config, [])
        print(em.header_line())
        for w in which:
            text = tables.generate(w)
            diff = tables.compare(w, text)
            print(f"# table {w}: {'matches golden' if diff.ok else 'MISMATCH'}")
            sys.stdout.write(text)
            for m in diff.mismatches:
                print(f"# diff: {m}")
            failed = failed or not diff.ok
    return EXIT_PROPERTY_FAILURE if failed else EXIT_OK


def cmd_rowproduct(args) -> int:
    if args.x is not None:
        value = partial_row_product(args.n, args.x)
    else:
        value = row_product(args.n)
    config = _base_config(args, "rowproduct", n=args.n, x=args.x if args.x is not None else "")
    em = _Emitter(args.format, config, ["n", "x", "decimal", "factored", "log10"])
    v = value.value()
    em.add(
        n=args.n,
        x=args.x if args.x is not None else args.n,
        decimal=group_digits(v),
        factored=value.refine_to_primes().format_factored(),
        log10=f"{_log10(v):.6f}" if v > 0 else "-inf",
    )
    em.emit()
    return EXIT_OK


def cmd_verify(args) -> int:
    config = _base_config(args, "verify", suite=args.suite, scale=args.scale)
    if args.suite == "all":
        reports = verify.run_all(seed=args.seed, scale=args.scale, config=_engine_config(args))
    else:
        reports = [
            verify.run_suite(args.suite, seed=args.seed, scale=args.scale, config=_engine_config(args))
        ]
    all_passed = all(r.passed for r in reports)
    if args.format == "json":
        results = []
        for r in reports:
            d = r.as_dict()
            d.pop("elapsed_seconds")  # keep identical runs byte-identical
            results.append(d)
        doc = {"version": __version__, "config": config, "results": results}
        print(json.dumps(doc, indent=2))
    else:
        em = _Emitter(args.format, config, ["suite", "instance", "passed", "params", "detail"])
        if args.format == "csv":
            for r in reports:
                for inst in r.instances:
                    em.add(
                        suite=r.suite,
                        instance=inst.name,
                        passed=inst.passed,
                        params=json.dumps(inst.params, sort_keys=True),
                        detail=inst.detail,
                    )
            em.emit()
        else:
            print(em.header_line())
            for r in reports:
                tag = "PASS" if r.passed else "FAIL"
                print(f"{tag} {r.suite}: {len(r.instances)} instances, {len(r.failures)} failed")
                for inst in r.failures:
                    print(f"  FAIL {inst.name} {json.dumps(inst.params, sort_keys=True)} {inst.detail}")
    return EXIT_OK if all_passed else EXIT_PROPERTY_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="borderings",
        description="b-orderings, generalized factorials and binomial coefficients over (S, T)",
    )
    parser.add_argument("--version", action="version", version=f"borderings {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "csv", "json"), default="text")
    common.add_argument("--seed", type=int, default=0, help="seed for randomised checks")
    common.add_argument("--enum-bound", type=int, default=1000, help="windowed-scan bound")
    common.add_argument("--bb-level-max", type=int, default=12, help="residue search depth cap")
    common.add_argument("--series-cap", type=int, default=32, help="series truncation cap")
    common.add_argument("--search-cap", type=int, default=10**7, help="in-class search cap")
    common.add_argument("--force-greedy", action="store_true", help="skip closed-form dispatch")
    common.add_argument(
        "--allow-uncertified",
        action="store_true",
        help="accept window-limited results instead of failing with exit code 3",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponents", parents=[common], help="exponent invariants of (S, b)")
    p.add_argument("--set", required=True, help="set spec: Z | N | P | ap:f,s | list:... | file:path | range:lo..hi")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_exponents)

    p = sub.add_parser("factorial", parents=[common], help="generalized factorial k!_{S,T}")
    p.add_argument("--set", required=True)
    p.add_argument("--bases", required=True, help="base spec: auto | upto:n | primes:n | list:... | range:lo..hi")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_factorial)

    p = sub.add_parser("integer", parents=[common], help="generalized integer [n]_{S,T}")
    p.add_argument("--set", required=True)
    p.add_argument("--bases", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_integer)

    p = sub.add_parser("binomial", parents=[common], help="generalized binomial coefficient")
    p.add_argument("--set", required=True)
    p.add_argument("--bases", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.set_defaults(func=cmd_binomial)

    p = sub.add_parser("tables", parents=[common], help="regenerate reference tables and diff against golden files")
    p.add_argument("--which", choices=("1", "2", "3", "4", "all"), default="all")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("rowproduct", parents=[common], help="row product of generalized binomials for (Z, N)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=int, default=None, help="truncate the product to bases <= x")
    p.set_defaults(func=cmd_rowproduct)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument(
        "--suite",
        choices=verify.SUITE_NAMES + ("all",),
        default="all",
    )
    p.add_argument("--scale", type=float, default=1.0, help="instance-count multiplier")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors already; normalise --version/-h to 0
        return int(e.code or 0)
    try:
        return args.func(args)
    except (SetSpecError, BaseSetError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SearchExhausted as e:
        print(f"error: {e} (raise --search-cap)", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
