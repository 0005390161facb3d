"""Command-line interface: computations, table reproduction, verification harness.

Every run prints a reproducibility header: the command, its parameters
and its output format, with the seed for `verify` and the route that ran
for `exponents`.  Each subcommand takes only the flags that change its
computation; identical runs produce byte-identical output.  Infinity
renders as the symbol in text mode and as the literal string "inf" in
CSV and JSON.

Every value the CLI prints is certified: a closed form proven for its
set, which serves Z, N, P, ap: sets, equally spaced finite sets and bases
above a finite set's diameter, or the greedy engine's residue walk, which
holds every unused member of any other finite set at its exact value.

Exit codes: 0 success, 1 property or table-comparison failure,
2 usage/spec error or an input over one of the limits below, 141 stdout
closed by its reader before the output was written (as `| head` does).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

from . import __version__, tables
from .factored import FactoredNumber, group_digits, parse_base_spec
from .factorials import factorial, gen_binomial, gen_integer, row_product
from .intsets import parse_set_spec
from .ordering import invariants

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_USAGE = 2
EXIT_CLOSED_PIPE = 141  # what a shell reports for a process killed by SIGPIPE

# Largest value, in bits, the CLI prints as a decimal.  Python's int to
# decimal conversion is quadratic: on a 2-vCPU Xeon under Python 3.11 a
# 2^19-bit value (about 158,000 digits) takes about 1 s, 2^20 bits 2 s and
# 2^22 bits 32 s.
DECIMAL_BITS_MAX = 2**19

# Largest n for `rowproduct`.  Its exponents cost O(n^2 log n) before any
# value exists; on the same machine row_product(300) has 327,039 bits (the
# exponent bound says 355,987) and takes about 0.3 s from exponents to
# decimal, and n = 500 (977,099 bits) about 2.4 s.
ROWPRODUCT_N_MAX = 300

# Largest k for `exponents`, which lists k + 1 values whatever the set.  On
# the same machine `exponents --set ap:0,1 --base 2` takes 1.3 s at 56 MiB
# peak for k = 10^5 and 10.2 s at 401 MiB for k = 10^6.  With --format json
# k = 10^5 peaks at 112 MiB, as the document is built as one string before it
# is printed.  json.dump to stdout writes the same bytes at a 54 MiB peak but
# takes 2.2-3.4 s where the one string takes 1.0-1.4 s, so it is not used.
EXPONENTS_K_MAX = 10**5

# The verify command's suites, in the order `--suite all` runs them, and its
# largest --scale: verify.SUITE_NAMES and verify.SCALE_MAX, repeated for the
# parser so that no other command imports verify.py, the package's largest
# module.  A test keeps them equal.
VERIFY_SUITES = (
    "well-definedness",
    "majorization",
    "superadditivity",
    "monotonicity",
    "divisibility",
    "transport",
    "maxmin",
    "closed-forms",
    "tables",
)
VERIFY_SCALE_MAX = 5.0


def _decimal(value: FactoredNumber) -> str:
    """value in grouped decimal, refused before value() when it may exceed DECIMAL_BITS_MAX bits.

    sum e * b.bit_length() over the bases bounds the bit length from above.
    """
    if not value.is_zero:
        bits = sum(e * b.bit_length() for b, e in value.items() if b != 1)
        if bits > DECIMAL_BITS_MAX:
            raise ValueError(
                f"the value may have up to {bits} bits; decimal output is limited to "
                f"{DECIMAL_BITS_MAX} bits"
            )
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit to lift
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return group_digits(value.value())
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _csv_cell(v) -> str:
    s = str(v)
    if "," in s or '"' in s:
        s = '"' + s.replace('"', '""') + '"'
    return s


def _emit(args, params: dict, columns: list[str], rows: list[dict], lines=None) -> None:
    """Print one run's output under its reproducibility header; the CLI's only writer to stdout.

    The header holds the command, params and format, plus the seed when args
    has one.  json prints one {"version", "config", "results"} document of
    rows; text and csv print the `# borderings` header line, then `lines`
    when given, else the rows as CSV or as aligned columns.
    """
    config = {"command": args.command, **params, "format": args.format}
    if hasattr(args, "seed"):
        config["seed"] = args.seed
    if args.format == "json":
        print(json.dumps({"version": __version__, "config": config, "results": rows}, indent=2))
        return
    print(f"# borderings {__version__} | " + " ".join(f"{k}={v}" for k, v in config.items()))
    if lines is None:  # one line at a time: exponents prints up to EXPONENTS_K_MAX + 1 rows
        table = itertools.chain([columns], ([str(row.get(c, "")) for c in columns] for row in rows))
        if args.format == "csv":
            lines = (",".join(map(_csv_cell, cells)) for cells in table)
        else:
            widths = [max([len(c)] + [len(str(row.get(c, ""))) for row in rows]) for c in columns]
            lines = ("  ".join(s.ljust(w) for s, w in zip(cells, widths)) for cells in table)
    for line in lines:
        print(line)


def cmd_exponents(args) -> int:
    if args.k > EXPONENTS_K_MAX:
        raise ValueError(f"exponents is limited to k <= {EXPONENTS_K_MAX}, got k = {args.k}")
    S = parse_set_spec(args.set)
    ((source, values),) = invariants(S, (args.base,), range(min(args.k, 0), args.k + 1))  # k < 0 reaches the check
    infinity = "∞" if args.format == "text" else "inf"
    rows = [{"i": i, "alpha": infinity if v is None else str(v)} for i, v in enumerate(values)]
    params = {"set": S.spec, "base": args.base, "k": args.k, "source": source}
    _emit(args, params, ["i", "alpha"], rows)
    return EXIT_OK


_FACTORED = {  # command: (function, its integer parameters after S and T, help)
    "factorial": (factorial, ("k",), "generalized factorial k!_{S,T}"),
    "integer": (gen_integer, ("n",), "generalized integer [n]_{S,T}"),
    "binomial": (gen_binomial, ("k", "l"), "generalized binomial coefficient"),
}


def cmd_factored(args) -> int:
    S = parse_set_spec(args.set)
    T = parse_base_spec(args.bases)
    compute, names, _ = _FACTORED[args.command]
    numbers = {name: getattr(args, name) for name in names}
    value = compute(S, T, *numbers.values())
    row = {
        "decimal": _decimal(value),
        "factored": value.refine_to_primes().format_factored(),
        "factored_bases": value.format_factored(),
    }
    _emit(args, {"set": S.spec, "bases": T.spec, **numbers}, list(row), [row])
    return EXIT_OK


def cmd_tables(args) -> int:
    which = tables.TABLE_NAMES if args.which == "all" else (int(args.which),)
    rows, lines = [], []
    for w in which:
        text = tables.generate(w)
        mismatches = tables.compare(w, text)
        rows.append(
            {"table": w, "matches_golden": not mismatches, "mismatches": mismatches, "lines": text.splitlines()}
        )
        lines.append(f"# table {w}: {'MISMATCH' if mismatches else 'matches golden'}")
        lines += text.splitlines() + [f"# diff: {m}" for m in mismatches]
    _emit(args, {"which": args.which}, [], rows, lines)
    return EXIT_PROPERTY_FAILURE if any(row["mismatches"] for row in rows) else EXIT_OK


def cmd_rowproduct(args) -> int:
    if args.n > ROWPRODUCT_N_MAX:
        raise ValueError(f"rowproduct is limited to n <= {ROWPRODUCT_N_MAX}, got n = {args.n}")
    value = row_product(args.n, args.x)
    decimal = _decimal(value)
    row = {
        "n": args.n,
        "x": args.x if args.x is not None else args.n,
        "decimal": decimal,
        "factored": value.refine_to_primes().format_factored(),
        "digits": len(decimal.replace(",", "")),
    }
    _emit(args, {"n": args.n, "x": args.x if args.x is not None else ""}, list(row), [row])
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify

    names = verify.SUITE_NAMES if args.suite == "all" else (args.suite,)
    reports = [verify.run_suite(name, seed=args.seed, scale=args.scale) for name in names]
    columns = ["suite", "instance", "passed", "params", "detail"]
    rows, lines = [], None
    if args.format == "json":
        rows = [r.as_dict() for r in reports]
    elif args.format == "csv":
        rows = [
            dict(zip(columns, (r.suite, i.name, i.passed, json.dumps(i.params, sort_keys=True), i.detail)))
            for r in reports
            for i in r.instances
        ]
    else:
        lines = []
        for r in reports:
            tag = "PASS" if r.passed else "FAIL"
            lines.append(f"{tag} {r.suite}: {len(r.instances)} instances, {len(r.failures)} failed")
            lines += [f"  FAIL {i.name} {json.dumps(i.params, sort_keys=True)} {i.detail}" for i in r.failures]
    _emit(args, {"suite": args.suite, "scale": args.scale}, columns, rows, lines)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_PROPERTY_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="borderings",
        description="b-orderings, generalized factorials and binomial coefficients over (S, T)",
    )
    parser.add_argument("--version", action="version", version=f"borderings {__version__}")

    # each subcommand takes only the flags that change what it computes
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("text", "csv", "json"), default="text")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponents", parents=[output], help="exponent invariants of (S, b)")
    p.add_argument("--set", required=True, help="set spec: Z | N | P | ap:f,s | list:... | file:path | range:lo..hi")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--k", type=int, required=True, help=f"0 <= k <= {EXPONENTS_K_MAX}")
    p.set_defaults(func=cmd_exponents)

    for command, (_, names, help_) in _FACTORED.items():
        p = sub.add_parser(command, parents=[output], help=help_)
        p.add_argument("--set", required=True)
        p.add_argument("--bases", required=True, help="base spec: auto | upto:n | primes:n | list:... | range:lo..hi")
        for name in names:
            p.add_argument(f"--{name}", type=int, required=True)
        p.set_defaults(func=cmd_factored)

    p = sub.add_parser("tables", parents=[output], help="regenerate reference tables and diff against golden files")
    p.add_argument("--which", choices=tuple(map(str, tables.TABLE_NAMES)) + ("all",), default="all")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("rowproduct", parents=[output], help="row product of generalized binomials for (Z, N)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=int, default=None, help="truncate the product to bases <= x")
    p.set_defaults(func=cmd_rowproduct)

    p = sub.add_parser("verify", parents=[output], help="run a verification suite")
    p.add_argument(
        "--suite",
        choices=VERIFY_SUITES + ("all",),
        default="all",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for randomised checks")
    p.add_argument(
        "--scale", type=float, default=1.0, help=f"instance-count multiplier, 0 < scale <= {VERIFY_SCALE_MAX}"
    )
    p.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call (about 1.5 ms) and reused; it keeps no state between parses."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors already; normalise --version/-h to 0
        return int(e.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return code
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so the exit-time flush of
        # what is still buffered cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE


if __name__ == "__main__":
    sys.exit(main())
