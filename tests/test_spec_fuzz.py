"""Property-based round trips and error contracts of the spec and factored-number parsers.

Generated text never starts with ``file:``, so only the ``file:`` round trip
reads the file system, from its own temporary directory; every generated
range stays small enough to build.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from borderings.factored import BaseSetError, FactoredNumber, parse_base_spec
from borderings.intsets import SetSpecError, parse_set_spec

small = st.integers(min_value=-60, max_value=60)
ints = st.lists(small, min_size=1, max_size=12)


def _join(values) -> str:
    return ",".join(map(str, values))


set_specs = st.one_of(
    st.sampled_from(["Z", "N", "P", " Z ", "P\n"]),
    st.builds(lambda a, s: f"ap:{a},{s}", small, st.integers(min_value=1, max_value=40)),
    st.builds(lambda v: "list:" + _join(v), ints),
    st.builds(lambda lo, n: f"range:{lo}..{lo + n}", small, st.integers(min_value=0, max_value=40)),
)

base_specs = st.one_of(
    st.just("auto"),
    st.builds(lambda n: f"upto:{n}", st.integers(min_value=2, max_value=500)),
    st.builds(lambda n: f"primes:{n}", st.integers(min_value=2, max_value=500)),
    st.builds(lambda v: "list:" + _join(v), st.lists(st.integers(0, 200), max_size=12)),
    st.builds(
        lambda lo, n: f"range:{lo}..{lo + n}",
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=200),
    ),
)

# text that reaches every branch of both grammars: a known prefix (or none)
# followed by a short tail of the characters the grammars care about; seven
# characters cap a range at "0..9999", which builds quickly
PREFIXES = ["", "Z", "N", "P", "auto", "ap:", "list:", "range:", "upto:", "primes:", "fil", "e:"]
tails = st.text(alphabet="0123456789-+,. :\n_xZN", max_size=7)
spec_text = st.builds(lambda p, t: p + t, st.sampled_from(PREFIXES), tails)
any_text = st.text(max_size=24)


def no_file_prefix(text: str) -> bool:
    return not text.strip().startswith("file:")


@given(set_specs)
def test_set_spec_round_trip(text):
    S = parse_set_spec(text)
    assert parse_set_spec(S.spec).spec == S.spec


@given(base_specs)
def test_base_spec_round_trip(text):
    B = parse_base_spec(text)
    assert parse_base_spec(B.spec).spec == B.spec
    assert parse_base_spec(B.spec) == B


# the file is rewritten for each example, so sharing tmp_path across them is safe
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ints)
def test_file_spec_round_trip(tmp_path, values):
    path = tmp_path / "set.txt"
    path.write_text("".join(f"{v}\n" for v in values))
    S = parse_set_spec(f"file:{path}")
    assert S.spec == f"file:{path}"
    assert S.values == parse_set_spec("list:" + _join(values)).values == tuple(sorted(set(values)))
    assert parse_set_spec(S.spec).values == S.values


@settings(max_examples=300)
@given(st.one_of(spec_text, any_text).filter(no_file_prefix))
def test_set_spec_parses_or_raises_set_spec_error(text):
    try:
        S = parse_set_spec(text)
    except SetSpecError as e:
        # one wrap: a known kind names its spec and the reason, anything else is unrecognised
        spec = text.strip()
        assert str(e).startswith(f"bad set spec {spec!r}: ") or str(e) == f"unrecognised set spec {spec!r}"
        return
    assert parse_set_spec(S.spec).spec == S.spec


@settings(max_examples=300)
@given(st.one_of(spec_text, any_text).filter(no_file_prefix))
def test_base_spec_parses_or_raises_base_set_error(text):
    try:
        B = parse_base_spec(text)
    except BaseSetError:
        return
    assert parse_base_spec(B.spec).spec == B.spec


# factored text: bases and exponents joined by the format's own symbols, plus
# the infinity spellings and free text
factor_chars = st.text(alphabet="0123456789^* -+_∞inf\n", max_size=16)


@settings(max_examples=300)
@given(st.one_of(factor_chars, any_text))
def test_factored_parse_parses_or_raises_value_error(text):
    try:
        F = FactoredNumber.parse(text)
    except ValueError:
        return
    text = F.format_factored()
    assert FactoredNumber.parse(text).format_factored() == text
