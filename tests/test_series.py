"""Tests for truncated series, digit maps, t-orderings and the max-min checks."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borderings import series as series_module
from borderings.intsets import ExplicitFinite
from borderings.ordering import RandomTieBreak, exponent_sequence
from borderings.series import (
    CapError,
    SeriesPolynomial,
    TOrderValue,
    TruncatedSeries,
    build_qk,
    congruence_check,
    eval_poly,
    maxmin_check,
    phi_b,
    random_primitive_polynomial,
    t_ordering,
)


def series(*coeffs, cap=8):
    cs = list(coeffs) + [0] * (cap - len(coeffs))
    return TruncatedSeries(cs)


class TestTruncatedSeries:
    def test_exact_rational_arithmetic(self):
        f = series(Fraction(1, 2), 1)
        g = series(Fraction(1, 3), 0, 2)
        assert (f + g).coeffs[0] == Fraction(5, 6)
        assert (f * g).coeffs[:3] == (Fraction(1, 6), Fraction(1, 3), Fraction(1))
        ones = series(*[1] * 8)
        assert (ones * ones).coeffs == tuple(map(Fraction, range(1, 9)))  # every term up to the cap, none past it
        assert (f - f).ord_t().exact is False

    def test_float_coefficients_are_refused(self):
        with pytest.raises(TypeError):
            TruncatedSeries([0.5, 0, 0])
        with pytest.raises(TypeError):
            TruncatedSeries.constant(0.1, 4)

    def test_min_cap_discipline(self):
        f = series(1, 1, cap=4)
        g = series(1, cap=9)
        assert (f + g).cap == 4
        assert (f * g).cap == 4

    def test_ord_examples(self):
        assert series(0, 0, 1, 1).ord_t() == TOrderValue.of(2)
        assert series(3, -1).ord_t() == TOrderValue.of(0)
        z = TruncatedSeries.zero(8).ord_t()
        assert not z.exact and z.floor == 8

    def test_order_value_comparisons(self):
        assert TOrderValue.of(2).must_equal(2)
        assert not TOrderValue.of(2).must_equal(3)
        with pytest.raises(CapError):
            TOrderValue.at_least(8).must_equal(9)
        assert not TOrderValue.at_least(8).must_equal(5)
        with pytest.raises(CapError):
            TOrderValue.at_least(8).must_le(9)
        assert not TOrderValue.at_least(8).must_le(5)


class TestDigitMap:
    def test_examples(self):
        assert phi_b(10, 3, 4) == series(1, 0, 1, 0, cap=4)
        assert phi_b(-1, 2, 4) == series(1, 1, 1, 1, cap=4)
        assert phi_b(0, 7, 5) == TruncatedSeries.zero(5)
        assert phi_b(1, 7, 5) == series(1, cap=5)

    def test_congruence_preservation_grid(self):
        for b in (2, 3, 6, 10, 12):
            for a1 in range(-12, 13):
                for a2 in range(-12, 13):
                    assert congruence_check(b, a1, a2, 10), (b, a1, a2)

    def test_specific_pairs(self):
        assert congruence_check(10, 123, 23, 8)
        assert congruence_check(2, 3, 2, 8)
        assert congruence_check(5, 9, 9, 6)


class TestPolynomials:
    def test_qk_basics(self):
        q0 = build_qk([])
        assert len(q0.coeffs) == 1 and q0.coeffs[0].coeffs[0] == 1
        f = series(2, 1)
        q1 = build_qk([f])
        assert q1.degree == 1
        assert eval_poly(q1, f).ord_t().exact is False  # root
        g = series(1, 1)
        assert eval_poly(q1, g) == g - f
        # (x - 1/2)(x - t/3): each power of x keeps its own power of the denominator
        q2 = build_qk([series(Fraction(1, 2)), series(0, Fraction(1, 3))])
        assert q2.coeffs == (series(0, Fraction(1, 6)), series(Fraction(-1, 2), Fraction(-1, 3)), series(1))

    def test_eval_examples(self):
        x_sq = SeriesPolynomial((TruncatedSeries.zero(8), TruncatedSeries.zero(8), series(1)))
        t = series(0, 1)
        assert eval_poly(x_sq, t) == series(0, 0, 1)
        const = SeriesPolynomial((series(2, 3),))
        assert eval_poly(const, t) == series(2, 3)
        # x^2 + x/3 + 1 at 1/2: Horner's scale must divide back out
        p = SeriesPolynomial((series(1), series(Fraction(1, 3)), series(1)))
        assert eval_poly(p, series(Fraction(1, 2))) == series(Fraction(17, 12))

    def test_primitivity(self):
        q = build_qk([phi_b(3, 2, 8), phi_b(5, 2, 8)])
        assert q.is_t_primitive()  # monic
        p = SeriesPolynomial((series(0, 1), series(0, 2)))  # t*x + ... all divisible by t
        assert not p.is_t_primitive()

    def test_primitive_closed_under_product(self):
        rng = random.Random(4)
        for _ in range(25):
            p = random_primitive_polynomial(rng, rng.randint(1, 3), 8)
            q = random_primitive_polynomial(rng, rng.randint(1, 3), 8)
            prod_coeffs = [TruncatedSeries.zero(8) for _ in range(len(p.coeffs) + len(q.coeffs) - 1)]
            for i, a in enumerate(p.coeffs):
                for j, b in enumerate(q.coeffs):
                    prod_coeffs[i + j] = prod_coeffs[i + j] + a * b
            assert SeriesPolynomial(tuple(prod_coeffs)).is_t_primitive()


class TestTOrdering:
    def test_singleton(self):
        U = [series(1, 2)]
        run = t_ordering(U, 3)
        assert run.exponents[0] == TOrderValue.of(0)
        assert all(not e.exact for e in run.exponents[1:])

    def test_nondecreasing_exact_prefix(self):
        rng = random.Random(9)
        for _ in range(30):
            U = [phi_b(v, 3, 10) for v in rng.sample(range(-20, 21), 6)]
            run = t_ordering(U, 5)
            exact = [e.floor for e in run.exponents if e.exact]
            assert exact == sorted(exact)

    def test_transport_from_integer_side(self):
        values = list(range(6))
        S = ExplicitFinite(values)
        for b in (2, 3, 5, 6):
            alphas = exponent_sequence(S, b, 5).values
            cap = max((v.value for v in alphas if v.is_finite), default=0) + 2
            U = [phi_b(v, b, cap) for v in values]
            run = t_ordering(U, 5)
            for av, tv in zip(alphas, run.exponents):
                assert tv.exact and tv.floor == av.value

    def test_invariance_under_policy(self):
        rng = random.Random(13)
        U = [phi_b(v, 2, 10) for v in (-9, -4, 0, 3, 8, 12)]
        ref = [e.render() for e in t_ordering(U, 5).exponents]
        for seed in range(5):
            run = t_ordering(U, 5, policy=RandomTieBreak(seed), start=rng.randrange(6))
            assert [e.render() for e in run.exponents] == ref

    def test_random_tie_break_indices_are_reproduced(self):
        # recorded from the engine that re-summed every prefix at every step;
        # the running sums must make the same draws, capped steps included
        U = [phi_b(v, 2, 12) for v in (-9, -4, 0, 3, 5, 8, 12, 17)]
        exact = ["0", "0", "1", "2", "3", "4", "5", "8"]
        expected = {
            1: ([2, 0, 7, 1, 4, 3, 5, 6, 3, 1], exact + [">=16", ">=20"]),
            6: ([1, 7, 3, 2, 0, 4, 5, 6, 5, 0], exact + [">=19", ">=16"]),
        }
        for seed, (indices, rendered) in expected.items():
            run = t_ordering(U, 9, RandomTieBreak(seed))
            assert run.indices == indices
            assert [e.render() for e in run.exponents] == rendered

    def test_capped_exponents_never_pretend_exactness(self):
        # running past |U| leaves only capped markers; asking maxmin for
        # an exact invariant there must fail loudly instead of guessing
        U = [series(0, 0, cap=4), series(1, cap=4), series(2, cap=4)]
        run = t_ordering(U, 4)
        assert not run.exponents[3].exact and not run.exponents[4].exact
        with pytest.raises(CapError):
            maxmin_check(U, 3, samples=3, seed=0)


class TestMaxMin:
    def test_witness_and_samples(self):
        U = [phi_b(v, 2, 9) for v in range(6)]
        rep = maxmin_check(U, 4, samples=30, seed=2)
        assert rep.ok and rep.alpha_k == 3 and rep.witness_min == 3

    def test_k_zero(self):
        U = [phi_b(v, 3, 6) for v in (0, 4, 7)]
        rep = maxmin_check(U, 0, samples=10, seed=1)
        assert rep.ok and rep.alpha_k == 0

    def test_fraction_families(self):
        # a common shift or a unit factor moves no order of a difference:
        # the same alpha and witness, each taken over one denominator d > 1
        U = [phi_b(v, 3, 8) for v in (-7, -2, 0, 4, 5, 13)]
        ref = maxmin_check(U, 3, samples=10, seed=5)
        shift, unit = TruncatedSeries.constant(Fraction(1, 2), 8), TruncatedSeries.constant(Fraction(-2, 3), 8)
        for V in ([f + shift for f in U], [f * unit for f in U], [f * unit + shift for f in U]):
            rep = maxmin_check(V, 3, samples=10, seed=5)
            assert rep.ok and (rep.alpha_k, rep.witness_min) == (ref.alpha_k, ref.witness_min)
            qk = build_qk(t_ordering(V, 3).elements[:3])
            assert full_min_order(V, qk) == TOrderValue.of(rep.witness_min)

    def test_superadditive_and_antitone(self):
        rng = random.Random(21)
        for _ in range(20):
            values = sorted(rng.sample(range(-20, 21), 7))
            b = rng.randint(2, 6)
            alphas = exponent_sequence(ExplicitFinite(values), b, 6).values
            cap = max((v.value for v in alphas if v.is_finite), default=0) + 2
            U2 = [phi_b(v, b, cap) for v in values]
            sub = sorted(rng.sample(range(7), rng.randint(2, 6)))
            U1 = [U2[i] for i in sub]

            def alpha(U, k):
                e = t_ordering(U, k).exponents[k]
                assert e.exact
                return e.floor

            for k in range(len(U1)):
                assert alpha(U1, k) >= alpha(U2, k)
            for k in range(4):
                for ell in range(4 - k):
                    assert alpha(U2, k + ell) >= alpha(U2, k) + alpha(U2, ell)

    def test_u_test_sequences_dominate(self):
        rng = random.Random(31)
        for _ in range(20):
            values = sorted(rng.sample(range(-15, 16), 6))
            b = rng.choice((2, 3, 5))
            alphas = exponent_sequence(ExplicitFinite(values), b, 5).values
            cap = max((v.value for v in alphas if v.is_finite), default=0) + 3
            U = [phi_b(v, b, cap) for v in values]
            seq = [rng.choice(U) for _ in range(4)]
            inv = t_ordering(U, 3).exponents
            got, want = 0, 0
            ok = True
            for m in range(4):
                val = TOrderValue.of(0)
                for j in range(m):
                    val = val + (seq[m] - seq[j]).ord_t()
                # compare partial sums where both sides are exact
                if val.exact and inv[m].exact:
                    got += val.floor
                    want += inv[m].floor
                    ok = ok and got >= want
                else:
                    break
            assert ok


# -- the kernels that read only an order ------------------------------------

coeffs = st.one_of(
    st.integers(min_value=-2, max_value=2),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
)


# the integer series theory-mix sends: digit maps and small random integers
integer_coeffs = st.integers(min_value=-3, max_value=3)


@st.composite
def near(draw, base=None, min_cap=1, max_cap=9, entries=coeffs):
    """A series that shares a random prefix with `base`, so high orders are common."""
    kept = list(base.coeffs[: draw(st.integers(0, base.cap))]) if base is not None else []
    kept += [0] * draw(st.integers(0, 3))
    cap = draw(st.integers(max(min_cap, len(kept)), max(max_cap, len(kept))))
    tail = draw(st.lists(entries, min_size=cap - len(kept), max_size=cap - len(kept)))
    return TruncatedSeries(kept[:cap] + tail)


@st.composite
def families(draw, entries=coeffs):
    """A family U with mixed caps around one base series, and a polynomial p."""
    base = draw(near(min_cap=6, entries=entries))
    U = [draw(near(base, min_cap=4, entries=entries)) for _ in range(draw(st.integers(1, 6)))]
    others = draw(st.lists(near(base, min_cap=4, entries=entries), min_size=1, max_size=3))
    # short copies of roots vanish below their own cap: the unresolved members
    for r in draw(st.lists(st.sampled_from(others), max_size=2)):
        U.insert(draw(st.integers(0, len(U))), r.truncate(draw(st.integers(1, r.cap))))
    kind = draw(st.integers(0, 2))
    if kind == 0:  # a product over members: vanishes on them
        p = build_qk(U[: draw(st.integers(1, len(U)))])
    else:  # a product over near series, or arbitrary coefficients
        p = build_qk(others) if kind == 1 else SeriesPolynomial(tuple(others))
    return U, p


@st.composite
def mixed_caps(draw, entries=coeffs):
    """Members agreeing with a root r on a random prefix, and copies of r cut short.

    With p = x - r a long member's order is exact, while a copy cut to cap c
    leaves an order >= c unresolved: ambiguous when c lies below the minimum.
    """
    r = draw(near(min_cap=6, entries=entries))
    U = [draw(near(r, min_cap=r.cap, entries=entries)) for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(1, 2))):
        U.insert(draw(st.integers(0, len(U))), r.truncate(draw(st.integers(1, r.cap))))
    return U, build_qk([r])


def min_order_over(U, p):
    """_min_order_over on U and p scaled to integer rows, as maxmin_check calls it."""
    Fs, d = series_module._scaled([f.coeffs for f in U])
    C, _ = series_module._scaled([c.coeffs for c in p.coeffs])
    return series_module._min_order_over(Fs, d, C)


def full_min_order(U, p):
    """_min_order_over as it was: every member evaluated at its own cap."""
    best, unresolved = None, []
    for f in U:
        o = eval_poly(p, f).ord_t()
        if not o.exact:
            unresolved.append(o.floor)
        elif best is None or o.floor < best.floor:
            best = o
    if best is None:
        return TOrderValue.at_least(min(unresolved))
    if any(fl < best.floor for fl in unresolved):
        raise CapError("ambiguous")
    return best


class TestOrderKernels:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_order_of_difference_reads_the_coefficients(self, data):
        f = data.draw(near())
        g = data.draw(near(f))
        assert series_module._order_of_difference(f, g) == (f - g).ord_t()
        assert series_module._order_of_difference(g, f) == (g - f).ord_t()

    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(
            families(),
            mixed_caps(),
            families(entries=integer_coeffs),
            mixed_caps(entries=integer_coeffs),
        )
    )
    def test_truncated_min_order_matches_full_evaluation(self, family):
        U, p = family
        try:
            want = full_min_order(U, p)
        except CapError:
            with pytest.raises(CapError):
                min_order_over(U, p)
        else:
            assert min_order_over(U, p) == want

    def test_unresolved_member_below_the_exact_minimum_raises(self):
        # p(f) = f: the cap-8 member has exact order 5, the cap-3 member
        # vanishes below its cap, so its order may lie anywhere from 3 on
        p = SeriesPolynomial((series(cap=8), series(1, cap=8)))
        exact, short = series(0, 0, 0, 0, 0, 1, cap=8), series(cap=3)
        for U in ([exact, short], [short, exact]):
            with pytest.raises(CapError):
                full_min_order(U, p)
            with pytest.raises(CapError):
                min_order_over(U, p)
        # an unresolved member at or above the minimum leaves it exact
        U = [exact, series(cap=6), series(0, 0, 0, 0, 0, 0, 2, cap=9)]
        assert min_order_over(U, p) == full_min_order(U, p) == TOrderValue.of(5)

    def test_internal_ops_keep_fraction_coefficients(self):
        f, g = series(1, Fraction(1, 2), cap=4), series(3, cap=5)
        for h in (f + g, f - g, -f, f * g, f.truncate(2), eval_poly(build_qk([g]), f)):
            assert all(type(c) is Fraction for c in h.coeffs)
        for cap in (0, -1, -3):  # a negative cap must not slice coefficients off the end
            with pytest.raises(ValueError):
                f.truncate(cap)
            with pytest.raises(ValueError):
                TruncatedSeries.constant(5, cap)
        with pytest.raises(ValueError):
            TruncatedSeries.zero(0)


# -- the integer kernels against the Fraction arithmetic they replace ---------


def fraction_mul(f, g):
    """TruncatedSeries.__mul__ as it was: the convolution on Fractions."""
    n = min(f.cap, g.cap)
    out = [Fraction(0)] * n
    for i, a in enumerate(f.coeffs[:n]):
        if a == 0:
            continue
        for j in range(n - i):
            b = g.coeffs[j]
            if b != 0:
                out[i + j] += a * b
    return TruncatedSeries(out)


def fraction_eval(p, f, cap=None):
    """eval_poly as it was: Horner's rule on Fraction series."""
    own = min(f.cap, min(c.cap for c in p.coeffs))
    cap = own if cap is None else min(cap, own)
    f = f.truncate(cap)
    acc = TruncatedSeries.zero(cap)
    for c in reversed(p.coeffs):
        acc = fraction_mul(acc, f) + c.truncate(cap)
    return acc


def fraction_qk(prefix, cap):
    """build_qk with every product taken by fraction_mul."""
    coeffs = [TruncatedSeries.constant(1, cap)]
    for f in prefix:
        f = f.truncate(cap)
        nxt = [TruncatedSeries.zero(cap) for _ in range(len(coeffs) + 1)]
        for i, c in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - fraction_mul(c, f)
        coeffs = nxt
    return coeffs


# denominators up to 7, both signs, and zeros often enough to vanish whole terms
rationals = st.one_of(
    st.just(0),
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
)


@st.composite
def operands(draw, entries=rationals):
    """A series of cap 1..9; one draw in four is all zero."""
    cap = draw(st.integers(1, 9))
    if draw(st.integers(0, 3)) == 0:
        return TruncatedSeries.zero(cap)
    return TruncatedSeries(draw(st.lists(entries, min_size=cap, max_size=cap)))


@st.composite
def polynomials(draw, entries=rationals):
    return SeriesPolynomial(tuple(draw(st.lists(operands(entries), min_size=1, max_size=5))))


# integers past one machine word: widths of many words
large = st.integers(min_value=-(2**70), max_value=2**70)

any_entries = st.sampled_from([rationals, integer_coeffs, large])


def assert_same(h, want):
    assert h.cap == want.cap
    assert all(type(c) is Fraction for c in h.coeffs)
    assert h.coeffs == want.coeffs


class TestIntegerKernels:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_product_matches_fraction_convolution(self, data):
        entries = data.draw(any_entries)
        f, g = data.draw(operands(entries)), data.draw(operands(entries))
        assert_same(f * g, fraction_mul(f, g))
        assert_same(g * f, fraction_mul(g, f))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_evaluation_matches_fraction_horner(self, data):
        entries = data.draw(any_entries)
        p, f = data.draw(polynomials(entries)), data.draw(operands(entries))
        assert_same(eval_poly(p, f), fraction_eval(p, f))
        cap = data.draw(st.integers(1, 10))
        assert_same(eval_poly(p, f, cap), fraction_eval(p, f, cap))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_qk_matches_fraction_product(self, data):
        entries = data.draw(any_entries)
        prefix = data.draw(st.lists(operands(entries), max_size=4))
        cap = data.draw(st.integers(1, min((f.cap for f in prefix), default=8)))
        for got, want in zip(build_qk(prefix, cap).coeffs, fraction_qk(prefix, cap), strict=True):
            assert_same(got, want)

    def test_evaluation_refuses_a_cap_below_one(self):
        p = build_qk([series(1, 2)])
        for cap in (0, -2):
            with pytest.raises(ValueError):
                eval_poly(p, series(3), cap)


def fraction_draw(rng, degree, cap):
    """random_primitive_polynomial as it was: rows of Fractions, rejected as series."""
    bound, t_degree = series_module.COEFF_BOUND, series_module.T_DEGREE
    pad = (Fraction(0),) * max(0, cap - t_degree - 1)
    while True:
        rows = []
        for _ in range(degree + 1):
            cs = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(t_degree + 1))
            rows.append(TruncatedSeries(cs[:cap] + pad))
        p = SeriesPolynomial(tuple(rows))
        if rows[degree].ord_t().exact and p.is_t_primitive():
            return p


class TestPackedKernels:
    """Series packed at t = 2^w: the width bound met with equality, signs, and order reads."""

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    @pytest.mark.parametrize("sa, sc", [(1, 1), (-1, 1), (1, -1), (-1, -1)])
    def test_product_at_the_width_edge(self, n, sa, sc):
        # every coefficient +-max: the top output is n*7*5 = ||a||_1 * max|c|,
        # the bound the width is one bit above
        f, g = series(*[sa * 7] * n, cap=n), series(*[sc * 5] * n, cap=n)
        assert (f * g).coeffs[-1] == sa * sc * n * 35
        assert_same(f * g, fraction_mul(f, g))
        # with denominators the numerators 21 and -10 over 6 meet their bound
        f, g = series(*[Fraction(sa * 7, 2)] * n, cap=n), series(*[Fraction(sc * -5, 3)] * n, cap=n)
        assert (f * g).coeffs[-1] == Fraction(sa * sc * -n * 210, 36)
        assert_same(f * g, fraction_mul(f, g))

    def test_product_with_zero(self):
        for n in (1, 4):
            f = series(*range(-2, n - 2), cap=n)
            assert_same(f * TruncatedSeries.zero(n), TruncatedSeries.zero(n))
            assert_same(TruncatedSeries.zero(n) * f, TruncatedSeries.zero(n))

    @pytest.mark.parametrize("n", [1, 3, 6])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_evaluation_at_the_width_edge(self, n, sign):
        # p = C_1 x + C_0 with every coefficient 7 at f = 5/2 in every term:
        # 2*p(f) tops out at 7*(5n) + 7*2 = B_0, the bound of the width
        row = series(*[sign * 7] * n, cap=n)
        p, f = SeriesPolynomial((row, row)), series(*[Fraction(5, 2)] * n, cap=n)
        assert eval_poly(p, f).coeffs[-1] == Fraction(sign * (35 * n + 14), 2)
        assert_same(eval_poly(p, f), fraction_eval(p, f))
        # n = 1, degree 3: Horner's bound ((3*4 + 3)*4 + 3)*4 + 3 = 255 is the value
        p = SeriesPolynomial(tuple(series(sign * 3, cap=1) for _ in range(4)))
        assert eval_poly(p, series(4, cap=1)) == series(sign * 255, cap=1)

    def test_evaluation_at_zero_and_of_zero(self):
        p = SeriesPolynomial((series(-3, 1, cap=4), series(2, cap=4), series(5, 5, cap=4)))
        assert_same(eval_poly(p, TruncatedSeries.zero(4)), series(-3, 1, cap=4))
        zero = SeriesPolynomial((TruncatedSeries.zero(4),) * 3)
        assert_same(eval_poly(zero, series(1, Fraction(1, 2), cap=4)), TruncatedSeries.zero(4))

    def test_order_read_from_the_lowest_set_bit(self):
        # p = x at f = c*t^j + t^(j+1): order j, whatever the lowest set bit of c
        p = SeriesPolynomial((series(cap=8), series(1, cap=8)))
        for j in range(6):
            for c in (1, -1, 2, 6, -8, 2**40):
                U = [series(*[0] * j, c, 1, cap=8)]
                assert min_order_over(U, p) == full_min_order(U, p) == TOrderValue.of(j)
        assert min_order_over([series(cap=8)], p) == TOrderValue.at_least(8)

    def test_row_draw_makes_the_fraction_draws(self):
        for seed in range(20):
            for degree, cap in ((0, 1), (1, 2), (2, 4), (3, 8), (4, 16)):
                rng, want_rng = random.Random(seed), random.Random(seed)
                want = fraction_draw(want_rng, degree, cap)
                assert series_module._random_rows(rng, degree, cap) == [
                    [c.numerator for c in row.coeffs] for row in want.coeffs
                ]
                assert rng.getstate() == want_rng.getstate()
                assert random_primitive_polynomial(random.Random(seed), degree, cap) == want
