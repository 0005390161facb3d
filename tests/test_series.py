"""Tests for truncated series, digit maps, t-orderings and the max-min checks."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import coefficient_t_ordering

from borderings import series as series_module
from borderings.intsets import ExplicitFinite
from borderings.ordering import CANONICAL, RandomTieBreak, exponent_sequence
from borderings.series import (
    CapError,
    TOrderValue,
    TruncatedSeries,
    congruence_check,
    maxmin_check,
    phi_b,
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
            TruncatedSeries([1, Fraction(1, 2), 0.1])

    def test_an_empty_series_is_refused(self):
        # the one positive-cap guard: every series is built through the constructor
        with pytest.raises(ValueError):
            TruncatedSeries([])

    def test_min_cap_discipline(self):
        f = series(1, 1, cap=4)
        g = series(1, cap=9)
        assert (f + g).cap == 4
        assert (f * g).cap == 4

    def test_ord_examples(self):
        assert series(0, 0, 1, 1).ord_t() == TOrderValue.of(2)
        assert series(3, -1).ord_t() == TOrderValue.of(0)
        z = series(cap=8).ord_t()
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
        assert phi_b(0, 7, 5) == series(cap=5)
        assert phi_b(1, 7, 5) == series(1, cap=5)

    def test_a_cap_below_one_is_refused(self):
        for cap in (0, -1):
            with pytest.raises(ValueError):
                phi_b(5, 2, cap)

    def test_congruence_preservation_grid(self):
        for b in (2, 3, 6, 10, 12):
            for a1 in range(-12, 13):
                for a2 in range(-12, 13):
                    assert congruence_check(b, a1, a2, 10), (b, a1, a2)

    def test_specific_pairs(self):
        assert congruence_check(10, 123, 23, 8)
        assert congruence_check(2, 3, 2, 8)
        assert congruence_check(5, 9, 9, 6)


def ints(*coeffs, cap=8):
    """An integer row: the coefficients, zero-padded to cap."""
    return list(coeffs) + [0] * (cap - len(coeffs))


def packed_eval(C, F, d, n):
    """_horner's result unpacked: the numerators of p(F/d) over d^k mod t^n, p with integer rows C."""
    return series_module._unpack(*series_module._horner(C, F, d, n), n)


class TestPolynomials:
    def test_qk_basics(self):
        assert series_module._qk_rows([], 8) == [ints(1)]
        F = ints(2, 1)
        q1 = series_module._qk_rows([F], 8)
        assert q1 == [ints(-2, -1), ints(1)]
        assert packed_eval(q1, F, 1, 8) == ints()  # a root
        assert packed_eval(q1, ints(1, 1), 1, 8) == ints(-1)  # (1 + t) - (2 + t)
        # (y - 3)(y - 2t), the numerators of (x - 1/2)(x - t/3) over d = 6
        assert series_module._qk_rows([[3, 0], [0, 2]], 2) == [[0, 6], [-3, -2], [1, 0]]

    def test_eval_examples(self):
        t = ints(0, 1)
        assert packed_eval([ints(), ints(), ints(1)], t, 1, 8) == ints(0, 0, 1)
        assert packed_eval([ints(2, 3)], t, 1, 8) == ints(2, 3)
        # 3 * (x^2 + x/3 + 1) at 1/2: Horner's scale d^(k-i) makes d^k p(F/d) = 4 * 17/4
        assert packed_eval([[3], [1], [3]], [1], 2, 1) == [17]


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
        shift, unit = series(Fraction(1, 2)), series(Fraction(-2, 3))
        for V in ([f + shift for f in U], [f * unit for f in U], [f * unit + shift for f in U]):
            rep = maxmin_check(V, 3, samples=10, seed=5)
            assert rep.ok and (rep.alpha_k, rep.witness_min) == (ref.alpha_k, ref.witness_min)
            qk = qk_rows(t_ordering(V, 3).elements[:3])
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


def scaled_rows(p):
    """Integer rows of a nonzero multiple of the polynomial with series coefficients p."""
    return series_module._scaled([c.coeffs for c in p])[0]


def qk_rows(prefix):
    """Integer rows of a multiple of q_k, the product of (x - f) over the prefix, from fraction_qk."""
    return scaled_rows(fraction_qk(prefix, min(f.cap for f in prefix)))


@st.composite
def families(draw, entries=coeffs):
    """A family U with mixed caps around one base series, and the integer rows of a polynomial p."""
    base = draw(near(min_cap=6, entries=entries))
    U = [draw(near(base, min_cap=4, entries=entries)) for _ in range(draw(st.integers(1, 6)))]
    others = draw(st.lists(near(base, min_cap=4, entries=entries), min_size=1, max_size=3))
    # short copies of roots vanish below their own cap: the unresolved members
    for r in draw(st.lists(st.sampled_from(others), max_size=2)):
        U.insert(draw(st.integers(0, len(U))), TruncatedSeries(r.coeffs[: draw(st.integers(1, r.cap))]))
    kind = draw(st.integers(0, 2))
    if kind == 0:  # a product over members: vanishes on them
        return U, qk_rows(U[: draw(st.integers(1, len(U)))])
    # a product over near series, or arbitrary coefficients
    return U, qk_rows(others) if kind == 1 else scaled_rows(others)


@st.composite
def mixed_caps(draw, entries=coeffs):
    """Members agreeing with a root r on a random prefix, and copies of r cut short.

    With p = x - r a long member's order is exact, while a copy cut to cap c
    leaves an order >= c unresolved: ambiguous when c lies below the minimum.
    """
    r = draw(near(min_cap=6, entries=entries))
    U = [draw(near(r, min_cap=r.cap, entries=entries)) for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(1, 2))):
        U.insert(draw(st.integers(0, len(U))), TruncatedSeries(r.coeffs[: draw(st.integers(1, r.cap))]))
    return U, qk_rows([r])


def min_order_over(U, C):
    """_min_order_over on U scaled to numerators over one d, as maxmin_check calls it."""
    Fs, d = series_module._scaled([f.coeffs for f in U])
    return series_module._min_order_over(Fs, d, C)


def full_min_order(U, C):
    """_min_order_over as it was: every member evaluated at its own cap, here by fraction_eval."""
    p = [TruncatedSeries(row) for row in C]
    best, unresolved = None, []
    for f in U:
        o = fraction_eval(p, f).ord_t()
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
    def test_order_of_a_packed_difference(self, data):
        # numerators over one d, packed at the least w with 2^w above twice the largest one
        f = data.draw(near())
        g = data.draw(near(f))
        (F, G), _ = series_module._scaled([f.coeffs, g.coeffs])
        w = (2 * max(map(abs, F + G))).bit_length()
        v = series_module._pack(F, w) - series_module._pack(G, w)
        n = min(f.cap, g.cap)
        assert series_module._order(v, w, n) == (f - g).ord_t()
        assert series_module._order(-v, w, n) == (g - f).ord_t()

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
        p = [ints(), ints(1)]
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
        for h in (f + g, f - g, -f, f * g, g * g):
            assert all(type(c) is Fraction for c in h.coeffs)


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
    """Horner's rule on Fraction series: p(f) for p a list of series, lowest power of x first."""
    own = min(f.cap, min(c.cap for c in p))
    cap = own if cap is None else min(cap, own)
    f = TruncatedSeries(f.coeffs[:cap])
    acc = series(cap=cap)
    for c in reversed(p):
        acc = fraction_mul(acc, f) + TruncatedSeries(c.coeffs[:cap])
    return acc


def fraction_qk(prefix, cap):
    """The series coefficients of the product of (x - f) over the prefix, every product taken by fraction_mul."""
    coeffs = [series(1, cap=cap)]
    for f in prefix:
        f = TruncatedSeries(f.coeffs[:cap])
        nxt = [series(cap=cap) for _ in range(len(coeffs) + 1)]
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
        return series(cap=cap)
    return TruncatedSeries(draw(st.lists(entries, min_size=cap, max_size=cap)))


def polynomials(entries=rationals):
    """Series coefficients of a polynomial in x, lowest power first."""
    return st.lists(operands(entries), min_size=1, max_size=5)


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
        # p = C/d_p and f = F/d_f: _horner's result is d_p * d_f^k * p(f) mod t^n
        entries = data.draw(any_entries)
        p, f = data.draw(polynomials(entries)), data.draw(operands(entries))
        own = min(f.cap, min(c.cap for c in p))
        for n in (own, min(own, data.draw(st.integers(1, 10)))):
            C, dp = series_module._scaled([c.coeffs for c in p], n)
            (F,), d = series_module._scaled((f.coeffs,), n)
            want = fraction_eval(p, f, n).coeffs
            assert packed_eval(C, F, d, n) == [c * dp * d ** (len(p) - 1) for c in want]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_qk_matches_fraction_product(self, data):
        # with every f_j = F_j/d, the x^i coefficient of q_k is B_i / d^(k-i)
        entries = data.draw(any_entries)
        prefix = data.draw(st.lists(operands(entries), max_size=4))
        cap = data.draw(st.integers(1, min((f.cap for f in prefix), default=8)))
        Fs, d = series_module._scaled([f.coeffs for f in prefix], cap)
        k = len(prefix)
        got = series_module._qk_rows(Fs, cap)
        want = fraction_qk(prefix, cap)
        assert got == [[c * d ** (k - i) for c in q.coeffs] for i, q in enumerate(want)]


def fraction_draw(rng, degree, cap):
    """The sample draw as it was: rows of Fractions, rejected as series."""
    bound, t_degree = series_module.COEFF_BOUND, series_module.T_DEGREE
    pad = (Fraction(0),) * max(0, cap - t_degree - 1)
    while True:
        drawn = []
        for _ in range(degree + 1):
            cs = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(t_degree + 1))
            drawn.append(TruncatedSeries(cs[:cap] + pad))
        # exact x-degree `degree`, and t-primitive: some row has a nonzero constant term
        if drawn[degree].ord_t().exact and any(r.ord_t() == TOrderValue.of(0) for r in drawn):
            return drawn


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
            assert_same(f * series(cap=n), series(cap=n))
            assert_same(series(cap=n) * f, series(cap=n))

    @pytest.mark.parametrize("n", [1, 3, 6])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_evaluation_at_the_width_edge(self, n, sign):
        # p = C_1 x + C_0 with every coefficient 7 at f = 5/2 in every term:
        # 2*p(f) tops out at 7*(5n) + 7*2 = B_0, the bound of the width
        row = [sign * 7] * n
        got = packed_eval([row, row], [5] * n, 2, n)
        assert got[-1] == sign * (35 * n + 14)
        p = [TruncatedSeries(row)] * 2
        assert got == [2 * c for c in fraction_eval(p, series(*[Fraction(5, 2)] * n, cap=n)).coeffs]
        # n = 1, degree 3: Horner's bound ((3*4 + 3)*4 + 3)*4 + 3 = 255 is the value
        assert packed_eval([[sign * 3]] * 4, [4], 1, 1) == [sign * 255]

    def test_evaluation_at_zero_and_of_zero(self):
        p = [ints(-3, 1, cap=4), ints(2, cap=4), ints(5, 5, cap=4)]
        assert packed_eval(p, ints(cap=4), 1, 4) == ints(-3, 1, cap=4)
        # d^2 * 0 at f = (2 + t)/2
        assert packed_eval([ints(cap=4)] * 3, ints(2, 1, cap=4), 2, 4) == ints(cap=4)

    def test_order_read_from_the_lowest_set_bit(self):
        # p = x at f = c*t^j + t^(j+1): order j, whatever the lowest set bit of c
        p = [ints(), ints(1)]
        for j in range(6):
            for c in (1, -1, 2, 6, -8, 2**40):
                U = [series(*[0] * j, c, 1, cap=8)]
                assert min_order_over(U, p) == full_min_order(U, p) == TOrderValue.of(j)
        assert min_order_over([series(cap=8)], p) == TOrderValue.at_least(8)

    def test_row_draw_has_its_degree_and_is_primitive(self):
        # a zero leading row, or every constant term zero, is drawn again
        for seed in range(20):
            for degree, cap in ((1, 1), (0, 4), (2, 4)):
                drawn = series_module._random_rows(random.Random(seed), degree, cap)
                assert len(drawn) == degree + 1 and all(len(r) == cap for r in drawn)
                assert any(drawn[degree]) and any(r[0] for r in drawn)

    def test_row_draw_makes_the_fraction_draws(self):
        for seed in range(20):
            for degree, cap in ((0, 1), (1, 2), (2, 4), (3, 8), (4, 16)):
                rng, want_rng = random.Random(seed), random.Random(seed)
                want = fraction_draw(want_rng, degree, cap)
                assert series_module._random_rows(rng, degree, cap) == [[c.numerator for c in r.coeffs] for r in want]
                assert rng.getstate() == want_rng.getstate()


# -- t_ordering's packed order reads against the coefficient loop ---------------


@st.composite
def t_families(draw):
    """(U, k, seed, start): members of caps 3..8 near one base series, with duplicates, and k past |U|."""
    entries = draw(any_entries)
    base = draw(near(min_cap=3, max_cap=8, entries=entries))
    U = [draw(near(base, min_cap=3, max_cap=8, entries=entries)) for _ in range(draw(st.integers(1, 6)))]
    for f in draw(st.lists(st.sampled_from(U), max_size=2)):
        U.insert(draw(st.integers(0, len(U))), f)
    k = draw(st.integers(0, len(U) + 2))
    seed = draw(st.one_of(st.none(), st.integers(0, 2**16)))
    start = draw(st.one_of(st.none(), st.integers(0, len(U) - 1)))
    return U, k, seed, start


class TestPackedTOrdering:
    @settings(max_examples=300, deadline=None)
    @given(t_families())
    def test_matches_the_coefficient_loop(self, case):
        U, k, seed, start = case

        def policy():
            return CANONICAL if seed is None else RandomTieBreak(seed)

        try:
            want = coefficient_t_ordering(U, k, policy(), start)
        except CapError:
            with pytest.raises(CapError):
                t_ordering(U, k, policy(), start)
        else:
            run = t_ordering(U, k, policy(), start)
            assert (run.indices, run.exponents) == want
            assert run.elements == [U[i] for i in run.indices]

    @pytest.mark.parametrize("j", [0, 1, 5, 63, 64, 70])
    def test_t_ordering_at_the_width_edge(self, j):
        # 2^j and -2^j at index 1: their difference 2^(j+1) is twice the
        # largest numerator, the bound 2^w must pass; at 2^w = 2^(j+1) it
        # would carry into index 2
        U = [series(1, 2**j, 0, 1, cap=5), series(1, -(2**j), 1, cap=5), series(1, 2**j, 0, 1, 3, cap=6)]
        run = t_ordering(U, 2)
        assert (run.indices, run.exponents) == coefficient_t_ordering(U, 2, CANONICAL)
        assert run.exponents[1] == (U[1] - U[0]).ord_t() == TOrderValue.of(1)

    def test_no_fraction_is_compared(self, monkeypatch):
        # the orders are read from packed integers: neither loop compares two Fractions
        digit = [phi_b(v, 2, 9) for v in range(6)]
        integer = [series(1, 0, 1), series(0, 1), series(2, -1, 0, 1), series(-1, 2, 2), series(1, 1), series(0, 0, 1, -2)]
        calls = []
        original = Fraction.__eq__

        def counting_eq(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(Fraction, "__eq__", counting_eq)
        for U in (digit, integer):
            assert t_ordering(U, 5, RandomTieBreak(2)).exponents[5].exact
            assert maxmin_check(U, 5, samples=20, seed=3).ok
        assert calls == []
