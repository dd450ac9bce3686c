"""Exact polynomials, the canonical text form, and truncated series."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padicdyn.errors import (BadReductionError, IndeterminacyError,
                             NotDominantError, RecenteringError)
from padicdyn.padics import INFINITY, PadicContext
from padicdyn.polynomials import (MultiPoly, RationalSelfMap, parse_poly,
                                  poly_text)
from padicdyn.series import (TruncatedSeries, expand_at, poly_eval,
                             series_compose)


def ints(series, mod):
    return {idx: c.layers[0][0] % mod for idx, c in series.terms_sorted()}


def test_parse_and_format_roundtrip():
    cases = ["3*x1^2*x2 - 1/2", "x1^2 + 1", "0", "-x1 + 2/3",
             "x1^3 - x1*x2 + 5"]
    for text in cases:
        p = parse_poly(text, 2)
        assert poly_text(parse_poly(poly_text(p), 2)) == poly_text(p)
    assert poly_text(parse_poly("x1 + x1", 1)) == "2*x1"
    assert poly_text(parse_poly("x1 - x1", 1)) == "0"
    with pytest.raises(ValueError):
        parse_poly("x3", 2)
    with pytest.raises(ValueError):
        parse_poly("x1 +", 1)


@st.composite
def multipolys(draw):
    n = draw(st.integers(1, 3))
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 4)] * n),
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
        max_size=5))
    return n, MultiPoly(n, terms)


@given(multipolys())
def test_poly_text_round_trips(case):
    n, poly = case
    text = poly_text(poly)
    parsed = parse_poly(text, n)
    assert parsed == poly
    assert poly_text(parsed) == text


def test_poly_arithmetic_and_derivative():
    p = parse_poly("x1^2*x2 + 3*x1", 2)
    assert poly_text(p.partial(0)) == "2*x1*x2 + 3"
    assert poly_text(p.partial(1)) == "x1^2"
    q = parse_poly("x1 - 1", 2)
    assert (p * q).eval_fraction([2, 3]) == p.eval_fraction([2, 3]) * 1
    assert p.eval_fraction([Fraction(1, 2), 4]) == Fraction(1, 4) * 4 + \
        Fraction(3, 2)


def test_poly_eval_padic():
    ctx = PadicContext(3)
    q = parse_poly("x1^2 + 1", 1)
    assert poly_eval(q, [ctx.from_int(2)]) == ctx.from_int(5)
    assert poly_eval(parse_poly("x1", 1), [ctx.from_int(7)]) == \
        ctx.from_int(7)
    with pytest.raises(BadReductionError):
        poly_eval(parse_poly("1/3*x1", 1), [ctx.from_int(1)])


def test_expand_at_examples():
    ctx = PadicContext(3)
    one = MultiPoly.constant(1, 1)
    s = expand_at((parse_poly("x1^2 + 1", 1), one), [ctx.from_int(2)], 8)
    assert ints(s, 3 ** 8) == {(0,): 5, (1,): 4, (2,): 1}
    s2 = expand_at((parse_poly("x1", 1), one), [ctx.from_int(7)], 4)
    assert ints(s2, 3 ** 8) == {(0,): 7, (1,): 1}
    c5 = PadicContext(5)
    s3 = expand_at((one, parse_poly("x1", 1)), [c5.from_int(1)], 2)
    assert ints(s3, 25) == {(0,): 1, (1,): 24, (2,): 1}  # 1 - t + t^2
    with pytest.raises(IndeterminacyError):
        expand_at((one, parse_poly("x1", 1)), [c5.from_int(5)], 2)


def test_expansion_constant_is_exact_value():
    ctx = PadicContext(7)
    num = parse_poly("x1^2*x2 + 2", 2)
    den = parse_poly("x2 + 3", 2)
    center = [ctx.from_int(4), ctx.from_int(5)]
    s = expand_at((num, den), center, 5)
    direct = poly_eval(num, center) * poly_eval(den, center).inverse()
    assert s.constant_term() == direct


def test_expand_then_evaluate_matches_direct_evaluation():
    # expansion evaluated at r*u agrees with the rational function at
    # center + r*u modulo r^(cap+1)
    rng = random.Random(9)
    ctx = PadicContext(5)
    num = parse_poly("x1^2 + 3*x1 + 1", 1)
    den = parse_poly("x1 + 1", 1)
    cap = 6
    center = [ctx.from_int(2)]
    s = expand_at((num, den), center, cap)
    r = ctx.uniformizer()
    for _ in range(40):
        u = ctx.random_element(rng)
        t = r * u
        via_series = s.evaluate([t])
        point = [center[0] + t]
        direct = poly_eval(num, point) * poly_eval(den, point).inverse()
        assert (via_series - direct).valuation() >= cap + 1


def test_series_compose_examples():
    ctx = PadicContext(3)
    outer = TruncatedSeries(ctx, 1, 3, {(2,): ctx.one()})
    inner = TruncatedSeries(ctx, 1, 3, {(1,): ctx.one(), (2,): ctx.one()})
    comp = series_compose(outer, [inner])
    assert ints(comp, 3 ** 8) == {(2,): 1, (3,): 2}  # t^2 + 2t^3

    ident = TruncatedSeries.variable(ctx, 1, 3, 0)
    s = TruncatedSeries(ctx, 1, 3, {(1,): ctx.from_int(4),
                                    (3,): ctx.from_int(2)})
    assert ints(series_compose(ident, [s]), 3 ** 8) == ints(s, 3 ** 8)

    bad = TruncatedSeries.constant(ctx, 1, 3, ctx.one())
    with pytest.raises(RecenteringError):
        series_compose(outer, [bad])


def test_compose_matches_brute_force_quadratic_iterate():
    # F = 3t^2+4t+1 composed with itself through degree 2, via recentering
    # at F(0) = 1, against the exact rational expansion of F(F(t)).
    ctx = PadicContext(3)
    F = parse_poly("3*x1^2 + 4*x1 + 1", 1)
    one = MultiPoly.constant(1, 1)
    FF = F * F  # placeholder to exercise MultiPoly mul
    assert FF.eval_fraction([1]) == 64
    outer = expand_at((F, one), [ctx.from_int(1)], 2)  # F(1+u)
    inner = TruncatedSeries(ctx, 1, 2, {(1,): ctx.from_int(4),
                                        (2,): ctx.from_int(3)})
    comp = series_compose(outer, [inner])
    # exact: F(F(t)) = 27t^4+72t^3+78t^2+40t+8, truncated at degree 2
    exact = parse_poly("78*x1^2 + 40*x1 + 8", 1)
    for idx, c in exact.terms.items():
        assert comp.coeffs[idx] == ctx.from_rational(c)


def test_compose_associativity():
    rng = random.Random(10)
    ctx = PadicContext(5)
    for n in (1, 2):
        for _ in range(8):
            cap = rng.randrange(3, 7)

            def rand_series():
                coeffs = {}
                for _ in range(4):
                    idx = tuple(rng.randrange(0, cap + 1) for _ in range(n))
                    if sum(idx) == 0 or sum(idx) > cap:
                        continue
                    coeffs[idx] = ctx.from_int(rng.randrange(-4, 5))
                return TruncatedSeries(ctx, n, cap, coeffs)

            a = [rand_series() for _ in range(n)]
            b = [rand_series() for _ in range(n)]
            c = [rand_series() for _ in range(n)]
            ab_c = [series_compose(series_compose(a[i], b), c)
                    for i in range(n)]
            a_bc = [series_compose(a[i], [series_compose(b[j], c)
                                          for j in range(n)])
                    for i in range(n)]
            for s1, s2 in zip(ab_c, a_bc):
                diff = s1 - s2
                for coeff in diff.coeffs.values():
                    assert coeff.valuation() is INFINITY


def test_truncation_degree_stability():
    # coefficients up to cap never depend on the discarded tail: recompute
    # the same expansion and composition at cap+2 and compare
    ctx = PadicContext(5)
    num = parse_poly("x1^3 + 2*x1 + 1", 1)
    den = parse_poly("2*x1 + 1", 1)
    center = [ctx.from_int(3)]
    cap = 5
    lo = expand_at((num, den), center, cap)
    hi = expand_at((num, den), center, cap + 2)
    for idx, c in lo.coeffs.items():
        assert hi.coeffs[idx] == c
    inner_lo = lo.without_constant()
    inner_hi = hi.without_constant()
    comp_lo = series_compose(lo, [inner_lo])
    comp_hi = series_compose(hi, [inner_hi])
    for idx, c in comp_lo.coeffs.items():
        assert comp_hi.coeffs[idx] == c


@st.composite
def series_pairs(draw):
    """Two series over Z_p or a ramified context, in 1 or 2 variables,
    truncated at degree 1 to 4, with coefficients of mixed precision."""
    ctx = draw(st.sampled_from([PadicContext(5, precision=6),
                                PadicContext(3, e=2, precision=5)]))
    n = draw(st.integers(1, 2))
    cap = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    exponents = st.tuples(*[st.integers(0, cap)] * n).filter(
        lambda idx: sum(idx) <= cap)

    def series():
        keys = draw(st.sets(exponents, max_size=6))
        return TruncatedSeries(ctx, n, cap, {
            idx: ctx.random_element(rng, rng.randint(1, ctx.precision))
            for idx in keys})

    return series(), series()


@given(series_pairs())
def test_product_matches_every_pair_below_the_cap(pair):
    # oracle: every pair of terms, in the left factor's order, keeping those
    # within the cap; digits and precision tags must agree
    a, b = pair
    want = {}
    for i1, c1 in a.coeffs.items():
        for i2, c2 in b.coeffs.items():
            idx = tuple(x + y for x, y in zip(i1, i2))
            if sum(idx) <= a.cap:
                want[idx] = want[idx] + c1 * c2 if idx in want else c1 * c2
    got = (a * b).coeffs
    assert {i: (c.prec, c.layers) for i, c in got.items()} == \
        {i: (c.prec, c.layers) for i, c in want.items()}


def test_zero_constant_predicate():
    ctx = PadicContext(3)
    s = TruncatedSeries(ctx, 1, 4, {(0,): ctx.zero(), (1,): ctx.one()})
    assert not s.has_exact_zero_constant  # stored zero is not an exact zero
    assert s.without_constant().has_exact_zero_constant


def test_rational_self_map_validation_and_dominance():
    with pytest.raises(ValueError):
        RationalSelfMap.from_texts(2, ["x1"])
    f = RationalSelfMap.from_texts(2, ["x1^2 + x2", "x2^2 + x1"])
    f.check_dominant()
    assert poly_text(f.jacobian_numerator_det()) == "4*x1*x2 - 1"
    g = RationalSelfMap.from_texts(2, ["x1 + x2", "2*x1 + 2*x2"])
    with pytest.raises(NotDominantError):
        g.check_dominant()


def test_map_hash_is_stable_and_sensitive():
    f1 = RationalSelfMap.from_texts(1, ["x1^2 + 1"])
    f2 = RationalSelfMap.from_texts(1, ["1 + x1^2"])
    f3 = RationalSelfMap.from_texts(1, ["x1^2 + 2"])
    assert f1.map_hash() == f2.map_hash()
    assert f1.map_hash() != f3.map_hash()
