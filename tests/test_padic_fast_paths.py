"""The fast paths of exact p-adic evaluation against the plain computation.

``PadicElement.inverse`` takes ``pow(a, -1, p^prec)`` when d = e = 1 and
``map_eval_padic`` embeds coefficients once per context, inverts a constant
denominator once and skips the product when it is 1. Each must give the same
digits *and* the same precision tag as the plain computation: coefficients
embedded at every term, powers built up from ``ctx.one()``, and the Newton
inverse. Contexts cover Z_p and ramified and unramified extensions; points
may carry more digits than the context, and the result is capped as before.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padicdyn.errors import (BadReductionError, IndeterminacyError,
                             NonUnitError)
from padicdyn.neighborhood import map_eval_padic
from padicdyn.padics import PadicContext
from padicdyn.polynomials import MultiPoly, RationalSelfMap
from padicdyn.series import poly_eval

CONTEXTS = [
    PadicContext(3, precision=8),
    PadicContext(5, precision=20),
    PadicContext(7),
    PadicContext(3, unram_poly=[1, 0, 1], precision=10),
    PadicContext(5, eis_poly=[-5, 0, 1], precision=12),
    PadicContext(5, unram_poly=[2, 0, 1], eis_poly=[-5, 0, 1], precision=6),
    PadicContext(7, eis_poly=[-7, 0, 0, 1], precision=8),
]


def same(a, b):
    return a.layers == b.layers and a.prec == b.prec


@st.composite
def elements(draw, ctx):
    prec = draw(st.one_of(st.integers(1, ctx.precision),
                          st.sampled_from([ctx.precision, ctx.precision + 3])))
    mod = ctx.p ** prec
    coords = [draw(st.integers(0, mod - 1)) for _ in range(ctx.d * ctx.e)]
    return ctx.from_coords(coords, prec)


@st.composite
def context_and_element(draw):
    ctx = draw(st.sampled_from(CONTEXTS))
    return ctx, draw(elements(ctx))


@given(context_and_element())
def test_inverse_is_exact_and_equals_the_newton_inverse(case):
    ctx, x = case
    if not x.is_unit():
        with pytest.raises(NonUnitError):
            x.inverse()
        return
    inv = x.inverse()
    assert x * inv == ctx.one()
    assert same(inv, x._newton_inverse())


def plain_poly_eval(poly, point, ctx):
    """Every coefficient embedded at every term, powers from ctx.one()."""
    total = ctx.zero()
    for idx, c in poly.terms.items():
        term = ctx.from_rational(c)
        for x, a in zip(point, idx):
            power = ctx.one()
            for _ in range(a):
                power = power * x
            term = term * power
        total = total + term
    return total


def plain_map_eval(f, point, ctx):
    out = []
    for num, den in zip(f.numerators, f.denominators):
        dval = plain_poly_eval(den, point, ctx)
        if dval.valuation() != 0:
            raise IndeterminacyError("denominator is not a unit")
        out.append(plain_poly_eval(num, point, ctx) * dval._newton_inverse())
    return tuple(out)


def polys(n, coefficients, max_size=4):
    exponents = st.tuples(*[st.integers(0, 3)] * n)
    return st.dictionaries(exponents, coefficients, min_size=1,
                           max_size=max_size).map(lambda t: MultiPoly(n, t))


@st.composite
def maps_and_points(draw):
    """A map of A^1 or A^2 whose denominators are non-constant, constant
    integers (units or not) or 1, a context and a point."""
    ctx = draw(st.sampled_from(CONTEXTS))
    n = draw(st.integers(1, 2))
    # 1 often, since a coefficient 1 costs no product
    coefficient = st.one_of(
        st.just(Fraction(1)),
        st.fractions(min_value=-6, max_value=6,
                     max_denominator=3).filter(bool))
    nums = [draw(polys(n, coefficient)) for _ in range(n)]
    dens = []
    for _ in range(n):
        kind = draw(st.sampled_from(["poly", "constant", "one"]))
        if kind == "poly":
            dens.append(draw(polys(n, coefficient, max_size=3)))
        elif kind == "constant":
            dens.append(MultiPoly.constant(n, draw(coefficient)))
        else:
            dens.append(MultiPoly.constant(n, 1))
    assume(not any(d.is_zero() for d in dens))
    point = tuple(draw(elements(ctx)) for _ in range(n))
    return RationalSelfMap(nums, dens), ctx, point


@settings(max_examples=150, deadline=None)
@given(maps_and_points())
def test_map_eval_padic_equals_the_plain_evaluation(case):
    f, ctx, point = case
    if any(c.denominator % ctx.p == 0 for c in f.coefficients()):
        with pytest.raises(BadReductionError):
            map_eval_padic(f, point, ctx)
        return
    try:
        expected = plain_map_eval(f, point, ctx)
    except IndeterminacyError:
        with pytest.raises(IndeterminacyError):
            map_eval_padic(f, point, ctx)
        return
    for _ in range(2):          # the second call reads the cached embedding
        got = map_eval_padic(f, point, ctx)
        assert all(same(a, b) for a, b in zip(got, expected))
    for num, den, value in zip(f.numerators, f.denominators, expected):
        shared = (poly_eval(num, point, ctx)
                  * poly_eval(den, point, ctx).inverse())
        assert same(shared, value)


def test_results_are_capped_at_the_context_precision():
    ctx = PadicContext(3, precision=8)
    x = ctx.from_coords([3 ** 10 + 7], 11)      # three digits past the context
    expected = ctx.from_int(7)
    for texts in (["x1"], ["x1^2 - x1 + 1"]):
        f = RationalSelfMap.from_texts(1, texts)
        assert same(map_eval_padic(f, (x,), ctx)[0],
                    plain_map_eval(f, (x,), ctx)[0])
    assert same(map_eval_padic(RationalSelfMap.from_texts(1, ["x1"]),
                               (x,), ctx)[0], expected)
    assert same(poly_eval(MultiPoly.variable(1, 0), (x,), ctx), expected)
