"""The fast paths of exact p-adic evaluation against the plain computation.

``PadicElement.inverse`` takes ``pow(a, -1, p^prec)`` when d = e = 1 and
``map_eval_padic`` embeds coefficients once per context, inverts a constant
denominator once and skips the product when it is 1. Each must give the same
digits *and* the same precision tag as the plain computation: coefficients
embedded at every term, powers built up from ``ctx.one()``, and the Newton
inverse. Contexts cover Z_p and ramified and unramified extensions; points
may carry more digits than the context, and the result is capped as before.
``PadicNeighborhood.apply_fk`` iterates on integers mod p^s when d = e = 1
and the point's tags agree, and must match the ``map_eval_padic`` loop it
replaces there. Over Q, the map embedded by ``embed_map`` must match a
plain Fraction loop.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padicdyn.errors import (BadReductionError, IndeterminacyError,
                             InseparableError, NonUnitError)
from padicdyn import neighborhood
from padicdyn.neighborhood import (PadicNeighborhood, build_neighborhood,
                                   map_eval_padic)
from padicdyn.padics import IntegersMod, PadicContext
from padicdyn.polynomials import QQ, MultiPoly, RationalSelfMap, embed_map
from padicdyn.series import poly_eval

CONTEXTS = [
    PadicContext(3, precision=8),
    PadicContext(5, precision=20),
    PadicContext(7),
    PadicContext(3, d=2, precision=10),
    PadicContext(5, e=2, precision=12),
    PadicContext(5, d=2, e=2, precision=6),
    PadicContext(7, e=3, precision=8),
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
def rational_maps(draw, n):
    """A map of A^n whose denominators are non-constant, constant integers
    (units or not) or 1."""
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
    return RationalSelfMap(nums, dens)


@st.composite
def maps_and_points(draw):
    """A map of A^1 or A^2, a context and a point."""
    ctx = draw(st.sampled_from(CONTEXTS))
    n = draw(st.integers(1, 2))
    f = draw(rational_maps(n))
    point = tuple(draw(elements(ctx)) for _ in range(n))
    return f, ctx, point


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


def generic_fk(f, point, ctx, count):
    for _ in range(count):
        point = map_eval_padic(f, point, ctx)
    return point


def neighborhood_of(f, ctx, point, k):
    """A neighborhood of f^k at point, carrying only what apply_fk reads."""
    return PadicNeighborhood(ctx, f, k, point, L=None, c=None,
                             affine_order=1, cap=1)


@st.composite
def int_kernel_cases(draw):
    """A map of A^1 or A^2 over Z_p, p in {3, 5, 7}, a point whose
    coordinates share a tag s <= precision (sometimes mixed tags), k and
    times. Every component of the map has a variable, as in every map that
    build_neighborhood accepts."""
    ctx = draw(st.sampled_from(CONTEXTS[:3]))
    n = draw(st.integers(1, 2))
    f = draw(rational_maps(n))
    assume(all(num.total_degree() or den.total_degree()
               for num, den in zip(f.numerators, f.denominators)))
    s = draw(st.integers(1, ctx.precision))
    tags = [s] * n
    if draw(st.booleans()):
        tags = [draw(st.integers(1, ctx.precision)) for _ in range(n)]
    point = tuple(ctx.from_coords([draw(st.integers(0, ctx.p ** t - 1))], t)
                  for t in tags)
    return f, ctx, point, draw(st.integers(1, 3)), draw(st.integers(1, 2))


@settings(max_examples=150, deadline=None)
@given(int_kernel_cases())
def test_apply_fk_on_integers_equals_the_generic_loop(case):
    f, ctx, point, k, times = case
    nbhd = neighborhood_of(f, ctx, point, k)
    try:
        expected = generic_fk(f, point, ctx, k * times)
    except (BadReductionError, IndeterminacyError) as exc:
        with pytest.raises(type(exc)):
            nbhd.apply_fk(point, times)
        return
    got = nbhd.apply_fk(point, times)
    assert len(got) == len(expected)
    assert all(same(a, b) for a, b in zip(got, expected))


def test_apply_fk_takes_the_integer_loop_only_on_uniform_tags(monkeypatch):
    ctx = PadicContext(7, precision=10)
    calls = []

    def counted(*args):
        calls.append(args)
        return generic_fk(args[0], args[1], ctx, 1)

    cases = [
        # Henon: the integer loop, no map_eval_padic call
        (["x2", "x2^2 - x1 + 1"], (ctx.from_int(3, 6), ctx.from_int(40, 6)),
         False),
        # mixed tags
        (["x2", "x2^2 - x1 + 1"], (ctx.from_int(3, 6), ctx.from_int(40, 7)),
         True),
    ]
    for texts, point, generic in cases:
        f = RationalSelfMap.from_texts(2, texts)
        expected = generic_fk(f, point, ctx, 6)
        calls.clear()
        monkeypatch.setattr(neighborhood, "map_eval_padic", counted)
        got = neighborhood_of(f, ctx, point, 2).apply_fk(point, 3)
        monkeypatch.undo()
        assert bool(calls) == generic, texts
        assert all(same(a, b) for a, b in zip(got, expected))
    # a constant component would evaluate to tag 10 in the generic loop, not
    # to the point's 6; no neighborhood has one, since it zeroes a row of
    # the Jacobian
    f = RationalSelfMap.from_texts(2, ["x1 + x2", "2"])
    with pytest.raises(InseparableError):
        build_neighborhood(f, 2, (ctx.from_int(3), ctx.from_int(40)), ctx)


def test_apply_fk_scales_by_constant_denominators_on_integers(monkeypatch):
    # constant unit denominators other than 1 are inverted once, and the
    # integer loop multiplies by that inverse mod p^s
    ctx = PadicContext(7, precision=10)
    f = RationalSelfMap.from_texts(2, ["x2", "x2^2 - x1 + 1"], ["3", "-5/4"])
    point = (ctx.from_int(3, 6), ctx.from_int(40, 6))
    comps = embed_map(f, IntegersMod(7, 7 ** 6))
    assert all(den is None and scale is not None for _, den, scale in comps)
    expected = generic_fk(f, point, ctx, 6)
    calls = []
    monkeypatch.setattr(neighborhood, "map_eval_padic",
                        lambda *args: calls.append(args))
    got = neighborhood_of(f, ctx, point, 2).apply_fk(point, 3)
    assert not calls
    assert all(same(a, b) for a, b in zip(got, expected))


def plain_fraction_eval(f, point):
    """Each numerator and denominator summed term by term in Fractions."""
    out = []
    for num, den in zip(f.numerators, f.denominators):
        values = []
        for poly in (num, den):
            total = Fraction(0)
            for idx, c in poly.terms.items():
                term = c
                for x, a in zip(point, idx):
                    term *= x ** a
                total += term
            values.append(total)
        if values[1] == 0:
            raise IndeterminacyError("denominator vanishes")
        out.append(values[0] / values[1])
    return tuple(out)


@st.composite
def maps_and_rational_points(draw):
    n = draw(st.integers(1, 2))
    f = draw(rational_maps(n))
    # small coordinates, so that some denominators vanish
    point = tuple(draw(st.fractions(min_value=-2, max_value=2,
                                    max_denominator=2)) for _ in range(n))
    return f, point


@settings(max_examples=150, deadline=None)
@given(maps_and_rational_points())
def test_the_map_over_QQ_equals_the_plain_fraction_loop(case):
    f, point = case
    try:
        expected = plain_fraction_eval(f, point)
    except IndeterminacyError:
        with pytest.raises(IndeterminacyError):
            embed_map(f, QQ).run(point)
        with pytest.raises(IndeterminacyError):
            f.eval_fraction(point)
        return
    assert embed_map(f, QQ).run(point) == expected
    assert f.eval_fraction(point) == list(expected)


def test_the_map_over_QQ_raises_on_a_vanishing_denominator():
    f = RationalSelfMap.from_texts(1, ["x1^2"], ["x1 - 1/2"])
    assert f.eval_fraction([2]) == [Fraction(8, 3)]
    with pytest.raises(IndeterminacyError):
        f.eval_fraction([Fraction(1, 2)])
