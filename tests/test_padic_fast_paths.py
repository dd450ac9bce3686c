"""The fast paths of exact p-adic evaluation against the plain computation.

``PadicElement.inverse`` takes ``pow(a, -1, p^prec)`` when d = e = 1 and
``map_eval_padic`` embeds coefficients once per context, inverts a constant
denominator once and skips the product when it is 1. Each must give the same
digits *and* the same precision tag as the plain computation: coefficients
embedded at every term, powers built up from ``ctx.one()``, and the Newton
inverse. Contexts cover Z_p and ramified and unramified extensions; points
may carry more digits than the context, and the result is capped as before.
``PadicNeighborhood.apply_fk`` iterates in O/p^s (``padics.integers_mod``:
ints when d = e = 1, tuples of d e ints otherwise), s the point's least tag
capped at the precision, and must match the ``map_eval_padic`` loop on the
point cut to s; ``IteratedMap.orbit`` runs the whole orbit in that ring and
must match, point by point, that loop followed by ``to_local``. Both are
checked on a grid of p, d and e, with tags that agree, differ or pass the
precision. Over Q, the map embedded by ``embed_map`` must match a plain
Fraction loop.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padicdyn.errors import (BadReductionError, ContextMismatchError,
                             IndeterminacyError, InseparableError,
                             NonUnitError, PrecisionError)
from padicdyn import neighborhood
from padicdyn.neighborhood import (PadicNeighborhood, build_neighborhood,
                                   map_eval_padic)
from padicdyn.padics import IntegersMod, PadicContext
from padicdyn.polynomials import QQ, MultiPoly, RationalSelfMap, embed_map
from padicdyn.series import poly_eval

# p in {3, 5, 7}, d in {1, 2, 3}, e in {1, 2}
GRID = [PadicContext(p, d=d, e=e, precision=6)
        for p in (3, 5, 7) for d in (1, 2, 3) for e in (1, 2)]

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


def newton_inverse(x):
    """The inverse of a unit by Newton's iteration on PadicElements from
    the residue-field inverse, tagged as inverse() tags it: the oracle of
    inverse(), which runs in padics.integers_mod."""
    ctx = x.ctx
    prec = min(x.prec, ctx.precision)
    y = ctx.from_coords(ctx.naive_lift(x.residue().inverse()).coords(), prec)
    two = ctx.from_int(2, prec)
    for _ in range((ctx.e * prec).bit_length() + 1):
        y = y * (two - x * y)
    return y


@given(context_and_element())
def test_inverse_is_exact_and_equals_the_newton_inverse(case):
    ctx, x = case
    if not x.is_unit():
        with pytest.raises(NonUnitError):
            x.inverse()
        return
    inv = x.inverse()
    assert x * inv == ctx.one()
    assert same(inv, newton_inverse(x))


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
        out.append(plain_poly_eval(num, point, ctx) * newton_inverse(dval))
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


def cut(point, ctx):
    """The point cut to its least tag capped at the precision: the point
    that apply_fk and IteratedMap.orbit run on."""
    s = min(ctx.precision, *[z.prec for z in point])
    return tuple(ctx.from_coords(z.coords(), s) for z in point)


def neighborhood_of(f, ctx, point, k):
    """A neighborhood of f^k at point, carrying only what apply_fk reads."""
    return PadicNeighborhood(ctx, f, k, point, L=None, c=None,
                             affine_order=1, cap=1)


def tagged(draw, ctx, tag):
    """An element of ctx tagged tag, its d e coordinates drawn."""
    return ctx.from_coords([draw(st.integers(0, ctx.p ** tag - 1))
                            for _ in range(ctx.d * ctx.e)], tag)


@st.composite
def int_kernel_cases(draw, contexts=CONTEXTS[:3]):
    """A map of A^1 or A^2, a context from contexts (Z_p, p in {3, 5, 7},
    by default), a point whose coordinates share a tag s <= precision + 2
    (sometimes mixed tags), k and times. Every component of the map has a
    variable, as in every map that build_neighborhood accepts."""
    ctx = draw(st.sampled_from(contexts))
    n = draw(st.integers(1, 2))
    f = draw(rational_maps(n))
    assume(all(num.total_degree() or den.total_degree()
               for num, den in zip(f.numerators, f.denominators)))
    # a tag above the precision is capped, as the PadicElement loop caps it
    s = draw(st.integers(1, ctx.precision + 2))
    tags = [s] * n
    if draw(st.booleans()):
        tags = [draw(st.integers(1, ctx.precision)) for _ in range(n)]
    point = tuple(tagged(draw, ctx, t) for t in tags)
    return f, ctx, point, draw(st.integers(1, 3)), draw(st.integers(1, 2))


@settings(max_examples=150, deadline=None)
@given(int_kernel_cases())
def test_apply_fk_on_integers_equals_the_generic_loop(case):
    check_apply_fk(case)


@settings(max_examples=300, deadline=None)
@given(int_kernel_cases(GRID))
def test_apply_fk_in_the_ring_equals_the_padic_element_loop(case):
    check_apply_fk(case)


def check_apply_fk(case):
    f, ctx, point, k, times = case
    nbhd = neighborhood_of(f, ctx, point, k)
    try:
        expected = generic_fk(f, cut(point, ctx), ctx, k * times)
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

    # Henon: the integer loop, no map_eval_padic call, on one tag and on
    # mixed tags, which run at the least one
    f = RationalSelfMap.from_texts(2, ["x2", "x2^2 - x1 + 1"])
    for point in ((ctx.from_int(3, 6), ctx.from_int(40, 6)),
                  (ctx.from_int(3, 6), ctx.from_int(40, 7))):
        expected = generic_fk(f, cut(point, ctx), ctx, 6)
        calls.clear()
        monkeypatch.setattr(neighborhood, "map_eval_padic", counted)
        got = neighborhood_of(f, ctx, point, 2).apply_fk(point, 3)
        monkeypatch.undo()
        assert not calls
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


def reference_orbit(nbhd, t0, count, times):
    """The local orbit by one map_eval_padic loop of f^k and one to_local
    per point, from the start cut to its least tag."""
    z = cut(nbhd.from_local(t0), nbhd.ctx)
    out = [nbhd.to_local(z)]
    for _ in range(count):
        z = generic_fk(nbhd.map, z, nbhd.ctx, nbhd.period_k * times)
        out.append(nbhd.to_local(z))
    return out


@st.composite
def orbit_cases(draw, contexts=CONTEXTS[:3]):
    """A p-integral map of A^1 or A^2, a context from contexts (Z_p, p in
    {3, 5, 7}, by default), a center and a start whose tags are one s or
    mixed, k, the multiplier and the orbit length. Half the maps are
    x + p g over 1 + p h, which keep the orbit of every member in the
    neighborhood, so that its digits are compared; the others mostly leave
    it."""
    ctx = draw(st.sampled_from(contexts))
    p, prec = ctx.p, ctx.precision
    n = draw(st.integers(1, 2))
    if draw(st.booleans()):
        g = st.fractions(min_value=-6, max_value=6, max_denominator=2)
        nums, dens = [], []
        for i in range(n):
            x_i = tuple(int(j == i) for j in range(n))
            terms = {idx: p * c for idx, c in draw(polys(n, g)).terms.items()}
            terms[x_i] = terms.get(x_i, 0) + 1
            nums.append(MultiPoly(n, terms))
            h = draw(polys(n, g, max_size=2)).terms
            dens.append(MultiPoly(n, {(0,) * n: 1, **{
                idx: p * c for idx, c in h.items() if any(idx)}}))
        f = RationalSelfMap(nums, dens)
    else:
        f = draw(rational_maps(n))
        assume(all(c.denominator % p for c in f.coefficients()))
    assume(all(num.total_degree() or den.total_degree()
               for num, den in zip(f.numerators, f.denominators)))

    def point(tags):
        return tuple(tagged(draw, ctx, t) for t in tags)

    def tags():
        s = draw(st.integers(1, prec))
        if draw(st.booleans()):
            return [draw(st.integers(1, prec)) for _ in range(n)]
        return [s] * n

    center = point(tags() if draw(st.booleans()) else [prec] * n)
    return (f, ctx, center, point(tags()), draw(st.integers(1, 3)),
            draw(st.integers(1, 2)), draw(st.integers(0, 6)))


@settings(max_examples=200, deadline=None)
@given(orbit_cases())
def test_the_integer_orbit_equals_to_local_of_apply_fk(case):
    check_orbit(case)


@settings(max_examples=300, deadline=None)
@given(orbit_cases(GRID))
def test_the_ring_orbit_equals_the_padic_element_orbit(case):
    check_orbit(case)


def check_orbit(case):
    f, ctx, center, t0, k, times, count = case
    nbhd = neighborhood_of(f, ctx, center, k)
    phi = nbhd.iterated_local_map(times)
    try:
        expected = reference_orbit(nbhd, t0, count, times)
    except (BadReductionError, ValueError, PrecisionError,
            IndeterminacyError) as exc:
        with pytest.raises(type(exc)):
            phi.orbit(t0, count)
        return
    got = phi.orbit(t0, count)
    assert len(got) == len(expected) == count + 1
    for a, b in zip(got, expected):
        assert len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))


def test_the_orbit_runs_on_integers_when_the_tags_agree(monkeypatch):
    # f is the swap mod 7, so f^2 fixes every center mod 7. The start runs
    # the whole orbit on ints, wrapping only its points, at its one tag 6
    # or at the least of its mixed tags
    ctx = PadicContext(7, precision=10)
    f = RationalSelfMap.from_texts(2, ["x2 + 7*x1^2", "x1 - 14*x2 + 7"])
    center = (ctx.from_int(3), ctx.from_int(40))
    nbhd = neighborhood_of(f, ctx, center, 2)
    phi = nbhd.iterated_local_map(3)
    t0 = (ctx.from_int(0, 6), ctx.from_int(0, 6))
    expected = reference_orbit(nbhd, t0, 4, 3)
    calls = []
    monkeypatch.setattr(PadicNeighborhood, "apply_fk",
                        lambda *args: calls.append(args))
    got = phi.orbit(t0, 4)
    assert not calls
    assert [[(c.layers, c.prec) for c in pt] for pt in got] == \
        [[(c.layers, c.prec) for c in pt] for pt in expected]
    mixed = (ctx.from_int(0, 6), ctx.from_int(0, 7))
    got = phi.orbit(mixed, 4)
    assert not calls
    monkeypatch.undo()
    assert [[(c.layers, c.prec) for c in pt] for pt in got] == \
        [[(c.layers, c.prec) for c in pt]
         for pt in reference_orbit(nbhd, mixed, 4, 3)]


HENON = ["x2", "x2^2 - x1 + 1"]
# the swap mod 7: f^2 fixes every center mod 7
SWAP_MOD_7 = ["x2 + 7*x1^2", "x1 - 14*x2 + 7"]


def neighborhood_at_3_40(ctx, texts):
    f = RationalSelfMap.from_texts(2, texts)
    return neighborhood_of(f, ctx, (ctx.from_int(3), ctx.from_int(40)), 2)


def test_a_point_of_an_equal_context_runs_in_the_ring(monkeypatch):
    # an equal but distinct PadicContext object: the point is coerced, not
    # sent through the PadicElement loop
    ctx, other = PadicContext(7, precision=10), PadicContext(7, precision=10)
    assert other == ctx and other is not ctx
    henon, swap = (neighborhood_at_3_40(ctx, HENON),
                   neighborhood_at_3_40(ctx, SWAP_MOD_7))
    point = (other.from_int(3, 6), other.from_int(40, 6))
    t0 = (other.from_int(1, 6), other.from_int(2, 6))
    expected_fk = generic_fk(henon.map, cut(point, ctx), ctx, 2)
    expected_orbit = reference_orbit(swap, t0, 3, 1)
    calls = []
    monkeypatch.setattr(neighborhood, "map_eval_padic",
                        lambda *args: calls.append(args))
    got_fk = henon.apply_fk(point)
    got_orbit = swap.iterated_local_map().orbit(t0, 3)
    assert not calls
    assert all(z.ctx is ctx for pt in (got_fk, *got_orbit) for z in pt)
    assert all(same(a, b) for a, b in zip(got_fk, expected_fk, strict=True))
    for a, b in zip(got_orbit, expected_orbit, strict=True):
        assert all(same(x, y) for x, y in zip(a, b, strict=True))


def test_apply_fk_and_the_orbit_reject_a_foreign_point():
    ctx = PadicContext(7, precision=10)
    nbhd = neighborhood_at_3_40(ctx, HENON)
    phi = nbhd.iterated_local_map()
    with pytest.raises(ValueError, match="point dimension mismatch"):
        nbhd.apply_fk((ctx.from_int(3),))
    with pytest.raises(ValueError, match="point dimension mismatch"):
        nbhd.apply_fk((ctx.from_int(3),) * 3)
    for t0 in ((ctx.from_int(0),), (ctx.from_int(0),) * 3):
        with pytest.raises(ValueError, match="point dimension mismatch"):
            phi.orbit(t0, 2)
    for other in (PadicContext(7, precision=9), PadicContext(5, precision=10),
                  PadicContext(7, e=2, precision=10)):
        point = tuple(other.from_int(c) for c in (3, 40))
        with pytest.raises(ContextMismatchError):
            nbhd.apply_fk(point)
        with pytest.raises(ContextMismatchError):
            phi.orbit((other.from_int(0), other.from_int(0)), 2)


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
