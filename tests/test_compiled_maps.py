"""The compiled map evaluator against the per-term loop it replaces.

``apply_map`` runs one straight-line function per map, generated from the
map's shape and bound to its embedded coefficients and to a ring. It must
give the values and precision tags of the per-term loop, and raise where
that loop raises, in every ring: Q, F_q, O/p^s on ints, O with e = 1 and
e = 2 and the truncated series. Its source names coefficients but never
spells them, and its bindings live exactly as long as the map.
"""

import gc
import io
import re
import tokenize
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdyn.errors import IndeterminacyError
from padicdyn.finitefields import FiniteField, prime_power_field
from padicdyn.padics import IntegersMod, PadicContext, PadicElement
from padicdyn.polynomials import (QQ, RationalSelfMap, apply_map, embed_map,
                                  embed_terms, evaluate_terms, map_shape,
                                  map_source)
from padicdyn.series import SeriesRing, TruncatedSeries
from tests.test_padic_fast_paths import rational_maps

SERIES = "series over Z_7 at cap 2"
SERIES_CTX = PadicContext(7, precision=5)
RINGS = [QQ, prime_power_field(5, 1), prime_power_field(5, 2),
         IntegersMod(7, 7 ** 5), PadicContext(5, precision=6),
         PadicContext(5, e=2, precision=6), SERIES]


def reference_apply(ring, comps, point):
    """The per-term loop: each term a product of cached powers, each power
    one more factor on the last, every denominator evaluated, required to be
    a unit and inverted at the point."""
    powers = [{1: x} for x in point]

    def power(i, a):
        cache = powers[i]
        if a not in cache:
            cache[a] = power(i, a - 1) * point[i]
        return cache[a]

    def evaluate(terms):
        total = None
        for idx, c in terms:
            term = c
            for i, a in enumerate(idx):
                if a:
                    term = power(i, a) if term is None else term * power(i, a)
            if term is None:
                term = ring.one()
            total = term if total is None else total + term
        return ring.reduce(ring.zero() if total is None else total)

    out = []
    for num_terms, den_terms, scale in comps:
        if den_terms is not None:
            scale = ring.unit_inverse(evaluate(den_terms))
        value = evaluate(num_terms)
        out.append(value if scale is None else ring.reduce(value * scale))
    return tuple(out)


def same(a, b):
    """Equal values with equal precision tags, coefficient by coefficient."""
    if isinstance(a, PadicElement):
        return (isinstance(b, PadicElement) and a.ctx is b.ctx
                and a.layers == b.layers and a.prec == b.prec)
    if isinstance(a, TruncatedSeries):
        return (isinstance(b, TruncatedSeries) and a.coeffs.keys() ==
                b.coeffs.keys() and all(same(c, b.coeffs[idx])
                                        for idx, c in a.coeffs.items()))
    return type(a) is type(b) and a == b


@st.composite
def scalars(draw, ring):
    """A point coordinate; small values often, so that denominators
    vanish, and p-adic tags below and above the context's precision."""
    if ring is QQ:
        return draw(st.fractions(min_value=-2, max_value=2,
                                 max_denominator=2))
    if isinstance(ring, FiniteField):
        return ring.element_from_index(draw(st.integers(0, ring.order - 1)))
    if isinstance(ring, IntegersMod):
        return draw(st.one_of(st.integers(0, 9),
                              st.integers(0, ring.mod - 1)))
    prec = draw(st.integers(1, ring.precision + 2))
    coords = [draw(st.one_of(st.integers(0, 9),
                             st.integers(0, ring.p ** prec - 1)))
              for _ in range(ring.d * ring.e)]
    return ring.from_coords(coords, prec)


@st.composite
def rings_maps_points(draw):
    n = draw(st.integers(1, 2))
    # coefficient denominators are at most 3: p-integral at p = 5 and 7
    f = draw(rational_maps(n))
    ring = draw(st.sampled_from(RINGS))
    if ring is SERIES:
        ring = SeriesRing(SERIES_CTX, n, 2)
        center = [draw(scalars(SERIES_CTX)) for _ in range(n)]
        return ring, f, ring.generic_point(center)
    return ring, f, tuple(draw(scalars(ring)) for _ in range(n))


@settings(max_examples=300, deadline=None)
@given(rings_maps_points())
def test_the_compiled_map_equals_the_per_term_loop(case):
    ring, f, point = case
    comps = embed_map(f, ring.ctx if isinstance(ring, SeriesRing) else ring)
    try:
        expected = reference_apply(ring, comps.components, point)
    except IndeterminacyError:
        with pytest.raises(IndeterminacyError):
            apply_map(ring, comps, point)
        return
    for _ in range(2):          # the second call reads the cached binding
        got = apply_map(ring, comps, point)
        assert len(got) == len(expected)
        assert all(same(a, b) for a, b in zip(got, expected))


GENERATED_NAME = re.compile(r"(?:[cdv]\d+|x\d+(?:_\d+)?)\Z")
SOURCE_WORDS = {"def", "return", "bind", "run", "c", "x", "reduce", "inv",
                "one", "zero"}


def test_the_source_holds_generated_names_and_never_a_coefficient():
    big = 10 ** 40
    f = RationalSelfMap.from_texts(
        2, [f"{big}/7*x1^3*x2 + 123456789*x2^2 - 1", "x1 + 98765/11"],
        ["x2 - 4321/13", "271828"])
    for ring in (QQ, IntegersMod(5, 5 ** 8), prime_power_field(17, 2),
                 PadicContext(3, precision=10)):
        shape, constants = map_shape(embed_map(f, ring))
        source = map_source(shape)
        for digits in (str(big), "123456789", "98765", "4321", "271828"):
            assert digits not in source
        assert len(constants) == 6
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NAME:
                assert (tok.string in SOURCE_WORDS
                        or GENERATED_NAME.match(tok.string)), tok.string
            elif tok.type == tokenize.NUMBER:
                # only the coordinate indices of x[i]
                assert tok.string in ("0", "1"), tok.string
            else:
                assert tok.type in (tokenize.OP, tokenize.NEWLINE,
                                    tokenize.NL, tokenize.INDENT,
                                    tokenize.DEDENT, tokenize.ENDMARKER)


def test_a_deleted_map_and_its_bindings_are_collected():
    f = RationalSelfMap.from_texts(2, ["x2", "x2^2 - x1 + 1"], ["1", "x1"])
    ctx = PadicContext(5, precision=6)
    ints = IntegersMod(5, 5 ** 6)
    series = SeriesRing(ctx, 2, 1)
    runs = [embed_map(f, QQ).bound(QQ), embed_map(f, ints).bound(ints),
            embed_map(f, ctx).bound(ctx), embed_map(f, ctx).bound(series)]
    assert f.eval_fraction([1, 2]) == [Fraction(2), Fraction(4)]
    refs = [weakref.ref(obj) for obj in [f, *runs]]
    del f, runs
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_exponent_1200_in_every_ring():
    # far past the recursion limit of a power built one factor at a time
    f = RationalSelfMap.from_texts(1, ["x1^1200 + x1"])
    poly = f.numerators[0]
    ctx = PadicContext(5, precision=6)
    mod = 5 ** 6
    two = ctx.from_int(2)
    fld = prime_power_field(5, 1)
    cases = [(QQ, Fraction(3, 2), Fraction(3, 2) ** 1200 + Fraction(3, 2)),
             (fld, fld.from_int(2), fld.from_int(2 ** 1200 + 2)),
             (IntegersMod(5, mod), 2, (2 ** 1200 + 2) % mod),
             (ctx, two, ctx.from_int(2 ** 1200 + 2))]
    for ring, x, expected in cases:
        assert same(apply_map(ring, embed_map(f, ring), [x])[0], expected)
        assert same(evaluate_terms(ring, embed_terms(poly, ring), [x]),
                    expected)
    # (2 + t)^1200 + 2 + t through degree 2
    series = SeriesRing(ctx, 1, 2)
    expected = TruncatedSeries(ctx, 1, 2, {
        (0,): ctx.from_int(2 ** 1200 + 2),
        (1,): ctx.from_int(1200 * 2 ** 1199 + 1),
        (2,): ctx.from_int(1200 * 1199 // 2 * 2 ** 1198)})
    point = series.generic_point([two])
    assert same(apply_map(series, embed_map(f, ctx), point)[0], expected)
    assert same(evaluate_terms(series, embed_terms(poly, ctx), point),
                expected)
