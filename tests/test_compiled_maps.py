"""The compiled map evaluator against the per-term loop it replaces.

The ``run`` of a map embedded in a ring is one straight-line function per
map, generated from the map's shape and bound once to its embedded
coefficients and to that ring. It must give the values and precision tags
of the per-term loop, and raise where that loop raises, in every ring: Q,
F_q, O/p^s on ints, O with e = 1 and e = 2 and the truncated series; its
``iterate(x, t)`` must be t calls of run. On ints mod m (O/p^s and the
F_p search view) the ints spelling must equal the ring spelling, from
unreduced and negative starts too, and return values in [0, m). A
coefficient -1 is a subtraction in both spellings, and the ints spelling
leaves unreduced a power that only terms read. The source names
coefficients but never spells them, and its bindings live exactly as long
as the map. Two maps are generated from a reduced map or
from n alone and run on search-view points: the tangent map, whose k-th
iterate gives the neighborhood's L, must equal the product of FFElement
Jacobians along the orbit, and the composition of affine maps, which
``dynamics.affine_order`` runs, must equal the FFElement product and be
compiled once per n and spelling.
"""

import gc
import hashlib
import io
import itertools
import re
import tokenize
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padicdyn.errors import (IndeterminacyError, OrbitNotClearError,
                             PadicDynError)
from padicdyn.finitefields import FiniteField, prime_power_field
from padicdyn.padics import IntegersMod, PadicContext, PadicElement
from padicdyn.certify import run_pipeline
from padicdyn.dynamics import (CLEAR, SearchView, locus_check, reduce_map,
                               search_view)
from padicdyn.neighborhood import _reduced_linear_part
from padicdyn.polynomials import (QQ, EmbeddedMap, MultiPoly, RationalSelfMap,
                                  _compiled, bind_map, embed_map, embed_terms,
                                  evaluate_terms, map_shape, map_source)
from padicdyn.series import SeriesRing, TruncatedSeries
from tests.conftest import mat_identity, mat_mul, mat_vec
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
    comps = embed_map(f, ring)
    try:
        expected = reference_apply(ring, comps.components, point)
    except IndeterminacyError:
        with pytest.raises(IndeterminacyError):
            comps.run(point)
        return
    for _ in range(2):          # the second call reads the cached binding
        got = comps.run(point)
        assert len(got) == len(expected)
        assert all(same(a, b) for a, b in zip(got, expected))


@settings(max_examples=300, deadline=None)
@given(rings_maps_points(), st.integers(0, 5))
def test_iterate_equals_that_many_runs(case, times):
    ring, f, point = case
    emb = embed_map(f, ring)
    expected = point
    try:
        for _ in range(times):
            expected = emb.run(expected)
    except IndeterminacyError:
        with pytest.raises(IndeterminacyError):
            emb.iterate(point, times)
        return
    got = emb.iterate(point, times)
    assert len(got) == len(expected)
    assert all(same(a, b) for a, b in zip(got, expected))


# O/p^s on ints, and prime fields, whose search views walk ints mod p
INTS_RINGS = [IntegersMod(5, 5 ** 6), IntegersMod(11, 11 ** 3),
              prime_power_field(5, 1), prime_power_field(11, 1)]


def balancing_coefficients(mod):
    """-1, the residues on either side of mod / 2 (the first kept, the
    second balanced to -(mod - 1)/2), 1/2, which is (mod + 1)/2 mod mod,
    and a coefficient far wider than mod."""
    return [Fraction(-1), Fraction(mod - 1, 2), Fraction(mod + 1, 2),
            Fraction(1, 2), Fraction(10 ** 40, 7)]


@st.composite
def ints_maps_points(draw):
    """A ring of INTS_RINGS, a map of rational_maps with each balancing
    coefficient added as a term of a drawn numerator, and a point of ints
    mod the ring's modulus."""
    where = draw(st.sampled_from(INTS_RINGS))
    mod = where.mod if isinstance(where, IntegersMod) else where.p
    n = draw(st.integers(1, 2))
    f = draw(rational_maps(n))
    nums = list(f.numerators)
    for c in balancing_coefficients(mod):
        idx = draw(st.tuples(*[st.integers(0, 2)] * n))
        i = draw(st.integers(0, n - 1))
        nums[i] = nums[i] + MultiPoly(n, {idx: c})
    # unreduced and negative starts too: the ints spelling leaves powers
    # that only terms read unreduced, and must still return [0, mod)
    coordinate = st.one_of(st.sampled_from([0, 1, mod - 1]),
                           st.integers(0, mod - 1),
                           st.integers(-3 * mod, 3 * mod))
    point = tuple(draw(coordinate) for _ in range(n))
    return where, RationalSelfMap(nums, f.denominators), point


def outcome(fn, *args):
    try:
        return tuple(fn(*args))
    except IndeterminacyError:
        return IndeterminacyError


@settings(max_examples=300, deadline=None)
@given(ints_maps_points(), st.integers(0, 5))
def test_the_ints_spelling_equals_the_ring_spelling(case, times):
    where, f, point = case
    emb = embed_map(f, where)
    if isinstance(where, IntegersMod):
        ring, value, run, iterate = where, None, emb.run, emb.iterate
    else:
        view = search_view(where)
        ring, value = view.ring, view.value
        run, iterate = bind_map(emb.components, ring, value)
        assert outcome(view.bind(emb)[0], point) == outcome(run, point)
    shape, constants = map_shape(emb.components)
    if value is not None:
        constants = [value(c) for c in constants]
    ring_run, ring_iterate = _compiled(shape, "ring")(
        tuple(constants), ring.reduce, ring.unit_inverse, ring.one(),
        ring.zero())
    for got, want, steps in ((outcome(run, point),
                              outcome(ring_run, point), 1),
                             (outcome(iterate, point, times),
                              outcome(ring_iterate, point, times), times)):
        assert got == want
        # iterate at times = 0 is the start itself
        if got is not IndeterminacyError and steps:
            assert all(type(v) is int and 0 <= v < ring.mod for v in got)


GENERATED_NAME = re.compile(r"(?:[cdv]\d+|x\d+(?:_\d+)?)\Z")
SOURCE_WORDS = {"def", "return", "bind", "run", "c", "x", "reduce", "inv",
                "one", "zero", "iterate", "times", "mod", "for", "in",
                "range", "_",
                # the log spelling's tables, sums and Zech branches
                "M", "ZL", "s", "t", "if", "else"}


def test_the_source_holds_generated_names_and_never_a_coefficient():
    big = 10 ** 40
    f = RationalSelfMap.from_texts(
        2, [f"{big}/7*x1^3*x2 + 123456789*x2^2 - 1", "x1 + 98765/11"],
        ["x2 - 4321/13", "271828"])
    for ring, spelling in itertools.product(
            (QQ, IntegersMod(5, 5 ** 8), prime_power_field(17, 2),
             PadicContext(3, precision=10)), ("ring", "ints", "logs")):
        shape, constants = map_shape(embed_map(f, ring))
        source = map_source(shape, spelling)
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


def test_a_minus_one_is_subtracted_and_only_read_powers_are_reduced():
    f = RationalSelfMap.from_texts(2, ["x2^2 - x1 + 1", "x1^5 - x2"],
                                   ["1", "-x1 + 2"])
    for ring in (IntegersMod(5, 5 ** 8), PadicContext(5, precision=8)):
        emb = embed_map(f, ring)
        shape, constants = map_shape(emb, None, ring.from_rational(-1))
        # each -1 stays among the constants, in its place
        assert len(constants) == 4
        assert [unit for _, unit in shape[0][0]] == [1, -1, 1]
        assert [unit for _, unit in shape[1][1]] == [-1, 0]
        source = map_source(shape, "ints")
        run_lines = source.split("    def iterate")[0]
        # x1^4 feeds x1^5 and is reduced; x1^5 and x2^2 only feed sums
        assert "x0_4 = x0_2 * x0_2 % mod" in run_lines
        assert "x0_5 = x0_4 * x0\n" in run_lines
        assert "x1_2 = x1 * x1\n" in run_lines
        assert "v0 = (x1_2 - x0 + one) % mod" in run_lines
        assert "d1 = inv((zero - x0 + c2) % mod)" in run_lines
        # no product by a -1 in either spelling
        for spelling in ("ints", "ring"):
            assert not re.search(r"\bc[013]\b", map_source(shape, spelling)
                                 .split("= c\n")[1])


def test_a_minus_one_in_the_series_ring_caps_tags_as_a_product_does():
    # -x1 at a center tagged above the precision: c0 * x0 would cap the
    # constant term's tag at 5, and so must the subtraction
    f = RationalSelfMap.from_texts(1, ["-x1"])
    series = SeriesRing(SERIES_CTX, 1, 2)
    point = series.generic_point([SERIES_CTX.from_int(3, 7)])
    emb = embed_map(f, series)
    got, = emb.run(point)
    assert same(got, reference_apply(series, emb.components, point)[0])
    assert all(c.prec == 5 for c in got.coeffs.values())


def test_a_deleted_map_and_its_bindings_are_collected():
    f = RationalSelfMap.from_texts(2, ["x2", "x2^2 - x1 + 1"], ["1", "x1"])
    ctx = PadicContext(5, precision=6)
    ints = IntegersMod(5, 5 ** 6)
    series = SeriesRing(ctx, 2, 1)
    runs = [embed_map(f, ring).run for ring in (QQ, ints, ctx, series)]
    assert f.eval_fraction([1, 2]) == [Fraction(2), Fraction(4)]
    refs = [weakref.ref(obj) for obj in [f, *runs]]
    del f, runs
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_each_embedding_is_bound_once_to_its_own_ring():
    f = RationalSelfMap.from_texts(2, ["x2", "x2^2 - x1 + 1"], ["1", "x1"])
    ctx = PadicContext(5, precision=6)
    for ring in (QQ, prime_power_field(5, 2), IntegersMod(5, 5 ** 6), ctx,
                 SeriesRing(ctx, 2, 1)):
        emb = embed_map(f, ring)
        assert emb.ring is ring and embed_map(f, ring) is emb
        assert embed_map(f, ring).run is embed_map(f, ring).run
    # an equal ring that is another object gets its own embedding
    other = IntegersMod(5, 5 ** 6)
    assert embed_map(f, other).ring is other


# sha256 of the H and F digits of the map below at p = 5, computed when a
# series run still took its coefficients from the context's embedding
HF_DIGESTS = (
    "9d8f9c9a97a46183c6bd0709fce4acc6a1b9a7ff858c689673dbbc4cf6c49b2e",
    "9240d2458486e304486f90822c5a8b8423cf496678eb37faa0aa276283133869")


def series_digest(series):
    text = repr([sorted((idx, c.layers, c.prec) for idx, c in s.coeffs.items())
                 for s in series])
    return hashlib.sha256(text.encode()).hexdigest()


def test_constant_denominators_embed_in_the_series_ring_as_scalars():
    f = RationalSelfMap.from_texts(2, ["x2", "x2^2 - x1 + 1"], ["2", "3"])
    nbhd = run_pipeline(f, prime=5).nbhd
    ctx = nbhd.ctx
    series = SeriesRing(ctx, 2, nbhd.cap)
    scales = [scale for _, den, scale in embed_map(f, series)]
    assert all(den is None for _, den, _ in embed_map(f, series))
    # the inverses of 2 and 3 in the context, not constant series
    assert all(isinstance(c, PadicElement) and c.ctx is ctx for c in scales)
    assert [c * ctx.from_int(d) for c, d in zip(scales, (2, 3))] == \
        [ctx.one(), ctx.one()]
    # the same digits as the context's embedding run in the series ring
    via_ctx = EmbeddedMap(series, embed_map(f, ctx).components)
    point = series.generic_point(nbhd.center)
    assert all(same(a, b) for a, b in zip(embed_map(f, series).run(point),
                                          via_ctx.run(point)))
    assert (series_digest(nbhd.H), series_digest(nbhd.F)) == HF_DIGESTS


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
        assert same(embed_map(f, ring).run([x])[0], expected)
        assert same(evaluate_terms(ring, embed_terms(poly, ring), [x]),
                    expected)
    # (2 + t)^1200 + 2 + t through degree 2
    series = SeriesRing(ctx, 1, 2)
    expected = TruncatedSeries(ctx, 1, 2, {
        (0,): ctx.from_int(2 ** 1200 + 2),
        (1,): ctx.from_int(1200 * 2 ** 1199 + 1),
        (2,): ctx.from_int(1200 * 1199 // 2 * 2 ** 1198)})
    point = series.generic_point([two])
    assert same(embed_map(f, series).run(point)[0], expected)
    assert same(evaluate_terms(series, embed_terms(poly, ctx), point),
                expected)


# one field per view spelling: ints on F_7, logs on F_49, FFElements on
# F_{5^6}, whose order is above the log tables' cap
VIEW_FIELDS = [prime_power_field(7, 1), prime_power_field(7, 2),
               prime_power_field(5, 6)]


def stepped_linear_part(fbar, k, point):
    """J(x_(k-1)) ... J(x_0) along the orbit of point, one FFElement
    Jacobian per step, each entry jacobian_numerators()[i][j] / den_i^2
    evaluated term by term; OrbitNotClearError where locus_check is not
    clear."""
    f, fld = fbar.map, fbar.field
    L = mat_identity(fld, fbar.n)
    for _ in range(k):
        if locus_check(fbar, point) != CLEAR:
            raise OrbitNotClearError("orbit meets the locus")
        J = []
        for row, den in zip(f.jacobian_numerators(), f.denominators):
            scale = evaluate_terms(fld, embed_terms(den * den, fld),
                                   point).inverse()
            J.append([evaluate_terms(fld, embed_terms(entry, fld), point)
                      * scale for entry in row])
        L = mat_mul(J, L)
        point = fbar.apply(point)
    return L


def linear_part_outcome(fn, fbar, k, point):
    try:
        return [[x.coords() for x in row] for row in fn(fbar, k, point)]
    except OrbitNotClearError as exc:
        assert "locus" in str(exc)
        return OrbitNotClearError


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(VIEW_FIELDS), st.integers(1, 2).flatmap(rational_maps),
       st.integers(1, 4), st.data())
def test_the_tangent_iterate_equals_the_product_of_jacobians(fld, f, k, data):
    try:
        fbar = reduce_map(f, PadicContext(fld.p, precision=1)).extend(fld)
    except PadicDynError:
        assume(False)
    index = st.integers(0, fld.order - 1).map(fld.element_from_index)
    point = tuple(data.draw(index) for _ in range(f.n))
    assert linear_part_outcome(_reduced_linear_part, fbar, k, point) == \
        linear_part_outcome(stepped_linear_part, fbar, k, point)


# (x1 + 1, x2/x1) meets the indeterminacy locus, and (x1 + 1, x1*x2) the
# ramification locus (det J = x1), where x1 = 0: at step s from (5 - s, 1)
LOCUS_MAPS = [RationalSelfMap.from_texts(2, ["x1 + 1", "x2"], ["1", "x1"]),
              RationalSelfMap.from_texts(2, ["x1 + 1", "x1*x2"])]


@pytest.mark.parametrize("f", LOCUS_MAPS, ids=["indeterminacy",
                                               "ramification"])
@pytest.mark.parametrize("m", [1, 2, 6])
@pytest.mark.parametrize("step", [1, 2])
def test_an_orbit_meeting_a_locus_after_its_start_is_rejected(f, m, step):
    fld = prime_power_field(5, m)
    fbar = reduce_map(f, PadicContext(5, precision=1)).extend(fld)
    point = (fld.from_int(5 - step), fld.one())
    # clear up to the step before the locus, which the oracle agrees on
    L = _reduced_linear_part(fbar, step, point)
    assert L == stepped_linear_part(fbar, step, point)
    for fn in (_reduced_linear_part, stepped_linear_part):
        with pytest.raises(OrbitNotClearError, match="locus"):
            fn(fbar, step + 1, point)


@st.composite
def affine_pairs(draw):
    """A field of VIEW_FIELDS and two pairs (A, a), (B, b) over it."""
    fld = draw(st.sampled_from(VIEW_FIELDS))
    n = draw(st.integers(1, 3))
    index = st.integers(0, fld.order - 1).map(fld.element_from_index)
    return fld, [([[draw(index) for _ in range(n)] for _ in range(n)],
                  [draw(index) for _ in range(n)]) for _ in range(2)]


@settings(max_examples=150, deadline=None)
@given(affine_pairs())
def test_the_composition_map_composes_affine_maps(case):
    fld, ((A, a), (B, b)) = case
    view, n = search_view(fld), len(A)
    point = tuple(map(view.value, itertools.chain(*A, a, *B, b)))
    got = [view.element(v) for v in view.composition(n)(point)]
    AB = mat_mul(A, B)
    assert got[:n * n] == [x for row in AB for x in row]
    assert got[n * n:] == [x + y for x, y in zip(mat_vec(A, b), a)]


def test_the_composition_map_is_compiled_once_per_n_and_spelling():
    def compose_all(fields):
        # new views, so that each binds its compositions here
        for fld in fields:
            view = SearchView(fld)
            for n in (1, 2, 3):
                assert view.composition(n) is view.composition(n)

    before = _compiled.cache_info().misses
    compose_all(VIEW_FIELDS)
    # at most one compile per n in each of the three spellings
    assert _compiled.cache_info().misses - before <= 9
    before = _compiled.cache_info().misses
    compose_all([prime_power_field(11, 1), prime_power_field(3, 3),
                 prime_power_field(3, 9)])
    assert _compiled.cache_info().misses == before
