"""The flat finite fields F_p and F_p[x]/(m), and maps reduced mod p.

Field laws are checked on random elements of every F_{p^m}, p in {3, 5, 7}
and m in 1..3, and the search view's discrete-log and Zech tables against
the coefficient-tuple kernel whose products and sums they cache. The kernel's
compiled products are checked against the interpreted schoolbook loop they
unroll. The reduced Jacobian determinant is checked against the exact
rational determinant of the map over Q at integer lifts, and the reduced map
against exact evaluation over Q followed by reduction mod p, which is a ring
homomorphism: oracles that share no code with the reduction.
"""

import io
import re
import tokenize
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from padicdyn.dynamics import (CLEAR, RAMIFIED, SearchView, affine_order,
                               locus_check, reduce_map, search_view)
from padicdyn.errors import (BadReductionError, IndeterminacyError,
                             InseparableError, PadicDynError)
from padicdyn.finitefields import (_COMPILED_MAX_DEGREE, _TABLE_MAX_ORDER,
                                   FiniteField, is_irreducible, poly_mulmod,
                                   poly_powmod, prime_power_field,
                                   product_source, tuple_product, vec_add,
                                   vec_neg, vec_sub)
from padicdyn.padics import PadicContext
from padicdyn.polynomials import MultiPoly, RationalSelfMap, matrix_det
from tests.conftest import mat_eq, mat_identity, mat_mul, mat_vec

FIELDS = [FiniteField(p).extension(m) for p in (3, 5, 7) for m in (1, 2, 3)]


@st.composite
def field_elements(draw, count):
    fld = draw(st.sampled_from(FIELDS))
    return [fld.element_from_index(draw(st.integers(0, fld.order - 1)))
            for _ in range(count)]


@given(field_elements(3))
def test_ring_laws(elts):
    x, y, z = elts
    fld = x.field
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + fld.zero() == x and x * fld.one() == x
    assert x + (-x) == fld.zero() and (x - y) + y == x


@given(field_elements(1))
def test_inverse_frobenius_and_index_round_trip(elts):
    (x,) = elts
    fld = x.field
    if not x.is_zero():
        assert x * x.inverse() == fld.one()
    assert x ** fld.order == x
    i = fld.index_of(x)
    assert fld.element_from_index(i) == x
    assert fld.index_of(fld.element_from_index(i)) == i


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rabin_test_agrees_with_root_search(p):
    # a monic polynomial of degree 2 or 3 is irreducible over F_p exactly
    # when it has no root in F_p; every one of them is checked
    for m in (2, 3):
        for index in range(p ** m):
            f = [index // p ** i % p for i in range(m)] + [1]
            has_root = any(sum(c * a ** i for i, c in enumerate(f)) % p == 0
                           for a in range(p))
            assert is_irreducible(p, f) == (not has_root), (p, f)


def test_prime_field_is_the_degree_one_quotient():
    F7 = FiniteField(7)
    assert F7.degree == 1 and F7.modulus_indexes() is None
    assert F7.from_int(10).rep == (3,)
    assert FiniteField(7, modulus=[4]) == F7      # x + 4: the same F_7
    assert F7.from_int(3).inverse() == F7.from_int(5)
    assert F7.from_int(3) ** -1 == F7.from_int(5)
    assert F7.from_int(0) ** 0 == F7.one()


# F_4, F_8, F_9, F_25, F_49, F_343 and F_1331
TABLE_FIELDS = [prime_power_field(p, m) for p, m in
                ((2, 2), (2, 3), (3, 2), (5, 2), (7, 2), (7, 3), (11, 3))]


@st.composite
def table_cases(draw):
    """A field whose view has tables, two of its elements (often zero) and
    an exponent from 0 to 2q."""
    fld = draw(st.sampled_from(TABLE_FIELDS))
    index = st.one_of(st.just(0), st.integers(0, fld.order - 1))
    x = fld.element_from_index(draw(index))
    y = fld.element_from_index(draw(index))
    return fld, x, y, draw(st.one_of(st.just(0),
                                     st.integers(0, 2 * fld.order)))


def _table_example(p, m, i, j, k=1):
    fld = prime_power_field(p, m)
    return fld, fld.element_from_index(i), fld.element_from_index(j), k


@settings(max_examples=300, deadline=None)
@given(table_cases())
# F_4 and F_8, where -1 = 1 and x + x = 0, with zero operands
@example(_table_example(2, 2, 3, 3))
@example(_table_example(2, 2, 0, 2))
@example(_table_example(2, 3, 5, 6))
@example(_table_example(2, 3, 7, 0, 0))
@example(_table_example(3, 2, 0, 0))
def test_table_arithmetic_equals_the_kernel(case):
    fld, x, y, k = case
    low, p = fld.modulus, fld.p
    assert (x * y).rep == poly_mulmod(x.rep, y.rep, low, p)
    assert (x ** k).rep == poly_powmod(x.rep, k, low, p)
    if not x.is_zero():
        assert x.inverse().rep == poly_powmod(x.rep, fld.order - 2, low, p)
        assert (x ** -k).rep == poly_powmod(x.inverse().rep, k, low, p)
    assert (x + y).rep == vec_add(x.rep, y.rep, p)
    assert (x - y).rep == vec_sub(x.rep, y.rep, p)
    assert (-x).rep == vec_neg(x.rep, p)
    assert (x + (-x)).rep == fld.zero().rep
    assert (1 - x).rep == vec_sub(fld.one().rep, x.rep, p)
    # the view's products, inverses and sums (by Zech logarithms) on logs
    view = search_view(fld)
    a, b, z = view.value(x), view.value(y), view.zero
    assert view.element(view.M[a + b]).rep == poly_mulmod(x.rep, y.rep,
                                                          low, p)
    if not x.is_zero():
        assert view.element(view.inverse(a)).rep == poly_powmod(
            x.rep, fld.order - 2, low, p)
    total = b if a == z else a if b == z else view.M[a + view.ZL[b - a]]
    assert view.element(total).rep == vec_add(x.rep, y.rep, p)
    assert len(view._log) == fld.order - 1
    # g^k for k < 2(q - 1), then zero at Z
    assert len(view._elements) == 2 * (fld.order - 1) + 1
    assert len(view.ZL) == 2 * (fld.order - 1)


def test_the_view_makes_its_tables_from_the_first_generator():
    fld = FiniteField(5, modulus=(2, 0))           # a fresh F_25
    x = fld.element_from_index(7)
    assert (x * x).rep == poly_mulmod(x.rep, x.rep, fld.modulus, 5)
    # the field keeps no tables: a product is the kernel's
    assert not hasattr(fld, "_log") and not hasattr(fld, "_exp")
    view = SearchView(fld)
    q = fld.order

    def order(rep):
        k, cur = 1, rep
        while cur != fld.one().rep:
            k, cur = k + 1, poly_mulmod(cur, rep, fld.modulus, 5)
        return k

    first = next(i for i in range(1, q)
                 if order(fld.element_from_index(i).rep) == q - 1)
    assert fld.index_of(view.element(1)) == first
    assert view.element(q - 1) == fld.one() and view.value(fld.one()) == 0


def test_prime_fields_and_large_fields_multiply_through_the_kernel():
    # a field above the cap, as a certificate may name, never gets tables
    big = prime_power_field(3, 9)
    assert big.order == 19683 > _TABLE_MAX_ORDER
    F7 = FiniteField(7)
    for fld in (big, F7):
        x = fld.element_from_index(fld.order - 2)
        y = fld.element_from_index(fld.order // 3)
        assert (x * y).rep == poly_mulmod(x.rep, y.rep, fld.modulus, fld.p)
        assert x * x.inverse() == fld.one()
        assert x ** 5 == x * x * x * x * x
        assert (x + y).rep == vec_add(x.rep, y.rep, fld.p)
        assert (x - y).rep == vec_sub(x.rep, y.rep, fld.p)
        assert (-x).rep == vec_neg(x.rep, fld.p)
        view = search_view(fld)
        assert not view.logs and not hasattr(view, "_log")
        assert not hasattr(view, "ZL") and not hasattr(view, "_elements")


def schoolbook_mulmod(x, y, low, mod):
    """x * y modulo x^m + low(x) and mod by the interpreted schoolbook loop:
    the full product, then its top coefficients folded down, top first."""
    m = len(low)
    if m == 1:
        return ((x[0] * y[0]) % mod,)
    prod = [0] * (2 * m - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                prod[i + j] += a * b
    for i in range(2 * m - 2, m - 1, -1):
        c = prod[i] % mod
        if c:
            for j, lj in enumerate(low):
                prod[i - m + j] -= c * lj
    return tuple(c % mod for c in prod[:m])


def schoolbook_powmod(x, k, low, mod):
    result = (1,) + (0,) * (len(low) - 1)
    while k:
        if k & 1:
            result = schoolbook_mulmod(result, x, low, mod)
        k >>= 1
        if k:
            x = schoolbook_mulmod(x, x, low, mod)
    return result


@st.composite
def kernel_cases(draw):
    """A degree from 1 to one above the compiled bound, a modulus p or p^s
    of up to 300 bits, and tuples of arbitrary ints: negative, reduced or
    not, for low as for the operands."""
    m = draw(st.integers(1, _COMPILED_MAX_DEGREE + 1))
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 251]))
    bits = draw(st.sampled_from([1, 64, 256, 300]))
    mod = p ** max(1, bits // p.bit_length())
    ints = st.one_of(st.integers(-2, 2), st.integers(-2 * mod, 2 * mod))
    x, y, low = (tuple(draw(ints) for _ in range(m)) for _ in range(3))
    return x, y, low, mod, draw(st.integers(0, 40))


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
@example(((1,) * 13, (-1,) * 13, (2 ** 300,) * 13, 3 ** 190, 5))
def test_the_compiled_product_equals_the_schoolbook_loop(case):
    x, y, low, mod, k = case
    expected = schoolbook_mulmod(x, y, low, mod)
    assert poly_mulmod(x, y, low, mod) == expected
    assert tuple_product(len(low))(x, y, low, mod) == expected
    assert poly_powmod(x, k, low, mod) == schoolbook_powmod(x, k, low, mod)


def test_products_are_compiled_up_to_the_table_degree_only():
    assert 2 ** _COMPILED_MAX_DEGREE <= _TABLE_MAX_ORDER
    assert 2 ** (_COMPILED_MAX_DEGREE + 1) > _TABLE_MAX_ORDER
    for m in range(2, _COMPILED_MAX_DEGREE + 1):
        assert tuple_product(m).__code__.co_filename == "<padicdyn product>"
        assert tuple_product(m) is tuple_product(m)
    above = tuple_product(_COMPILED_MAX_DEGREE + 1)
    assert above.__code__.co_filename != "<padicdyn product>"
    assert tuple_product(24) is above


GENERATED_NAME = re.compile(r"[xylp]\d+\Z")
PRODUCT_WORDS = {"def", "return", "mul", "x", "y", "low", "mod", "c"}


@pytest.mark.parametrize("m", range(2, _COMPILED_MAX_DEGREE + 1))
def test_the_product_source_holds_generated_names_only(m):
    # the text is made from m alone: no coefficient of low or mod, and no
    # number at all, can appear in it
    source = product_source(m)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            assert (tok.string in PRODUCT_WORDS
                    or GENERATED_NAME.match(tok.string)), tok.string
        else:
            assert tok.type in (tokenize.OP, tokenize.NEWLINE, tokenize.NL,
                                tokenize.INDENT, tokenize.DEDENT,
                                tokenize.ENDMARKER), tok


def test_extension_fields_are_shared():
    F5 = FiniteField(5)
    assert F5.extension(2) is FiniteField(5).extension(2)
    assert F5.extension(3) is not F5.extension(2)
    assert F5.extension(2).modulus_indexes() == [2, 0]     # x^2 + 2


@st.composite
def polynomial_maps(draw):
    """Small integer polynomial self-maps of A^1 or A^2."""
    n = draw(st.integers(1, 2))
    exponents = st.tuples(*[st.integers(0, 3)] * n)
    nums = [MultiPoly(n, draw(st.dictionaries(exponents, st.integers(-4, 4),
                                              min_size=1, max_size=4)))
            for _ in range(n)]
    return RationalSelfMap(nums, [MultiPoly.constant(n, 1)] * n)


def _explicit_det(f):
    """Jacobian determinant of a polynomial map written out by hand."""
    d = [[num.partial(j) for j in range(f.n)] for num in f.numerators]
    if f.n == 1:
        return d[0][0]
    return d[0][0] * d[1][1] - d[0][1] * d[1][0]


@settings(max_examples=60, deadline=None)
@given(polynomial_maps(), st.sampled_from([3, 5, 7]))
def test_ramified_exactly_where_the_rational_determinant_is_divisible(f, p):
    det = f.jacobian_numerator_det()
    assert det == _explicit_det(f)
    try:
        fbar = reduce_map(f, PadicContext(p, precision=1))
    except InseparableError:
        assert all(c.numerator % p == 0 for c in det.coefficients())
        return
    fld = fbar.field
    for index in range(p ** f.n):
        point = tuple(fld.element_from_index(index // p ** i % p)
                      for i in range(f.n))
        lift = [c.coords()[0] for c in point]
        divisible = det.eval_fraction(lift).numerator % p == 0
        assert (locus_check(fbar, point) == RAMIFIED) == divisible


@st.composite
def rational_maps(draw):
    """Integer rational self-maps of A^1 or A^2; each denominator is 1, a
    constant or a polynomial."""
    n = draw(st.integers(1, 2))
    exponents = st.tuples(*[st.integers(0, 2)] * n)

    def poly():
        return MultiPoly(n, draw(st.dictionaries(
            exponents, st.integers(-4, 4).filter(bool), min_size=1,
            max_size=3)))

    nums = [poly() for _ in range(n)]
    dens = [draw(st.sampled_from([lambda: MultiPoly.constant(n, 1),
                                  lambda: MultiPoly.constant(n, 2),
                                  poly]))()
            for _ in range(n)]
    return RationalSelfMap(nums, dens)


def residue(x, fld):
    """x mod p by hand, for an oracle that shares no code with the
    reduction."""
    x = Fraction(x)
    return fld.from_int(x.numerator * pow(x.denominator, -1, fld.p))


def plain_poly_eval(poly, point, fld):
    """Every coefficient reduced at every term, powers from fld.one()."""
    total = fld.zero()
    for idx, c in poly.terms.items():
        term = residue(c, fld)
        for x, a in zip(point, idx):
            power = fld.one()
            for _ in range(a):
                power = power * x
            term = term * power
        total = total + term
    return total


@settings(max_examples=60, deadline=None)
@given(rational_maps(), st.sampled_from(FIELDS), st.randoms())
def test_apply_divides_each_numerator_by_its_denominator(f, fld, rng):
    try:
        fbar = reduce_map(f, PadicContext(fld.p, precision=1))
    except PadicDynError:
        return
    if fld.degree > 1:
        fbar = fbar.extend(fld)
    for _ in range(6):
        point = tuple(fld.element_from_index(rng.randrange(fld.order))
                      for _ in range(f.n))
        values = [(plain_poly_eval(num, point, fld),
                   plain_poly_eval(den, point, fld))
                  for num, den in zip(f.numerators, f.denominators)]
        if any(d.is_zero() for _, d in values):
            try:
                fbar.apply(point)
                raise AssertionError("vanishing denominator accepted")
            except IndeterminacyError:
                continue
        assert fbar.apply(point) == tuple(v * d.inverse() for v, d in values)


def constant_denominator_maps():
    """rational_maps with every denominator replaced by an integer constant
    other than 1, sometimes divisible by p."""
    return rational_maps().flatmap(lambda f: st.lists(
        st.integers(2, 9), min_size=f.n, max_size=f.n).map(
            lambda cs: RationalSelfMap(
                f.numerators, [MultiPoly.constant(f.n, c) for c in cs])))


@settings(max_examples=60, deadline=None)
@given(constant_denominator_maps(), st.sampled_from(FIELDS), st.randoms())
def test_constant_denominators_against_the_plain_evaluation(f, fld, rng):
    if any(den.terms[(0,) * f.n] % fld.p == 0 for den in f.denominators):
        with pytest.raises(IndeterminacyError, match="reduces to zero"):
            reduce_map(f, PadicContext(fld.p, precision=1))
        return
    try:
        fbar = reduce_map(f, PadicContext(fld.p, precision=1))
    except InseparableError:
        return
    if fld.degree > 1:
        fbar = fbar.extend(fld)
    det = f.jacobian_numerator_det()
    for _ in range(6):
        point = tuple(fld.element_from_index(rng.randrange(fld.order))
                      for _ in range(f.n))
        values = [(plain_poly_eval(num, point, fld),
                   plain_poly_eval(den, point, fld))
                  for num, den in zip(f.numerators, f.denominators)]
        assert fbar.apply(point) == tuple(v * d.inverse() for v, d in values)
        # a unit constant denominator never vanishes
        ramified = plain_poly_eval(det, point, fld).is_zero()
        assert locus_check(fbar, point) == (RAMIFIED if ramified else CLEAR)


def reduction_error(f, p):
    """The error reduce_map must raise for f at p, found by hand: the first
    coefficient that is not p-integral, then a denominator all of whose
    coefficients vanish mod p, then the same for the Jacobian determinant."""
    if any(c.denominator % p == 0 for c in f.coefficients()):
        return BadReductionError
    if any(all(c.numerator % p == 0 for c in den.coefficients())
           for den in f.denominators):
        return IndeterminacyError
    if all(c.numerator % p == 0
           for c in f.jacobian_numerator_det().coefficients()):
        return InseparableError
    return None


@st.composite
def reductions(draw):
    """A rational map of A^1 or A^2 whose coefficients have small
    denominators (sometimes divisible by p), a prime and integer points."""
    p = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(1, 2))
    exponents = st.tuples(*[st.integers(0, 2)] * n)
    coefficient = st.fractions(min_value=-6, max_value=6,
                               max_denominator=4).filter(bool)

    def poly(max_size):
        return MultiPoly(n, draw(st.dictionaries(
            exponents, coefficient, min_size=1, max_size=max_size)))

    nums = [poly(3) for _ in range(n)]
    dens = [poly(2) if draw(st.booleans()) else MultiPoly.constant(n, 1)
            for _ in range(n)]
    points = draw(st.lists(st.tuples(*[st.integers(-9, 9)] * n),
                           min_size=1, max_size=4))
    return RationalSelfMap(nums, dens), p, points


@settings(max_examples=150, deadline=None)
@given(reductions())
def test_reduction_commutes_with_exact_evaluation(case):
    f, p, points = case
    expected_error = reduction_error(f, p)
    if expected_error is not None:
        with pytest.raises(expected_error):
            reduce_map(f, PadicContext(p, precision=1))
        return
    fbar = reduce_map(f, PadicContext(p, precision=1))
    F = FiniteField(p)
    for fld, fm in ((F, fbar), (F.extension(2), fbar.extend(F.extension(2)))):
        for x in points:
            point = tuple(fld.from_int(c) for c in x)
            if any(den.eval_fraction(x).numerator % p == 0
                   for den in f.denominators):
                with pytest.raises(IndeterminacyError):
                    fm.apply(point)
                continue
            image = tuple(residue(w, fld) for w in f.eval_fraction(x))
            assert fm.apply(point) == image


@given(st.sampled_from(FIELDS),
       st.fractions(min_value=-50, max_value=50, max_denominator=30))
def test_from_rational_is_reduction_mod_p(fld, x):
    if x.denominator % fld.p == 0:
        with pytest.raises(BadReductionError):
            fld.from_rational(x)
        return
    r = fld.from_rational(x)
    assert r * fld.from_int(x.denominator) == fld.from_int(x.numerator)
    assert fld.from_rational(x.numerator) == fld.from_int(x.numerator)


def stepped_affine_order(fld, L, c):
    """The order of x -> L x + c by composing it with itself until the
    identity comes back, one step at a time."""
    n = len(L)
    ident = mat_identity(fld, n)
    zero = [fld.zero()] * n
    M, v, order = L, c, 1
    while not (mat_eq(M, ident) and v == zero):
        M = mat_mul(L, M)
        v = [a + b for a, b in zip(mat_vec(L, v), c)]
        order += 1
    return order


AFFINE_FIELDS = [FiniteField(p).extension(m)
                 for p, m in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1),
                              (7, 1))]


@st.composite
def affine_maps(draw):
    fld = draw(st.sampled_from(AFFINE_FIELDS))
    n = draw(st.integers(1, 3 if fld.order < 8 else 2))
    elements = st.integers(0, fld.order - 1).map(fld.element_from_index)
    L = [[draw(elements) for _ in range(n)] for _ in range(n)]
    assume(not matrix_det(L).is_zero())
    return fld, L, [draw(elements) for _ in range(n)]


def jordan_block(p, n, translation):
    """A unipotent Jordan block over F_p, of order the least power of p
    that is at least n, and a translation that multiplies it by p."""
    fld = FiniteField(p)
    L = [[fld.from_int(int(j in (i, i + 1))) for j in range(n)]
         for i in range(n)]
    return fld, L, [fld.from_int(t) for t in translation]


def unipotent_above_the_tables():
    """x -> [[1, a], [0, 1]] x + (b, 1) over F_{5^6}, a field without log
    tables, with a and b outside F_5: of order 5."""
    fld = prime_power_field(5, 6)
    assert fld.order > _TABLE_MAX_ORDER
    a = fld.from_coords([1, 2, 3, 4, 0, 1])
    b = fld.from_coords([4, 0, 2, 0, 0, 0])
    return fld, [[fld.one(), a], [fld.zero(), fld.one()]], [b, fld.one()]


@settings(max_examples=150, deadline=None)
@given(affine_maps())
@example(jordan_block(2, 3, [0, 0, 0]))
@example(jordan_block(2, 3, [0, 0, 1]))
@example(jordan_block(3, 3, [0, 0, 1]))
@example(jordan_block(3, 2, [1, 0]))
@example(unipotent_above_the_tables())
def test_affine_order_equals_the_stepped_order(case):
    fld, L, c = case
    assert affine_order(fld, L, c) == stepped_affine_order(fld, L, c)
