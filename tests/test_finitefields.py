"""The flat finite fields F_p and F_p[x]/(m), and maps reduced mod p.

Field laws are checked on random elements of every F_{p^m}, p in {3, 5, 7}
and m in 1..3. The reduced Jacobian determinant is checked against the exact
rational determinant of the map over Q at integer lifts, and the reduced map
against exact evaluation over Q followed by reduction mod p, which is a ring
homomorphism: oracles that share no code with the reduction.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdyn.dynamics import CLEAR, RAMIFIED, locus_check, reduce_map
from padicdyn.errors import (BadReductionError, IndeterminacyError,
                             InseparableError, PadicDynError)
from padicdyn.finitefields import FiniteField, is_irreducible
from padicdyn.padics import PadicContext
from padicdyn.polynomials import MultiPoly, RationalSelfMap

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
