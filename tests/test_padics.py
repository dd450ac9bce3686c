"""Core ring arithmetic, valuations and the combinatorial helpers."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdyn.errors import (BadReductionError, ContextMismatchError,
                             NonUnitError, PrecisionError)
from padicdyn.finitefields import FiniteField, prime_power_field
from padicdyn.padics import (INFINITY, PadicContext, binomial_eval,
                             factorial_valuation)


def test_context_validation():
    with pytest.raises(ValueError):
        PadicContext(4)
    for bad in ({"d": 0}, {"e": 0}, {"precision": 0}, {"e": 2.0},
                {"d": "2"}, {"precision": True}):
        with pytest.raises(ValueError):
            PadicContext(5, **bad)
    ctx = PadicContext(5, d=2, e=2)
    assert ctx.d == 2 and ctx.e == 2 and ctx.q == 25
    assert ctx.residue_field is prime_power_field(5, 2)
    assert ctx == PadicContext(5, d=2, e=2)
    assert hash(ctx) == hash(PadicContext(5, d=2, e=2))
    assert len({ctx, PadicContext(5, d=2), PadicContext(5, e=2),
                PadicContext(5, d=2, e=2, precision=8)}) == 4


def test_basic_arithmetic_and_residue():
    ctx = PadicContext(3)
    s = ctx.from_int(2) + ctx.from_int(1)
    assert s.residue().is_zero()          # 2 + 1 = 0 mod 3
    assert s == ctx.from_int(3)           # but the value is 3, not 0
    assert s.valuation() == 1
    x = ctx.random_element(random.Random(0))
    assert (x * ctx.zero()).valuation() is INFINITY


def test_defining_relation_of_eisenstein_layer():
    ctx = PadicContext(5, e=2)
    rho = ctx.uniformizer()
    assert rho * rho == ctx.from_int(5)
    assert (rho * rho).valuation() == 2
    assert ctx.from_int(5).valuation() == 2      # v_r(p) = e
    assert rho.valuation() == 1
    assert (rho + ctx.from_int(5)).valuation() == 1


def test_context_mismatch():
    a = PadicContext(3).from_int(1)
    b = PadicContext(5).from_int(1)
    with pytest.raises(ContextMismatchError):
        a + b


def test_valuation_examples():
    assert PadicContext(3).from_int(18).valuation() == 2
    ctx = PadicContext(5, e=2)
    assert ctx.from_int(0).valuation() is INFINITY
    assert ctx.zero().valuation() is INFINITY


def test_invert():
    ctx = PadicContext(3, precision=1)
    two = ctx.from_int(2)
    assert two.inverse() == two               # 2*2 = 4 = 1 mod 3
    c5 = PadicContext(5, precision=2)
    assert c5.from_int(2).inverse().layers[0][0] == 13
    assert PadicContext(7).one().inverse() == PadicContext(7).one()
    with pytest.raises(NonUnitError):
        PadicContext(3).from_int(3).inverse()


def test_invert_in_tower():
    ctx = PadicContext(5, d=2, e=2)
    rng = random.Random(1)
    for _ in range(20):
        x = ctx.random_element(rng)
        if x.valuation() != 0:
            continue
        assert x * x.inverse() == ctx.one()


def test_ultrametric_property():
    rng = random.Random(2)
    for ctx in (PadicContext(3), PadicContext(5, d=2),
                PadicContext(5, e=2)):
        for _ in range(1000):
            x = ctx.random_element(rng)
            y = ctx.random_element(rng)
            vx, vy, vs = x.valuation(), y.valuation(), (x + y).valuation()
            assert vs >= min(vx, vy)
            if vx != vy:
                assert vs == min(vx, vy)


def test_multiplicativity():
    rng = random.Random(3)
    for ctx in (PadicContext(3), PadicContext(5, e=2)):
        bound = ctx.precision * ctx.e
        for _ in range(400):
            x = ctx.random_element(rng)
            y = ctx.random_element(rng)
            vx, vy = x.valuation(), y.valuation()
            if vx is INFINITY or vy is INFINITY or vx + vy >= bound:
                continue
            assert (x * y).valuation() == vx + vy


def test_residue_reduction_is_homomorphism():
    # W and F_q share one multiplication kernel, at mod p^s and mod p
    rng = random.Random(4)
    for d in (1, 2, 3):
        for e in (1, 2):
            ctx = PadicContext(5, d=d, e=e)
            assert ctx.residue_field.order == ctx.q
            for _ in range(60):
                x = ctx.random_element(rng)
                y = ctx.random_element(rng)
                assert ctx.residue(x * y) == ctx.residue(x) * ctx.residue(y)
                assert ctx.residue(x + y) == ctx.residue(x) + ctx.residue(y)
                assert ctx.residue(x - y) == ctx.residue(x) - ctx.residue(y)
            assert ctx.residue(ctx.uniformizer()).is_zero()


def test_degree_one_layers_have_the_prime_residue_field():
    for e in (1, 2):
        ctx = PadicContext(5, e=e)
        assert ctx.residue_field == FiniteField(5)
        assert ctx.residue_field.modulus_indexes() is None
        assert ctx.residue(ctx.from_int(7)).coords() == [2]


def test_factorial_valuation_legendre():
    assert factorial_valuation(0, 3) == 0
    assert factorial_valuation(6, 3) == 2          # 720 = 3^2 * 80
    assert factorial_valuation(25, 5) == 6         # 5 + 1
    # Legendre consistency against the floor-sum oracle
    for p in (3, 5, 7):
        for k in range(0, 10001, 7):
            total = 0
            q = p
            while q <= k:
                total += k // q
                q *= p
            assert factorial_valuation(k, p) == total
    # strict bound v_p(k!) < k/(p-1) for k >= 1
    for p in (3, 5, 7):
        for k in range(1, 200):
            assert factorial_valuation(k, p) * (p - 1) < k


def test_binomial_eval_matches_integer_binomials():
    ctx = PadicContext(3)
    z = ctx.from_int(9)
    assert binomial_eval(z, 2) == ctx.from_int(36)
    assert binomial_eval(z, 0) == ctx.one()
    assert binomial_eval(ctx.zero(), 4).valuation() is INFINITY
    for m in range(31):
        zm = ctx.from_int(m)
        for k in range(m + 1):
            expected = math.comb(m, k)
            got = binomial_eval(zm, k)
            assert got == ctx.from_int(expected, got.prec)


def test_binomial_eval_integrality_and_precision():
    ctx = PadicContext(3, precision=10)
    rng = random.Random(5)
    for _ in range(50):
        z = ctx.from_int(rng.randrange(3 ** 10))
        b = binomial_eval(z, 5)
        assert b.valuation() >= 0 or b.valuation() is INFINITY
    with pytest.raises(PrecisionError):
        # v_3(27!) = 13 >= precision 10
        binomial_eval(ctx.from_int(5), 27)
    with pytest.raises(ValueError):
        bad = PadicContext(5, d=2)
        # the root b of x^2 + 2, which is not in Z_5
        binomial_eval(bad.from_coords([0, 1]), 2)


def test_from_rational():
    ctx = PadicContext(3)
    h = ctx.from_rational(Fraction(1, 2))
    assert h * 2 == ctx.one()
    with pytest.raises(BadReductionError):
        ctx.from_rational(Fraction(1, 3))


def test_divide_uniformizer_precision_cost():
    ctx = PadicContext(3)
    x = ctx.from_int(6)
    y = x.divide_uniformizer()
    assert y == ctx.from_int(2, y.prec)
    assert y.prec == ctx.precision - 1
    with pytest.raises(NonUnitError):
        ctx.from_int(1).divide_uniformizer()
    # ramified: 5/rho = rho for rho^2 = 5
    ce = PadicContext(5, e=2)
    assert ce.from_int(5).divide_uniformizer() == ce.uniformizer()
    assert (ce.uniformizer() ** 3).divide_uniformizer() == \
        ce.uniformizer() ** 2


def test_division_by_r_in_a_tower():
    # r^2 = 5 over W = Z_5[b]/(b^2 + 2)
    ctx = PadicContext(5, d=2, e=2)
    rho = ctx.uniformizer()
    assert rho.valuation() == 1
    assert ctx.from_int(5).valuation() == 2
    beta = ctx.from_coords([0, 1, 0, 0])      # the root b of x^2 + 2
    assert beta * beta == ctx.from_int(-2)
    assert (beta * rho * 5).divide_uniformizer() == beta * 5
    rng = random.Random(6)
    for _ in range(30):
        x = ctx.random_element(rng)
        back = (x * rho).divide_uniformizer()
        assert back == x
        assert back.prec == ctx.precision - 1
    for _ in range(20):
        x = ctx.random_element(rng)
        if x.valuation() == 0:
            assert x * x.inverse() == ctx.one()


def test_teichmuller_properties():
    ctx = PadicContext(3)
    t = ctx.teichmuller_lift(ctx.residue_field.from_int(2))
    assert t == ctx.from_int(-1)
    assert ctx.teichmuller_lift(ctx.residue_field.from_int(0)) == ctx.zero()
    assert ctx.teichmuller_lift(ctx.residue_field.from_int(1)) == ctx.one()
    cd = PadicContext(5, d=2)
    for idx in (1, 7, 13, 24):
        res = cd.residue_field.element_from_index(idx)
        t = cd.teichmuller_lift(res)
        assert t ** cd.q == t
        assert cd.residue(t) == res


def q_power_teichmuller(ctx, res):
    """The lift by iterating x -> x^q from the naive lift until the digits
    stop changing: linear in the precision, kept here as the oracle."""
    x = ctx.naive_lift(res)
    if res.is_zero():
        return x
    for _ in range(ctx.e * ctx.precision + 4):
        nxt = x ** ctx.q
        if nxt.layers == x.layers:
            return nxt
        x = nxt
    raise AssertionError("q-power iteration did not stabilize")


@pytest.mark.parametrize("ctx, indexes", [
    (PadicContext(5), range(5)),                                   # F_5
    (PadicContext(7, d=2), range(49)),                             # F_49
    (PadicContext(11, d=3, precision=16),                          # F_1331
     [0, 1, 2, 10, 11, 120, 121, 122, 500, 1000, 1330]),
    (PadicContext(5, e=2, precision=20), range(5)),                # e = 2
    (PadicContext(3, d=2, e=2, precision=12), range(9)),
])
def test_teichmuller_newton_equals_the_q_power_iteration(ctx, indexes):
    for idx in indexes:
        res = ctx.residue_field.element_from_index(idx)
        got = ctx.teichmuller_lift(res)
        want = q_power_teichmuller(ctx, res)
        assert got.layers == want.layers and got.prec == want.prec


def inverted_derivative_teichmuller(ctx, res):
    """The Newton lift that inverts the derivative q x^(q-1) - 1 afresh at
    every step: kept here as the oracle of the lift that carries the
    inverse along."""
    x = ctx.naive_lift(res)
    if res.is_zero():
        return x
    for _ in range((ctx.e * ctx.precision).bit_length() + 2):
        x_q1 = x ** (ctx.q - 1)
        fx = x_q1 * x - x
        if fx.valuation() is INFINITY:
            return x
        x = x - fx * (x_q1 * ctx.q - 1).inverse()
    raise AssertionError("Newton iteration did not stabilize")


def padic_element_teichmuller(ctx, res):
    """The Newton lift on PadicElements of the whole ring O, carrying the
    derivative's inverse along, until x^q - x vanishes to precision: the
    oracle of the lift that runs on W tuples."""
    x = ctx.naive_lift(res)
    if res.is_zero():
        return x
    u, two = ctx.from_int(-1), ctx.from_int(2)
    for _ in range((ctx.e * ctx.precision).bit_length() + 2):
        x_q1 = x ** (ctx.q - 1)
        fx = x_q1 * x - x
        if fx.valuation() is INFINITY:
            return x
        u = u * (two - (x_q1 * ctx.q - 1) * u)
        x = x - fx * u
    raise AssertionError("Newton iteration did not stabilize")


# p in {3, 5, 7}, d in {1, 2, 3}, e in {1, 2}
GRID = [(p, d, e) for p in (3, 5, 7) for d in (1, 2, 3) for e in (1, 2)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(GRID), st.integers(1, 40), st.integers(0, 10 ** 6))
def test_teichmuller_on_w_tuples_equals_the_padic_element_newton(
        pde, precision, index):
    p, d, e = pde
    ctx = PadicContext(p, d=d, e=e, precision=precision)
    res = ctx.residue_field.element_from_index(index % ctx.q)
    got = ctx.teichmuller_lift(res)
    want = padic_element_teichmuller(ctx, res)
    assert got.layers == want.layers and got.prec == want.prec
    assert got.ctx is ctx


# (d, e) -> p
TOWERS = {(1, 1): 7, (2, 1): 5, (3, 1): 3, (2, 2): 3}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(TOWERS)), st.integers(1, 40),
       st.integers(0, 10 ** 6))
def test_teichmuller_carried_inverse_equals_the_inverted_derivative(
        de, precision, index):
    d, e = de
    ctx = PadicContext(TOWERS[de], d=d, e=e, precision=precision)
    res = ctx.residue_field.element_from_index(index % ctx.q)
    got = ctx.teichmuller_lift(res)
    want = inverted_derivative_teichmuller(ctx, res)
    assert got.layers == want.layers and got.prec == want.prec
    assert got ** ctx.q == got and ctx.residue(got) == res


def test_base_subring_detection():
    ctx = PadicContext(5, d=2, e=2)
    assert ctx.from_int(17).in_base_subring()
    assert not ctx.uniformizer().in_base_subring()
    assert not ctx.from_coords([0, 1, 0, 0]).in_base_subring()


def oracle_product(p, d, e, mod, x, y):
    """x * y on plain int lists, index j*d + i holding the b^i r^j
    coefficient: the full product in b and r, then r^j = p r^(j-e) for
    j >= e and b^k = -(g_0 b^(k-d) + ... + g_(d-1) b^(k-1)) for k >= d,
    g the modulus of F_{p^d}, everything mod p^s."""
    g = prime_power_field(p, d).modulus
    full = [[0] * (2 * d - 1) for _ in range(2 * e - 1)]
    for j1 in range(e):
        for i1 in range(d):
            for j2 in range(e):
                for i2 in range(d):
                    full[j1 + j2][i1 + i2] += x[j1 * d + i1] * y[j2 * d + i2]
    for j in range(2 * e - 2, e - 1, -1):
        for i in range(2 * d - 1):
            full[j - e][i] += p * full[j][i]
    out = []
    for row in full[:e]:
        for k in range(2 * d - 2, d - 1, -1):
            for i, gi in enumerate(g):
                row[k - d + i] -= row[k] * gi
        out += [c % mod for c in row[:d]]
    return out


@st.composite
def ring_cases(draw):
    """A context with p in {3, 5, 7} and d, e in {1, 2, 3}, and two
    elements of it with tags up to its precision."""
    d, e = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ctx = PadicContext(draw(st.sampled_from([3, 5, 7])), d=d, e=e,
                       precision=draw(st.integers(1, 12)))

    def element():
        tag = draw(st.integers(1, ctx.precision))
        return ctx.from_coords([draw(st.integers(0, ctx.p ** tag - 1))
                                for _ in range(d * e)], tag)

    return ctx, element(), element()


@settings(max_examples=200, deadline=None)
@given(ring_cases())
def test_ring_of_r_to_the_e_equal_p_against_an_int_oracle(case):
    ctx, x, y = case
    p, d, e = ctx.p, ctx.d, ctx.e
    s = min(x.prec, y.prec)
    mod = p ** s
    a, b = x.coords(), y.coords()
    for got, want in ((x + y, [u + v for u, v in zip(a, b)]),
                      (x - y, [u - v for u, v in zip(a, b)]),
                      (x * y, oracle_product(p, d, e, mod, a, b))):
        assert got.prec == s
        assert got.coords() == [c % mod for c in want]
    r = ctx.uniformizer()
    assert r ** e == ctx.from_int(p)
    for z in (x, y):
        if z.prec == 1:
            with pytest.raises(PrecisionError):
                (z * r).divide_uniformizer()
            continue
        back = (z * r).divide_uniformizer()
        assert back.prec == z.prec - 1 and back == z
        if z.valuation() >= 1:
            quot = z.divide_uniformizer()
            assert quot.prec == z.prec - 1 and quot * r == z
        else:
            with pytest.raises(NonUnitError):
                z.divide_uniformizer()
