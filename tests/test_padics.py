"""Core ring arithmetic, valuations and the combinatorial helpers."""

import random
from fractions import Fraction

import pytest

from padicdyn.errors import (BadReductionError, ContextMismatchError,
                             NonUnitError, PrecisionError)
from padicdyn.finitefields import FiniteField
from padicdyn.padics import (INFINITY, PadicContext, binomial_eval,
                             factorial_valuation, int_binomial)


def test_context_validation():
    with pytest.raises(ValueError):
        PadicContext(4)
    with pytest.raises(ValueError):
        PadicContext(3, unram_poly=[-1, 0, 1])  # x^2-1 = (x-1)(x+1) mod 3
    with pytest.raises(ValueError):
        PadicContext(5, eis_poly=[-25, 0, 1])  # constant valuation 2
    with pytest.raises(ValueError):
        PadicContext(5, eis_poly=[-1, 0, 1])   # constant is a unit
    ctx = PadicContext(5, unram_poly=[2, 0, 1], eis_poly=[-5, 0, 1])
    assert ctx.d == 2 and ctx.e == 2 and ctx.q == 25


def test_basic_arithmetic_and_residue():
    ctx = PadicContext(3)
    s = ctx.from_int(2) + ctx.from_int(1)
    assert s.residue().is_zero()          # 2 + 1 = 0 mod 3
    assert s == ctx.from_int(3)           # but the value is 3, not 0
    assert s.valuation() == 1
    x = ctx.random_element(random.Random(0))
    assert (x * ctx.zero()).valuation() is INFINITY


def test_defining_relation_of_eisenstein_layer():
    ctx = PadicContext(5, eis_poly=[-5, 0, 1])
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
    ctx = PadicContext(5, eis_poly=[-5, 0, 1])
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
    ctx = PadicContext(5, unram_poly=[2, 0, 1], eis_poly=[-5, 0, 1])
    rng = random.Random(1)
    for _ in range(20):
        x = ctx.random_element(rng)
        if x.valuation() != 0:
            continue
        assert x * x.inverse() == ctx.one()


def test_ultrametric_property():
    rng = random.Random(2)
    for ctx in (PadicContext(3), PadicContext(5, unram_poly=[2, 0, 1]),
                PadicContext(5, eis_poly=[-5, 0, 1])):
        for _ in range(1000):
            x = ctx.random_element(rng)
            y = ctx.random_element(rng)
            vx, vy, vs = x.valuation(), y.valuation(), (x + y).valuation()
            assert vs >= min(vx, vy)
            if vx != vy:
                assert vs == min(vx, vy)


def test_multiplicativity():
    rng = random.Random(3)
    for ctx in (PadicContext(3), PadicContext(5, eis_poly=[-5, 0, 1])):
        bound = ctx.precision * ctx.e
        for _ in range(400):
            x = ctx.random_element(rng)
            y = ctx.random_element(rng)
            vx, vy = x.valuation(), y.valuation()
            if vx is INFINITY or vy is INFINITY or vx + vy >= bound:
                continue
            assert (x * y).valuation() == vx + vy


# monic irreducibles mod 5 of degree d = 1, 2, 3 and Eisenstein
# polynomials of degree e = 1, 2
UNRAM_POLYS = ([0, 1], [2, 0, 1], [1, 1, 0, 1])
EIS_POLYS = ([-5, 1], [-5, 0, 1])


def test_residue_reduction_is_homomorphism():
    # W and F_q share one multiplication kernel, at mod p^s and mod p
    rng = random.Random(4)
    for unram in UNRAM_POLYS:
        for eis in EIS_POLYS:
            ctx = PadicContext(5, unram_poly=unram, eis_poly=eis)
            assert ctx.residue_field.order == ctx.q
            for _ in range(60):
                x = ctx.random_element(rng)
                y = ctx.random_element(rng)
                assert ctx.residue(x * y) == ctx.residue(x) * ctx.residue(y)
                assert ctx.residue(x + y) == ctx.residue(x) + ctx.residue(y)
                assert ctx.residue(x - y) == ctx.residue(x) - ctx.residue(y)
            assert ctx.residue(ctx.uniformizer()).is_zero()


def test_degree_one_layers_have_the_prime_residue_field():
    for unram in ([0, 1], [3, 1], [-7, 1]):
        ctx = PadicContext(5, unram_poly=unram)
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
            expected = int_binomial(m, k)
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
        bad = PadicContext(5, unram_poly=[2, 0, 1])
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
    ce = PadicContext(5, eis_poly=[-5, 0, 1])
    assert ce.from_int(5).divide_uniformizer() == ce.uniformizer()
    assert (ce.uniformizer() ** 3).divide_uniformizer() == \
        ce.uniformizer() ** 2


def test_general_eisenstein_division():
    # nontrivial middle coefficient (with an unramified-layer component):
    # x^2 + (5 + 5b)x - 5 over W = Z_5[b]/(b^2 + 2)
    ctx = PadicContext(5, unram_poly=[2, 0, 1],
                       eis_poly=[-5, [5, 5], 1])
    rho = ctx.uniformizer()
    assert rho.valuation() == 1
    assert ctx.from_int(5).valuation() == 2
    # rho^2 = 5 - (5 + 5b) rho from the defining relation
    beta = ctx.from_coords([0, 1, 0, 0])      # the root b of x^2 + 2
    assert rho * rho == ctx.from_int(5) - (ctx.from_int(5)
                                           + ctx.from_int(5) * beta) * rho
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
    cd = PadicContext(5, unram_poly=[2, 0, 1])
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
    (PadicContext(7, unram_poly=[1, 0, 1]), range(49)),            # F_49
    (PadicContext(11, unram_poly=[1, 4, 0, 1], precision=16),      # F_1331
     [0, 1, 2, 10, 11, 120, 121, 122, 500, 1000, 1330]),
    (PadicContext(5, eis_poly=[-5, 0, 1], precision=20), range(5)),  # e = 2
    (PadicContext(3, unram_poly=[1, 0, 1], eis_poly=[-3, 0, 1],
                  precision=12), range(9)),
])
def test_teichmuller_newton_equals_the_q_power_iteration(ctx, indexes):
    for idx in indexes:
        res = ctx.residue_field.element_from_index(idx)
        got = ctx.teichmuller_lift(res)
        want = q_power_teichmuller(ctx, res)
        assert got.layers == want.layers and got.prec == want.prec


def test_base_subring_detection():
    ctx = PadicContext(5, unram_poly=[2, 0, 1], eis_poly=[-5, 0, 1])
    assert ctx.from_int(17).in_base_subring()
    assert not ctx.uniformizer().in_base_subring()
    assert not ctx.from_coords([0, 1, 0, 0]).in_base_subring()
