"""Orbit interpolation: finite differences, valuation law, analyticity."""

import hashlib
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdyn.certify import run_pipeline
from padicdyn.errors import PrecisionError, TheoryViolationError
from padicdyn.mahler import (AnalyticityReport, MahlerInterpolation,
                             analyticity_exponent, analyticity_margins,
                             evaluate, mahler_coefficients, orbit)
from padicdyn.mapfile import load_map_file
from padicdyn.padics import INFINITY, PadicContext, factorial_valuation
from tests.conftest import build_pipeline

HENON_P5 = (Path(__file__).resolve().parents[1]
            / "perfbench" / "maps" / "henon_p5.json")

# sha256 of the orbit, the coefficients (digits and precision tags) and the
# valuation table of psi's interpolation at t0 = (3, 11), as computed by the
# evaluator that embedded every coefficient and Newton-inverted the constant
# denominator 1 at each application of f
HENON_P5_PIN = ("bd5b1deeba74fbfc2d4536b8b04ca716"
                "d19903f72f963a7afb5d29481e4aa146")


def is_constant(interp):
    """Every interpolation coefficient is zero to precision."""
    return all(v is INFINITY for row in interp.valuations for v in row)

def test_orbit_examples():
    ctx = PadicContext(5)

    def ident(v):
        return v

    t0 = (ctx.from_int(7),)
    pts = orbit(ident, t0, 3)
    assert all(p[0] == t0[0] for p in pts)

    def shift(v):
        return (v[0] + 1,)

    pts = orbit(shift, (ctx.zero(),), 3)
    assert [p[0] for p in pts] == [ctx.from_int(i) for i in range(4)]


def test_orbit_of_normalized_quadratic():
    # F = 3t^2+4t+1, Phi = F^3: F(0)=1, F(1)=8, F(8)=225, so Phi(0)=225
    pipe = build_pipeline("quad_p3", lift="naive")
    phi = pipe.nbhd.iterated_local_map(pipe.nbhd.affine_order)
    pts = orbit(phi, (pipe.ctx.zero(),), 2)
    assert pts[1][0] == pipe.ctx.from_int(225, pts[1][0].prec)


def test_orbit_rational_shadow():
    # the naive center of x^2+1 at p=3 is 2, so Phi = F^3 in the local
    # coordinate t = (x - 2)/3 maps rationals to rationals
    pipe = build_pipeline("quad_p3", lift="naive")
    phi = pipe.nbhd.iterated_local_map(pipe.nbhd.affine_order)
    f = pipe.map

    def exact_step(t):
        z = [2 + 3 * t]
        for _ in range(3):
            z = f.eval_fraction(z)
        return Fraction(z[0] - 2, 3)

    exact = [Fraction(0)]
    for _ in range(6):
        exact.append(exact_step(exact[-1]))
    pts = orbit(phi, (pipe.ctx.zero(),), 6)
    for (pc,), ec in zip(pts, exact):
        assert pc == pipe.ctx.from_rational(ec, pc.prec)


def test_mahler_coefficients_trivial_maps():
    ctx = PadicContext(5)

    def ident(v):
        return v

    interp = mahler_coefficients(ident, (ctx.from_int(3),), 8)
    assert is_constant(interp)

    def add_p(v):
        return (v[0] + 5,)

    interp2 = mahler_coefficients(add_p, (ctx.zero(),), 8)
    assert interp2.coeffs[0][0] == ctx.from_int(5)
    assert interp2.valuation(1, 1) == 1
    for k in range(2, 9):
        assert interp2.valuation(1, k) is INFINITY


def test_valuation_law_on_quadratic():
    pipe = build_pipeline("quad_p3", lift="naive")
    phi = pipe.nbhd.iterated_local_map(pipe.nbhd.affine_order)
    interp = mahler_coefficients(phi, (pipe.ctx.zero(),), 16)
    assert interp.coeffs[0][0] == pipe.ctx.from_int(
        225, interp.coeffs[0][0].prec)
    assert interp.valuation(1, 1) == 2
    for k in range(1, 17):
        v = interp.valuation(1, k)
        assert v is INFINITY or v >= (k + 1 + 1) // 2


def test_theory_violation_fires_on_bad_map():
    # a map that is NOT the identity mod r: differences stay units
    ctx = PadicContext(5)

    def double(v):
        return (v[0] * 2,)

    with pytest.raises(TheoryViolationError):
        mahler_coefficients(double, (ctx.one(),), 6)


def binomial_sum_coefficients(pts, k_max):
    """(coefficients, valuations) as sum_j (-1)^(k-j) C(k,j) pts[j][i] on
    PadicElements, with the precision and valuation-law checks: the formula
    mahler_coefficients evaluated before its forward-difference table, kept
    here as the oracle."""
    ctx = pts[0][0].ctx
    min_prec = min(c.prec for pt in pts for c in pt)
    needed = (k_max + 2) // 2
    if ctx.e * min_prec <= needed:
        raise PrecisionError(
            f"the orbit keeps {min_prec} of the {ctx.precision} digits of"
            f" working precision, too few to resolve v_r up to {needed} at"
            f" k_max {k_max}; raise the precision (--precision) or lower"
            " k_max (--kmax)")
    coeffs, valuations = [], []
    for i in range(len(pts[0])):
        row, vals = [], []
        for k in range(1, k_max + 1):
            acc = None
            for j in range(k + 1):
                term = pts[j][i] * ((-1) ** (k - j) * math.comb(k, j))
                acc = term if acc is None else acc + term
            v = acc.valuation()
            bound = (k + 2) // 2
            if v is not INFINITY and v < bound:
                raise TheoryViolationError(
                    f"theory violation: v_r(b_{i + 1},{k}) = {v} <"
                    f" {bound}")
            row.append(acc)
            vals.append(v)
        coeffs.append(row)
        valuations.append(tuple(vals))
    return coeffs, tuple(valuations)


def binomial_sum_evaluate(interp, z):
    """evaluate(interp, z) for an int z summed on PadicElements (oracle)."""
    values = []
    for i in range(interp.n):
        acc = interp.omega[i]
        for k in range(1, interp.k_max + 1):
            w = math.comb(z, k) if z >= 0 else (-1) ** k * math.comb(
                k - z - 1, k)
            if w:
                acc = acc + interp.coeffs[i][k - 1] * w
        values.append(acc)
    return values


def tagged(x, prec):
    return x.ctx.from_coords(x.coords(), prec)


def orbit_from_coefficients(omega, coeffs, tags):
    """pts[j][i] = omega_i + sum_k C(j, k) b_ik, tagged tags[j][i]."""
    return [tuple(tagged(w + sum((b * math.comb(j, k + 1)
                                  for k, b in enumerate(row)), w.ctx.zero()),
                         tags[j][i])
                  for i, (w, row) in enumerate(zip(omega, coeffs)))
            for j in range(len(tags))]


MAHLER_CONTEXTS = [
    PadicContext(5, precision=12),                          # (d, e) = (1, 1)
    PadicContext(3, d=2, precision=10),                     # (2, 1)
    PadicContext(5, e=2, precision=8),                      # (1, 2)
]


@st.composite
def tagged_orbits(draw):
    """An orbit whose finite differences mostly obey the valuation law,
    with a precision tag drawn per point and coordinate."""
    ctx = draw(st.sampled_from(MAHLER_CONTEXTS))
    n = draw(st.integers(1, 2))
    k_max = draw(st.integers(1, 8))
    r = ctx.uniformizer()

    def element():
        return ctx.from_coords([draw(st.integers(0, ctx.pmod - 1))
                                for _ in range(ctx.d * ctx.e)])

    omega = [element() for _ in range(n)]
    # now and then one digit short of the law, so the violation check runs
    coeffs = [[element() * r ** ((k + 2) // 2
                                 - draw(st.sampled_from([0] * 9 + [1])))
               for k in range(1, k_max + 1)] for _ in range(n)]
    # now and then a tag too short to resolve the law
    low = (k_max + 2) // 2 // ctx.e + draw(st.sampled_from([1] * 9 + [0]))
    tags = [[draw(st.integers(max(1, low), ctx.precision)) for _ in range(n)]
            for _ in range(k_max + 1)]
    return orbit_from_coefficients(omega, coeffs, tags), k_max


@settings(max_examples=120, deadline=None)
@given(tagged_orbits())
def test_finite_differences_equal_the_binomial_sums(case):
    pts, k_max = case
    try:
        want, want_vals = binomial_sum_coefficients(pts, k_max)
    except (PrecisionError, TheoryViolationError) as exc:
        with pytest.raises(type(exc)) as info:
            mahler_coefficients(None, None, k_max, orbit_points=pts)
        assert str(info.value) == str(exc)
        return
    interp = mahler_coefficients(None, None, k_max, orbit_points=pts)
    assert interp.valuations == want_vals
    for got_row, want_row in zip(interp.coeffs, want):
        assert [(c.layers, c.prec) for c in got_row] == \
            [(c.layers, c.prec) for c in want_row]
    for z in (0, 1, k_max, k_max + 3, -1, -4, 10 ** 6):
        got = evaluate(interp, z).values
        assert [(c.layers, c.prec) for c in got] == \
            [(c.layers, c.prec) for c in binomial_sum_evaluate(interp, z)]


def test_theory_violation_fires_on_a_crafted_orbit():
    # b_1 = r and b_2 = r^2 obey the law, b_3 = r does not (bound 2)
    ctx = PadicContext(5, e=2, precision=8)
    r = ctx.uniformizer()
    omega = [ctx.from_int(2), ctx.from_int(7)]
    coeffs = [[r, r * r, r, ctx.zero()], [r * r, ctx.zero(), ctx.zero(),
                                          ctx.zero()]]
    tags = [[8, 6], [5, 8], [7, 7], [6, 4], [8, 8]]
    pts = orbit_from_coefficients(omega, coeffs, tags)
    with pytest.raises(TheoryViolationError, match=r"b_1,3\) = 1 < 2"):
        mahler_coefficients(None, None, 4, orbit_points=pts)


def test_precision_gate():
    ctx = PadicContext(3, precision=4)

    def ident(v):
        return v

    with pytest.raises(PrecisionError):
        mahler_coefficients(ident, (ctx.one(),), 32)


def test_analyticity_exponent_grid_and_monotonicity():
    grid = {(5, 1): 0, (3, 1): 1, (5, 3): 1, (7, 1): 0, (3, 3): 2}
    for (p, e), want in grid.items():
        assert analyticity_exponent(PadicContext(p, e=e)) == want
    for e in (1, 2, 3, 4):
        prev = None
        for p in (3, 5, 7, 11, 13):
            l = analyticity_exponent(PadicContext(p, e=e))
            if p > 2 * (e + 1):
                assert l == 0
            if prev is not None:
                assert l <= prev
            prev = l


def test_interpolation_identity_and_functional_equation():
    pipe = build_pipeline("quad_p3", lift="naive")
    ctx = pipe.ctx
    phi = pipe.nbhd.iterated_local_map(pipe.nbhd.affine_order)
    interp = mahler_coefficients(phi, (ctx.zero(),), 12)
    for j in range(13):
        val = evaluate(interp, j)
        assert val.values[0] == interp.orbit_points[j][0]
    # padic z agrees with the int path where both are defined
    assert evaluate(interp, ctx.from_int(4)).values[0] == \
        evaluate(interp, 4).values[0]
    rng = random.Random(6)
    for _ in range(10):
        zint = rng.randrange(3 ** 50)
        gz = evaluate(interp, ctx.from_int(zint))
        gz1 = evaluate(interp, ctx.from_int(zint + 1))
        img = phi(gz.values)
        diff = (gz1.values[0] - img[0]).valuation()
        assert diff is INFINITY or diff >= gz.tail_valuation


def test_backward_orbit_consistency():
    pipe = build_pipeline("quad_p3", lift="naive")
    ctx = pipe.ctx
    phi = pipe.nbhd.iterated_local_map(pipe.nbhd.affine_order)
    interp = mahler_coefficients(phi, (ctx.zero(),), 12)
    val = evaluate(interp, -1)
    image = phi(val.values)
    diff = (image[0] - ctx.zero()).valuation()
    assert diff is INFINITY or diff >= val.tail_valuation


def test_constancy_dichotomy():
    # Teichmuller center of x^3 at p=5 is exactly fixed: all coefficients
    # vanish and evaluation is constant
    pipe = build_pipeline("cube_p5")
    ctx = pipe.ctx
    phi = pipe.nbhd.iterated_local_map(pipe.nbhd.affine_order)
    interp = mahler_coefficients(phi, (ctx.zero(),), 8)
    assert is_constant(interp)
    img = phi((ctx.zero(),))
    assert img[0].valuation() is INFINITY
    # and a non-fixed center gives nonzero coefficients
    interp2 = mahler_coefficients(phi, (ctx.one(),), 8)
    assert not is_constant(interp2)


def test_analyticity_margins_reports():
    pipe = build_pipeline("quad_p3", lift="naive")
    phi = pipe.nbhd.iterated_local_map(pipe.nbhd.affine_order)
    interp = mahler_coefficients(phi, (pipe.ctx.zero(),), 16)
    rep1 = analyticity_margins(interp, 1)
    assert rep1.slope == Fraction(1, 3)
    assert rep1.certified and rep1.margins_nonnegative
    assert rep1.eventually_increasing
    rep0 = analyticity_margins(interp, 0)
    assert rep0.slope == 0 and not rep0.slope_positive
    assert not rep0.certified
    # identity: all margins infinite, certified at l = 0
    ctx = PadicContext(5)

    def ident(v):
        return v

    iid = mahler_coefficients(ident, (ctx.one(),), 8)
    repid = analyticity_margins(iid, 0)
    assert repid.certified
    assert all(m is INFINITY for _, m, _ in repid.margins)


def test_valuation_law_in_ramified_context():
    # e = 2 (uniformizer rho with rho^2 = 5): the coefficient bound
    # ceil((k+1)/2) is stated in r-adic units and the analyticity disc
    # shrinks (l_an = 1); the slope degenerates to 0 at l = 0
    pipe = build_pipeline("square_p5", e=2)
    ctx = pipe.ctx
    assert ctx.e == 2
    assert analyticity_exponent(ctx) == 1
    phi = pipe.nbhd.iterated_local_map(pipe.nbhd.affine_order)
    interp = mahler_coefficients(phi, (ctx.one(),), 16)
    assert not is_constant(interp)
    for k in range(1, 17):
        v = interp.valuation(1, k)
        assert v is INFINITY or v >= (k + 2) // 2
    for j in range(17):
        assert evaluate(interp, j).values[0] == interp.orbit_points[j][0]
    rep1 = analyticity_margins(interp, 1)
    assert rep1.slope == Fraction(1, 5)
    assert rep1.certified
    rep0 = analyticity_margins(interp, 0)
    assert rep0.slope == 0 and not rep0.certified
    rng = random.Random(7)
    for _ in range(5):
        zint = rng.randrange(5 ** 40)
        gz = evaluate(interp, ctx.from_int(zint))
        gz1 = evaluate(interp, ctx.from_int(zint + 1))
        diff = (gz1.values[0] - phi(gz.values)[0]).valuation()
        assert diff is INFINITY or diff >= gz.tail_valuation


def test_full_tower_context():
    # both layers at once: residue degree 2 over p = 5 with a ramified
    # Eisenstein layer on top (d = 2, e = 2, v_r(p) = 2, q = 25)
    pipe = build_pipeline("quad_p5", e=2)
    ctx = pipe.ctx
    assert ctx.d == 2 and ctx.e == 2
    assert ctx.from_int(5).valuation() == 2
    assert pipe.nbhd.affine_order == 12
    phi = pipe.nbhd.iterated_local_map(pipe.nbhd.affine_order)
    interp = mahler_coefficients(phi, (ctx.one(),), 12)
    assert not is_constant(interp)
    for k in range(1, 13):
        v = interp.valuation(1, k)
        assert v is INFINITY or v >= (k + 2) // 2
    for j in range(13):
        assert evaluate(interp, j).values[0] == interp.orbit_points[j][0]
    rep = analyticity_margins(interp, analyticity_exponent(ctx))
    assert rep.certified


def test_ck_margin_matches_slope_margin_at_l0():
    # at l = 0 the constant reduces to 1/k!, so both margins agree
    pipe = build_pipeline("square_p5")
    phi = pipe.nbhd.iterated_local_map(pipe.nbhd.affine_order)
    interp = mahler_coefficients(phi, (pipe.ctx.one(),), 10)
    rep = analyticity_margins(interp, 0)
    for _, main, ck in rep.margins:
        assert main == ck


def fraction_margins(interp, l):
    """The margin report by Fraction arithmetic, row by row: the slope
    margin v + e (k exponent - v_p(k!)) with exponent (p^l - 1) / ((p - 1)
    p^l), the C_k margin v + e (l + nested-floor sum - v_p(k!))."""
    ctx = interp.ctx
    p, e = ctx.p, ctx.e
    slope = Fraction(1, 2 * e) - Fraction(1, (p - 1) * p ** l)
    exponent = Fraction(p ** l - 1, (p - 1) * p ** l)
    rows = []
    finite = []
    for k in range(1, interp.k_max + 1):
        v = min(interp.valuations[i][k - 1] for i in range(interp.n))
        if v is INFINITY:
            rows.append((k, INFINITY, INFINITY))
            continue
        vfact = factorial_valuation(k, p)
        floors = sum((k - 1) // p ** j for j in range(1, l + 1))
        main = Fraction(v) + e * (k * exponent - vfact)
        ck = Fraction(v) + e * (l + floors - vfact)
        rows.append((k, main, ck))
        finite.append(main)
    nonneg = all(m >= 0 for m in finite)
    if len(finite) < 4:
        increasing = True
    else:
        third = max(1, len(finite) // 3)
        increasing = min(finite[-third:]) > min(finite[:third])
    return AnalyticityReport(
        l=l, slope=slope, slope_positive=slope > 0, margins=tuple(rows),
        margins_nonnegative=nonneg, eventually_increasing=increasing,
        certified=slope > 0 and nonneg and increasing)


@st.composite
def valuation_profiles(draw):
    """An interpolation record holding only a context and a valuation
    table: small valuations (negative margins) to large, and INFINITY
    often, so that whole columns of it come up too."""
    ctx = PadicContext(draw(st.sampled_from([3, 5, 7, 11])),
                       e=draw(st.integers(1, 3)), precision=4)
    n = draw(st.integers(1, 2))
    k_max = draw(st.integers(1, 40))
    entry = st.one_of(st.just(INFINITY), st.integers(0, 3 * k_max))
    valuations = tuple(tuple(draw(entry) for _ in range(k_max))
                       for _ in range(n))
    return MahlerInterpolation(ctx=ctx, omega=(None,) * n, k_max=k_max,
                               coeffs=(), valuations=valuations,
                               orbit_points=())


@settings(max_examples=300, deadline=None)
@given(valuation_profiles(), st.integers(0, 3))
def test_integer_margins_equal_the_fraction_margins(interp, l):
    got = analyticity_margins(interp, l)
    want = fraction_margins(interp, l)
    for name in AnalyticityReport.__slots__:
        assert getattr(got, name) == getattr(want, name), name
    assert type(got.slope) is Fraction and str(got.slope) == str(want.slope)
    for row, want_row in zip(got.margins, want.margins):
        for m, w in zip(row[1:], want_row[1:]):
            if w is INFINITY:
                assert m is INFINITY
            else:
                assert type(m) is Fraction and str(m) == str(w)


def test_henon_mahler_data_is_pinned():
    cfg = load_map_file(str(HENON_P5))
    pipe = run_pipeline(cfg.map, prime=cfg.prime, e=cfg.e,
                        precision=cfg.precision, degree=cfg.degree,
                        m_max=cfg.m_max, lift=cfg.lift)
    ctx, b = pipe.ctx, pipe.bound
    assert (b.period_k, b.affine_order, b.bound) == (11, 4, 44)
    psi = pipe.nbhd.iterated_local_map(
        b.affine_order * ctx.p ** b.analyticity_exponent)
    t0 = (ctx.from_int(3), ctx.from_int(11))
    interp = mahler_coefficients(psi, t0, cfg.kmax)
    data = {"orbit": [[(c.layers, c.prec) for c in pt]
                      for pt in interp.orbit_points],
            "coeffs": [[(c.layers, c.prec) for c in row]
                       for row in interp.coeffs],
            "vals": [[str(v) for v in row] for row in interp.valuations]}
    assert hashlib.sha256(repr(data).encode()).hexdigest() == HENON_P5_PIN
