"""Prime selection, lifting, the invariant neighborhood and its invariants."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padicdyn import neighborhood
from padicdyn.certify import find_witness, run_pipeline, verify_certificate
from padicdyn.dynamics import find_periodic_point, reduce_map
from padicdyn.errors import (NoGoodPrimeError, NonUnitError,
                             OrbitNotClearError, PadicDynError,
                             ResidueMismatchError)
from padicdyn.mapfile import load_map_file
from padicdyn.neighborhood import (build_neighborhood, choose_good_prime,
                                   context_for_record, hensel_lift,
                                   reduced_affine_order, validate_prime)
from padicdyn.padics import INFINITY, PadicContext
from padicdyn.polynomials import MultiPoly, RationalSelfMap
from padicdyn.series import SeriesRing
from tests.conftest import SUITE_SPECS, build_pipeline

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH_MAPS = ROOT / "perfbench" / "maps"
DEMO_MAPS = ROOT / "demos" / "maps"


def quad():
    return RationalSelfMap.from_texts(1, ["x1^2 + 1"])


def test_choose_good_prime_prefers_large_enough_primes():
    rep = choose_good_prime(quad(), (3, 50), e=1)
    assert rep.p == 5 and not rep.fallback
    assert "fallback" in rep.rejections[3]
    ok, reason, fallback = validate_prime(quad(), 3, e=1)
    assert ok and fallback
    ok, reason, fallback = validate_prime(quad(), 5, e=1)
    assert ok and not fallback


def test_choose_good_prime_rejections():
    rep = choose_good_prime(RationalSelfMap.from_texts(1, ["1/6*x1"]),
                            (3, 50))
    assert rep.p == 5
    assert "3-integral" in rep.rejections[3]
    rep2 = choose_good_prime(RationalSelfMap.from_texts(1, ["x1^3"]),
                             (3, 20))
    assert rep2.p == 5                     # 3 is inseparable for x^3
    assert "inseparable" in rep2.rejections[3]
    with pytest.raises(NoGoodPrimeError):
        choose_good_prime(RationalSelfMap.from_texts(1, ["x1^3"]), (3, 3))


def test_choose_good_prime_fallback_when_range_is_small():
    rep = choose_good_prime(quad(), (3, 4), e=1)
    assert rep.p == 3 and rep.fallback


def test_hensel_lift_conventions():
    ctx = PadicContext(3)
    rec = find_periodic_point(reduce_map(quad(), ctx), 1)
    lift_ctx = context_for_record(3, rec)
    naive = hensel_lift(rec, lift_ctx, convention="naive")
    assert naive[0] == lift_ctx.from_int(2)
    teich = hensel_lift(rec, lift_ctx)                 # default teichmuller
    assert teich[0] == lift_ctx.from_int(-1)           # ...222 in 3-adics
    assert lift_ctx.residue(teich[0]) == lift_ctx.residue(naive[0])
    with pytest.raises(ResidueMismatchError):
        hensel_lift(rec, PadicContext(5))


def test_worked_example_series():
    pipe = build_pipeline("quad_p3", lift="naive")
    nbhd = pipe.nbhd
    ctx = pipe.ctx
    H = {idx: c for idx, c in nbhd.H[0].coeffs.items()}
    assert H[(0,)] == ctx.from_int(3)
    assert H[(1,)] == ctx.from_int(4)
    assert H[(2,)] == ctx.from_int(1)
    F = {idx: c for idx, c in nbhd.F[0].coeffs.items()}
    assert F[(0,)] == ctx.from_int(1, F[(0,)].prec)
    assert F[(1,)] == ctx.from_int(4)
    assert F[(2,)] == ctx.from_int(3)
    assert F[(2,)].valuation() == 1        # divisible by r^(2-1)
    assert nbhd.affine_order == 3          # z -> z + 1 on F_3


def test_affine_order_examples():
    pipe = build_pipeline("square_p5")
    assert pipe.nbhd.affine_order == 4     # z -> 2z on F_5, order of 2
    ident = RationalSelfMap.from_texts(1, ["x1"])
    ctx = PadicContext(5)
    rec = find_periodic_point(reduce_map(ident, ctx), 1)
    lctx = context_for_record(5, rec)
    nb = build_neighborhood(ident, rec.period, hensel_lift(rec, lctx), lctx)
    assert nb.affine_order == 1
    assert reduced_affine_order(pipe.nbhd) == 4
    # F^4 is the identity mod r: sampled points move by a multiple of r
    phi = pipe.nbhd.iterated_local_map(4)
    rng = random.Random(0)
    for _ in range(10):
        z = [pipe.ctx.random_element(rng)]
        assert all((a - b).valuation() >= 1 for a, b in zip(phi(z), z))


def test_affine_order_brute_force_oracle():
    # independent oracle: build the permutation of F_q^n and take the lcm of
    # its cycle lengths
    from tests.conftest import brute_force_affine_order
    for name in ("quad_p3", "quad_p5", "square_p5", "cube_p5", "cube_p7",
                 "twodim_p5"):
        pipe = build_pipeline(name)
        assert pipe.ctx.residue_field.order ** pipe.nbhd.n <= 625
        assert brute_force_affine_order(pipe.nbhd) == \
            pipe.nbhd.affine_order, name


def test_affine_order_identity_through_series_route():
    # apply F via truncated-series evaluation (not exact iteration):
    # F^l_ord(z) = z mod r must still hold, and one series step agrees with
    # the exact map modulo r^cap (the truncation tail bound)
    rng = random.Random(8)
    for name in ("quad_p3", "square_p5", "twodim_p5"):
        pipe = build_pipeline(name)
        nbhd = pipe.nbhd
        ctx = pipe.ctx
        phi_exact = nbhd.iterated_local_map(1)

        def f_series(tvec):
            return tuple(s.evaluate(tvec) for s in nbhd.F)

        for _ in range(20):
            z = tuple(ctx.random_element(rng) for _ in range(nbhd.n))
            one_series = f_series(z)
            one_exact = phi_exact(z)
            for a, b in zip(one_series, one_exact):
                v = (a - b).valuation()
                assert v is INFINITY or v >= nbhd.cap, (name, v)
            cur = z
            for _ in range(nbhd.affine_order):
                cur = f_series(cur)
            for a, b in zip(cur, z):
                v = (a - b).valuation()
                assert v is INFINITY or v >= 1, (name, v)


# maps whose neighborhood comes from k > 1 applications of f to the series
# y + t, all but the Henon map through non-constant denominators
SERIES_ITERATE_MAPS = [
    (2, ["x2^2 + 1", "x1"], ["1", "x2 + 4"], 7, 1),
    (1, ["x1^2 + 1"], ["x1 + 2"], 5, 1),
    (1, ["x1^2 + 1"], ["x1 + 2"], 5, 2),
    (2, ["x1*x2 + 1", "x1"], ["x2 + 2", "x1 + 1"], 5, 1),
    (2, ["x2", "x2^2 - x1 + 1"], None, 7, 1),
]


@pytest.mark.parametrize("n, nums, dens, p, e", SERIES_ITERATE_MAPS)
def test_local_series_is_f_k_at_the_center(n, nums, dens, p, e):
    # H is f^k(y + t) - y through degree cap, so at t = r u it agrees with
    # the exact iterate to v_r >= cap + 1, the order of the discarded tail
    f = RationalSelfMap.from_texts(n, nums, dens)
    nbhd = run_pipeline(f, prime=p, e=e).nbhd
    ctx = nbhd.ctx
    assert nbhd.period_k > 1
    assert nbhd.affine_parts() == low_degree_residues(nbhd)
    r = ctx.uniformizer()
    rng = random.Random(11)
    for _ in range(10):
        t = tuple(r * ctx.random_element(rng) for _ in range(n))
        image = nbhd.apply_fk(tuple(y + ti for y, ti in zip(nbhd.center, t)))
        for h, z, y in zip(nbhd.H, image, nbhd.center):
            v = (h.evaluate(t) - (z - y)).valuation()
            assert v is INFINITY or v >= nbhd.cap + 1, (nums, v)


def map_file_pipeline(name, directory=PERFBENCH_MAPS):
    cfg = load_map_file(directory / f"{name}.json")
    return run_pipeline(cfg.map, prime=cfg.prime, e=cfg.e,
                        precision=cfg.precision, degree=cfg.degree,
                        m_max=cfg.m_max, lift=cfg.lift)


def low_degree_residues(nbhd):
    """(L, c) read off the series F at the cap, built at working precision:
    the residues of its linear and constant coefficients."""
    ctx, n = nbhd.ctx, nbhd.n
    zero = ctx.residue_field.zero()

    def residue(series, idx):
        c = series.coeffs.get(idx)
        return zero if c is None else ctx.residue(c)

    units = [tuple(int(t == j) for t in range(n)) for j in range(n)]
    L = [[residue(s, idx) for idx in units] for s in nbhd.F]
    c = [residue(s, (0,) * n) for s in nbhd.F]
    return L, c


@pytest.mark.parametrize("name", [*SUITE_SPECS, "henon_p5", "henon_p7",
                                  "ext_a_p7", "ext_b_p7", "ext_c_p7",
                                  "ext_d_p11", "square_ramified_p5"])
def test_series_at_cap_extends_the_jet(name):
    # the reduction t -> L t + c of F mod r is the 1-jet of F mod r; (L, c)
    # come from reduced Jacobians and f^k(y) mod r^2, and the series F
    # built at the cap by applying f to y + t is an independent oracle
    if name in SUITE_SPECS:
        pipe = build_pipeline(name)
    elif name == "square_ramified_p5":
        pipe = map_file_pipeline(name, DEMO_MAPS)
    else:
        pipe = map_file_pipeline(name)
    nbhd = pipe.nbhd
    assert nbhd.cap == 8
    assert nbhd.affine_parts() == low_degree_residues(nbhd), name
    assert reduced_affine_order(nbhd) == nbhd.affine_order


@st.composite
def polynomial_maps(draw):
    """A polynomial map of A^1 or A^2 with small integer numerator
    coefficients over a constant denominator 1, 2 or 3, and a prime p in
    {5, 7, 11}."""
    n = draw(st.integers(1, 2))
    exponents = st.tuples(*[st.integers(0, 3)] * n)
    coefficients = st.integers(-4, 4).filter(bool)
    nums = [MultiPoly(n, draw(st.dictionaries(exponents, coefficients,
                                              min_size=1, max_size=3)))
            for _ in range(n)]
    dens = [MultiPoly.constant(n, draw(st.sampled_from([1, 2, 3])))
            for _ in range(n)]
    return RationalSelfMap(nums, dens), draw(st.sampled_from([5, 7, 11]))


@settings(max_examples=60, deadline=None)
@given(polynomial_maps())
def test_affine_parts_match_F_on_random_polynomial_maps(case):
    f, p = case
    try:
        pipe = run_pipeline(f, prime=p, m_max=2, degree=2)
    except (PadicDynError, ValueError):
        assume(False)
    nbhd = pipe.nbhd
    # the oracle applies f k times to series in n variables
    assume(nbhd.period_k <= 40)
    assert nbhd.affine_parts() == low_degree_residues(nbhd)


def test_the_lift_reuses_the_search_field():
    # one F_q object per run, so f is embedded and bound in it once
    pipe = map_file_pipeline("ext_d_p11")
    assert pipe.ctx.d == 3
    assert pipe.ctx.residue_field is pipe.record.field


def test_pipeline_and_verifier_apply_f_to_no_series(monkeypatch):
    # certify and verify read (L, c) from reduced Jacobians and f^k(y) mod
    # r^2 and apply f in no series ring; the series at the cap is built
    # when H or F is first read, and only then
    caps = []
    apply_f = neighborhood.map_eval_padic

    def counting_eval(f, point, ring=None):
        if isinstance(ring, SeriesRing):
            caps.append(ring.cap)
        return apply_f(f, point, ring)

    monkeypatch.setattr(neighborhood, "map_eval_padic", counting_eval)
    pipe = build_pipeline("quad_p3", lift="naive")
    cert = find_witness(pipe.nbhd, pipe.bound, 50, kmax=4)
    assert verify_certificate(cert)
    henon = map_file_pipeline("henon_p7")
    ext = map_file_pipeline("ext_c_p7")
    assert caps == []
    assert henon.nbhd.F[0].cap == 8 and henon.nbhd.H[1].cap == 8
    assert caps == [8] * henon.nbhd.period_k
    del caps[:]
    assert ext.nbhd.H[0].cap == 8 and ext.nbhd.F[0].cap == 8
    assert caps == [8] * ext.nbhd.period_k


def test_a_wrong_period_is_rejected():
    # x + 1 at p = 5 has every residue on one 5-cycle: f^2(y) - y = 2 is a
    # unit, so k = 2 does not fix the center mod r
    f = RationalSelfMap.from_texts(1, ["x1 + 1"])
    ctx = PadicContext(5)
    center = (ctx.from_int(0),)
    assert build_neighborhood(f, 5, center, ctx).affine_order == 5
    with pytest.raises(OrbitNotClearError, match="does not fix the center"):
        build_neighborhood(f, 2, center, ctx)


@pytest.mark.parametrize("nums, dens, start, k", [
    # 1 -> 2 -> 0 -> 1 mod 5, and f' = 2 x vanishes at 0
    (["x1^2 + 1"], None, 1, 3),
    # 3 -> 7 = 2 mod 5, where the denominator x1 - 2 vanishes
    (["x1 + 4"], ["x1 - 2"], 3, 2),
])
def test_a_center_whose_orbit_meets_the_locus_is_rejected(nums, dens,
                                                           start, k):
    f = RationalSelfMap.from_texts(1, nums, dens)
    ctx = PadicContext(5)
    with pytest.raises(OrbitNotClearError, match="locus"):
        build_neighborhood(f, k, (ctx.from_int(start),), ctx)


def test_a_series_degree_below_one_is_rejected():
    f = quad()
    rec = find_periodic_point(reduce_map(f, PadicContext(3)), 1)
    ctx = context_for_record(3, rec)
    with pytest.raises(ValueError, match="below 1"):
        build_neighborhood(f, rec.period, hensel_lift(rec, ctx), ctx, cap=0)


def test_divisibility_invariant_through_cap():
    for name in ("quad_p3", "quad_p5", "square_p5", "twodim_p5"):
        pipe = build_pipeline(name)
        for series in pipe.nbhd.F:
            for idx, coeff in series.coeffs.items():
                deg = sum(idx)
                v = coeff.valuation()
                need = max(deg - 1, 0)
                assert v is INFINITY or v >= need
        for series in pipe.nbhd.H:
            const = series.constant_term().valuation()
            assert const is INFINITY or const >= 1


def test_membership_and_local_coordinates():
    pipe = build_pipeline("quad_p3", lift="naive")
    nbhd = pipe.nbhd
    ctx = pipe.ctx
    y = nbhd.center
    assert nbhd.membership(y)
    assert nbhd.membership([5])
    assert not nbhd.membership([3])
    assert nbhd.membership([Fraction(1, 2)])       # 1/2 = 2 mod 3
    assert not nbhd.membership([Fraction(1, 3)])   # not 3-integral
    rng = random.Random(1)
    for _ in range(50):
        u = [ctx.random_element(rng)]
        z = nbhd.from_local(u)
        assert nbhd.membership(z)
        back = nbhd.to_local(z)
        assert all(a == b for a, b in zip(u, back))
    with pytest.raises(ValueError):
        nbhd.to_local([ctx.from_int(3)])           # v_r(3-2) = 0


def test_invariance_and_injectivity():
    rng = random.Random(2)
    for name in ("quad_p3", "square_p5", "twodim_p5"):
        pipe = build_pipeline(name)
        nbhd = pipe.nbhd
        members = [nbhd.random_member(rng) for _ in range(12)]
        images = [nbhd.apply_fk(z) for z in members]
        for img in images:
            assert nbhd.membership(img)
        keys = set()
        for z in members:
            keys.add(tuple(c.layers for c in z))
        img_keys = set()
        for img in images:
            img_keys.add(tuple(c.layers for c in img))
        assert len(img_keys) == len(keys)


def test_rational_density_for_prime_residue_fields():
    rng = random.Random(3)
    for name in ("quad_p3", "cube_p5"):
        pipe = build_pipeline(name)
        nbhd = pipe.nbhd
        p = pipe.ctx.p
        for _ in range(20):
            z = nbhd.random_member(rng)
            for j in rng.sample(range(1, pipe.ctx.precision), 4):
                approx = [Fraction(c.layers[0][0] % p ** j) for c in z]
                assert nbhd.membership(approx)
                for w, c in zip(approx, z):
                    diff = pipe.ctx.from_rational(w) - c
                    v = diff.valuation()
                    assert v is INFINITY or v >= j


def test_ramified_neighborhood():
    pipe = build_pipeline("square_p5", e=2)
    nbhd = pipe.nbhd
    ctx = pipe.ctx
    assert ctx.e == 2
    assert nbhd.affine_order == 4
    # F = rho*t^2 + 2t: the quadratic coefficient is the uniformizer
    assert nbhd.F[0].coeffs[(2,)].valuation() == 1
    rng = random.Random(4)
    for _ in range(10):
        z = nbhd.random_member(rng)
        assert nbhd.membership(nbhd.apply_fk(z))


def test_unramified_center_neighborhood():
    pipe = build_pipeline("quad_p5")
    assert pipe.ctx.d == 2
    assert pipe.nbhd.affine_order == 12
    rng = random.Random(5)
    phi = pipe.nbhd.iterated_local_map(pipe.nbhd.affine_order)
    for _ in range(5):
        z = [pipe.ctx.random_element(rng)]
        img = phi(z)
        assert (img[0] - z[0]).valuation() >= 1
