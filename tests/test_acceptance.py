"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v tests/test_acceptance.py -s`` to see the per-criterion
lines. All tolerances are pinned here: the coefficient valuation law and the
interpolation identity are zero-tolerance; congruence checks state their
exact r-adic valuation thresholds.
"""

import copy
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from padicdyn import RationalSelfMap, run_pipeline
from padicdyn.certify import (NON_PREPERIODIC, OUTSIDE, PERIODIC, Certificate,
                              _digest, classify, find_witness,
                              verify_certificate, witness_candidates)
from padicdyn.dynamics import CLEAR, find_periodic_point, locus_check, \
    reduce_map
from padicdyn.errors import SearchBudgetError
from padicdyn.mahler import (INFINITY, analyticity_exponent,
                             analyticity_margins, evaluate,
                             mahler_coefficients)
from padicdyn.padics import PadicContext
from tests.conftest import (SUITE_SPECS, brute_force_affine_order, build_map,
                            build_pipeline, height_growth_oracle)

K_MAX = 32


def report(num, text):
    print(f"\n[criterion {num:2d}] PASS: {text}")


@pytest.fixture(scope="module")
def suite():
    """Pipelines plus K_MAX=32 interpolations centered at the all-ones local
    point, for every suite map."""
    data = {}
    for name in SUITE_SPECS:
        pipe = build_pipeline(name)
        phi = pipe.nbhd.iterated_local_map(pipe.nbhd.affine_order)
        omega = tuple(pipe.ctx.one() for _ in range(pipe.nbhd.n))
        interp = mahler_coefficients(phi, omega, K_MAX)
        data[name] = (pipe, phi, interp)
    return data


def test_criterion_01_end_to_end_worked_example():
    start = time.monotonic()
    f = RationalSelfMap.from_texts(1, ["x1^2 + 1"])
    pipe = run_pipeline(f, prime=3, lift="naive")
    ctx = pipe.ctx

    assert ctx.residue_field.index_of(pipe.record.point[0]) == 2
    assert pipe.record.period == 1
    H = pipe.nbhd.H[0].coeffs
    assert H[(0,)] == ctx.from_int(3)
    assert H[(1,)] == ctx.from_int(4)
    assert H[(2,)] == ctx.from_int(1)
    F = pipe.nbhd.F[0].coeffs
    assert F[(0,)] == ctx.from_int(1, F[(0,)].prec)
    assert F[(1,)] == ctx.from_int(4)
    assert F[(2,)] == ctx.from_int(3)
    assert pipe.bound.affine_order == 3
    assert pipe.bound.analyticity_exponent == 1
    assert pipe.bound.bound == 9

    cert = find_witness(pipe.nbhd, pipe.bound, 50, kmax=16)
    omega = Fraction(cert.data["witness"][0])
    z = omega
    for _ in range(9):
        z = z * z + 1                       # independent bignum oracle
    assert z == Fraction(cert.data["payload"]["iterate"][0])
    assert z != omega

    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"end-to-end run took {elapsed:.2f}s"
    report(1, f"x^2+1 at p=3: point 2, k=1, H=t^2+4t+3, F=3t^2+4t+1,"
              f" l_ord=3, l_an=1, N=9, witness {omega}"
              f" certified in {elapsed:.2f}s")


def test_criterion_02_coefficient_valuation_law():
    start = time.monotonic()
    checked = 0
    for name in SUITE_SPECS:
        pipe = build_pipeline(name)
        phi = pipe.nbhd.iterated_local_map(pipe.nbhd.affine_order)
        centers = [tuple(pipe.ctx.one() for _ in range(pipe.nbhd.n))]
        if name.startswith("quad"):
            centers.append(tuple(pipe.ctx.zero()
                                 for _ in range(pipe.nbhd.n)))
        for omega in centers:
            interp = mahler_coefficients(phi, omega, K_MAX)
            for i in range(interp.n):
                for k in range(1, K_MAX + 1):
                    v = interp.valuation(i + 1, k)
                    bound = (k + 2) // 2
                    assert v is INFINITY or v >= bound, (name, i, k, v)
                    checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"valuation suite took {elapsed:.2f}s"
    report(2, f"v_r(b_ik) >= ceil((k+1)/2) for {checked} coefficients"
              f" across {len(SUITE_SPECS)} maps, K_max={K_MAX},"
              f" in {elapsed:.2f}s (zero tolerance)")


def test_criterion_03_interpolation_exactness(suite):
    points = 0
    for name, (pipe, phi, interp) in suite.items():
        for j in range(K_MAX + 1):
            got = evaluate(interp, j)
            want = interp.orbit_points[j]
            for a, b in zip(got.values, want):
                assert a == b, (name, j)
                points += 1
    report(3, f"evaluate(j) reproduced Phi^j(omega) exactly for"
              f" 0 <= j <= {K_MAX} on all suite maps"
              f" ({points} coordinate checks, precision 64)")


def test_criterion_04_functional_equation(suite):
    rng = random.Random(20260808)
    checks = 0
    for name, (pipe, phi, interp) in suite.items():
        ctx = pipe.ctx
        tail = interp.tail_valuation()
        for _ in range(20):
            zint = rng.randrange(ctx.p ** ctx.precision)
            gz = evaluate(interp, ctx.from_int(zint))
            gz1 = evaluate(interp, ctx.from_int(zint + 1))
            image = phi(gz.values)
            for a, b in zip(gz1.values, image):
                v = (a - b).valuation()
                assert v is INFINITY or v >= tail, (name, zint, v, tail)
                checks += 1
    report(4, f"g(z+1) = Phi(g(z)) within tail valuation"
              f" >= ceil((K_max+2)/2) at 20 random z in Z_p per map"
              f" ({checks} coordinate checks)")


def test_criterion_05_reduced_map_order(suite):
    rng = random.Random(31337)
    for name, (pipe, phi, interp) in suite.items():
        ctx = pipe.ctx
        nbhd = pipe.nbhd
        assert ctx.residue_field.order ** nbhd.n <= 625
        assert brute_force_affine_order(nbhd) == nbhd.affine_order, name
        for _ in range(100):
            z = tuple(ctx.random_element(rng) for _ in range(nbhd.n))
            image = phi(z)
            for a, b in zip(image, z):
                v = (a - b).valuation()
                assert v is INFINITY or v >= 1, (name, v)
    report(5, "F^l_ord(z) = z mod r at 100 random z per map; l_ord matches"
              " the brute-force cycle-structure oracle on all of F_q^n"
              " (q^n <= 625)")


def test_criterion_06_analyticity_consistency(suite):
    for p in (3, 5, 7, 11, 13):
        for e in (1, 2, 3, 4):
            ctx = PadicContext(p, e=e, precision=2)
            l = analyticity_exponent(ctx)
            assert (l == 0) == (p > 2 * (e + 1)), (p, e, l)
            assert (p - 1) * p ** l > 2 * e
            if l > 0:
                assert (p - 1) * p ** (l - 1) <= 2 * e
    for name, (pipe, phi, interp) in suite.items():
        l_an = analyticity_exponent(pipe.ctx)
        rep = analyticity_margins(interp, l_an)
        assert rep.slope_positive and rep.margins_nonnegative
        assert rep.eventually_increasing and rep.certified, name
        if l_an >= 1:
            below = analyticity_margins(interp, l_an - 1)
            assert not below.slope_positive, name
            assert not below.certified, name
    report(6, "analyticity exponent is 0 exactly when p > 2(e+1) on the"
              " {3,5,7,11,13} x {1..4} grid; margins certified at l_an and"
              " slope violated at l_an - 1 for the suite")


def test_criterion_07_neighborhood_properties(suite):
    rng = random.Random(424242)
    for name, (pipe, phi, interp) in suite.items():
        ctx = pipe.ctx
        nbhd = pipe.nbhd
        n = nbhd.n
        # bijection with O^n and coordinate recovery (200 samples)
        for _ in range(200):
            u = tuple(ctx.random_element(rng) for _ in range(n))
            z = nbhd.from_local(u)
            assert nbhd.membership(z)
            back = nbhd.to_local(z)
            assert all(a == b for a, b in zip(u, back))
        # members avoid the indeterminacy and ramification loci (50 samples)
        for _ in range(50):
            z = nbhd.random_member(rng)
            res = tuple(ctx.residue(c) for c in z)
            assert locus_check(nbhd.fbar, res) == CLEAR
        # invariance under f^k plus an injectivity spot-check (50 samples)
        members, keys = [], set()
        while len(members) < 50:
            z = nbhd.random_member(rng)
            key = tuple(c.layers for c in z)
            if key not in keys:
                keys.add(key)
                members.append(z)
        images = [nbhd.apply_fk(z) for z in members]
        for img in images:
            assert nbhd.membership(img)
        assert len({tuple(c.layers for c in img) for img in images}) == 50
        # rational density via digit truncations (residue degree 1 only:
        # a rational point cannot reduce onto a residue outside F_p)
        if ctx.d == 1 and ctx.e == 1:
            for _ in range(50):
                z = nbhd.random_member(rng)
                j = rng.randrange(1, ctx.precision)
                approx = [Fraction(c.layers[0][0] % ctx.p ** j) for c in z]
                assert nbhd.membership(approx)
                for w, c in zip(approx, z):
                    v = (ctx.from_rational(w) - c).valuation()
                    assert v is INFINITY or v >= j
    report(7, "membership bijection (200), locus clearance (50), f^k"
              " invariance + injectivity (50) and rational density by digit"
              " truncation (50, residue degree 1) hold per suite map")


def test_criterion_08_classification_correctness():
    cube = build_pipeline("cube_p5")
    assert classify(cube.nbhd, cube.bound, [1]).kind == PERIODIC
    assert classify(cube.nbhd, cube.bound, [6]).kind == NON_PREPERIODIC
    ident = run_pipeline(RationalSelfMap.from_texts(1, ["x1"]))
    with pytest.raises(SearchBudgetError) as info:
        find_witness(ident.nbhd, ident.bound, 10)
    assert info.value.finite_order_suspected
    agreements = 0
    for name in ("quad_p3", "square_p5", "cube_p5", "cube_p7", "twodim_p5"):
        pipe = build_pipeline(name)
        scanned = 0
        for omega in witness_candidates(pipe.nbhd):
            if scanned >= 20:
                break
            scanned += 1
            res = classify(pipe.nbhd, pipe.bound, omega)
            verdict = height_growth_oracle(pipe.map, omega,
                                           steps=max(12, pipe.bound.bound))
            if verdict == "periodic":
                assert res.kind == PERIODIC, (name, omega)
                agreements += 1
            elif verdict == "escaping":
                assert res.kind == NON_PREPERIODIC, (name, omega)
                agreements += 1
    report(8, f"x^3@5: 1 periodic / 6 non-preperiodic; identity reports"
              f" finite-order suspected; exact-height oracle agreed with"
              f" classify on {agreements} conclusive witnesses")


def test_criterion_09_certificate_soundness(tmp_path):
    certs = []
    for name, lift in (("quad_p3", "naive"), ("square_p5", "teichmuller"),
                       ("cube_p5", "teichmuller"), ("cube_p7", "teichmuller"),
                       ("twodim_p5", "teichmuller")):
        pipe = build_pipeline(name, lift=lift)
        cert = find_witness(pipe.nbhd, pipe.bound, 50, kmax=8)
        certs.append((name, cert))
    for name, cert in certs:
        path = tmp_path / f"{name}.json"
        cert.save(path)
        proc = subprocess.run(
            [sys.executable, "-m", "padicdyn.cli", "verify", "--cert",
             str(path)], capture_output=True, text=True)
        assert proc.returncode == 0, (name, proc.stdout, proc.stderr)

    def leaves(obj, prefix=()):
        if isinstance(obj, dict):
            for key, val in obj.items():
                yield from leaves(val, prefix + (key,))
        elif isinstance(obj, list):
            for i, val in enumerate(obj):
                yield from leaves(val, prefix + (i,))
        else:
            yield prefix, obj

    _, target = certs[0]
    rejected = 0
    for path_keys, value in leaves(target.data):
        tampered = copy.deepcopy(target.data)
        node = tampered
        for key in path_keys[:-1]:
            node = node[key]
        if isinstance(value, bool):
            node[path_keys[-1]] = not value
        elif isinstance(value, int):
            node[path_keys[-1]] = value + 1
        elif isinstance(value, str):
            node[path_keys[-1]] = value + "0"
        else:
            node[path_keys[-1]] = [0, 1]
        assert not verify_certificate(Certificate(tampered)).ok, path_keys
        rejected += 1
    report(9, f"{len(certs)} certificates replayed in separate processes"
              f" (all valid); {rejected} single-field tamperings all"
              f" rejected")


def test_criterion_10_finite_field_search_instrumented():
    fbar = reduce_map(build_map("quad_p3"), PadicContext(3))
    rec1 = find_periodic_point(fbar, 1)
    rec2 = find_periodic_point(fbar, 1)
    assert fbar.field.index_of(rec1.point[0]) == 2
    assert rec1.period == 1
    assert rec1.visited == {1: 3}
    assert rec1.point == rec2.point
    assert rec1.enumeration_index == rec2.enumeration_index
    report(10, "search over F_3 for x^2+1 deterministically returns"
               " (2, k=1) and its instrumented enumeration visited all 3"
               " field points")
