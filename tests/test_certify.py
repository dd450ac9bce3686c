"""Period bounds, classification, witness certificates and verification."""

import copy
import time
from fractions import Fraction

import pytest

from padicdyn import finitefields
from padicdyn.certify import (NON_PREPERIODIC, OUTSIDE, PERIODIC, Certificate,
                              _digest, _replay_record, classify,
                              classify_mod, find_witness, period_bound,
                              run_pipeline, verify_certificate,
                              witness_candidates)
from padicdyn.dynamics import SearchView, reduce_map, search_view
from padicdyn.errors import SearchBudgetError, UnsupportedExtensionError
from padicdyn.finitefields import prime_power_field
from padicdyn.mahler import INFINITY, mahler_coefficients
from padicdyn.padics import PadicContext
from padicdyn.polynomials import RationalSelfMap
from tests.conftest import build_map, build_pipeline, height_growth_oracle


def test_period_bound_examples(quad_p3_naive):
    b = quad_p3_naive.bound
    assert (b.period_k, b.affine_order, b.analyticity_exponent, b.bound) == \
        (1, 3, 1, 9)
    sq = build_pipeline("square_p5")
    assert sq.bound.bound == 4
    ident = run_pipeline(RationalSelfMap.from_texts(1, ["x1"]))
    assert ident.ctx.p == 5 and ident.bound.bound == 1


def test_classify_cube_examples():
    pipe = build_pipeline("cube_p5")
    res1 = classify(pipe.nbhd, pipe.bound, [1])
    assert res1.kind == PERIODIC and res1.period == 1
    res6 = classify(pipe.nbhd, pipe.bound, [6])
    assert res6.kind == NON_PREPERIODIC
    assert res6.iterate[0] == Fraction(6) ** 3 ** pipe.bound.bound
    assert classify(pipe.nbhd, pipe.bound, [2]).kind == OUTSIDE
    assert classify(pipe.nbhd, pipe.bound, [Fraction(1, 5)]).kind == OUTSIDE


@pytest.mark.parametrize("name", ["quad_p3", "square_p5", "cube_p5",
                                  "cube_p7", "twodim_p5"])
def test_classify_mod_agrees_with_the_exact_classify(name):
    # a verdict mod p^64 on the first witness candidates of every suite
    # map: non_preperiodic with the exact differing coordinate and
    # valuation, undecided where the exact iterate returns, and the same
    # outside points
    pipe = build_pipeline(name)
    undecided = f"periodic or undecided mod p^{pipe.ctx.precision}"
    candidates = witness_candidates(pipe.nbhd)
    omegas = [next(candidates) for _ in range(6)] + [[Fraction(1, 5)] * 2]
    for omega in omegas:
        omega = omega[:pipe.map.n]
        want = classify(pipe.nbhd, pipe.bound, omega)
        got = classify_mod(pipe.nbhd, pipe.bound, omega)
        if want.kind == NON_PREPERIODIC:
            assert (got.kind, got.differs_at, got.difference_valuation) == \
                (want.kind, want.differs_at, want.difference_valuation)
        else:
            assert got.kind == (undecided if want.kind == PERIODIC
                                else OUTSIDE)


def test_classify_quadratic_growth(quad_p3_naive):
    res = classify(quad_p3_naive.nbhd, quad_p3_naive.bound, [2])
    assert res.kind == NON_PREPERIODIC
    assert res.differs_at == 1
    z = Fraction(2)
    for _ in range(9):
        z = z * z + 1
    assert res.iterate[0] == z


def test_witness_scan_order(quad_p3_naive):
    gen = witness_candidates(quad_p3_naive.nbhd)
    first = [next(gen)[0] for _ in range(5)]
    assert first == [2, -1, 5, -4, 8]


def test_find_witness_quadratic(quad_p3_naive):
    cert = find_witness(quad_p3_naive.nbhd, quad_p3_naive.bound, 50, kmax=16)
    assert cert.data["witness"] == ["2"]
    assert cert.data["period_bound"]["bound"] == 9
    assert verify_certificate(cert).ok


def test_find_witness_square():
    pipe = build_pipeline("square_p5")
    cert = find_witness(pipe.nbhd, pipe.bound, 50, kmax=8)
    assert cert.data["period_bound"]["bound"] == 4
    # the first scanned point is the periodic center 1 itself, skipped
    assert cert.data["witness"] == ["-4"]
    assert verify_certificate(cert).ok


def test_find_witness_identity_reports_finite_order():
    pipe = run_pipeline(RationalSelfMap.from_texts(1, ["x1"]))
    with pytest.raises(SearchBudgetError) as info:
        find_witness(pipe.nbhd, pipe.bound, 10)
    assert info.value.finite_order_suspected
    assert set(info.value.periods) == {1}
    assert info.value.scanned == 10


def test_witness_search_requires_prime_residue_field():
    pipe = build_pipeline("quad_p5")     # center lives in F_25
    with pytest.raises(UnsupportedExtensionError):
        find_witness(pipe.nbhd, pipe.bound, 5)
    # rational points cannot reduce onto the F_25-only center
    assert classify(pipe.nbhd, pipe.bound, [3]).kind == OUTSIDE


def test_certificate_roundtrip_and_determinism(tmp_path, quad_p3_naive):
    cert = find_witness(quad_p3_naive.nbhd, quad_p3_naive.bound, 50, kmax=8)
    path = tmp_path / "cert.json"
    cert.save(path)
    loaded = Certificate.load(path)
    assert loaded == cert
    assert loaded.json_text() == cert.json_text()
    pipe2 = build_pipeline("quad_p3", lift="naive")
    cert2 = find_witness(pipe2.nbhd, pipe2.bound, 50, kmax=8)
    assert cert2.json_text() == cert.json_text()


def _leaf_paths(obj, prefix=()):
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _leaf_paths(val, prefix + (key,))
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from _leaf_paths(val, prefix + (i,))
    else:
        yield prefix, obj


def _mutate(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "0" if not value.endswith("0") else value + "1"
    if value is None:
        return [0, 1]
    raise AssertionError(f"unexpected leaf {value!r}")


def test_every_single_field_tampering_is_rejected(quad_p3_naive):
    cert = find_witness(quad_p3_naive.nbhd, quad_p3_naive.bound, 50, kmax=4)
    leaves = list(_leaf_paths(cert.data))
    assert len(leaves) > 20
    for path, value in leaves:
        tampered = copy.deepcopy(cert.data)
        node = tampered
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = _mutate(value)
        report = verify_certificate(Certificate(tampered))
        assert not report.ok, f"tampering {path} was not rejected"


def test_semantic_tampering_with_recomputed_digest(quad_p3_naive):
    cert = find_witness(quad_p3_naive.nbhd, quad_p3_naive.bound, 50, kmax=4)

    bad = copy.deepcopy(cert.data)
    bad["period_bound"]["bound"] -= 1
    bad["digest"] = _digest(bad)
    report = verify_certificate(Certificate(bad))
    assert [name for name, _ in report.failures()] == ["period_bound"]

    # witness replaced by the periodic center of x^3 at p = 5
    pipe = build_pipeline("cube_p5")
    cert3 = find_witness(pipe.nbhd, pipe.bound, 50, kmax=4)
    bad2 = copy.deepcopy(cert3.data)
    bad2["witness"] = ["1"]              # the fixed point
    bad2["digest"] = _digest(bad2)
    failures = dict(verify_certificate(Certificate(bad2)).failures())
    assert list(failures) == ["witness"]
    assert failures["witness"] == "witness is periodic with period 1"


def test_a_bound_that_does_not_reproduce_is_never_iterated(quad_p3_naive):
    # exact iteration of x^2+1 doubles the digits per step: replaying a
    # forged N of 24, or the 27 of a forged analyticity exponent, would take
    # seconds to forever
    cert = find_witness(quad_p3_naive.nbhd, quad_p3_naive.bound, 50, kmax=4)
    pb = cert.data["period_bound"]
    assert (pb["k"], pb["affine_order"], pb["analyticity_exponent"],
            pb["bound"]) == (1, 3, 1, 9)
    for forged in ({"bound": 24}, {"analyticity_exponent": 2, "bound": 27}):
        bad = copy.deepcopy(cert.data)
        bad["period_bound"].update(forged)
        bad["digest"] = _digest(bad)
        failures = verify_certificate(Certificate(bad)).failures()
        assert [name for name, _ in failures] == ["period_bound"], forged


# other spellings of a coordinate list that reduce to the same residues
RESPELLINGS = {"plus_p": lambda cs, p: [cs[0] + p] + cs[1:],
               "minus_p": lambda cs, p: [cs[0] - p] + cs[1:],
               "trailing": lambda cs, p: cs + [5]}


@pytest.mark.parametrize("spelling", sorted(RESPELLINGS))
def test_non_canonical_reduction_coordinates_are_rejected(
        quad_p3_naive, suite_pipelines, spelling):
    respell = RESPELLINGS[spelling]
    cert = find_witness(quad_p3_naive.nbhd, quad_p3_naive.bound, 50, kmax=4)
    red = cert.data["reduction"]
    assert red["point"] == [[2]] and red["orbit"] == [[[2]]]
    for name, forged in (("point", [respell([2], 3)]),
                         ("orbit", [[respell([2], 3)]])):
        bad = copy.deepcopy(cert.data)
        bad["reduction"][name] = forged
        bad["digest"] = _digest(bad)
        failures = dict(verify_certificate(Certificate(bad)).failures())
        assert list(failures) == ["reduction"], (name, failures)
        assert failures["reduction"] == \
            "reduction differs from its recomputation"

    # the F_25 record of x^2+1 at p=5, whose modulus x^2 + 2 is [2, 0]: the
    # verifier rebuilds it from m, the enumeration index and the period
    # alone, so the modulus it compares is the canonical list
    rec = suite_pipelines["quad_p5"].record
    fbar = reduce_map(build_map("quad_p5"), PadicContext(5, precision=1))
    rebuilt = _replay_record(fbar, rec.m, rec.enumeration_index, rec.period)
    assert rebuilt == rec
    assert rebuilt.field_modulus_indexes() == [2, 0]


# integer fields: a bool or float spelling of one fails the stage of its
# section, whether the field is an input or recomputed
INT_FIELDS = (
    ("reduction", "period"), ("reduction", "enumeration_index"),
    ("neighborhood", "k"), ("neighborhood", "affine_order"),
    ("neighborhood", "divisibility_degree"), ("period_bound", "k"),
    ("period_bound", "affine_order"), ("period_bound", "analyticity_exponent"),
    ("period_bound", "bound"), ("mahler_profile", "k_max"), ("map", "n"),
    ("context", "p"), ("context", "d"), ("context", "e"),
    ("context", "precision"), ("payload", "differs_at"),
    ("payload", "difference_valuation"),
    ("mahler_profile", "valuations", 0, 0))


def test_non_int_json_numbers_are_rejected(quad_p3_naive):
    cert = find_witness(quad_p3_naive.nbhd, quad_p3_naive.bound, 50, kmax=4)
    assert verify_certificate(cert).ok
    for path in INT_FIELDS:
        stage = path[0]
        node = cert.data
        for key in path:
            node = node[key]
        assert type(node) is int, path
        # true is what Python reads as 1; the float has the same value
        for spelling in (True, float(node)):
            bad = copy.deepcopy(cert.data)
            parent = bad
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = spelling
            bad["digest"] = _digest(bad)
            failures = dict(verify_certificate(Certificate(bad)).failures())
            assert list(failures) == [stage], (path, spelling, failures)


# other texts of the same map, another uniformizer or spelling of the
# Eisenstein polynomial, and keys the format does not have; each verified as
# valid once the digest was recomputed, when the verifier checked fields one
# by one
RESPELLED_SECTIONS = (
    (("map", "numerators"), ["1 + x1^2"], "map"),
    (("map", "numerators"), ["x1^2+1"], "map"),
    (("map", "numerators"), ["x1*x1 + 1"], "map"),
    (("map", "denominators"), ["2/2"], "map"),
    (("context", "eis_poly"), [[6], [1]], "context"),
    (("context", "eis_poly"), [[-3], 1], "context"),
    (("context", "eis_poly"), [-3, 1], "context"),
    (("note",), "extra", "format"),
    (("neighborhood", "note"), "extra", "neighborhood"),
    (("payload", "note"), "extra", "payload"),
)


def test_respelled_sections_are_rejected(quad_p3_naive):
    cert = find_witness(quad_p3_naive.nbhd, quad_p3_naive.bound, 50, kmax=4)
    assert cert.data["map"]["numerators"] == ["x1^2 + 1"]
    assert cert.data["context"]["eis_poly"] == [[-3], [1]]
    for path, forged, stage in RESPELLED_SECTIONS:
        bad = copy.deepcopy(cert.data)
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = forged
        bad["digest"] = _digest(bad)
        failures = verify_certificate(Certificate(bad)).failures()
        assert [name for name, _ in failures] == [stage], (path, forged)


def _leaves(obj, path=()):
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _leaves(val, path + (key,))
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from _leaves(val, path + (i,))
    else:
        yield path, obj


def _spoofs(value):
    """A bool, the same number as a float, its text and +-1 for an int;
    other spellings for a string; a bool or text for null."""
    yield from (True, False)
    if type(value) is int:
        yield from (float(value), str(value), value + 1, value - 1)
    elif isinstance(value, str):
        yield from ("+" + value, " " + value, value + "/1")
    else:
        yield "null"


# leaves whose +-1 is still a true claim: the producer writes exactly that
# certificate when run with that setting (run_pipeline keyword)
STILL_TRUE = {("neighborhood", "divisibility_degree"): "degree",
              ("context", "precision"): "precision"}


@pytest.mark.parametrize("name", ["quad_p3", "twodim_p5"])
def test_every_leaf_spoof_with_recomputed_digest_is_rejected(name):
    kw = {"lift": "naive"} if name == "quad_p3" else {}
    pipe = build_pipeline(name, **kw)
    cert = find_witness(pipe.nbhd, pipe.bound, 50, kmax=4)
    leaves = [(path, value) for path, value in _leaves(cert.data)
              if path != ("digest",)]
    assert len(leaves) > 30
    for path, value in leaves:
        for spoof in _spoofs(value):
            bad = copy.deepcopy(cert.data)
            node = bad
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = spoof
            bad["digest"] = _digest(bad)
            report = verify_certificate(Certificate(bad))
            names = [stage for stage, _ in report.failures()]
            if path in STILL_TRUE and type(spoof) is int:
                other = build_pipeline(name, **kw, **{STILL_TRUE[path]: spoof})
                again = find_witness(other.nbhd, other.bound, 50, kmax=4)
                assert report.ok and again.data == bad, (path, spoof)
                continue
            assert names and "digest" not in names, (path, spoof, names)
            assert "replay" not in names, (path, spoof, report.failures())
            # the spoofed section fails, and sections derived from it may
            assert {"version": "format"}.get(path[0], path[0]) in names, \
                (path, spoof, names)


@pytest.mark.parametrize("section, key, value, stage", [
    ("context", "precision", 1, "context"),           # in the neighborhood
    ("context", "precision", 2, "mahler_profile"),    # in the profile's orbit
    ("mahler_profile", "k_max", 200, "mahler_profile"),
])
def test_precision_shortfall_is_named_by_its_stage(quad_p3_naive, section,
                                                   key, value, stage):
    cert = find_witness(quad_p3_naive.nbhd, quad_p3_naive.bound, 50, kmax=4)
    bad = copy.deepcopy(cert.data)
    bad[section][key] = value
    bad["digest"] = _digest(bad)
    failures = verify_certificate(Certificate(bad)).failures()
    assert [name for name, _ in failures] == [stage], failures
    assert "precision" in failures[0][1]


@pytest.mark.parametrize("precision, stage, detail", [
    (1, "context", "context.precision 1 cannot carry the neighborhood: the"
                   " neighborhood's translation (f^k(y) - y)/r exhausts"
                   " precision 1"),
    (2, "mahler_profile", "context.precision 2 cannot carry the profile to"
                          " mahler_profile.k_max 4: the orbit keeps 0 of"
                          " the 2 digits of working precision")])
def test_a_precision_shortfall_names_the_certificate_field_not_an_option(
        quad_p3_naive, precision, stage, detail):
    # verify reads a certificate, not options: its detail names the field
    # and gives none of certify's --precision/--kmax advice
    cert = find_witness(quad_p3_naive.nbhd, quad_p3_naive.bound, 50, kmax=4)
    bad = copy.deepcopy(cert.data)
    bad["context"]["precision"] = precision
    bad["digest"] = _digest(bad)
    failures = verify_certificate(Certificate(bad)).failures()
    assert [name for name, _ in failures] == [stage], failures
    assert failures[0][1].startswith(detail), failures
    assert "--" not in failures[0][1] and "raise" not in failures[0][1]


def test_a_large_reduction_degree_is_rejected_without_field_tables(
        quad_p3_naive, monkeypatch):
    # F_{3^24} is far above the discrete-log table cap: replaying a
    # certificate that names it multiplies and adds through the kernel, and
    # its degree, untrusted input, compiles no product
    compiled = []
    source = finitefields.product_source

    def recording_source(m):
        compiled.append(m)
        return source(m)

    monkeypatch.setattr(finitefields, "product_source", recording_source)
    # every product compiled from here on passes through the recorder
    finitefields._compiled_product.cache_clear()
    # and every search view made from here on, where tables are made
    views = []
    init = SearchView.__init__

    def recording_init(view, fld):
        init(view, fld)
        views.append(view)

    monkeypatch.setattr(SearchView, "__init__", recording_init)
    search_view.cache_clear()
    cert = find_witness(quad_p3_naive.nbhd, quad_p3_naive.bound, 50, kmax=4)
    bad = copy.deepcopy(cert.data)
    bad["reduction"]["m"] = 24
    bad["digest"] = _digest(bad)
    start = time.perf_counter()
    failures = [name for name, _ in
                verify_certificate(Certificate(bad)).failures()]
    assert time.perf_counter() - start < 1.0
    assert failures[:2] == ["context", "reduction"], failures
    # the replay walks F_{3^24} on FFElements: its view makes no tables
    fld = prime_power_field(3, 24)
    assert fld in [view.field for view in views]
    assert not any(view.logs or hasattr(view, "_log") for view in views)
    assert all(m <= finitefields._COMPILED_MAX_DEGREE for m in compiled)
    assert fld._mul.__code__.co_filename != "<padicdyn product>"


def test_mahler_consistency_with_classification():
    # nonzero interpolation coefficients for psi = Phi^(p^l_an) exactly when
    # the witness is non-preperiodic
    pipe = build_pipeline("cube_p5")
    ctx = pipe.ctx
    mult = pipe.bound.affine_order * ctx.p ** pipe.bound.analyticity_exponent
    psi = pipe.nbhd.iterated_local_map(mult)
    for omega, expected in ((Fraction(1), PERIODIC),
                            (Fraction(6), NON_PREPERIODIC),
                            (Fraction(-4), NON_PREPERIODIC)):
        res = classify(pipe.nbhd, pipe.bound, [omega])
        assert res.kind == expected
        t0 = pipe.nbhd.to_local((ctx.from_rational(omega),))
        interp = mahler_coefficients(psi, t0, 8)
        constant = all(v is INFINITY for row in interp.valuations
                       for v in row)
        assert constant == (expected == PERIODIC)


def test_growth_oracle_agreement():
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
            elif verdict == "escaping":
                assert res.kind == NON_PREPERIODIC, (name, omega)


def test_quadratic_scan_has_no_rational_preperiodic_points(quad_p3_naive):
    # for x^2+1 over Q every scanned member escapes: |f(x)| > |x| once
    # |x| >= 2, and the scan values are integers congruent to 2 mod 3
    scanned = 0
    for omega in witness_candidates(quad_p3_naive.nbhd):
        if scanned >= 20:
            break
        scanned += 1
        res = classify(quad_p3_naive.nbhd, quad_p3_naive.bound, omega)
        assert res.kind == NON_PREPERIODIC
        w = omega[0]
        assert abs(w * w + 1) > abs(w)


def test_two_cycle_center_end_to_end():
    # force the 2-cycle {2, 4} of x^2 over F_7 (the fixed point 1 is excluded
    # by a search constraint); the Teichmuller lift y = T(2) is a cube root
    # of unity, so f^2 fixes it exactly and the composed local series is
    # genuinely nonlinear: H = 4t + 6y^2 t^2 + 4y t^3 + t^4
    from padicdyn.dynamics import find_periodic_point, reduce_map
    from padicdyn.neighborhood import (build_neighborhood, context_for_record,
                                       hensel_lift)
    from padicdyn.padics import PadicContext

    f = RationalSelfMap.from_texts(1, ["x1^2"])
    ctx7 = PadicContext(7)
    fbar = reduce_map(f, ctx7)
    rec = find_periodic_point(
        fbar, 1, constraints=lambda pt: fbar.field.index_of(pt[0]) > 1)
    assert rec.period == 2
    assert [fbar.field.index_of(c[0]) for c in rec.orbit] == [2, 4]

    ctx = context_for_record(7, rec)
    y = hensel_lift(rec, ctx)
    assert y[0] ** 3 == ctx.one()            # T(2)^3 = T(1) = 1
    nbhd = build_neighborhood(f, rec.period, y, ctx, record=rec,
                              lift_convention="teichmuller")
    F = nbhd.F[0].coeffs
    assert F[(1,)] == ctx.from_int(4)        # 4 y^3 = 4 exactly
    assert F[(2,)].valuation() == 1          # 6 y^2 * 7, tight divisibility
    assert F[(3,)].valuation() == 2          # 4 y * 7^2
    assert F[(4,)].valuation() == 3          # 7^3
    assert nbhd.affine_order == 3            # order of 4 mod 7
    bound = period_bound(nbhd)
    assert bound.bound == 6                  # 2 * 3 * 7^0

    # Mahler valuation law on the k=2 data
    phi = nbhd.iterated_local_map(nbhd.affine_order)
    interp = mahler_coefficients(phi, (ctx.one(),), 16)
    for k in range(1, 17):
        v = interp.valuation(1, k)
        assert v is INFINITY or v >= (k + 2) // 2

    # and a certificate from the 2-cycle neighborhood replays cleanly
    cert = find_witness(nbhd, bound, 30, kmax=8)
    assert Fraction(cert.data["witness"][0]) % 7 in (2, 4)
    omega = Fraction(cert.data["witness"][0])
    assert Fraction(cert.data["payload"]["iterate"][0]) == omega ** (2 ** 6)
    assert verify_certificate(cert).ok


def test_translation_full_cycle_pipeline():
    # x + 1 at p=3: the reduced orbit is all of F_3 (k = 3), every member is
    # non-preperiodic and the bound is N = 3 * 3 * 3 = 27
    f = RationalSelfMap.from_texts(1, ["x1 + 1"])
    pipe = run_pipeline(f, prime=3)
    assert pipe.bound.period_k == 3
    assert pipe.bound.affine_order == 3
    assert pipe.bound.bound == 27
    cert = find_witness(pipe.nbhd, pipe.bound, 10, kmax=8)
    omega = Fraction(cert.data["witness"][0])
    assert Fraction(cert.data["payload"]["iterate"][0]) == omega + 27
    assert verify_certificate(cert).ok


def test_verify_rejects_garbage():
    with pytest.raises(Exception):
        Certificate.from_json_text("not json")
    report = verify_certificate(Certificate({"format": "nonsense"}))
    assert not report.ok
