"""Reduction mod p, locus checks and the periodic-point search."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdyn.certify import run_pipeline
from padicdyn.dynamics import (CLEAR, INDETERMINATE, RAMIFIED, ReducedMap,
                               _walk_orbit, find_periodic_point, locus_check,
                               point_at_index, reduce_map, search_order,
                               search_view, verify_record)
from padicdyn.errors import (BadReductionError, IndeterminacyError,
                             InseparableError, NoPeriodicPointError,
                             PadicDynError, UnsupportedExtensionError)
from padicdyn.finitefields import (FFElement, FiniteField,
                                   prime_power_field)
from padicdyn.mapfile import load_map_file
from padicdyn.padics import PadicContext
from padicdyn.polynomials import (MultiPoly, RationalSelfMap, embed_map,
                                  evaluate_terms)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# the benchmark's reference search records for maps whose search climbs to
# F_49 or F_1331
EXTFIELD_REFERENCE = json.loads(
    (PERFBENCH / "reference.json").read_text())["extfield"]


def quad():
    return RationalSelfMap.from_texts(1, ["x1^2 + 1"])


def test_reduce_map_examples():
    ctx = PadicContext(3)
    fbar = reduce_map(quad(), ctx)
    assert fbar.field.order == 3
    with pytest.raises(BadReductionError):
        reduce_map(RationalSelfMap.from_texts(1, ["1/3*x1"]), ctx)
    with pytest.raises(InseparableError):
        reduce_map(RationalSelfMap.from_texts(1, ["x1^3"]), ctx)


def test_locus_check_examples():
    ctx = PadicContext(3)
    fbar = reduce_map(quad(), ctx)
    F3 = fbar.field
    assert locus_check(fbar, (F3.from_int(0),)) == RAMIFIED
    assert locus_check(fbar, (F3.from_int(2),)) == CLEAR
    finv = reduce_map(RationalSelfMap.from_texts(1, ["1"], ["x1"]), ctx)
    assert locus_check(finv, (F3.from_int(0),)) == INDETERMINATE
    assert locus_check(finv, (F3.from_int(2),)) == CLEAR


def interpreted_locus_check(fbar, point):
    """The locus test one polynomial at a time through evaluate_terms, as
    it was written before the test was compiled: kept here as the
    oracle."""
    fld = fbar.field
    for _, den, _ in fbar.components:
        if den is not None and evaluate_terms(fld, den, point).is_zero():
            return INDETERMINATE
    if evaluate_terms(fld, fbar.jacobian_det, point).is_zero():
        return RAMIFIED
    return CLEAR


@st.composite
def locus_cases(draw):
    """A small integer rational self-map of A^1 or A^2, each denominator 1,
    a constant or a polynomial; a prime and a field F_p or F_{p^2}; and
    indexes of points of that field."""
    n = draw(st.integers(1, 2))
    p = draw(st.sampled_from([3, 5, 7]))
    m = draw(st.integers(1, 2))
    exponents = st.tuples(*[st.integers(0, 3)] * n)

    def poly():
        return MultiPoly(n, draw(st.dictionaries(
            exponents, st.integers(-4, 4).filter(bool), min_size=1,
            max_size=4)))

    nums = [poly() for _ in range(n)]
    dens = [draw(st.sampled_from([lambda: MultiPoly.constant(n, 1),
                                  lambda: MultiPoly.constant(n, 2),
                                  poly]))()
            for _ in range(n)]
    indexes = draw(st.lists(st.integers(0, p ** (m * n) - 1), min_size=1,
                            max_size=12))
    return RationalSelfMap(nums, dens), p, m, indexes


@settings(max_examples=150, deadline=None)
@given(locus_cases())
def test_compiled_locus_check_equals_the_interpreted_one(case):
    f, p, m, indexes = case
    try:
        fbar = reduce_map(f, PadicContext(p, precision=1))
    except PadicDynError:
        return                         # bad, indeterminate or inseparable
    fm = fbar.extend(fbar.field.extension(m))
    for index in indexes:
        point = point_at_index(fm.field, fm.n, index)
        assert locus_check(fm, point) == interpreted_locus_check(fm, point)


def test_find_periodic_point_quadratic_f3():
    fbar = reduce_map(quad(), PadicContext(3))
    rec = find_periodic_point(fbar, 1)
    assert fbar.field.index_of(rec.point[0]) == 2
    assert rec.period == 1
    assert rec.visited == {1: 3}           # the search examined all of F_3
    assert verify_record(fbar, rec)
    # determinism
    rec2 = find_periodic_point(fbar, 1)
    assert rec2.point == rec.point and rec2.period == rec.period


def test_find_periodic_point_translation_full_cycle():
    fbar = reduce_map(RationalSelfMap.from_texts(1, ["x1 + 1"]),
                      PadicContext(3))
    rec = find_periodic_point(fbar, 1)
    assert fbar.field.index_of(rec.point[0]) == 0
    assert rec.period == 3
    assert [fbar.field.index_of(p[0]) for p in rec.orbit] == [0, 1, 2]


def test_find_periodic_point_square_f5():
    fbar = reduce_map(RationalSelfMap.from_texts(1, ["x1^2"]),
                      PadicContext(5))
    rec = find_periodic_point(fbar, 1)
    # 0 is fixed but ramified; 1 is the first clear fixed point
    assert fbar.field.index_of(rec.point[0]) == 1
    assert rec.period == 1


def test_search_rejects_tails():
    # over F_5, x^2+1 has the cycle 0 -> 1 -> 2 -> 0 through the ramified 0,
    # so nothing at m = 1 qualifies and the search must go to F_25
    fbar = reduce_map(quad(), PadicContext(5))
    with pytest.raises(NoPeriodicPointError):
        find_periodic_point(fbar, 1)
    rec = find_periodic_point(fbar, 2)
    assert rec.m == 2
    assert rec.field.order == 25
    assert rec.field_modulus_indexes() == [2, 0]    # x^2 + 2
    assert rec.field.index_of(rec.point[0]) == 8    # 3 + gamma, fixed
    assert rec.period == 1
    assert rec.visited[1] == 5
    assert verify_record(fbar, rec)


def test_two_dimensional_search():
    fbar = reduce_map(
        RationalSelfMap.from_texts(2, ["x1^2 + x2", "x2^2 + x1"]),
        PadicContext(5))
    rec = find_periodic_point(fbar, 1)
    assert [fbar.field.index_of(c) for c in rec.point] == [0, 0]
    assert rec.period == 1
    assert verify_record(fbar, rec)


def test_constraints_filter():
    fbar = reduce_map(quad(), PadicContext(3))
    rec = find_periodic_point(
        fbar, 1, constraints=lambda pt: not pt[0].is_zero())
    assert fbar.field.index_of(rec.point[0]) == 2


def test_orbits_terminate_within_space_size():
    # every orbit over a finite field is eventually periodic; the walk in
    # the search must terminate within q^(m n) steps for all start points
    fbar = reduce_map(RationalSelfMap.from_texts(1, ["x1^2 + 2"]),
                      PadicContext(7))
    for start in fbar.field.elements():
        status, orbit = _walk_orbit(fbar, (start,), 7)
        assert status in ("periodic", "tail", RAMIFIED, INDETERMINATE)


def test_walk_stops_at_the_cap():
    # the 3-cycle of x + 1 over F_3 is not closed within 2 steps
    fbar = reduce_map(RationalSelfMap.from_texts(1, ["x1 + 1"]),
                      PadicContext(3))
    start = (fbar.field.zero(),)
    status, orbit = _walk_orbit(fbar, start, 2)
    assert status == "unfinished" and len(orbit) == 3
    assert _walk_orbit(fbar, start, 3)[0] == "periodic"


def count_view_calls(monkeypatch, applied, checked, by_field=True):
    """Record each call the walk makes on the view: the map in applied and
    the locus in checked, each point in FFElements, paired with the order
    of its field when by_field."""
    view_maps = ReducedMap.view_maps.func

    def counting_view_maps(fm):
        view, apply, locus = view_maps(fm)

        def note(calls, point):
            point = tuple(map(view.element, point))
            calls.append((fm.field.order, point) if by_field else point)

        def counting_apply(point):
            note(applied, point)
            return apply(point)

        def counting_locus(point):
            note(checked, point)
            return locus(point)

        return view, counting_apply, counting_locus

    monkeypatch.setattr(ReducedMap, "view_maps", property(counting_view_maps))


def test_walk_checks_each_orbit_point_once(monkeypatch):
    # the walk over the 3-cycle of x + 1 over F_3 closes on its start point,
    # which passed the locus check when it was first visited
    fbar = reduce_map(RationalSelfMap.from_texts(1, ["x1 + 1"]),
                      PadicContext(3))
    checked = []
    count_view_calls(monkeypatch, [], checked, by_field=False)
    status, orbit = _walk_orbit(fbar, (fbar.field.zero(),), 3)
    assert status == "periodic" and len(orbit) == 3
    assert checked == list(orbit)


def ffelement_walk(fbar, start, cap):
    """The walk of _walk_orbit on FFElements, with locus_check and
    ReducedMap.apply: the oracle for the walk on the view. Returns (status,
    orbit) where status is 'periodic' when start comes back within cap
    steps, 'tail' when the walk enters a cycle that misses start,
    'unfinished' when neither happens within cap steps, or a locus label
    that interrupted the walk."""
    pos = {}
    path = []
    cur = start
    while len(path) <= cap:
        key = tuple([x.rep for x in cur])
        if key in pos:
            if pos[key] == 0:
                return "periodic", tuple(path)
            return "tail", tuple(path)
        status = locus_check(fbar, cur)
        if status != CLEAR:
            return status, tuple(path)
        pos[key] = len(path)
        path.append(cur)
        cur = fbar.apply(cur)
    return "unfinished", tuple(path)


@pytest.mark.parametrize("text, p, m", [("x1^2 + 2", 7, 1),
                                        ("x1^2 + 1", 5, 2),
                                        ("x1^3 + x1 + 1", 3, 3)])
def test_walk_orbit_matches_the_ffelement_walk(text, p, m):
    # statuses (tails and locus labels included), orbits and caps of the
    # walk on the view, from every start, on ints and on logs
    fbar = reduce_map(RationalSelfMap.from_texts(1, [text]),
                      PadicContext(p, precision=1))
    fm = fbar.extend(fbar.field.extension(m))
    for start in fm.field.elements():
        for cap in (1, 3, fm.field.order):
            assert (_walk_orbit(fm, (start,), cap)
                    == ffelement_walk(fm, (start,), cap))


def walk_every_start(fbar, m_max, constraints):
    """Oracle: the search as one full walk per start, with ffelement_walk,
    which shares no code with the search's walk on the view."""
    visited = {}
    for m in range(1, m_max + 1):
        fld = fbar.field.extension(m)
        fm = fbar if m == 1 else fbar.extend(fld)
        space = fld.order ** fm.n
        visited[m] = 0
        for index in range(space):
            point = point_at_index(fld, fm.n, index)
            if constraints is not None and not constraints(point):
                continue
            visited[m] += 1
            status, orbit = ffelement_walk(fm, point, space)
            if status == "periodic":
                return point, len(orbit), orbit, index, visited
    return None


@st.composite
def search_cases(draw):
    """A small integer rational self-map of A^1 or A^2 reduced mod p, an
    m_max whose last field has at most 625 points, up to 3 at p = 2 and at
    p = 3 with n = 1 so that the walk climbs through tabled fields of
    degree 3, and sometimes a constraint that skips starts by the index of
    their first coordinate."""
    n = draw(st.integers(1, 2))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    if p == 2 or (p == 3 and n == 1):
        top = 3
    else:
        top = 2 if p ** (2 * n) <= 625 else 1
    m_max = draw(st.integers(1, top))
    exponents = st.tuples(*[st.integers(0, 2)] * n)

    def poly():
        return MultiPoly(n, draw(st.dictionaries(
            exponents, st.integers(-4, 4).filter(bool), min_size=1,
            max_size=3)))

    nums = [poly() for _ in range(n)]
    dens = [draw(st.sampled_from([lambda: MultiPoly.constant(n, 1), poly]))()
            for _ in range(n)]
    skip = draw(st.integers(0, p))
    constraints = None
    if skip:
        def constraints(point):
            return point[0].field.index_of(point[0]) % p != skip - 1
    return RationalSelfMap(nums, dens), p, m_max, constraints


@settings(max_examples=100, deadline=None)
@given(search_cases())
def test_search_matches_a_walk_from_every_start(case):
    f, p, m_max, constraints = case
    try:
        fbar = reduce_map(f, PadicContext(p, precision=1))
    except PadicDynError:
        return                         # bad, indeterminate or inseparable
    expected = walk_every_start(fbar, m_max, constraints)
    try:
        rec = find_periodic_point(fbar, m_max, constraints)
    except NoPeriodicPointError:
        assert expected is None
        return
    assert expected is not None
    point, period, orbit, index, visited = expected
    assert (rec.point, rec.period, rec.orbit, rec.enumeration_index,
            rec.visited) == (point, period, orbit, index, visited)
    assert verify_record(fbar, rec)


def test_the_search_climbs_past_the_table_cap():
    # every F_67 start is skipped, so the search climbs to F_{67^2}, whose
    # 4,489 elements have no log tables: the view keeps FFElements there
    fbar = reduce_map(RationalSelfMap.from_texts(1, ["x1 + 1"]),
                      PadicContext(67, precision=1))
    seen = set()

    def constraints(point):
        seen.update(type(x) for x in point)
        return point[0].field.degree > 1

    expected = walk_every_start(fbar, 2, constraints)
    rec = find_periodic_point(fbar, 2, constraints)
    assert seen == {FFElement}
    assert rec.field.order == 4489
    view = search_view(rec.field)
    assert not view.logs and not hasattr(view, "_log")
    point, period, orbit, index, visited = expected
    assert (rec.point, rec.period, rec.orbit, rec.enumeration_index,
            rec.visited) == (point, period, orbit, index, visited)
    assert verify_record(fbar, rec)


@pytest.mark.parametrize("p, m, n", [(2, 2, 2), (3, 2, 2), (11, 3, 1),
                                     (2, 2, 3), (5, 1, 2)])
def test_the_search_enumerates_points_in_index_order(p, m, n):
    # F_4^2, F_9^2, F_1331, F_4^3, where two coordinates above the first
    # must run in index order too, and F_5^2 on ints
    fld = prime_power_field(p, m)
    view = search_view(fld)
    points = list(search_order(view, n))
    assert len(points) == fld.order ** n
    for index, point in enumerate(points):
        expected = point_at_index(fld, n, index)
        assert ([view.element(x).rep for x in point]
                == [x.rep for x in expected]), index


VIEW_MAPS = [
    RationalSelfMap.from_texts(2, ["x1*x2", "x1 + x2"]),
    RationalSelfMap.from_texts(2, ["-x1", "x1 - x2"]),
    RationalSelfMap.from_texts(2, ["1", "x2^3 + 2*x1*x2 + 2"],
                               ["x1", "1"]),
]


def view_agrees(fld, pairs):
    """Products, sums, negation, differences (sums through the Zech table
    on logs), powers and inverses of the pairs run on fld's view agree
    with FFElement arithmetic, which is the coefficient-tuple kernel's: the
    law the view's tables must obey. A vanishing denominator raises in
    both."""
    view = search_view(fld)
    runs = [(embed_map(f, fld).run, view.bind(embed_map(f, fld))[0])
            for f in VIEW_MAPS]
    for a, b in pairs:
        point = (fld.element_from_index(a), fld.element_from_index(b))
        for run, view_run in runs:
            try:
                expected = run(point)
            except IndeterminacyError:
                with pytest.raises(IndeterminacyError):
                    view_run(tuple(map(view.value, point)))
                continue
            got = view_run(tuple(map(view.value, point)))
            assert tuple(map(view.element, got)) == expected, (a, b)
    return view


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (7, 1), (2, 2), (2, 3),
                                  (3, 2), (5, 2), (7, 2)])
def test_view_arithmetic_on_every_pair(p, m):
    fld = prime_power_field(p, m)
    pairs = [(a, b) for a in range(fld.order) for b in range(fld.order)]
    view = view_agrees(fld, pairs)
    assert view.logs == (m > 1)
    if view.logs:
        # zero is the sentinel, the one value with no log
        assert view.value(fld.zero()) == 2 * (fld.order - 1)
        assert view.element(view.zero) == fld.zero()


@pytest.mark.parametrize("p, m", [(11, 3), (2, 12), (67, 2)])
def test_view_arithmetic_on_random_pairs(p, m):
    # F_1331, F_4096 at the table cap, and F_4489 above it, which builds no
    # table and computes on FFElements
    fld = prime_power_field(p, m)
    rng = random.Random(p * m)
    pairs = [(0, 0), (0, 1), (1, 0)] + [
        (rng.randrange(fld.order), rng.randrange(fld.order))
        for _ in range(300)]
    view = view_agrees(fld, pairs)
    assert view.logs == (fld.order <= 4096)
    assert (not hasattr(view, "_log")) == (fld.order > 4096)


def search_inputs(name):
    if name == "quad_p5":
        return quad(), 5, 2                  # nothing clear over F_5
    cfg = load_map_file(PERFBENCH / "maps" / f"{name}.json")
    return cfg.map, cfg.prime, cfg.m_max


@pytest.mark.parametrize("name", ["quad_p5", *sorted(EXTFIELD_REFERENCE)])
def test_search_applies_the_map_once_per_point(monkeypatch, name):
    f, p, m_max = search_inputs(name)
    applied = []
    checked = []
    count_view_calls(monkeypatch, applied, checked)
    rec = find_periodic_point(reduce_map(f, PadicContext(p)), m_max)
    assert rec.m > 1
    # every point of every field is applied and checked at most once
    assert applied and len(applied) == len(set(applied))
    assert len(checked) == len(set(checked))
    assert set(applied) <= set(checked)


def test_record_tamper_detection():
    fbar = reduce_map(quad(), PadicContext(3))
    rec = find_periodic_point(fbar, 1)
    bad = rec.replace(period=2, orbit=rec.orbit + rec.orbit)
    assert not verify_record(fbar, bad)
    assert not verify_record(fbar, rec.replace(period=2))
    wrong_pt = (fbar.field.from_int(1),)
    bad2 = rec.replace(point=wrong_pt, orbit=(wrong_pt,))
    assert not verify_record(fbar, bad2)
    # a period shorter than the true one stops the walk at the stated period
    fcyc = reduce_map(RationalSelfMap.from_texts(1, ["x1 + 1"]),
                      PadicContext(3))
    cyc = find_periodic_point(fcyc, 1)
    assert verify_record(fcyc, cyc)
    assert not verify_record(fcyc, cyc.replace(period=2,
                                               orbit=cyc.orbit[:2]))


@pytest.mark.parametrize("name", sorted(EXTFIELD_REFERENCE))
def test_extfield_search_records_match_reference(name):
    cfg = load_map_file(PERFBENCH / "maps" / f"{name}.json")
    pipe = run_pipeline(cfg.map, prime=cfg.prime, e=cfg.e,
                        precision=cfg.precision, degree=cfg.degree,
                        m_max=cfg.m_max, lift=cfg.lift)
    rec = pipe.record
    got = {"m": rec.m, "period": rec.period,
           "enumeration_index": rec.enumeration_index,
           "visited": {str(k): v for k, v in rec.visited.items()},
           "bound": pipe.bound.bound}
    assert got == EXTFIELD_REFERENCE[name]
    fbar = reduce_map(cfg.map, PadicContext(pipe.ctx.p, precision=1))
    assert verify_record(fbar, rec)


def test_extension_of_an_extension_is_unsupported():
    F25 = FiniteField(5).extension(2)
    assert F25.extension(1) is F25
    with pytest.raises(UnsupportedExtensionError):
        F25.extension(2)
