"""Reduction of a rational self-map modulo p and exhaustive periodic-point
search over F_{q^m}.

The search looks for *purely* periodic points whose whole orbit avoids the
indeterminacy locus (a vanishing denominator) and the ramification locus
(vanishing Jacobian determinant). Enumeration is index-driven and the first
hit in canonical order wins, so results are deterministic and replayable;
``point_at_index`` numbers the order. Within one field each point is walked
once: the search records whether a walked point lies on a clear cycle, and
a later walk stops at the first point already recorded. The search and its
re-check (``verify_record`` and the verifier's replay) walk points of the
field's ``SearchView``, made on first use: tuples of ints mod p on F_p
(``map_source``'s ints spelling), of discrete logs on a field with log
tables (one set per field, up to ``finitefields._TABLE_MAX_ORDER``), of
FFElements on a larger field. A point turns back into FFElements only
for a record or for ``constraints``.

A reduced map (``reduce_map``, ``ReducedMap.extend`` for F_{p^m}; one per
map and field object) keeps the ``polynomials.embed_map`` components over
its field, with nonzero residues only, as an EmbeddedMap that ``apply``
runs, and its Jacobian determinant as (exponents, residue) terms. Its
locus is a second EmbeddedMap, of the non-constant denominators and then
the determinant as bare numerators, so that one call evaluates them all
at a point (``locus_check``); ``view_maps`` binds both to the view. A
third, ``jacobian``, made on first use, holds the n^2 entries of the
Jacobian matrix that the neighborhood multiplies along a residue orbit.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import islice, product

from .errors import IndeterminacyError, InseparableError, NoPeriodicPointError
from .padics import integers_mod
from .polynomials import (EmbeddedMap, _compiled, bind_map, embed_map,
                          embed_terms, map_shape)
from .records import Record

CLEAR = "clear"
INDETERMINATE = "indeterminate"
RAMIFIED = "ramified"


class ReducedMap:
    """A rational self-map over a finite field with its Jacobian data.

    ``components`` are the embed_map components of f over the field (an
    EmbeddedMap of the field), and ``jacobian_det`` is a tuple of (exponents,
    coefficient) terms, with a coefficient of None for 1. Only nonzero
    residues are kept, so an empty tuple is exactly the zero polynomial. A
    constant denominator is a unit, inverted once, or zero, which rejects
    the reduction. ``locus`` is the EmbeddedMap that locus_check runs: the
    non-constant denominators, then the determinant, as bare numerators.

    ``jacobian_det`` reduces the determinant over Q of J[i][j] =
    d(num_i)/dx_j * den_i - num_i * d(den_i)/dx_j, which
    RationalSelfMap.jacobian_numerator_det() caches; reduction mod p
    commutes with formal differentiation. It vanishes at a point exactly
    where the true Jacobian determinant does (denominators being units
    there).
    """

    def __init__(self, fld, f):
        self.field = fld
        self.map = f
        self.n = f.n
        self.components = EmbeddedMap(fld, [
            (_nonzero(num), den if den is None else _nonzero(den), scale)
            for num, den, scale in embed_map(f, fld)])
        if any(den == () for _, den, _ in self.components):
            raise IndeterminacyError("denominator reduces to zero")
        self.jacobian_det = _nonzero(
            embed_terms(f.jacobian_numerator_det(), fld))
        if not self.jacobian_det:
            raise InseparableError(
                "Jacobian determinant is identically zero"
                " (inseparable reduction)")
        self.locus = EmbeddedMap(fld, [
            (den, None, None) for _, den, _ in self.components
            if den is not None] + [(self.jacobian_det, None, None)])

    @cached_property
    def jacobian(self):
        """The Jacobian matrix of the map as an EmbeddedMap of its n^2
        entries, row by row: entry (i, j) is
        RationalSelfMap.jacobian_numerators()[i][j] / den_i^2, reduced term
        by term. A constant denominator stays a scale, squared."""
        f, fld = self.map, self.field
        comps = []
        for row, den, (_, den_terms, scale) in zip(
                f.jacobian_numerators(), f.denominators, self.components):
            if den_terms is None:
                den_sq = None
                scale_sq = None if scale is None else scale * scale
            else:
                den_sq = _nonzero(embed_terms(den * den, fld))
                scale_sq = None
            comps += [(_nonzero(embed_terms(entry, fld)), den_sq, scale_sq)
                      for entry in row]
        return EmbeddedMap(fld, comps)

    def extend(self, new_field):
        """The same map over an extension of F_p."""
        return _reduced(self.map, new_field)

    def apply(self, point):
        return self.components.run(point)

    @cached_property
    def view_maps(self):
        """(view, apply, locus): the map and its locus on the SearchView."""
        view = search_view(self.field)
        return view, view.bind(self.components), view.bind(self.locus)

    def __repr__(self):
        return f"ReducedMap(n={self.n}, q={self.field.order})"


def _nonzero(terms):
    return tuple((idx, c) for idx, c in terms if c is None or not c.is_zero())


def reduce_map(f, ctx):
    """Reduce a RationalSelfMap modulo the context's maximal ideal;
    BadReductionError for the first coefficient that is not p-integral."""
    return _reduced(f, ctx.residue_field)


def _reduced(f, fld):
    """One ReducedMap per map and field object, kept on f, so that the
    search, its re-check and the neighborhood share its embedding, its
    Jacobian and its compiled map."""
    hit = f._reduced.get(fld)
    if hit is None or hit.field is not fld:
        hit = f._reduced[fld] = ReducedMap(fld, f)
    return hit


def locus_check(fbar, point):
    """clear / indeterminate / ramified status of a point.

    Indeterminacy (a vanishing denominator) is checked first since the
    Jacobian data is meaningless there. A constant denominator is a unit
    and is not in fbar.locus; a vanishing one is only a value here.
    """
    *dens, det = fbar.locus.run(point)
    zero = fbar.field.zero()
    return (INDETERMINATE if zero in dens else RAMIFIED if det == zero
            else CLEAR)


class PeriodicPointRecord(Record):
    """A purely periodic point with a fully clear orbit, plus search
    provenance for replay: m is the extension degree over the search base
    field, point and orbit (the period-many members) hold FFElements, and
    visited (points visited per degree) takes no part in equality."""

    __slots__ = ("m", "field", "point", "period", "orbit",
                 "enumeration_index", "visited")
    _compared = __slots__[:-1]

    def __init__(self, *args, visited=None, **kwargs):
        super().__init__(*args, visited={} if visited is None else visited,
                         **kwargs)

    def point_coords(self):
        """F_p coordinates per coordinate of the point."""
        return [elt.coords() for elt in self.point]

    def field_modulus_indexes(self):
        return self.field.modulus_indexes()


class SearchView:
    """A field as the search walks it: on F_p, ints in ``IntegersMod(p, p)``;
    on a field with log tables, an element's log k in [0, q - 2] and Z =
    2(q - 1) for zero, a product M[a + b] (M[s] is s mod q - 1 below Z and
    Z from there, so zero absorbs) and a sum b if a is Z, a if b is Z, else
    M[a + ZL[b - a]] (ZL the Zech table, Z where 1 + g^k = 0); on a larger
    field, FFElements. ``value`` takes an FFElement in, ``element`` out."""

    def __init__(self, fld):
        self.field = fld
        self.logs = fld._logs() is not None
        if self.logs:
            z = self.zero = 2 * (fld.order - 1)
            self.M = list(range(fld.order - 1)) * 2 + [z] * (z + 1)
            self.ZL = [z if k is None else k for k in fld._zech]
            self._elements = fld._exp + [fld._zero]
        else:
            self.ring = fld if fld.degree > 1 else integers_mod(fld.p, 1, 1, 1)
            self.zero = self.ring.zero()

    def value(self, x):
        if self.logs:
            return self.field._log.get(x.rep, self.zero)
        return x.rep[0] if self.field.degree == 1 else x

    def element(self, v):
        if self.logs:
            return self._elements[v]
        return self.field.from_int(v) if self.field.degree == 1 else v

    def elements(self):
        return map(self.value, self.field.elements())

    def inverse(self, a):
        if a == self.zero:
            raise IndeterminacyError("denominator vanishes at the point")
        return self.M[self.field.order - 1 - a]

    def bind(self, embedded):
        """An EmbeddedMap of the field as a function of view points:
        ``bind_map``'s run on the view's ring, or in the logs spelling."""
        if not self.logs:
            return bind_map(embedded.components, self.ring, self.value)[0]
        shape, constants = map_shape(embedded.components)
        c = [self.value(x) for x in constants]
        return _compiled(shape, "logs")(c, self.M, self.ZL, self.inverse, 0,
                                        self.zero)[0]


search_view = lru_cache(maxsize=64)(SearchView)


def _walk(fm, cur, known, cap):
    """Walk view points from cur, applying fm once per new point, until
    the orbit closes ('periodic' on cur, else 'tail'), meets known ('tail')
    or the locus (its label), or holds cap + 1 points ('unfinished'); put
    each point walked in known, a member of a clear cycle as (cycle, its
    position), any other as None. Return (status, path)."""
    view, apply, locus = fm.view_maps
    zero = view.zero
    pos = {}
    path = []
    status = "unfinished"
    while len(path) <= cap:
        # a revisited point already passed the locus test as clear
        if cur in pos or cur in known:
            status = "periodic" if pos.get(cur) == 0 else "tail"
            break
        values = locus(cur)
        if zero in values:
            status = INDETERMINATE if zero in values[:-1] else RAMIFIED
            known[cur] = None
            break
        pos[cur] = len(path)
        path.append(cur)
        cur = apply(cur)
    # the cycle is the part of the path from the point the walk closed on
    head = pos.get(cur, len(path))
    cycle = tuple(path[head:])
    for point, i in pos.items():
        known[point] = (cycle, i - head) if i >= head else None
    return status, path


def _walk_orbit(fbar, start, cap):
    """_walk's (status, path) from FFElements, in FFElements."""
    view = fbar.view_maps[0]
    status, path = _walk(fbar, tuple(map(view.value, start)), {}, cap)
    return status, tuple(tuple(map(view.element, x)) for x in path)


def point_at_index(fld, n, index):
    """The point of F_q^n with the given index in the search order: its
    coordinates are the base-q digits of the index, least significant
    first."""
    digits = []
    for _ in range(n):
        index, r = divmod(index, fld.order)
        digits.append(fld.element_from_index(r))
    return tuple(digits)


def search_order(view, n):
    """The view's points of F_q^n in index order, the first coordinate
    fastest. The q elements are made once, as far as the first run of the
    first coordinate is read; the points are made one at a time."""
    elements = []
    zeros = (view.zero,) * (n - 1)
    for x in view.elements():
        elements.append(x)
        yield (x,) + zeros
    for high in islice(product(elements, repeat=n - 1), 1, None):
        high = high[::-1]
        for x in elements:
            yield (x,) + high


def find_periodic_point(fbar, m_max=6, constraints=None):
    """Exhaustively search F_{q^m}^n, m = 1..m_max, in canonical index order.

    Returns the first purely periodic point whose entire orbit is clear of
    the indeterminacy and ramification loci. Deterministic given the
    enumeration order; ``visited`` counts examined starting points per m.
    Each point is walked once per m, in the field's SearchView: a start
    already known from an earlier walk is decided by what that walk found.
    """
    visited = {}
    for m in range(1, m_max + 1):
        fld = fbar.field.extension(m)
        fm = fbar if m == 1 else fbar.extend(fld)
        view = fm.view_maps[0]
        visited[m] = 0
        known = {}
        for index, point in enumerate(search_order(view, fm.n)):
            if constraints is not None and not constraints(
                    tuple(map(view.element, point))):
                continue
            visited[m] += 1
            if point not in known:
                _walk(fm, point, known, fld.order ** fm.n)
            if known[point] is None:
                continue
            cycle, i = known[point]
            orbit = tuple(tuple(map(view.element, x))
                          for x in cycle[i:] + cycle[:i])
            return PeriodicPointRecord(
                m=m, field=fld, point=orbit[0], period=len(cycle),
                orbit=orbit, enumeration_index=index, visited=dict(visited))
    raise NoPeriodicPointError(
        f"no clear periodic point found up to extension degree {m_max};"
        " raise m_max or change the prime")


def verify_record(fbar, record):
    """Re-check a PeriodicPointRecord against a reduced map: pure
    periodicity, the stated period and orbit, and a fully clear orbit, by
    the search's walk on the field's SearchView. The walk stops after
    record.period steps."""
    fld = record.field
    fm = fbar if fld == fbar.field else fbar.extend(fld)
    status, orbit = _walk_orbit(fm, record.point, record.period)
    return (status == "periodic" and len(orbit) == record.period
            and orbit == record.orbit)
