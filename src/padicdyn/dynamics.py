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
(``map_source``'s ints spelling), of discrete logs on a field of degree
>= 2 and order up to ``finitefields._TABLE_MAX_ORDER``, whose log and Zech
tables the view makes, of FFElements on a larger field. A point turns back
into FFElements only for a record or for ``constraints``.

A reduced map (``reduce_map``, ``ReducedMap.extend`` for F_{p^m}; one per
map and field object) keeps the ``polynomials.embed_map`` components over
its field, with nonzero residues only, as an EmbeddedMap, and its Jacobian
determinant as (exponents, residue) terms. Its locus is a second
EmbeddedMap, of the non-constant denominators and then the determinant as
bare numerators, so that one call evaluates them all at a point;
``view_maps`` binds both to the view. Made on first use, ``tangent`` is
the map (x, M) -> (f(x), J(x) M), whose k-th iterate from (y, I) carries
the Jacobian L of f^k at y. ``affine_order`` runs on view values too.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import chain, islice, product

from .errors import (IndeterminacyError, InseparableError,
                     NoPeriodicPointError, OrderCapError)
from .finitefields import _TABLE_MAX_ORDER, _prime_factors
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
    def tangent(self):
        """The tangent map T(x, M) = (f(x), J(x) M) as an EmbeddedMap of
        n + n^2 coordinates, M row by row after x: f's components with the
        exponents padded, then for entry (i, j) the sum over t of J_it
        M_tj, J_it = RationalSelfMap.jacobian_numerators()[i][t] / den_i^2
        reduced term by term (a constant denominator stays a scale,
        squared)."""
        f, fld, n = self.map, self.field, self.n

        def padded(terms, var=None):
            # x's exponents, then M's: M_var to the first power
            return tuple((idx + tuple(int(v == var) for v in range(n * n)),
                          c) for idx, c in terms)

        comps = [(padded(num), den and padded(den), scale)
                 for num, den, scale in self.components]
        for row, den, (_, den_terms, scale) in zip(
                f.jacobian_numerators(), f.denominators, self.components):
            if den_terms is not None:
                den_terms = padded(_nonzero(embed_terms(den * den, fld)))
            elif scale is not None:
                scale = scale * scale
            entries = [_nonzero(embed_terms(entry, fld)) for entry in row]
            comps += [(sum((padded(entries[t], t * n + j) for t in range(n)),
                           ()), den_terms, scale) for j in range(n)]
        return EmbeddedMap(fld, comps)

    def extend(self, new_field):
        """The same map over an extension of F_p."""
        return _reduced(self.map, new_field)

    def apply(self, point):
        """f at a point of FFElements: off the search's path, kept for
        perfbench/spans.py, which counts its calls."""
        return self.components.run(point)

    @cached_property
    def view_maps(self):
        """(view, apply, locus): the map and its locus on the SearchView."""
        view = search_view(self.field)
        return view, view.bind(self.components)[0], view.bind(self.locus)[0]

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
    """clear / indeterminate / ramified status of a point of FFElements:
    off the search's path, kept for perfbench/spans.py, which counts it.

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
    on a field of degree >= 2 and order q <= _TABLE_MAX_ORDER, an element's
    log k in [0, q - 2] and Z = 2(q - 1) for zero, a product M[a + b] (M[s]
    is s mod q - 1 below Z and Z from there, so zero absorbs) and a sum b if
    a is Z, a if b is Z, else M[a + ZL[b - a]] (ZL the Zech table, Z where
    1 + g^k = 0); on a larger field, FFElements. ``value`` takes an
    FFElement in, ``element`` out.

    The view makes its tables once per field, by FFElement arithmetic (the
    kernel's): the powers of g, the smallest-index element of order q - 1,
    by q - 2 products, then ZL[k] = log(1 + g^k) by q - 1 sums. They only
    cache the kernel's results, so FFElement arithmetic is the law that the
    view's arithmetic obeys."""

    def __init__(self, fld):
        self.field = fld
        q = fld.order
        self.logs = fld.degree > 1 and q <= _TABLE_MAX_ORDER
        if self.logs:
            one, factors = fld.one(), _prime_factors(q - 1)
            g = next(g for g in map(fld.element_from_index, range(1, q))
                     if all(g ** ((q - 1) // ell) != one for ell in factors))
            exp = [one]                 # g^k for k < q - 1
            for _ in range(q - 2):
                exp.append(exp[-1] * g)
            z = self.zero = 2 * (q - 1)
            self._log = {x.rep: k for k, x in enumerate(exp)}
            self.M = list(range(q - 1)) * 2 + [z] * (z + 1)
            # doubled, as exp is below, so that ZL[b - a] needs no reduction
            zech = [self._log.get((one + x).rep, z) for x in exp]
            self.ZL = zech + zech
            self._elements = exp + exp + [fld.zero()]
        else:
            self.ring = fld if fld.degree > 1 else integers_mod(fld.p, 1, 1, 1)
            self.zero = self.ring.zero()
        self.one = self.value(fld.one())
        self._compositions = {}

    def value(self, x):
        if self.logs:
            return self._log.get(x.rep, self.zero)
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

    def identity(self, n):
        """The n x n identity matrix, row by row."""
        return tuple(self.one if i == j else self.zero for i in range(n)
                     for j in range(n))

    def bind(self, components):
        """embed_map components over the field (an EmbeddedMap or a list)
        as functions of view points: ``bind_map``'s (run, iterate) on the
        view's ring, or in the logs spelling."""
        if not self.logs:
            return bind_map(components, self.ring, self.value)
        shape, c = map_shape(components, self.value)
        return _compiled(shape, "logs")(c, self.M, self.ZL, self.inverse, 0,
                                        self.zero)

    def composition(self, n):
        """The product (A, a)(B, b) = (AB, Ab + a) of affine maps of F^n,
        matrices row by row, as the run of a map of the point (A, a, B, b)
        whose coefficients are all 1, bound on first use."""
        if n not in self._compositions:
            a, B, b = n * n, n * n + n, 2 * n * n + n

            def term(*at):      # the product of the coordinates at
                return tuple(int(v in at) for v in range(b + n)), None

            nums = [[term(i * n + t, B + t * n + j) for t in range(n)]
                    for i in range(n) for j in range(n)]
            nums += [[term(i * n + t, b + t) for t in range(n)]
                     + [term(a + i)] for i in range(n)]
            self._compositions[n] = self.bind(
                [(tuple(num), None, None) for num in nums])[0]
        return self._compositions[n]


search_view = lru_cache(maxsize=64)(SearchView)


def affine_order(field, L, c):
    """Order of the affine map g: x -> L x + c of field^n, L invertible.

    Every element of GL(n, q) has order dividing u * lcm(q - 1, ...,
    q^n - 1), u the least power of p with u >= n: its semisimple part has
    eigenvalues in F_{q^i} for i <= n, and its unipotent part 1 + N has
    N^n = 0, so (1 + N)^u = 1. Raised to the order of L, g is a
    translation, of order 1 or p. So the order of g divides M = p u
    lcm(q^i - 1), and it is the least divisor d of M with g^d = 1. The
    divisors are tested in increasing order, each power made from the last
    by the powers g^(2^i), made by repeated squaring: one ``composition``
    call per product of (L, c) as view values.
    """
    n = len(L)
    p, q = field.p, field.order
    u = 1
    while u < n:
        u *= p
    bound = p * u
    for i in range(1, n + 1):
        bound = math.lcm(bound, q ** i - 1)
    divisors = [1]
    for ell in _prime_factors(bound):
        e, rest = 0, bound
        while rest % ell == 0:
            e, rest = e + 1, rest // ell
        divisors = [d * ell ** j for d in divisors for j in range(e + 1)]
    view = search_view(field)
    compose = view.composition(n)
    ident = view.identity(n) + (view.zero,) * n
    squares = [tuple(map(view.value, chain(*L, c)))]    # g^(2^i)
    k, gk = 0, None             # gk = g^k, None for the identity
    for d in sorted(divisors):
        gap, i = d - k, 0
        while gap:
            if i == len(squares):
                squares.append(compose(squares[-1] + squares[-1]))
            if gap & 1:
                gk = squares[i] if gk is None else compose(gk + squares[i])
            gap, i = gap >> 1, i + 1
        k = d
        if gk == ident:
            return d
    raise OrderCapError("the affine map raised to the group exponent is not"
                        " the identity")


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
