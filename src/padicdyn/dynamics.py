"""Reduction of a rational self-map modulo p and exhaustive periodic-point
search over F_{q^m}.

The search looks for *purely* periodic points whose whole orbit avoids the
indeterminacy locus (a vanishing denominator) and the ramification locus
(vanishing Jacobian determinant). Enumeration is index-driven and the first
hit in canonical order wins, so results are deterministic and replayable.
Within one field each point is walked once: the search records whether a
walked point lies on a clear cycle, and a later walk stops at the first
point already recorded. The records are keyed by each point's tuple of
coefficient tuples, hashed once per point in C, and the starts come in
index order from one list of the field's q elements (``search_order``),
without making the q^n points up front; ``point_at_index`` numbers the
same order for a replay.

A reduced map keeps the components ``polynomials.embed_map`` gives over
its field, residues reduced once by ``FiniteField.from_rational``, and its
Jacobian determinant as a tuple of (exponents, residue) terms; there is one
per map and field object (``reduce_map``, ``ReducedMap.extend`` for
F_{p^m}). The components form an EmbeddedMap of the field, and ``apply``
calls its ``run``: the map compiled for those components and bound to the
field on first use. The locus test is compiled the same way: a second
EmbeddedMap of the field whose components are the non-constant
denominators and then the determinant, each a numerator with no
denominator and no scale, so ``locus_check`` evaluates them all at a point
by one call and reads which vanish. A third, ``ReducedMap.jacobian``, is
made on first use: the n^2 entries of the Jacobian matrix, which the
neighborhood multiplies along a residue orbit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice, product

from .errors import IndeterminacyError, InseparableError, NoPeriodicPointError
from .finitefields import FiniteField
from .polynomials import EmbeddedMap, embed_map, embed_terms

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
    for value in dens:
        if value.is_zero():
            return INDETERMINATE
    if det.is_zero():
        return RAMIFIED
    return CLEAR


@dataclass(frozen=True)
class PeriodicPointRecord:
    """A purely periodic point with a fully clear orbit, plus search
    provenance for replay."""

    m: int                      # extension degree over the search base field
    field: FiniteField
    point: tuple                # FFElements
    period: int
    orbit: tuple                # the period-many orbit members
    enumeration_index: int
    visited: dict = field(default_factory=dict, compare=False)

    def point_coords(self):
        """F_p coordinates per coordinate of the point."""
        return [elt.coords() for elt in self.point]

    def field_modulus_indexes(self):
        return self.field.modulus_indexes()


def _key(point):
    """The point's tuple of coefficient tuples: equal exactly when the
    points of one field are, and hashed in C."""
    return tuple([x.rep for x in point])


def _walk_orbit(fbar, start, cap):
    """Return (status, orbit) where status is 'periodic' when start comes
    back within cap steps, 'tail' when the walk enters a cycle that misses
    start, 'unfinished' when neither happens within cap steps, or a locus
    label that interrupted the walk."""
    pos = {}
    path = []
    cur = start
    while len(path) <= cap:
        # a revisited point already passed locus_check as clear
        key = _key(cur)
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


def point_at_index(fld, n, index):
    """The point of F_q^n with the given index in the search order: its
    coordinates are the base-q digits of the index, least significant
    first."""
    digits = []
    for _ in range(n):
        index, r = divmod(index, fld.order)
        digits.append(fld.element_from_index(r))
    return tuple(digits)


def search_order(fld, n):
    """The points of F_q^n in index order, as point_at_index numbers them:
    the first coordinate runs fastest. The q elements are made once, as
    far as the first run of the first coordinate is read, and then reused;
    the points are made one at a time."""
    elements = []
    zeros = (fld.zero(),) * (n - 1)
    for x in fld.elements():
        elements.append(x)
        yield (x,) + zeros
    for high in islice(product(elements, repeat=n - 1), 1, None):
        high = high[::-1]
        for x in elements:
            yield (x,) + high


def _mark_walk(fbar, start, key, known):
    """Walk from a start whose key is not in known until the orbit closes,
    meets the locus or reaches a known point, applying fbar once per new
    point. Record each point walked in known, by its key: a member of a
    clear cycle maps to (cycle, its position), any other point to None."""
    pos = {}
    path = []
    cur = start
    while key not in known and key not in pos:
        if locus_check(fbar, cur) != CLEAR:
            known[key] = None
            break
        pos[key] = len(path)
        path.append(cur)
        cur = fbar.apply(cur)
        key = _key(cur)
    # the cycle is the part of the path from the point the walk closed on
    head = pos.get(key, len(path))
    cycle = tuple(path[head:])
    for k, i in pos.items():
        known[k] = (cycle, i - head) if i >= head else None


def find_periodic_point(fbar, m_max=6, constraints=None):
    """Exhaustively search F_{q^m}^n, m = 1..m_max, in canonical index order.

    Returns the first purely periodic point whose entire orbit is clear of
    the indeterminacy and ramification loci. Deterministic given the
    enumeration order; ``visited`` counts examined starting points per m.
    Each point is walked once per m: a start already known from an earlier
    walk is decided by what that walk found.
    """
    visited = {}
    for m in range(1, m_max + 1):
        fld = fbar.field.extension(m)
        fm = fbar if m == 1 else fbar.extend(fld)
        visited[m] = 0
        known = {}
        for index, point in enumerate(search_order(fld, fm.n)):
            if constraints is not None and not constraints(point):
                continue
            visited[m] += 1
            key = _key(point)
            if key not in known:
                _mark_walk(fm, point, key, known)
            if known[key] is None:
                continue
            cycle, i = known[key]
            return PeriodicPointRecord(
                m=m, field=fld, point=point, period=len(cycle),
                orbit=cycle[i:] + cycle[:i], enumeration_index=index,
                visited=dict(visited))
    raise NoPeriodicPointError(
        f"no clear periodic point found up to extension degree {m_max};"
        " raise m_max or change the prime")


def verify_record(fbar, record):
    """Re-check a PeriodicPointRecord against a reduced map: pure
    periodicity, the stated period and orbit, and a fully clear orbit. The
    walk stops after record.period steps."""
    fld = record.field
    fm = fbar if fld == fbar.field else fbar.extend(fld)
    status, orbit = _walk_orbit(fm, record.point, record.period)
    return (status == "periodic" and len(orbit) == record.period
            and orbit == record.orbit)
