"""Reduction of a rational self-map modulo p and exhaustive periodic-point
search over F_{q^m}.

The search looks for *purely* periodic points whose whole orbit avoids the
indeterminacy locus (a vanishing denominator) and the ramification locus
(vanishing Jacobian determinant). Enumeration is index-driven and the first
hit in canonical order wins, so results are deterministic and replayable.
Within one field each point is walked once: the search records whether a
walked point lies on a clear cycle, and a later walk stops at the first
point already recorded.

A reduced map keeps the components ``polynomials.embed_map`` gives over
its field, residues reduced once by ``FiniteField.from_rational``, and its
Jacobian determinant as a tuple of (exponents, residue) terms;
``ReducedMap.extend`` embeds the map afresh in F_{p^m}. ``apply`` is one
call of ``polynomials.apply_map``, the loop that applies a map in every
ring, and ``locus_check`` evaluates the denominators and the determinant
with ``polynomials.evaluate_terms`` under one power cache per point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import IndeterminacyError, InseparableError, NoPeriodicPointError
from .finitefields import FiniteField
from .polynomials import (apply_map, embed_map, embed_terms, evaluate_terms,
                          point_powers)

CLEAR = "clear"
INDETERMINATE = "indeterminate"
RAMIFIED = "ramified"


class ReducedMap:
    """A rational self-map over a finite field with its Jacobian data.

    ``components`` are the embed_map components of f over the field, and
    ``jacobian_det`` is a tuple of (exponents, coefficient) terms for
    polynomials.evaluate_terms, with a coefficient of None for 1. Only
    nonzero residues are kept, so an empty tuple is exactly the zero
    polynomial. A constant denominator is a unit, inverted once, or zero,
    which rejects the reduction.

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
        self.components = tuple(
            (_nonzero(num), den if den is None else _nonzero(den), scale)
            for num, den, scale in embed_map(f, fld))
        if any(den == () for _, den, _ in self.components):
            raise IndeterminacyError("denominator reduces to zero")
        self.jacobian_det = _nonzero(
            embed_terms(f.jacobian_numerator_det(), fld))
        if not self.jacobian_det:
            raise InseparableError(
                "Jacobian determinant is identically zero"
                " (inseparable reduction)")

    def extend(self, new_field):
        """The same map over an extension of F_p."""
        return ReducedMap(new_field, self.map)

    def apply(self, point):
        return apply_map(self.field, self.components, point)

    def __repr__(self):
        return f"ReducedMap(n={self.n}, q={self.field.order})"


def _nonzero(terms):
    return tuple((idx, c) for idx, c in terms if c is None or not c.is_zero())


def reduce_map(f, ctx):
    """Reduce a RationalSelfMap modulo the context's maximal ideal;
    BadReductionError for the first coefficient that is not p-integral."""
    return ReducedMap(ctx.residue_field, f)


def locus_check(fbar, point):
    """clear / indeterminate / ramified status of a point.

    Indeterminacy (a vanishing denominator) is checked first since the
    Jacobian data is meaningless there.
    """
    fld = fbar.field
    powers = point_powers(point)
    for _, den, _ in fbar.components:
        # a constant denominator is a unit: its terms are None
        if den is not None and evaluate_terms(fld, den, point,
                                              powers).is_zero():
            return INDETERMINATE
    if evaluate_terms(fld, fbar.jacobian_det, point, powers).is_zero():
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
        if cur in pos:
            if pos[cur] == 0:
                return "periodic", tuple(path)
            return "tail", tuple(path)
        status = locus_check(fbar, cur)
        if status != CLEAR:
            return status, tuple(path)
        pos[cur] = len(path)
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


def _mark_walk(fbar, start, known):
    """Walk from a start that is not in known until the orbit closes, meets
    the locus or reaches a known point, applying fbar once per new point.
    Record each point walked in known: a member of a clear cycle maps to
    (cycle, its position), any other point to None."""
    pos = {}
    path = []
    cur = start
    while cur not in known and cur not in pos:
        if locus_check(fbar, cur) != CLEAR:
            known[cur] = None
            break
        pos[cur] = len(path)
        path.append(cur)
        cur = fbar.apply(cur)
    # the cycle is the part of the path from the point the walk closed on
    head = pos.get(cur, len(path))
    cycle = tuple(path[head:])
    for i, pt in enumerate(path):
        known[pt] = (cycle, i - head) if i >= head else None


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
        n = fm.n
        visited[m] = 0
        known = {}
        for index in range(fld.order ** n):
            point = point_at_index(fld, n, index)
            if constraints is not None and not constraints(point):
                continue
            visited[m] += 1
            if point not in known:
                _mark_walk(fm, point, known)
            if known[point] is None:
                continue
            cycle, i = known[point]
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
