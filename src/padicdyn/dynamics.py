"""Reduction of a rational self-map modulo p and exhaustive periodic-point
search over F_{q^m}.

The search looks for *purely* periodic points whose whole orbit avoids the
indeterminacy locus (a vanishing denominator) and the ramification locus
(vanishing Jacobian determinant). Enumeration is index-driven and the first
hit in canonical order wins, so results are deterministic and replayable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (BadReductionError, IndeterminacyError, InseparableError,
                     NoPeriodicPointError)
from .finitefields import FiniteField

CLEAR = "clear"
INDETERMINATE = "indeterminate"
RAMIFIED = "ramified"


class FFPoly:
    """Sparse multivariate polynomial with finite-field coefficients."""

    __slots__ = ("field", "n", "terms")

    def __init__(self, fld, n, terms=None):
        self.field = fld
        self.n = n
        clean = {}
        for idx, c in (terms or {}).items():
            if not c.is_zero():
                clean[tuple(idx)] = c
        self.terms = clean

    @classmethod
    def from_multipoly(cls, poly, fld, p):
        """Reduce a MultiPoly with p-integral rational coefficients."""
        terms = {}
        for idx, c in poly.terms.items():
            if c.denominator % p == 0:
                raise BadReductionError(
                    f"coefficient {c} is not {p}-integral"
                    " (bad-reduction coefficient)")
            val = (c.numerator * pow(c.denominator, -1, p)) % p
            terms[idx] = fld.from_int(val)
        return cls(fld, poly.n, terms)

    def is_zero(self):
        return not self.terms

    def map_field(self, new_field):
        """Re-express the polynomial over an extension of its prime field."""
        return FFPoly(new_field, self.n,
                      {idx: new_field.from_int(c.rep)
                       for idx, c in self.terms.items()})

    def evaluate(self, point):
        total = self.field.zero()
        for idx, c in self.terms.items():
            term = c
            for x, a in zip(point, idx):
                for _ in range(a):
                    term = term * x
            total = total + term
        return total

    def __eq__(self, other):
        return (isinstance(other, FFPoly) and self.field == other.field
                and self.terms == other.terms)

    def __repr__(self):
        return f"FFPoly(n={self.n}, terms={len(self.terms)})"


class ReducedMap:
    """A rational self-map over a finite field with its Jacobian data.

    ``jacobian_det`` reduces the determinant over Q of J[i][j] =
    d(num_i)/dx_j * den_i - num_i * d(den_i)/dx_j, which
    RationalSelfMap.jacobian_numerator_det() caches; reduction mod p
    commutes with formal differentiation. It vanishes at a point exactly
    where the true Jacobian determinant does (denominators being units
    there).
    """

    def __init__(self, fld, numerators, denominators, jacobian_det):
        self.field = fld
        self.n = numerators[0].n
        self.numerators = tuple(numerators)
        self.denominators = tuple(denominators)
        for den in denominators:
            if den.is_zero():
                raise IndeterminacyError("denominator reduces to zero")
        if jacobian_det.is_zero():
            raise InseparableError(
                "Jacobian determinant is identically zero"
                " (inseparable reduction)")
        self.jacobian_det = jacobian_det

    def extend(self, new_field):
        """The same map over an extension of F_p, for a map over F_p;
        coefficients are embedded, nothing is re-derived."""
        return ReducedMap(
            new_field,
            [poly.map_field(new_field) for poly in self.numerators],
            [poly.map_field(new_field) for poly in self.denominators],
            self.jacobian_det.map_field(new_field))

    def apply(self, point):
        one = self.field.one().rep
        out = []
        for num, den in zip(self.numerators, self.denominators):
            dval = den.evaluate(point)
            if dval.is_zero():
                raise IndeterminacyError("denominator vanishes at the point")
            value = num.evaluate(point)
            # dividing by 1 is exact in any field: skip the Fermat inverse
            out.append(value if dval.rep == one else value * dval.inverse())
        return tuple(out)

    def __repr__(self):
        return f"ReducedMap(n={self.n}, q={self.field.order})"


def reduce_map(f, ctx):
    """Reduce a RationalSelfMap modulo the context's maximal ideal."""
    fld = ctx.residue_field
    nums = [FFPoly.from_multipoly(p, fld, ctx.p) for p in f.numerators]
    dens = [FFPoly.from_multipoly(p, fld, ctx.p) for p in f.denominators]
    det = FFPoly.from_multipoly(f.jacobian_numerator_det(), fld, ctx.p)
    return ReducedMap(fld, nums, dens, det)


def locus_check(fbar, point):
    """clear / indeterminate / ramified status of a point.

    Indeterminacy (a vanishing denominator) is checked first since the
    Jacobian data is meaningless there.
    """
    for den in fbar.denominators:
        if den.evaluate(point).is_zero():
            return INDETERMINATE
    if fbar.jacobian_det.evaluate(point).is_zero():
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
    orbit_clear: bool
    cycle_jacobian_invertible: bool
    enumeration_index: int
    visited: dict = field(default_factory=dict, compare=False)

    def point_coords(self):
        """F_p coordinates per coordinate of the point."""
        return [elt.coords() for elt in self.point]

    def field_modulus_indexes(self):
        return self.field.modulus_indexes()


def _walk_orbit(fbar, start, cap):
    """Return (status, orbit) where status is 'periodic', 'tail' or a locus
    label that interrupted the walk."""
    pos = {}
    path = []
    cur = start
    while len(path) <= cap:
        status = locus_check(fbar, cur)
        if status != CLEAR:
            return status, tuple(path)
        if cur in pos:
            if pos[cur] == 0:
                return "periodic", tuple(path)
            return "tail", tuple(path)
        pos[cur] = len(path)
        path.append(cur)
        cur = fbar.apply(cur)
    raise RuntimeError("orbit walk exceeded the space size")  # unreachable


def _cycle_jacobian_invertible(fbar, orbit):
    fld = fbar.field
    prod = fld.one()
    for pt in orbit:
        prod = prod * fbar.jacobian_det.evaluate(pt)
    return not prod.is_zero()


def find_periodic_point(fbar, m_max=6, constraints=None):
    """Exhaustively search F_{q^m}^n, m = 1..m_max, in canonical index order.

    Returns the first purely periodic point whose entire orbit is clear of
    the indeterminacy and ramification loci. Deterministic given the
    enumeration order; ``visited`` counts examined starting points per m.
    """
    visited = {}
    for m in range(1, m_max + 1):
        fld = fbar.field.extension(m)
        fm = fbar if m == 1 else fbar.extend(fld)
        n = fm.n
        space = fld.order ** n
        visited[m] = 0
        for index in range(space):
            digits = []
            i = index
            for _ in range(n):
                i, r = divmod(i, fld.order)
                digits.append(fld.element_from_index(r))
            point = tuple(digits)
            if constraints is not None and not constraints(point):
                continue
            visited[m] += 1
            status, orbit = _walk_orbit(fm, point, space)
            if status != "periodic":
                continue
            record = PeriodicPointRecord(
                m=m,
                field=fld,
                point=point,
                period=len(orbit),
                orbit=orbit,
                orbit_clear=True,
                cycle_jacobian_invertible=_cycle_jacobian_invertible(fm,
                                                                     orbit),
                enumeration_index=index,
                visited=dict(visited),
            )
            return record
    raise NoPeriodicPointError(
        f"no clear periodic point found up to extension degree {m_max};"
        " raise m_max or change the prime")


def verify_record(fbar, record):
    """Re-check a PeriodicPointRecord against a reduced map: pure
    periodicity, the stated period, and a fully clear orbit."""
    fld = record.field
    fm = fbar if fld == fbar.field else fbar.extend(fld)
    cur = record.point
    seen = []
    for _ in range(record.period):
        if locus_check(fm, cur) != CLEAR:
            return False
        if cur in seen:
            return False  # smaller period than recorded
        seen.append(cur)
        cur = fm.apply(cur)
    if cur != record.point:
        return False
    if tuple(seen) != record.orbit:
        return False
    return _cycle_jacobian_invertible(fm, record.orbit)


def frobenius_orbit_period(polys, base_order):
    """Smallest k with the q-power Frobenius (q = base_order) fixing every
    coefficient of every polynomial; 1 for an empty set."""
    k = 1
    for poly in polys:
        for c in poly.terms.values():
            t = 1
            cur = c ** base_order
            while cur != c:
                cur = cur ** base_order
                t += 1
                if t > c.field.degree * 4:
                    raise RuntimeError("Frobenius period runaway")
            k = k * t // math.gcd(k, t)
    return k
