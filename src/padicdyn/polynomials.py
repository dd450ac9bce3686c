"""Sparse multivariate polynomials over Q and rational self-maps of A^n.

Coefficients are exact Fractions throughout; p-adic coefficients only appear
after local expansion (series module). The canonical text form used by map
files and hashes looks like ``3*x1^2*x2 - 1/2`` with variables x1..xn.

A rational map is applied in five rings: Q (``QQ``), F_q (a FiniteField),
O (a PadicContext), O/p^s on ints (``padics.IntegersMod``) and the truncated
series (``series.SeriesRing``). Each ring offers one(), zero(),
from_rational(c), reduce(x) and unit_inverse(x). ``embed_map`` carries the
map's coefficients into a ring once, ``evaluate_terms`` evaluates one
polynomial there, and ``apply_map`` is the one loop that evaluates, checks,
inverts and applies the denominators.
"""

from __future__ import annotations

import hashlib
import re
from fractions import Fraction

from .errors import IndeterminacyError, NotDominantError


class MultiPoly:
    """n-variable polynomial; ``terms`` maps exponent tuples to Fractions.

    Zero coefficients are never stored, so ``not self.terms`` means the zero
    polynomial and term dictionaries compare canonically.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        clean = {}
        for idx, c in (terms or {}).items():
            idx = tuple(int(a) for a in idx)
            if len(idx) != n or any(a < 0 for a in idx):
                raise ValueError(f"bad exponent tuple {idx} for n={n}")
            c = Fraction(c)
            if c:
                clean[idx] = c
        self.terms = clean

    @classmethod
    def constant(cls, n, c):
        return cls(n, {(0,) * n: Fraction(c)})

    @classmethod
    def variable(cls, n, i):
        """x_{i+1} (zero-based index i)."""
        idx = [0] * n
        idx[i] = 1
        return cls(n, {tuple(idx): Fraction(1)})

    def is_zero(self):
        return not self.terms

    def total_degree(self):
        return max((sum(i) for i in self.terms), default=0)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for idx, c in other.terms.items():
            out[idx] = out.get(idx, Fraction(0)) + c
        return MultiPoly(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.n, {i: -c for i, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for i1, c1 in self.terms.items():
            for i2, c2 in other.terms.items():
                idx = tuple(a + b for a, b in zip(i1, i2))
                out[idx] = out.get(idx, Fraction(0)) + c1 * c2
        return MultiPoly(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        result = MultiPoly.constant(self.n, 1)
        powed = self
        while k:
            if k & 1:
                result = result * powed
            powed = powed * powed
            k >>= 1
        return result

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.n != self.n:
                raise ValueError("variable count mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(self.n, other)
        return None

    def partial(self, j):
        """Formal partial derivative with respect to x_{j+1}."""
        out = {}
        for idx, c in self.terms.items():
            if idx[j] == 0:
                continue
            nidx = list(idx)
            nidx[j] -= 1
            out[tuple(nidx)] = out.get(tuple(nidx), Fraction(0)) + c * idx[j]
        return MultiPoly(self.n, out)

    def eval_fraction(self, point):
        if len(point) != self.n:
            raise ValueError("point dimension mismatch")
        return evaluate_terms(QQ, embed_terms(self, QQ),
                              [Fraction(x) for x in point])

    def coefficients(self):
        return self.terms.values()

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.n == other.n
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return f"MultiPoly({poly_text(self)!r})"


# -- canonical text form -----------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<var>x\d+)|(?P<op>[-+*^/]))")


def parse_poly(text, n):
    """Parse the canonical form: sum of terms, each a '*'-product of rational
    literals and powers x<i>^<k>. No parentheses."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad character in polynomial at: "
                                 f"{text[pos:pos + 10]!r}")
            break
        if m.group("num"):
            tokens.append(("num", int(m.group("num"))))
        elif m.group("var"):
            tokens.append(("var", int(m.group("var")[1:])))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()

    terms = {}
    i = 0

    def take_factor(i, coeff, expo):
        kind, val = tokens[i]
        if kind == "num":
            i += 1
            if i < len(tokens) and tokens[i] == ("op", "/"):
                if i + 1 >= len(tokens) or tokens[i + 1][0] != "num":
                    raise ValueError("expected denominator after '/'")
                coeff *= Fraction(val, tokens[i + 1][1])
                i += 2
            else:
                coeff *= val
        elif kind == "var":
            if not 1 <= val <= n:
                raise ValueError(f"variable x{val} out of range 1..{n}")
            k = 1
            i += 1
            if i < len(tokens) and tokens[i] == ("op", "^"):
                if i + 1 >= len(tokens) or tokens[i + 1][0] != "num":
                    raise ValueError("expected integer exponent after '^'")
                k = tokens[i + 1][1]
                i += 2
            expo[val - 1] += k
        else:
            raise ValueError(f"unexpected operator {val!r}")
        return i, coeff

    while i < len(tokens):
        sign = 1
        while i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= len(tokens):
            raise ValueError("dangling sign")
        coeff = Fraction(sign)
        expo = [0] * n
        i, coeff = take_factor(i, coeff, expo)
        while i < len(tokens) and tokens[i] == ("op", "*"):
            i += 1
            if i >= len(tokens):
                raise ValueError("dangling '*'")
            i, coeff = take_factor(i, coeff, expo)
        idx = tuple(expo)
        terms[idx] = terms.get(idx, Fraction(0)) + coeff
    return MultiPoly(n, terms)


def _term_key(idx):
    return (-sum(idx), tuple(-a for a in idx))


def poly_text(poly):
    """Canonical formatting: descending total degree, then descending
    lexicographic exponents; coefficient 1 omitted on monomials."""
    if not poly.terms:
        return "0"
    parts = []
    for idx in sorted(poly.terms, key=_term_key):
        c = poly.terms[idx]
        factors = []
        for i, a in enumerate(idx):
            if a == 1:
                factors.append(f"x{i + 1}")
            elif a > 1:
                factors.append(f"x{i + 1}^{a}")
        mag = abs(c)
        mag_str = str(mag.numerator) if mag.denominator == 1 else \
            f"{mag.numerator}/{mag.denominator}"
        if not factors:
            body = mag_str
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([mag_str] + factors)
        parts.append(("-" if c < 0 else "+", body))
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


# -- rational self-maps -------------------------------------------------------

class RationalSelfMap:
    """n rational functions of n variables with exact rational coefficients."""

    def __init__(self, numerators, denominators):
        if len(numerators) != len(denominators) or not numerators:
            raise ValueError("need matching nonempty numerator/denominator"
                             " lists")
        n = numerators[0].n
        for poly in list(numerators) + list(denominators):
            if poly.n != n:
                raise ValueError("variable count mismatch among components")
        if len(numerators) != n:
            raise ValueError("a self-map needs n components in n variables")
        for den in denominators:
            if den.is_zero():
                raise ValueError("zero denominator polynomial")
        self.numerators = tuple(numerators)
        self.denominators = tuple(denominators)
        self.n = n
        self._jac = None
        self._jac_det = None
        # ring -> (ring, components), filled by embed_map
        self._embedded = {}

    @classmethod
    def from_texts(cls, n, numerators, denominators=None):
        nums = [parse_poly(t, n) for t in numerators]
        if denominators is None:
            dens = [MultiPoly.constant(n, 1)] * n
        else:
            dens = [parse_poly(t, n) for t in denominators]
        return cls(nums, dens)

    def eval_fraction(self, point):
        """Exact evaluation; raises IndeterminacyError on a vanishing
        denominator."""
        if len(point) != self.n:
            raise ValueError("point dimension mismatch")
        return list(apply_map(QQ, embed_map(self, QQ),
                              [Fraction(x) for x in point]))

    def iterate_fraction(self, point, times):
        z = [Fraction(x) for x in point]
        for _ in range(times):
            z = self.eval_fraction(z)
        return z

    def jacobian_numerators(self):
        """Matrix M with M[i][j] = d(num_i)/dx_j * den_i - num_i * d(den_i)/dx_j.

        The true Jacobian determinant equals det(M) / prod(den_i^2), so
        det(M) != 0 detects dominance and its reduction detects separability.
        """
        if self._jac is None:
            M = []
            for num, den in zip(self.numerators, self.denominators):
                row = [num.partial(j) * den - num * den.partial(j)
                       for j in range(self.n)]
                M.append(row)
            self._jac = M
        return self._jac

    def jacobian_numerator_det(self):
        if self._jac_det is None:
            self._jac_det = matrix_det(self.jacobian_numerators())
        return self._jac_det

    def check_dominant(self):
        if self.jacobian_numerator_det().is_zero():
            raise NotDominantError(
                "Jacobian determinant vanishes identically; map is not"
                " dominant")

    def coefficients(self):
        for poly in self.numerators + self.denominators:
            yield from poly.coefficients()

    def canonical_text(self):
        comps = []
        for num, den in zip(self.numerators, self.denominators):
            comps.append(f"({poly_text(num)})/({poly_text(den)})")
        return f"n={self.n};" + ";".join(comps)

    def map_hash(self):
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()

    def __eq__(self, other):
        return (isinstance(other, RationalSelfMap)
                and self.numerators == other.numerators
                and self.denominators == other.denominators)

    def __repr__(self):
        return f"RationalSelfMap({self.canonical_text()!r})"


def matrix_det(M):
    """Laplace-expansion determinant of a small square matrix over any
    commutative ring: polynomials here, residue-field elements in
    neighborhood.reduced_affine_order."""
    n = len(M)
    if n == 1:
        return M[0][0]
    det = None
    for j in range(n):
        minor = [[M[i][t] for t in range(n) if t != j] for i in range(1, n)]
        term = M[0][j] * matrix_det(minor)
        if j % 2:
            term = -term
        det = term if det is None else det + term
    return det


# -- evaluation in a ring ------------------------------------------------------

class _Rationals:
    """Q on Fractions, the ring of exact evaluation."""

    def one(self):
        return Fraction(1)

    def zero(self):
        return Fraction(0)

    def from_rational(self, c):
        return Fraction(c)

    def reduce(self, x):
        return x

    def unit_inverse(self, x):
        if not x:
            raise IndeterminacyError("denominator vanishes at the point")
        return 1 / x


QQ = _Rationals()


def embed_terms(poly, ring):
    """The (idx, c) pairs of a MultiPoly for evaluate_terms, each
    coefficient embedded by ring.from_rational (None for 1);
    BadReductionError for one that is not p-integral."""
    return tuple((idx, None if c == 1 else ring.from_rational(c))
                 for idx, c in poly.terms.items())


def embed_map(f, ring):
    """Per component of f, (numerator terms, denominator terms, scale) for
    apply_map, embedded once per ring object and cached on f.

    A constant unit denominator is inverted here: its terms are None and
    scale is its inverse, or None when that inverse is exactly 1. Any other
    denominator keeps its terms and is checked and inverted at each point.
    An equal ring that is another object is embedded afresh, so that
    coefficients live in the very ring object of the points.
    """
    hit = f._embedded.get(ring)
    if hit is not None and hit[0] is ring:
        return hit[1]
    comps = []
    for num, den in zip(f.numerators, f.denominators):
        num_terms = embed_terms(num, ring)
        den_terms = embed_terms(den, ring)
        scale = None
        if den.total_degree() == 0:
            try:
                scale = ring.unit_inverse(evaluate_terms(ring, den_terms, ()))
                den_terms = None
            except IndeterminacyError:
                pass
        comps.append((num_terms, den_terms,
                      None if scale == ring.one() else scale))
    comps = tuple(comps)
    f._embedded[ring] = (ring, comps)
    return comps


def point_powers(point):
    """A power cache for evaluate_terms; polynomials evaluated at the same
    point may share it."""
    return [{1: x} for x in point]


def evaluate_terms(ring, terms, point, powers=None):
    """ring.reduce of the sum of c * prod_i point[i]^idx[i] over the
    (idx, c) pairs in terms.

    A coefficient c of None stands for an exact 1 and costs no product.
    Each power of a coordinate is computed once.
    """
    if powers is None:
        powers = point_powers(point)

    def power(i, a):
        cache = powers[i]
        if a not in cache:
            cache[a] = power(i, a - 1) * point[i]
        return cache[a]

    total = None
    for idx, c in terms:
        term = c
        for i, a in enumerate(idx):
            if a:
                term = power(i, a) if term is None else term * power(i, a)
        if term is None:
            term = ring.one()
        total = term if total is None else total + term
    return ring.reduce(ring.zero() if total is None else total)


def apply_map(ring, comps, point):
    """The map with embed_map components comps, applied to point in ring:
    the one loop that evaluates each denominator, requires a unit
    (IndeterminacyError otherwise), inverts it and scales the numerator.
    The components share one power cache."""
    powers = point_powers(point)
    out = []
    for num_terms, den_terms, scale in comps:
        if den_terms is not None:
            scale = ring.unit_inverse(
                evaluate_terms(ring, den_terms, point, powers))
        value = evaluate_terms(ring, num_terms, point, powers)
        out.append(value if scale is None else ring.reduce(value * scale))
    return tuple(out)
