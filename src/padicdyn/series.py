"""Truncated multivariate power series over a p-adic context.

A series lives in O[t_1, ..., t_n] modulo the monomials of total degree
above ``cap``. That quotient is a ring, and a series with a unit constant
term is invertible in it, so ``SeriesRing`` is one more ring in which
``polynomials.embed_map`` embeds a map and runs it: a rational map applied
to the generic point y + t gives its expansion at y, exact through the
cap. Its ``from_rational`` gives scalars of the context, so the embedded
coefficients and constant denominators are scalars, not series, and its
``reduce`` makes a scalar sum a constant series. The neighborhood uses the
ring at its configured cap for the series it builds on first read; a
product visits only the pairs of terms whose degrees sum to at most the
cap.

A key that is absent is an *exact* zero; a stored coefficient may still be
zero to working precision and is never dropped on that basis. This makes
"zero constant term" a checkable predicate. Only ``series_compose`` needs
it: its outer series is itself truncated, and its unknown terms above the
cap stay above the cap only when every inner series vanishes at t = 0. A
polynomial or rational map has no unknown terms and needs no such check.
"""

from __future__ import annotations

from .errors import IndeterminacyError, RecenteringError
from .polynomials import EmbeddedMap, embed_terms, evaluate_terms
from .records import Record


class TruncatedSeries:
    __slots__ = ("ctx", "n", "cap", "coeffs")

    def __init__(self, ctx, n, cap, coeffs=None):
        self.ctx = ctx
        self.n = n
        self.cap = cap
        clean = {}
        for idx, c in (coeffs or {}).items():
            idx = tuple(idx)
            if len(idx) != n or any(a < 0 for a in idx):
                raise ValueError(f"bad exponent tuple {idx}")
            if sum(idx) > cap:
                continue
            clean[idx] = c
        self.coeffs = clean

    def _like(self, coeffs):
        """A series of self's ring with coeffs, whose keys are already
        exponent tuples within the cap: no check runs again."""
        out = TruncatedSeries.__new__(TruncatedSeries)
        out.ctx, out.n, out.cap, out.coeffs = (self.ctx, self.n, self.cap,
                                               coeffs)
        return out

    @classmethod
    def constant(cls, ctx, n, cap, value):
        return cls(ctx, n, cap, {(0,) * n: value})

    @classmethod
    def variable(cls, ctx, n, cap, i):
        idx = [0] * n
        idx[i] = 1
        return cls(ctx, n, cap, {tuple(idx): ctx.one()})

    def _zero_idx(self):
        return (0,) * self.n

    def constant_term(self):
        return self.coeffs.get(self._zero_idx(), self.ctx.zero())

    @property
    def has_exact_zero_constant(self):
        return self._zero_idx() not in self.coeffs

    def without_constant(self):
        """Drop the constant term exactly."""
        out = dict(self.coeffs)
        out.pop(self._zero_idx(), None)
        return self._like(out)

    def _check_compatible(self, other):
        if ((other.ctx is not self.ctx and other.ctx != self.ctx)
                or other.n != self.n or other.cap != self.cap):
            raise ValueError("incompatible series")

    def __add__(self, other):
        out = dict(self.coeffs)
        if not isinstance(other, TruncatedSeries):
            # scalar (PadicElement or int), added to the constant term
            zero = self._zero_idx()
            out[zero] = (out[zero] + other if zero in out
                         else self.ctx.coerce(other))
            return self._like(out)
        self._check_compatible(other)
        for idx, c in other.coeffs.items():
            out[idx] = out[idx] + c if idx in out else c
        return self._like(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self._like({i: -c for i, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            # scalar (PadicElement or int)
            return self._like({i: c * other for i, c in self.coeffs.items()})
        self._check_compatible(other)
        # other's terms by degree, so each left term visits only the right
        # terms it can multiply without passing the cap
        by_degree = [[] for _ in range(self.cap + 1)]
        for i2, c2 in other.coeffs.items():
            by_degree[sum(i2)].append((i2, c2))
        out = {}
        for i1, c1 in self.coeffs.items():
            for terms in by_degree[:self.cap + 1 - sum(i1)]:
                for i2, c2 in terms:
                    idx = tuple(a + b for a, b in zip(i1, i2))
                    prod = c1 * c2
                    out[idx] = out[idx] + prod if idx in out else prod
        return self._like(out)

    __rmul__ = __mul__

    def is_unit(self):
        return self.constant_term().is_unit()

    def inverse(self):
        """1/self, exact through the cap: with self = d0 (1 + u), the
        geometric series sum (-u)^j / d0, which stops at j = cap since u has
        no constant term. NonUnitError unless d0 is a unit."""
        d0_inv = self.constant_term().inverse()
        neg_u = self.without_constant() * -d0_inv
        inv = term = TruncatedSeries.constant(self.ctx, self.n, self.cap,
                                              self.ctx.one())
        for _ in range(self.cap):
            term = term * neg_u
            if not term.coeffs:
                break
            inv = inv + term
        return inv * d0_inv

    def evaluate(self, point):
        """Plain truncated evaluation. For a series standing in for a full
        expansion, the result is only valid modulo the discarded tail."""
        if len(point) != self.n:
            raise ValueError("point dimension mismatch")
        return evaluate_terms(self.ctx, self.coeffs.items(), point)

    def terms_sorted(self):
        return sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __repr__(self):
        keys = sorted(self.coeffs, key=lambda i: (sum(i), i))
        return f"TruncatedSeries(n={self.n}, cap={self.cap}, idx={keys})"


class SeriesRing(Record):
    """The truncated series in n variables over ctx, as a ring in which
    a map is embedded and run; coefficients are scalars of ctx."""

    __slots__ = ("ctx", "n", "cap")

    def one(self):
        return TruncatedSeries.constant(self.ctx, self.n, self.cap,
                                        self.ctx.one())

    def zero(self):
        return TruncatedSeries(self.ctx, self.n, self.cap)

    def from_rational(self, c):
        return self.ctx.from_rational(c)

    def reduce(self, x):
        return x if isinstance(x, TruncatedSeries) else self.zero() + x

    def unit_inverse(self, x):
        if not x.is_unit():
            raise IndeterminacyError("denominator is not a unit")
        return x.inverse()

    def generic_point(self, center):
        """The coordinates center_i + t_i of the ball at center."""
        return tuple(TruncatedSeries.variable(self.ctx, self.n, self.cap, i)
                     + y for i, y in enumerate(center))


def poly_eval(poly, point, ctx=None):
    """Evaluate a MultiPoly at a vector of PadicElements.

    Coefficients must be p-integral in the context (else
    BadReductionError from the embedding).
    """
    if ctx is None:
        ctx = point[0].ctx
    if len(point) != poly.n:
        raise ValueError("point dimension mismatch")
    return evaluate_terms(ctx, embed_terms(poly, ctx), point)


def series_compose(outer, inners):
    """outer(inner_1, ..., inner_m) truncated at the common cap.

    Every inner series must have an exactly-zero constant term, which makes
    the truncation closed: the coefficient of any index of total degree <= cap
    never depends on discarded terms of outer.
    """
    inners = tuple(inners)
    if len(inners) != outer.n:
        raise ValueError("outer arity does not match number of inner series")
    ring = SeriesRing(outer.ctx, inners[0].n, outer.cap)
    for s in inners:
        if s.ctx != ring.ctx or s.cap != ring.cap or s.n != ring.n:
            raise ValueError("incompatible inner series")
        if not s.has_exact_zero_constant:
            raise RecenteringError(
                "inner series has a nonzero constant term; recentering"
                " required")
    return evaluate_terms(ring, outer.coeffs.items(), inners)


def expand_at(component, center, cap, ctx=None):
    """Taylor expansion of num/den at a center where den is a unit: both
    evaluated at the generic point center + t, truncated at cap.

    ``component`` is a (numerator, denominator) MultiPoly pair. The constant
    term of the result is the exact value of the component at the center.
    """
    num, den = component
    ring = SeriesRing(center[0].ctx if ctx is None else ctx, num.n, cap)
    comps = EmbeddedMap(ring, [(embed_terms(num, ring),
                                embed_terms(den, ring), None)])
    return comps.run(ring.generic_point(center))[0]
