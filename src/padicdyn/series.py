"""Truncated multivariate power series over a p-adic context.

Coefficients are PadicElements indexed by exponent tuples of total degree at
most ``cap``. A key that is absent is an *exact* zero; a stored coefficient
may still be zero to working precision and is never dropped on that basis.
This makes "zero constant term" a checkable predicate, which composition
requires for truncation to be closed.
"""

from __future__ import annotations

from .errors import IndeterminacyError, RecenteringError
from .padics import int_binomial
from .polynomials import embed_terms, evaluate_terms


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
        """Drop the constant term exactly (used after recording it)."""
        out = dict(self.coeffs)
        out.pop(self._zero_idx(), None)
        return TruncatedSeries(self.ctx, self.n, self.cap, out)

    def with_constant(self, value):
        out = dict(self.coeffs)
        out[self._zero_idx()] = value
        return TruncatedSeries(self.ctx, self.n, self.cap, out)

    def _check_compatible(self, other):
        if (other.ctx != self.ctx or other.n != self.n
                or other.cap != self.cap):
            raise ValueError("incompatible series")

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            out[idx] = out[idx] + c if idx in out else c
        return TruncatedSeries(self.ctx, self.n, self.cap, out)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            out[idx] = out[idx] - c if idx in out else -c
        return TruncatedSeries(self.ctx, self.n, self.cap, out)

    def __neg__(self):
        return TruncatedSeries(self.ctx, self.n, self.cap,
                               {i: -c for i, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            # scalar (PadicElement or int)
            return TruncatedSeries(self.ctx, self.n, self.cap,
                                   {i: c * other
                                    for i, c in self.coeffs.items()})
        self._check_compatible(other)
        out = {}
        for i1, c1 in self.coeffs.items():
            d1 = sum(i1)
            for i2, c2 in other.coeffs.items():
                if d1 + sum(i2) > self.cap:
                    continue
                idx = tuple(a + b for a, b in zip(i1, i2))
                prod = c1 * c2
                out[idx] = out[idx] + prod if idx in out else prod
        return TruncatedSeries(self.ctx, self.n, self.cap, out)

    __rmul__ = __mul__

    def evaluate(self, point):
        """Plain truncated evaluation. For a series standing in for a full
        expansion, the result is only valid modulo the discarded tail."""
        if len(point) != self.n:
            raise ValueError("point dimension mismatch")
        return evaluate_padic(self.ctx, self.coeffs.items(), point)

    def min_valuation(self):
        vals = [c.valuation() for c in self.coeffs.values()]
        return min(vals, default=self.ctx.zero().valuation())

    def terms_sorted(self):
        return sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __repr__(self):
        keys = sorted(self.coeffs, key=lambda i: (sum(i), i))
        return f"TruncatedSeries(n={self.n}, cap={self.cap}, idx={keys})"


def evaluate_padic(ctx, terms, point, powers=None):
    """evaluate_terms over a PadicContext, capped at its precision.

    Intermediate values may keep more digits than the context's precision;
    the result is what the sum started from ctx.zero() gives, in digits and
    precision tag.
    """
    total = evaluate_terms(ctx, terms, point, powers)
    if total.prec > ctx.precision or total.ctx is not ctx:
        total = ctx.zero() + total
    return total


def poly_eval(poly, point, ctx=None):
    """Evaluate a MultiPoly at a vector of PadicElements.

    Coefficients must be p-integral in the context (else
    BadReductionError from the embedding).
    """
    if ctx is None:
        ctx = point[0].ctx
    if len(point) != poly.n:
        raise ValueError("point dimension mismatch")
    return evaluate_padic(ctx, embed_terms(poly, ctx), point)


def series_compose(outer, inners):
    """outer(inner_1, ..., inner_m) truncated at the common cap.

    Every inner series must have an exactly-zero constant term, which makes
    the truncation closed: the coefficient of any index of total degree <= cap
    never depends on discarded terms.
    """
    inners = list(inners)
    if len(inners) != outer.n:
        raise ValueError("outer arity does not match number of inner series")
    ctx, cap = outer.ctx, outer.cap
    n_in = inners[0].n
    for s in inners:
        if s.ctx != ctx or s.cap != cap or s.n != n_in:
            raise ValueError("incompatible inner series")
        if not s.has_exact_zero_constant:
            raise RecenteringError(
                "inner series has a nonzero constant term; recentering"
                " required")
    one = TruncatedSeries.constant(ctx, n_in, cap, ctx.one())
    power_cache = [{0: one} for _ in inners]

    def ipower(i, k):
        cache = power_cache[i]
        if k not in cache:
            cache[k] = ipower(i, k - 1) * inners[i]
        return cache[k]

    result = TruncatedSeries(ctx, n_in, cap, {})
    for idx, c in sorted(outer.coeffs.items(), key=lambda kv: sum(kv[0])):
        if sum(idx) > cap:
            continue
        term = None
        for i, a in enumerate(idx):
            if a:
                term = ipower(i, a) if term is None else term * ipower(i, a)
        if term is None:
            term = one
        result = result + term * c
    return result


def shift_poly(poly, center, cap, ctx):
    """Exact expansion of poly(center + t) as a series in t, truncated at cap.

    Degrees do not mix downward under shifting, so coefficients of total
    degree <= cap are exact.
    """
    n = poly.n
    result = {}
    for idx, c in poly.terms.items():
        cur = {(0,) * n: ctx.from_rational(c)}
        for i, a in enumerate(idx):
            if a == 0:
                continue
            # (center_i + t_i)^a, coefficients binomial(a, k) center_i^(a-k)
            cpows = {0: ctx.one()}
            for k in range(1, a + 1):
                cpows[k] = cpows[k - 1] * center[i]
            nxt = {}
            for eidx, ec in cur.items():
                base_deg = sum(eidx)
                for k in range(0, min(a, cap - base_deg) + 1):
                    coeff = ec * (cpows[a - k] * int_binomial(a, k))
                    nidx = list(eidx)
                    nidx[i] += k
                    nidx = tuple(nidx)
                    nxt[nidx] = nxt[nidx] + coeff if nidx in nxt else coeff
            cur = nxt
        for eidx, ec in cur.items():
            result[eidx] = result[eidx] + ec if eidx in result else ec
    return TruncatedSeries(ctx, n, cap, result)


def expand_at(component, center, cap, ctx=None):
    """Taylor expansion of num/den at a center where den is a unit.

    ``component`` is a (numerator, denominator) MultiPoly pair. The constant
    term of the result is the exact value of the component at the center.
    """
    num, den = component
    if ctx is None:
        ctx = center[0].ctx
    num_s = shift_poly(num, center, cap, ctx)
    den_s = shift_poly(den, center, cap, ctx)
    d0 = den_s.constant_term()
    if d0.valuation() != 0:
        raise IndeterminacyError(
            "denominator is not a unit at the center"
            " (indeterminacy-adjacent center)")
    d0_inv = d0.inverse()
    u = den_s.without_constant() * d0_inv  # den = d0 * (1 + u), u has no const
    # (1 + u)^{-1} = sum (-u)^j, exact through the cap since u has order >= 1
    neg_u = -u
    inv = TruncatedSeries.constant(ctx, num.n, cap, ctx.one())
    term = TruncatedSeries.constant(ctx, num.n, cap, ctx.one())
    for _ in range(cap):
        term = term * neg_u
        if not term.coeffs:
            break
        inv = inv + term
    return num_s * (inv * d0_inv)
