"""Exact arithmetic in Z_p and in a two-layer extension ring at fixed precision.

The ring is O = W[r]/(r^e - p) over the unramified layer W = Z_p[b]/(g),
where g is the canonical modulus of F_{p^d} (``prime_power_field(p, d)``, x
at d = 1): a context is named by (p, d, e) and its working precision.
Elements store d*e integer coordinates modulo p^prec on the basis
b^i * r^j, together with their own absolute precision tag ``prec`` (p-adic
digits valid on every coordinate). Operations never silently lose
precision: only uniformizer/factorial divisions reduce the tag, by exactly
the amount divided out.

A W coordinate is a tuple of d ints, low to high in b, the representation
of the residue field F_q = F_p[b]/(g) as well: W arithmetic is the kernel
of ``finitefields`` (``vec_add``, the product ``tuple_product(d)``, compiled
for d <= 12, and the rest) with mod = p^prec where the field uses mod = p.
The residue map takes the r^0 layer's tuple mod p. Since r^e = p, a product
folds its r^(e+i) terms onto r^i times p, and a division by r shifts the
layers down, c_0 / p going to r^(e-1).

The uniformizer valuation v_r is first class: v_r(p) = e, v_r(r) = 1, and a
query on an element whose retained digits all vanish returns INFINITY, the
"indistinguishable from zero at this precision" flag. Exact equality of
nonzero quantities is therefore never decided p-adically; certification
paths use rational arithmetic for that.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (ContextMismatchError, IndeterminacyError, NonUnitError,
                     PrecisionError)
from .finitefields import (is_prime, prime_power_field, rational_mod,
                           tuple_product, vec_add, vec_neg, vec_sub)
from .records import Record

INFINITY = float("inf")

DEFAULT_PRECISION = 64


def _vp(n, p):
    """p-adic valuation of an integer; INFINITY for 0."""
    if n == 0:
        return INFINITY
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PadicContext:
    """Prime p, residue degree d, ramification e and working precision for
    the ring O = W[r]/(r^e - p), W = Z_p[b]/(g) with g the modulus of
    ``prime_power_field(p, d)``."""

    def __init__(self, p, d=1, e=1, precision=DEFAULT_PRECISION):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        for name, value in (("d", d), ("e", e), ("precision", precision)):
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an integer >= 1,"
                                 f" got {value!r}")
        self.p = p
        self.d = d
        self.e = e
        self.precision = precision
        self.pmod = p ** precision
        self.q = p ** d
        # one F_q object per (p, d), shared by the search and the lift
        self.residue_field = prime_power_field(p, d)
        self.unram_low = self.residue_field.modulus
        self._wmul = tuple_product(d)
        self._hash = hash((p, d, e, precision))

    def modulus(self, prec):
        """p^prec, without the power at the working precision."""
        return self.pmod if prec == self.precision else self.p ** prec

    # -- W-layer helpers: tuples of d ints mod p^prec ------------------------

    def _wzero(self):
        return (0,) * self.d

    def _wval(self, a):
        """min p-valuation over coordinates; INFINITY when all vanish."""
        best = INFINITY
        for x in a:
            v = _vp(x, self.p)
            if v < best:
                best = v
                if best == 0:
                    break
        return best

    # -- element constructors ------------------------------------------------

    def _make(self, layers, prec):
        return PadicElement(self, tuple(layers), prec)

    def zero(self, prec=None):
        prec = self.precision if prec is None else prec
        return self._make([self._wzero()] * self.e, prec)

    def one(self, prec=None):
        return self.from_int(1, prec)

    def from_int(self, k, prec=None):
        prec = self.precision if prec is None else prec
        mod = self.p ** prec
        layers = [self._wzero()] * self.e
        layers[0] = tuple([k % mod] + [0] * (self.d - 1))
        return self._make(layers, prec)

    def from_rational(self, x, prec=None):
        """Embed a Fraction/int; the denominator must be a p-unit."""
        prec = self.precision if prec is None else prec
        val = rational_mod(x, self.p, self.p ** prec)
        layers = [self._wzero()] * self.e
        layers[0] = tuple([val] + [0] * (self.d - 1))
        return self._make(layers, prec)

    def reduce(self, x):
        """x capped at the context's precision in digits and tag, in this
        context object: what a sum started from zero() gives."""
        if x.prec > self.precision or x.ctx is not self:
            return self.zero() + x
        return x

    def unit_inverse(self, x):
        if not x.is_unit():
            raise IndeterminacyError(
                "denominator is not a unit along the orbit")
        return x.inverse()

    def from_coords(self, coords, prec=None):
        """Element from d*e integers, ordered layer by layer (r-degree major)."""
        prec = self.precision if prec is None else prec
        mod = self.p ** prec
        coords = list(coords)
        if len(coords) != self.d * self.e:
            raise ValueError(f"expected {self.d * self.e} coordinates")
        layers = [tuple(c % mod for c in coords[j * self.d:(j + 1) * self.d])
                  for j in range(self.e)]
        return self._make(layers, prec)

    def uniformizer(self):
        if self.e == 1:
            return self.from_int(self.p)
        layers = [self._wzero()] * self.e
        layers[1] = tuple([1] + [0] * (self.d - 1))
        return self._make(layers, self.precision)

    def random_element(self, rng, prec=None):
        prec = self.precision if prec is None else prec
        mod = self.p ** prec
        return self.from_coords(
            [rng.randrange(mod) for _ in range(self.d * self.e)], prec)

    # -- residue field -------------------------------------------------------

    def residue(self, a):
        """Image of a in F_q = O / (r); a ring homomorphism."""
        return self.residue_field.from_coords(self.coerce(a).layers[0])

    def naive_lift(self, res):
        """Coordinate lift of a residue element (digits copied verbatim)."""
        res = self.residue_field.coerce(res)
        layers = [self._wzero()] * self.e
        layers[0] = tuple(res.coords())
        return self._make(layers, self.precision)

    def teichmuller_lift(self, res):
        """The multiplicative lift: the unique root of x^q = x over res.

        Zero lifts to zero; units lift to roots of unity of order dividing
        q - 1. Computed by Newton's iteration on x^q - x from the naive
        lift: the derivative q x^(q-1) - 1 is -1 mod q, a unit, so the root
        is unique mod p^precision and each step doubles the r-adic digits
        that are correct. The derivative's inverse u is carried along from
        u = -1: one Newton step u(2 - f'(x) u) per step keeps it correct to
        at least the digits of x.
        """
        res = self.residue_field.coerce(res)
        x = self.naive_lift(res)
        if res.is_zero():
            return x
        u, two = self.from_int(-1), self.from_int(2)
        for _ in range((self.e * self.precision).bit_length() + 2):
            x_q1 = x ** (self.q - 1)
            fx = x_q1 * x - x
            if fx.valuation() is INFINITY:
                return x
            u = u * (two - (x_q1 * self.q - 1) * u)
            x = x - fx * u
        raise PrecisionError("Teichmuller iteration failed to stabilize")

    def coerce(self, x):
        if isinstance(x, PadicElement):
            if x.ctx is not self and x.ctx != self:
                raise ContextMismatchError("mixed p-adic contexts")
            return x
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, Fraction):
            return self.from_rational(x)
        raise TypeError(f"cannot coerce {type(x).__name__} into O_p")

    def __eq__(self, other):
        return (isinstance(other, PadicContext)
                and self.p == other.p and self.d == other.d
                and self.e == other.e
                and self.precision == other.precision)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"PadicContext(p={self.p}, d={self.d}, e={self.e},"
                f" precision={self.precision})")


class IntegersMod(Record):
    """Z/p^s on Python ints, the ring mod = p^s. At d = e = 1 it is O/p^s,
    and reduction mod p^s is a ring homomorphism, so a map applied here
    gives the digits of the PadicElement loop at tag s."""

    __slots__ = ("p", "mod")

    def one(self):
        return 1

    def zero(self):
        return 0

    def from_rational(self, c):
        return rational_mod(c, self.p, self.mod)

    def reduce(self, x):
        return x % self.mod

    def unit_inverse(self, x):
        if x % self.p == 0:
            raise IndeterminacyError(
                "denominator is not a unit along the orbit")
        return pow(x, -1, self.mod)


class PadicElement:
    """Immutable ring element; ``layers[j][i]`` is the b^i r^j coordinate."""

    __slots__ = ("ctx", "layers", "prec")

    def __init__(self, ctx, layers, prec):
        self.ctx = ctx
        self.layers = layers
        self.prec = prec

    # -- arithmetic -----------------------------------------------------------

    def _pair(self, other):
        if other.__class__ is not PadicElement or other.ctx is not self.ctx:
            if isinstance(other, (int, Fraction)):
                other = self.ctx.coerce(other)
            elif not isinstance(other, PadicElement):
                return None, None, None
            elif other.ctx != self.ctx:
                raise ContextMismatchError("mixed p-adic contexts")
        prec = min(self.prec, other.prec)
        return other, prec, self.ctx.modulus(prec)

    def _tighten(self, prec, mod):
        if prec == self.prec:
            return self.layers
        return tuple(tuple(c % mod for c in layer) for layer in self.layers)

    def __add__(self, other):
        o, prec, mod = self._pair(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx
        a = self._tighten(prec, mod)
        b = o._tighten(prec, mod)
        return ctx._make([vec_add(x, y, mod) for x, y in zip(a, b)], prec)

    __radd__ = __add__

    def __sub__(self, other):
        o, prec, mod = self._pair(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx
        a = self._tighten(prec, mod)
        b = o._tighten(prec, mod)
        return ctx._make([vec_sub(x, y, mod) for x, y in zip(a, b)], prec)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        ctx = self.ctx
        mod = ctx.modulus(self.prec)
        return ctx._make([vec_neg(x, mod) for x in self.layers], self.prec)

    def __mul__(self, other):
        if isinstance(other, int):
            ctx = self.ctx
            mod = ctx.modulus(self.prec)
            return ctx._make([tuple(c * other % mod for c in x)
                              for x in self.layers], self.prec)
        o, prec, mod = self._pair(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx
        a = self._tighten(prec, mod)
        b = o._tighten(prec, mod)
        e, g, mul = ctx.e, ctx.unram_low, ctx._wmul
        if e == 1:
            return ctx._make([mul(a[0], b[0], g, mod)], prec)
        zero = ctx._wzero()
        prod = [zero] * (2 * e - 1)
        for i, x in enumerate(a):
            if x == zero:
                continue
            for j, y in enumerate(b):
                prod[i + j] = vec_add(prod[i + j], mul(x, y, g, mod), mod)
        # r^i = p r^(i-e), and i <= 2e - 2 puts r^(i-e) below r^e
        p = ctx.p
        for i in range(e, 2 * e - 1):
            c = prod[i]
            if c != zero:
                prod[i - e] = tuple((x + p * y) % mod
                                    for x, y in zip(prod[i - e], c))
        return ctx._make(prod[:e], prec)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = self.ctx.one(self.prec)
        powed = self
        while k:
            if k & 1:
                result = result * powed
            powed = powed * powed
            k >>= 1
        return result

    # -- valuation and predicates ----------------------------------------------

    def valuation(self):
        """v_r, or INFINITY when every retained digit vanishes.

        v_r(sum_j c_j r^j) = min_j (e * v_p-layer(c_j) + j); exact because the
        candidate valuations are pairwise distinct mod e.
        """
        ctx = self.ctx
        best = INFINITY
        for j, layer in enumerate(self.layers):
            w = ctx._wval(layer)
            if w is INFINITY:
                continue
            v = ctx.e * w + j
            if v < best:
                best = v
        return best

    def is_unit(self):
        return self.valuation() == 0

    def in_base_subring(self):
        """True when the element lies in Z_p (to stored precision)."""
        zero = self.ctx._wzero()
        if any(layer != zero for layer in self.layers[1:]):
            return False
        return all(c == 0 for c in self.layers[0][1:])

    def residue(self):
        return self.ctx.residue(self)

    def coords(self):
        """The d*e coordinate integers, layer by layer, as
        ``PadicContext.from_coords`` reads them."""
        return [c for layer in self.layers for c in layer]

    # -- division -----------------------------------------------------------

    def inverse(self):
        """Multiplicative inverse of a unit, exact to stored precision
        (capped at the context's, as for every product)."""
        if self.valuation() != 0:
            raise NonUnitError("division by non-unit")
        ctx = self.ctx
        if ctx.d == 1 and ctx.e == 1:
            prec = min(self.prec, ctx.precision)
            return ctx._make(
                [(pow(self.layers[0][0], -1, ctx.modulus(prec)),)], prec)
        return self._newton_inverse()

    def _newton_inverse(self):
        """inverse() of a unit by Newton iteration from the residue-field
        inverse; the only route when d > 1 or e > 1."""
        ctx = self.ctx
        res_inv = self.residue().inverse()
        x = ctx.naive_lift(res_inv)
        if x.prec > self.prec:
            mod = ctx.p ** self.prec
            x = ctx._make(x._tighten(self.prec, mod), self.prec)
        two = ctx.from_int(2, self.prec)
        # Newton: correct r-digits double every step
        steps = max(1, (ctx.e * self.prec).bit_length() + 1)
        for _ in range(steps):
            x = x * (two - self * x)
        return x

    def divide_exact_p(self, s):
        """Divide by p^s; every coordinate must carry the factor. Costs s
        digits of precision."""
        if s == 0:
            return self
        if s >= self.prec:
            raise PrecisionError("division by p^%d exhausts precision" % s)
        ps = self.ctx.p ** s
        new_layers = []
        for layer in self.layers:
            row = []
            for c in layer:
                if c % ps:
                    raise ValueError("element is not divisible by p^%d" % s)
                row.append(c // ps)
            new_layers.append(tuple(row))
        return self.ctx._make(new_layers, self.prec - s)

    def divide_uniformizer(self):
        """Divide by r (requires v_r >= 1). Costs one digit of precision
        (of the tag capped at the context's, as for every product).

        sum_j c_j r^j / r = sum_{j >= 1} c_j r^(j-1) + (c_0 / p) r^(e-1),
        since r^e = p; v_r >= 1 is exactly p | c_0."""
        ctx = self.ctx
        p = ctx.p
        c0 = self.layers[0]
        if any(c % p for c in c0):
            raise NonUnitError("element is a unit; cannot divide by r exactly")
        prec = min(self.prec, ctx.precision) - 1
        if prec < 1:
            raise PrecisionError("division by r exhausts precision")
        mod = ctx.modulus(prec)
        layers = self.layers[1:] + (tuple(c // p for c in c0),)
        return ctx._make(
            tuple(tuple(c % mod for c in layer) for layer in layers), prec)

    # -- misc -----------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.coerce(other)
        if not isinstance(other, PadicElement):
            return NotImplemented
        if other.ctx is not self.ctx and other.ctx != self.ctx:
            return False
        prec = min(self.prec, other.prec)
        mod = self.ctx.p ** prec
        return self._tighten(prec, mod) == other._tighten(prec, mod)

    __hash__ = None

    def __repr__(self):
        v = self.valuation()
        digits = [c % self.ctx.p ** 4 for c in self.coords()]
        return (f"<O_p {digits}+O(p^4)... v_r={v} prec={self.prec}"
                f" p={self.ctx.p}>")


# -- integer-combinatorics helpers -------------------------------------------

def digit_sum(k, p):
    s = 0
    while k:
        k, rem = divmod(k, p)
        s += rem
    return s


def factorial_valuation(k, p):
    """v_p(k!) by Legendre's formula (k - digit sum)/(p - 1)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return (k - digit_sum(k, p)) // (p - 1)


def binomial_eval(z, k):
    """binomial(z, k) = z(z-1)...(z-k+1)/k! for z in the base subring Z_p.

    Integer-valued on Z_p, so the division by k! is exact; it costs
    v_p(k!) digits of precision.
    """
    ctx = z.ctx
    if not z.in_base_subring():
        raise ValueError("Mahler variable must lie in Z_p")
    if k == 0:
        return ctx.one(z.prec)
    num = z
    for j in range(1, k):
        num = num * (z - j)
    s = factorial_valuation(k, ctx.p)
    if s >= num.prec:
        raise PrecisionError(
            f"v_p({k}!) = {s} exhausts precision {num.prec}")
    kfact_unit = 1
    for j in range(2, k + 1):
        kfact_unit *= j
    kfact_unit //= ctx.p ** s
    result = num * ctx.from_int(kfact_unit, num.prec).inverse()
    return result.divide_exact_p(s)
