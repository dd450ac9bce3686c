"""Exact arithmetic in Z_p and in a two-layer extension ring at fixed precision.

The ring is O = W[r]/(r^e - p) over the unramified layer W = Z_p[b]/(g),
where g is the canonical modulus of F_{p^d} (``prime_power_field(p, d)``, x
at d = 1): a context is named by (p, d, e) and its working precision.
Elements store one flat tuple ``c`` of d*e integer coordinates modulo
p^prec, the b^i r^j coordinate at j d + i, together with their own absolute
precision tag ``prec`` (p-adic digits valid on every coordinate); every
O/p^s ring below holds the same tuple. Operations never silently lose
precision: only uniformizer/factorial divisions reduce the tag, by exactly
the amount divided out.

A W coordinate is a tuple of d ints, low to high in b, the representation
of the residue field F_q = F_p[b]/(g) as well: W arithmetic is the kernel
of ``finitefields`` (``vec_add``, the product ``tuple_product(d)``, compiled
for d <= 12, and the rest) with mod = p^prec where the field uses mod = p.
The residue map takes the r^0 coordinates c[:d] mod p. Since r^e = p, a
product folds its r^(e+i) terms onto r^i times p, and a division by r
shifts the coordinates down by d, c[:d] / p going to r^(e-1).

The uniformizer valuation v_r is first class: v_r(p) = e, v_r(r) = 1, and a
query on an element whose retained digits all vanish returns INFINITY, the
"indistinguishable from zero at this precision" flag. Exact equality of
nonzero quantities is therefore never decided p-adically; certification
paths use rational arithmetic for that.

Loops that keep one tag s run without tags in O/p^s, one cached ring per
(p, d, e, s) (``integers_mod``): bare ints mod p^s when d = e = 1
(``IntegersMod``), else ``ModElement``s over the d*e coordinate ints mod
p^s (``ExtensionMod``), multiplied by the product ``o_product`` that
PadicElement shares. Reduction mod p^s is a ring homomorphism, so both
give the digits of the PadicElement loop. ``PadicElement.inverse`` is the
ring's inverse, and the Teichmuller lift runs on W tuples, since the root
lies in W for every e.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import (ContextMismatchError, IndeterminacyError, NonUnitError,
                     PrecisionError)
from .finitefields import (is_prime, poly_powmod, prime_power_field,
                           rational_mod, tuple_product, vec_add, vec_neg,
                           vec_sub)
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
        self._omul = o_product(p, d, e)
        self._hash = hash((p, d, e, precision))

    def modulus(self, prec):
        """p^prec, without the power at the working precision."""
        return self.pmod if prec == self.precision else self.p ** prec

    # -- element constructors ------------------------------------------------

    def _base(self, w, prec):
        """The element with r^0 coordinates w (a tuple of d ints) and the
        others zero."""
        return PadicElement(self, w + (0,) * (self.d * (self.e - 1)), prec)

    def zero(self, prec=None):
        return self.from_int(0, prec)

    def one(self, prec=None):
        return self.from_int(1, prec)

    def from_int(self, k, prec=None):
        prec = self.precision if prec is None else prec
        c = (k % self.modulus(prec),) + (0,) * (self.d * self.e - 1)
        return PadicElement(self, c, prec)

    def from_rational(self, x, prec=None):
        """Embed a Fraction/int; the denominator must be a p-unit."""
        prec = self.precision if prec is None else prec
        return self.from_int(rational_mod(x, self.p, self.modulus(prec)), prec)

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
        """Element from d*e integers, the b^i r^j coordinate at j d + i
        (r-degree major)."""
        prec = self.precision if prec is None else prec
        mod = self.p ** prec
        c = tuple([x % mod for x in coords])
        if len(c) != self.d * self.e:
            raise ValueError(f"expected {self.d * self.e} coordinates")
        return PadicElement(self, c, prec)

    def uniformizer(self):
        if self.e == 1:
            return self.from_int(self.p)
        c = [0] * (self.d * self.e)
        c[self.d] = 1
        return PadicElement(self, tuple(c), self.precision)

    def random_element(self, rng, prec=None):
        prec = self.precision if prec is None else prec
        mod = self.p ** prec
        return self.from_coords(
            [rng.randrange(mod) for _ in range(self.d * self.e)], prec)

    # -- residue field -------------------------------------------------------

    def residue(self, a):
        """Image of a in F_q = O / (r); a ring homomorphism."""
        return self.residue_field.from_coords(self.coerce(a).c[:self.d])

    def naive_lift(self, res):
        """Coordinate lift of a residue element (digits copied verbatim)."""
        res = self.residue_field.coerce(res)
        return self._base(tuple(res.coords()), self.precision)

    def teichmuller_lift(self, res):
        """The multiplicative lift: the unique root of x^q = x over res.

        Zero and one lift to themselves; units lift to roots of unity of
        order dividing q - 1. The root lies in W for every e, so it is
        computed on W tuples through the kernel, by Newton's iteration on
        x^q - x from the naive lift: the derivative q x^(q-1) - 1 is -1 mod
        p, a unit, so the root is unique mod p^precision and each step
        doubles the digits that are correct, from 1. Step i therefore works
        mod p^min(2^i, precision). The derivative's inverse u is carried
        along from u = -1: one Newton step u(2 - f'(x) u) before each step
        of x keeps it correct to the digits of x.
        """
        res = self.residue_field.coerce(res)
        lift = self.naive_lift(res)
        if res.is_zero() or res == self.residue_field.one():
            return lift
        g, mul, q = self.unram_low, tuple_product(self.d), self.q
        x, one = lift.c[:self.d], (1,) + (0,) * (self.d - 1)
        u, digits = vec_neg(one, self.p), 1
        while digits < self.precision:
            digits = min(2 * digits, self.precision)
            mod = self.modulus(digits)
            x_q1 = poly_powmod(x, q - 1, g, mod)
            fx = vec_sub(mul(x_q1, x, g, mod), x, mod)
            dfx = vec_sub(tuple(c * q for c in x_q1), one, mod)
            two_minus = vec_sub(vec_add(one, one, mod), mul(dfx, u, g, mod),
                                mod)
            u = mul(u, two_minus, g, mod)
            x = vec_sub(x, mul(fx, u, g, mod), mod)
        return self._base(x, self.precision)

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


@lru_cache(maxsize=64)
def o_product(p, d, e):
    """(mul, low): mul(x, y, low, mod) is the product of O mod p^s on the
    d e coordinates of ``PadicContext.from_coords``, mod = p^s. It is one
    ``tuple_product(d)`` call modulo g at e = 1; otherwise every pair of
    r-degrees is multiplied by ``tuple_product(d)`` and r^(e+i) is folded
    onto p r^i."""
    g = prime_power_field(p, d).modulus
    if e == 1:
        return tuple_product(d), g
    wmul = tuple_product(d)

    def mul(x, y, low, mod):
        prod = [[0] * d for _ in range(2 * e - 1)]
        for i in range(e):
            a = x[i * d:(i + 1) * d]
            if any(a):
                for j in range(e):
                    c = wmul(a, y[j * d:(j + 1) * d], low, mod)
                    prod[i + j] = [u + v for u, v in zip(prod[i + j], c)]
        # r^i = p r^(i-e), and i <= 2e - 2 puts r^(i-e) below r^e
        for i in range(e, 2 * e - 1):
            prod[i - e] = [u + p * v for u, v in zip(prod[i - e], prod[i])]
        return tuple(c % mod for layer in prod[:e] for c in layer)
    return mul, g


@lru_cache(maxsize=64)
def integers_mod(p, d, e, s):
    """O/p^s for residue degree d and ramification e, one object per key
    so that embed_map's cache on a map is hit by every call:
    ``IntegersMod(p, p^s)`` when d e = 1, else an ``ExtensionMod``. Both
    take an element of a PadicContext tagged s in by ``unwrap`` and give
    one back by ``wrap``, its coordinate tuple ``c`` passed through as it
    is, and take a point's local coordinates by ``to_local``."""
    return IntegersMod(p, p ** s) if d * e == 1 else ExtensionMod(p, d, e, s)


class IntegersMod(Record):
    """Z/p^s on Python ints, the ring mod = p^s: O/p^s at d = e = 1."""

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

    @staticmethod
    def unwrap(z):
        return z.c[0]

    @staticmethod
    def wrap(ctx, x, s):
        return PadicElement(ctx, (x,), s)

    def to_local(self, ctx, x, centers):
        """The local coordinates (x - y) / p of the point x as elements of
        ctx tagged m - 1, centers holding (y in this ring, m, p^m) per
        coordinate with m <= s: the digits, tags and errors of
        ``PadicNeighborhood.to_local``."""
        p = self.p
        out = []
        for xi, (y, m, mod) in zip(x, centers):
            c = (xi - y) % mod
            if c % p:
                raise ValueError("point is not in the neighborhood")
            if m < 2:
                raise PrecisionError("division by r exhausts precision")
            out.append(PadicElement(ctx, (c // p,), m - 1))
        return tuple(out)


class ExtensionMod:
    """O/p^s when d e > 1, on ModElements holding the d e coordinate ints
    mod p^s of ``PadicContext.from_coords``, the tuple ``c`` of a
    PadicElement.

    Products are ``o_product``'s, sums and differences the kernel's
    ``vec_add`` and ``vec_sub``. Every operation reduces mod p^s, so
    ``reduce`` is the identity."""

    def __init__(self, p, d, e, s):
        self.p, self.d, self.e, self.s = p, d, e, s
        self.mod = p ** s
        self.n = d * e
        self.mul, self.low = o_product(p, d, e)

    def one(self):
        return self.from_coords([1])

    def zero(self):
        return self.from_coords([])

    def from_rational(self, c):
        return self.from_coords([rational_mod(c, self.p, self.mod)])

    @staticmethod
    def reduce(x):
        return x

    def unit_inverse(self, x):
        """Newton's iteration y -> y (2 - x y) from the lift of the
        residue-field inverse; the r-adic digits that are correct double
        at each step."""
        p, d = self.p, self.d
        if not any(c % p for c in x.c[:d]):
            raise IndeterminacyError(
                "denominator is not a unit along the orbit")
        residue = prime_power_field(p, d).from_coords(x.c[:d])
        y, two = self.from_coords(residue.inverse().rep), self.from_coords([2])
        for _ in range((self.e * self.s).bit_length()):
            y = y * (two - x * y)
        return y

    def from_coords(self, coords):
        c = [a % self.mod for a in coords]
        return ModElement(self, tuple(c + [0] * (self.n - len(c))))

    def unwrap(self, z):
        return ModElement(self, z.c)

    @staticmethod
    def wrap(ctx, x, s):
        return PadicElement(ctx, x.c, s)

    def to_local(self, ctx, x, centers):
        """``IntegersMod.to_local`` on the coordinate tuples: since r^e = p,
        dividing by r shifts the coordinates down by d, the r^0 ones
        divided by p going to the top."""
        p, d = self.p, self.d
        out = []
        for xi, (y, m, mod) in zip(x, centers):
            c = [(a - b) % mod for a, b in zip(xi.c, y.c)]
            if any([a % p for a in c[:d]]):
                raise ValueError("point is not in the neighborhood")
            if m < 2:
                raise PrecisionError("division by r exhausts precision")
            top = mod // p
            out.append(PadicElement(ctx, tuple(
                [a % top for a in c[d:]] + [a // p for a in c[:d]]), m - 1))
        return tuple(out)


class ModElement:
    """An element of an ExtensionMod ``ring``, ``c`` its coordinate ints."""

    __slots__ = ("ring", "c")

    def __init__(self, ring, c):
        self.ring = ring
        self.c = c

    def __add__(self, other):
        ring = self.ring
        return ModElement(ring, vec_add(self.c, other.c, ring.mod))

    def __sub__(self, other):
        ring = self.ring
        return ModElement(ring, vec_sub(self.c, other.c, ring.mod))

    def __mul__(self, other):
        ring = self.ring
        return ModElement(ring, ring.mul(self.c, other.c, ring.low,
                                         ring.mod))


class PadicElement:
    """Immutable ring element; ``c[j * d + i]`` is the b^i r^j coordinate,
    the d*e ints of ``PadicContext.from_coords`` mod p^prec."""

    __slots__ = ("ctx", "c", "prec")

    def __init__(self, ctx, c, prec):
        self.ctx = ctx
        self.c = c
        self.prec = prec

    @property
    def layers(self):
        """The coordinates r-degree by r-degree: ``layers[j][i]`` is the
        b^i r^j coordinate."""
        d = self.ctx.d
        return tuple(self.c[j:j + d] for j in range(0, len(self.c), d))

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
            return self.c
        return tuple([x % mod for x in self.c])

    def __add__(self, other):
        o, prec, mod = self._pair(other)
        if o is None:
            return NotImplemented
        a, b = self._tighten(prec, mod), o._tighten(prec, mod)
        return PadicElement(self.ctx, vec_add(a, b, mod), prec)

    __radd__ = __add__

    def __sub__(self, other):
        o, prec, mod = self._pair(other)
        if o is None:
            return NotImplemented
        a, b = self._tighten(prec, mod), o._tighten(prec, mod)
        return PadicElement(self.ctx, vec_sub(a, b, mod), prec)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return PadicElement(self.ctx,
                            vec_neg(self.c, self.ctx.modulus(self.prec)),
                            self.prec)

    def __mul__(self, other):
        ctx = self.ctx
        if isinstance(other, int):
            mod = ctx.modulus(self.prec)
            return PadicElement(ctx, tuple([x * other % mod for x in self.c]),
                                self.prec)
        o, prec, mod = self._pair(other)
        if o is None:
            return NotImplemented
        a, b = self._tighten(prec, mod), o._tighten(prec, mod)
        mul, low = ctx._omul
        return PadicElement(ctx, mul(a, b, low, mod), prec)

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

        v_r(sum_j c_j r^j) = min_j (e * v_p(c_j) + j); exact because the
        candidate valuations are pairwise distinct mod e.
        """
        ctx = self.ctx
        p, d, e = ctx.p, ctx.d, ctx.e
        best = INFINITY
        for i, x in enumerate(self.c):
            if x:
                v = e * _vp(x, p) + i // d
                if v < best:
                    best = v
        return best

    def is_unit(self):
        return self.valuation() == 0

    def in_base_subring(self):
        """True when the element lies in Z_p (to stored precision)."""
        return not any(self.c[1:])

    def residue(self):
        return self.ctx.residue(self)

    def coords(self):
        """The d*e coordinate integers as ``PadicContext.from_coords``
        reads them."""
        return list(self.c)

    # -- division -----------------------------------------------------------

    def inverse(self):
        """Multiplicative inverse of a unit, exact to stored precision
        (capped at the context's, as for every product): the ring's
        ``unit_inverse`` in ``integers_mod`` at that precision, one pow at
        d = e = 1."""
        if self.valuation() != 0:
            raise NonUnitError("division by non-unit")
        ctx = self.ctx
        prec = min(self.prec, ctx.precision)
        if ctx.d * ctx.e == 1:
            return PadicElement(
                ctx, (pow(self.c[0], -1, ctx.modulus(prec)),), prec)
        ring = integers_mod(ctx.p, ctx.d, ctx.e, prec)
        return ring.wrap(ctx, ring.unit_inverse(ring.unwrap(self)), prec)

    def divide_exact_p(self, s):
        """Divide by p^s; every coordinate must carry the factor. Costs s
        digits of precision."""
        if s == 0:
            return self
        if s >= self.prec:
            raise PrecisionError("division by p^%d exhausts precision" % s)
        ps = self.ctx.p ** s
        if any(x % ps for x in self.c):
            raise ValueError("element is not divisible by p^%d" % s)
        return PadicElement(self.ctx, tuple([x // ps for x in self.c]),
                            self.prec - s)

    def divide_uniformizer(self):
        """Divide by r (requires v_r >= 1). Costs one digit of precision
        (of the tag capped at the context's, as for every product).

        sum_j c_j r^j / r = sum_{j >= 1} c_j r^(j-1) + (c_0 / p) r^(e-1),
        since r^e = p; v_r >= 1 is exactly p | c_0."""
        ctx = self.ctx
        p, d = ctx.p, ctx.d
        if any(x % p for x in self.c[:d]):
            raise NonUnitError("element is a unit; cannot divide by r exactly")
        prec = min(self.prec, ctx.precision) - 1
        if prec < 1:
            raise PrecisionError("division by r exhausts precision")
        mod = ctx.modulus(prec)
        return PadicElement(ctx, tuple(
            [x % mod for x in self.c[d:]]
            + [x // p % mod for x in self.c[:d]]), prec)

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
