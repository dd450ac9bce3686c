"""Exact finite-field arithmetic over F_p[x]/(m(x)), and the kernel it shares
with the unramified layer of a p-adic ring.

A field is a quotient F_p[x]/(m(x)) by a monic irreducible m; its elements
wrap the tuple of their coefficients mod p, low to high. F_p is the degree-1
case, with modulus x and 1-tuples for elements. There are no towers:
extending a field that is already an extension is unsupported. Everything is
index-driven and deterministic: element enumeration order and the
irreducible-modulus search are reproducible, which downstream certificates
rely on.

The kernel works on such coefficient tuples in Z[x]/(x^m + low(x), mod):
``vec_add``, ``vec_sub``, ``vec_neg``, ``poly_mulmod`` and ``poly_powmod``.
A field calls it with mod = p; the unramified layer W = Z_p[b]/(g) of
``padics.PadicContext`` calls it with mod = p^s, and the Rabin test with
mod = p.

``FiniteField.from_rational`` reduces a rational mod p by ``rational_mod``. A
field is a ring for ``polynomials.apply_map``, the loop that applies a map
in every ring: a map reduced mod p keeps its polynomials as (exponents,
coefficient) terms of such residues, and there is no finite-field
polynomial class.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import (BadReductionError, FieldMismatchError,
                     IndeterminacyError, UnsupportedExtensionError)


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def rational_mod(x, p, mod):
    """A Fraction or int x modulo mod, a power of p; BadReductionError when
    p divides its denominator. The one reduction of a rational mod p^s."""
    x = Fraction(x)
    if x.denominator % p == 0:
        raise BadReductionError(
            f"{x} is not {p}-integral (bad-reduction coefficient)")
    return x.numerator * pow(x.denominator, -1, mod) % mod


def _prime_factors(n):
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


# -- the coefficient-tuple kernel: Z[x]/(x^m + low(x), mod) ------------------

def vec_add(x, y, mod):
    return tuple((a + b) % mod for a, b in zip(x, y))


def vec_sub(x, y, mod):
    return tuple((a - b) % mod for a, b in zip(x, y))


def vec_neg(x, mod):
    return tuple((-a) % mod for a in x)


def poly_mulmod(x, y, low, mod):
    """x * y modulo the monic x^m + low(x) and mod, for m-tuples x and y and
    the m-tuple low of the modulus's low coefficients."""
    m = len(low)
    if m == 1:
        return ((x[0] * y[0]) % mod,)
    prod = [0] * (2 * m - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                prod[i + j] += a * b
    # x^m = -(low_0 + ... + low_{m-1} x^{m-1}), top degree first
    for i in range(2 * m - 2, m - 1, -1):
        c = prod[i] % mod
        if c:
            for j, lj in enumerate(low):
                prod[i - m + j] -= c * lj
    return tuple(c % mod for c in prod[:m])


def poly_powmod(x, k, low, mod):
    """x^k modulo x^m + low(x) and mod, for k >= 0."""
    result = (1,) + (0,) * (len(low) - 1)
    while k:
        if k & 1:
            result = poly_mulmod(result, x, low, mod)
        k >>= 1
        if k:
            x = poly_mulmod(x, x, low, mod)
    return result


class FiniteField:
    """F_p[x]/(x^m + c_{m-1}x^{m-1}+...+c_0); F_p itself when m = 1.

    ``modulus`` holds the low coefficients (c_0, ..., c_{m-1}) of the monic
    irreducible modulus as ints mod p. Every degree-1 quotient is F_p with
    the same 1-tuple elements, so a degree-1 modulus is stored as x, (0,).
    """

    def __init__(self, p, modulus=(0,)):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        mod = tuple(c % p for c in modulus)
        if not mod:
            raise ValueError("modulus must have degree >= 1")
        if len(mod) == 1:
            mod = (0,)
        elif not is_irreducible(p, list(mod) + [1]):
            raise ValueError("modulus is reducible")
        self.modulus = mod
        self.degree = len(mod)
        self.order = p ** self.degree
        self._sig = (p, mod)
        self._zero = self.from_int(0)
        self._one = self.from_int(1)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, k):
        return FFElement(self, (k % self.p,) + (0,) * (self.degree - 1))

    def from_rational(self, x):
        return self.from_int(rational_mod(x, self.p, self.p))

    def reduce(self, x):
        return x

    def unit_inverse(self, x):
        if x.is_zero():
            raise IndeterminacyError("denominator vanishes at the point")
        # dividing by 1 is exact: skip the Fermat inverse
        return x if x.rep == self._one.rep else x.inverse()

    def from_coords(self, coords):
        """The element with these coefficients over F_p, low to high."""
        return FFElement(self, tuple(c % self.p for c in coords))

    def coerce(self, x):
        if isinstance(x, FFElement):
            if x.field != self:
                raise FieldMismatchError("element from a different field")
            return x
        if isinstance(x, int):
            return self.from_int(x)
        raise TypeError(f"cannot coerce {type(x).__name__}")

    def element_from_index(self, i):
        if not 0 <= i < self.order:
            raise ValueError("index out of range")
        digits = []
        for _ in range(self.degree):
            i, r = divmod(i, self.p)
            digits.append(r)
        return FFElement(self, tuple(digits))

    def index_of(self, x):
        x = self.coerce(x)
        idx = 0
        for c in reversed(x.rep):
            idx = idx * self.p + c
        return idx

    def elements(self):
        for i in range(self.order):
            yield self.element_from_index(i)

    def extension(self, m):
        """Degree-m extension of F_p with the smallest-index irreducible
        modulus, one field object per (p, m). An extension field has no
        extension but itself."""
        if m == 1:
            return self
        if self.degree != 1:
            raise UnsupportedExtensionError(
                f"cannot extend {self!r}: only F_p has extensions; tower"
                " searches are not supported")
        return _extension_field(self.p, m)

    def modulus_indexes(self):
        """Low coefficients of the modulus (None for a prime field)."""
        return None if self.degree == 1 else list(self.modulus)

    def __eq__(self, other):
        return isinstance(other, FiniteField) and self._sig == other._sig

    def __hash__(self):
        return hash(self._sig)

    def __repr__(self):
        if self.degree == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.degree})"


# one field object per (p, m), so that embed_map's cache on f is hit by the
# search, its re-check and the verifier's replay alike
@lru_cache(maxsize=64)
def _extension_field(p, m):
    return FiniteField(p, modulus=find_irreducible(p, m))


class FFElement:
    __slots__ = ("field", "rep")

    def __init__(self, field, rep):
        self.field = field
        self.rep = rep

    def _coerce(self, other):
        if isinstance(other, FFElement):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatchError("mixed finite fields")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FFElement(self.field, vec_add(self.rep, o.rep, self.field.p))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FFElement(self.field, vec_sub(self.rep, o.rep, self.field.p))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FFElement(self.field, vec_sub(o.rep, self.rep, self.field.p))

    def __neg__(self):
        return FFElement(self.field, vec_neg(self.rep, self.field.p))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        fld = self.field
        return FFElement(fld, poly_mulmod(self.rep, o.rep, fld.modulus,
                                          fld.p))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        fld = self.field
        return FFElement(fld, poly_powmod(self.rep, k, fld.modulus, fld.p))

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in a finite field")
        fld = self.field
        return FFElement(fld, poly_powmod(self.rep, fld.order - 2,
                                          fld.modulus, fld.p))

    def is_zero(self):
        return not any(self.rep)

    def coords(self):
        """Coefficients over F_p, low to high (length = field degree)."""
        return list(self.rep)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.rep == o.rep

    def __hash__(self):
        # reps are reduced mod p, so equal elements have equal reps
        return hash((self.field._sig, self.rep))

    def __repr__(self):
        return f"ff({self.field.index_of(self)};q={self.field.order})"


# -- univariate polynomials over F_p (dense low-to-high int lists) -----------

def _upoly_trim(cs):
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _upoly_mod(a, f, p):
    # f monic
    a = [c % p for c in a]
    m = len(f) - 1
    while len(a) > m:
        c = a.pop()
        if not c:
            continue
        for j in range(m):
            k = len(a) - m + j
            a[k] = (a[k] - c * f[j]) % p
    return _upoly_trim(a)


def _upoly_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        lead_inv = pow(b[-1], -1, p)
        a = _upoly_mod(a, [c * lead_inv % p for c in b], p)
        a, b = b, a
    if a:
        lead_inv = pow(a[-1], -1, p)
        a = [c * lead_inv % p for c in a]
    return a


def is_irreducible(p, f):
    """Rabin test for a monic polynomial f (full int coefficient list,
    low to high, reduced mod p) over F_p."""
    m = len(f) - 1
    if m < 1 or f[-1] != 1:
        raise ValueError("expected a monic polynomial of degree >= 1")
    if m == 1:
        return True
    if f[0] == 0:  # divisible by x
        return False
    low = tuple(f[:-1])
    x = (0, 1) + (0,) * (m - 2)
    powers = [x]  # powers[i] = x^(p^i) mod f
    for _ in range(m):
        powers.append(poly_powmod(powers[-1], p, low, p))
    if powers[m] != x:
        return False
    for ell in _prime_factors(m):
        if len(_upoly_gcd(vec_sub(powers[m // ell], x, p), f, p)) > 1:
            return False
    return True


def find_irreducible(p, m):
    """Smallest-index monic irreducible of degree m over F_p; returns its
    low coefficients."""
    for idx in range(p ** m):
        digits = []
        i = idx
        for _ in range(m):
            i, r = divmod(i, p)
            digits.append(r)
        if is_irreducible(p, digits + [1]):
            return tuple(digits)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


# -- small dense matrices of field elements ---------------------------------

def mat_identity(field, n):
    return [[field.one() if i == j else field.zero() for j in range(n)]
            for i in range(n)]


def mat_mul(A, B):
    n, m, k = len(A), len(B[0]), len(B)
    return [[_dot(A[i], [B[t][j] for t in range(k)]) for j in range(m)]
            for i in range(n)]


def mat_vec(A, v):
    return [_dot(row, v) for row in A]


def _dot(xs, ys):
    acc = None
    for x, y in zip(xs, ys):
        term = x * y
        acc = term if acc is None else acc + term
    return acc


def mat_eq(A, B):
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))
