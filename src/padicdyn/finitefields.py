"""Exact finite-field arithmetic over F_p and F_p[x]/(m(x)).

A field is either F_p, whose elements wrap an int in range(p), or a quotient
F_p[x]/(m(x)) by a monic irreducible m of degree at least 2, whose elements
wrap the tuple of their coefficients mod p, low to high. There are no
towers: extending a field that is already an extension is unsupported.
Everything is index-driven and deterministic: element enumeration order and
the irreducible-modulus search are reproducible, which downstream
certificates rely on.

``FiniteField.from_rational`` reduces a rational mod p by ``rational_mod``. A
field is a ring for ``polynomials.apply_map``, the loop that applies a map
in every ring: a map reduced mod p keeps its polynomials as (exponents,
coefficient) terms of such residues, and there is no finite-field
polynomial class.
"""

from __future__ import annotations

from fractions import Fraction

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


class FiniteField:
    """F_p when ``modulus`` is None, else F_p[x]/(x^m + c_{m-1}x^{m-1}+...+c_0).

    ``modulus`` holds the low coefficients (c_0, ..., c_{m-1}) of the monic
    modulus as ints mod p; it must be irreducible of degree m >= 2.
    """

    def __init__(self, p, modulus=None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        if modulus is None:
            self.modulus = None
            self.degree = 1
        else:
            mod = tuple(c % p for c in modulus)
            if len(mod) < 2:
                raise ValueError("modulus must have degree >= 2")
            if not is_irreducible(p, list(mod) + [1]):
                raise ValueError("modulus is reducible")
            self.modulus = mod
            self.degree = len(mod)
        self.order = p ** self.degree
        self._sig = (p, self.modulus)
        self._zero = self.from_int(0)
        self._one = self.from_int(1)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, k):
        if self.modulus is None:
            return FFElement(self, k % self.p)
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
        if self.modulus is None:
            return self.from_int(coords[0])
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
        if self.modulus is None:
            return FFElement(self, i)
        digits = []
        for _ in range(self.degree):
            i, r = divmod(i, self.p)
            digits.append(r)
        return FFElement(self, tuple(digits))

    def index_of(self, x):
        x = self.coerce(x)
        if self.modulus is None:
            return x.rep
        idx = 0
        for c in reversed(x.rep):
            idx = idx * self.p + c
        return idx

    def elements(self):
        for i in range(self.order):
            yield self.element_from_index(i)

    def extension(self, m):
        """Degree-m extension of F_p with the smallest-index irreducible
        modulus. An extension field has no extension but itself."""
        if m == 1:
            return self
        if self.modulus is not None:
            raise UnsupportedExtensionError(
                f"cannot extend {self!r}: only F_p has extensions; tower"
                " searches are not supported")
        return FiniteField(self.p, modulus=find_irreducible(self.p, m))

    def modulus_indexes(self):
        """Low coefficients of the modulus (None for a prime field)."""
        return None if self.modulus is None else list(self.modulus)

    # -- raw rep arithmetic -------------------------------------------------

    def _radd(self, x, y):
        p = self.p
        if self.modulus is None:
            return (x + y) % p
        return tuple((a + b) % p for a, b in zip(x, y))

    def _rsub(self, x, y):
        p = self.p
        if self.modulus is None:
            return (x - y) % p
        return tuple((a - b) % p for a, b in zip(x, y))

    def _rneg(self, x):
        p = self.p
        if self.modulus is None:
            return (-x) % p
        return tuple((-a) % p for a in x)

    def _rmul(self, x, y):
        p = self.p
        if self.modulus is None:
            return (x * y) % p
        m = self.degree
        prod = [0] * (2 * m - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    prod[i + j] += a * b
        # x^m = -(c_0 + ... + c_{m-1} x^{m-1}), top degree first
        for i in range(2 * m - 2, m - 1, -1):
            c = prod[i] % p
            if c:
                for j, mj in enumerate(self.modulus):
                    prod[i - m + j] -= c * mj
        return tuple(c % p for c in prod[:m])

    def __eq__(self, other):
        return isinstance(other, FiniteField) and self._sig == other._sig

    def __hash__(self):
        return hash(self._sig)

    def __repr__(self):
        if self.modulus is None:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.degree})"


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
        return FFElement(self.field, self.field._radd(self.rep, o.rep))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FFElement(self.field, self.field._rsub(self.rep, o.rep))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FFElement(self.field, self.field._rsub(o.rep, self.rep))

    def __neg__(self):
        return FFElement(self.field, self.field._rneg(self.rep))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FFElement(self.field, self.field._rmul(self.rep, o.rep))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = self.field.one()
        powed = self
        while k:
            if k & 1:
                result = result * powed
            powed = powed * powed
            k >>= 1
        return result

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in a finite field")
        if self.field.modulus is None:
            return FFElement(self.field, pow(self.rep, -1, self.field.p))
        return self ** (self.field.order - 2)

    def is_zero(self):
        if self.field.modulus is None:
            return self.rep == 0
        return not any(self.rep)

    def coords(self):
        """Coefficients over F_p, low to high (length = field degree)."""
        if self.field.modulus is None:
            return [self.rep]
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


def _upoly_sub(a, b, p):
    n = max(len(a), len(b))
    return _upoly_trim([((a[i] if i < len(a) else 0)
                         - (b[i] if i < len(b) else 0)) % p
                        for i in range(n)])


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


def _upoly_mulmod(a, b, f, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _upoly_mod(out, f, p)


def _upoly_powmod(a, k, f, p):
    result = [1]
    a = _upoly_mod(a, f, p)
    while k:
        if k & 1:
            result = _upoly_mulmod(result, a, f, p)
        a = _upoly_mulmod(a, a, f, p)
        k >>= 1
    return result


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
    x = [0, 1]
    # frob[i] = x^(p^i) mod f, for the i we need
    needed = {m // ell for ell in _prime_factors(m)}
    needed.add(m)
    frob = x
    powers = {}
    for i in range(1, m + 1):
        frob = _upoly_powmod(frob, p, f, p)
        if i in needed:
            powers[i] = frob
    if _upoly_sub(powers[m], x, p):
        return False
    for ell in _prime_factors(m):
        g = _upoly_gcd(_upoly_sub(powers[m // ell], x, p), f, p)
        if len(g) - 1 >= 1:
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
