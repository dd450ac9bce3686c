"""Sparse multivariate polynomials over Q and rational self-maps of A^n.

Coefficients are exact Fractions throughout; p-adic coefficients only appear
after local expansion (series module). The canonical text form used by map
files and hashes looks like ``3*x1^2*x2 - 1/2`` with variables x1..xn.

A rational map is applied in five rings: Q (``QQ``), F_q (a FiniteField),
O (a PadicContext), O/p^s (``padics.integers_mod``: ints at d = e = 1,
tuples of d*e ints otherwise) and the truncated series
(``series.SeriesRing``). Each ring offers one(), zero(),
from_rational(c), reduce(x) and unit_inverse(x). ``embed_map`` carries the
map's coefficients into a ring once, as an ``EmbeddedMap`` of that ring,
kept on the map. Its ``run`` is the map compiled into one straight-line
Python function of the point, and ``iterate(x, times)`` loops over it in
the same function, both generated from the map's shape alone: its
exponent tuples, the coefficients that are exactly 1 or equal to the
ring's -1 (a subtraction) and the components whose denominator is a
constant. The source is spelled in ring calls, on
ints with ``% mod`` inline (IntegersMod) or on discrete logs (a search
view). It holds generated names only, never a coefficient; it is compiled
once per shape and spelling and bound to the embedding's coefficients and
ring on first use, so the binding lives as long as the map. ``run``
evaluates, checks, inverts and applies the denominators.
``evaluate_terms`` evaluates one polynomial, for the series and
``MultiPoly.eval_fraction``.
"""

from __future__ import annotations

import hashlib
import operator
import re
from fractions import Fraction
from functools import lru_cache, reduce

from .errors import IndeterminacyError, NotDominantError
from .padics import IntegersMod


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
    ends = []
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
        ends.append(pos)

    terms = {}
    i = 0
    start = 0

    def take_factor(i, coeff, expo):
        kind, val = tokens[i]
        if kind == "num":
            i += 1
            if i < len(tokens) and tokens[i] == ("op", "/"):
                if i + 1 >= len(tokens) or tokens[i + 1][0] != "num":
                    raise ValueError("expected denominator after '/'")
                if tokens[i + 1][1] == 0:
                    raise ValueError(f"zero denominator in term"
                                     f" {text[start:ends[i + 1]].strip()!r}")
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
        start = ends[i - 1] if i else 0
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
        # ring -> EmbeddedMap in that ring, filled by embed_map
        self._embedded = {}
        # field -> dynamics.ReducedMap, filled by dynamics.reduce_map
        self._reduced = {}

    @classmethod
    def from_texts(cls, n, numerators, denominators=None):
        # checked before parsing, which makes an exponent list of length n
        # per term
        if len(numerators) != n or (denominators is not None
                                    and len(denominators) != n):
            raise ValueError(f"a self-map of {n} variables needs {n}"
                             " numerators and denominators")
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
        return list(embed_map(self, QQ).run([Fraction(x) for x in point]))

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
    """f embedded in ring: per component (numerator terms, denominator
    terms, scale), made once per ring object and cached on f as an
    EmbeddedMap.

    A constant denominator c is inverted here when c is a unit of the ring:
    its terms are None and scale is the inverse of ring.from_rational(c),
    or None when c == 1. Any other denominator keeps its terms and is
    checked and inverted at each point. An equal ring that is another
    object is embedded afresh, so that coefficients live in the very ring
    object of the points.
    """
    hit = f._embedded.get(ring)
    if hit is not None and hit.ring is ring:
        return hit
    comps = []
    for num, den in zip(f.numerators, f.denominators):
        num_terms = embed_terms(num, ring)
        den_terms = embed_terms(den, ring)
        scale = None
        if den.total_degree() == 0:
            c = den.terms[(0,) * f.n]
            try:
                if c != 1:
                    scale = ring.unit_inverse(ring.from_rational(c))
                den_terms = None
            except IndeterminacyError:
                pass
        comps.append((num_terms, den_terms, scale))
    emb = f._embedded[ring] = EmbeddedMap(ring, comps)
    return emb


class EmbeddedMap:
    """A map embedded in one ring: per component (numerator terms,
    denominator terms, scale) as embed_map describes them, which iteration
    yields. ``run`` and ``iterate`` are bind_map's, bound on first use and
    kept as instance attributes."""

    def __init__(self, ring, components):
        self.ring = ring
        self.components = tuple(components)

    def __iter__(self):
        return iter(self.components)

    def __getattr__(self, name):
        if name not in ("run", "iterate"):
            raise AttributeError(name)
        self.run, self.iterate = bind_map(self.components, self.ring)
        return self.__dict__[name]


def map_shape(components, value=None, minus_one=None):
    """(shape, constants) of embed_map components. The shape is all that
    map_source reads: per component the numerator's (exponents, unit)
    pairs, the denominator's or None for a constant one, and whether a
    scale applies; unit is 1 for a coefficient exactly 1, -1 for one equal
    to minus_one (the ring's -1, if given) and 0 for any other. The
    constants are the embedded coefficients and scales, mapped by value if
    given, in the order map_source names them c0, c1, ...: per component
    the denominator's, else the scale, then the numerator's. A -1 stays
    among them, so that a spelling that multiplies by it finds it."""
    shape = []
    constants = []

    def constant(c):
        constants.append(c if value is None else value(c))
        return constants[-1]

    def terms_shape(terms):
        out = []
        for idx, c in terms:
            unit = 1
            if c is not None:
                c = constant(c)
                unit = -1 if minus_one is not None and c == minus_one else 0
            out.append((tuple(map(operator.index, idx)), unit))
        return tuple(out)

    for num_terms, den_terms, scale in components:
        den_shape = None
        if den_terms is not None:
            den_shape = terms_shape(den_terms)
        elif scale is not None:
            constant(scale)
        shape.append((terms_shape(num_terms), den_shape, scale is not None))
    return tuple(shape), tuple(constants)


def _power_steps(a):
    """Square-and-multiply for x^a: the (b, c) pairs with x^(b + c) =
    x^b * x^c, each made from x and the powers before it, up to x^a."""
    steps = []
    e = 1
    for bit in bin(a)[3:]:
        steps.append((e, e))
        e *= 2
        if bit == "1":
            steps.append((e, 1))
            e += 1
    return steps


# map_source's spellings: bind's ring parameters, a product, a product
# that only a reduced sum reads, a reduced sum
_SPELLINGS = {"ring": ("reduce", "reduce({} * {})", "reduce({} * {})",
                       "reduce({})"),
              "ints": ("mod", "{} * {} % mod", "{} * {}", "({}) % mod"),
              "logs": ("M, ZL", "M[{} + {}]", "M[{} + {}]", None)}


def map_source(shape, spelling="ring"):
    """The Python source of ``bind(c, reduce, inv, one, zero)`` for a
    map_shape shape, with the constants c named c0, c1, ... and the ring's
    reduce, unit_inverse, one() and zero(). bind returns (run, iterate).

    run(x) reads each coordinate it uses, makes each power x_i^a it needs
    once by _power_steps over earlier powers, then per component evaluates
    the denominator (unless it is constant), requires a unit and inverts
    it with inv, evaluates the numerator and scales it: what
    evaluate_terms and unit_inverse do, term for term. A term whose
    coefficient is -1 is subtracted, without a product by its constant.
    iterate(x, times) loops over those steps, x itself at times = 0; it is
    None unless the map is a self-map (as many components as coordinates).
    Exponents are ints, so the text holds generated names and coordinate
    indices only.

    The ``"ints"`` spelling binds (c, mod, inv, one, zero) and reduces by
    ``% mod``: a power is reduced only when a later power's product reads
    it, since a power that only terms read goes into a sum that is
    reduced, so every value run returns lies in [0, mod). The ``"logs"``
    one binds (c, M, ZL, inv, one, zero) on discrete logs, each product
    M[a + b] and each sum a Zech lookup, as in ``dynamics.SearchView``; it
    multiplies by a -1 as by any constant.
    """
    count = 0
    loads = []
    steps = []
    names = {}
    body = []
    ring_args, mul, lazy_mul, reduced_sum = _SPELLINGS[spelling]
    product = mul.format

    def const():
        nonlocal count
        count += 1
        return f"c{count - 1}"

    def power(i, a):
        if (i, 1) not in names:
            names[i, 1] = f"x{i}"
            loads.append(f"x{i} = x[{i}]")
        for b, c in _power_steps(a):
            if (i, b + c) not in names:
                names[i, b + c] = f"x{i}_{b + c}"
                steps.append((i, b, c))
        return names[i, a]

    def poly(terms):
        parts = []
        for idx, unit in terms:
            c = None if unit == 1 else const()
            subtract = unit == -1 and reduced_sum is not None
            factors = [] if c is None or subtract else [c]
            factors += [power(i, a) for i, a in enumerate(idx) if a]
            if reduced_sum is None:
                parts.append(reduce(product, factors) if factors else "one")
            else:
                text = " * ".join(factors) or "one"
                parts.append(f" - {text}" if subtract else f" + {text}")
        if reduced_sum is not None:
            # a leading subtraction, or none at all, starts from zero
            text = "".join(parts)
            text = text[3:] if text.startswith(" + ") else "zero" + text
            return reduced_sum.format(text)
        if len(parts) < 2:
            return parts[0] if parts else "zero"
        body.append(f"s = {parts[0]}")
        for part in parts[1:]:
            body.extend([f"t = {part}", "s = t if s == zero else s if t =="
                         " zero else M[s + ZL[t - s]]"])
        return "s"

    outputs = ""
    for k, (num, den, scaled) in enumerate(shape):
        if den is not None:
            body.append(f"d{k} = inv({poly(den)})")
            factor = f"d{k}"
        else:
            factor = const() if scaled else None
        value = poly(num)
        body.append(f"v{k} = " + (value if factor is None
                                  else product(value, factor)))
        outputs += f"v{k}, "
    # a power that a later product reads is reduced
    read = {(i, a) for i, b, c in steps for a in (b, c)}
    prelude = [f"{names[i, b + c]} = "
               + (mul if (i, b + c) in read else lazy_mul).format(
                   names[i, b], names[i, c]) for i, b, c in steps]
    lines = [f"def bind(c, {ring_args}, inv, one, zero):"]
    if count:
        unpack = "".join(f"c{j}, " for j in range(count))
        lines.append(f"    {unpack}= c")
    lines.append("    def run(x):")
    lines += [f"        {line}" for line in loads + prelude + body]
    lines.append(f"        return ({outputs})")
    if all(len(idx) == len(shape) for num, den, _ in shape
           for idx, _ in num + (den or ())):
        point = "".join(f"x{i}, " for i in range(len(shape)))
        lines += ["    def iterate(x, times):", f"        {point}= x",
                  "        for _ in range(times):"]
        lines += [f"            {line}" for line in prelude + body]
        lines += [f"            {point}= {outputs.rstrip()}",
                  f"        return ({point})", "    return run, iterate"]
    else:
        lines.append("    return run, None")
    return "\n".join(lines + [""])


@lru_cache(maxsize=256)
def _compiled(shape, spelling="ring"):
    """The bind function of map_source's text for shape and spelling,
    compiled once per pair (which determines the text)."""
    namespace = {}
    exec(compile(map_source(shape, spelling), "<padicdyn map>", "exec"),
         namespace)
    return namespace["bind"]


def bind_map(components, ring, value=None):
    """map_source's (run, iterate) for embed_map components, bound to ring
    and their constants (mapped by value if given), a coefficient equal to
    the ring's -1 spelled as a subtraction: on an IntegersMod in the ints
    spelling, each constant v as its balanced residue (v - mod if 2 v >
    mod: a small product), else in the ring spelling."""
    shape, constants = map_shape(components, value, ring.from_rational(-1))
    if isinstance(ring, IntegersMod):
        c = [v - ring.mod if 2 * v > ring.mod else v for v in constants]
        return _compiled(shape, "ints")(c, ring.mod, ring.unit_inverse, 1, 0)
    return _compiled(shape)(constants, ring.reduce, ring.unit_inverse,
                            ring.one(), ring.zero())


def evaluate_terms(ring, terms, point):
    """ring.reduce of the sum of c * prod_i point[i]^idx[i] over the
    (idx, c) pairs in terms.

    A coefficient c of None stands for an exact 1 and costs no product.
    Each power of a coordinate is made once, by _power_steps, and reduced.
    """
    powers = [{1: x} for x in point]

    def power(i, a):
        cache = powers[i]
        if a not in cache:
            for b, c in _power_steps(a):
                if b + c not in cache:
                    cache[b + c] = ring.reduce(cache[b] * cache[c])
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
