"""Good primes, Hensel lifts, and the invariant p-adic neighborhood.

Given a purely periodic point of the reduced map with a clear orbit, the
center y is lifted to O^n. On the residue ball at y, f^k acts by its power
series at y, and that series is f applied k times to the generic point
y + t of the ball, in the ring of series truncated at a total degree
(``series.SeriesRing``). One map evaluator, the ``run`` of f embedded in a
ring by ``polynomials.embed_map``, applies f to points of O^n, to series
and to a point's coordinates in O/p^s (``padics.integers_mod``), s the
point's least tag capped at the precision: ``apply_fk``, the orbit of
``IteratedMap`` and the translation below. Subtracting y gives H, whose
constant term is divisible by the uniformizer r, and the rescaling
F(t) = H(r t)/r turns the ball into O^n with the iterate acting by
integral power series.

The reduction of F mod r is an invertible affine map t -> L t + c; its
order is the second factor of the period bound. It reads no series: L is
the Jacobian of the reduced map's k-th iterate at the residue of y, the
product of the reduced Jacobians along the residue orbit (differentiation
commutes with reduction mod p), and c is the residue of (f^k(y) - y)/r,
which reads only f^k(y) mod r^2, so f^k is applied to y in O/p^2 (r^2
divides p^2, and reduction mod p^2 is a ring homomorphism). The series H
and F truncated at degree ``cap`` are built at working precision when
first read."""

from __future__ import annotations

from functools import cached_property

from .dynamics import CLEAR, locus_check, reduce_map
from .errors import (BadReductionError, DivisibilityError, NoGoodPrimeError,
                     OrbitNotClearError, PadicDynError, PrecisionError,
                     RamificationLeakError, ResidueMismatchError,
                     UnsupportedExtensionError)
from .finitefields import affine_order, is_prime, mat_identity, mat_mul
from .padics import PadicContext, PadicElement, integers_mod
from .polynomials import embed_map, matrix_det
from .records import Record
from .series import SeriesRing, TruncatedSeries

FALLBACK_NOTE = ("analyticity fallback required: p <= 2(e+1), interpolation"
                 " will only be analytic on a smaller disc")


class GoodPrimeReport(Record):
    """Outcome of the prime scan: the chosen prime, the requested
    ramification e, whether the smaller-disc fallback applies, and the
    reasons each smaller prime was passed over."""

    __slots__ = ("p", "e", "fallback", "rejections")
    _defaults = {"e": 1, "fallback": False, "rejections": None}


def _prime_hard_reason(f, p):
    """None if p passes the reduction checks, else a short reason."""
    try:
        ctx = PadicContext(p, precision=1)
        reduce_map(f, ctx)
    except PadicDynError as exc:  # bad reduction / indeterminate / inseparable
        return str(exc)
    return None


def prime_is_preferred(p, e):
    return p > 2 * (e + 1)


def validate_prime(f, p, e=1):
    """(ok, reason, fallback) for an explicitly requested prime."""
    if p == 2:
        return False, "p must be odd", False
    reason = _prime_hard_reason(f, p)
    if reason is not None:
        return False, reason, False
    return True, None, not prime_is_preferred(p, e)


# choose_good_prime scans the odd primes below this bound
PRIME_SCAN_LIMIT = 200


def choose_good_prime(f, e=1):
    """Smallest odd prime below PRIME_SCAN_LIMIT with p-integral
    coefficients, nonzero reduced denominators and separable reduction;
    primes failing only the p > 2(e+1) preference are used as a fallback
    when nothing better exists.
    """
    f.check_dominant()
    rejections = {}
    fallback_candidate = None
    for p in filter(is_prime, range(3, PRIME_SCAN_LIMIT, 2)):
        reason = _prime_hard_reason(f, p)
        if reason is not None:
            rejections[p] = reason
        elif prime_is_preferred(p, e):
            return GoodPrimeReport(p=p, e=e, fallback=False,
                                   rejections=rejections)
        else:
            rejections[p] = FALLBACK_NOTE
            if fallback_candidate is None:
                fallback_candidate = p
    if fallback_candidate is not None:
        rejections.pop(fallback_candidate, None)
        return GoodPrimeReport(p=fallback_candidate, e=e, fallback=True,
                               rejections=rejections)
    raise NoGoodPrimeError(
        f"no usable odd prime below {PRIME_SCAN_LIMIT}; rejections:"
        f" {rejections}")


def context_for_record(p, record, e=1, precision=64):
    """Build the lifting context whose residue field is the record's field,
    O = W[r]/(r^e - p) with W unramified of degree m.

    The search base field must be F_p itself (map coefficients are rational),
    so the record's field has degree m over F_p; a search over a larger base
    field is rejected.
    """
    if record.field.degree != record.m:
        raise UnsupportedExtensionError(
            "search base field is already an extension; tower lifts are not"
            " supported")
    return PadicContext(p, d=record.m, e=e, precision=precision)


def hensel_lift(record, ctx, convention="teichmuller"):
    """Lift the finite-field periodic point into O^n.

    The context's residue field must equal the record's field. On affine
    space every coordinate-wise lift reduces correctly; the default is the
    multiplicative (Teichmuller) lift, with the naive digit lift behind the
    ``convention`` flag.
    """
    if ctx.residue_field != record.field:
        raise ResidueMismatchError(
            "context residue field does not contain the point's field in a"
            " matching presentation")
    lifts = []
    for c in record.point:
        res = ctx.residue_field.coerce(c)
        if convention == "teichmuller":
            lifts.append(ctx.teichmuller_lift(res))
        elif convention == "naive":
            lifts.append(ctx.naive_lift(res))
        else:
            raise ValueError(f"unknown lift convention {convention!r}")
    return tuple(lifts)


def map_eval_padic(f, point, ring=None):
    """f applied exactly (to precision) to a vector of PadicElements, ring
    their PadicContext, or of series in a SeriesRing: the run of f embedded
    in ring. Denominators must be units; a coefficient that is not
    p-integral raises BadReductionError before any denominator is
    checked."""
    if ring is None:
        ring = point[0].ctx
    if len(point) != f.n:
        raise ValueError("point dimension mismatch")
    return embed_map(f, ring).run(point)


class PadicNeighborhood:
    """The residue ball at a lifted periodic center, with local data.

    t-coordinates identify the ball with O^n via z = y + r t. ``H`` expands
    the k-th map iterate at the center (constant = f^k(y) - y, divisible by
    r); ``F`` is the rescaled series H(r t)/r with integral coefficients whose
    index-K coefficient is divisible by r^(|K|-1). Both are truncated at
    degree ``cap`` and built on first read. ``L`` and ``c`` are the linear
    part (a list of rows) and the translation of the reduction of F mod r,
    entries in the residue field.
    """

    def __init__(self, ctx, f, period_k, center, L, c, affine_order, cap,
                 fbar=None, record=None, lift_convention=None):
        self.ctx = ctx
        self.map = f
        self.period_k = period_k
        self.center = tuple(center)
        self.L = L
        self.c = c
        self.affine_order = affine_order
        self.cap = cap
        self.fbar = fbar
        self.record = record
        self.lift_convention = lift_convention
        self.n = f.n
        self.center_residue = tuple(ctx.residue(y) for y in center)

    @cached_property
    def _series_at_cap(self):
        ring = SeriesRing(self.ctx, self.n, self.cap)
        return _local_series(self.map, self.period_k, self.center, ring)

    H = property(lambda self: self._series_at_cap[0])
    F = property(lambda self: self._series_at_cap[1])

    # -- coordinates ---------------------------------------------------------

    def from_local(self, tvec):
        if len(tvec) != self.n:
            raise ValueError("point dimension mismatch")
        r = self.ctx.uniformizer()
        return tuple(y + r * t for y, t in zip(self.center, tvec))

    def to_local(self, zvec):
        out = []
        for y, z in zip(self.center, zvec):
            diff = z - y
            if diff.valuation() < 1:
                raise ValueError("point is not in the neighborhood")
            out.append(diff.divide_uniformizer())
        return tuple(out)

    def membership(self, point):
        """True iff every coordinate is congruent to the center's mod r.

        Accepts PadicElements or exact rationals; a non-p-integral rational
        coordinate simply makes the point a non-member.
        """
        if len(point) != self.n:
            raise ValueError("point dimension mismatch")
        for w, y, res in zip(point, self.center, self.center_residue):
            if isinstance(w, PadicElement):
                if (w - y).valuation() < 1:
                    return False
            else:
                try:
                    if self.ctx.residue_field.from_rational(w) != res:
                        return False
                except BadReductionError:
                    return False
        return True

    def _ring(self, zvec):
        """(ring, s, x): O/p^s (``padics.integers_mod``) at s = the least
        tag of zvec's coordinates capped at the precision, and x the
        coordinates cut to s in it. Coordinates are coerced into the
        context, so those of an equal context object are taken as they
        are; ValueError on a point of the wrong dimension. Every component
        of f has a variable, so the ring loop keeps the tag s as the
        PadicElement loop does on the point cut to s: a constant component
        zeroes a row of the Jacobian, and reduce_map rejects f before a
        neighborhood is built."""
        ctx = self.ctx
        if len(zvec) != self.n:
            raise ValueError("point dimension mismatch")
        zvec = [ctx.coerce(z) for z in zvec]
        s = min(ctx.precision, *[z.prec for z in zvec])
        ring = integers_mod(ctx.p, ctx.d, ctx.e, s)
        return ring, s, [ring.unwrap(z if z.prec == s
                                     else ctx.from_coords(z.c, s))
                         for z in zvec]

    def apply_fk(self, zvec, times=1):
        """Exact p-adic application of f^(k*times) to an ambient point.

        The point is unwrapped once into O/p^s (``_ring``), f is applied
        k*times times by one ``iterate`` call of f embedded there, and the
        result is wrapped back with tag s: the digits and tags of the
        ``map_eval_padic`` loop on the point cut to s.
        """
        ring, s, x = self._ring(zvec)
        x = embed_map(self.map, ring).iterate(x, self.period_k * times)
        return tuple(ring.wrap(self.ctx, c, s) for c in x)

    def iterated_local_map(self, multiplier=1):
        return IteratedMap(self, multiplier)

    def random_member(self, rng):
        u = [self.ctx.random_element(rng) for _ in range(self.n)]
        return self.from_local(u)

    def affine_parts(self):
        """(L, c): the reduction of F mod r is t -> L t + c over the
        residue field."""
        return self.L, self.c

    def __repr__(self):
        return (f"PadicNeighborhood(p={self.ctx.p}, n={self.n},"
                f" k={self.period_k}, l={self.affine_order})")


class IteratedMap:
    """t -> local coordinates of f^(k*multiplier) applied exactly.

    ``orbit`` iterates in ambient coordinates and converts each point to
    local coordinates once, so the whole orbit loses a single digit of
    precision instead of one per step. It unwraps the ambient start once
    into O/p^s (``PadicNeighborhood._ring``), runs f^(k*multiplier) there
    by one ``iterate`` call per orbit point, and takes each point's local
    coordinates in the ring (its ``to_local``), tagged m - 1 with m =
    min(s, tag of y), PrecisionError before any step if m < 2: the digits,
    tags and errors of ``PadicNeighborhood.to_local`` after the
    ``map_eval_padic`` loop on the start cut to s.
    """

    def __init__(self, nbhd, multiplier=1):
        self.nbhd = nbhd
        self.multiplier = multiplier

    def __call__(self, tvec):
        return self.orbit(tvec, 1)[1]

    def orbit(self, t0, count):
        nbhd = self.nbhd
        ring, s, x = nbhd._ring(nbhd.from_local(t0))
        ctx = nbhd.ctx
        iterate = embed_map(nbhd.map, ring).iterate
        steps = nbhd.period_k * self.multiplier
        centers = []
        for y in nbhd.center:
            m = min(s, y.prec)
            if m < 2:
                raise PrecisionError("division by r exhausts precision")
            centers.append((ring.unwrap(y), m, ctx.modulus(m)))
        out = [ring.to_local(ctx, x, centers)]
        for _ in range(count):
            x = iterate(x, steps)
            out.append(ring.to_local(ctx, x, centers))
        return out


def _local_series(f, k, y, ring):
    """The series H and F of f^k at y in ring: f applied k times to the
    generic point y + t, H = f^k(y + t) - y and F(t) = H(r t)/r.

    build_neighborhood has checked that the orbit of y is clear mod r and
    that r divides f^k(y) - y. Every F coefficient at index K with
    1 <= |K| <= ring.cap must have v_r >= |K| - 1 (violation aborts: it
    signals a bug or a bad prime).
    """
    ctx = ring.ctx
    iterate = ring.generic_point(y)
    for _ in range(k):
        iterate = map_eval_padic(f, iterate, ring)
    H = [s - yi for s, yi in zip(iterate, y)]

    r = ctx.uniformizer()
    rpow = [ctx.one()]
    for _ in range(ring.cap - 1):
        rpow.append(rpow[-1] * r)
    F = []
    for i, h in enumerate(H):
        coeffs = {}
        for idx, c in h.coeffs.items():
            deg = sum(idx)
            c = c.divide_uniformizer() if deg == 0 else c * rpow[deg - 1]
            # F_K = H_K r^(|K|-1) with H_K in O: f has p-integral
            # coefficients and unit denominators along the orbit, so every
            # coefficient of H is integral and this cannot fire for |K| >= 1
            if c.valuation() < deg - 1:
                raise DivisibilityError(
                    f"F_{i + 1} coefficient at {idx} has v_r ="
                    f" {c.valuation()} < {deg - 1}")
            coeffs[idx] = c
        F.append(TruncatedSeries(ctx, ring.n, ring.cap, coeffs))
    return H, F


def _reduced_linear_part(fbar, k, point):
    """The Jacobian of fbar^k at point, J(x_(k-1)) ... J(x_0) along the
    orbit x_0 = point, x_(i+1) = fbar(x_i); OrbitNotClearError if the
    orbit meets the indeterminacy or ramification locus."""
    n, fld = fbar.n, fbar.field
    jacobian = fbar.jacobian.run
    L = mat_identity(fld, n)
    for _ in range(k):
        if locus_check(fbar, point) != CLEAR:
            raise OrbitNotClearError(
                "orbit of the center hits the indeterminacy or ramification"
                " locus mod r")
        entries = jacobian(point)
        L = mat_mul([entries[i * n:(i + 1) * n] for i in range(n)], L)
        point = fbar.apply(point)
    return L


def _reduced_translation(nbhd):
    """The residue of (f^k(y) - y)/r, from the center y mod p^2 (r^2
    divides p^2 for every e): OrbitNotClearError if r does not divide
    f^k(y) - y."""
    ctx = nbhd.ctx
    y = tuple(ctx.from_coords(z.coords(), min(z.prec, 2))
              for z in nbhd.center)
    c = []
    for z, yi in zip(nbhd.apply_fk(y), y):
        h = z - yi
        v = h.valuation()
        if v < 1:
            raise OrbitNotClearError(
                f"f^k does not fix the center mod r (constant valuation {v})")
        try:
            c.append(ctx.residue(h.divide_uniformizer()))
        except PrecisionError:
            raise PrecisionError(
                "the neighborhood's translation (f^k(y) - y)/r exhausts"
                f" precision {ctx.precision}",
                "raise the precision (--precision)") from None
    return c


def build_neighborhood(f, k, center, ctx, cap=8, record=None,
                       lift_convention=None):
    """The neighborhood of f^k at the lifted center, with the reduction
    t -> L t + c of F mod r and its order.

    L is the reduced Jacobian of f^k along the residue orbit of the center,
    which must stay clear of the loci; c needs f^k(y) mod r^2 only, and r
    must divide f^k(y) - y. L must be invertible. ``cap`` is the degree of
    the series ``H`` and ``F`` that the neighborhood builds when first read.
    """
    if cap < 1:
        raise ValueError(f"series degree {cap} is below 1")
    fbar = reduce_map(f, ctx)
    nbhd = PadicNeighborhood(ctx, f, k, center, L=None, c=None,
                             affine_order=None, cap=cap, fbar=fbar,
                             record=record, lift_convention=lift_convention)
    nbhd.L = _reduced_linear_part(fbar, k, nbhd.center_residue)
    nbhd.c = _reduced_translation(nbhd)
    nbhd.affine_order = reduced_affine_order(nbhd)
    return nbhd


def reduced_affine_order(nbhd):
    """Order of the reduction of F mod r as an affine map of F_q^n
    (finitefields.affine_order)."""
    L, c = nbhd.affine_parts()
    if matrix_det(L).is_zero():
        raise RamificationLeakError(
            "linear part of the reduced map is singular")
    return affine_order(nbhd.ctx.residue_field, L, c)
