"""Good primes, Hensel lifts, and the invariant p-adic neighborhood.

Given a purely periodic point of the reduced map with a clear orbit, the
center y is lifted to O^n. On the residue ball at y, f^k acts by its power
series at y, and that series is f applied k times to the generic point
y + t of the ball, in the ring of series truncated at a total degree
(``series.SeriesRing``). The one map evaluator ``polynomials.apply_map``
applies f to points of O^n, to series and, for the Mahler orbit over Z_p,
to integers mod p^s (``padics.IntegersMod``). Subtracting y gives H, whose
constant term is divisible by the uniformizer r, and the rescaling
F(t) = H(r t)/r turns the ball into O^n with the iterate acting by integral
power series. The reduction of F mod r is an invertible affine map; its
order is the second factor of the period bound. That reduction reads only
the terms of degree at most 1, so the neighborhood is built from the 1-jets
of H and F, and the series truncated at degree ``cap`` are built by the
same function when first read."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

from .dynamics import CLEAR, locus_check, reduce_map
from .errors import (BadReductionError, DivisibilityError, NoGoodPrimeError,
                     OrbitNotClearError, PadicDynError, RamificationLeakError,
                     ResidueMismatchError, UnsupportedExtensionError)
from .finitefields import affine_order, is_prime
from .padics import IntegersMod, PadicContext, PadicElement
from .polynomials import apply_map, embed_map, matrix_det
from .series import SeriesRing, TruncatedSeries

FALLBACK_NOTE = ("analyticity fallback required: p <= 2(e+1), interpolation"
                 " will only be analytic on a smaller disc")


@dataclass(frozen=True)
class GoodPrimeReport:
    """Outcome of the prime scan: the chosen prime, the requested
    ramification e, the residue degree d (filled once a periodic point is
    found), whether the smaller-disc fallback applies, and the reasons each
    smaller prime was passed over."""

    p: int
    e: int = 1
    d: int = 1
    fallback: bool = False
    rejections: dict = None
    scan_range: tuple = None

    def with_residue_degree(self, d):
        return replace(self, d=d)


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


def choose_good_prime(f, scan_range=(3, 200), e=1):
    """Smallest odd prime in range with p-integral coefficients, nonzero
    reduced denominators and separable reduction; primes failing only the
    p > 2(e+1) preference are used as a fallback when nothing better exists.
    """
    f.check_dominant()
    lo, hi = scan_range
    rejections = {}
    fallback_candidate = None
    p = max(3, lo)
    if p % 2 == 0:
        p += 1
    chosen = None
    while p <= hi:
        if is_prime(p):
            reason = _prime_hard_reason(f, p)
            if reason is not None:
                rejections[p] = reason
            elif not prime_is_preferred(p, e):
                rejections[p] = FALLBACK_NOTE
                if fallback_candidate is None:
                    fallback_candidate = p
            else:
                chosen = p
                break
        p += 2
    if chosen is not None:
        return GoodPrimeReport(p=chosen, e=e, fallback=False,
                               rejections=rejections, scan_range=scan_range)
    if fallback_candidate is not None:
        rejections.pop(fallback_candidate, None)
        return GoodPrimeReport(p=fallback_candidate, e=e, fallback=True,
                               rejections=rejections, scan_range=scan_range)
    raise NoGoodPrimeError(
        f"no usable prime in {scan_range}; rejections: {rejections}")


def context_for_record(p, record, e=1, precision=64, eis_poly=None):
    """Build the lifting context whose residue field is the record's field.

    The search base field must be F_p itself (map coefficients are rational),
    so the record's field has degree m over F_p; a search over a larger base
    field is rejected.
    """
    if record.field.degree != record.m:
        raise UnsupportedExtensionError(
            "search base field is already an extension; tower lifts are not"
            " supported")
    unram = list(record.field.modulus) + [1]
    if eis_poly is None and e > 1:
        eis_poly = [-p] + [0] * (e - 1) + [1]
    return PadicContext(p, unram_poly=unram, eis_poly=eis_poly,
                        precision=precision)


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


# one IntegersMod object per modulus, so that embed_map's cache on f is hit
# by every call of apply_fk
_integers_mod = lru_cache(maxsize=64)(IntegersMod)


def _int_kernel_tag(f, zvec, ctx):
    """The common tag s of zvec when every coordinate is an element of ctx
    tagged s with 1 <= s <= precision; else None."""
    if len(zvec) != f.n:
        return None
    tags = {z.prec if isinstance(z, PadicElement) and z.ctx is ctx else None
            for z in zvec}
    s = tags.pop() if len(tags) == 1 else None
    return s if s is not None and 1 <= s <= ctx.precision else None


def map_eval_padic(f, point, ring=None):
    """f applied exactly (to precision) to a vector of PadicElements, ring
    their PadicContext, or of series in a SeriesRing: apply_map with the
    coefficients embedded in the context. Denominators must be units; a
    coefficient that is not p-integral raises BadReductionError before any
    denominator is checked."""
    if ring is None:
        ring = point[0].ctx
    if len(point) != f.n:
        raise ValueError("point dimension mismatch")
    ctx = ring.ctx if isinstance(ring, SeriesRing) else ring
    return apply_map(ring, embed_map(f, ctx), point)


class PadicNeighborhood:
    """The residue ball at a lifted periodic center, with local data.

    t-coordinates identify the ball with O^n via z = y + r t. ``H`` expands
    the k-th map iterate at the center (constant = f^k(y) - y, divisible by
    r); ``F`` is the rescaled series H(r t)/r with integral coefficients whose
    index-K coefficient is divisible by r^(|K|-1). Both are truncated at
    degree ``cap`` and built on first read; ``H1`` and ``F1`` are their
    1-jets, which the neighborhood is built from.
    """

    def __init__(self, ctx, f, period_k, center, orbit_points, H1, F1,
                 affine_order, cap, fbar=None, record=None,
                 lift_convention=None):
        self.ctx = ctx
        self.map = f
        self.period_k = period_k
        self.center = tuple(center)
        self.orbit_points = tuple(orbit_points)
        self.H1 = tuple(H1)
        self.F1 = tuple(F1)
        self.affine_order = affine_order
        self.cap = cap
        self.fbar = fbar
        self.record = record
        self.lift_convention = lift_convention
        self.n = f.n
        self.center_residue = tuple(ctx.residue(y) for y in center)
        # apply_fk may iterate on integers when d = e = 1 and every
        # component of f has a variable: a component without one evaluates
        # to tag precision in the PadicElement loop, not to the point's tag
        self._integer_loop = ctx.d == 1 and ctx.e == 1 and all(
            num.total_degree() or den.total_degree()
            for num, den in zip(f.numerators, f.denominators))

    @cached_property
    def _series_at_cap(self):
        ring = SeriesRing(self.ctx, self.n, self.cap)
        _, H, F = _local_series(self.map, self.period_k, self.center,
                                self.fbar, ring)
        return H, F

    H = property(lambda self: self._series_at_cap[0])
    F = property(lambda self: self._series_at_cap[1])

    # -- coordinates ---------------------------------------------------------

    def from_local(self, tvec):
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

    def apply_fk(self, zvec, times=1):
        """Exact p-adic application of f^(k*times) to an ambient point.

        When d = e = 1 and every coordinate carries the same tag s, the
        point is unwrapped to integers once, f is applied k*times times by
        its compiled function bound to ``IntegersMod(p, p^s)`` (the one
        ``apply_map`` calls), and the result is wrapped back with tag s.
        Every other point goes through ``map_eval_padic`` once per
        application of f. Both give the same digits and tags.
        """
        f, ctx = self.map, self.ctx
        count = self.period_k * times
        s = _int_kernel_tag(f, zvec, ctx) if self._integer_loop else None
        if s is not None:
            ring = _integers_mod(ctx.p, ctx.modulus(s))
            run = embed_map(f, ring).bound(ring)
            x = [z.layers[0][0] for z in zvec]
            for _ in range(count):
                x = run(x)
            return tuple(ctx._make(((c,),), s) for c in x)
        for _ in range(count):
            zvec = map_eval_padic(f, zvec, ctx)
        return zvec

    def iterated_local_map(self, multiplier=1):
        return IteratedMap(self, multiplier)

    def random_member(self, rng):
        u = [self.ctx.random_element(rng) for _ in range(self.n)]
        return self.from_local(u)

    def affine_parts(self):
        """(L, c) of the reduction of F mod r, read from the 1-jet F1: L the
        linear coefficients, c the constant terms, entries in the residue
        field."""
        ctx = self.ctx
        fld = ctx.residue_field
        n = self.n
        L = []
        c = []
        for i in range(n):
            coeffs = self.F1[i].coeffs
            row = []
            for j in range(n):
                idx = tuple(1 if t == j else 0 for t in range(n))
                row.append(ctx.residue(coeffs[idx]) if idx in coeffs
                           else fld.zero())
            L.append(row)
            zero_idx = (0,) * n
            c.append(ctx.residue(coeffs[zero_idx]) if zero_idx in coeffs
                     else fld.zero())
        return L, c

    def __repr__(self):
        return (f"PadicNeighborhood(p={self.ctx.p}, n={self.n},"
                f" k={self.period_k}, l={self.affine_order})")


class IteratedMap:
    """t -> local coordinates of f^(k*multiplier) applied exactly.

    Both ``__call__`` and ``orbit`` go through ``PadicNeighborhood.apply_fk``,
    which iterates on integers mod p^s when d = e = 1 and the point's tags
    agree. ``orbit`` iterates in ambient coordinates and converts each point
    to local coordinates once, so the whole orbit loses a single digit of
    precision instead of one per step.
    """

    def __init__(self, nbhd, multiplier=1):
        self.nbhd = nbhd
        self.multiplier = multiplier

    def __call__(self, tvec):
        nbhd = self.nbhd
        return nbhd.to_local(nbhd.apply_fk(nbhd.from_local(tvec),
                                           self.multiplier))

    def orbit(self, t0, count):
        nbhd = self.nbhd
        z = nbhd.from_local(t0)
        out = [nbhd.to_local(z)]
        for _ in range(count):
            z = nbhd.apply_fk(z, self.multiplier)
            out.append(nbhd.to_local(z))
        return out


def _local_series(f, k, y, fbar, ring):
    """The orbit points of the center y and the series H and F of f^k at y
    in ring: f applied k times to the generic point y + t, H = f^k(y + t) - y
    and F(t) = H(r t)/r. One function for the 1-jet and for the view at the
    cap, so the checks below run wherever F is built.

    Checks performed: the orbit of the center stays clear of the
    indeterminacy and ramification loci mod r; the constant terms of H have
    v_r >= 1; every F coefficient at index K with 1 <= |K| <= ring.cap has
    v_r >= |K| - 1 (violation aborts: it signals a bug or a bad prime).
    """
    ctx = ring.ctx
    iterate = ring.generic_point(y)
    orbit_points = [y]
    for _ in range(k):
        res_pt = tuple(ctx.residue(z) for z in orbit_points[-1])
        if locus_check(fbar, res_pt) != CLEAR:
            raise OrbitNotClearError(
                "orbit of the center hits the indeterminacy or ramification"
                " locus mod r")
        iterate = map_eval_padic(f, iterate, ring)
        orbit_points.append(tuple(s.constant_term() for s in iterate))

    H = [s - yi for s, yi in zip(iterate, y)]
    for h in H:
        v = h.constant_term().valuation()
        if v < 1:
            raise OrbitNotClearError(
                f"f^k does not fix the center mod r (constant valuation {v})")

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
    return orbit_points[:k], H, F


def build_neighborhood(f, k, center, ctx, cap=8, record=None,
                       lift_convention=None):
    """Expand f^k at the lifted center through degree 1 and normalize.

    The checks of _local_series run on the 1-jet, and the reduction of F
    mod r must be an invertible affine map. ``cap`` is the degree of the
    series ``H`` and ``F`` that the neighborhood builds when first read.
    """
    if cap < 1:
        raise ValueError(f"series degree {cap} is below 1")
    fbar = reduce_map(f, ctx)
    y = tuple(center)
    orbit_points, H1, F1 = _local_series(f, k, y, fbar,
                                         SeriesRing(ctx, f.n, 1))
    nbhd = PadicNeighborhood(ctx, f, k, y, orbit_points, H1, F1,
                             affine_order=None, cap=cap, fbar=fbar,
                             record=record, lift_convention=lift_convention)
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
