"""Mahler-series interpolation of orbits and its analyticity bookkeeping.

For a self-map Phi of O^n that is the identity mod r with the coefficient
divisibility inherited from the normalized local series, the orbit
j -> Phi^j(omega) extends to a continuous map from Z_p, given coordinatewise
by g_i(z) = omega_i + sum_k b_ik * binomial(z, k). The coefficients are the
finite differences of the orbit at 0; their valuations obey
v_r(b_ik) >= ceil((k+1)/2), which is verified on every computed coefficient
and treated as a build-breaking diagnostic if it ever fails.

Analyticity: the series is analytic on p^l Z_p once the slope
1/(2e) - 1/((p-1) p^l) is positive; the least such l is the analyticity
exponent. Margins are reported in exact rational arithmetic, both from the
slope form and from the constant C_k = p^(l + nested-floor sum) / k! that
controls binomial(p^l z, k).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PrecisionError, TheoryViolationError
from .padics import INFINITY, binomial_eval, factorial_valuation
from .records import Record


def orbit(phi, omega, count):
    """omega, Phi(omega), ..., Phi^count(omega) at working precision.

    ``phi`` is any callable on coordinate vectors; an IteratedMap is used
    through its ``orbit`` method, which applies f^(k*multiplier) in ambient
    coordinates and converts each point to local coordinates once, so the
    whole run costs one digit of precision rather than one per step. For
    every (p, d, e) the whole orbit runs in O/p^s (``padics.integers_mod``),
    s the start's least tag capped at the precision, and only its points
    are wrapped.
    """
    omega = tuple(omega)
    if hasattr(phi, "orbit"):
        pts = [tuple(v) for v in phi.orbit(omega, count)]
    else:
        pts = [omega]
        cur = omega
        for _ in range(count):
            cur = tuple(phi(cur))
            pts.append(cur)
    for j, pt in enumerate(pts):
        for i, c in enumerate(pt):
            if c.prec <= 0:
                raise PrecisionError(
                    f"precision collapsed at orbit index {j},"
                    f" coordinate {i + 1}")
    return pts


def _too_few_digits(ctx, kept, k_max):
    return PrecisionError(
        f"the orbit keeps {kept} of the {ctx.precision} digits of working"
        f" precision, too few to resolve v_r up to {(k_max + 2) // 2} at"
        f" k_max {k_max}",
        "raise the precision (--precision) or lower k_max (--kmax)")


class MahlerInterpolation(Record):
    """Center, truncation order, per-coordinate coefficients b_ik and their
    valuation profile: coeffs[i][k-1] = b_ik for 1 <= k <= k_max, and
    valuations[i][k-1] its v_r, INFINITY for zero-to-precision."""

    __slots__ = ("ctx", "omega", "k_max", "coeffs", "valuations",
                 "orbit_points")

    @property
    def n(self):
        return len(self.omega)

    @property
    def analyticity(self):
        """The exponent l_an of the smallest certified-analytic disc
        p^l Z_p for this context."""
        return analyticity_exponent(self.ctx)

    def valuation(self, i, k):
        """v_r(b_ik), both indexes 1-based."""
        return self.valuations[i - 1][k - 1]

    def tail_valuation(self):
        """Guaranteed v_r of the discarded tail when evaluating on Z_p."""
        return (self.k_max + 3) // 2

    def min_valuation_row(self):
        """Per-k minimum of v_r(b_ik) over the coordinates i."""
        return [min(self.valuations[i][k] for i in range(self.n))
                for k in range(self.k_max)]


def mahler_coefficients(phi, omega, k_max, orbit_points=None):
    """Interpolation coefficients b_ik as finite differences of the orbit.

    b_ik = sum_{j=0..k} (-1)^(k-j) C(k,j) (Phi^j(omega))_i, read from a
    forward-difference table on the points' coordinate integers and tagged
    with the least tag of (Phi^j(omega))_i over j <= k. Raises
    TheoryViolationError if any coefficient violates v_r >= ceil((k+1)/2)
    -- this must never fire for maps built through the neighborhood
    pipeline -- and PrecisionError when the working precision cannot
    resolve valuations that large.
    """
    pts = orbit_points
    if pts is None:
        try:
            pts = orbit(phi, omega, k_max)
        except PrecisionError:  # a local coordinate keeps no digit
            raise _too_few_digits(omega[0].ctx, 0, k_max) from None
    if len(pts) < k_max + 1:
        raise ValueError("need k_max + 1 orbit points")
    omega = tuple(pts[0])
    ctx = omega[0].ctx
    n = len(omega)

    min_prec = min(c.prec for pt in pts for c in pt)
    if ctx.e * min_prec <= (k_max + 2) // 2:
        raise _too_few_digits(ctx, min_prec, k_max)

    coeffs = []
    valuations = []
    for i in range(n):
        # forward differences on the coordinate integers, one column of the
        # orbit per coordinate: b_ik is a Z-combination of the orbit
        # points, and PadicElement addition and integer scaling act
        # coordinate by coordinate
        columns = list(zip(*[pt[i].coords() for pt in pts[:k_max + 1]]))
        prec = pts[0][i].prec
        row = []
        vals = []
        for k in range(1, k_max + 1):
            prec = min(prec, pts[k][i].prec)
            columns = [[b - a for a, b in zip(col, col[1:])]
                       for col in columns]
            acc = ctx.from_coords([col[0] for col in columns], prec)
            v = acc.valuation()
            bound = (k + 2) // 2
            if v is not INFINITY and v < bound:
                raise TheoryViolationError(
                    f"theory violation: v_r(b_{i + 1},{k}) = {v} <"
                    f" {bound}")
            row.append(acc)
            vals.append(v)
        coeffs.append(tuple(row))
        valuations.append(tuple(vals))
    return MahlerInterpolation(ctx=ctx, omega=omega, k_max=k_max,
                               coeffs=tuple(coeffs),
                               valuations=tuple(valuations),
                               orbit_points=tuple(tuple(p) for p in pts))


def analyticity_exponent(ctx):
    """Least l >= 0 with (p-1) p^l > 2e, making the Mahler tail converge as a
    power series on p^l Z_p."""
    p, e = ctx.p, ctx.e
    l = 0
    while (p - 1) * p ** l <= 2 * e:
        l += 1
    return l


class MahlerValue(Record):
    __slots__ = ("values", "tail_valuation")


def evaluate(interp, z):
    """Partial Mahler sum at z in Z_p, with the guaranteed tail valuation.

    An int z is evaluated with exact integer binomials (no precision loss),
    summed on coordinate integers under the least tag of omega and of the
    coefficients with a nonzero weight; a PadicElement z must lie in the
    base subring and pays v_p(k!) digits per term. For 0 <= z <= k_max the
    partial sum reproduces the orbit point exactly, since binomial(z, k)
    vanishes for k > z.
    """
    if isinstance(z, int):
        # the binomial row by C(z, k) = C(z, k-1) (z - k + 1) / k, exact,
        # up to the first zero, after which every weight is zero
        ws = []
        w = 1
        for k in range(interp.k_max):
            w = w * (z - k) // (k + 1)
            if not w:
                break
            ws.append(w)
        values = []
        for start, row in zip(interp.omega, interp.coeffs):
            row = row[:len(ws)]
            prec = min([start.prec] + [b.prec for b in row])
            acc = [a + sum([w * b.c[j] for w, b in zip(ws, row)])
                   for j, a in enumerate(start.c)]
            values.append(interp.ctx.from_coords(acc, prec))
        return MahlerValue(tuple(values), interp.tail_valuation())
    if not z.in_base_subring():
        raise ValueError("Mahler evaluation requires z in Z_p")
    # a weight that is zero only to precision still sets precision tags
    weights = [(k, binomial_eval(z, k)) for k in range(1, interp.k_max + 1)]
    values = []
    for i in range(interp.n):
        acc = interp.omega[i]
        for k, w in weights:
            acc = acc + interp.coeffs[i][k - 1] * w
        values.append(acc)
    return MahlerValue(tuple(values), interp.tail_valuation())


class AnalyticityReport(Record):
    """Exact margin table for convergence of the rescaled series on p^l Z_p.

    ``margins`` rows are (k, slope_margin, ck_margin); a margin is the r-adic
    valuation of the k-th rescaled term's bound, INFINITY when every b_ik is
    zero to precision. ``certified`` requires a positive slope, nonnegative
    margins and growth across the computed range.
    """

    __slots__ = ("l", "slope", "slope_positive", "margins",
                 "margins_nonnegative", "eventually_increasing", "certified")


def _nested_floor_sum(k, p, l):
    total = 0
    t = k - 1
    for _ in range(l):
        t = t // p
        total += t
    return total


def analyticity_margins(interp, l):
    """Margin report for analyticity on p^l Z_p.

    slope margin:  v_r(b_k) + e*(k(p^l - 1)/((p-1) p^l) - v_p(k!))
    C_k margin:    v_r(b_k) + e*(l + nested-floor sum - v_p(k!))
    computed exactly from the valuation profile: the slope margins as
    integer numerators over their common denominator (p-1) p^l, compared
    as such, and each margin made a Fraction once.
    """
    ctx = interp.ctx
    p, e = ctx.p, ctx.e
    den = (p - 1) * p ** l
    slope = Fraction(den - 2 * e, 2 * e * den)
    step = e * (p ** l - 1)
    rows = []
    finite = []
    for k, column in enumerate(zip(*interp.valuations), 1):
        v = min(column)
        if v is INFINITY:
            rows.append((k, INFINITY, INFINITY))
            continue
        vfact = factorial_valuation(k, p)
        main = (v - e * vfact) * den + k * step
        ck = v + e * (l + _nested_floor_sum(k, p, l) - vfact)
        rows.append((k, Fraction(main, den), Fraction(ck)))
        finite.append(main)
    nonneg = all(m >= 0 for m in finite)
    if len(finite) < 4:
        increasing = True
    else:
        third = max(1, len(finite) // 3)
        increasing = min(finite[-third:]) > min(finite[:third])
    certified = slope > 0 and nonneg and increasing
    return AnalyticityReport(l=l, slope=slope, slope_positive=slope > 0,
                             margins=tuple(rows),
                             margins_nonnegative=nonneg,
                             eventually_increasing=increasing,
                             certified=certified)
