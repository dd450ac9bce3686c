"""End-to-end pipeline: period bounds, witness classification and replayable
non-preperiodicity certificates.

The logic that makes a certificate sound: any preperiodic point of the
invariant neighborhood satisfies f^N(w) = w for N = k * l * p^l_an (finite
period k of the reduced point, order l of the reduced affine map, analyticity
exponent l_an). Equality is always decided in exact rational arithmetic, so a
verified inequality f^N(w) != w proves w has an infinite orbit no matter what
precision the p-adic side used.
"""

from __future__ import annotations

import decimal
import hashlib
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .dynamics import PeriodicPointRecord, find_periodic_point, reduce_map, \
    verify_record
from .errors import (CertificateFormatError, IndeterminacyError,
                     InternalInconsistencyError, SearchBudgetError,
                     UnsupportedExtensionError)
from .finitefields import FiniteField
from .mahler import INFINITY, analyticity_exponent, mahler_coefficients
from .neighborhood import (GoodPrimeReport, build_neighborhood,
                           choose_good_prime, context_for_record, hensel_lift,
                           validate_prime)
from .padics import PadicContext
from .polynomials import RationalSelfMap

CERT_FORMAT = "padicdyn-certificate"

PERIODIC = "periodic"
NON_PREPERIODIC = "non_preperiodic"
OUTSIDE = "outside_neighborhood"


@dataclass(frozen=True)
class PeriodBound:
    """N = k * affine_order * p^analyticity_exponent."""

    period_k: int
    affine_order: int
    analyticity_exponent: int
    bound: int


def period_bound(nbhd):
    ctx = nbhd.ctx
    l_an = analyticity_exponent(ctx)
    n = nbhd.period_k * nbhd.affine_order * ctx.p ** l_an
    return PeriodBound(period_k=nbhd.period_k,
                       affine_order=nbhd.affine_order,
                       analyticity_exponent=l_an,
                       bound=n)


@dataclass(frozen=True)
class ClassifyResult:
    kind: str
    period: int = None
    iterate: tuple = None             # f^N(omega) when non-preperiodic
    differs_at: int = None            # 1-based coordinate
    difference_valuation: int = None  # v_r of the differing coordinate


def rational_vr(x, ctx):
    """v_r of a nonzero rational number inside the context's fraction field."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of exact zero requested")
    p = ctx.p
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return ctx.e * v


def classify(nbhd, bound, omega):
    """periodic / non_preperiodic / outside_neighborhood for an exact
    rational point.

    Members are iterated exactly; the first return to omega gives the
    minimal period (which necessarily divides N). If f^N(omega) != omega the
    point is not preperiodic, by the contrapositive of the bounded-period
    property; the differing coordinate and its r-adic valuation are recorded.
    """
    omega = tuple(Fraction(w) for w in omega)
    if not nbhd.membership(omega):
        return ClassifyResult(kind=OUTSIDE)
    f = nbhd.map
    z = list(omega)
    for t in range(1, bound.bound + 1):
        try:
            z = f.eval_fraction(z)
        except IndeterminacyError as exc:
            raise InternalInconsistencyError(
                "exact iterate left the locus where the map is defined,"
                " impossible for a member: " + str(exc))
        for w in z:
            if w.denominator % nbhd.ctx.p == 0:
                raise InternalInconsistencyError(
                    "exact iterate left the p-integral locus while the"
                    " p-adic orbit stays integral")
        if tuple(z) == omega:
            return ClassifyResult(kind=PERIODIC, period=t)
    for i, (a, b) in enumerate(zip(z, omega)):
        if a != b:
            return ClassifyResult(
                kind=NON_PREPERIODIC, iterate=tuple(z), differs_at=i + 1,
                difference_valuation=rational_vr(a - b, nbhd.ctx))
    raise InternalInconsistencyError("iterate equals omega but the periodic"
                                     " scan missed it")


def witness_candidates(nbhd):
    """Deterministic scan order: omega = naive-lift + p * v over integer
    offset vectors v in shells of increasing max-norm, lexicographic within
    a shell."""
    ctx = nbhd.ctx
    if ctx.d != 1:
        raise UnsupportedExtensionError(
            "rational witness search needs an F_p-rational periodic point"
            " (residue degree 1)")
    base = [res.rep for res in nbhd.center_residue]
    p = ctx.p
    shell = 0
    while True:
        for v in itertools.product(range(-shell, shell + 1),
                                   repeat=nbhd.n):
            if shell and max(abs(a) for a in v) != shell:
                continue
            yield tuple(Fraction(b + p * a) for b, a in zip(base, v))
        shell += 1


def find_witness(nbhd, bound, search_budget=200, kmax=32):
    """Scan rational members in canonical order and certify the first
    non-preperiodic one.

    Raises SearchBudgetError when the budget runs out; if every classified
    point was periodic with one common period dividing N, the error flags
    "finite-order suspected".
    """
    periods = []
    scanned = 0
    for omega in witness_candidates(nbhd):
        if scanned >= search_budget:
            break
        scanned += 1
        result = classify(nbhd, bound, omega)
        if result.kind == PERIODIC:
            periods.append(result.period)
            continue
        if result.kind == NON_PREPERIODIC:
            return make_certificate(nbhd, bound, omega, result, kmax=kmax)
    finite_order = (bool(periods) and len(periods) == scanned
                    and len(set(periods)) == 1
                    and bound.bound % periods[0] == 0)
    msg = (f"no witness within budget {search_budget}"
           + ("; finite-order suspected" if finite_order else ""))
    raise SearchBudgetError(msg, periods=periods,
                            finite_order_suspected=finite_order,
                            scanned=scanned)


# -- pipeline facade ----------------------------------------------------------

@dataclass
class PipelineResult:
    map: RationalSelfMap
    prime_report: GoodPrimeReport
    ctx: PadicContext
    record: PeriodicPointRecord
    nbhd: object
    bound: PeriodBound


def run_pipeline(f, prime="auto", e=1, precision=64, degree=8, m_max=6,
                 lift="teichmuller", prime_scan=(3, 200)):
    """Map -> good prime -> periodic point -> lift -> neighborhood -> bound."""
    f.check_dominant()
    if prime == "auto" or prime is None:
        report = choose_good_prime(f, prime_scan, e=e)
    else:
        ok, reason, fallback = validate_prime(f, int(prime), e=e)
        if not ok:
            raise ValueError(f"prime {prime} rejected: {reason}")
        report = GoodPrimeReport(p=int(prime), e=e, fallback=fallback,
                                 rejections={}, scan_range=None)
    base_ctx = PadicContext(report.p, precision=1)
    fbar = reduce_map(f, base_ctx)
    record = find_periodic_point(fbar, m_max=m_max)
    ctx = context_for_record(report.p, record, e=e, precision=precision)
    report = report.with_residue_degree(ctx.d)
    fbar_full = reduce_map(f, ctx)
    center = hensel_lift(record, ctx, convention=lift)
    nbhd = build_neighborhood(f, record.period, center, ctx, cap=degree,
                              fbar=fbar_full, record=record,
                              lift_convention=lift)
    bound = period_bound(nbhd)
    return PipelineResult(map=f, prime_report=report, ctx=ctx, record=record,
                          nbhd=nbhd, bound=bound)


# -- exact decimal text -------------------------------------------------------

# Integers of at most this many bits (at most 1,234 digits, well under
# CPython's 4,300-digit int/str conversion guard) go through str(). Larger
# ones are split on powers of 2 and reassembled in exact decimal arithmetic,
# which is subquadratic where str() is quadratic (Brent & Zimmermann, Modern
# Computer Arithmetic, sec. 1.7).
TEXT_DIRECT_BITS = 4096
_TEXT_LEAF_BITS = 128


def _int_text(n):
    """str(n) for any int, without CPython's quadratic conversion."""
    if n.bit_length() <= TEXT_DIRECT_BITS:
        return str(n)
    if n < 0:
        return "-" + _int_text(-n)
    D = decimal.Decimal
    powers = {}

    def pow2(w):
        # the halving below asks only for widths w and w + 1 per level
        result = powers.get(w)
        if result is None:
            if w <= _TEXT_LEAF_BITS:
                result = D(2) ** w
            elif w - 1 in powers:
                result = powers[w - 1] * 2
            else:
                result = pow2(w >> 1) * pow2(w - (w >> 1))
            powers[w] = result
        return result

    def convert(m, w):
        # 0 <= m < 2^w
        if w <= _TEXT_LEAF_BITS:
            return D(m)
        half = w >> 1
        hi = m >> half
        return convert(hi, w - half) * pow2(half) + convert(m - (hi << half),
                                                            half)

    with decimal.localcontext() as dctx:
        dctx.prec = decimal.MAX_PREC
        dctx.Emax = decimal.MAX_EMAX
        dctx.Emin = decimal.MIN_EMIN
        dctx.traps[decimal.Inexact] = True
        return str(convert(n, n.bit_length()))


def fraction_text(x):
    """Exactly str(Fraction(x)), in subquadratic time for huge terms."""
    x = Fraction(x)
    text = _int_text(x.numerator)
    if x.denominator == 1:
        return text
    return f"{text}/{_int_text(x.denominator)}"


# -- certificates -------------------------------------------------------------

def _canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(data):
    body = {k: v for k, v in data.items() if k != "digest"}
    return hashlib.sha256(_canonical_json(body).encode()).hexdigest()


def _center_digits(nbhd):
    return [[str(c) for layer in y.layers for c in layer]
            for y in nbhd.center]


def _mahler_profile(nbhd, bound, omega, kmax):
    """Valuation profile of the interpolation of psi = Phi^(p^l_an) at the
    witness's local coordinates."""
    ctx = nbhd.ctx
    mult = bound.affine_order * ctx.p ** bound.analyticity_exponent
    psi = nbhd.iterated_local_map(mult)
    t0 = nbhd.to_local(tuple(ctx.from_rational(w) for w in omega))
    interp = mahler_coefficients(psi, t0, kmax)
    table = [["inf" if v is INFINITY else int(v) for v in row]
             for row in interp.valuations]
    return {"k_max": kmax, "valuations": table}, interp


class Certificate:
    """Replayable proof object; ``data`` is the JSON-serializable payload."""

    def __init__(self, data):
        self.data = data

    def json_text(self):
        return json.dumps(self.data, sort_keys=True, indent=1) + "\n"

    @classmethod
    def from_json_text(cls, text):
        try:
            data = json.loads(text)
        except ValueError as exc:
            # malformed JSON, or an integer literal past the interpreter's
            # int/str conversion limit
            raise CertificateFormatError(f"bad certificate JSON: {exc}")
        if not isinstance(data, dict):
            raise CertificateFormatError("certificate must be a JSON object")
        return cls(data)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.json_text())

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_text(fh.read())

    def __eq__(self, other):
        return isinstance(other, Certificate) and self.data == other.data


def make_certificate(nbhd, bound, omega, result, kmax=32):
    ctx = nbhd.ctx
    f = nbhd.map
    record = nbhd.record
    if record is None:
        raise ValueError("neighborhood carries no periodic point record")
    profile, _ = _mahler_profile(nbhd, bound, omega, kmax)
    from .polynomials import poly_text
    data = {
        "format": CERT_FORMAT,
        "version": __version__,
        "map": {
            "n": f.n,
            "numerators": [poly_text(p) for p in f.numerators],
            "denominators": [poly_text(p) for p in f.denominators],
        },
        "map_hash": f.map_hash(),
        "context": {
            "p": ctx.p,
            "d": ctx.d,
            "e": ctx.e,
            "precision": ctx.precision,
            "unram_poly": list(ctx.unram_poly),
            "eis_poly": [list(c) for c in ctx.eis_low_raw] + [[1] + [0] * (ctx.d - 1)],
        },
        "reduction": {
            "m": record.m,
            "field_modulus": record.field_modulus_indexes(),
            "point": record.point_coords(),
            "period": record.period,
            "orbit": [[elt.coords() for elt in pt] for pt in record.orbit],
            "enumeration_index": record.enumeration_index,
        },
        "neighborhood": {
            "lift_convention": nbhd.lift_convention,
            "center_digits": _center_digits(nbhd),
            "k": nbhd.period_k,
            "affine_order": nbhd.affine_order,
            "divisibility_degree": nbhd.cap,
        },
        "period_bound": {
            "k": bound.period_k,
            "affine_order": bound.affine_order,
            "analyticity_exponent": bound.analyticity_exponent,
            "bound": bound.bound,
            "formula": "bound = k * affine_order * p^analyticity_exponent",
        },
        "witness": [fraction_text(w) for w in omega],
        "payload": {
            "iterate": [fraction_text(w) for w in result.iterate],
            "differs_at": result.differs_at,
            "difference_valuation": result.difference_valuation,
        },
        "mahler_profile": profile,
    }
    data["digest"] = _digest(data)
    return Certificate(data)


# -- verification -------------------------------------------------------------

class VerificationReport:
    def __init__(self):
        self.stages = []

    def add(self, name, ok, detail=""):
        self.stages.append((name, bool(ok), "" if ok else detail))
        return ok

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.stages)

    def failures(self):
        return [(name, detail) for name, ok, detail in self.stages if not ok]

    def __bool__(self):
        return self.ok

    def __repr__(self):
        status = "valid" if self.ok else "INVALID"
        return f"<VerificationReport {status}, {len(self.stages)} stages>"


# The integer scalars make_certificate writes, apart from the payload's
# (checked in the iterate stage). JSON also spells numbers as true or 2.0,
# which Python compares equal to 1 and 2, so the verifier requires each of
# these to be an int and nothing else.
_INT_FIELDS = (("map", "n"), ("context", "p"), ("context", "d"),
               ("context", "e"), ("context", "precision"),
               ("reduction", "period"), ("reduction", "enumeration_index"),
               ("neighborhood", "k"), ("neighborhood", "affine_order"),
               ("neighborhood", "divisibility_degree"),
               ("period_bound", "k"), ("period_bound", "affine_order"),
               ("period_bound", "analyticity_exponent"),
               ("period_bound", "bound"), ("mahler_profile", "k_max"))


def _is_int(value, expected):
    return type(value) is int and value == expected


def _non_int_problem(data):
    bad = [f"{section}.{key}" for section, key in _INT_FIELDS
           if type(data[section][key]) is not int]
    return f"not JSON integers: {', '.join(bad)}" if bad else None


def _field_ints(value, count, p, name):
    """``value`` itself when it is a list of exactly ``count`` ints in
    range(p), the only spelling make_certificate writes."""
    if not (isinstance(value, list) and len(value) == count
            and all(type(c) is int and 0 <= c < p for c in value)):
        raise CertificateFormatError(
            f"{name} must be a list of {count} integers in 0..{p - 1}")
    return value


def _rebuild_record(data, p):
    red = data["reduction"]
    m = red["m"]
    if type(m) is not int or m < 1:
        raise CertificateFormatError("reduction.m must be a positive integer")
    if m == 1:
        if red["field_modulus"] is not None:
            raise CertificateFormatError(
                "reduction.field_modulus must be null for m = 1")
        fld = FiniteField(p)
    else:
        fld = FiniteField(p, modulus=_field_ints(
            red["field_modulus"], m, p, "reduction.field_modulus"))

    def mk_point(coords, name):
        return tuple(fld.from_coords(_field_ints(c, m, p, name))
                     for c in coords)

    point = mk_point(red["point"], "reduction.point coordinate")
    orbit = tuple(mk_point(cs, "reduction.orbit coordinate")
                  for cs in red["orbit"])
    return PeriodicPointRecord(
        m=m, field=fld, point=point, period=red["period"], orbit=orbit,
        enumeration_index=red["enumeration_index"], visited={})


def _payload_problem(payload, iterate, omega, ctx):
    """None when the payload is the canonical text of the exact replayed
    f^N(omega), with the right differing coordinate and valuation; else what
    is wrong. Canonical Fraction text is injective, so text equality is
    exact rational equality."""
    recorded = payload["iterate"]
    if not isinstance(recorded, list) or len(recorded) != len(iterate):
        return (f"payload iterate is not a list of {len(iterate)}"
                " coordinates")
    for i, (text, z) in enumerate(zip(recorded, iterate), 1):
        if text != fraction_text(z):
            return (f"payload iterate coordinate {i} is not the canonical"
                    " text of the exact f^N(witness)")
    differs = next((i for i, (a, b) in enumerate(zip(iterate, omega), 1)
                    if a != b), None)
    if differs is None:
        return "exact f^N(witness) equals the witness"
    if not _is_int(payload.get("differs_at"), differs):
        return f"f^N(witness) first differs from the witness at {differs}"
    dv = rational_vr(iterate[differs - 1] - omega[differs - 1], ctx)
    if not _is_int(payload.get("difference_valuation"), dv):
        return f"difference valuation is {dv}"
    return None


def verify_certificate(cert):
    """Independently replay every stage of a certificate.

    Returns a VerificationReport (truthy iff valid) naming each failed stage.
    The witness payload is checked against the exact rational f^N(witness):
    its recorded text must be that value's canonical text.
    """
    rep = VerificationReport()
    data = cert.data

    try:
        if not rep.add("digest", data.get("digest") == _digest(data),
                       "integrity digest mismatch"):
            return rep
        if (data.get("format") != CERT_FORMAT
                or data.get("version") != __version__):
            problem = "unknown format or version"
        else:
            problem = _non_int_problem(data)
        if not rep.add("format", problem is None, problem):
            return rep

        mp = data["map"]
        f = RationalSelfMap.from_texts(mp["n"], mp["numerators"],
                                       mp["denominators"])
        rep.add("map_hash", f.map_hash() == data["map_hash"],
                "map hash mismatch")

        cctx = data["context"]
        p = cctx["p"]
        ok, reason, _fallback = validate_prime(f, p, e=cctx["e"])
        rep.add("prime", ok, reason or "")

        ctx = PadicContext(p, unram_poly=cctx["unram_poly"],
                           eis_poly=cctx["eis_poly"],
                           precision=cctx["precision"])
        rep.add("context", ctx.d == cctx["d"] and ctx.e == cctx["e"],
                "context parameters inconsistent")

        record = _rebuild_record(data, p)
        base_ctx = PadicContext(p, precision=1)
        fbar = reduce_map(f, base_ctx)
        point_ok = verify_record(fbar, record)
        idx = 0
        for c in reversed(record.point):
            idx = idx * record.field.order + record.field.index_of(c)
        point_ok = point_ok and idx == record.enumeration_index
        rep.add("periodic_point", point_ok,
                "periodic point failed re-verification")
        if not point_ok:
            return rep

        nb = data["neighborhood"]
        center = hensel_lift(record, ctx, convention=nb["lift_convention"])
        rebuilt = build_neighborhood(
            f, record.period, center, ctx, cap=nb["divisibility_degree"],
            record=record, lift_convention=nb["lift_convention"])
        rep.add("center",
                _center_digits(rebuilt) == nb["center_digits"],
                "re-lifted center differs")
        rep.add("neighborhood",
                rebuilt.period_k == nb["k"]
                and rebuilt.affine_order == nb["affine_order"],
                "k or affine order mismatch")

        pb = data["period_bound"]
        l_an = analyticity_exponent(ctx)
        rep.add("analyticity_exponent", l_an == pb["analyticity_exponent"],
                "analyticity exponent mismatch")
        n_expected = rebuilt.period_k * rebuilt.affine_order * p ** l_an
        # only the recomputed N is iterated below
        if not rep.add("period_bound",
                       pb["k"] == rebuilt.period_k
                       and pb["affine_order"] == rebuilt.affine_order
                       and pb["analyticity_exponent"] == l_an
                       and pb["bound"] == n_expected
                       and pb.get("formula") ==
                       "bound = k * affine_order * p^analyticity_exponent",
                       "period bound factors do not reproduce"):
            return rep

        omega = [Fraction(w) for w in data["witness"]]
        rep.add("witness", data["witness"] == [fraction_text(w)
                                               for w in omega],
                "witness is not the canonical text of its coordinates")
        rep.add("membership", rebuilt.membership(omega),
                "witness is not in the neighborhood")

        iterate = f.iterate_fraction(omega, pb["bound"])
        problem = _payload_problem(data["payload"], iterate, omega, ctx)
        rep.add("iterate", problem is None, problem)

        bound = PeriodBound(period_k=pb["k"], affine_order=pb["affine_order"],
                            analyticity_exponent=pb["analyticity_exponent"],
                            bound=pb["bound"])
        prof = data["mahler_profile"]
        recomputed, _ = _mahler_profile(rebuilt, bound, omega,
                                        prof["k_max"])
        # as JSON text, so that true or 3.0 cannot stand in for 1 or 3
        rep.add("mahler_profile",
                _canonical_json(recomputed) == _canonical_json(prof),
                "interpolation valuation profile does not reproduce")
    except Exception as exc:  # any replay blow-up invalidates the certificate
        rep.add("replay", False, f"{type(exc).__name__}: {exc}")
    return rep
