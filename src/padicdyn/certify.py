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
import math
from fractions import Fraction

from . import __version__
from .dynamics import (PeriodicPointRecord, _walk_orbit, find_periodic_point,
                       point_at_index, reduce_map)
from .errors import (CertificateFormatError, IndeterminacyError,
                     InternalInconsistencyError, PrecisionError,
                     SearchBudgetError, UnsupportedExtensionError)
from .mahler import INFINITY, analyticity_exponent, mahler_coefficients
from .neighborhood import (GoodPrimeReport, build_neighborhood,
                           choose_good_prime, context_for_record, hensel_lift,
                           validate_prime)
from .padics import PadicContext, _vp, integers_mod
from .polynomials import RationalSelfMap, embed_map, poly_text
from .records import Record

CERT_FORMAT = "padicdyn-certificate"

PERIODIC = "periodic"
NON_PREPERIODIC = "non_preperiodic"
OUTSIDE = "outside_neighborhood"


class PeriodBound(Record):
    """N = k * affine_order * p^analyticity_exponent."""

    __slots__ = ("period_k", "affine_order", "analyticity_exponent", "bound")


def period_bound(nbhd):
    ctx = nbhd.ctx
    l_an = analyticity_exponent(ctx)
    n = nbhd.period_k * nbhd.affine_order * ctx.p ** l_an
    return PeriodBound(period_k=nbhd.period_k,
                       affine_order=nbhd.affine_order,
                       analyticity_exponent=l_an,
                       bound=n)


class ClassifyResult(Record):
    """kind, the period of a periodic point and, for a non-preperiodic
    one, f^N(omega), the 1-based coordinate where it differs from omega and
    the v_r of that difference."""

    __slots__ = ("kind", "period", "iterate", "differs_at",
                 "difference_valuation")
    _defaults = dict.fromkeys(__slots__[1:])


def rational_vr(x, ctx):
    """v_r of a nonzero rational number inside the context's fraction field."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of exact zero requested")
    return ctx.e * (_vp(x.numerator, ctx.p) - _vp(x.denominator, ctx.p))


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


def classify_mod(nbhd, bound, omega):
    """non_preperiodic / outside_neighborhood / "periodic or undecided mod
    p^P" for an exact rational point, from f^N(omega) - omega in O/p^P (P
    the working precision, ``padics.integers_mod``). Reduction mod p^P is
    a ring homomorphism on members, so a nonzero difference proves
    f^N(omega) != omega; its first coordinate and v_r are recorded. A zero
    difference decides nothing."""
    omega = tuple(Fraction(w) for w in omega)
    if not nbhd.membership(omega):
        return ClassifyResult(kind=OUTSIDE)
    ctx = nbhd.ctx
    ring = integers_mod(ctx.p, ctx.d, ctx.e, ctx.precision)
    start = tuple(ring.from_rational(w) for w in omega)
    try:
        z = embed_map(nbhd.map, ring).iterate(start, bound.bound)
    except IndeterminacyError as exc:
        raise InternalInconsistencyError(
            "the orbit of a member met a non-unit denominator: " + str(exc))
    for i, (a, b) in enumerate(zip(z, start)):
        v = ring.wrap(ctx, a - b, ctx.precision).valuation()
        if v is not INFINITY:
            return ClassifyResult(kind=NON_PREPERIODIC, differs_at=i + 1,
                                  difference_valuation=v)
    return ClassifyResult(
        kind=f"periodic or undecided mod p^{ctx.precision}")


def witness_candidates(nbhd):
    """Deterministic scan order: omega = naive-lift + p * v over integer
    offset vectors v in shells of increasing max-norm, lexicographic within
    a shell."""
    ctx = nbhd.ctx
    if ctx.d != 1:
        raise UnsupportedExtensionError(
            "rational witness search needs an F_p-rational periodic point"
            " (residue degree 1)")
    base = [res.rep[0] for res in nbhd.center_residue]
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
    point was periodic and the lcm of their periods divides N, the error
    flags "finite-order suspected".
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
                    and bound.bound % math.lcm(*periods) == 0)
    msg = (f"no witness within budget {search_budget}"
           + ("; finite-order suspected" if finite_order else ""))
    raise SearchBudgetError(msg, periods=periods,
                            finite_order_suspected=finite_order,
                            scanned=scanned)


# -- pipeline facade ----------------------------------------------------------

class PipelineResult(Record):
    """The map and what each stage of run_pipeline made of it."""

    __slots__ = ("map", "prime_report", "ctx", "record", "nbhd", "bound")
    __hash__ = None


def run_pipeline(f, prime="auto", e=1, precision=64, degree=8, m_max=6,
                 lift="teichmuller"):
    """Map -> good prime -> periodic point -> lift -> neighborhood -> bound."""
    if type(e) is not int or e < 1:
        raise ValueError(f"ramification index e must be an integer >= 1,"
                         f" got {e!r}")
    f.check_dominant()
    if prime == "auto" or prime is None:
        report = choose_good_prime(f, e=e)
    else:
        ok, reason, fallback = validate_prime(f, int(prime), e=e)
        if not ok:
            raise ValueError(f"prime {prime} rejected: {reason}")
        report = GoodPrimeReport(p=int(prime), e=e, fallback=fallback,
                                 rejections={})
    base_ctx = PadicContext(report.p, precision=1)
    fbar = reduce_map(f, base_ctx)
    record = find_periodic_point(fbar, m_max=m_max)
    ctx = context_for_record(report.p, record, e=e, precision=precision)
    center = hensel_lift(record, ctx, convention=lift)
    nbhd = build_neighborhood(f, record.period, center, ctx, cap=degree,
                              record=record, lift_convention=lift)
    bound = period_bound(nbhd)
    return PipelineResult(map=f, prime_report=report, ctx=ctx, record=record,
                          nbhd=nbhd, bound=bound)


# -- exact decimal text -------------------------------------------------------

# Integers of at most this many bits (at most 1,234 digits, well under
# CPython's 4,300-digit int/str conversion guard) go through str(). Larger
# ones are split on powers of 2 down to pieces of this width, which
# Decimal() converts exactly, and reassembled in exact decimal arithmetic,
# which is subquadratic where str() is quadratic (Brent & Zimmermann, Modern
# Computer Arithmetic, sec. 1.7).
TEXT_DIRECT_BITS = 4096


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
            if w <= TEXT_DIRECT_BITS:
                result = D(2) ** w
            elif w - 1 in powers:
                result = powers[w - 1] * 2
            else:
                result = pow2(w >> 1) * pow2(w - (w >> 1))
            powers[w] = result
        return result

    def convert(m, w):
        # 0 <= m < 2^w
        if w <= TEXT_DIRECT_BITS:
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
    return [[str(c) for c in y.coords()] for y in nbhd.center]


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
        except (ValueError, RecursionError) as exc:
            # malformed JSON, an integer literal past the interpreter's
            # int/str conversion limit, or arrays nested past the
            # recursion limit
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


# The sections of a certificate besides format, version and digest, in the
# order the verifier reports them.
SECTIONS = ("map", "map_hash", "context", "reduction", "neighborhood",
            "period_bound", "witness", "payload", "mahler_profile")


def _eisenstein_coords(ctx):
    """r^e - p, the context's Eisenstein polynomial, as the W-coordinate
    lists of its coefficients, low to high."""
    zero = [0] * (ctx.d - 1)
    return ([[-ctx.p] + zero] + [[0] + zero] * (ctx.e - 1)
            + [[1] + zero])


def _certificate_data(nbhd, bound, omega, result, kmax):
    """The certificate's data without its digest. The one writer of the
    format: make_certificate runs it on the producer's results, and
    verify_certificate on what it recomputes from a certificate's inputs."""
    ctx = nbhd.ctx
    f = nbhd.map
    record = nbhd.record
    if record is None:
        raise ValueError("neighborhood carries no periodic point record")
    profile, _ = _mahler_profile(nbhd, bound, omega, kmax)
    return {
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
            "unram_poly": list(ctx.unram_low) + [1],
            "eis_poly": _eisenstein_coords(ctx),
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


def make_certificate(nbhd, bound, omega, result, kmax=32):
    data = _certificate_data(nbhd, bound, omega, result, kmax)
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


class _Stop(Exception):
    """A rebuild step that cannot go on; ``stage`` names the section whose
    inputs stop it."""

    def __init__(self, stage, detail):
        super().__init__(detail)
        self.stage = stage


def _input(data, section, key):
    """An input field; a missing one stops the replay at its section."""
    try:
        return data[section][key]
    except (KeyError, TypeError):
        raise _Stop(section, f"{section}.{key} is missing")


def _int_input(data, section, key, low):
    """An integer input. JSON also spells numbers as true or 2.0, which
    Python compares equal to 1 and 2, so nothing but an int is accepted."""
    value = _input(data, section, key)
    if type(value) is not int or value < low:
        raise _Stop(section, f"{section}.{key} must be an integer >= {low}")
    return value


def _replay_record(fbar, m, index, cap):
    """The record find_periodic_point makes for the point at ``index`` of
    F_{p^m}^n, walking at most ``cap`` steps; None when that point is not
    purely periodic with a clear orbit."""
    fld = fbar.field.extension(m)
    if index >= fld.order ** fbar.n:
        return None
    point = point_at_index(fld, fbar.n, index)
    status, orbit = _walk_orbit(fbar if m == 1 else fbar.extend(fld), point,
                                cap)
    if status != "periodic":
        return None
    return PeriodicPointRecord(m=m, field=fld, point=point,
                               period=len(orbit), orbit=orbit,
                               enumeration_index=index)


def _replay(data):
    """What the producer writes for the certificate's inputs, built the way
    run_pipeline and find_witness build it; _Stop when a step cannot go
    on."""
    n = _int_input(data, "map", "n", 1)
    numerators = _input(data, "map", "numerators")
    denominators = _input(data, "map", "denominators")
    p = _int_input(data, "context", "p", 2)
    e = _int_input(data, "context", "e", 1)
    precision = _int_input(data, "context", "precision", 1)
    m = _int_input(data, "reduction", "m", 1)
    index = _int_input(data, "reduction", "enumeration_index", 0)
    period = _int_input(data, "reduction", "period", 1)
    lift = _input(data, "neighborhood", "lift_convention")
    cap = _int_input(data, "neighborhood", "divisibility_degree", 1)
    witness = data["witness"]          # the format stage requires the key
    kmax = _int_input(data, "mahler_profile", "k_max", 1)

    try:
        f = RationalSelfMap.from_texts(n, numerators, denominators)
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise _Stop("map", f"map does not parse: {exc}")
    try:
        ok, reason, _fallback = validate_prime(f, p, e=e)
    except ValueError as exc:  # p is not prime
        ok, reason = False, str(exc)
    if not ok:
        raise _Stop("context", f"prime {p} rejected: {reason}")

    # the recorded period only caps the walk, as in verify_record
    record = _replay_record(reduce_map(f, PadicContext(p, precision=1)), m,
                            index, period)
    if record is None:
        raise _Stop("reduction", "no clear periodic point of period at most"
                    f" {period} at enumeration index {index} of"
                    f" F_{p}^{m}")

    ctx = context_for_record(p, record, e=e, precision=precision)
    try:
        center = hensel_lift(record, ctx, convention=lift)
    except ValueError as exc:  # unknown lift convention
        raise _Stop("neighborhood", str(exc))
    try:
        nbhd = build_neighborhood(f, record.period, center, ctx, cap=cap,
                                  record=record, lift_convention=lift)
    except PrecisionError as exc:
        raise _Stop("context", f"precision {precision} cannot carry the"
                    f" neighborhood: {exc}")
    bound = period_bound(nbhd)

    try:
        omega = tuple(Fraction(w) for w in witness)
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise _Stop("witness", f"witness does not parse: {exc}")
    if len(omega) != f.n:
        raise _Stop("witness", f"witness needs {f.n} coordinates")
    # only the recomputed N is iterated
    result = classify(nbhd, bound, omega)
    if result.kind == OUTSIDE:
        raise _Stop("witness", "witness is not in the neighborhood")
    if result.kind == PERIODIC:
        raise _Stop("witness",
                    f"witness is periodic with period {result.period}")
    try:
        return _certificate_data(nbhd, bound, omega, result, kmax)
    except PrecisionError as exc:  # the one step here that divides by r
        raise _Stop("mahler_profile", f"precision {precision} cannot carry"
                    f" the profile to k_max {kmax}: {exc}")


def verify_certificate(cert):
    """Independently replay a certificate: recompute it from its inputs with
    the code that writes certificates, and require each section to equal
    the recorded one as canonical JSON.

    Returns a VerificationReport (truthy iff valid) naming each failed
    stage: ``digest``, ``format``, then one stage per section. A rebuild step
    that cannot go on ends the replay at the stage of its section.
    """
    rep = VerificationReport()
    data = cert.data

    try:
        if not rep.add("digest", data.get("digest") == _digest(data),
                       "integrity digest mismatch"):
            return rep
        if not rep.add("format",
                       data.get("format") == CERT_FORMAT
                       and data.get("version") == __version__
                       and set(data) == {"format", "version", "digest",
                                         *SECTIONS},
                       "unknown format, version or top-level keys"):
            return rep
        try:
            rebuilt = _replay(data)
        except _Stop as stop:
            rep.add(stop.stage, False, str(stop))
            return rep
        for name in SECTIONS:
            rep.add(name,
                    _canonical_json(rebuilt[name]) ==
                    _canonical_json(data[name]),
                    f"{name} differs from its recomputation")
    except Exception as exc:  # any replay blow-up invalidates the certificate
        rep.add("replay", False, f"{type(exc).__name__}: {exc}")
    return rep
