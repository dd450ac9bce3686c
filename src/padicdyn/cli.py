"""Command-line interface.

Subcommands:
  certify      run the full pipeline and emit a non-preperiodicity certificate
  verify       independently replay a certificate file
  interpolate  build the orbit interpolation at a rational point and write a
               valuation/margin report

Exit codes: 0 success (or valid certificate), 2 no witness within the search
budget, 3 invalid certificate, 1 any other error.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction

from .certify import (OUTSIDE, Certificate, classify_mod, find_witness,
                      run_pipeline, verify_certificate)
from .errors import (PadicDynError, SearchBudgetError,
                     UnsupportedExtensionError)
from .mahler import analyticity_margins, mahler_coefficients
from .mapfile import INT_FIELDS, _int_field, load_map_file

EXIT_OK = 0
EXIT_NO_WITNESS = 2
EXIT_INVALID_CERT = 3


def _add_pipeline_args(sub):
    sub.add_argument("--map", required=True, help="map-specification file")
    sub.add_argument("--prime", default=None,
                     help="'auto' or an explicit odd prime")
    sub.add_argument("--e", default=None,
                     help="requested ramification index")
    sub.add_argument("--precision", default=None)
    sub.add_argument("--degree", default=None,
                     help="series truncation degree")
    sub.add_argument("--kmax", default=None,
                     help="Mahler truncation order")
    sub.add_argument("--mmax", default=None,
                     help="largest residue extension degree searched")
    sub.add_argument("--lift", choices=["teichmuller", "naive"], default=None)


# integer options and the map-file fields they override, with the same
# bounds (text that is no integer is rejected by name, as in a map file);
# --budget belongs to certify alone
INT_OPTIONS = {"e": "e", "precision": "precision", "degree": "degree",
               "kmax": "kmax", "mmax": "m_max", "budget": "search_budget"}


def _int_option(option, text, low):
    """The integer value of an option, with the bound of the map-file field
    it overrides."""
    try:
        value = int(text)
    except ValueError:
        value = text                 # _int_field rejects it by name
    return _int_field("command line", option, value, low)


def _prime_option(text):
    """'auto' or an integer >= 2, as the map file's prime field."""
    return text if text == "auto" else _int_option("--prime", text, 2)


def _config_from_args(args):
    cfg = load_map_file(args.map)
    if args.prime is not None:
        cfg.prime = _prime_option(args.prime)
    for option, key in INT_OPTIONS.items():
        value = getattr(args, option, None)
        if value is not None:
            setattr(cfg, key, _int_option(f"--{option}", value,
                                          INT_FIELDS[key]))
    if args.lift is not None:
        cfg.lift = args.lift
    return cfg


def _run_pipeline(cfg):
    return run_pipeline(cfg.map, prime=cfg.prime, e=cfg.e,
                        precision=cfg.precision, degree=cfg.degree,
                        m_max=cfg.m_max, lift=cfg.lift)


def cmd_certify(args):
    cfg = _config_from_args(args)
    pipe = _run_pipeline(cfg)
    b = pipe.bound
    print(f"prime p = {pipe.ctx.p} (d = {pipe.ctx.d}, e = {pipe.ctx.e},"
          f" precision = {pipe.ctx.precision})")
    print(f"periodic point found over F_{pipe.ctx.q}"
          f" (extension degree m = {pipe.record.m}), period k = {b.period_k}")
    print(f"reduced affine order = {b.affine_order},"
          f" analyticity exponent = {b.analyticity_exponent},"
          f" period bound N = {b.bound}")
    try:
        cert = find_witness(pipe.nbhd, pipe.bound, cfg.search_budget,
                            kmax=cfg.kmax)
    except UnsupportedExtensionError as exc:
        fallbacks = [q for q, why in
                     (pipe.prime_report.rejections or {}).items()
                     if "fallback" in why]
        hint = (f"; try an explicit --prime (e.g. {min(fallbacks)})"
                if fallbacks else "; try a different prime with --prime")
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 1
    except SearchBudgetError as exc:
        print(f"no witness: {exc}", file=sys.stderr)
        if exc.periods:
            print(f"periods seen in the scan: {sorted(set(exc.periods))}",
                  file=sys.stderr)
        return EXIT_NO_WITNESS
    cert.save(args.out)
    witness = ", ".join(cert.data["witness"])
    print(f"witness omega = ({witness}); exact f^N(omega) != omega with"
          f" difference valuation"
          f" {cert.data['payload']['difference_valuation']}")
    print(f"certificate written to {args.out}")
    return EXIT_OK


def cmd_verify(args):
    cert = Certificate.load(args.cert)
    report = verify_certificate(cert)
    for name, ok, detail in report.stages:
        line = f"  [{'ok' if ok else 'FAIL'}] {name}"
        if detail:
            line += f": {detail}"
        print(line)
    if report.ok:
        print("certificate is valid")
        return EXIT_OK
    print("certificate is INVALID", file=sys.stderr)
    return EXIT_INVALID_CERT


# a coordinate of --point as certificates write it: a or a/b, optionally
# signed (Fraction would also read a decimal exponent and build the power)
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _rational(text):
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(text)
    num, den = match.groups()
    return Fraction(int(num), int(den or 1))


def _point_option(text, n):
    """The n rational coordinates of --point, comma-separated."""
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"--point must have {n} comma-separated"
                         f" coordinates, got {text!r}")
    try:
        return [_rational(w) for w in parts]
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--point must hold rational numbers a or a/b,"
                         f" got {text!r}")


def cmd_interpolate(args):
    cfg = _config_from_args(args)
    omega = _point_option(args.point, cfg.map.n)
    pipe = _run_pipeline(cfg)
    result = classify_mod(pipe.nbhd, pipe.bound, omega)
    if result.kind == OUTSIDE:
        print("point is outside the constructed neighborhood",
              file=sys.stderr)
        return 1
    ctx = pipe.ctx
    t0 = pipe.nbhd.to_local(tuple(ctx.from_rational(w) for w in omega))
    phi = pipe.nbhd.iterated_local_map(pipe.bound.affine_order)
    interp = mahler_coefficients(phi, t0, cfg.kmax)
    from .mahler import INFINITY, analyticity_exponent
    l_an = analyticity_exponent(ctx)
    report = analyticity_margins(interp, l_an)

    lines = []
    lines.append(f"map: {pipe.map.canonical_text()}")
    lines.append(f"prime: {ctx.p}  d: {ctx.d}  e: {ctx.e}"
                 f"  precision: {ctx.precision}")
    lines.append(f"period k: {pipe.bound.period_k}"
                 f"  affine order: {pipe.bound.affine_order}"
                 f"  analyticity exponent: {l_an}"
                 f"  period bound N: {pipe.bound.bound}")
    lines.append(f"point: ({', '.join(str(w) for w in omega)})"
                 f"  classification: {result.kind}")
    lines.append(f"interpolation center (local coords) of Phi = F^"
                 f"{pipe.bound.affine_order}, k_max = {cfg.kmax}")
    lines.append("")
    lines.append(" k | v_r(b_k) per coordinate | bound ceil((k+1)/2)"
                 " | slope margin at l_an")
    margin_by_k = {k: m for k, m, _ in report.margins}
    for k in range(1, interp.k_max + 1):
        vals = [interp.valuation(i + 1, k) for i in range(interp.n)]
        vtxt = ", ".join("inf" if v is INFINITY else str(v) for v in vals)
        m = margin_by_k[k]
        mtxt = "inf" if m is INFINITY else str(m)
        lines.append(f"{k:3d} | {vtxt} | {(k + 2) // 2} | {mtxt}")
    lines.append("")
    lines.append(f"slope: {report.slope}  certified analytic on"
                 f" p^{l_an} Z_p: {report.certified}")
    text = "\n".join(lines) + "\n"
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(text, end="")
    print(f"report written to {args.out}")
    return EXIT_OK


@functools.cache
def build_parser():
    """The CLI's parser, built once per process: parse_args reads it and
    fills a fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="padicdyn",
        description="p-adic certification of non-preperiodic points for"
                    " rational self-maps of affine space")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("certify", help="emit a non-preperiodicity certificate")
    _add_pipeline_args(c)
    c.add_argument("--budget", default=None,
                   help="witness scan budget")
    c.add_argument("--out", required=True, help="certificate output path")
    c.set_defaults(func=cmd_certify)

    v = sub.add_parser("verify", help="replay and check a certificate")
    v.add_argument("--cert", required=True)
    v.set_defaults(func=cmd_verify)

    i = sub.add_parser("interpolate",
                       help="orbit interpolation report at a rational point")
    _add_pipeline_args(i)
    i.add_argument("--point", required=True,
                   help="comma-separated rational coordinates")
    i.add_argument("--out", required=True, help="report output path")
    i.set_defaults(func=cmd_interpolate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse reads "--opt=--" as an empty list of values
    empty = [name for name, value in vars(args).items() if value == []]
    if empty:
        print(f"error: --{empty[0]} needs a value", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (PadicDynError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
