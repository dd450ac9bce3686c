"""Seeded benchmark inputs: translation conjugates of map files.

For a map f and a translation a in p*Z^n, the conjugate g(x) = f(x + a) - a
reduces to the same map modulo p, so the pipeline finds the same periodic
point, period bound and affine order while every exact coefficient differs.
The polynomial algebra here is independent of padicdyn: the program only ever
sees the generated map files.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb

_TERM = re.compile(r"\s*([+-])?\s*([^+-]+)")


def parse_poly(text, n):
    """{exponent tuple: Fraction} from the canonical form
    'c*x1^2*x2 - x2 + 3' (no parentheses)."""
    terms = {}
    text = text.strip()
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or not m.group(2).strip():
            raise ValueError(f"cannot parse polynomial {text!r}")
        coeff = Fraction(-1 if m.group(1) == "-" else 1)
        expo = [0] * n
        for factor in m.group(2).strip().split("*"):
            factor = factor.strip()
            if factor.startswith("x"):
                var, _, power = factor[1:].partition("^")
                expo[int(var) - 1] += int(power or 1)
            else:
                coeff *= Fraction(factor)
        idx = tuple(expo)
        terms[idx] = terms.get(idx, Fraction(0)) + coeff
        pos = m.end()
    return {i: c for i, c in terms.items() if c}


def poly_text(poly):
    if not poly:
        return "0"
    parts = []
    for idx in sorted(poly, key=lambda i: (-sum(i), tuple(-a for a in i))):
        c = poly[idx]
        factors = [f"x{i + 1}" + (f"^{a}" if a > 1 else "")
                   for i, a in enumerate(idx) if a]
        mag = abs(c)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        parts.append(("-" if c < 0 else "+", "*".join(factors)))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def _add(a, b, scale=1):
    out = dict(a)
    for idx, c in b.items():
        out[idx] = out.get(idx, Fraction(0)) + scale * c
    return {i: c for i, c in out.items() if c}


def translate(poly, shift):
    """poly(x + shift) by binomial expansion of every monomial."""
    out = {}
    for idx, c in poly.items():
        term = {(0,) * len(idx): c}
        for i, a in enumerate(idx):
            nxt = {}
            for tidx, tc in term.items():
                for k in range(a + 1):
                    nidx = list(tidx)
                    nidx[i] += k
                    nidx = tuple(nidx)
                    nxt[nidx] = (nxt.get(nidx, Fraction(0))
                                 + tc * comb(a, k) * shift[i] ** (a - k))
            term = nxt
        out = _add(out, term)
    return out


def conjugate_spec(spec, shift):
    """Map-file dict of x -> f(x + shift) - shift."""
    n = spec["n"]
    nums = [parse_poly(t, n) for t in spec["numerators"]]
    dens = [parse_poly(t, n) for t in spec.get("denominators", ["1"] * n)]
    new_nums, new_dens = [], []
    for i, (num, den) in enumerate(zip(nums, dens)):
        tden = translate(den, shift)
        # f_i(x + a) - a_i = (num(x + a) - a_i * den(x + a)) / den(x + a)
        new_nums.append(poly_text(_add(translate(num, shift), tden,
                                       -shift[i])))
        new_dens.append(poly_text(tden))
    out = dict(spec)
    out["numerators"] = new_nums
    out["denominators"] = new_dens
    return out


def load_spec(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_spec(spec, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=1)
