#!/usr/bin/env python3
# Periodic-point hunting over small finite fields: how reductions fail, how
# orbits get rejected, and when the search has to climb to an extension.

from padicdyn import (RationalSelfMap, PadicContext, reduce_map,
                      find_periodic_point, locus_check)
from padicdyn.errors import (BadReductionError, InseparableError,
                             NoPeriodicPointError)

# A reduction can fail in two ways: a coefficient with p in the denominator,
# or a map whose Jacobian determinant dies mod p (inseparable).
for text, p in (("1/3*x1", 3), ("x1^3", 3)):
    try:
        reduce_map(RationalSelfMap.from_texts(1, [text]), PadicContext(p))
    except (BadReductionError, InseparableError) as exc:
        print(f"{text} at p={p}: {exc}")

# x^2+1 over F_3: the point 0 is ramified (derivative 2x vanishes), 1 falls
# into a tail, 2 is a clear fixed point. The search enumerates 0, 1, 2 in
# order and returns 2 deterministically.
f = RationalSelfMap.from_texts(1, ["x1^2 + 1"])
fbar = reduce_map(f, PadicContext(3))
for i in range(3):
    print("locus of", i, "->", locus_check(fbar, (fbar.field.from_int(i),)))
rec = find_periodic_point(fbar, m_max=1)
print("found:", fbar.field.index_of(rec.point[0]), "period", rec.period,
      "visited", rec.visited)

# The translation x + 1 has no fixed point but a full 3-cycle through 0.
rec2 = find_periodic_point(
    reduce_map(RationalSelfMap.from_texts(1, ["x1 + 1"]), PadicContext(3)), 1)
print("x+1 over F_3: orbit",
      [rec2.field.index_of(c[0]) for c in rec2.orbit])

# Over F_5 the same quadratic has the cycle 0 -> 1 -> 2 -> 0 passing through
# the ramified 0, so nothing at m = 1 qualifies; the search must extend the
# field. It picks the first irreducible quadratic x^2 + 2 (so F_25 = F_5(g)
# with g^2 = -2) and finds the fixed point 3 + g.
fbar5 = reduce_map(f, PadicContext(5))
try:
    find_periodic_point(fbar5, m_max=1)
except NoPeriodicPointError as exc:
    print("over F_5:", exc)
rec3 = find_periodic_point(fbar5, m_max=2)
print("over F_25: modulus lows", rec3.field_modulus_indexes(),
      "| point index", rec3.field.index_of(rec3.point[0]),
      "| period", rec3.period, "| visited", rec3.visited)
