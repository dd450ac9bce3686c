#!/usr/bin/env python3
# End-to-end walkthrough on the simplest interesting map: f(x) = x^2 + 1
# at the prime 3, using the naive digit lift so every number below is easy
# to re-derive by hand.

from fractions import Fraction

from padicdyn import (RationalSelfMap, PadicContext, reduce_map,
                      find_periodic_point, context_for_record, hensel_lift,
                      build_neighborhood, period_bound, classify,
                      find_witness, verify_certificate, mahler_coefficients,
                      analyticity_margins, evaluate, analyticity_exponent)

f = RationalSelfMap.from_texts(1, ["x1^2 + 1"])
print("map:", f.canonical_text())

# Step 1: reduce modulo 3 and search F_3 for a purely periodic point whose
# orbit avoids the ramification locus (x = 0, where the derivative vanishes).
ctx3 = PadicContext(3)
fbar = reduce_map(f, ctx3)
record = find_periodic_point(fbar, m_max=1)
print("\nperiodic point over F_3:",
      fbar.field.index_of(record.point[0]),
      "with period", record.period,
      "| points examined:", record.visited)

# Step 2: lift to the 3-adic integers. The naive lift keeps the digit 2; the
# Teichmuller lift would give -1 = ...222, the root of unity over residue 2.
ctx = context_for_record(3, record, precision=64)
y = hensel_lift(record, ctx, convention="naive")
print("\nlifted center y =", y[0].coords()[0])

# Step 3: expand f at y. With t the local coordinate, f(2+t) - 2 = t^2+4t+3,
# and the rescaled series F(t) = H(3t)/3 = 3t^2 + 4t + 1 has the promised
# divisibility: the degree-2 coefficient is divisible by 3^(2-1).
nbhd = build_neighborhood(f, record.period, y, ctx, record=record,
                          lift_convention="naive")
print("\nH coefficients:", {i: c.coords()[0] % 3 ** 6
                            for i, c in nbhd.H[0].terms_sorted()})
print("F coefficients:", {i: c.coords()[0] % 3 ** 6
                          for i, c in nbhd.F[0].terms_sorted()})

# Step 4: mod 3, F acts as the affine map z -> z + 1 of F_3, whose order is
# 3. With the analyticity exponent 1 (3 is not > 2(e+1) = 4) the period
# bound is N = k * l_ord * p^l_an = 1 * 3 * 3 = 9: any preperiodic point of
# the neighborhood satisfies f^9(w) = w.
bound = period_bound(nbhd)
print("\nreduced affine order:", bound.affine_order,
      "| analyticity exponent:", bound.analyticity_exponent,
      "| period bound N:", bound.bound)

# Step 5: the Mahler interpolation of the orbit of the origin under
# Phi = F^3. The coefficients are finite differences of the orbit and their
# valuations grow at least like ceil((k+1)/2).
phi = nbhd.iterated_local_map(bound.affine_order)
interp = mahler_coefficients(phi, (ctx.zero(),), 12)
print("\nMahler coefficient valuations:",
      interp.min_valuation_row())
print("orbit interpolated exactly at integers:",
      all(evaluate(interp, j).values[0] == interp.orbit_points[j][0]
          for j in range(13)))
rep = analyticity_margins(interp, analyticity_exponent(ctx))
print("analytic on p^1 Z_p:", rep.certified, "| slope:", rep.slope)

# Step 6: classify rational members and emit a certificate. 2 is congruent
# to the center mod 3 and f^9(2) is a 182-digit number, so 2 cannot be
# preperiodic.
result = classify(nbhd, bound, [Fraction(2)])
print("\nclassify(2):", result.kind,
      "| digits of f^9(2):", len(str(result.iterate[0].numerator)))

cert = find_witness(nbhd, bound, search_budget=50, kmax=16)
print("witness:", cert.data["witness"],
      "| verification:", "valid" if verify_certificate(cert) else "INVALID")
