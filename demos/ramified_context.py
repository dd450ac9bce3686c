#!/usr/bin/env python3
# A ramified working ring: adjoin a square root of 5 (e = 2, the Eisenstein
# layer r^2 - 5), so the uniformizer r satisfies r^2 = 5 and v_r(5) = 2.
# Ramification shrinks the analyticity disc: for x^2 at p=5 the exponent
# jumps from 0 to 1 and the period bound from 4 to 20.

from padicdyn import (RationalSelfMap, PadicContext, run_pipeline,
                      find_witness, verify_certificate, analyticity_exponent)

ctx = PadicContext(5, e=2)
rho = ctx.uniformizer()
print("rho^2 == 5:", rho * rho == ctx.from_int(5))
print("v_r(rho) =", rho.valuation(), " v_r(5) =",
      ctx.from_int(5).valuation())
print("5 / rho == rho:", ctx.from_int(5).divide_uniformizer() == rho)

f = RationalSelfMap.from_texts(1, ["x1^2"])
flat = run_pipeline(f, prime=5, e=1)
ram = run_pipeline(f, prime=5, e=2)
print("\nunramified: l_an =", flat.bound.analyticity_exponent,
      " N =", flat.bound.bound)
print("ramified:   l_an =", ram.bound.analyticity_exponent,
      " N =", ram.bound.bound)

# The normalized series F = rho*t^2 + 2t now carries the uniformizer itself
# on its quadratic coefficient.
for idx, c in ram.nbhd.F[0].terms_sorted():
    print("F coefficient at", idx, "has v_r =", c.valuation())

# Certification still runs on exact rationals: f^20(omega) = omega^(2^20)
# is a ~630000-digit number, handled exactly.
cert = find_witness(ram.nbhd, ram.bound, search_budget=10, kmax=8)
print("\nwitness:", cert.data["witness"],
      "| difference valuation:",
      cert.data["payload"]["difference_valuation"])
print("verification:", "valid" if verify_certificate(cert) else "INVALID")
