#!/usr/bin/env python3
# Certificates are ordinary JSON: emit one, replay it, and watch tampering
# get caught. The verifier reads only the certificate's inputs, recomputes
# every section with the code that wrote it and compares each one as
# canonical JSON. The decisive inequality f^N(omega) != omega is replayed in
# exact rational arithmetic, so validity never depends on p-adic precision.

import copy
import json

from padicdyn import RationalSelfMap, run_pipeline, find_witness, \
    verify_certificate
from padicdyn.certify import Certificate, _digest

pipe = run_pipeline(RationalSelfMap.from_texts(1, ["x1^3"]), prime=5)
cert = find_witness(pipe.nbhd, pipe.bound, search_budget=50, kmax=8)

print("certificate fields:", ", ".join(sorted(cert.data)))
print("witness:", cert.data["witness"],
      "| N:", cert.data["period_bound"]["bound"])
print("iterate digits:",
      len(cert.data["payload"]["iterate"][0]))

report = verify_certificate(cert)
print("\nfresh verification:")
for name, ok, detail in report.stages:
    print(f"  [{'ok' if ok else 'FAIL'}] {name}" +
          (f": {detail}" if detail else ""))

# Any single-field edit breaks the integrity digest...
broken = copy.deepcopy(cert.data)
broken["period_bound"]["bound"] -= 1
print("\nafter decrementing N:",
      [n for n, ok, _ in verify_certificate(Certificate(broken)).stages
       if not ok])

# ...and even an attacker who recomputes the digest is caught: the
# period_bound section no longer equals its recomputation. Only the
# recomputed N is ever iterated.
broken["digest"] = _digest(broken)
report2 = verify_certificate(Certificate(broken))
print("with recomputed digest, failing stages:",
      [n for n, ok, _ in report2.stages if not ok])

# Swapping the witness for the periodic center 1 stops the replay at the
# witness stage: the exact orbit returns, so there is no payload to write.
swapped = copy.deepcopy(cert.data)
swapped["witness"] = ["1"]
swapped["digest"] = _digest(swapped)
print("witness replaced by the fixed point, failing stages:",
      [n for n, ok, _ in verify_certificate(Certificate(swapped)).stages
       if not ok])
