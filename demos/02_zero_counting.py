"""Reaching the maximal simple-zero counts with constructed systems.

The count of simple zeros of the averaged function bounds the number of
limit cycles bifurcating from the periodic annulus.  This demo constructs
systems whose averaged functions attain the counts, at first order
(n^(m+1) zeros) and at second order (2n(2n-1)^m zeros with the first-order
function identically zero), and proves every zero simple by a Krawczyk
test on an interval box, whose contractions then locate it.
"""

import math

from avgcycles import certify_count, gen_prop10, gen_prop12

print("first order: n = 2, m = 1, phi = pi/3 -> expect 2^2 = 4 zeros")
res = gen_prop10(2, 1, math.pi / 3)
out = certify_count(res.system, res.box, res.expected_count)
print(f"  certified {out['found']} of expected {out['expected']} "
      f"(degree bound {out['bezout']}), pass={out['pass']}")
for rec in out["records"]:
    print(f"  zero at {rec.nu}, residual {rec.residual:.1e}, "
          f"jacobian det {rec.jac_det:.3g}")

print("\nsecond order: n = 2, m = 0, phi = pi/3 -> expect 2*2*(2*2-1)^0 = 4 zeros")
res2 = gen_prop12(2, 0, math.pi / 3)
out2 = certify_count(res2.system, res2.box, res2.expected_count)
print(f"  first-order function is identically zero by construction")
print(f"  certified {out2['found']} of expected {out2['expected']} "
      f"(degree bound {out2['bezout']}), pass={out2['pass']}")
for rec in out2["records"]:
    print(f"  zero at {rec.nu}, residual {rec.residual:.1e}")
