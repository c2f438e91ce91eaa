"""Verifying predicted limit cycles by direct integration.

Every simple zero of the averaged function predicts a periodic solution of
the full discontinuous system for small eps.  This demo integrates the
discontinuous system through its switching planes (each smooth zone segment
by Chebyshev-Picard iteration on a spectral rule), polishes each predicted
zero into a fixed point of the 2*pi return map with Newton, and shows that
the distance between prediction and actual cycle shrinks linearly in eps.
"""

import math

from avgcycles import distance_slope, eps_sweep, gen_prop10
from avgcycles.flowsim import write_cycle_csv

res = gen_prop10(2, 0, math.pi / 2)
print(f"averaged radial polynomial: {res.system.pretty()}")
print(f"predicted cycle radii: {[float(z[0]) for z in res.zeros]}")

eps_values = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
for k, nu in enumerate(res.zeros):
    records = eps_sweep(res.spec, nu, eps_values)
    print(f"\ncycle {k} (predicted r = {nu[0]:.6f}):")
    for rec in records:
        print(f"  eps={rec.epsilon:.2e}: fixed point r={rec.fixed_point[0]:.8f}, "
              f"period residual {rec.period_residual:.1e}, "
              f"|fixed - predicted| = {rec.distance:.2e}")
    slope = distance_slope(records)
    print(f"  log-log convergence slope: {slope:.3f} (theory: 1.0)")
    write_cycle_csv(f"cycles_{k}.csv", records, res.spec.d)
    print(f"  wrote cycles_{k}.csv")
