"""Averaged functions of a random piecewise polynomial perturbation.

Builds a random two-zone perturbation of the rotation-plus-contraction
field, computes the first-order averaged function in closed form, checks it
against the quadrature oracle along the unperturbed flow (one Chebyshev
spectral rule per zone, its node count doubled from N to 2N until the two
results agree to 1e-12; Greengard 1991), then projects the first-order
tables onto the kernel and computes the second-order function.
"""

import math

import numpy as np

from avgcycles import (
    build_f1,
    build_f2,
    oracle_f1,
    project_to_kernel,
    random_spec,
)

spec = random_spec(n=2, m=1, d=2, phi=math.pi / 3, rng=7, scale=0.5)
print(f"spec: degree n={spec.n}, master tail m={spec.m}, total tail d={spec.d}, "
      f"switching angle phi={spec.phi:.4f}")

f1 = build_f1(spec)
print("\nfirst-order averaged function f1(r, z1):")
print(f1.pretty())

print("\nclosed form vs quadrature at three points:")
for nu in ([0.8, 0.2], [1.2, -0.4], [0.5, 0.0]):
    closed = np.array([p(np.array(nu)) for p in f1])
    quad = oracle_f1(spec, nu)
    print(f"  nu={nu}: closed={closed}, |diff|={np.max(np.abs(closed - quad)):.2e}")

ps = project_to_kernel(spec)
f1p = build_f1(ps)
print(f"\nafter kernel projection: max |f1 coefficient| = "
      f"{max(p.max_coeff() for p in f1p):.2e}")

rf2 = build_f2(ps, check_f1=False)
print("\nsecond-order averaged function r*f2(r, z1):")
print(rf2.pretty())
