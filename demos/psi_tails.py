#!/usr/bin/env python3
# From moment growth to exponential tails, step by step:
# pick a generating function, compute its conjugate, read off the tail bound.

import math

import numpy as np

from multisum import (MomentCurve, TailBound, exp_power, extremal,
                      gls_norm, natural_psi, power_log, tail_bound_eval,
                      young_fenchel)

print("=== generating functions ===")
psi2 = power_log(2, 0)               # square-root growth: subgaussian moments
for p in (1, 2, 4, 9, 16):
    print(f"  psi_2({p:2d}) = {psi2(p):.4f}   (sqrt growth)")

print("\nThe extremal function is 1 on [1, r]: its norm is the plain L_r norm.")
print(f"  extremal(4)(3) = {extremal(4)(3.0)}")

print("\nVariables failing the Cramer condition need exponential growth:")
print(f"  exp_power(1, 1)(2) = {exp_power(1, 1)(2.0):.4f}  (= e^2)")

print("\n=== norms from moment curves ===")
# standard normal moments by quadrature
grid = np.geomspace(1.0, 16.0, 12)
vals = np.array([math.sqrt(2) * math.exp(
    (math.lgamma((p + 1) / 2) - 0.5 * math.log(math.pi)) / p) for p in grid])
curve = MomentCurve(grid, vals)
print(f"  ||N(0,1)|| in G(psi_2)     = {gls_norm(curve, psi2):.4f}")
print(f"  ||N(0,1)|| at its natural  = {gls_norm(curve, natural_psi(curve)):.4f}")

print("\n=== conjugates and tails ===")
# v(p) = p ln psi(p); the conjugate of the square-root family is exp(2x-1)/2
for x in (1.0, 2.0, 3.0):
    num = young_fenchel(psi2, x)
    print(f"  v*({x:.0f}) = {num:10.4f}   closed form {math.exp(2 * x - 1) / 2:10.4f}")

tb = TailBound(gls_norm=1.0, psi=psi2)
print(f"\n  bound valid above y0 = e * norm = {tb.validity_threshold:.4f}")
for y in (2.0, 3.0, 5.0, 8.0):
    b = tail_bound_eval(tb, y)
    ref = math.exp(-y * y / (2 * math.e))
    print(f"  T(y={y:.0f}) <= {b:.3e}   [exp(-y^2/2e) = {ref:.3e}]")

print("\nBelow the threshold the bound clamps to the trivial 1:")
print(f"  tail at y=1: {tail_bound_eval(tb, 1.0)}")
