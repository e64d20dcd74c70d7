#!/usr/bin/env python3
# The three moment-bound routes on a kernel, from crude to sharp (Klesov's
# product bound is K(p)^d * D_p at rank one), and the spectral machinery that
# powers the best-split route.

import math

import numpy as np

from multisum import (DegenerateKernel, FactorFamily, TabulatedKernel, dp_quasinorm,
                      rosenthal_K, theorem_W_bound, trivial_bound)

print("=== the Rosenthal function ===")
for p in (2.0, math.e, 4.0, 8.0, 33.461):
    print(f"  K({p:7.3f}) = {rosenthal_K(p):.4f}")

print("\n=== rank-one kernel f(x,y) = xy under the standard normal ===")
kernel = DegenerateKernel(2, {(1, 1): 1.0}, [FactorFamily("hermite")] * 2)
p = 4.0
f_moment = kernel.moment(p)
L_size = 100
print(f"  |f|_4 = {f_moment:.4f}, |L| = {L_size}")
print(f"  trivial:       {trivial_bound(f_moment, p, L_size):8.4f}   (grows with sqrt |L|)")
print(f"  Klesov K^2*D_p: {rosenthal_K(p) ** 2 * dp_quasinorm(kernel, p):7.4f}   (uniform in L)")
rep = theorem_W_bound(kernel, p, L_size, M_max=4)
print(f"  best split:    {rep.bound_value:8.4f}   (rank M* = {rep.m_star})")

print("\n=== Brownian covariance min(x, y): spectral structure ===")
tk = TabulatedKernel.from_function(lambda x, y: np.minimum(x, y), n=256)
s, left, right = tk.spectral()
print("  k   numeric        4/(pi^2 (2k-1)^2)")
for k in range(1, 6):
    exact = 4 / (math.pi ** 2 * (2 * k - 1) ** 2)
    print(f"  {k}   {s[k - 1]:.6f}       {exact:.6f}")

print(f"\n  rank-1 truncation: L2 error {tk.residual_norms(1, [2.0])[0]:.6f}, "
      f"trace tail {np.sum(s[1:]):.6f}")
print(f"  (1/2 - 4/pi^2 = {0.5 - 4 / math.pi ** 2:.6f})")

print("\n=== best split on the full tabulated kernel ===")
for L_size in (1, 100, 10_000):
    rep = theorem_W_bound(tk, 2.0, L_size, M_max=40)
    print(f"  |L| = {L_size:6d}: bound {rep.bound_value:.4f} at rank M* = {rep.m_star}")
print("Larger index sets buy more approximation rank before the residual term bites.")
