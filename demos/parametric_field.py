#!/usr/bin/env python3
# Kernels with a parameter: the sums become a random field over a grid V,
# and entropy integrals of the weight metric decide uniform convergence.

import numpy as np

from multisum import (AxisDistribution, FactorFamily, ParametricKernel, RngSpec,
                      check_theorem_8, covering_profile, entropy_integral_exp,
                      entropy_integral_power, make_rect,
                      power_log, rho_lambda, sigma_lambda, simulate_Q_L)
from multisum.parametric import EntropyProfile

gauss = [AxisDistribution("standard_normal")] * 2

print("=== a Lipschitz weight family on [0, 1] ===")
v = np.linspace(0.0, 1.0, 9)
pk = ParametricKernel(v[:, None], {(1, 1): v.copy()},
                      [FactorFamily("hermite")] * 2)
print(f"  grid of {pk.n_points} points, sigma_lambda = {sigma_lambda(pk)}")
print(f"  rho(v_0, v_8) = {rho_lambda(pk, 0, 8):.3f} (the l1 weight distance)")

prof = covering_profile(pk, np.geomspace(1.0, 1e-3, 40))
print(f"  covering numbers N(eps): {prof.counts[::8].astype(int).tolist()} "
      f"at eps = {[f'{e:.3f}' for e in prof.eps[::8]]}")

res = entropy_integral_power(prof, 2.0)
print(f"  power-level entropy integral at p = 2: {res.value:.4f} (finite)")

print("\n=== synthetic profiles show the divergence marker ===")
eps = np.geomspace(1.0, 1e-6, 64)
diverging = EntropyProfile(eps, eps ** -2.5)
bad = entropy_integral_power(diverging, 2.0)
print(f"  N = eps^-2.5 at p = 2: value = {bad.value}, fitted tail exponent "
      f"{bad.tail_exponent:.2f}")
ok = entropy_integral_exp(EntropyProfile(eps, 1.0 / eps), power_log(2, 0))
print(f"  exponential level with H = ln(1/eps), tau = sqrt(p): J = {ok.value:.4f}")

print("\n=== the field itself ===")
per_v, sup = simulate_Q_L(pk, make_rect([8, 8]), gauss, 20_000, RngSpec(5))
print(f"  per-point variances: {[round(d.variance(), 3) for d in per_v[::4]]}")
print(f"  (weights v^2 at those points: {[round(x * x, 3) for x in v[::4]]})")
print(f"  sup-field mean: {sup.values.mean():.3f}")

report = check_theorem_8(pk, ("power", 2.0), [make_rect([4, 4]), make_rect([12, 12])],
                         gauss, 10_000, RngSpec(6), limit_n=50_000)
print(f"\n  power-level check: hypotheses met = {report.hypotheses_met}, "
      f"verdict = {report.verdict}")
print(f"  sup-moment: empirical {report.sup_moment['empirical']:.3f} vs "
      f"majorant {report.sup_moment['majorant']:.3f}")
