#!/usr/bin/env python3
# Normalized sums over growing boxes converge to a Gaussian chaos, not a
# normal law: watch the KS distance to the directly sampled limit shrink.

from multisum import (AxisDistribution, DegenerateKernel, FactorFamily, RngSpec,
                      make_rect, verify_nclt)

gauss = AxisDistribution("standard_normal")


def cubes(d, sizes):
    return [make_rect([n] * d) for n in sizes]


print("=== d = 2, rank-one kernel f(x,y) = xy ===")
kernel = DegenerateKernel(2, {(1, 1): 1.0}, [FactorFamily("hermite")] * 2)
report = verify_nclt(kernel, [gauss] * 2, cubes(2, [4, 16, 64]), 20_000,
                     RngSpec(2024), limit_n=100_000)
print(f"  limit: product of two standard normals; verdict = {report.verdict}")
for row in report.stages:
    print(f"  n x n with |L| = {row['L_size']:5d}: KS = {row['ks']:.4f}")
print(f"  noise budget {report.noise_budget:.4f}, final threshold "
      f"{report.final_threshold}")

print("\n=== a richer kernel: mixed Hermite degrees ===")
kernel2 = DegenerateKernel(2, {(1, 1): 0.8, (2, 2): 0.6},
                           [FactorFamily("hermite")] * 2)
report2 = verify_nclt(kernel2, [gauss] * 2, cubes(2, [4, 16, 64]), 20_000,
                      RngSpec(2025), limit_n=100_000)
for row in report2.stages:
    print(f"  |L| = {row['L_size']:5d}: KS = {row['ks']:.4f}")
print(f"  verdict = {report2.verdict}")

print("\n=== d = 3 boxes ===")
kernel3 = DegenerateKernel(3, {(1, 1, 1): 1.0}, [FactorFamily("hermite")] * 3)
report3 = verify_nclt(kernel3, [gauss] * 3, cubes(3, [4, 8, 16]), 20_000,
                      RngSpec(2026), limit_n=100_000)
for row in report3.stages:
    print(f"  |L| = {row['L_size']:5d}: KS = {row['ks']:.4f}")
print(f"  verdict = {report3.verdict}")
