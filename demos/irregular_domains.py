#!/usr/bin/env python3
# When the index set is not a box, two scaled deficiencies decide the limit
# theorem: cells missed by the best inscribed rectangle, and bounding-box
# cells outside the set, each divided by sqrt(|L|).

from multisum import (AxisDistribution, DegenerateKernel, FactorFamily, RngSpec,
                      lshape_family, nclt_condition_report,
                      rect_pair, squares_minus_corner_family, staircase_set,
                      verify_nclt)

print("=== geometry of a staircase ===")
stair = staircase_set([6, 6, 5, 3, 1])
pair = rect_pair(stair)
print(f"  |L| = {stair.size}, best inscribed rect = {pair.l_minus.size} cells,")
print(f"  kappa_minus = {pair.kappa_minus:.3f}, kappa_plus = {pair.kappa_plus:.3f}")

print("\n=== squares minus one corner cell ===")
sizes = [8, 16, 32, 64]
family = squares_minus_corner_family(sizes)
cond = nclt_condition_report(family)
for row in cond.rows():
    print(f"  |L| = {row['L_size']:5d}: kappa_minus = {row['kappa_minus']:.3f}, "
          f"kappa_plus = {row['kappa_plus']:.4f}")
print("  the inscribed deficiency saturates, but the circumscribed one vanishes:")
print(f"  inscribed condition: {cond.inscribed_ok}, circumscribed: {cond.circumscribed_ok}")

kernel = DegenerateKernel(2, {(1, 1): 1.0}, [FactorFamily("hermite")] * 2)
dists = [AxisDistribution("standard_normal")] * 2
report = verify_nclt(kernel, dists, family, 20_000, RngSpec(7),
                     limit_n=100_000)
print(f"  KS trajectory: {[round(r['ks'], 4) for r in report.stages]}")
print(f"  verdict: {report.verdict}")

print("\n=== L-shapes with a fixed missing quarter ===")
lfam = lshape_family([8, 16, 32], fraction=0.5)
report2 = verify_nclt(kernel, dists, lfam, 20_000, RngSpec(8),
                      limit_n=100_000)
for row in report2.stages:
    print(f"  |L| = {row['L_size']:5d}: kappa_minus = {row['kappa_minus']:.3f}, "
          f"KS = {row['ks']:.4f}")
print(f"  verdict: {report2.verdict}   (deficiencies stay bounded away from 0)")
