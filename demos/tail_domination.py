#!/usr/bin/env python3
# The composite generating function (Rosenthal powers times factor naturals)
# yields one exponential tail bound valid for every finite index set; here it
# is checked pointwise against simulated tails.

import numpy as np

from multisum import (AxisDistribution, DegenerateKernel, FactorFamily, RngSpec,
                      TailBound, empirical_tail, make_rect,
                      natural_composite, simulate_S_L, staircase_set,
                      tail_bound_eval, verify_tail_domination)

gauss = [AxisDistribution("standard_normal")] * 2
kernel = DegenerateKernel(2, {(1, 1): 1.0}, [FactorFamily("hermite")] * 2)

composite = natural_composite(kernel, gauss, np.geomspace(2.0, 64.0, 25))
tb = TailBound(gls_norm=kernel.lambda_l1, psi=composite)
print(f"composite bound valid above y0 = {tb.validity_threshold:.3f}")

sets = [make_rect([1, 1]), make_rect([8, 8]), staircase_set([6, 5, 3, 2])]
report = verify_tail_domination(kernel, gauss, sets, composite, 50_000,
                                RngSpec(99))
print(f"probed grid of {len(report.y_grid)} levels, floor "
      f"{report.estimability_floor:.1e}")
print(f"violations: {report.violations}, worst margin {report.min_margin:.2f}x\n")

print("a closer look at the 8 x 8 box:")
sim = simulate_S_L(kernel, make_rect([8, 8]), gauss, 50_000, RngSpec(99).child(1))
for y in (3.0, 5.0, 8.0, 12.0):
    emp = empirical_tail(sim, y)
    bound = tail_bound_eval(tb, y)
    print(f"  y = {y:4.1f}: empirical {emp:.2e}  <=  bound {bound:.2e}")

print("\nheavier axes (symmetric log-Weibull) keep the log-power tail shape:")
lw = [AxisDistribution("log_weibull", beta=1.0)] * 2
heavy = DegenerateKernel(2, {(1, 1): 1.0}, [FactorFamily("hermite")] * 2)
comp_lw = natural_composite(heavy, lw, np.geomspace(2.0, 24.0, 17))
rep_lw = verify_tail_domination(heavy, lw, [make_rect([1, 1]), make_rect([4, 4])],
                                comp_lw, 50_000, RngSpec(123))
print(f"  violations: {rep_lw.violations}, margin {rep_lw.min_margin:.2f}x")
