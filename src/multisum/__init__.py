"""Moment and tail bounds for multi-indexed sums of degenerate kernels,
with seeded Monte Carlo verification of their Gaussian-chaos limit laws."""

from .psi import (PsiFunction, MomentCurve, TailBound, SupportError,
                  power_log, extremal, bounded_support, exp_power,
                  product_of, rosenthal_scaled, tabulated_psi,
                  gls_norm, natural_psi, young_fenchel,
                  tail_bound_eval, psi_to_json, psi_from_json)
from .rosenthal import (ROSENTHAL_CONSTANT, rosenthal_K,
                        trivial_bound, dp_quasinorm,
                        theorem_W_bound, theorem_W_bounds, BoundReport)
from .kernels import (FactorFamily, DegenerateKernel, TabulatedKernel,
                      tabulated_family, kernel_to_json, kernel_from_json,
                      quadrature_rule)
from .index_sets import (IndexSet, Rect, RectPair, make_rect, staircase_set,
                         explicit_set, rect_pair, nclt_condition_report,
                         ConditionReport, squares_minus_corner_family,
                         lshape_family)
from .mc import (RngSpec, AxisDistribution, EmpiricalDist, compute_S_L,
                 simulate_S_L, sample_S_infty, empirical_moment,
                 empirical_tail, load_empirical)
from .parametric import (ParametricKernel, EntropyProfile, IntegralResult,
                         sigma_lambda, rho_lambda, covering_profile,
                         entropy_integral_power, entropy_integral_exp,
                         simulate_Q_L)
from .verify import (ks_distance, ks_critical, ConvergenceReport,
                     SandwichReport, TailDominationReport, Theorem8Report,
                     verify_nclt, check_theorem_8, verify_moment_sandwich,
                     verify_tail_domination, natural_composite)

__version__ = "0.1.0"
