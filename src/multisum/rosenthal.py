"""Moment bounds for normalized multi-indexed sums.

Three routes, from crudest to sharpest:

* ``trivial_bound``    -- triangle inequality, grows like ``sqrt(|L|)``.
* ``dp_quasinorm``     -- the computable surrogate ``D_p = sum_k |lambda(k)| *
  prod_s |g_k|_p`` of the representation quasi-norm; ``K(p)**d * D_p``
  bounds any finite-rank kernel uniformly over every finite index set.  The
  Klesov product bound ``K(p)**d * |w| prod_s |g_s|_p`` is its rank-one case.
* ``theorem_W_bound``  -- splits an approximable kernel into a rank-M part
  (the ``K(p)**d * D_p`` route) plus a residual (trivial route) and minimizes
  over M; ``theorem_W_bounds`` does so for a whole p-grid at once.

The Rosenthal function ``K(p)`` is the constant of the moment inequality for
normalized sums of centered independent variables: ``K(2) = 1`` exactly, and
``K(p) <= C_R * p / (e * ln p)`` for ``p > 2`` with ``C_R = 1.77638`` attained
near ``p = 33.461``.  The rule jumps at ``2+`` (1 -> about 1.89); both pieces
are upper bounds, so the jump is conservative, never wrong.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ROSENTHAL_CONSTANT",
    "rosenthal_K",
    "trivial_bound",
    "dp_quasinorm",
    "theorem_W_bound",
    "theorem_W_bounds",
    "BoundReport",
]

ROSENTHAL_CONSTANT = 1.77638


def rosenthal_K(p):
    """Rosenthal function: 1 at p = 2, ``C_R * p / (e ln p)`` for p > 2.

    Accepts scalars or arrays; p < 2 is outside the inequality's range.
    """
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr < 2.0):
        raise ValueError("rosenthal_K is defined for p >= 2")
    with np.errstate(divide="ignore"):
        out = np.where(p_arr == 2.0, 1.0,
                       ROSENTHAL_CONSTANT * p_arr / (math.e * np.log(p_arr)))
    if np.ndim(p) == 0:
        return float(out)
    return out


def trivial_bound(f_moment: float, p: float, L_size: int) -> float:
    """Triangle-inequality bound ``sqrt(|L|) * |f|_p``."""
    if f_moment < 0:
        raise ValueError("moment must be nonnegative")
    if L_size < 1:
        raise ValueError("index sets are nonempty")
    return math.sqrt(L_size) * f_moment


def dp_quasinorm(kernel, p: float, laws=None) -> float:
    """Single-representation surrogate ``sum_k |lambda(k)| * prod_s |g_{k_s}|_p``.

    The infimum over degenerate representations is not searched; the kernel's
    own representation is used, which always majorizes the true quasi-norm.
    ``laws``, one ``AxisDistribution`` per axis, takes each factor moment under
    that axis' law (``FactorFamily.moment``); None takes the base measures.
    """
    return _dp_sum(_dp_terms(kernel, p, laws))


def _dp_terms(kernel, p: float, laws=None):
    """``(largest index, |lambda(k)| * prod_s |g_{k_s}|_p)`` per nonzero term, in ``lam`` order.

    Each distinct factor moment is computed once per call.  Analytic families
    are equal by kind, a tabulated one only to itself (keyed by ``id``; the
    kernel holds it for the whole call).
    """
    laws = [None] * kernel.d if laws is None else laws
    memo = {}

    def moment(fam, k, law):
        key = (fam.kind if fam.canonical_base else id(fam), k, law)
        if key not in memo:
            memo[key] = fam.moment(k, p, law)
        return memo[key]

    for kvec, w in kernel.lam.items():
        if w != 0.0:
            moments = (moment(fam, k, law) for fam, k, law in zip(kernel.factors, kvec, laws))
            yield max(kvec), abs(w) * math.prod(moments)


def _dp_sum(terms, rank: float = math.inf) -> float:
    """Sum of the ``_dp_terms`` whose largest index is at most ``rank``.

    Plain left-to-right addition: the built-in ``sum`` compensates float
    rounding since Python 3.12, which would make the bits depend on the version.
    """
    total = 0.0
    for top, term in terms:
        if top <= rank:
            total += term
    return total


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: order p, route taken, value, and the minimizing rank."""

    p: float
    bound_value: float
    route: str                 # trivial | dp_quasinorm | theorem_W
    m_star: int | None = None
    inputs_digest: str = ""

    def __post_init__(self):
        if self.bound_value < 0:
            raise ValueError("bound values are nonnegative")

    def to_json_row(self) -> dict:
        return {
            "p": self.p,
            "route": self.route,
            "M_star": self.m_star,
            "value": self.bound_value,
            "inputs_digest": self.inputs_digest,
        }


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def theorem_W_bound(kernel_family, p: float, L_size: int, M_max: int) -> BoundReport:
    """Best split of an approximable kernel into rank-M head plus residual.

    Minimizes ``K(p)**d * D_p(Z_M) + sqrt(|L|) * Q_{M,p}`` over ranks
    ``M = 1..M_max``: ``theorem_W_bounds`` at the one p.  The kernel family
    supplies a degenerate ``head`` whose rank-M truncation is ``Z_M``, and
    ``residual_norms(M, p_grid)``, which is ``Q_{M,p}`` at each p of the
    grid.  The index-set size enters through the residual term only, so the
    caller supplies it per index set rather than a supremum over all of
    them.  A NaN candidate ends the search and is reported as the bound, at
    its rank, so that it cannot pass for a clean minimum.
    """
    return theorem_W_bounds(kernel_family, [p], L_size, M_max)[0]


def theorem_W_bounds(kernel_family, p_grid, L_size: int, M_max: int) -> list:
    """``theorem_W_bound`` at each p of ``p_grid``, one report per p, rank by rank.

    The head's ``D_p`` terms are listed once per p and summed up to each
    rank.  Each rank's residual norms come from one ``residual_norms`` call
    over the p still searching, so a quadrature-backed family walks its
    residual grid once per rank, not once per rank and p.  Each p keeps its
    own best value and rank, and stops on its own zero or NaN residual; the
    ranks end when every p has stopped.  Each report equals the one-p call's.
    """
    if M_max < 1:
        raise ValueError("M_max must be >= 1")
    if L_size < 1:
        raise ValueError("index sets are nonempty")
    d = kernel_family.d
    kd = [rosenthal_K(p) ** d for p in p_grid]
    terms = [list(_dp_terms(kernel_family.head, p)) for p in p_grid]
    root_l = math.sqrt(L_size)
    best_val = [math.inf] * len(p_grid)
    best_m = [None] * len(p_grid)
    searching = list(range(len(p_grid)))
    for m in range(1, M_max + 1):
        if not searching:
            break
        norms = kernel_family.residual_norms(m, [p_grid[i] for i in searching])
        still = []
        for i, q_m in zip(searching, norms):
            val = kd[i] * _dp_sum(terms[i], m) + root_l * q_m
            if val < best_val[i] or math.isnan(val):
                best_val[i] = val
                best_m[i] = m
            # a zero residual: higher ranks cannot improve either term; NaN is the answer
            if q_m != 0.0 and not math.isnan(val):
                still.append(i)
        searching = still
    payload = kernel_family.digest_payload()
    return [BoundReport(p=p, bound_value=val, route="theorem_W", m_star=m,
                        inputs_digest=_digest({"kernel": payload, "p": p, "L_size": L_size,
                                               "M_max": M_max}))
            for p, val, m in zip(p_grid, best_val, best_m)]
