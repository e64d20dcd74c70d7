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
    grid; a family may also supply ``residual_l2_floors(M_max)``, which lets
    the search skip the residual walks that cannot change the result.  The
    index-set size enters through the residual term only, so the caller
    supplies it per index set rather than a supremum over all of them.  A
    NaN candidate ends the search and is reported as the bound, at its rank,
    so that it cannot pass for a clean minimum.
    """
    return theorem_W_bounds(kernel_family, [p], L_size, M_max)[0]


def theorem_W_bounds(kernel_family, p_grid, L_size: int, M_max: int) -> list:
    """``theorem_W_bound`` at each p of ``p_grid``, one report per p, rank by rank.

    The head's ``D_p`` terms are listed once per p and summed up to each
    rank.  Each p keeps its own best value and rank, and stops on its own
    zero or NaN residual; the ranks end when every p has stopped.  Each rank
    asks ``residual_norms`` once for the p still searching that its floor
    (``_residual_floors``) does not rule out.  A rank is skipped at p when
    its walk is certified finite, so it cannot stop the search, and
    ``K(p)**d * D_p(Z_M) + sqrt(|L|) * floor`` exceeds the bar: the lower of
    the best value so far and the free rank's.  The free rank, the first
    whose residual holds no nonzero weight, has ``Q`` 0.0 with no walk.  The
    search reaches it, or stops before it at a zero residual, whose value is
    at most the free rank's since ``D_p(Z_M)`` grows with M, or at a NaN,
    which is then the report.  So a skipped rank is never the first minimum,
    and each report equals the walk-every-rank search's, and the one-p
    call's, bit for bit.
    """
    if M_max < 1:
        raise ValueError("M_max must be >= 1")
    if L_size < 1:
        raise ValueError("index sets are nonempty")
    d = kernel_family.d
    kd = [rosenthal_K(p) ** d for p in p_grid]
    terms = [list(_dp_terms(kernel_family.head, p)) for p in p_grid]
    root_l = math.sqrt(L_size)
    floors, free = _residual_floors(kernel_family, terms, M_max)
    bar = [math.inf] * len(p_grid)
    if free is not None:
        for i, p_terms in enumerate(terms):
            val = kd[i] * _dp_sum(p_terms, free)
            if val < math.inf:      # NaN is no bar
                bar[i] = val
    best_val = [math.inf] * len(p_grid)
    best_m = [None] * len(p_grid)
    searching = list(range(len(p_grid)))
    for m in range(1, M_max + 1):
        if not searching:
            break
        heads = {i: kd[i] * _dp_sum(terms[i], m) for i in searching}
        # no floor: NaN, whose sum compares false, so the rank is walked
        walk = [i for i in searching
                if not heads[i] + root_l * floors.get((i, m), math.nan) > bar[i]]
        if m == free:
            norms = [0.0] * len(walk)
        else:
            norms = kernel_family.residual_norms(m, [p_grid[i] for i in walk]) if walk else []
        stopped = set()
        for i, q_m in zip(walk, norms):
            val = heads[i] + root_l * q_m
            if val < best_val[i] or math.isnan(val):
                best_val[i] = val
                best_m[i] = m
                bar[i] = min(bar[i], val)
            # a zero residual: higher ranks cannot improve either term; NaN is the answer
            if q_m == 0.0 or math.isnan(val):
                stopped.add(i)
        searching = [i for i in searching if i not in stopped]
    payload = kernel_family.digest_payload()
    return [BoundReport(p=p, bound_value=val, route="theorem_W", m_star=m,
                        inputs_digest=_digest({"kernel": payload, "p": p, "L_size": L_size,
                                               "M_max": M_max}))
            for p, val, m in zip(p_grid, best_val, best_m)]


_FLOOR_MARGIN = 2.0 ** -20   # relative slack of a floor, far above the walk's rounding
_FLOOR_MIN = 2.0 ** -500     # smaller floors are unused: there, products may underflow


def _residual_floors(kernel_family, terms, M_max: int):
    """``(floors, free)``: ``floors[i, M]`` bounds the walk's ``Q_{M,p}`` at the i-th p from below.

    ``terms[i]`` is the head's ``_dp_terms`` list at the i-th p.  A rank has
    no floor when the family has no ``residual_l2_floors``, when the rank's
    walk is not certified finite, or when the bound is below ``_FLOOR_MIN``.
    Otherwise its floor is the larger of

    * the reverse triangle inequality on the residual's own terms: the
      largest ``t`` times ``1 - eps``, less the others times ``1 + eps``.
      Each rank-one term's L_p norm on the tensor rule is exactly
      ``|lambda| prod |g|_p``, its ``_dp_terms`` entry;
    * the residual's L_2 floor times ``1 - eps``, less ``eps * D_p`` (the
      residual's ``D_p``, the scale of the walk's rounding), since the rules
      are probability measures and Lyapunov's inequality gives
      ``Q_{M,p} >= Q_{M,2}`` for p >= 2.

    ``eps`` is ``_FLOOR_MARGIN``, 2**-20: it covers the rounding of the
    terms, of these sums and of the walk, which is relative to ``D_p`` and
    about ``(T + d) 2**-53`` for T terms.  ``free`` is the first rank whose
    residual holds no nonzero-weight term, when it is at most ``M_max`` and
    certified: its walk would return 0.0 exactly.  Else it is None.  No
    search passes that rank, so no floor is made there or past it.
    """
    floors = {}
    l2_floors = getattr(kernel_family, "residual_l2_floors", None)
    if l2_floors is None or not terms:
        return floors, None
    free = max((top for top, _ in terms[0]), default=1)
    l2 = l2_floors(min(free, M_max))
    if free > M_max or l2[-1] is None:
        free = None
    ranks = l2 if free is None else l2[:free - 1]
    for i, p_terms in enumerate(terms):
        for m, q2 in enumerate(ranks, 1):
            residual = [t for top, t in p_terms if top > m]
            d_p = sum(residual)
            if q2 is None or not residual or not d_p < math.inf:
                continue
            largest = max(residual)
            floor = max((1.0 - _FLOOR_MARGIN) * largest - (1.0 + _FLOOR_MARGIN) * (d_p - largest),
                        (1.0 - _FLOOR_MARGIN) * q2 - _FLOOR_MARGIN * d_p)
            if _FLOOR_MIN <= floor < math.inf:
                floors[i, m] = floor
    return floors, free
