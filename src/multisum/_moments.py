"""Exact second and fourth moments of a normalized sum ``S_L``, from one law table per axis.

``mc.EmpiricalDist.variance_se`` uses them for the exact standard error of a
simulated sample variance.  ``mc`` imports this module on first use, so a
run that reads no standard error does not load it.
"""

from __future__ import annotations

import math

import numpy as np

from .index_sets import IndexSet, edge_grid
from .kernels import quadrature_rule
from .mc import _terms


_MOMENT_TERMS = 16    # at most: a term tensor holds M**4 floats, 0.5 MB at 16
_MOMENT_GRID = 4096   # at most: cells of the compressed grid that each count walks
_MOMENT_AXES = 4      # at most: there are 4**d agreement patterns
_MEAN_TOL = 2.0 ** -30   # a factor mean counts as zero below this times its L_2 norm
_GAUSS_LAWS = ("standard_normal", "centered_exponential")   # the other rules are the law itself
_PAIRINGS = ("ab,cd->abcd", "ac,bd->abcd", "ad,bc->abcd")   # {01|23}, {02|13}, {03|12}
_SECOND = ((), (2, 3), (1, 3), (1, 2))   # per pattern, the copies on a pairing's second value


def axis_law_table(family, law, ks):
    """``(E g_a, E g_a g_b, E g_a g_b g_c g_d)`` over ``family``'s factors ``ks`` under ``law``.

    ``ks`` lists 1-based members, repeats allowed (``range(1, kmax + 1)`` gives
    the 1..kmax table), and ``law`` is the axis' ``AxisDistribution``.  Each
    entry is a sum over these rows on the law's own rule,
    ``quadrature_rule(law.kind)``; a canonical pair (the family's base law)
    has mean 0 and the Gram matrix of orthonormal factors exactly.  None where
    the rule is not exact for four factors: a Gauss rule of n nodes is exact to
    degree ``2n - 1``, so to ``4 max(ks) <= 127``; the Rademacher and Poisson
    rules are the law itself but may overflow; tabulated factors have no rule.
    Nor has a log-Weibull law, but on its identity (k = 1 of an analytic family)
    every mean is 0, Gram entry ``E xi**2`` and four-way entry ``E xi**4``.
    """
    if family.canonical_base is None:
        return None
    ks = np.asarray(ks)
    kmax = int(ks.max())
    if law.kind == "log_weibull":
        if kmax > 1:
            return None
        return (np.zeros(ks.size), np.full((ks.size,) * 2, law.identity_moment(2) ** 2),
                np.full((ks.size,) * 4, law.identity_moment(4) ** 4))
    x, w = quadrature_rule(law.kind)
    if law.kind in _GAUSS_LAWS and 4 * kmax >= 2 * x.size:
        return None
    u = family.evaluate_block(kmax, x)[ks - 1]
    four = np.einsum("aq,bq,cq,dq,q->abcd", u, u, u, u, w, optimize=True)
    if not np.isfinite(four).all():
        return None
    if law.kind == family.canonical_base:
        return np.zeros(ks.size), np.identity(kmax)[np.ix_(ks - 1, ks - 1)], four
    return u @ w, (u * w) @ u.T, four


def _pattern_tensors(tables):
    """Per axis table, four (M, M, M, M) tensors of the terms' factors, one per pattern.

    Pattern i (1 to 3) is the i-th pairing of Gram entries, e.g. ``G_ab G_cd``;
    pattern 0 (all four coordinates equal) is the four-way moment minus the three.
    """
    out = []
    for _, gram, four in tables:
        pairs = [np.einsum(p, gram, gram) for p in _PAIRINGS]
        out.append([four - sum(pairs)] + pairs)
    return out


def _agreeing_tuples(lengths, grid, pattern) -> float:
    """Ordered 4-tuples of cells of L whose coordinates agree at least as ``pattern`` says.

    On an axis of pattern 0 the four coordinates are one value; on one of
    pattern i they are two values, one per pair of the i-th pairing, which may
    coincide.  A value is a grid segment weighted by its length.
    """
    letters = "abcdefghijklmnop"
    subs = ["".join(letters[2 * s + (copy in _SECOND[p])] for s, p in enumerate(pattern))
            for copy in range(4)]
    ops = [grid] * 4
    for s, p in enumerate(pattern):
        for j in range(1 if p == 0 else 2):
            subs.append(letters[2 * s + j])
            ops.append(lengths[s])
    return float(np.einsum(",".join(subs) + "->", *ops, optimize="greedy"))


def sum_moments(kernel, L: IndexSet, dists):
    """Exact ``(Var S_L, E S_L**4)`` under the axis laws ``dists``, or None where no rule applies.

    Every axis needs a law table (``axis_law_table``) of its terms' factors
    whose means are zero: ``|E g_k| <= 2**-30 sqrt(E g_k**2)``, far above the
    rules' rounding (below 1e-13 on the centred factors of degree 2 or less).
    Then cells that differ on an axis are uncorrelated, and ``Var S_L =
    sum_{a,b} lambda_a lambda_b prod_s G_s[a_s, b_s]``, summed in term order by
    Python's ``sum``: where every ``G_s`` is the identity the off-diagonal
    products are exact zeros, and it is ``kernel.sigma_sq`` bit for bit.  In
    the expansion of ``E S_L**4`` over 4-tuples of cells and of terms, a tuple
    adds nothing when some coordinate value of some axis occurs in it once, so
    on each axis the four coordinates are all equal or equal in the two pairs
    of one of the three pairings.  Counting the tuples that agree *at least*
    as a per-axis pattern says (``_agreeing_tuples``) counts an all-equal axis
    under each pairing too; the pattern-0 tensor subtracts the pairings from
    the four-way moment (``_pattern_tensors``), so each tuple is weighed once.
    Hence ``E S_L**4 = |L|**-2 sum_patterns count * sum_{a,b,c,d} lambda_a
    lambda_b lambda_c lambda_d prod_s T_s[pattern_s]``.  It applies up to
    ``_MOMENT_TERMS`` terms, ``_MOMENT_AXES`` axes and an ``edge_grid`` of
    ``_MOMENT_GRID`` cells (a box is one cell, an L-shape four), and every
    limit is checked before the grid is built.
    """
    kvecs, weights = _terms(kernel.lam)
    if not kvecs:
        return 0.0, 0.0
    if len(kvecs) > _MOMENT_TERMS or L.d > _MOMENT_AXES:
        return None
    if math.prod(len(e) - 1 for e in L.edges) > _MOMENT_GRID:
        return None
    tables = [axis_law_table(family, law, [k[s] for k in kvecs])
              for s, (family, law) in enumerate(zip(kernel.factors, dists))]
    if any(t is None or np.any(np.abs(t[0]) > _MEAN_TOL * np.sqrt(t[1].diagonal()))
           for t in tables):
        return None
    w = weights[0]
    lam, grams = w.tolist(), [t[1].tolist() for t in tables]
    var = sum(lam[a] * lam[b] * math.prod(g[a][b] for g in grams)
              for a in range(len(lam)) for b in range(len(lam)))
    tensors = _pattern_tensors(tables)
    lengths, grid = [np.diff(e).astype(float) for e in L.edges], edge_grid(L).astype(float)
    w4 = np.einsum("a,b,c,d->abcd", w, w, w, w)
    fourth = 0.0
    for pattern in np.ndindex(*[4] * L.d):
        moment = float(np.sum(w4 * math.prod(t[p] for t, p in zip(tensors, pattern))))
        fourth += _agreeing_tuples(lengths, grid, pattern) * moment
    return var, fourth / L.size ** 2
