"""Exact second and fourth moments of a normalized sum ``S_L`` on standard normal axes.

``mc.EmpiricalDist.variance_se`` uses them for the exact standard error of a
simulated sample variance.  ``mc`` imports this module on first use, so a
run that reads no standard error does not load it.
"""

from __future__ import annotations

import math

import numpy as np

from .index_sets import IndexSet, _sorted_unique
from .kernels import _GAUSS_NODE_COUNT
from .mc import _terms


_MOMENT_TERMS = 16    # at most: a term tensor holds M**4 floats, 0.5 MB at 16
_MOMENT_GRID = 4096   # at most: cells of the compressed grid that each count walks
_MOMENT_AXES = 4      # at most: there are 4**d agreement patterns
_PAIRINGS = ("ab,cd->abcd", "ac,bd->abcd", "ad,bc->abcd")   # {01|23}, {02|13}, {03|12}
_SECOND = ((), (2, 3), (1, 3), (1, 2))   # per pattern, the copies on a pairing's second value


def _pattern_tensors(factors, kvecs):
    """Per axis, four (M, M, M, M) tensors of the terms' Hermite factors, one per pattern.

    Pattern i (1 to 3) is the i-th pairing of Gram entries, e.g. ``G_ab G_cd``
    with ``G_ab = [k_a = k_b]``, since the factors are orthonormal under the
    standard normal law.  Pattern 0 (all four coordinates equal) is the joint
    moment ``E[h_a h_b h_c h_d]``, by Gauss-Hermite quadrature, minus the
    three pairings.  None when the rule is not exact for products of four
    factors.
    """
    out = []
    for axis, family in enumerate(factors):
        ks = np.array([k[axis] for k in kvecs])
        if 4 * ks.max() >= 2 * _GAUSS_NODE_COUNT:
            return None
        x, w = family.rule
        u = family.evaluate_block(int(ks.max()), x)[ks - 1]
        gram = np.equal.outer(ks, ks).astype(float)
        pairs = [np.einsum(p, gram, gram) for p in _PAIRINGS]
        full = np.einsum("aq,bq,cq,dq,q->abcd", u, u, u, u, w, optimize=True)
        out.append([full - sum(pairs)] + pairs)
    return out


def _grid(L: IndexSet, edges):
    """L on the grid cut at ``edges``, its box edges: per axis the segment lengths; L's 0/1 tensor."""
    grid = np.zeros([len(e) - 1 for e in edges])
    for lo, hi in zip(L.lo, L.hi):
        grid[tuple(slice(np.searchsorted(e, a), np.searchsorted(e, b + 1))
                   for e, a, b in zip(edges, lo, hi))] = 1.0
    return [np.diff(e).astype(float) for e in edges], grid


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
    """Exact ``(Var S_L, E S_L**4)`` on standard normal axes, or None where no rule applies.

    The rule needs Hermite factors on every axis, which are centred and
    orthonormal under the normal law: ``E S_L = 0`` and ``Var S_L =
    sum lambda**2`` (``kernel.sigma_sq``).  In the expansion of ``E S_L**4``
    over 4-tuples of cells and of terms, a tuple adds nothing when some
    coordinate value of some axis occurs in it once, so on each axis the four
    coordinates are all equal or equal in the two pairs of one of the three
    pairings.  Counting the tuples that agree *at least* as a per-axis
    pattern says (``_agreeing_tuples``) counts an all-equal axis under each
    pairing too; the pattern-0 tensor subtracts the pairings from the
    four-way factor moment (``_pattern_tensors``), so each tuple is weighed
    once.  Hence ``E S_L**4 = |L|**-2 sum_patterns count * sum_{a,b,c,d}
    lambda_a lambda_b lambda_c lambda_d prod_s T_s[pattern_s]``.  It applies
    up to ``_MOMENT_TERMS`` terms, ``_MOMENT_AXES`` axes and a grid of
    ``_MOMENT_GRID`` cells (a box is one cell, an L-shape four), and every
    limit is checked before the grid is built.  Other laws keep the plug-in
    standard error (ROADMAP item 10).
    """
    kvecs, weights = _terms(kernel.lam)
    if not kvecs:
        return 0.0, 0.0
    if (len(kvecs) > _MOMENT_TERMS or L.d > _MOMENT_AXES
            or any(family.kind != "hermite" for family in kernel.factors)
            or any(law.kind != "standard_normal" for law in dists)):
        return None
    edges = [_sorted_unique(np.concatenate([L.lo[:, s], L.hi[:, s] + 1])) for s in range(L.d)]
    if math.prod(len(e) - 1 for e in edges) > _MOMENT_GRID:
        return None
    tensors = _pattern_tensors(kernel.factors, kvecs)
    if tensors is None:
        return None
    lengths, grid = _grid(L, edges)
    w = weights[0]
    w4 = np.einsum("a,b,c,d->abcd", w, w, w, w)
    fourth = 0.0
    for pattern in np.ndindex(*[4] * L.d):
        moment = float(np.sum(w4 * math.prod(t[p] for t, p in zip(tensors, pattern))))
        fourth += _agreeing_tuples(lengths, grid, pattern) * moment
    return kernel.sigma_sq, fourth / L.size ** 2
