"""Finite multi-index sets and their rectangle-deficiency geometry.

An index set is a finite subset of the positive integer lattice.  How close
it is to a rectangle is measured by two scaled cell counts: ``kappa_minus``,
the cells left uncovered by the best inscribed rectangle, and ``kappa_plus``,
the bounding-box cells not in the set, both divided by ``sqrt(|L|)``.
Vanishing deficiencies along a growing family are the hypotheses of the
irregular-domain limit theorems; this module computes them exactly for d = 2
and heuristically for d >= 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Rect",
    "IndexSet",
    "RectPair",
    "make_rect",
    "staircase_set",
    "explicit_set",
    "rect_pair",
    "nclt_condition_report",
    "ConditionReport",
    "squares_family",
    "squares_minus_corner_family",
    "lshape_family",
]


@dataclass(frozen=True)
class Rect:
    """Axis-aligned lattice box [lo_1, hi_1] x ... x [lo_d, hi_d], inclusive."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("corner dimension mismatch")
        if any(a < 1 or b < a for a, b in zip(self.lo, self.hi)):
            raise ValueError("need 1 <= lo <= hi per axis")

    @property
    def d(self):
        return len(self.lo)

    @property
    def size(self) -> int:
        return math.prod(b - a + 1 for a, b in zip(self.lo, self.hi))

    @property
    def min_side(self) -> int:
        return min(b - a + 1 for a, b in zip(self.lo, self.hi))

    def cells(self):
        axes = [np.arange(a, b + 1) for a, b in zip(self.lo, self.hi)]
        grid = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grid], axis=1)


@dataclass(frozen=True)
class IndexSet:
    """Finite subset of Z_+^d with a named representation (rect, staircase, explicit)."""

    d: int
    kind: str
    cells: np.ndarray          # (|L|, d), sorted rows, deterministic iteration
    params: tuple = ()

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=np.int64)
        if cells.ndim != 2 or cells.shape[1] != self.d or cells.shape[0] == 0:
            raise ValueError("an index set is a nonempty array of d-tuples")
        if np.any(cells < 1):
            raise ValueError("indices are 1-based")
        order = np.lexsort(cells.T[::-1])
        cells = cells[order]
        if cells.shape[0] > 1 and np.any(np.all(np.diff(cells, axis=0) == 0, axis=1)):
            raise ValueError("duplicate cells")
        cells = cells.copy()
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)

    @property
    def size(self) -> int:
        return int(self.cells.shape[0])

    def __len__(self):
        return self.size

    def axis_max(self, axis: int) -> int:
        if self.kind == "rect":
            return int(self.params[axis])
        return int(self.cells[:, axis].max())

    @cached_property
    def boxes(self) -> tuple:
        """Disjoint lattice boxes (``Rect``) whose union is the set, sorted by corners.

        Runs of consecutive cells along the last axis come first; then, one
        axis at a time from the second-to-last to the first, boxes that agree
        on every other axis and abut along this one merge.  A rectangle is
        one box and an L-shape two.
        """
        cells = self.cells
        last = cells[:, -1]
        new = np.ones(len(cells), dtype=bool)
        new[1:] = np.any(cells[1:, :-1] != cells[:-1, :-1], axis=1) | (np.diff(last) != 1)
        starts = np.flatnonzero(new)
        lo = cells[starts]
        hi = lo.copy()
        hi[:, -1] = last[np.append(starts[1:], len(cells)) - 1]
        for axis in range(self.d - 2, -1, -1):
            # boxes are still one cell thick along ``axis``: group by the other
            # extents, then merge neighbours one apart along ``axis``
            others = [s for s in range(self.d) if s != axis]
            key = np.concatenate([lo[:, others], hi[:, others]], axis=1)
            order = np.lexsort((lo[:, axis],) + tuple(key.T[::-1]))
            lo, hi, key = lo[order], hi[order], key[order]
            new = np.ones(len(lo), dtype=bool)
            new[1:] = np.any(key[1:] != key[:-1], axis=1) | (lo[1:, axis] != hi[:-1, axis] + 1)
            starts = np.flatnonzero(new)
            lo, hi = lo[starts], hi[np.append(starts[1:], len(new)) - 1]
        corners = np.concatenate([lo, hi], axis=1)
        return tuple(Rect(tuple(int(v) for v in lo[i]), tuple(int(v) for v in hi[i]))
                     for i in np.lexsort(corners.T[::-1]))

    def bounding_box(self) -> Rect:
        return Rect(tuple(int(v) for v in self.cells.min(axis=0)),
                    tuple(int(v) for v in self.cells.max(axis=0)))

    def to_json(self) -> dict:
        if self.kind == "rect":
            return {"d": self.d, "kind": "rect", "params": {"n": list(self.params)}}
        if self.kind == "staircase":
            return {"d": self.d, "kind": "staircase", "params": {"profile": list(self.params)}}
        return {"d": self.d, "kind": "explicit",
                "params": {"cells": self.cells.tolist()}}


def index_set_from_json(obj: dict) -> IndexSet:
    kind = obj["kind"]
    if kind == "rect":
        return make_rect(obj["params"]["n"])
    if kind == "staircase":
        return staircase_set(obj["params"]["profile"])
    if kind == "explicit":
        return explicit_set(obj["params"]["cells"])
    raise ValueError(f"unknown index set kind '{kind}'")


def make_rect(nvec) -> IndexSet:
    """Full box [1, n_1] x ... x [1, n_d]."""
    nvec = [int(n) for n in nvec]
    if not nvec:
        raise ValueError("need at least one axis bound")
    if any(n < 1 for n in nvec):
        raise ValueError("axis bounds must be >= 1")
    rect = Rect(tuple(1 for _ in nvec), tuple(nvec))
    return IndexSet(len(nvec), "rect", rect.cells(), tuple(nvec))


def staircase_set(profile) -> IndexSet:
    """d = 2 staircase: column i holds rows 1..profile[i]."""
    profile = [int(h) for h in profile]
    if not profile or any(h < 0 for h in profile):
        raise ValueError("profile heights must be nonnegative, at least one column")
    cells = [(i + 1, j + 1) for i, h in enumerate(profile) for j in range(h)]
    if not cells:
        raise ValueError("empty staircase")
    return IndexSet(2, "staircase", np.array(cells), tuple(profile))


def explicit_set(cells) -> IndexSet:
    cells = np.asarray(cells, dtype=np.int64)
    if cells.ndim != 2:
        raise ValueError("cells must be an array of tuples")
    return IndexSet(cells.shape[1], "explicit", cells)


@dataclass(frozen=True)
class RectPair:
    """Best inscribed and circumscribed rectangles of a set with their deficiencies."""

    l_minus: Rect
    l_plus: Rect
    kappa_minus: float
    kappa_plus: float
    inner_exact: bool = True   # False when the inscribed search was heuristic (d >= 3)


# ---------------------------------------------------------------------------
# rectangle searches
# ---------------------------------------------------------------------------


def _membership_grid(L: IndexSet):
    box = L.bounding_box()
    shape = tuple(b - a + 1 for a, b in zip(box.lo, box.hi))
    grid = np.zeros(shape, dtype=bool)
    idx = tuple((L.cells[:, s] - box.lo[s]) for s in range(L.d))
    grid[idx] = True
    return grid, box


def _best_rect_2d(grid: np.ndarray):
    """Largest all-true axis box in a boolean grid, exact O(W^2 H) scan.

    Ties break on the lexicographically smallest (lo1, lo2, hi1, hi2).
    """
    w, h = grid.shape
    pref = np.zeros((w + 1, h), dtype=np.int64)
    pref[1:] = np.cumsum(grid, axis=0)
    best = None
    for a in range(w):
        for b in range(a, w):
            full = (pref[b + 1] - pref[a]) == (b - a + 1)
            # longest run of full rows, earliest on ties
            run = 0
            start = 0
            best_run, best_start = 0, 0
            for j in range(h):
                if full[j]:
                    if run == 0:
                        start = j
                    run += 1
                    if run > best_run:
                        best_run, best_start = run, start
                else:
                    run = 0
            if best_run == 0:
                continue
            area = (b - a + 1) * best_run
            key = (-area, a, best_start, b, best_start + best_run - 1)
            if best is None or key < best:
                best = key
    if best is None:
        raise ValueError("no inscribed rectangle found in a nonempty set")
    _, a, j0, b, j1 = best
    return (a, j0), (b, j1)


def _best_rect_heuristic(L: IndexSet, restarts: int = 8):
    """Coordinate-descent box growth for d >= 3; deterministic restarts."""
    grid, box = _membership_grid(L)
    cells = L.cells
    best = None
    seeds = [cells[int(i)] for i in
             np.linspace(0, cells.shape[0] - 1, num=min(restarts, cells.shape[0]), dtype=int)]
    for seed in seeds:
        lo = np.asarray(seed, dtype=np.int64).copy()
        hi = lo.copy()
        grown = True
        while grown:
            grown = False
            for axis in range(L.d):
                for direction in (+1, -1):
                    lo2, hi2 = lo.copy(), hi.copy()
                    if direction > 0:
                        hi2[axis] += 1
                        if hi2[axis] > box.hi[axis]:
                            continue
                    else:
                        lo2[axis] -= 1
                        if lo2[axis] < box.lo[axis]:
                            continue
                    sl = tuple(slice(a - box.lo[s], b - box.lo[s] + 1)
                               for s, (a, b) in enumerate(zip(lo2, hi2)))
                    if grid[sl].all():
                        lo, hi = lo2, hi2
                        grown = True
            # keep growing until no axis extends
        size = math.prod(hi - lo + 1)
        key = (-size, tuple(lo), tuple(hi))
        if best is None or key < best:
            best = key
    _, lo, hi = best
    return Rect(tuple(int(v) for v in lo), tuple(int(v) for v in hi))


def rect_pair(L: IndexSet) -> RectPair:
    """Best inscribed and circumscribed rectangles of L with both deficiencies.

    The inscribed side is a maximum-cardinality rectangle inside L (exact for
    d = 2) and drives ``kappa_minus = |L \\ L_minus| / sqrt(|L|)``; the
    circumscribed side is the bounding box, with ``kappa_plus = |L_plus \\ L|
    / sqrt(|L|)``.  For d >= 3 a restart coordinate-descent heuristic finds
    the inscribed side and the result is flagged ``inner_exact=False``.
    """
    box = L.bounding_box()
    exact = True
    if L.kind == "rect":
        inner = box
    elif L.d == 2:
        grid, _ = _membership_grid(L)
        (a, j0), (b, j1) = _best_rect_2d(grid)
        inner = Rect((a + box.lo[0], j0 + box.lo[1]), (b + box.lo[0], j1 + box.lo[1]))
    else:
        inner = _best_rect_heuristic(L)
        exact = False
    root = math.sqrt(L.size)
    kappa_minus = (L.size - inner.size) / root
    kappa_plus = (box.size - L.size) / root
    return RectPair(inner, box, kappa_minus, kappa_plus, inner_exact=exact)


# ---------------------------------------------------------------------------
# growth-condition reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """Per-stage geometry of a growing family and the two theorem verdicts.

    The corner-growth condition is proxied by strictly increasing minimal side
    lengths of the paired rectangle (a translated box of growing sides has the
    same sum distribution, the variables being i.i.d.).  The vanishing-kappa
    condition is proxied by a nonincreasing trend whose last value falls below
    the configured threshold.  Thresholds are configuration, not theory.
    """

    sizes: tuple
    inner_min_sides: tuple
    outer_min_sides: tuple
    kappa_minus: tuple
    kappa_plus: tuple
    inscribed_ok: bool
    circumscribed_ok: bool
    kappa_threshold: float

    @property
    def hypotheses_met(self) -> bool:
        return self.inscribed_ok or self.circumscribed_ok

    def rows(self):
        for i in range(len(self.sizes)):
            yield {
                "stage": i,
                "L_size": self.sizes[i],
                "inner_min_side": self.inner_min_sides[i],
                "outer_min_side": self.outer_min_sides[i],
                "kappa_minus": self.kappa_minus[i],
                "kappa_plus": self.kappa_plus[i],
            }


def _trend_ok(kappas, sides, threshold):
    growing = all(b > a for a, b in zip(sides, sides[1:]))
    slack = 1e-12
    shrinking = all(b <= a + slack for a, b in zip(kappas, kappas[1:]))
    return growing and shrinking and kappas[-1] <= threshold


def nclt_condition_report(family, kappa_threshold: float = 0.25) -> ConditionReport:
    """Evaluate the rectangle-growth and kappa-decay conditions along a family.

    ``family`` is a sequence of ``IndexSet`` or ``(IndexSet, RectPair)``
    pairs; pairs are computed on demand when absent.
    """
    sets, pairs = [], []
    for item in family:
        if isinstance(item, tuple):
            L, pair = item
        else:
            L, pair = item, rect_pair(item)
        sets.append(L)
        pairs.append(pair)
    if not sets:
        raise ValueError("empty family")
    sizes = tuple(L.size for L in sets)
    inner_sides = tuple(p.l_minus.min_side for p in pairs)
    outer_sides = tuple(p.l_plus.min_side for p in pairs)
    km = tuple(p.kappa_minus for p in pairs)
    kp = tuple(p.kappa_plus for p in pairs)
    return ConditionReport(
        sizes=sizes,
        inner_min_sides=inner_sides,
        outer_min_sides=outer_sides,
        kappa_minus=km,
        kappa_plus=kp,
        inscribed_ok=_trend_ok(km, inner_sides, kappa_threshold),
        circumscribed_ok=_trend_ok(kp, outer_sides, kappa_threshold),
        kappa_threshold=kappa_threshold,
    )


# ---------------------------------------------------------------------------
# stock families used by the verification suite
# ---------------------------------------------------------------------------


def squares_family(sizes) -> list:
    return [make_rect([n, n]) for n in sizes]


def squares_minus_corner_family(sizes) -> list:
    """n x n squares with the far corner cell removed; kappa_plus = 1/sqrt(n^2-1)."""
    out = []
    for n in sizes:
        if n < 2:
            raise ValueError("need n >= 2 to remove a corner")
        cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                 if not (i == n and j == n)]
        out.append(explicit_set(cells))
    return out


def lshape_family(sizes, fraction: float = 0.5) -> list:
    """n x n squares with a fixed-fraction corner block missing (L-shapes).

    The missing block has side ``round(n * fraction)``, so both deficiencies
    stay bounded away from zero along the family.
    """
    out = []
    for n in sizes:
        c = max(1, round(n * fraction))
        if c >= n:
            raise ValueError("fraction too large")
        cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                 if not (i > n - c and j > n - c)]
        out.append(explicit_set(cells))
    return out
