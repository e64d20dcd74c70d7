"""Finite multi-index sets and their rectangle-deficiency geometry.

An index set is a finite subset of the positive integer lattice, stored as
disjoint lattice boxes.  How close it is to a rectangle is measured by two
scaled cell counts: ``kappa_minus``, the cells left uncovered by the best
inscribed rectangle, and ``kappa_plus``, the bounding-box cells not in the
set, both divided by ``sqrt(|L|)``.  Vanishing deficiencies along a growing
family are the hypotheses of the irregular-domain limit theorems; this module
computes them exactly in every dimension.
"""

from __future__ import annotations

import itertools
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
    "edge_grid",
    "nclt_condition_report",
    "ConditionReport",
    "squares_minus_corner_family",
    "lshape_family",
]

_KAPPA_THRESHOLD = 0.25     # the last deficiency of a family must fall below this


@dataclass(frozen=True)
class Rect:
    """Axis-aligned lattice box [lo_1, hi_1] x ... x [lo_d, hi_d], inclusive."""

    lo: tuple
    hi: tuple

    @property
    def size(self) -> int:
        return math.prod(b - a + 1 for a, b in zip(self.lo, self.hi))

    @property
    def min_side(self) -> int:
        return min(b - a + 1 for a, b in zip(self.lo, self.hi))


@dataclass(frozen=True, eq=False)
class IndexSet:
    """Finite subset of Z_+^d with a named representation (rect, staircase, explicit).

    The rows of the read-only ``(B, d)`` int64 arrays ``lo`` and ``hi`` are the
    inclusive corners of B disjoint lattice boxes, sorted by corners, whose union is the set.
    """

    kind: str
    lo: np.ndarray
    hi: np.ndarray
    params: tuple = ()

    @property
    def d(self) -> int:
        return self.lo.shape[1]

    @cached_property
    def size(self) -> int:
        """|L|, the boxes' cell counts summed in Python ints, so no size wraps."""
        return sum(math.prod(sides) for sides in (self.hi - self.lo + 1).tolist())

    def axis_max(self, axis: int) -> int:
        return int(self.hi[:, axis].max())

    @cached_property
    def cells(self) -> np.ndarray:
        """(|L|, d) array of the cells in lexicographic row order, built on first use."""
        cells = _box_cells(self)
        cells = cells[np.lexsort(cells.T[::-1])]
        cells.flags.writeable = False
        return cells

    @cached_property
    def edges(self) -> tuple:
        """Per axis, the sorted distinct box starts and ends ``hi + 1``: the cuts of L's box-edge grid."""
        edges = tuple(_sorted_unique(np.concatenate([self.lo[:, s], self.hi[:, s] + 1]))
                      for s in range(self.d))
        for e in edges:
            e.flags.writeable = False
        return edges

    def bounding_box(self) -> Rect:
        return Rect(tuple(self.lo.min(axis=0).tolist()), tuple(self.hi.max(axis=0).tolist()))

    def to_json(self) -> dict:
        if self.kind == "rect":
            return {"d": self.d, "kind": "rect", "params": {"n": list(self.params)}}
        if self.kind == "staircase":
            return {"d": self.d, "kind": "staircase", "params": {"profile": list(self.params)}}
        boxes = np.stack([self.lo, self.hi], axis=1).tolist()
        return {"d": self.d, "kind": "explicit", "params": {"boxes": boxes}}


def _box_cells(L: IndexSet) -> np.ndarray:
    """(|L|, d) cells of L's boxes, box after box, each box in lexicographic order.

    The first cells of a box's lines along the last axis are mixed-radix
    numbers over its leading sides; ``np.repeat`` and a ragged ``arange`` run
    each line out from there.
    """
    side = L.hi - L.lo + 1
    lines = np.prod(side[:, :-1], axis=1)
    box = np.repeat(np.arange(len(side)), lines)
    rank = np.arange(len(box)) - np.repeat(np.cumsum(lines) - lines, lines)
    first = L.lo[box]
    for axis in range(L.d - 2, -1, -1):
        rank, digit = np.divmod(rank, side[box, axis])
        first[:, axis] += digit
    run = side[box, -1]
    cells = np.repeat(first, run, axis=0)
    cells[:, -1] += np.arange(len(cells)) - np.repeat(np.cumsum(run) - run, run)
    return cells


def index_set_from_json(obj: dict) -> IndexSet:
    kind = obj["kind"]
    if kind == "rect":
        L = make_rect(obj["params"]["n"])
    elif kind == "staircase":
        L = staircase_set(obj["params"]["profile"])
    elif kind == "explicit" and "boxes" in obj["params"]:
        # the boxes' pieces on their edge grid go through ``explicit_set``, which
        # merges them as it merges cells and rejects a repeated piece as an overlap
        lo, hi = _int_array(obj["params"]["boxes"], "box corners", 3).swapaxes(0, 1)
        boxes = _box_set("explicit", lo, hi)
        first, end = _grid_faces(boxes)
        merged = explicit_set(_box_cells(_box_set("explicit", first + 1, end)))
        lo, end = (np.column_stack([e[c[:, s]] for s, e in enumerate(boxes.edges)])
                   for c in (merged.lo - 1, merged.hi))
        L = _box_set("explicit", lo, end - 1)
    elif kind == "explicit":
        L = explicit_set(obj["params"]["cells"])
    else:
        raise ValueError(f"unknown index set kind '{kind}'")
    if _json_int(obj.get("d"), "index set dimension 'd'") != L.d:
        raise ValueError(f"index set declares dimension d={obj.get('d')}, "
                         f"its params have dimension {L.d}")
    return L


def _json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer: a bool (JSON's true) or a float such as 2.0 is not."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _int_array(values, what: str, ndim: int) -> np.ndarray:
    """``values`` as an int64 array of ``ndim`` axes; a bool or other non-integer is an error."""
    if not isinstance(values, np.ndarray) and {bool, np.bool_} & set(
            map(type, np.asarray(values, dtype=object).flat)):
        raise ValueError(f"{what} must be integers, got a bool")   # NumPy would read 0 or 1
    arr = np.asarray(values)    # a ragged list is a ValueError here
    if (arr.size and arr.dtype.kind not in "iu") or arr.ndim != ndim:
        raise ValueError(f"{what} must be integers in {ndim} axes, got {arr.dtype} in {arr.ndim}")
    return arr.astype(np.int64)


def _sorted_unique(values) -> np.ndarray:
    """The distinct values of ``values``, flattened and ascending, as ``np.unique`` gives them.

    NumPy 2.4's ``np.unique`` imports ``numpy.ma`` on its first call (about
    11 ms and 1.3 MB); a sort and a mask of the steps do the same work.
    Unlike ``np.unique``, each NaN is kept.
    """
    out = np.sort(values, axis=None)
    step = np.empty(out.size, dtype=bool)
    step[:1] = True
    np.not_equal(out[1:], out[:-1], out=step[1:])
    return out[step]


def _box_set(kind, lo, hi, params=()) -> IndexSet:
    """Index set of disjoint boxes, their corners the rows of ``lo`` and ``hi`` in corner order."""
    lo, hi = (np.array(c, dtype=np.int64, ndmin=2) for c in (lo, hi))
    if lo.shape != hi.shape or lo.ndim != 2 or 0 in lo.shape:
        raise ValueError(f"need B >= 1 boxes of one dimension, got corners {lo.shape}, {hi.shape}")
    if np.any(lo < 1) or np.any(hi < lo):
        raise ValueError("need 1 <= lo <= hi per axis")
    lo.flags.writeable = hi.flags.writeable = False
    return IndexSet(kind, lo, hi, params)


def make_rect(nvec) -> IndexSet:
    """Full box [1, n_1] x ... x [1, n_d]."""
    nvec = _int_array(nvec, "axis bounds", 1).tolist()
    return _box_set("rect", [1] * len(nvec), nvec, tuple(nvec))


def staircase_set(profile) -> IndexSet:
    """d = 2 staircase: column i holds rows 1..profile[i], one box per run of equal heights."""
    h = _int_array(profile, "profile heights", 1)
    if not h.size or np.any(h < 0):
        raise ValueError("profile heights must be nonnegative, at least one column")
    if not h.any():
        raise ValueError("empty staircase")
    first = np.flatnonzero(np.diff(h, prepend=-1))      # first column of each run, 0-based
    last = np.append(first[1:], h.size)
    keep = h[first] > 0
    return _box_set("staircase", np.column_stack([first + 1, np.ones_like(first)])[keep],
                    np.column_stack([last, h[first]])[keep], tuple(h.tolist()))


def explicit_set(cells) -> IndexSet:
    """Index set of the given cells, split into disjoint boxes.

    Runs of consecutive cells along the last axis come first; then, one axis
    at a time from the second-to-last to the first, boxes that agree on every
    other axis and abut along this one merge.  A rectangle is one box and an
    L-shape two.
    """
    cells = _int_array(cells, "cells", 2)
    if 0 in cells.shape:
        raise ValueError("an index set is a nonempty array of d-tuples")
    cells = cells[np.lexsort(cells.T[::-1])]
    if np.any(np.all(np.diff(cells, axis=0) == 0, axis=1)):
        raise ValueError("duplicate cells")
    last = cells[:, -1]
    new = np.ones(len(cells), dtype=bool)
    new[1:] = np.any(cells[1:, :-1] != cells[:-1, :-1], axis=1) | (np.diff(last) != 1)
    starts = np.flatnonzero(new)
    lo = cells[starts]
    hi = lo.copy()
    hi[:, -1] = last[np.append(starts[1:], len(cells)) - 1]
    d = cells.shape[1]
    for axis in range(d - 2, -1, -1):
        # boxes are still one cell thick along ``axis``: group by the other
        # extents, then merge neighbours one apart along ``axis``
        others = [s for s in range(d) if s != axis]
        key = np.concatenate([lo[:, others], hi[:, others]], axis=1)
        order = np.lexsort((lo[:, axis],) + tuple(key.T[::-1]))
        lo, hi, key = lo[order], hi[order], key[order]
        new = np.ones(len(lo), dtype=bool)
        new[1:] = np.any(key[1:] != key[:-1], axis=1) | (lo[1:, axis] != hi[:-1, axis] + 1)
        starts = np.flatnonzero(new)
        lo, hi = lo[starts], hi[np.append(starts[1:], len(new)) - 1]
    order = np.lexsort(np.concatenate([lo, hi], axis=1).T[::-1])
    return _box_set("explicit", lo[order], hi[order])


@dataclass(frozen=True)
class RectPair:
    """Best inscribed and circumscribed rectangles of a set with their deficiencies."""

    l_minus: Rect
    l_plus: Rect
    kappa_minus: float
    kappa_plus: float


# ---------------------------------------------------------------------------
# rectangle search
# ---------------------------------------------------------------------------


def _heaviest_runs(rows: np.ndarray, widths: np.ndarray):
    """Weight, first and last column of each boolean row's heaviest run of trues.

    A column weighs ``widths``; ties go to the earliest run.  The first and
    last columns come back as ``(rows, 1)`` arrays, one-element corners.
    """
    edges = np.concatenate([[0], np.cumsum(widths)])
    # weight of the run ending at each column: the edge after it minus the
    # edge after the last false column before it (zero on false columns)
    start = np.maximum.accumulate(np.where(rows, 0, edges[1:]), axis=1)
    weight = edges[1:] - start
    last = weight.argmax(axis=1)
    pick = np.arange(len(rows))
    first = np.searchsorted(edges, start[pick, last])
    return weight[pick, last], first[:, None], last[:, None]


def _best_box(grid: np.ndarray, widths: list):
    """Heaviest all-true box of a boolean grid as ``(weight, lo, hi)`` grid indices.

    A cell weighs the product of its axes' ``widths``; ties go to the
    smallest ``(lo, hi)``.  For each first row a along axis 0, the slabs
    a..b are the running logical and of the rows from a; a 2-D slab's best
    box is its heaviest run, and a deeper slab's comes from recursing on it.
    """
    if grid.ndim == 1:
        weight, lo, hi = _heaviest_runs(grid[None], widths[0])
        return int(weight[0]), (int(lo[0, 0]),), (int(hi[0, 0]),)
    edges = np.concatenate([[0], np.cumsum(widths[0])])
    best = (0, (), ())
    for a in range(grid.shape[0]):
        slabs = np.logical_and.accumulate(grid[a:], axis=0)
        slabs = slabs[:np.count_nonzero(slabs.reshape(len(slabs), -1).any(axis=1))]
        if not len(slabs):
            continue
        if grid.ndim == 2:
            inner, lo, hi = _heaviest_runs(slabs, widths[1])
        else:
            inner, lo, hi = zip(*(_best_box(slab, widths[1:]) for slab in slabs))
        weight = (edges[a + 1:a + 1 + len(slabs)] - edges[a]) * np.asarray(inner)
        top = int(weight.max())
        if top < best[0]:
            continue
        for i in np.flatnonzero(weight == top):
            cand = (top, (a, *map(int, lo[i])), (a + int(i), *map(int, hi[i])))
            best = min(best, cand, key=lambda c: (-c[0], c[1], c[2]))
    return best


def _grid_faces(L: IndexSet):
    """Per box and axis, its first segment of L's edge grid and one past its last: two (B, d) arrays."""
    return (np.column_stack([np.searchsorted(e, c[:, s]) for s, e in enumerate(L.edges)])
            for c in (L.lo, L.hi + 1))


def edge_grid(L: IndexSet) -> np.ndarray:
    """L on its box-edge grid: the boolean tensor, True on the segment products inside L.

    Per axis, ``L.edges`` cut the line into segments, so every product of
    segments lies wholly inside or wholly outside L.  The grid is filled as a
    difference array: each box adds ``(-1)**k`` at its corners that take the
    far face on k axes, and a cumulative sum per axis turns that into the
    count of boxes over each grid cell.
    """
    first, end = _grid_faces(L)
    count = np.zeros([len(e) for e in L.edges], dtype=np.int32)
    for corner in itertools.product((0, 1), repeat=L.d):
        np.add.at(count, tuple(np.where(corner, end, first).T), (-1) ** sum(corner))
    for s in range(L.d):
        np.cumsum(count, axis=s, out=count)
    return count[(slice(-1),) * L.d] > 0


def rect_pair(L: IndexSet) -> RectPair:
    """Best inscribed and circumscribed rectangles of L with both deficiencies.

    The inscribed side is a maximum-cardinality rectangle inside L, ties
    going to the lexicographically smallest corners, and drives
    ``kappa_minus = |L \\ L_minus| / sqrt(|L|)``; the circumscribed side is
    the bounding box, with ``kappa_plus = |L_plus \\ L| / sqrt(|L|)``.

    The search is exact in every dimension and runs on L's box-edge grid
    (``edge_grid``).  A maximum box cannot slide one step along any axis
    (the union with its shifted copy would be a larger box), so each of its
    faces lies on a cut, and the heaviest all-true box of the grid, weighed
    by segment widths, is a maximum box of L.
    """
    cuts = L.edges
    _, i, j = _best_box(edge_grid(L), [np.diff(c) for c in cuts])
    inner = Rect(tuple(int(c[k]) for c, k in zip(cuts, i)),
                 tuple(int(c[k + 1]) - 1 for c, k in zip(cuts, j)))
    box = L.bounding_box()
    root = math.sqrt(L.size)
    kappa_minus = (L.size - inner.size) / root
    kappa_plus = (box.size - L.size) / root
    return RectPair(inner, box, kappa_minus, kappa_plus)


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
    ``_KAPPA_THRESHOLD``, a convention rather than theory.
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


def nclt_condition_report(sets) -> ConditionReport:
    """Evaluate the rectangle-growth and kappa-decay conditions along a family of sets."""
    sets = list(sets)
    if not sets:
        raise ValueError("empty family")
    pairs = [rect_pair(L) for L in sets]
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
        inscribed_ok=_trend_ok(km, inner_sides, _KAPPA_THRESHOLD),
        circumscribed_ok=_trend_ok(kp, outer_sides, _KAPPA_THRESHOLD),
        kappa_threshold=_KAPPA_THRESHOLD,
    )


# ---------------------------------------------------------------------------
# stock families used by the verification suite
# ---------------------------------------------------------------------------


def squares_minus_corner_family(sizes) -> list:
    """n x n squares with the far corner cell removed; kappa_plus = 1/sqrt(n^2-1)."""
    out = []
    for n in _int_array(sizes, "sizes", 1).tolist():
        if n < 2:
            raise ValueError("need n >= 2 to remove a corner")
        out.append(_box_set("explicit", [(1, 1), (n, 1)], [(n - 1, n), (n, n - 1)]))
    return out


def lshape_family(sizes, fraction: float = 0.5) -> list:
    """n x n squares with a fixed-fraction corner block missing (L-shapes).

    The missing block has side ``round(n * fraction)``, so both deficiencies
    stay bounded away from zero along the family; ``0 < fraction < 1``.
    """
    if not 0 < fraction < 1:
        raise ValueError(f"fraction must lie in (0, 1), got {fraction!r}")
    out = []
    for n in _int_array(sizes, "sizes", 1).tolist():
        c = max(1, round(n * fraction))
        if c >= n:
            raise ValueError("fraction too large")
        out.append(_box_set("explicit", [(1, 1), (n - c + 1, 1)], [(n - c, n), (n, n - c)]))
    return out
