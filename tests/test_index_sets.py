"""Index-set geometry: rectangles, deficiencies, growth-condition verdicts."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisum import (Rect, explicit_set, lshape_family, make_rect,
                      nclt_condition_report, rect_pair,
                      squares_minus_corner_family, staircase_set)
from multisum import index_sets
from multisum.index_sets import _box_cells, edge_grid, index_set_from_json

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def corners(L):
    """The set's boxes as the lists ``(lo, hi)`` of their corner rows."""
    return L.lo.tolist(), L.hi.tolist()


def brute_force_best_rect(cells):
    """Oracle: enumerate every axis-aligned rectangle inside the set (d = 2)."""
    cellset = set(map(tuple, cells))
    xs = sorted({i for i, _ in cellset})
    ys = sorted({j for _, j in cellset})
    best = 0
    for a, b in itertools.combinations_with_replacement(xs, 2):
        for c, d in itertools.combinations_with_replacement(ys, 2):
            cand = [(i, j) for i in range(a, b + 1) for j in range(c, d + 1)]
            if all(cell in cellset for cell in cand):
                best = max(best, len(cand))
    return best


def grid_scan_best_rect(cells):
    """Reference: exact O(W^2 H) scan of the d = 2 membership grid.

    Ties break on the lexicographically smallest (lo1, lo2, hi1, hi2).
    Returns the corners ``(lo, hi)`` in the set's coordinates.
    """
    cells = np.asarray(cells)
    base = cells.min(axis=0)
    w, h = cells.max(axis=0) - base + 1
    grid = np.zeros((w, h), dtype=bool)
    grid[tuple((cells - base).T)] = True
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
    _, a, j0, b, j1 = best
    return ((int(a + base[0]), int(j0 + base[1])), (int(b + base[0]), int(j1 + base[1])))


def brute_force_best_box(cells):
    """Oracle in any d: every box inside the bounding box, ``(-size, lo, hi)`` smallest."""
    cells = np.asarray(cells)
    top = cells.max(axis=0)
    grid = np.zeros(top + 1, dtype=bool)
    grid[tuple(cells.T)] = True
    best = None
    spans = [[(a, b) for a in range(1, n + 1) for b in range(a, n + 1)] for n in top]
    for span in itertools.product(*spans):
        if grid[tuple(slice(a, b + 1) for a, b in span)].all():
            lo, hi = tuple(a for a, _ in span), tuple(b for _, b in span)
            key = (-math.prod(b - a + 1 for a, b in span), lo, hi)
            best = key if best is None or key < best else best
    return best


@st.composite
def planar_cells(draw):
    """Nonempty random subset of a shifted box of side <= 9 in d = 2."""
    w, h = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    keep = draw(st.lists(st.booleans(), min_size=w * h, max_size=w * h))
    if not any(keep):
        keep[0] = True
    shift = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
    return [(i + 1 + shift[0], j + 1 + shift[1]) for i in range(w) for j in range(h)
            if keep[i * h + j]]


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def test_make_rect_cardinalities():
    assert make_rect([1, 1]).size == 1
    assert make_rect([3, 4]).size == 12
    L = make_rect([2, 3, 4])
    assert L.size == 24 and L.d == 3
    with pytest.raises(ValueError):
        make_rect([])
    with pytest.raises(ValueError):
        make_rect([0, 2])


def test_sizes_past_int64_do_not_wrap():
    # a product of int64 sides wraps: the 4-cube of side 2**16 read 0, the 3e9 x 4e9 box
    # -6446744073709551616
    cube = make_rect([2 ** 16] * 4)
    assert cube.size == 2 ** 64
    assert make_rect([3 * 10 ** 9, 4 * 10 ** 9]).size == 12 * 10 ** 18
    assert explicit_set([(1, 1), (1, 2), (3, 1)]).size == 3
    assert cube.size is cube.size       # computed once: the same int object each read


def test_explicit_set_sorted_deduplicated():
    L = explicit_set([(2, 1), (1, 1), (1, 2)])
    assert L.size == 3
    assert L.cells[0].tolist() == [1, 1]
    with pytest.raises(ValueError):
        explicit_set([(1, 1), (1, 1)])
    with pytest.raises(ValueError):
        explicit_set([(0, 1)])


@pytest.mark.parametrize("cells", [[[1, True], [2, 1]], [[1, 1], [2, np.True_]]],
                         ids=["python-bool", "numpy-bool"])
def test_explicit_set_rejects_a_bool_cell_index(cells):
    # np.asarray would read True as 1 and build {(1, 1), (2, 1)}
    with pytest.raises(ValueError, match="bool"):
        explicit_set(cells)
    with pytest.raises(ValueError, match="bool"):
        index_set_from_json({"d": 2, "kind": "explicit", "params": {"cells": cells}})


def test_staircase_profile():
    L = staircase_set([4, 4, 3, 2])
    assert L.size == 13


# ---------------------------------------------------------------------------
# inscribed rectangles
# ---------------------------------------------------------------------------


def test_rect_is_its_own_inscribed_rect():
    L = make_rect([5, 3])
    pair = rect_pair(L)
    assert pair.kappa_minus == 0.0
    assert pair.kappa_plus == 0.0
    assert pair.l_minus.size == 15


def test_staircase_inscribed_matches_enumeration():
    # profile (4,4,3,2): 13 cells; the exhaustive oracle finds the 3x3 block,
    # so kappa_minus = (13 - 9) / sqrt(13)
    L = staircase_set([4, 4, 3, 2])
    oracle = brute_force_best_rect(L.cells)
    assert oracle == 9
    pair = rect_pair(L)
    assert pair.l_minus.size == oracle
    assert pair.kappa_minus == pytest.approx(4 / math.sqrt(13), rel=1e-12)


def test_union_of_two_rects():
    cells = ([(i, j) for i in range(1, 4) for j in range(1, 4)]       # 3x3 block
             + [(i, j) for i in range(10, 12) for j in range(1, 3)])  # 2x2 block
    L = explicit_set(cells)
    pair = rect_pair(L)
    assert pair.l_minus.size == 9
    assert pair.kappa_minus == pytest.approx(4 / math.sqrt(13), rel=1e-12)


def test_inscribed_optimal_on_random_small_sets():
    rng = np.random.default_rng(23)
    for _ in range(25):
        w, h = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        keep = rng.random((w, h)) < 0.7
        cells = [(i + 1, j + 1) for i in range(w) for j in range(h) if keep[i, j]]
        if not cells:
            continue
        L = explicit_set(cells)
        assert rect_pair(L).l_minus.size == brute_force_best_rect(cells)


def test_inscribed_tie_break_lexicographic():
    # two max rectangles of equal size; the lexicographically smaller corner wins
    L = explicit_set([(1, 1), (1, 2), (3, 1), (3, 2)])
    pair = rect_pair(L)
    assert pair.l_minus.lo == (1, 1) and pair.l_minus.size == 2


# ---------------------------------------------------------------------------
# circumscribed rectangles
# ---------------------------------------------------------------------------


def test_circumscribed_examples():
    assert rect_pair(make_rect([4, 4])).kappa_plus == 0.0
    stair = staircase_set([4, 4, 3, 2])
    assert rect_pair(stair).kappa_plus == pytest.approx(
        3 / math.sqrt(13), rel=1e-12)


def test_circumscribed_diagonal_grows():
    for n in (4, 9, 16):
        L = explicit_set([(i, i) for i in range(1, n + 1)])
        pair = rect_pair(L)
        assert pair.kappa_plus == pytest.approx((n * n - n) / math.sqrt(n), rel=1e-12)
    # deficiency grows with n: the growth condition must fail on this family
    report = nclt_condition_report(
        [explicit_set([(i, i) for i in range(1, n + 1)]) for n in (4, 9, 16)])
    assert not report.circumscribed_ok


def test_kappas_nonnegative_and_zero_iff_rect():
    for L in (make_rect([3, 7]), staircase_set([3, 2, 1]),
              explicit_set([(1, 1), (2, 2)])):
        pair = rect_pair(L)
        assert pair.kappa_minus >= 0 and pair.kappa_plus >= 0
        if L.kind == "rect":
            assert pair.kappa_minus == 0 and pair.kappa_plus == 0
        else:
            assert pair.kappa_minus > 0 or pair.kappa_plus > 0
    # exact identity |L \ L_minus| = kappa_minus * sqrt(|L|)
    stair = staircase_set([4, 4, 3, 2])
    pair = rect_pair(stair)
    assert pair.kappa_minus * math.sqrt(stair.size) == pytest.approx(
        stair.size - pair.l_minus.size, rel=1e-12)


@SETTINGS
@given(planar_cells())
def test_inscribed_matches_grid_scan_corners(cells):
    inner = rect_pair(explicit_set(cells)).l_minus
    assert (inner.lo, inner.hi) == grid_scan_best_rect(cells)


# ---------------------------------------------------------------------------
# d >= 3
# ---------------------------------------------------------------------------


def test_heuristic_inner_rect_3d():
    L = make_rect([3, 3, 3])
    pair = rect_pair(L)
    assert pair.kappa_minus == 0.0
    cells = [c for c in itertools.product(range(1, 4), repeat=3)
             if c != (3, 3, 3)]
    L2 = explicit_set(cells)
    pair2 = rect_pair(L2)
    # three 18-cell boxes (2x3x3, 3x2x3, 3x3x2) tie; the smallest corners win
    assert (pair2.l_minus.lo, pair2.l_minus.hi) == ((1, 1, 1), (2, 3, 3))
    assert pair2.l_minus.size == 18
    assert pair2.kappa_minus == pytest.approx(8 / math.sqrt(26), rel=1e-12)
    assert pair2.kappa_plus == pytest.approx(1 / math.sqrt(26), rel=1e-12)


def test_inscribed_3d_finds_the_column():
    # coordinate descent from the set's cells stops at a 2-cell box here
    cells = [(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 2), (2, 1, 1), (2, 1, 3), (2, 2, 1)]
    inner = rect_pair(explicit_set(cells)).l_minus
    assert (inner.lo, inner.hi) == ((1, 1, 1), (1, 1, 3))


@SETTINGS
@given(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
       .flatmap(lambda shape: st.sets(st.tuples(*[st.integers(1, n) for n in shape]),
                                      min_size=1)))
def test_inscribed_matches_brute_force_up_to_4_cubed(cells):
    inner = rect_pair(explicit_set(sorted(cells))).l_minus
    assert (-inner.size, inner.lo, inner.hi) == brute_force_best_box(sorted(cells))


# ---------------------------------------------------------------------------
# condition reports
# ---------------------------------------------------------------------------


def test_growing_squares_pass():
    report = nclt_condition_report([make_rect([n, n]) for n in (4, 8, 16)])
    assert report.inscribed_ok and report.circumscribed_ok
    assert report.hypotheses_met
    assert all(k == 0 for k in report.kappa_minus)


def test_squares_minus_corner_circumscribed_lane():
    sizes = (4, 8, 16, 32)
    family = squares_minus_corner_family(sizes)
    report = nclt_condition_report(family)
    # counting oracle: the bounding box misses exactly one cell
    for n, kp, km in zip(sizes, report.kappa_plus, report.kappa_minus):
        assert kp == pytest.approx(1 / math.sqrt(n * n - 1), rel=1e-12)
        assert km == pytest.approx((n - 1) / math.sqrt(n * n - 1), rel=1e-12)
    assert report.circumscribed_ok        # kappa_plus -> 0 with growing boxes
    assert not report.inscribed_ok        # kappa_minus -> 1, documented
    assert report.hypotheses_met


def test_lshape_fixed_fraction_fails():
    report = nclt_condition_report(lshape_family([8, 16, 32], fraction=0.5))
    assert not report.hypotheses_met
    assert min(report.kappa_minus) >= 0.3
    assert min(report.kappa_plus) >= 0.3


def test_condition_report_rows_and_threshold(monkeypatch):
    monkeypatch.setattr(index_sets, "_KAPPA_THRESHOLD", 0.1)
    report = nclt_condition_report([make_rect([2, 2]), make_rect([4, 4])])
    rows = list(report.rows())
    assert rows[0]["L_size"] == 4 and rows[1]["L_size"] == 16
    assert report.kappa_threshold == 0.1
    with pytest.raises(ValueError):
        nclt_condition_report([])


def test_inscribed_optimal_up_to_400_cell_boxes():
    # exhaustive oracle on a full 20 x 20 bounding box (the largest exact tier)
    rng = np.random.default_rng(47)
    keep = rng.random((20, 20)) < 0.75
    keep[0, 0] = True
    cells = [(i + 1, j + 1) for i in range(20) for j in range(20) if keep[i, j]]
    L = explicit_set(cells)
    grid = np.zeros((20, 20), dtype=bool)
    for i, j in cells:
        grid[i - 1, j - 1] = True
    best = 0
    for a in range(20):
        for b in range(a, 20):
            for c in range(20):
                for d in range(c, 20):
                    if grid[a:b + 1, c:d + 1].all():
                        best = max(best, (b - a + 1) * (d - c + 1))
    assert rect_pair(L).l_minus.size == best


def test_index_set_json_round_trip():
    for L in (make_rect([3, 5]), staircase_set([3, 2, 2]),
              explicit_set([(1, 4), (2, 1), (7, 7)])):
        clone = index_set_from_json(L.to_json())
        assert clone.kind == L.kind and clone.d == L.d
        assert np.array_equal(clone.cells, L.cells)
    # an explicit set is written as its boxes, never as its cells
    L = lshape_family([8])[0]
    assert L.to_json() == {"d": 2, "kind": "explicit",
                           "params": {"boxes": [[[1, 1], [4, 8]], [[5, 1], [8, 4]]]}}
    assert corners(index_set_from_json(L.to_json())) == corners(L)
    # the older cells form still reads
    cells = {"d": 2, "kind": "explicit", "params": {"cells": L.cells.tolist()}}
    assert corners(index_set_from_json(cells)) == corners(L)


@pytest.mark.parametrize("d, n", [(True, [3]), (2.0, [3, 4])], ids=["bool", "float"])
def test_index_set_json_dimension_is_an_integer(d, n):
    # true once read as 1 and 2.0 as 2
    with pytest.raises(ValueError, match="'d'"):
        index_set_from_json({"d": d, "kind": "rect", "params": {"n": n}})


@pytest.mark.parametrize("boxes, message", [
    ([[[1, 1], [2, 2]], [[2, 2], [3, 3]]], "duplicate"),     # overlapping boxes
    ([[[1, 3], [2, 2]]], "lo <= hi"),
    ([[[1, 1], [2, 2]], [[1], [3]]], None),                   # boxes of two dimensions
    ([[[1, 1], [2]]], "dimension"),
    ([[[0, 1], [2, 2]]], "lo <= hi"),
    ([[[1, True], [2, 2]]], "bool"),
    ([[[1, 1], [2, 2 ** 70]]], "integers"),                  # past int64
    ([[[1, 1], [2, 2], [3, 3]]], None),                      # three corners
])
def test_explicit_boxes_json_rejects_bad_boxes(boxes, message):
    with pytest.raises(ValueError, match=message):
        index_set_from_json({"d": 2, "kind": "explicit", "params": {"boxes": boxes}})


def test_boxes_of_stock_shapes():
    assert corners(make_rect([3, 4, 2])) == ([[1, 1, 1]], [[3, 4, 2]])
    assert corners(lshape_family([8])[0]) == ([[1, 1], [5, 1]], [[4, 8], [8, 4]])
    assert corners(staircase_set([3, 3, 1])) == ([[1, 1], [3, 1]], [[2, 3], [3, 1]])
    assert corners(explicit_set([(2,), (3,), (5,)])) == ([[2], [5]], [[3], [5]])


@SETTINGS
@given(st.sampled_from(["rect", "staircase", "lshape", "minus_corner"]),
       st.lists(st.integers(0, 6), min_size=1, max_size=8), st.floats(0.05, 0.6))
def test_stock_constructors_agree_with_explicit_sets(kind, sizes, fraction):
    n = max(sizes) + 2
    if kind == "rect":
        L = make_rect([s + 1 for s in sizes[:3]])
    elif kind == "staircase":
        if not any(sizes):
            sizes[0] = 1
        L = staircase_set(sizes)
    elif kind == "lshape":
        L = lshape_family([n], fraction=fraction)[0]
    else:
        L = squares_minus_corner_family([n])[0]
    clone = explicit_set(L.cells)
    assert corners(L) == corners(clone)
    assert np.array_equal(L.cells, clone.cells)
    assert L.size == clone.size == len(L.cells)
    if L.kind == "explicit":
        assert L.to_json() == clone.to_json()
    assert corners(index_set_from_json(L.to_json())) == corners(L)


def meshgrid_cells(lo, hi):
    """Reference expansion: one ``np.meshgrid`` per box, box after box."""
    parts = []
    for a, b in zip(lo, hi):
        grid = np.meshgrid(*[np.arange(x, y + 1) for x, y in zip(a, b)], indexing="ij")
        parts.append(np.stack([g.ravel() for g in grid], axis=1))
    return np.concatenate(parts)


@st.composite
def cell_lists(draw):
    """Sorted distinct cells of a random subset of a small box, d in {1, 2, 3}."""
    d = draw(st.integers(1, 3))
    side = {1: 30, 2: 9, 3: 5}[d]
    cell = st.tuples(*[st.integers(1, side)] * d)
    return sorted(draw(st.sets(cell, min_size=1, max_size=60)))


def check_corner_arrays(L, cells):
    assert L.lo.dtype == L.hi.dtype == np.int64
    assert L.lo.shape == L.hi.shape == (len(L.lo), L.d)
    assert not (L.lo.flags.writeable or L.hi.flags.writeable)
    covered = meshgrid_cells(L.lo, L.hi)
    np.testing.assert_array_equal(_box_cells(L), covered)
    assert len(np.unique(covered, axis=0)) == len(covered) == L.size   # disjoint boxes
    np.testing.assert_array_equal(L.cells, cells)
    for form in (L.to_json(), {"d": L.d, "kind": "explicit", "params": {"cells": cells.tolist()}}):
        assert corners(index_set_from_json(json.loads(json.dumps(form)))) == corners(L)


@SETTINGS
@given(cell_lists())
def test_corner_arrays_cover_the_cells_once_and_read_back(cells):
    check_corner_arrays(explicit_set(cells), np.array(cells))


def test_checkerboard_corner_arrays_round_trip():
    i, j = np.indices((200, 200)) + 1
    black = ((i + j) % 2 == 0).ravel()
    cells = np.stack([i.ravel(), j.ravel()], axis=1)[black]
    L = explicit_set(cells)
    assert len(L.lo) == L.size == 20_000
    check_corner_arrays(L, cells)


def test_rect_geometry_needs_no_cells():
    L = make_rect([4096, 4096, 4096])
    assert L.size == 4096 ** 3 and L.axis_max(2) == 4096
    assert rect_pair(L).l_minus == L.bounding_box() == Rect((1, 1, 1), (4096, 4096, 4096))
    assert "cells" not in vars(L)


def read_boxes(boxes, d):
    return index_set_from_json({"d": d, "kind": "explicit", "params": {"boxes": boxes}})


def split(draw, lo, hi):
    """The box ``[lo, hi]`` cut at drawn faces into boxes that tile it."""
    axis = draw(st.integers(0, len(lo) - 1))
    if hi[axis] == lo[axis] or not draw(st.booleans()):
        return [[lo, hi]]
    cut = draw(st.integers(lo[axis], hi[axis] - 1))
    return (split(draw, lo, hi[:axis] + [cut] + hi[axis + 1:])
            + split(draw, lo[:axis] + [cut + 1] + lo[axis + 1:], hi))


@st.composite
def box_unions(draw):
    """A union of at most 6 boxes in [1, 8]^d, d <= 3: ``(d, drawn boxes, cells, shuffled pieces)``.

    The pieces tile the union: each box of its ``explicit_set`` cut at random faces.
    """
    d = draw(st.integers(1, 3))
    corner = st.lists(st.integers(1, 8), min_size=d, max_size=d)
    pairs = draw(st.lists(st.tuples(corner, corner), min_size=1, max_size=6))
    boxes = [[list(map(min, a, b)), list(map(max, a, b))] for a, b in pairs]
    cells = sorted({tuple(c) for lo, hi in boxes for c in meshgrid_cells([lo], [hi]).tolist()})
    ref = explicit_set(cells)
    pieces = [p for lo, hi in zip(ref.lo.tolist(), ref.hi.tolist()) for p in split(draw, lo, hi)]
    return d, boxes, cells, draw(st.permutations(pieces))


@SETTINGS
@given(box_unions())
def test_boxes_reader_merges_on_the_edge_grid_as_explicit_set_merges_cells(union):
    d, boxes, cells, pieces = union
    ref = explicit_set(cells)
    L = read_boxes(pieces, d)
    assert corners(L) == corners(ref) and L.to_json() == ref.to_json()
    # a box read twice, or two drawn boxes that share a cell, overlap
    with pytest.raises(ValueError, match="duplicate"):
        read_boxes(pieces + pieces[-1:], d)
    if sum(Rect(tuple(lo), tuple(hi)).size for lo, hi in boxes) > len(cells):
        with pytest.raises(ValueError, match="duplicate"):
            read_boxes(boxes, d)
    else:
        assert corners(read_boxes(boxes, d)) == corners(ref)
    # each grid cell is a product of edge segments, wholly inside or wholly outside L
    inside = np.zeros([10] * d, dtype=bool)
    inside[tuple(L.cells.T)] = True
    grid = edge_grid(L)
    assert grid.shape == tuple(len(e) - 1 for e in L.edges)
    for index in np.ndindex(*grid.shape):
        segment = inside[tuple(slice(e[i], e[i + 1]) for e, i in zip(L.edges, index))]
        assert segment.all() if grid[index] else not segment.any()


@pytest.mark.parametrize("boxes", [
    [[[1, 1], [4096, 4096]]],
    [[[1, 1], [1024, 2048]], [[1025, 1], [2048, 1024]]],       # the 2048 L-shape
], ids=["box", "lshape"])
def test_boxes_reader_memory_does_not_grow_with_the_cells(boxes):
    # expanding the boxes to their cells traced 640 MiB on the box, 120 MiB on the L-shape
    tracemalloc.start()
    try:
        L = read_boxes(boxes, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert "cells" not in vars(L)
    assert L.to_json()["params"]["boxes"] == boxes
