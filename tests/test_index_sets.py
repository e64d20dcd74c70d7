"""Index-set geometry: rectangles, deficiencies, growth-condition verdicts."""

import itertools
import math

import numpy as np
import pytest

from multisum import (explicit_set, lshape_family, make_rect,
                      nclt_condition_report, rect_pair, squares_family,
                      squares_minus_corner_family, staircase_set)


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


def test_explicit_set_sorted_deduplicated():
    L = explicit_set([(2, 1), (1, 1), (1, 2)])
    assert L.size == 3
    assert L.cells[0].tolist() == [1, 1]
    with pytest.raises(ValueError):
        explicit_set([(1, 1), (1, 1)])
    with pytest.raises(ValueError):
        explicit_set([(0, 1)])


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


# ---------------------------------------------------------------------------
# d >= 3 heuristic
# ---------------------------------------------------------------------------


def test_heuristic_inner_rect_3d():
    L = make_rect([3, 3, 3])
    pair = rect_pair(L)
    assert pair.kappa_minus == 0.0 and pair.inner_exact
    cells = [c for c in itertools.product(range(1, 4), repeat=3)
             if c != (3, 3, 3)]
    L2 = explicit_set(cells)
    pair2 = rect_pair(L2)
    assert not pair2.inner_exact          # flagged heuristic
    assert pair2.l_minus.size >= 18       # 3x3x2 block is reachable by growth
    assert pair2.kappa_plus == pytest.approx(1 / math.sqrt(26), rel=1e-12)


# ---------------------------------------------------------------------------
# condition reports
# ---------------------------------------------------------------------------


def test_growing_squares_pass():
    report = nclt_condition_report(squares_family([4, 8, 16]))
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


def test_condition_report_rows_and_threshold():
    report = nclt_condition_report(squares_family([2, 4]), kappa_threshold=0.1)
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
    from multisum.index_sets import index_set_from_json
    for L in (make_rect([3, 5]), staircase_set([3, 2, 2]),
              explicit_set([(1, 4), (2, 1), (7, 7)])):
        clone = index_set_from_json(L.to_json())
        assert clone.kind == L.kind and clone.d == L.d
        assert np.array_equal(clone.cells, L.cells)


def test_boxes_of_stock_shapes():
    assert [(b.lo, b.hi) for b in make_rect([3, 4, 2]).boxes] == [((1, 1, 1), (3, 4, 2))]
    assert [(b.lo, b.hi) for b in lshape_family([8])[0].boxes] == [
        ((1, 1), (4, 8)), ((5, 1), (8, 4))]
    assert [(b.lo, b.hi) for b in staircase_set([3, 3, 1]).boxes] == [
        ((1, 1), (2, 3)), ((3, 1), (3, 1))]
    assert [(b.lo, b.hi) for b in explicit_set([(2,), (3,), (5,)]).boxes] == [
        ((2,), (3,)), ((5,), (5,))]
