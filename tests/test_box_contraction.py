"""Property tests: box decompositions of random sets and the contraction built on them."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from multisum import (DegenerateKernel, compute_S_L, explicit_set,
                      hermite_family, naive_S_L)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def index_sets(draw):
    d = draw(st.integers(1, 3))
    side = {1: 12, 2: 7, 3: 4}[d]
    cell = st.tuples(*[st.integers(1, side)] * d)
    return explicit_set(sorted(draw(st.sets(cell, min_size=1, max_size=40))))


@st.composite
def instances(draw):
    """A random set, a Hermite kernel of rank <= 3 per axis, and covering samples."""
    L = draw(index_sets())
    kvec = st.tuples(*[st.integers(1, 3)] * L.d)
    weight = st.floats(-2.0, 2.0, allow_nan=False)
    lam = draw(st.dictionaries(kvec, weight, min_size=1, max_size=4))
    kernel = DegenerateKernel(L.d, lam, [hermite_family()] * L.d)
    samples = [np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n + 2)))
               for n in (L.axis_max(axis) for axis in range(L.d))]
    return kernel, L, samples


@SETTINGS
@given(index_sets())
def test_boxes_partition_the_set(L):
    covered = np.concatenate([box.cells() for box in L.boxes])
    assert len(covered) == L.size                  # no cell counted twice ...
    assert set(map(tuple, covered)) == set(map(tuple, L.cells))   # ... and none missed


@SETTINGS
@given(instances())
def test_box_contraction_matches_naive(instance):
    kernel, L, samples = instance
    fast = compute_S_L(kernel, L, samples)
    slow = naive_S_L(kernel, L, samples)
    # relative to the sum of absolute terms, which bounds |slow| from above
    # and so floors the tolerance where the terms cancel
    tables = [fam.evaluate_block(kernel.axis_max_index(axis), x)
              for axis, (fam, x) in enumerate(zip(kernel.factors, samples))]
    scale = sum(abs(w) * np.prod([np.abs(tables[s][k - 1][L.cells[:, s] - 1])
                                  for s, k in enumerate(kvec)], axis=0).sum()
                for kvec, w in kernel.lam.items()) / math.sqrt(L.size)
    assert abs(fast - slow) <= 1e-12 * scale
