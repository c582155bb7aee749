"""Window-sum ladder: bit-for-bit agreement with the per-rung prefix formula.

The reference below is the clamped prefix difference that ``window_sums``
evaluated rung by rung before the ladder shared one prefix sum per call;
it is frozen here so that any change in the bits shows up.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oscillab._util import window_sum_ladder, window_sums


def reference_window_sums(values, halfwidth):
    n = len(values)
    prefix = np.concatenate([[0.0], np.cumsum(values)])
    idx = np.arange(n)
    lo = np.maximum(idx - halfwidth, 0)
    hi = np.minimum(idx + halfwidth, n - 1)
    return prefix[hi + 1] - prefix[lo]


@st.composite
def ladder_inputs(draw):
    n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["lattice", "gaussian", "negative-zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "lattice":
        values = rng.integers(-4096, 4096, n) / 4096.0
    elif kind == "gaussian":
        values = rng.standard_normal(n) * 10.0 ** draw(st.integers(-3, 6))
    else:
        values = np.full(n, -0.0)
    special = [0, n - 1, n, 2 * n + 3]
    extra = draw(st.lists(st.integers(0, 2 * n + 3), max_size=8))
    halfwidths = draw(st.permutations(special + extra))
    return values, halfwidths


@given(ladder_inputs())
def test_ladder_matches_reference_bitwise(case):
    values, halfwidths = case
    rungs = window_sum_ladder(values, halfwidths)
    for s, got in zip(halfwidths, rungs):
        want = reference_window_sums(values, s).tobytes()
        assert got.tobytes() == want, s
        assert window_sums(values, s).tobytes() == want, s


def test_ladder_reuses_one_buffer():
    rungs = list(id(r) for r in window_sum_ladder(np.arange(10.0), [1, 2, 3]))
    assert len(set(rungs)) == 1


def test_negative_halfwidth_rejected():
    with pytest.raises(ValueError):
        window_sums(np.ones(4), -1)
