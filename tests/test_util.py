"""Window-sum ladder and sliding maximum: bit-for-bit agreement with frozen
references.

``reference_window_sums`` is the clamped prefix difference that
``window_sums`` evaluated rung by rung before the ladder shared one prefix
sum per call. ``reference_sliding_max`` is the C maximum filter that
``sliding_max`` called before it took its doubling form in numpy. Both are
frozen here so that any change in the bits shows up.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.ndimage import maximum_filter1d

from oscillab import _util
from oscillab._util import (sliding_max, sliding_max_ladder, sliding_max_ladder_naive,
                            sliding_max_naive, window_sum_ladder, window_sums)
from oscillab.maximal import _eighth_octave_cells


def reference_window_sums(values, halfwidth):
    n = len(values)
    prefix = np.concatenate([[0.0], np.cumsum(values)])
    idx = np.arange(n)
    lo = np.maximum(idx - halfwidth, 0)
    hi = np.minimum(idx + halfwidth, n - 1)
    return prefix[hi + 1] - prefix[lo]


def reference_sliding_max(values, halfwidth):
    if halfwidth <= 0:
        return values.copy()
    return maximum_filter1d(values, size=2 * halfwidth + 1, mode="constant", cval=-np.inf)


def draw_values(draw, n):
    """Lattice values (ties and negatives), scaled Gaussians, or all -0.0."""
    kind = draw(st.sampled_from(["lattice", "gaussian", "negative-zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "lattice":
        return rng.integers(-4096, 4096, n) / 4096.0
    if kind == "gaussian":
        return rng.standard_normal(n) * 10.0 ** draw(st.integers(-3, 6))
    return np.full(n, -0.0)


@st.composite
def ladder_inputs(draw):
    n = draw(st.integers(1, 300))
    values = draw_values(draw, n)
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


@st.composite
def sliding_max_inputs(draw):
    n = draw(st.integers(1, 300))
    values = draw_values(draw, n)
    special = [0, 1, n - 1, n, n + 1, 2 * n, 2 * n + 3]
    extra = draw(st.lists(st.integers(0, 2 * n + 3), max_size=8))
    return values, special + extra


# A window holding both 0.0 and -0.0 and nothing larger has a maximum whose
# sign depends on the order of comparison: the naive oracle and the C filter
# already disagree there, so the drawn values never mix the two zeros.
@given(sliding_max_inputs())
def test_sliding_max_matches_references_bitwise(case):
    values, halfwidths = case
    for s in halfwidths:
        got = sliding_max(values, s).tobytes()
        assert got == sliding_max_naive(values, s).tobytes(), s
        assert got == reference_sliding_max(values, s).tobytes(), s


@st.composite
def sliding_max_ladders(draw):
    n = draw(st.integers(1, 300))
    k = draw(st.integers(1, 6))
    rows = draw_values(draw, n * k).reshape(k, n)  # one kind: the zeros never mix
    widths = [0, 1, 2, 3, 5, n - 1, n, 2 * n + 3]
    halfwidths = sorted(draw(st.lists(st.sampled_from(widths) | st.integers(0, 2 * n + 3),
                                      min_size=k, max_size=k)), reverse=True)
    return n, list(zip(rows, halfwidths))


# the cascade merges every rung into one buffer; its reference is the C filter
# applied rung by rung, then the pointwise maximum
@given(sliding_max_ladders())
def test_sliding_max_ladder_matches_references_bitwise(case):
    n, rungs = case
    want = np.full(n, -np.inf)
    for row, s in rungs:
        want = np.maximum(want, reference_sliding_max(row, s))
    assert sliding_max_ladder(iter(rungs), n).tobytes() == want.tobytes()
    assert sliding_max_ladder_naive(iter(rungs), n).tobytes() == want.tobytes()


# Blocks of a few outputs put the cascade's blocked last descent on the short
# grids drawn here, with windows across every block's ends
@given(sliding_max_ladders(), st.integers(1, 16))
def test_blocked_cascade_matches_references_bitwise(case, block):
    n, rungs = case
    want = np.full(n, -np.inf)
    for row, s in rungs:
        want = np.maximum(want, reference_sliding_max(row, s))
    with mock.patch.object(_util, "_CASCADE_BLOCK", block):
        assert sliding_max_ladder(iter(rungs), n).tobytes() == want.tobytes()


def test_sliding_max_ladder_of_no_rungs_is_minus_inf():
    assert sliding_max_ladder(iter([]), 4).tolist() == [-np.inf] * 4


def test_sliding_max_ladder_refuses_a_growing_block():
    # t = 1 then t = 2: the blocks grow from 2 to 4 cells, whose passes have run
    with pytest.raises(ValueError, match="must not grow"):
        sliding_max_ladder(iter([(np.ones(8), 1), (np.ones(8), 2)]), 8)


@pytest.mark.parametrize("n", [2**15 + 1, 3 * 2**15 - 5, 2**17, 2**18])
def test_long_sliding_max_matches_reference_bitwise(n):
    # one rung of the cascade over long arrays; check-lemmas takes w2 over
    # 456 cells of 2^14 when its first lambda is 256, over 2896 of 2^18 at 4096
    values = np.random.default_rng(n).integers(-4096, 4096, n) / 4096.0
    for s in [1, 7, 456, 1000, 2896, 5000, 2**14, 2**15 - 1, n // 2, n - 1]:
        assert sliding_max(values, s).tobytes() == reference_sliding_max(values, s).tobytes(), s


@pytest.mark.parametrize("n", [2**15 + 1, 2**17, 2**18])
def test_long_sliding_max_ladder_matches_reference_bitwise(n):
    # a region supremum's shape: apertures from n / 5 down to 1 / 64 of n,
    # each rung on its own row, the last descent in blocks of 2^15 outputs
    rng = np.random.default_rng(n)
    rungs = [(rng.integers(-4096, 4096, n) / 4096.0, int(t))
             for t in np.geomspace(n / 5, n / 64, 12)]
    want = np.full(n, -np.inf)
    for row, s in rungs:
        want = np.maximum(want, reference_sliding_max(row, s))
    assert sliding_max_ladder(iter(rungs), n).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2**12 + 1, 2**15, 2**16])
def test_long_ladder_matches_reference_bitwise(n):
    # the Hardy-Littlewood ladder reaches s = n, so the padding is widest here
    values = np.random.default_rng(n).integers(-4096, 4096, n) / 4096.0
    halfwidths = _eighth_octave_cells(n) + [0, n - 1, n, 2 * n + 3]
    for s, got in zip(halfwidths, window_sum_ladder(values, halfwidths)):
        assert got.tobytes() == reference_window_sums(values, s).tobytes(), s


def test_negative_halfwidth_in_the_ladder_raises_before_any_rung():
    rungs = window_sum_ladder(np.ones(8), [1, 2, -1, 3])
    with pytest.raises(ValueError, match="half-width must be >= 0"):
        next(rungs)


def test_ladder_reuses_one_buffer():
    rungs = list(id(r) for r in window_sum_ladder(np.arange(10.0), [1, 2, 3]))
    assert len(set(rungs)) == 1


def test_negative_halfwidth_rejected():
    with pytest.raises(ValueError):
        window_sums(np.ones(4), -1)
