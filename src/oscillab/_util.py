"""Small shared helpers: sliding-window maxima, window arithmetic, bumps.

Window sums come as a ladder: one prefix sum per call, padded once so that
windows clamp at the grid edge without branches, and one O(n) slice
difference per rung (:func:`window_sum_ladder`). Sliding maxima come as
one doubling cascade: each pass doubles the span with one shifted
``np.maximum``, and a ladder of maxima at shrinking widths shares the passes
(:func:`sliding_max_ladder`). :func:`window_sums` and :func:`sliding_max`
are each one rung of their ladder.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np


def cells(radius: float, h: float) -> int:
    """Window half-width in whole cells: largest s with s*h <= radius.

    A tiny relative allowance keeps near-integer ratios stable; both the
    fast paths and the brute-force oracles must quantize through here so
    that they describe the same discretization.
    """
    return int(np.floor(radius / h + 1e-9))


def snap_radius(r: float, h: float) -> float:
    """Quantize a radius to the half-cell point (2s+1)*h/2 of its window.

    A window of 2s+1 whole cells has measure exactly (2s+1)*h, so the
    snapped radius makes ``h * window_sum`` the geometrically exact
    integral over |y - y'| <= r of the cell-step weight.
    """
    return (2 * cells(r, h) + 1) * h / 2.0


def sliding_max(values: np.ndarray, halfwidth: int) -> np.ndarray:
    """Centered sliding maximum over windows of 2*halfwidth+1 cells, clamped
    to the array: one rung of :func:`sliding_max_ladder`."""
    if halfwidth <= 0:
        return values.copy()
    return sliding_max_ladder([(values, halfwidth)], len(values))


def sliding_max_naive(values: np.ndarray, halfwidth: int) -> np.ndarray:
    """Oracle counterpart of :func:`sliding_max` via stride tricks."""
    if halfwidth <= 0:
        return values.copy()
    padded = np.pad(values, halfwidth, constant_values=-np.inf)
    return np.lib.stride_tricks.sliding_window_view(padded, 2 * halfwidth + 1).max(axis=1)


# Outputs per block of the cascade's last descent, raised to twice the span
# left to descend. For spans up to 2^14 cells a block's passes touch at most
# 384 KiB, inside a 2 MiB L2 cache; unblocked passes over n >= 2^18 stream
# from L3, and a single rung took 1.6 to 2.6 times as long (2-core Xeon).
_CASCADE_BLOCK = 1 << 15


def sliding_max_ladder(rungs: Iterable[tuple[np.ndarray, int]], n: int) -> np.ndarray:
    """max over the rungs (row, t) of row's centered sliding maximum over 2t+1
    cells, the windows clamped to the n cells; -inf everywhere for no rungs.

    One doubling cascade serves every rung. t is first clamped to n - 1, whose
    window already covers the grid from every cell, and 2^J <= 2t+1 < 2^(J+1)
    splits each window into two 2^J-blocks, starting at x - t and at
    x + t - 2^J + 1. The passes a(x) <- max(a(x), a(x + s)) commute with each
    other and with the pointwise max, so the row is merged twice, shifted by t
    and by -(t - 2^J + 1), into one buffer on which the passes of spans 2^J and
    up have already run; the rest run once, after the last rung, in blocks of
    outputs (:data:`_CASCADE_BLOCK`). J must not grow from rung to rung. The
    buffers ping-pong, as an in-place shifted np.maximum would copy. Max is
    exact and each output takes the same maxima in the same order, blocked or
    not, so this agrees bitwise with :func:`sliding_max_ladder_naive`, save
    the sign of a zero maximum over a window holding both 0.0 and -0.0.
    """
    buf = spare = None
    level = 0  # the passes of spans 2^level and up have run

    def descend(to: int) -> None:
        nonlocal buf, spare, level
        while level > to:
            level -= 1
            s = 1 << level
            m = n + 2 * s - 1  # the cells that outputs still read
            np.maximum(buf[:m - s], buf[s:m], out=spare[:m - s])
            buf, spare = spare, buf

    for row, t in rungs:
        t = min(t, n - 1)
        j = (2 * t + 1).bit_length() - 1
        if buf is None:  # the row itself, padded with -inf: max(-inf, x) = x
            level = j
            buf = np.empty(n + (1 << j) - 1)
            spare = np.empty_like(buf)
            buf[:t] = buf[t + n:] = -np.inf
            buf[t:t + n] = row
        elif j > level:
            raise ValueError("sliding-max half-widths must not grow along the ladder")
        else:
            descend(j)
            np.maximum(buf[t:t + n], row, out=buf[t:t + n])
        d = t - (1 << j) + 1  # the right block's start, x + d, may lie left of x
        lo = max(d, 0)
        np.maximum(buf[lo - d:n - d], row[lo:], out=buf[lo - d:n - d])
    if buf is None:
        return np.full(n, -np.inf)
    step = max(_CASCADE_BLOCK, 2 << level)
    if n <= step:  # one block: no cache to spare, and no scratch to fill
        descend(0)
        return buf[:n]
    w = step + (1 << level) // 2  # longer than any row a block's passes write to scratch
    scratch = spare[:2 * w].reshape(2, w) if len(spare) >= 2 * w else np.empty((2, w))
    for lo in range(0, n, step):
        k = min(step, n - lo)
        a = buf[lo:]
        for i in reversed(range(level)):  # the last pass writes cells no later block reads
            s = 1 << i
            out = buf[lo:lo + k] if i == 0 else scratch[i % 2]
            np.maximum(a[:k + s - 1], a[s:k + 2 * s - 1], out=out[:k + s - 1])
            a = out
    return buf[:n]


def sliding_max_ladder_naive(rungs: Iterable[tuple[np.ndarray, int]], n: int) -> np.ndarray:
    """Oracle counterpart of :func:`sliding_max_ladder`: the maximum of the
    rungs' naive sliding maxima, taken rung by rung."""
    best = np.full(n, -np.inf)
    for row, t in rungs:
        best = np.maximum(best, sliding_max_naive(row, min(t, n - 1)))
    return best


def window_sum_ladder(values: np.ndarray, halfwidths: Sequence[int]) -> Iterator[np.ndarray]:
    """Clamped sums over centered windows of 2*s+1 cells, for each s in turn.

    The prefix sum is taken once, padded with ``min(max(halfwidths), n)``
    zeros on the left and as many copies of the total on the right. A
    window then clamps by reading the padding, and each rung is one O(n)
    slice difference ``prefix[hi+1] - prefix[lo]``. A clamped end reads
    ``x - 0.0`` or ``total - 0.0``, both exact, so the bits are those of
    the clamped difference. A negative half-width raises before the first
    rung.

    Every rung is written into one reused buffer: a yielded array is
    valid only until the generator is advanced, so copy it to keep it.
    """
    if min(halfwidths, default=0) < 0:
        raise ValueError("window half-width must be >= 0")
    n = len(values)
    pad = min(max(halfwidths, default=0), n)
    prefix = np.zeros(n + 1 + 2 * pad)
    np.cumsum(values, out=prefix[pad + 1:pad + 1 + n])
    prefix[pad + 1 + n:] = prefix[pad + n]
    out = np.empty(n)
    for s in halfwidths:
        t = min(s, n)
        np.subtract(prefix[pad + t + 1:pad + t + 1 + n], prefix[pad - t:pad - t + n], out=out)
        yield out


def window_sums(values: np.ndarray, halfwidth: int) -> np.ndarray:
    """Clamped sums over centered windows of 2*halfwidth+1 cells: one rung
    of :func:`window_sum_ladder`."""
    return next(window_sum_ladder(values, [halfwidth]))


def window_sums_naive(values: np.ndarray, halfwidth: int) -> np.ndarray:
    """Direct-summation counterpart of :func:`window_sums` (oracle path)."""
    n = len(values)
    kernel = np.ones(2 * halfwidth + 1)
    full = np.convolve(values, kernel)
    return full[halfwidth:halfwidth + n]


def boundary_mask(n: int, halfwidth: int) -> np.ndarray:
    """Cells whose window of the given half-width overflows the grid."""
    mask = np.zeros(n, dtype=bool)
    m = min(halfwidth, n)
    if m > 0:
        mask[:m] = True
        mask[n - m:] = True
    return mask


def smooth_plateau(t: np.ndarray, inner: float, outer: float) -> np.ndarray:
    """C-infinity even cutoff: 1 for |t| <= inner, 0 for |t| >= outer.

    The transition is the standard exp(-1/s) glue, so all derivatives
    vanish at both junctions.
    """
    a = np.abs(np.asarray(t, dtype=float))
    out = np.zeros_like(a)
    out[a <= inner] = 1.0
    mid = (a > inner) & (a < outer)
    s = (a[mid] - inner) / (outer - inner)
    with np.errstate(divide="ignore", over="ignore"):
        ea = np.exp(-1.0 / s)
        eb = np.exp(-1.0 / (1.0 - s))
    out[mid] = eb / (ea + eb)
    return out


def standard_bump(t: np.ndarray) -> np.ndarray:
    """exp(-1/(1-t^2)) on (-1, 1), zero outside."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    with np.errstate(divide="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out

