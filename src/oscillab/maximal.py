"""Geometric maximal functions on the grid, with brute-force oracles.

Operators provided:

* ``hardy_littlewood``: centered averages, dyadic-with-eighth-octave radius
  ladder, iterated composition.
* ``fractional_maximal``: integrals normalized by r^(1-alpha).
* ``approach_maximal``: the approach-region operator with radii in
  (1/lam, lam^(-1/ell)], aperture (lam*r)^(-1/(ell-1)), and the matching
  normalization.
* ``global_maximal``: the global variant with radii in (0, 1] and
  aperture/normalization r^(-1/(ell-1)).
* ``regular_maximal``: the bump-regularized family, either the
  lam-form r*(lam*r)^(-1/(ell-1)) |P_r * w| or the analytic-family
  beta-form r^(ell*beta/(ell-1)) |P_r * w|.

Every operator has a ``*_brute`` oracle. The Hardy-Littlewood and
fractional oracles are independent direct-summation references; the
approach, global and regular oracles run the same body as their fast
form with the naive primitives swapped in (direct window sums, and the
region supremum taken rung by rung over naive sliding maxima). The fast
window sums take one prefix sum per call, one O(n) slice difference per
rung (:func:`oscillab._util.window_sum_ladder`), and the fast region
supremum is one doubling cascade that every rung feeds
(:func:`oscillab._util.sliding_max_ladder`).
Windows are whole-cell: a radius r covers cells within ``cells(r, h)`` of
the center (strictly inside r for the fractional operator, matching its
single-cell smallest window). Windows clamp at the grid edge, by padding
the prefix sum once per call; results carry a ``boundary`` mask marking
cells any clamped window could have reached. The approach, global and
regular operators accept the same (ell, lam): ell passes
:func:`oscillab.phases.check_ell` and lam :func:`oscillab.phases.check_lambda`.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._util import (boundary_mask, cells, sliding_max_ladder, sliding_max_ladder_naive,
                    snap_radius, standard_bump, window_sum_ladder, window_sums_naive)
from .errors import UnderResolved
from .numerics import Grid, SampledFunction, Weight, convolve, kernel_frame
from .phases import check_ell, check_lambda

__all__ = [
    "hardy_littlewood",
    "hardy_littlewood_brute",
    "fractional_maximal",
    "fractional_maximal_brute",
    "approach_maximal",
    "approach_maximal_brute",
    "global_maximal",
    "global_maximal_brute",
    "regular_maximal",
    "regular_maximal_brute",
    "bump_samples",
    "approach_radii",
    "regular_radii",
    "global_radii",
    "operator_by_name",
]


# ---------------------------------------------------------------------------
# radius ladders


def _eighth_octave_cells(n: int) -> list[int]:
    """Cell half-widths {0} + ceil(2^(t/8)) up to the grid length."""
    out = [0]
    t = 0
    while True:
        s = math.ceil(2.0 ** (t / 8.0))
        if s > n:
            break
        if s != out[-1]:
            out.append(s)
        t += 1
    return out


def _half_octaves(lam: float, j: int, step: int, more) -> Iterator[float]:
    """The rungs 2^(j/2) / lam for j = j, j + step, j + 2*step, ... while more(rung)."""
    while more(r := (2.0 ** (j / 2.0)) / lam):
        yield r
        j += step


def _snapped(rungs: Iterable[float], h: float) -> set[float]:
    """The distinct window radii of the rungs (see :func:`oscillab._util.snap_radius`)."""
    return {snap_radius(r, h) for r in rungs}


def approach_radii(ell: int, lam: float, h: float) -> list[float]:
    """Half-octave rungs lam^-1 * 2^(j/2) above the open bottom, plus the top.

    Every rung is snapped to the half-cell radius of its window (see
    :func:`oscillab._util.snap_radius`), which realizes the open
    endpoint r > 1/lam as the smallest window radius exceeding 1/lam. A
    degenerate range (lam = 1) collapses to the single top radius.
    """
    top = lam ** (-1.0 / ell)
    rungs = _half_octaves(lam, 1, 1, lambda r: r < top * (1.0 - 1e-12))
    return sorted(r for r in _snapped([top, *rungs], h) if r > 1.0 / lam)


def regular_radii(ell: int, lam: float, h: float) -> list[float]:
    """The approach ladder extended below 1/lam down to the single cell."""
    top = lam ** (-1.0 / ell)
    below = _half_octaves(lam, 0, -1, lambda r: r >= h / 2.0)
    return sorted(_snapped((r for r in below if r < top * (1.0 - 1e-12)), h)
                  .union(approach_radii(ell, lam, h)))


def global_radii(h: float) -> list[float]:
    """Top-anchored half-octave rungs 2^(-j/2) covering (0, 1], snapped,
    down to the single-cell window."""
    return sorted(_snapped([*_half_octaves(1.0, 0, -1, lambda r: r >= h / 2.0), h / 2.0], h))


# ---------------------------------------------------------------------------
# Hardy-Littlewood and fractional


def hardy_littlewood(w: Weight, iterations: int = 1) -> Weight:
    """Centered maximal function, iterated ``iterations`` times.

    Averages (1/2r) * integral over |x-y| < r with r running over the
    eighth-octave cell ladder; the single-cell window makes Mw >= w
    pointwise and constants exact fixed points.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    vals = w.values
    n = w.grid.n
    ladder = _eighth_octave_cells(n)
    for _ in range(iterations):
        best = vals.copy()
        for s, sums in zip(ladder[1:], window_sum_ladder(vals, ladder[1:])):
            np.divide(sums, 2 * s + 1, out=sums)
            np.maximum(best, sums, out=best)
        vals = best
    return Weight(w.grid, vals)


def hardy_littlewood_brute(w: Weight, iterations: int = 1) -> Weight:
    vals = w.values
    n = w.grid.n
    ladder = _eighth_octave_cells(n)
    for _ in range(iterations):
        candidates = [vals] + [window_sums_naive(vals, s) / (2 * s + 1) for s in ladder[1:]]
        vals = np.max(np.stack(candidates), axis=0)
    return Weight(w.grid, vals)


def _fractional_halfwidths(n: int) -> list[int]:
    # radius h*2^t with the strict window |x-y| < r: half-width 2^t - 1 cells
    out = []
    t = 0
    while 2**t - 1 <= n:
        out.append(2**t - 1)
        t += 1
    return out


def fractional_maximal(w: Weight, alpha: float) -> Weight:
    """M_alpha w(x) = sup_r r^(alpha-1) * integral_{|x-y|<r} w, dyadic radii."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    h = w.grid.h
    best = np.full(w.grid.n, -np.inf)
    halfwidths = _fractional_halfwidths(w.grid.n)
    for t, sums in enumerate(window_sum_ladder(w.values, halfwidths)):
        r = h * (2.0**t)
        np.multiply(sums, r ** (alpha - 1.0) * h, out=sums)
        np.maximum(best, sums, out=best)
    return Weight(w.grid, best)


def fractional_maximal_brute(w: Weight, alpha: float) -> Weight:
    h = w.grid.h
    rows = []
    for t, s in enumerate(_fractional_halfwidths(w.grid.n)):
        r = h * (2.0**t)
        rows.append(r ** (alpha - 1.0) * h * window_sums_naive(w.values, s))
    return Weight(w.grid, np.max(np.stack(rows), axis=0))


# ---------------------------------------------------------------------------
# approach-region and global operators


def _region_sup(grid: Grid, radii: Sequence[float], rows, factor_fn, aperture_fn,
                naive: bool) -> Weight:
    """sup over (y, r): factor(r) * row_r(y), |y - x| <= aperture(r).

    ``rows`` yields, per radius, the rung's row (scaled in place) and the
    half-width of the window behind it. The radii increase and the
    apertures shrink, so every rung feeds one doubling cascade
    (:func:`oscillab._util.sliding_max_ladder`); ``naive`` swaps it for the
    supremum taken rung by rung over naive sliding maxima.
    """
    reach = 0

    def rungs():
        nonlocal reach
        width = math.inf
        for r, (row, s) in zip(radii, rows):
            t = cells(aperture_fn(r), grid.h)
            if t > width:
                raise ValueError("region apertures must not grow with the radius")
            width, reach = t, max(reach, s + t)
            yield np.multiply(row, factor_fn(r), out=row), t

    best = (sliding_max_ladder_naive if naive else sliding_max_ladder)(rungs(), grid.n)
    return Weight(grid, best, boundary=boundary_mask(grid.n, reach))


def _window_sup(w: Weight, radii: Sequence[float], scale, naive: bool) -> Weight:
    """Region supremum of scale(r) * h * window_sum_r: the approach and
    global operators, whose aperture and normalization are both scale(r).
    ``naive`` sums every window directly instead of through the ladder.
    """
    h = w.grid.h
    halfwidths = [cells(r, h) for r in radii]
    if naive:
        sums = (window_sums_naive(w.values, s) for s in halfwidths)
    else:
        sums = window_sum_ladder(w.values, halfwidths)
    return _region_sup(w.grid, radii, zip(sums, halfwidths), lambda r: scale(r) * h, scale,
                       naive)


def _approach(w: Weight, ell: int, lam: float, naive: bool) -> Weight:
    check_ell(ell)
    check_lambda(lam)
    h = w.grid.h
    max_h = (1.0 / lam) / 4.0
    if h > max_h:
        raise UnderResolved("grid too coarse for the smallest radius", max_h)
    e = 1.0 / (ell - 1)
    return _window_sup(w, approach_radii(ell, lam, h), lambda r: (lam * r) ** (-e), naive)


def approach_maximal(w: Weight, ell: int, lam: float) -> Weight:
    """The approach-region maximal function on the grid: radii in
    (1/lam, lam^(-1/ell)], aperture and normalization (lam*r)^(-1/(ell-1)).

    Fast path: one prefix sum per call, one O(n) slice difference per
    rung for the clamped window sums, and the aperture supremum by one
    doubling cascade for all rungs: log2(2t+1) passes in all, t the widest
    aperture in cells (at most n - 1), and two slice maxima per rung (see
    ``_region_sup``).
    """
    return _approach(w, ell, lam, naive=False)


def approach_maximal_brute(w: Weight, ell: int, lam: float) -> Weight:
    return _approach(w, ell, lam, naive=True)


def _global(w: Weight, ell: int, naive: bool) -> Weight:
    check_ell(ell)
    e = 1.0 / (ell - 1)
    return _window_sup(w, global_radii(w.grid.h), lambda r: r ** (-e), naive)


def global_maximal(w: Weight, ell: int) -> Weight:
    """Global variant: radii in (0, 1], aperture and normalization r^(-1/(ell-1))."""
    return _global(w, ell, naive=False)


def global_maximal_brute(w: Weight, ell: int) -> Weight:
    return _global(w, ell, naive=True)


# ---------------------------------------------------------------------------
# regularized family


def bump_samples(h: float, r: float) -> np.ndarray:
    """Samples of P_r(x) = (1/r) P(x/r) at the grid offsets |x| <= 2r, where
    P(t) = standard_bump(t/2) is the fixed bump, positive on (-2, 2)."""
    k = cells(2.0 * r, h)
    offs = np.arange(-k, k + 1) * h
    return standard_bump(offs / r / 2.0) / r


def _bump_convolutions(values: np.ndarray, grid: Grid, radii: Sequence[float], fft: bool):
    """|P_r * f| per rung, yielded one at a time: by the padded FFT path when
    ``fft`` is set and the bump fits inside the grid window, else by
    np.convolve."""
    h = grid.h
    for r in radii:
        pr = bump_samples(h, r)
        k = len(pr) // 2
        mid = grid.n // 2
        if fft and k < mid:
            kern = np.zeros(grid.n, dtype=np.complex128)
            kern[mid - k: mid + k + 1] = pr
            kgrid = kernel_frame(grid)
            res = convolve(SampledFunction(kgrid, kern), SampledFunction(kgrid, values))
            yield np.abs(res.values)
        else:
            full = np.convolve(values, pr)
            yield h * np.abs(full[k: k + grid.n])


def _regular(w: Weight | SampledFunction, ell: int, lam: float | None, beta: float | None,
             radii: Sequence[float] | None, naive: bool) -> Weight:
    if (lam is None) == (beta is None):
        raise ValueError("exactly one of lam and beta must be given")
    if beta is not None and not (0.0 <= beta <= 1.0):
        raise ValueError("beta must lie in [0, 1]")
    check_ell(ell)
    if lam is not None:
        check_lambda(lam)
    grid = w.grid
    h = grid.h
    if radii is None:
        radii = regular_radii(ell, lam if lam is not None else 1.0, h)
    else:
        radii = sorted(snap_radius(r, h) for r in radii)
    e = 1.0 / (ell - 1)
    if lam is not None:
        factor = lambda r: r * (lam * r) ** (-e)
        aperture = lambda r: (lam * r) ** (-e)
    else:
        factor = lambda r: r ** (ell * beta * e)
        aperture = lambda r: r ** (-e)
    # the oracle always convolves directly; the fast form by FFT above n = 4096
    convs = _bump_convolutions(np.asarray(w.values), grid, radii,
                               fft=not naive and grid.n > 4096)
    rows = zip(convs, [cells(2.0 * r, h) for r in radii])
    return _region_sup(grid, radii, rows, factor, aperture, naive)


def regular_maximal(w: Weight | SampledFunction, ell: int, *, lam: float | None = None,
                    beta: float | None = None, radii: Sequence[float] | None = None) -> Weight:
    """Bump-regularized maximal family.

    Exactly one of ``lam`` (the lam-form, radii in (0, lam^(-1/ell)],
    objective r*(lam*r)^(-1/(ell-1)) |P_r * w|) and ``beta`` (the
    analytic family at lam = 1, objective r^(ell*beta/(ell-1)) |P_r * w|)
    must be given. Signed input is allowed: the objective takes absolute
    values, as the analytic family is tested on mean-zero atoms. Each rung's
    bump convolution is direct up to n = 4096 samples and by padded FFT above.
    """
    return _regular(w, ell, lam, beta, radii, naive=False)


def regular_maximal_brute(w: Weight | SampledFunction, ell: int, *, lam: float | None = None,
                          beta: float | None = None) -> Weight:
    """Oracle: evaluates the region suprema naively, and convolves every rung
    directly. Up to n = 4096 samples the fast form convolves directly too, so
    the two share the per-rung convolution; above it the fast form convolves
    by padded FFT (validated separately against direct quadrature)."""
    return _regular(w, ell, lam, beta, None, naive=True)


# ---------------------------------------------------------------------------
# config-string dispatch


# Mk:K makes K passes over the weight's grid; K * n above this budget is
# refused before the first pass.
MAX_ITERATED_CELLS = 2**22


def _iterated(name: str, w: Weight, k: int) -> Weight:
    if k * w.grid.n > MAX_ITERATED_CELLS:
        raise ValueError(f"maximal operator {name!r} makes {k} passes over "
                         f"{w.grid.n} cells, more than the budget "
                         f"MAX_ITERATED_CELLS = 2^22 cells")
    return hardy_littlewood(w, k)


# Per head: the config-string format, the type of each field, and the
# operator of (name, w, *fields). The operators name hardy_littlewood and
# approach_maximal, never hold them, so they call whatever this module binds
# to those names when they are applied.
_OPERATORS = {
    "M": ("M", (), lambda name, w: hardy_littlewood(w, 1)),
    "Mk": ("Mk:K", (int,), _iterated),
    "Malpha": ("Malpha:ALPHA", (float,), lambda name, w, alpha: fractional_maximal(w, alpha)),
    "Mll": ("Mll:ELL:LAM", (int, float),
            lambda name, w, ell, lam: approach_maximal(w, ell, lam)),
    "Mtilde": ("Mtilde:ELL", (int,), lambda name, w, ell: global_maximal(w, ell)),
    "Mreg": ("Mreg:ELL:LAM", (int, float),
             lambda name, w, ell, lam: regular_maximal(w, ell, lam=lam)),
    "Mbeta": ("Mbeta:ELL:BETA", (int, float),
              lambda name, w, ell, beta: regular_maximal(w, ell, beta=beta)),
}


def operator_by_name(name: str):
    """Operator factory for config strings.

    Formats: "M", "Mk:4", "Malpha:0.5", "Mll:3:256", "Mtilde:3",
    "Mreg:3:256", "Mbeta:3:1.0". An unknown head or a wrong number of
    fields raises ValueError, and so does applying Mk:K to a weight of n
    samples when K * n exceeds ``MAX_ITERATED_CELLS``.
    """
    head, *fields = name.split(":")
    if head not in _OPERATORS:
        raise ValueError(f"unknown maximal operator name: {name!r}")
    form, kinds, operator = _OPERATORS[head]
    if len(fields) != len(kinds):
        raise ValueError(f"maximal operator {name!r} must have the format {form!r}")
    values = [kind(field) for kind, field in zip(kinds, fields)]
    return lambda w: operator(name, w, *values)
