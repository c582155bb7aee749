import csv
import tracemalloc

import hypothesis
import numpy as np
import pytest

hypothesis.settings.register_profile(
    "default", max_examples=20, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def quantized_weight(grid, seed):
    """Random weight with values on the 2^-12 lattice: window sums are then
    exact in floating point, so fast-vs-brute comparisons can be bitwise."""
    from oscillab.verify import random_weight

    return random_weight(grid, np.random.default_rng(seed))


def save_weight_csv(w, path):
    """Write a weight in the format ``cli.load_weight_csv`` reads."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "w"])
        for x, v in zip(w.grid.xs, w.values):
            writer.writerow([repr(float(x)), repr(float(v))])


def sampled(grid, fn):
    """The function fn sampled at the grid's positions."""
    from oscillab.numerics import SampledFunction

    return SampledFunction(grid, np.asarray(fn(grid.xs), dtype=np.complex128))


def index_of(grid, x):
    """Nearest sample index of position ``x`` on the grid."""
    return int(round((x - grid.center + grid.half_width) / grid.h))


def convolve_direct(f, g):
    """Direct O(n^2) counterpart of ``numerics.convolve``: np.convolve of the
    samples, placed on the shared grid as ``convolve`` places its padded FFT
    product (the quadrature oracle path)."""
    from oscillab.numerics import SampledFunction

    grid = f.grid
    assert g.grid == grid
    n = grid.n
    full = np.convolve(f.values, g.values)
    shift = n // 2 - int(round(grid.center / grid.h))
    lo, hi = max(shift, 0), min(shift + n, len(full))
    out = np.zeros(n, dtype=np.complex128)
    if lo < hi:
        out[lo - shift: hi - shift] = full[lo:hi]
    return SampledFunction(grid, np.multiply(grid.h, out, out=out))


def traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc (numpy reports its buffers) during one
    call of fn, above those traced when it starts. Call fn once before, so that
    imports and caches are paid for."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def h1_atom(grid, width):
    """Mean-zero atom on [-width/2, width/2] with |a| <= 1/width.

    The width snaps to an even cell count so the grid mean vanishes
    exactly.
    """
    from oscillab.numerics import SampledFunction

    half_cells = max(1, int(round(width / (2 * grid.h))))
    mid = grid.n // 2
    vals = np.zeros(grid.n)
    actual = 2 * half_cells * grid.h
    vals[mid - half_cells: mid] = 1.0 / actual
    vals[mid: mid + half_cells] = -1.0 / actual
    return SampledFunction(grid, vals)


def annuli_project(f, idx, p):
    """Sharp frequency restriction of f to the p-th annulus of the AnnuliIndex idx."""
    from oscillab.numerics import forward_transform, restrict

    fhat = forward_transform(f)
    return restrict(fhat, idx.membership(p, fhat.freq_grid.xs))


def translated(phase, a):
    """The phase x -> phi(x - a), derivatives shifted exactly."""
    from oscillab.phases import Phase

    return Phase(phase.kind, lambda k, x: np.asarray(phase._eval_analytic(k, x - a)),
                 phase.max_analytic_order)
