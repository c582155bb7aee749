import csv

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


def translated(phase, a):
    """The phase x -> phi(x - a), derivatives shifted exactly."""
    from oscillab.phases import Phase

    return Phase(phase.kind, lambda k, x: np.asarray(phase._eval_analytic(k, x - a)),
                 phase.max_analytic_order)
