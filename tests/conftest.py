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
    """Write a weight in the format ``numerics.load_weight_csv`` reads."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "w"])
        for x, v in zip(w.grid.xs, w.values):
            writer.writerow([repr(float(x)), repr(float(v))])
