"""Test data that needs no files: two Gaussian clusters, the LIBSVM text of
a Dataset, and the stock grid's config list.

The package never calls these; the tests build their inputs with them.
"""

from __future__ import annotations

import numpy as np

from slidesvm.admm import TrainConfig
from slidesvm.data import Dataset
from slidesvm.tuning import STOCK_POWERS, STOCK_V_VALUES, grid_configs


def gaussian_clusters(m: int = 200, seed: int = 0, center: float = 2.0) -> Dataset:
    """Two unit-variance 2-D Gaussian clusters at (+c, +c) with label +1 and
    (-c, -c) with label -1, half the samples each."""
    rng = np.random.default_rng(seed)
    half = m // 2
    pos = rng.normal(loc=center, scale=1.0, size=(half, 2))
    neg = rng.normal(loc=-center, scale=1.0, size=(m - half, 2))
    X = np.vstack([pos, neg])
    y = np.concatenate([np.ones(half), -np.ones(m - half)])
    return Dataset(X, y)


def write_libsvm(ds: Dataset) -> str:
    """Render a Dataset as LIBSVM text: the nonzero entries of each row, with
    1-based indices and repr floats, so that parsing it gives the same bits."""
    out = []
    for x, label in zip(ds.X, ds.y):
        parts = ["+1" if label > 0 else "-1"]
        parts += [f"{j + 1}:{float(x[j])!r}" for j in np.flatnonzero(x)]
        out.append(" ".join(parts))
    return "\n".join(out) + ("\n" if out else "")


def default_grid() -> list[TrainConfig]:
    """The stock grid's 2250 configs, as the CLI's grid flags default to:
    C and delta over the 15 powers sqrt(2)^-7..sqrt(2)^7, v over 0.1..1.0,
    epsilon = v/10, and TrainConfig's solver settings eta=1.618, K=1000,
    tol=1e-3."""
    return grid_configs(STOCK_POWERS, STOCK_POWERS, STOCK_V_VALUES)
