import os
from pathlib import Path

import pytest

from helpers import gaussian_clusters

from slidesvm.admm import TrainConfig, train
from slidesvm.loss import SlideParams

REPO_ROOT = Path(__file__).resolve().parent.parent


def dataset_path(name: str):
    """Path of an on-disk benchmark file, or None when it was never fetched.

    Files live under <repo>/data by default; SLIDESVM_DATA overrides.
    """
    base = Path(os.environ.get("SLIDESVM_DATA", REPO_ROOT / "data"))
    path = base / name
    return path if path.exists() else None


def require_dataset(name: str) -> Path:
    path = dataset_path(name)
    if path is None:
        pytest.skip(
            f"benchmark file {name!r} not present; run scripts/fetch_datasets.py "
            "on a machine with network access and copy the data/ directory here"
        )
    return path


@pytest.fixture(scope="session")
def clusters200():
    return gaussian_clusters(200, seed=42)


@pytest.fixture(scope="session")
def clusters_config():
    return TrainConfig(C=1.0, delta=1.0, slide=SlideParams(0.1, 1.0), eta=1.618)


@pytest.fixture(scope="session")
def trained_clusters(clusters200, clusters_config):
    """Converged run on the separable 2-D set, shared across tests."""
    mdl, diag = train(clusters200, clusters_config)
    assert diag.converged
    return mdl, diag
